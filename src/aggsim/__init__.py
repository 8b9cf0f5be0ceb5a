"""Deterministic simulator for threshold-triggered distributed reporting."""

from aggsim.graph import (
    CommGraph,
    GenerationError,
    GraphFormatError,
    Role,
    XResult,
    compute_x,
    gen_udg,
    greedy_cds,
    greedy_mis,
)
from aggsim.harness import (
    ResultRow,
    ScenarioConfig,
    SummaryRow,
    aggregate,
    load_config,
    parse_config,
    rows_to_csv,
    run_scenario,
    summary_to_csv,
    write_results,
    write_summary,
)
from aggsim.model import (
    CommCost,
    CostBreakdown,
    EventTrace,
    LogCost,
    Report,
    ReportSchedule,
    TraceFormatError,
    UnityCost,
    ValidationError,
    evaluate,
)
from aggsim.offline import OfflineResult, offline_lb
from aggsim.online import (
    ThresholdPolicy,
    balance_root,
    ratio_full,
    ratio_none,
    ratio_partial,
    run_itc,
    run_net,
    run_thb,
    threshold_full,
    threshold_none,
    threshold_partial,
)
from aggsim.workload import (
    BigEvents,
    ConstantArrivals,
    PoissonArrivals,
    SmallEvents,
    WeibullArrivals,
    WorkloadSpec,
    gen_sigma2,
    gen_thm6_instance,
    gen_trace,
    perturb,
)

__version__ = "0.1.0"
