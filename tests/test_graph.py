"""Tests for communication graphs, greedy set covers, and the network
parameter."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggsim.graph import (
    CommGraph,
    GenerationError,
    GraphFormatError,
    Role,
    compute_x,
    gen_udg,
    greedy_cds,
    greedy_mis,
)
from aggsim.model import ValidationError
import oracles


def path(n):
    return CommGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(n):
    return CommGraph.from_edges(n, [(0, i) for i in range(1, n)])


def random_graph(rng, n, p=0.4):
    edges = [
        (a, b)
        for a, b in itertools.combinations(range(n), 2)
        if rng.uniform() < p
    ]
    return CommGraph.from_edges(n, edges)


# ------------------------------------------------------------- construction


def test_basic_accessors():
    g = CommGraph.from_edges(4, [(1, 0), (1, 2), (3, 1)])
    assert g.n == 4
    assert g.neighbors(1) == (0, 2, 3)
    assert len(g.neighbors(1)) == 3 and len(g.neighbors(0)) == 1
    assert g.avg_degree == pytest.approx(1.5)
    assert g.is_connected()
    assert not CommGraph.from_edges(3, []).is_connected()
    assert not CommGraph.from_edges(4, [(0, 1), (2, 3)]).is_connected()
    assert CommGraph.from_edges(1, []).is_connected()
    assert len(CommGraph.complete(4).neighbors(2)) == 3


def test_validation():
    with pytest.raises(ValidationError):
        CommGraph.from_edges(3, [(0, 0)])
    with pytest.raises(ValidationError):
        CommGraph.from_edges(3, [(0, 3)])
    with pytest.raises(ValidationError):
        CommGraph(2, frozenset(), roles=(Role.WITHHOLD,))


def test_empty_graphs_are_rejected():
    with pytest.raises(ValidationError) as exc:
        CommGraph(0, frozenset())
    assert str(exc.value) == "graph needs at least one node, got 0"
    with pytest.raises(GraphFormatError) as exc:
        CommGraph.from_text("")
    assert str(exc.value) == "line 1: empty graph file"
    with pytest.raises(ValidationError) as exc:
        gen_udg(0, 0.0, 0)
    assert str(exc.value) == "need n >= 1, got 0"


def test_roles():
    g = path(3).with_roles([Role.WITHHOLD, Role.FORWARD, Role.WITHHOLD])
    assert g.forward_nodes() == (1,)
    assert path(3).forward_nodes() == ()  # default all-withhold
    with pytest.raises(ValidationError):
        path(3).with_roles([Role.FORWARD])


# ------------------------------------------------------------ serialization


def test_text_round_trip(tmp_path):
    g = CommGraph.from_edges(5, [(0, 1), (1, 2), (0, 4), (3, 4)])
    p = tmp_path / "g.txt"
    g.save(p)
    assert CommGraph.load(p) == g


def test_legacy_positions_section_is_ignored():
    g = CommGraph.from_edges(3, [(0, 1), (1, 2)]).with_roles(
        [Role.WITHHOLD, Role.FORWARD, Role.WITHHOLD]
    )
    legacy = g.to_text() + "positions\n0.5 0.25\n0.1 0.9\n0.75 0.0\n"
    assert CommGraph.from_text(legacy) == g
    no_roles = "2\n0 1\npositions\n0.0 0.0\n1.0 1.0\n"
    assert CommGraph.from_text(no_roles) == CommGraph.from_edges(2, [(0, 1)])
    assert "positions" not in gen_udg(12, 4.0, seed=7).to_text()


def test_text_round_trip_with_roles(tmp_path):
    g = CommGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)]).with_roles(
        [Role.WITHHOLD, Role.FORWARD, Role.FORWARD, Role.WITHHOLD]
    )
    p = tmp_path / "g.txt"
    g.save(p)
    back = CommGraph.load(p)
    assert back.roles == g.roles
    assert back.forward_nodes() == (1, 2)
    with pytest.raises(GraphFormatError) as e:
        CommGraph.from_text("3\n0 1\nroles\nFX\n")
    assert "line 4" in str(e.value)


def test_format_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError) as e:
        CommGraph.from_text("not-a-number\n")
    assert "line 1" in str(e.value)
    with pytest.raises(GraphFormatError) as e:
        CommGraph.from_text("3\n0 1\n0 9\n")
    assert "line 3" in str(e.value)
    with pytest.raises(GraphFormatError) as e:
        CommGraph.from_text("3\n0 1 7\n")
    assert "line 2" in str(e.value)
    for header in ("0", "-2"):
        with pytest.raises(GraphFormatError) as e:
            CommGraph.from_text(header + "\n")
        assert "line 1" in str(e.value) and "at least one node" in str(e.value)
    with pytest.raises(GraphFormatError) as e:  # no roles row
        CommGraph.from_text("3\n0 1\nroles\n")
    assert "line 3" in str(e.value)
    with pytest.raises(GraphFormatError) as e:  # no roles row before positions
        CommGraph.from_text("3\n0 1\nroles\npositions\n")
    assert "line 3" in str(e.value)
    with pytest.raises(GraphFormatError) as e:  # second roles section
        CommGraph.from_text("3\n0 1\nroles\nWFW\nroles\nFFF\n")
    assert "line 5" in str(e.value)
    with pytest.raises(GraphFormatError) as e:  # second roles row
        CommGraph.from_text("3\n0 1\nroles\nWFW\nFFF\n")
    assert "line 5" in str(e.value)


# -------------------------------------------------------------- generation


def test_udg_single_node():
    for seed in (0, 1, 2):
        g = gen_udg(1, 0.0, seed=seed)
        assert g == CommGraph.from_edges(1, []) and g.is_connected()
        assert greedy_mis(g) == greedy_cds(g) == frozenset({0})


def test_udg_degree_window_and_connectivity():
    for seed in (0, 1, 2):
        g = gen_udg(100, 18.0, seed=seed)
        assert g.is_connected()
        assert 17.0 <= g.avg_degree <= 19.0
        # run_net visits receivers in this order, which fixes its float sums
        for i in range(g.n):
            assert list(g.neighbors(i)) == sorted(g.neighbors(i))


def test_udg_deterministic():
    assert gen_udg(60, 10.0, seed=42) == gen_udg(60, 10.0, seed=42)
    assert gen_udg(60, 10.0, seed=42) != gen_udg(60, 10.0, seed=43)


def test_udg_rejects_infeasible_target():
    with pytest.raises(ValidationError):
        gen_udg(10, 10.0, seed=0)


@st.composite
def udg_targets(draw):
    """A node count and target degrees: 0, a fraction of n, n - 1, and the
    degree 2c/n of c edges with its two neighbouring floats, where the
    radius rule changes its edge count."""
    n = draw(st.integers(1, 40))
    exact = 2 * draw(st.integers(0, n * (n - 1) // 2)) / n
    targets = [
        0.0,
        n * draw(st.sampled_from([0.05, 0.25, 0.5, 0.8, 0.95])),
        n - 1.0,
        exact,
        float(np.nextafter(exact, -np.inf)),
        float(np.nextafter(exact, np.inf)),
    ]
    return n, [t for t in targets if 0 <= t < n]


def _udg_or_failure(gen, n, target, seed):
    try:
        return gen(n, target, seed)
    except GenerationError:
        return GenerationError


@settings(max_examples=100, derandomize=True, deadline=None)
@given(udg_targets(), st.integers(0, 2**32 - 1))
def test_udg_radius_matches_the_bisection(case, seed):
    # the k-th smallest pair distance is the radius the bisection found
    n, targets = case
    for target in targets:
        assert _udg_or_failure(gen_udg, n, target, seed) == _udg_or_failure(
            oracles.bisect_udg, n, target, seed
        ), target


# ------------------------------------------------------------- greedy sets


def test_mis_examples():
    assert greedy_mis(CommGraph.complete(6)) == frozenset({0})
    assert greedy_mis(CommGraph.from_edges(5, [])) == frozenset(range(5))
    assert greedy_mis(path(3)) == frozenset({0, 2})


def test_cds_examples():
    assert greedy_cds(star(7)) == frozenset({0})
    assert greedy_cds(CommGraph.complete(5)) == frozenset({0})
    cds = greedy_cds(path(5))
    assert set(cds) == {1, 2, 3}
    assert len(cds) == oracles.brute_min_cds_size(5, path(5).edges)
    with pytest.raises(ValidationError):
        greedy_cds(CommGraph.from_edges(3, []))


def check_independent_maximal(g, nodes):
    s = set(nodes)
    for a, b in g.edges:
        assert not (a in s and b in s)
    for v in range(g.n):
        assert v in s or any(u in s for u in g.neighbors(v))


def test_mis_independent_and_maximal_random():
    rng = np.random.default_rng(5)
    for _ in range(40):
        g = random_graph(rng, int(rng.integers(1, 13)))
        check_independent_maximal(g, greedy_mis(g))


def test_cds_dominating_and_connected_random():
    rng = np.random.default_rng(6)
    done = 0
    while done < 40:
        g = random_graph(rng, int(rng.integers(2, 13)), p=0.5)
        if not g.is_connected():
            continue
        done += 1
        cds = set(greedy_cds(g))
        for v in range(g.n):
            assert v in cds or any(u in cds for u in g.neighbors(v))
        sub = CommGraph.from_edges(
            g.n, [(a, b) for a, b in g.edges if a in cds and b in cds]
        )
        seen = {next(iter(cds))}
        todo = [next(iter(cds))]
        while todo:
            v = todo.pop()
            for u in sub.neighbors(v):
                if u in cds and u not in seen:
                    seen.add(u)
                    todo.append(u)
        assert seen == cds


def test_mis_not_larger_than_optimal():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(1, 11)))
        assert len(greedy_mis(g)) <= oracles.brute_mis_size(g.n, g.edges)


# ---------------------------------------------------------------- x values


def test_x_configuration_examples():
    assert compute_x(CommGraph.from_edges(9, [])) == 9
    assert compute_x(CommGraph.complete(9)) == 1
    assert compute_x(path(3)) == 2


def test_x_against_brute_force():
    # x is the forward count plus a greedy independent set of the withhold
    # nodes no forward node covers: never above the exhaustive x, and equal
    # to it when those nodes are pairwise non-adjacent
    rng = np.random.default_rng(8)
    for _ in range(40):
        g = random_graph(rng, int(rng.integers(1, 11)))
        k = int(rng.integers(0, g.n + 1))
        fwd = sorted(rng.choice(g.n, size=k, replace=False).tolist())
        roles = [
            Role.FORWARD if v in fwd else Role.WITHHOLD for v in range(g.n)
        ]
        g = g.with_roles(roles)
        x = compute_x(g)
        brute = oracles.brute_x(g.n, g.edges, fwd)
        assert len(fwd) <= x <= brute
        assert 1 <= x <= g.n
        covered = set(fwd).union(*(g.neighbors(v) for v in fwd))
        free = set(range(g.n)) - covered
        if not any(a in free and b in free for a, b in g.edges):
            assert x == brute


@st.composite
def role_graphs(draw):
    """Graphs of up to 16 nodes, each pair joined with one drawn
    probability, and a few forward nodes, so that many withhold nodes are
    left uncovered."""
    n = draw(st.integers(1, 16))
    p = draw(st.sampled_from([0.1, 0.2, 0.3, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    forward = draw(st.sets(st.integers(0, n - 1), max_size=n // 4))
    roles = [
        Role.FORWARD if v in forward else Role.WITHHOLD for v in range(n)
    ]
    return random_graph(rng, n, p).with_roles(roles)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(role_graphs())
def test_x_greedy_over_uncovered_nodes_equals_all_node_greedy(g):
    # the greedy set over the uncovered withhold nodes alone picks as the
    # greedy set over all n nodes, with the covered ones isolated, did
    assert compute_x(g) == oracles.greedy_x_on_all_nodes(g)


def test_x_mis_forwarders_collapse_to_mis_size():
    # a maximal independent set dominates the graph, so no withhold node
    # survives the neighbor filter and x is exactly the forwarder count
    rng = np.random.default_rng(9)
    done = 0
    while done < 25:
        g = random_graph(rng, int(rng.integers(2, 11)), p=0.45)
        if not g.is_connected():
            continue
        done += 1
        mis = greedy_mis(g)
        roles = [
            Role.FORWARD if v in set(mis) else Role.WITHHOLD
            for v in range(g.n)
        ]
        assert compute_x(g.with_roles(roles)) == len(mis)


def test_x_is_forward_count_for_sweep_roles():
    # sweeps take x from compute_x; with MIS or CDS roles every withhold
    # node has a forward neighbor, so x is the forward count
    for seed in (0, 1, 2, 3):
        g = gen_udg(100, 18.0, seed=seed)
        for fwd in (greedy_mis(g), greedy_cds(g)):
            roles = [
                Role.FORWARD if v in fwd else Role.WITHHOLD for v in range(100)
            ]
            g = g.with_roles(roles)
            assert compute_x(g) == len(g.forward_nodes())


def test_x_greedy_on_a_cycle_meets_the_cycle_bound():
    # with no forward node x is a greedy independent set of the whole
    # cycle; the largest has n // 2 nodes, and greedy finds that many
    for n in (30, 31):
        g = CommGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        assert compute_x(g) == n // 2
