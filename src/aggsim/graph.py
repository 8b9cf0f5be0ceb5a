"""Communication graphs: generation, role assignment, and analysis.

Systems may overhear each other's reports only along edges of an undirected
communication graph. Each node carries a role: a withhold node merely
suppresses its own redundant reports, while a forward node also relays
identifiers of overheard reports to its neighbors. The network parameter x,
the largest number of systems that can be forced to report the same
information, interpolates the competitive ratio between full
intercommunication (x=1) and none (x=N).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Container, Iterable, Sequence

import numpy as np

from aggsim.model import LineError, ValidationError

__all__ = [
    "Role",
    "CommGraph",
    "GraphFormatError",
    "GenerationError",
    "gen_udg",
    "greedy_mis",
    "greedy_cds",
    "compute_x",
]


class GraphFormatError(LineError):
    """Raised on malformed graph text."""


class GenerationError(RuntimeError):
    """Raised when random graph generation exhausts its retry budget."""


class Role(enum.Enum):
    WITHHOLD = "withhold"
    FORWARD = "forward"


@dataclass(frozen=True)
class CommGraph:
    """Undirected simple graph over system indices 0..n-1 with node roles."""

    n: int
    edges: frozenset[tuple[int, int]]
    roles: tuple[Role, ...] = ()
    _adj: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"graph needs at least one node, got {self.n}")
        norm = set()
        for e in self.edges:
            a, b = e
            if a == b:
                raise ValidationError(f"self-loop at node {a}")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValidationError(f"edge {e} out of range for n={self.n}")
            norm.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(norm))
        roles = self.roles or tuple(Role.WITHHOLD for _ in range(self.n))
        if len(roles) != self.n:
            raise ValidationError(
                f"roles length {len(roles)} does not match n={self.n}"
            )
        object.__setattr__(self, "roles", tuple(roles))
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for a, b in sorted(norm):
            adj[a].append(b)
            adj[b].append(a)
        object.__setattr__(self, "_adj", tuple(tuple(x) for x in adj))

    @classmethod
    def complete(cls, n: int) -> "CommGraph":
        return cls(
            n, frozenset((i, j) for i in range(n) for j in range(i + 1, n))
        )

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]]
    ) -> "CommGraph":
        return cls(n, frozenset(tuple(e) for e in edges))

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adj[i]

    @property
    def avg_degree(self) -> float:
        return 2.0 * len(self.edges) / self.n

    def with_roles(self, roles: Sequence[Role]) -> "CommGraph":
        return CommGraph(self.n, self.edges, tuple(roles))

    def forward_nodes(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.roles[i] is Role.FORWARD)

    def _component(self, v: int, members: Container[int]) -> set[int]:
        """Nodes of `members` reachable from v through `members`."""
        comp = {v}
        stack = [v]
        while stack:
            a = stack.pop()
            for b in self._adj[a]:
                if b in members and b not in comp:
                    comp.add(b)
                    stack.append(b)
        return comp

    def is_connected(self) -> bool:
        return len(self._component(0, range(self.n))) == self.n

    # Text format: `n` header, one `i j` line per edge (sorted), then an
    # optional `roles` section (one line of F/W characters, one per node).
    # Reading stops at a `positions` line, which older files may carry.
    def to_text(self) -> str:
        lines = [str(self.n)]
        lines.extend(f"{a} {b}" for a, b in sorted(self.edges))
        if any(r is Role.FORWARD for r in self.roles):
            lines.append("roles")
            lines.append(
                "".join("F" if r is Role.FORWARD else "W" for r in self.roles)
            )
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_text())

    @classmethod
    def from_text(cls, text: str) -> "CommGraph":
        lines = text.splitlines()
        if not lines:
            raise GraphFormatError("empty graph file", line=1)
        try:
            n = int(lines[0].strip())
        except ValueError:
            raise GraphFormatError(
                "header must be the node count", line=1
            ) from None
        if n < 1:
            raise GraphFormatError(
                f"graph needs at least one node, got {n}", line=1
            )
        edges = []
        roles: tuple[Role, ...] | None = None
        roles_line = None
        for lineno, raw in enumerate(lines[1:], start=2):
            line = raw.strip()
            if not line:
                continue
            if line == "positions":
                break
            if line == "roles":
                if roles_line is not None:
                    raise GraphFormatError("second roles section", line=lineno)
                roles_line = lineno
                continue
            parts = line.split()
            if roles_line is not None:
                if roles is not None:
                    raise GraphFormatError(
                        "extra line after the roles row", line=lineno
                    )
                if len(line) != n or set(line) - {"F", "W"}:
                    raise GraphFormatError(
                        f"roles line must be {n} F/W characters", line=lineno
                    )
                roles = tuple(
                    Role.FORWARD if c == "F" else Role.WITHHOLD for c in line
                )
            else:
                if len(parts) != 2:
                    raise GraphFormatError(
                        "edge line must be `i j`", line=lineno
                    )
                try:
                    a, b = int(parts[0]), int(parts[1])
                except ValueError:
                    raise GraphFormatError(
                        f"bad edge {line!r}", line=lineno
                    ) from None
                if not (0 <= a < n and 0 <= b < n):
                    raise GraphFormatError(
                        f"edge ({a}, {b}) out of range for n={n}", line=lineno
                    )
                if a == b:
                    raise GraphFormatError(
                        f"self-loop at node {a}", line=lineno
                    )
                edges.append((a, b))
        if roles_line is not None and roles is None:
            raise GraphFormatError("roles line has no roles row", line=roles_line)
        return cls(n, frozenset(edges), roles or ())

    @classmethod
    def load(cls, path: str) -> "CommGraph":
        with open(path) as fh:
            return cls.from_text(fh.read())


def gen_udg(n: int, target_avg_degree: float, seed: int) -> CommGraph:
    """Random connected unit-disk graph with a prescribed average degree.

    Scatters n points uniformly in the unit square and takes as connection
    radius the k-th smallest pair distance, k the fewest pairs whose
    average degree 2k/n reaches the target; the points are resampled
    (bounded retries) until that degree is within 1 of the target and the
    graph is connected. Deterministic per seed.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    if not 0 <= target_avg_degree < n:
        raise ValidationError(
            f"target average degree {target_avg_degree} must lie in [0, {n})"
        )
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    ii, jj = np.triu_indices(n, 1)
    pairs = ii.size
    k = min(
        int(np.searchsorted(2 * np.arange(pairs + 1) / n, target_avg_degree)),
        pairs,
    )

    for _ in range(60):
        pts = rng.uniform(size=(n, 2))
        dist = np.sqrt(((pts[ii] - pts[jj]) ** 2).sum(axis=1))
        radius = np.partition(dist, k - 1)[k - 1] if k else 0.0
        within = dist <= radius
        avg = 2 * within.sum() / n
        if abs(avg - target_avg_degree) > 1.0:
            continue
        edges = zip(ii[within].tolist(), jj[within].tolist())
        g = CommGraph(n, frozenset(edges))
        if g.is_connected():
            return g
    raise GenerationError(
        f"no connected unit-disk graph with avg degree ~{target_avg_degree} "
        f"found for n={n} after 60 attempts"
    )


def _greedy_mis(g: CommGraph, high_first: bool, nodes: Iterable[int]) -> frozenset[int]:
    """Maximal independent set of the subgraph induced by `nodes`, greedily
    taking the node of minimum (or, with `high_first`, maximum) degree in
    the shrinking residual graph; ties break to the lowest node index."""
    sign = -1 if high_first else 1
    alive = set(nodes)
    deg = {v: len(alive.intersection(g.neighbors(v))) for v in alive}
    chosen: set[int] = set()
    while alive:
        v = min(alive, key=lambda u: (sign * deg[u], u))
        chosen.add(v)
        removed = {v} | (set(g.neighbors(v)) & alive)
        alive -= removed
        for u in removed:
            for w in g.neighbors(u):
                if w in alive:
                    deg[w] -= 1
    return frozenset(chosen)


def greedy_mis(g: CommGraph) -> frozenset[int]:
    """Maximal independent set, greedily taking the minimum-degree node."""
    return _greedy_mis(g, high_first=False, nodes=range(g.n))


def greedy_cds(g: CommGraph) -> frozenset[int]:
    """Approximate connected dominating set via the two-phase construction.

    Phase one grows a dominating independent seed set, taking the highest
    residual degree first (so hub nodes are preferred); phase two connects
    the seed components with shortest connector paths, merged in node-index
    order. The result is verified dominating and connected for the caller by
    construction.
    """
    if not g.is_connected():
        raise ValidationError("connected dominating set needs a connected graph")
    cds = set(_greedy_mis(g, high_first=True, nodes=range(g.n)))
    while True:
        comp = g._component(min(cds), cds)
        if comp == cds:
            break
        # BFS over the whole graph from the anchor component to the nearest
        # node of another CDS component; connector interiors join the set.
        parent: dict[int, int | None] = {v: None for v in comp}
        frontier = sorted(comp)
        target = None
        while frontier and target is None:
            nxt: list[int] = []
            for v in frontier:
                for u in g.neighbors(v):
                    if u in parent:
                        continue
                    parent[u] = v
                    if u in cds:
                        target = u
                        break
                    nxt.append(u)
                if target is not None:
                    break
            frontier = nxt
        v = parent[target]
        while v is not None and v not in comp:
            cds.add(v)
            v = parent[v]
    return frozenset(cds)


def compute_x(g: CommGraph) -> int:
    """Network parameter x: forward nodes plus a greedy maximal independent
    set of the withhold nodes outside every forward node's neighborhood.

    With MIS or CDS roles no such node is left, so x is the forward count;
    otherwise the greedy set may fall short of the largest one.
    """
    fwd = g.forward_nodes()
    blocked = set(fwd)
    for v in fwd:
        blocked.update(g.neighbors(v))
    free = set(range(g.n)) - blocked
    return len(fwd) + len(_greedy_mis(g, high_first=False, nodes=free))
