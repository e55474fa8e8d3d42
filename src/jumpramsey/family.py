"""Monotone path patterns and the jump family.

A monotone path on m vertices has every three consecutive positions as an
edge.  A jump set J marks interior positions that may be skipped; a pattern
on [m] belongs to the family for J when it contains every consecutive
triple together with the repair edges around each jump:

  condition 0: J avoids position 1, position m, and consecutive pairs;
  condition 1: for v in J, (v-2, v-1, v+1) and (v-1, v+1, v+2) are edges;
  condition 2: if v-1 and v+1 are both in J, (v-2, v, v+2) is an edge.

Edges whose positions fall outside [m] are simply not required.  The
minimal member with n jumps lives on 2n+1 vertices with jumps at the even
positions.
"""

from __future__ import annotations

from itertools import combinations

from .core import OrderedTripleSystem, record


@record
class JumpSpec:
    """A set of jump positions on [m].  Condition 0 is checked on demand,
    not at construction, so that validators can report violations."""

    m: int
    jumps: frozenset[int]

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("m must be nonnegative")
        for j in self.jumps:
            if not 1 <= j <= self.m:
                raise ValueError(f"jump position {j} outside [1, {self.m}]")

    def condition_violation(self) -> str | None:
        """First violated clause of condition 0, scanning jumps in order."""
        js = sorted(self.jumps)
        if 1 in self.jumps:
            return "position 1 is a jump"
        if self.m in self.jumps:
            return f"last position {self.m} is a jump"
        for a, b in zip(js, js[1:]):
            if b == a + 1:
                return f"consecutive jumps {a} and {b}"
        return None

    @property
    def sorted_jumps(self) -> tuple[int, ...]:
        return tuple(sorted(self.jumps))


@record
class OrderedGraph:
    """An ordered graph on [m], used for the pair skeleton of a jump pattern."""

    m: int
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        for (u, v) in self.pairs:
            if not 1 <= u < v <= self.m:
                raise ValueError(f"not an increasing pair in [{self.m}]: ({u}, {v})")

    @property
    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.pairs)


@record
class MemberReport:
    """Outcome of a membership check; reason is None exactly when valid."""

    valid: bool
    reason: str | None = None
    missing_edge: tuple[int, int, int] | None = None


def _as_spec(m: int, jumps) -> JumpSpec:
    if isinstance(jumps, JumpSpec):
        if jumps.m != m:
            raise ValueError(f"jump spec is for [{jumps.m}], not [{m}]")
        return jumps
    return JumpSpec(m, frozenset(jumps))


def _require_valid(spec: JumpSpec) -> JumpSpec:
    violation = spec.condition_violation()
    if violation is not None:
        raise ValueError(f"invalid jump set: {violation}")
    return spec


def monotone_path(m: int) -> OrderedTripleSystem:
    """The tight path: edges (i, i+1, i+2), the power path with t = 3.
    No edges below m = 3."""
    return power_path(m, 3)


def power_path(m: int, t: int) -> OrderedTripleSystem:
    """Every t consecutive vertices form a complete triple system.

    t = 3 gives the tight path back.
    """
    if t < 3:
        raise ValueError("window must cover at least 3 vertices")
    if m < 0:
        raise ValueError("m must be nonnegative")
    edges: set[tuple[int, int, int]] = set()
    for lo in range(1, m - t + 2):
        edges.update(combinations(range(lo, lo + t), 3))
    if m >= 3 and m < t:
        # degenerate window: the whole vertex set
        edges.update(combinations(range(1, m + 1), 3))
    return OrderedTripleSystem(m, frozenset(edges))


def jump_min(n: int) -> tuple[OrderedTripleSystem, JumpSpec]:
    """The minimal pattern with n jumps: 2n+1 vertices, jumps at 2, 4, ..., 2n,
    and exactly the edges those jumps require."""
    if n < 1:
        raise ValueError("need at least one jump")
    spec = JumpSpec(2 * n + 1, frozenset(range(2, 2 * n + 1, 2)))
    return required_edges(spec.m, spec), spec


def required_edges(m: int, jumps) -> OrderedTripleSystem:
    """Every edge a pattern on [m] with the given jumps must contain."""
    spec = _require_valid(_as_spec(m, jumps))
    edges = set((i, i + 1, i + 2) for i in range(1, m - 1))
    for v in sorted(spec.jumps):
        for e in ((v - 2, v - 1, v + 1), (v - 1, v + 1, v + 2)):
            if e[0] >= 1 and e[2] <= m:
                edges.add(e)
    for v in range(2, m):
        if v - 1 in spec.jumps and v + 1 in spec.jumps:
            e = (v - 2, v, v + 2)
            if e[0] >= 1 and e[2] <= m:
                edges.add(e)
    return OrderedTripleSystem(m, frozenset(edges))


def validate_jump_member(pattern: OrderedTripleSystem, jumps) -> MemberReport:
    """Check that pattern contains everything the jump set demands.

    Violations come back in a report, never as an exception: first any
    broken clause of condition 0, then the lexicographically first missing
    required edge.
    """
    try:
        spec = _as_spec(pattern.m, jumps)
    except ValueError as exc:
        return MemberReport(False, str(exc))
    violation = spec.condition_violation()
    if violation is not None:
        return MemberReport(False, violation)
    need = required_edges(pattern.m, spec)
    for edge in need.sorted_edges:
        if edge not in pattern.edges:
            return MemberReport(False, f"missing required edge {edge}", edge)
    return MemberReport(True)


def associated_graph(m: int, jumps) -> OrderedGraph:
    """Consecutive pairs of [m] plus the chord (v-1, v+1) for each jump v."""
    spec = _require_valid(_as_spec(m, jumps))
    pairs = set((i, i + 1) for i in range(1, m))
    for v in spec.jumps:
        pairs.add((v - 1, v + 1))
    return OrderedGraph(m, frozenset(pairs))
