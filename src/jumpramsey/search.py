"""Exhaustive avoidance search over red-blue triple colorings.

decide answers "is there a coloring of all triples of [N] with no red copy
of the red pattern and no blue copy of the blue spec", branching over
triples in lex rank order, red first.  The red pattern must be a monotone
path: its presence is tracked by an incremental alpha table, and a branch
dies the moment a pair's depth reaches the path length.  Lex order makes
the table exact without cascades: every triple ending at a pair is decided
before any triple starting there.  A blue monotone path gets the same
treatment.  Other blue specs are pruned by a detector run on the partial
coloring with unassigned triples read as red, which only ever prunes
completed blue structures.  The run is anchored at the triple that just
turned blue: every earlier blue node was checked and every later triple
reads red, so a new copy must put its lex-largest edge there (see module
detect), and the anchored answer equals a full re-run's.  The root probe
and the witness re-check stay full detections.

One walker does all the branching: it runs over a range of ranks with an
explicit stack, so search depth C(N, 3) is bounded by memory and the node
budget, not by the interpreter's recursion limit.  The split enumeration
walks the first ranks and collects the live prefixes; each split replays
its prefix and walks the remaining ranks to a full coloring.

Parallel runs must not change answers, witnesses, or statistics.  Work is
split by enumerating all live prefixes at a fixed depth (independent of
the worker count), each subproblem runs under the same node cap, and the
results fold in prefix order exactly as a single-threaded run would have
encountered them; the budget accounting replays sequential semantics, so
a run that would have starved sequentially reports inconclusive no matter
how many workers finished their pieces.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import comb

from .core import Color, OrderedTripleSystem, TripleColoring, all_triples, pair_rank
from .detect import alpha_table, find_blue_embedding, find_blue_jump_member, longest_red_path
from .family import monotone_path

DEFAULT_BUDGET = 10**9
SPLIT_DEPTH = 4


@dataclass(frozen=True)
class JumpsFamily:
    """Blue-side selector: any member of the n-jump family counts."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one jump")


@dataclass(frozen=True)
class AvoidanceProblem:
    N: int
    red: OrderedTripleSystem
    blue: OrderedTripleSystem | JumpsFamily

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("N must be nonnegative")


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    max_depth: int


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # sat | unsat | inconclusive
    witness: TripleColoring | None
    stats: SearchStats


@dataclass(frozen=True)
class BracketLevel:
    N: int
    outcome: SearchOutcome


@dataclass(frozen=True)
class BracketOutcome:
    levels: tuple[BracketLevel, ...]
    largest_sat: int | None
    status: str  # closed | open | inconclusive


class _Found(Exception):
    def __init__(self, bits: int):
        self.bits = bits


class _Budget(Exception):
    pass


class _Engine:
    """One search lane: incremental tables, the partial-coloring bitmask and
    an explicit branch stack.

    bits starts all ones (red); a blue branch clears its rank bit, so the
    mask always reads unassigned triples as red, which is what the blue
    detectors need to stay sound on partial colorings.  The stack is two
    per-rank arrays: the colour given to each rank on the current branch
    and the table value it overwrote.
    """

    def __init__(self, problem: AvoidanceProblem, cap: int):
        N = problem.N
        self.N = N
        self.red_m = problem.red.m
        self.blue = problem.blue
        self.blue_kind = _blue_kind(problem.blue)
        self.symmetric = self.blue_kind != "jumps" and problem.blue == problem.red
        self.cap = cap
        self.total = comb(N, 3)
        self.triples = list(all_triples(N))
        self.pairs_idx = [
            (pair_rank(u, v, N), pair_rank(v, w, N)) for (u, v, w) in self.triples
        ]
        npairs = comb(N, 2)
        self.ar = [1] * npairs
        self.ab = [1] * npairs if self.blue_kind == "path" else None
        self.bits = (1 << self.total) - 1
        self.colour = [True] * self.total
        self.token = [0] * self.total
        self.nodes = 0
        self.max_depth = 0
        self.hit = False

    def _count(self, rank: int) -> None:
        if self.nodes == self.cap:
            self.hit = True
            raise _Budget()
        self.nodes += 1
        if rank + 1 > self.max_depth:
            self.max_depth = rank + 1

    def _apply(self, rank: int, red: bool) -> None:
        iuv, ivw = self.pairs_idx[rank]
        self.colour[rank] = red
        if red:
            table = self.ar
        else:
            self.bits &= ~(1 << rank)
            table = self.ab
            if table is None:
                return
        old = table[ivw]
        self.token[rank] = old
        cand = table[iuv] + 1
        if cand > old:
            table[ivw] = cand

    def _undo(self, rank: int) -> None:
        ivw = self.pairs_idx[rank][1]
        if self.colour[rank]:
            self.ar[ivw] = self.token[rank]
            return
        self.bits |= 1 << rank
        if self.ab is not None:
            self.ab[ivw] = self.token[rank]

    def _enter(self, rank: int, red: bool) -> bool:
        """Colour rank and count the node, unless the branch is dead."""
        iuv = self.pairs_idx[rank][0]
        if red:
            if self.ar[iuv] + 1 >= self.red_m - 1:
                return False
        elif rank == 0 and self.symmetric:
            return False
        elif self.ab is not None and self.ab[iuv] + 1 >= self.blue.m - 1:
            return False
        self._count(rank)
        self._apply(rank, red)
        if not red and self.ab is None and self.blue_present(self.triples[rank]):
            self._undo(rank)
            return False
        return True

    def blue_present(self, last=None) -> bool:
        """Detector run for the blue specs the tables do not track; with
        last, only copies whose lex-largest edge is the triple last."""
        if self.blue_kind == "path":
            return False
        return _has_blue(TripleColoring(self.N, self.bits), self.blue,
                         self.blue_kind, last)

    def walk(self, start: int, stop: int, leaf) -> None:
        """Depth-first over ranks start..stop-1, red before blue, calling
        leaf() with ranks below stop coloured; returns with them undone."""
        colour = self.colour
        rank = start
        red = True  # the branch to try next at rank
        while True:
            if rank == stop:
                leaf()
            elif self._enter(rank, red):
                rank += 1
                red = True
                continue
            elif red:
                red = False
                continue
            # back up to the nearest rank whose blue branch is untried
            while True:
                if rank == start:
                    return
                rank -= 1
                self._undo(rank)
                if colour[rank]:
                    red = False
                    break

    def decompose(self, depth: int) -> list[tuple[bool, ...]]:
        """All live branch prefixes at the split depth, in DFS order."""
        prefixes: list[tuple[bool, ...]] = []
        self.walk(0, depth, lambda: prefixes.append(tuple(self.colour[:depth])))
        return prefixes

    def replay(self, prefix: tuple[bool, ...]) -> None:
        for rank, red in enumerate(prefix):
            self._apply(rank, red)

    def found(self) -> None:
        raise _Found(self.bits)


def _run_split(args) -> tuple[int | None, int, bool, int]:
    problem, prefix, cap = args
    eng = _Engine(problem, cap)
    eng.replay(prefix)
    try:
        eng.walk(len(prefix), eng.total, eng.found)
    except _Found as f:
        return f.bits, eng.nodes, eng.hit, eng.max_depth
    except _Budget:
        return None, eng.nodes, True, eng.max_depth
    return None, eng.nodes, False, eng.max_depth


def _blue_kind(blue) -> str:
    """How the engine prunes the blue side: path (incremental alpha table),
    pattern or jumps (detector run anchored at each new blue triple)."""
    if isinstance(blue, JumpsFamily):
        return "jumps"
    if blue.edges and blue == monotone_path(blue.m):
        return "path"
    return "pattern"


def _has_blue(c: TripleColoring, blue, kind: str, last=None) -> bool:
    if kind == "path":
        return alpha_table(c, Color.BLUE).max_value >= blue.m - 1
    if kind == "pattern":
        return find_blue_embedding(c, blue, last) is not None
    return find_blue_jump_member(c, blue.n, last) is not None


def decide(problem: AvoidanceProblem, budget: int = DEFAULT_BUDGET,
           workers: int = 1) -> SearchOutcome:
    """Search for an avoidance coloring; see the module docstring.

    The red pattern must be a monotone path on at least 3 vertices.  A
    found witness is re-verified with the full detectors before return;
    running out of node budget reports inconclusive, never a guess.
    """
    if problem.red != monotone_path(problem.red.m) or problem.red.m < 3:
        raise ValueError("red pattern must be a monotone path on >= 3 vertices")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if workers < 1:
        raise ValueError("need at least one worker")

    probe = _Engine(problem, cap=budget)
    if probe.blue_present():
        # blue spec embeds with no blue triples at all: nothing to search
        return SearchOutcome("unsat", None, SearchStats(0, 0))
    try:
        prefixes = probe.decompose(min(SPLIT_DEPTH, probe.total))
    except _Budget:
        return SearchOutcome("inconclusive", None, SearchStats(budget, probe.max_depth))
    nodes_dec = probe.nodes
    depth_dec = probe.max_depth

    payloads = [(problem, p, budget - nodes_dec) for p in prefixes]
    if workers == 1:
        folded = _fold((_run_split(pl) for pl in payloads), budget, nodes_dec,
                       depth_dec)
    else:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            futures = [ex.submit(_run_split, pl) for pl in payloads]
            try:
                folded = _fold((f.result() for f in futures), budget, nodes_dec,
                               depth_dec)
            finally:
                for f in futures:
                    f.cancel()
    return _finish(folded, problem)


def _fold(results, budget: int, nodes_dec: int,
          depth_dec: int) -> tuple[str, int | None, SearchStats]:
    used = nodes_dec
    depth = depth_dec
    for bits, nodes_i, hit_i, depth_i in results:
        if depth_i > depth:
            depth = depth_i
        if hit_i or nodes_i > budget - used:
            return "inconclusive", None, SearchStats(budget, depth)
        if bits is not None:
            return "sat", bits, SearchStats(used + nodes_i, depth)
        used += nodes_i
    return "unsat", None, SearchStats(used, depth)


def _finish(folded: tuple[str, int | None, SearchStats],
            problem: AvoidanceProblem) -> SearchOutcome:
    status, bits, stats = folded
    if bits is None:
        return SearchOutcome(status, None, stats)
    c = TripleColoring(problem.N, bits)
    depth, _ = longest_red_path(c)
    if depth >= problem.red.m - 1:
        raise RuntimeError("witness contains the red path; this is a bug")
    if _has_blue(c, problem.blue, _blue_kind(problem.blue)):
        raise RuntimeError("witness contains the blue spec; this is a bug")
    return SearchOutcome("sat", c, stats)


def bracket(red: OrderedTripleSystem, blue, nmax: int,
            budget: int = DEFAULT_BUDGET, workers: int = 1) -> BracketOutcome:
    """Climb N = 2, 3, ... up to nmax, stopping at the first unsat level.

    A witness at N restricts to one at N-1, so the first unsat level closes
    the bracket; a sat answer at nmax leaves it open.
    """
    if nmax < 3:
        raise ValueError("nmax must be at least 3")
    levels: list[BracketLevel] = []
    largest = None
    status = "open"
    for N in range(2, nmax + 1):
        out = decide(AvoidanceProblem(N, red, blue), budget, workers)
        levels.append(BracketLevel(N, out))
        if out.status == "sat":
            largest = N
            continue
        status = "closed" if out.status == "unsat" else "inconclusive"
        break
    return BracketOutcome(tuple(levels), largest, status)
