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

Path/path splits also skip states that failed before.  At the start of
block (a, b), rank (a, b, b+1), the rest of the walk reads only the red and
blue alpha values of pair (a, b) and of the pairs after it in pair lex
order, a suffix.  Pairs (x, N) are never read, and a value d at pair (x, y)
with d + (N - y) < m - 1 (m the path length of that colour) can never
reach a dead check, directly or through a max, so it is packed as 0.  The
clamped suffix is one int, kept up to date as values change; a block start
whose walk failed in both colours records it, and a later arrival with the
same int backs out at once and counts a memo hit, not a node.  Only failed
subtrees are skipped, so the first sat leaf, every status and every
witness stay as they were; only the node counts and depths move.  Each
split has its own memo, so the worker count changes nothing, and a memo
holding MEMO_CAP states is cleared.  The split enumeration has none: its
leaf returns, so a subtree it leaves has not failed.

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

from .core import Color, OrderedTripleSystem, TripleColoring, all_pairs, all_triples, pair_rank
from .detect import alpha_table, find_blue_embedding, find_blue_jump_member, longest_red_path
from .family import monotone_path

DEFAULT_BUDGET = 10**9
SPLIT_DEPTH = 4
# failed path/path states one split remembers; the memo is cleared when full
MEMO_CAP = 1 << 19


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
    memo_hits: int = 0


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

    def __init__(self, problem: AvoidanceProblem, cap: int, memo: bool = False):
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
        self.memo = None
        self.memo_hits = 0
        self.front = [None] * self.total
        if memo and self.ab is not None:
            self._pack_front()

    def _pack_front(self) -> None:
        """Start the failed-state memo (path/path only).

        self.packed holds the clamped ar and ab value of every pair (x, y)
        with y < N, lowest pair rank in the lowest bits, under a sentinel
        bit; fields[red][pair] is the clamp threshold and bit offset of that
        pair's value in ar (red) or ab.  front[rank] is the offset of pair
        (a, b) when rank is the block start (a, b, b+1), else None (always
        None without the memo), so packed >> front[rank] is the state of
        every pair still read.
        """
        N = self.N
        rm, bm = self.red_m, self.blue.m
        # live values never exceed m - 2: a larger one kills its branch first
        rwidth, bwidth = (rm - 2).bit_length(), (bm - 2).bit_length()
        rfield, bfield, offset = [], [], []
        width = 0
        for _, y in all_pairs(N):
            offset.append(width)
            if y == N:  # never read again: every value packs as 0
                rfield.append((rm + bm, 0))
                bfield.append((rm + bm, 0))
                continue
            # a value d below m - 1 - (N - y) cannot reach a dead check
            rfield.append((rm - 1 - (N - y), width))
            bfield.append((bm - 1 - (N - y), width + rwidth))
            width += rwidth + bwidth
        self.packed = 1 << width
        for field in rfield + bfield:
            self._repack(field, 0, 1)  # every table starts at 1
        self.fields = (bfield, rfield)
        self.front = [offset[iuv] if w == v + 1 else None
                      for (_, v, w), (iuv, _) in zip(self.triples, self.pairs_idx)]
        self.memo = set()

    def _repack(self, field, old: int, new: int) -> None:
        """Move one pair's packed field from value old to value new."""
        thr, shift = field
        self.packed += ((new if new >= thr else 0)
                        - (old if old >= thr else 0)) << shift

    def _failed(self, rank: int) -> None:
        """Record that the walk below rank failed in the current state."""
        if len(self.memo) >= MEMO_CAP:
            self.memo.clear()
        self.memo.add(self.packed >> self.front[rank])

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
            if self.memo is not None:
                self._repack(self.fields[red][ivw], old, cand)

    def _undo(self, rank: int) -> None:
        ivw = self.pairs_idx[rank][1]
        red = self.colour[rank]
        if red:
            table = self.ar
        else:
            self.bits |= 1 << rank
            table = self.ab
            if table is None:
                return
        old = self.token[rank]
        if self.memo is not None and table[ivw] != old:
            self._repack(self.fields[red][ivw], table[ivw], old)
        table[ivw] = old

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
        leaf() with ranks below stop coloured; returns with them undone.

        With the memo on (splits only, whose leaf never returns), a
        block-start rank whose front state failed before is backed out of at
        once, and one left with both colours tried is recorded as failed."""
        colour = self.colour
        front = self.front
        rank = start
        red = True  # the branch to try next at rank
        while True:
            if rank == stop:
                leaf()
            elif red and front[rank] is not None and self.packed >> front[rank] in self.memo:
                self.memo_hits += 1
            elif self._enter(rank, red):
                rank += 1
                red = True
                continue
            elif red:
                red = False
                continue
            elif front[rank] is not None:
                self._failed(rank)
            # back up to the nearest rank whose blue branch is untried
            while True:
                if rank == start:
                    return
                rank -= 1
                self._undo(rank)
                if colour[rank]:
                    red = False
                    break
                if front[rank] is not None:
                    self._failed(rank)

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


def _run_split(args) -> tuple[int | None, int, bool, int, int]:
    problem, prefix, cap = args
    eng = _Engine(problem, cap, memo=True)
    eng.replay(prefix)
    bits = None
    try:
        eng.walk(len(prefix), eng.total, eng.found)
    except _Found as f:
        bits = f.bits
    except _Budget:
        pass
    return bits, eng.nodes, eng.hit, eng.max_depth, eng.memo_hits


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
    # the pool forks all its workers up front: no more than there are splits
    workers = min(workers, len(payloads))
    if workers <= 1:
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
    hits = 0
    for bits, nodes_i, hit_i, depth_i, hits_i in results:
        if depth_i > depth:
            depth = depth_i
        hits += hits_i
        if hit_i or nodes_i > budget - used:
            return "inconclusive", None, SearchStats(budget, depth, hits)
        if bits is not None:
            return "sat", bits, SearchStats(used + nodes_i, depth, hits)
        used += nodes_i
    return "unsat", None, SearchStats(used, depth, hits)


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
