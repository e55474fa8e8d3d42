"""Exhaustive avoidance search over red-blue triple colorings.

decide answers "is there a coloring of all triples of [N] with no red copy
of the red pattern and no blue copy of the blue spec", branching over
triples in lex rank order, red first.  The red pattern must be a monotone
path: its presence is tracked by an incremental alpha table, and a branch
dies the moment a pair's depth reaches the path length.  Lex order makes
the table exact without cascades: every triple ending at a pair is decided
before any triple starting there.  A blue monotone path gets the same
treatment.  Then a branch also dies when its write leaves a pair (v, w),
w < N, at m - 2 in both tables (each with its m), where it starts no triple
of either colour: values only rise along a branch, and rank (v, w, w+1)
comes after every triple ending at (v, w), so it is still uncoloured and
dead in both colours, and the subtree holds no leaf.  This lookahead
checks at the write what that rank finds out, often hundreds of ranks
later; the DFS order stays as it was.

It also looks one step further.  A pair (x, w) at the red dead level
starts only blue triples, so every pair (w, z) will end with a blue value
of at least ab(x, w) + 1; fb[w] is the largest such bound, and fr[w] the
same with the colours swapped.  Pair (v, w) counts as dead in a colour
when its value or the bound of v in that colour is at the dead level.  A
write that puts its pair at a dead level, or raises a value of a pair at
one, raises a bound at w, and a bound that reaches its dead level puts
every pair (w, z), z < N, at it, so the write dies when one of them is
at the other dead level.  The bounds are undone with the values.

The other blue specs are tracked by tables too, pushed when a triple turns
blue and popped when it is undone.  Each table rests on the same fact: a
copy's lex-largest edge is its last three vertices, and every other edge
of the copy, or of the window or member prefix being extended, has lower
rank, so it is already coloured when that triple turns blue.  A power path
of window t >= 4 is tracked per (t-1)-vertex key, the longest blue power
path ending there; a jump-family member per last four vertices, the
bitmask of (last three flags, jumps used) states of the blue member
prefixes ending there (detect.JumpStates, the state that
detect.find_blue_jump_member carries, stepped by the same function).  A push
that completes a copy prunes the branch; it finds exactly the copies a
detector run would find, since every earlier blue node was checked and
every later triple is red.  Generic patterns keep a full detector run on
the partial coloring, unassigned triples read as red.  The root probe and
the witness re-check are always full detector runs.

One walker does all the branching: it runs over a range of ranks with an
explicit stack, so search depth C(N, 3) is bounded by memory and the node
budget, not by the interpreter's recursion limit.  A node's whole job is
done inline in its loop, on local variables, since a method call per step
(apply, undo, count) was most of a node's cost.  The split enumeration
walks the first ranks and collects the live prefixes; each split replays
its prefix and walks the remaining ranks to a full coloring.

Path/path splits also skip states that failed before.  At the start of
block (a, b), rank (a, b, b+1), the rest of the walk reads only the red and
blue alpha values of pair (a, b) and of the pairs after it in pair lex
order, a suffix.  Pairs (x, N) are never read, and a value d at pair (x, y)
with d + (N - y) < m - 1 (m the path length of that colour) can never reach
a dead check, directly or through a max, nor the lookahead's m - 2, so it
is packed as 0; a value that raises a forced bound to its dead level,
d >= m - 3 at y <= N - 2, is never clamped.  A bound from a pair before
the block start is already in the suffix values: every triple it forces
is coloured.  The clamped suffix is one int, kept up to date as values
change; a block start whose walk failed in both colours records it, and a
later arrival with the same int backs out at once and counts a memo hit,
not a node.  Only failed subtrees are skipped, so the first sat leaf, every
status and every witness stay as they were; only the node counts and depths
move.  Each split has its own memo, so the worker count changes nothing,
and a memo holding MEMO_CAP states is cleared.  The split enumeration has
none: its leaf returns, so a subtree it leaves has not failed.

Parallel runs must not change answers, witnesses, or statistics.  Work is
split by enumerating all live prefixes at a fixed depth (independent of
the worker count), each subproblem runs under the same node cap, and the
results fold in prefix order exactly as a single-threaded run would have
encountered them; the budget accounting replays sequential semantics, so
a run that would have starved sequentially reports inconclusive no matter
how many workers finished their pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from multiprocessing import Pool

from .core import (Color, OrderedTripleSystem, TripleColoring, all_pairs, all_triples,
                   lex_rank, pair_offsets, rank_offsets)
from .detect import alpha_table, find_blue_embedding, find_blue_jump_member, jump_states
from .family import monotone_path, power_path

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
    """Work counts of a search: nodes entered, the deepest rank reached,
    and the pruned arrivals by reason: memo hits (a failed path/path state
    seen again), red-dead and blue-dead (a pair's path table would reach
    the path length, or path/path leave a pair dead in both colours,
    counting the forced bounds, or raise a forced bound that does so to
    a later pair) and blue hits (the new blue triple completes a blue copy;
    its node is counted)."""

    nodes: int
    max_depth: int
    memo_hits: int = 0
    red_dead: int = 0
    blue_dead: int = 0
    blue_hits: int = 0


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
    pass


class _Budget(Exception):
    pass


class _PowerWindows:
    """Blue power paths of window t >= 4, kept per (t-1)-vertex key.

    best[key] is the most vertices of a blue power path on at least t
    vertices whose last t - 1 vertices are key; a key holding none is
    absent.  Window (x_1, ..., x_t) is all blue exactly when its triples
    are, and its lex-largest triple is (x_{t-2}, x_{t-1}, x_t).  So the push
    at (u, v, w) takes every (t-3)-subset S below u, checks the other
    triples of S + (u, v, w), all of lower rank, and extends the path
    ending at key S + (u, v) (t - 1 vertices when absent) to key
    S[1:] + (u, v, w).  Each key it writes ends in (u, v, w), so it is the
    only push that writes it, and the pop deletes them all.
    """

    def __init__(self, N: int, m: int, t: int, triples, colour):
        self.N, self.m, self.t = N, m, t
        self.triples = triples
        self.colour = colour
        self.best: dict[tuple[int, ...], int] = {}
        self.moves = [None] * len(triples)

    def _moves(self, rank: int):
        """Per key the push at rank may write: (key, ((prev key, ranks of
        the other window triples), ...)), built on first use."""
        N = self.N
        u, v, w = self.triples[rank]
        groups: dict[tuple[int, ...], list] = {}
        for lead in combinations(range(1, u), self.t - 3):
            window = lead + (u, v, w)
            checks = tuple(lex_rank(e, N) for e in combinations(window, 3)
                           if e != (u, v, w))
            groups.setdefault(window[1:], []).append((window[:-1], checks))
        moves = self.moves[rank] = tuple((key, tuple(prevs))
                                         for key, prevs in groups.items())
        return moves

    def push(self, rank: int) -> bool:
        """Triple rank turned blue; True when a blue copy now ends there."""
        moves = self.moves[rank]
        if moves is None:
            moves = self._moves(rank)
        colour, best, short = self.colour, self.best, self.t - 1
        for key, prevs in moves:
            top = 0
            for prev, checks in prevs:
                for r in checks:
                    if colour[r]:
                        break
                else:
                    d = best.get(prev, short) + 1
                    if d > top:
                        top = d
            if top:
                best[key] = top
                if top >= self.m:
                    return True
        return False

    def pop(self, rank: int) -> None:
        for key, _ in self.moves[rank]:
            self.best.pop(key, None)


class _JumpMembers:
    """Blue member prefixes of the n-jump family, kept per last four
    vertices.

    A prefix's future depends only on its last four vertices and its state
    set, a detect.JumpStates bitmask as in detect.find_blue_jump_member,
    and both step through the same memoised JumpStates.step.
    states[pair (u, v)] maps y to {x: mask}, the states of the prefixes
    ending (x, y, u, v), x = 0 for the prefix (y, u, v); every two-vertex
    prefix has the fixed states step(1, 7).  Appending w needs (u, v, w)
    blue, so the push at (u, v, w) extends the prefixes ending (u, v),
    reading (y, u, w), (y, v, w) and (x, u, w), all of lower rank, and
    writes states[(v, w)][u]; the pop deletes that entry.  A prefix in an
    accepting state (all n jumps used, last position no jump) is a member.
    """

    def __init__(self, N: int, n: int, triples, pairs_idx, colour):
        self.N = N
        self.triples, self.pairs_idx = triples, pairs_idx
        self.colour = colour
        self.states: list[dict[int, dict[int, int]]] = [{} for _ in range(comb(N, 2))]
        pref1, pref2 = rank_offsets(N)
        # rank (y, b, c) is lead[y] + pref2[b - 1] + c - b - 1
        self.lead = [pref1[y] - pref2[y] for y in range(N + 1)]
        self.pref2 = pref2
        jumps = jump_states(n)
        self.step, self.accept = jumps.step, jumps.accept
        self.fits = [jumps.fits(s) for s in range(N + 1)]
        # the three-vertex prefixes: a one-vertex prefix extended twice,
        # no jump edge to check
        self.third = self.step(self.step(1, 7), 7)

    def push(self, rank: int) -> bool:
        """Triple rank turned blue; True when a blue member now ends there."""
        u, v, w = self.triples[rank]
        iuv, ivw = self.pairs_idx[rank]
        colour, lead, step = self.colour, self.lead, self.step
        uw = self.pref2[u - 1] + w - u - 1
        vw = self.pref2[v - 1] + w - v - 1
        fits = self.fits[self.N - w]
        seen = self.third & fits
        out = {0: seen} if seen else {}
        for y, xs in self.states[iuv].items():
            cond = (not colour[lead[y] + uw]) | (not colour[lead[y] + vw]) << 1
            free = held = 0
            for x, mask in xs.items():
                if x == 0 or not colour[lead[x] + uw]:
                    free |= mask
                else:
                    held |= mask
            got = step(free, cond | 4)
            if held:
                got |= step(held, cond)
            got &= fits
            if got:
                out[y] = got
                seen |= got
        if out:
            self.states[ivw][u] = out
        return bool(seen & self.accept)

    def pop(self, rank: int) -> None:
        self.states[self.pairs_idx[rank][1]].pop(self.triples[rank][0], None)


class _Engine:
    """One search lane: incremental tables, the partial-coloring bitmask and
    an explicit branch stack, all worked by one loop, walk.

    bits starts all ones (red); a blue branch clears its rank bit, so the
    mask always reads unassigned triples as red, which is what a full blue
    detector run needs to stay sound on a partial coloring.  The stack is
    per-rank arrays: the colour given to each rank on the current branch,
    the path-table value it overwrote and the forced bound it raised.  A
    blue spec other than a path has a table (power windows or jump members,
    see the module docstring) or, for a generic pattern, none: a detector
    run.

    The probe (split None) starts on uncoloured tables with no memo; a
    split engine replays its live prefix first, and a path/path split
    starts its failed-state memo on the replayed tables.
    """

    def __init__(self, problem: AvoidanceProblem, cap: int,
                 split: tuple[bool, ...] | None = None):
        N = problem.N
        self.N = N
        self.red_m = problem.red.m
        self.blue = problem.blue
        self.kind, self.blue_m, t = _blue_kind(problem.blue)
        self.symmetric = self.kind != "jumps" and problem.blue == problem.red
        self.cap = cap
        self.total = comb(N, 3)
        self.triples, self.pairs_idx = _ranks(N)
        npairs = comb(N, 2)
        self.ar = [1] * npairs
        self.ab = [1] * npairs if self.kind == "path" else None
        # per pair, the value m - 2 at which it starts no triple of that
        # colour; unreachable for pairs (x, N) and without a blue alpha table
        self.dead = tuple([m - 2 if self.ab is not None and y < N else self.red_m + self.blue_m
                           for _, y in all_pairs(N)] for m in (self.blue_m, self.red_m))
        # per rank, the forced bound its write raised (see _lookahead), as
        # (bounds, w, old value), or None
        self.lifts = [None] * self.total
        self.bits = (1 << self.total) - 1
        self.colour = [True] * self.total
        self.token = [0] * self.total
        self.table = None
        if self.kind == "power":
            self.table = _PowerWindows(N, self.blue_m, t, self.triples, self.colour)
        elif self.kind == "jumps":
            self.table = _JumpMembers(N, self.blue_m, self.triples, self.pairs_idx,
                                      self.colour)
        self.nodes = self.max_depth = 0
        self.memo = None
        self.memo_hits = self.red_dead = self.blue_dead = self.blue_hits = 0
        self.front = [None] * self.total
        self.packed, self.packs = 0, (None, None)
        if split is not None:
            self._replay(split)
        self.fb = self.fr = None
        if self.ab is not None:
            self._force()
            # pair ranks of (w, w+1) .. (w, N-1), per w
            row = pair_offsets(N)
            self.rows = [(row[w] + w + 1, row[w] + N) for w in range(N + 1)]
            if split is not None:
                # a split's failed-state memo starts on the replayed tables
                self.packs, self.front, sentinel = _memo_layout(
                    N, self.red_m, self.blue_m)
                bpack, rpack = self.packs
                self.packed = sentinel + sum(
                    p[d] for p, d in zip(rpack + bpack, self.ar + self.ab))
                self.memo = set()

    def _force(self) -> None:
        """The forced lower bounds, from the tables (path/path only).

        A pair (x, w) at the red dead level starts only blue triples, so
        once every (x, w, z) is coloured, pair (w, z) has a blue value of at
        least ab(x, w) + 1: fb[w] is the largest such bound, and fr[w] the
        same for the blue dead level and red.  Both only rise along a
        branch, with the values they come from.
        """
        bd, rd = self.dead
        self.fb, self.fr = [0] * (self.N + 1), [0] * (self.N + 1)
        for i, (_, w) in enumerate(all_pairs(self.N)):
            if self.ar[i] >= rd[i]:
                self.fb[w] = max(self.fb[w], self.ab[i] + 1)
            if self.ab[i] >= bd[i]:
                self.fr[w] = max(self.fr[w], self.ar[i] + 1)

    def _lookahead(self, rank: int, cand: int, red: bool) -> bool:
        """True when a write of cand at rank's pair (v, w), w < N, that
        leaves (v, w) at a dead level is dead (path/path only).

        At its own dead level (v, w) must not be at the other colour's,
        counting that colour's forced bound at v; its triples (v, w, z)
        all take the other colour, which raises that colour's bound at w.
        At the other colour's dead level, a raise of this colour's value
        raises this colour's bound at w.  A bound that reaches its dead
        level puts every pair (w, z), z < N, at it, so none may be at the
        other one.  A live write's raise is made here and kept in lifts
        for the walk's undo; a budget stop after it abandons the engine.
        """
        _, v, w = self.triples[rank]
        ivw = self.pairs_idx[rank][1]
        rd, bd = self.red_m - 2, self.blue_m - 2
        if red:
            mine, theirs, fmine, ftheirs, md, od = self.ar, self.ab, self.fr, self.fb, rd, bd
        else:
            mine, theirs, fmine, ftheirs, md, od = self.ab, self.ar, self.fb, self.fr, bd, rd
        if cand >= md:
            if theirs[ivw] >= od or ftheirs[v] >= od:
                return True
            bounds, f, level, cross = ftheirs, theirs[ivw] + 1, od, (mine, fmine, md)
        else:
            bounds, f, level, cross = fmine, cand + 1, md, (theirs, ftheirs, od)
        old = bounds[w]
        if f <= old:
            return False
        if old < level <= f:
            values, other, dead = cross
            lo, hi = self.rows[w]
            if lo < hi and (other[w] >= dead or max(values[lo:hi]) >= dead):
                return True
        self.lifts[rank] = bounds, w, old
        bounds[w] = f
        return False

    def blue_present(self) -> bool:
        """Full detector run on the coloring so far, unassigned triples red."""
        return _has_blue(TripleColoring(self.N, self.bits), self.blue, self.kind)

    def stats(self) -> SearchStats:
        return SearchStats(self.nodes, self.max_depth, self.memo_hits,
                           self.red_dead, self.blue_dead, self.blue_hits)

    def walk(self, start: int, stop: int, leaf) -> None:
        """Depth-first over ranks start..stop-1, red before blue, calling
        leaf() with ranks below stop coloured; returns with them undone.

        Counters, bits and packed live in locals while it runs and go back
        to the engine on every exit, _Budget and the leaf's _Found included.

        With the memo on (splits only, whose leaf never returns), a
        block-start rank whose front state failed before is backed out of at
        once, and one left with both colours tried is recorded as failed."""
        colour, token, pairs_idx, front = self.colour, self.token, self.pairs_idx, self.front
        lifts, lookahead = self.lifts, self._lookahead
        ar, ab, table, memo, cap = self.ar, self.ab, self.table, self.memo, self.cap
        red_top, blue_top, symmetric = self.red_m - 1, self.blue_m - 1, self.symmetric
        bpack, rpack = self.packs
        bdead, rdead = self.dead
        nodes, max_depth, bits, packed = self.nodes, self.max_depth, self.bits, self.packed
        memo_hits, red_dead, blue_dead, blue_hits = (
            self.memo_hits, self.red_dead, self.blue_dead, self.blue_hits)
        rank = start
        red = True  # the branch to try next at rank
        try:
            while True:
                if rank == stop:
                    leaf()
                elif red:
                    at = front[rank]
                    if at is not None and packed >> at in memo:
                        memo_hits += 1
                    else:
                        iuv, ivw = pairs_idx[rank]
                        cand = ar[iuv] + 1
                        if cand >= red_top or (
                                cand >= rdead[ivw] or ab is not None and
                                cand > ar[ivw] and ab[ivw] >= bdead[ivw]) and lookahead(
                                    rank, cand, True):
                            red_dead += 1
                            red = False
                            continue
                        if nodes == cap:
                            raise _Budget()
                        nodes += 1
                        if rank >= max_depth:
                            max_depth = rank + 1
                        colour[rank] = True
                        old = token[rank] = ar[ivw]
                        if cand > old:
                            ar[ivw] = cand
                            if memo is not None:
                                packed += rpack[ivw][cand] - rpack[ivw][old]
                        rank += 1
                        continue
                else:
                    iuv, ivw = pairs_idx[rank]
                    if rank == 0 and symmetric:
                        pass
                    elif ab is not None and ((cand := ab[iuv] + 1) >= blue_top or (
                            cand >= bdead[ivw] or cand > ab[ivw] and ar[ivw] >= rdead[ivw])
                            and lookahead(rank, cand, False)):
                        blue_dead += 1
                    else:
                        if nodes == cap:
                            raise _Budget()
                        nodes += 1
                        if rank >= max_depth:
                            max_depth = rank + 1
                        colour[rank] = False
                        bits ^= 1 << rank
                        if ab is not None:
                            old = token[rank] = ab[ivw]
                            if cand > old:
                                ab[ivw] = cand
                                if memo is not None:
                                    packed += bpack[ivw][cand] - bpack[ivw][old]
                            hit = False
                        elif table is not None:
                            hit = table.push(rank)
                        else:
                            self.bits = bits
                            hit = self.blue_present()
                        if not hit:
                            rank += 1
                            red = True
                            continue
                        if table is not None:
                            table.pop(rank)
                        bits |= 1 << rank
                        blue_hits += 1
                # back up to the nearest rank whose blue branch is untried;
                # red is False while rank has had both colours tried (not
                # so at a leaf or a memo hit), and a block start is recorded
                while True:
                    if not red and front[rank] is not None:
                        if len(memo) >= MEMO_CAP:
                            memo.clear()
                        memo.add(packed >> front[rank])
                    if rank == start:
                        return
                    rank -= 1
                    red = colour[rank]
                    ivw = pairs_idx[rank][1]
                    if red:
                        values, packs = ar, rpack
                    else:
                        bits |= 1 << rank
                        if table is not None:
                            table.pop(rank)
                        values, packs = ab, bpack
                    if values is not None:
                        old, cur = token[rank], values[ivw]
                        if cur != old:
                            values[ivw] = old
                            if memo is not None:
                                packed -= packs[ivw][cur] - packs[ivw][old]
                    lift = lifts[rank]
                    if lift is not None:
                        bounds, w, old = lift
                        bounds[w] = old
                        lifts[rank] = None
                    if red:
                        red = False
                        break
        finally:
            self.nodes, self.max_depth, self.bits, self.packed = nodes, max_depth, bits, packed
            self.memo_hits, self.red_dead, self.blue_dead, self.blue_hits = (
                memo_hits, red_dead, blue_dead, blue_hits)

    def decompose(self, depth: int) -> list[tuple[bool, ...]]:
        """All live branch prefixes at the split depth, in DFS order."""
        prefixes: list[tuple[bool, ...]] = []
        self.walk(0, depth, lambda: prefixes.append(tuple(self.colour[:depth])))
        return prefixes

    def _replay(self, prefix: tuple[bool, ...]) -> None:
        """Colour a live prefix as the walk would, with nothing to check,
        count or undo."""
        for rank, red in enumerate(prefix):
            iuv, ivw = self.pairs_idx[rank]
            self.colour[rank] = red
            values = self.ar if red else self.ab
            if not red:
                self.bits ^= 1 << rank
                if self.table is not None:
                    self.table.push(rank)
            if values is not None:
                values[ivw] = max(values[ivw], values[iuv] + 1)

    def found(self) -> None:
        raise _Found()


@lru_cache(maxsize=16)
def _ranks(N: int) -> tuple[tuple[tuple[int, int, int], ...], tuple[tuple[int, int], ...]]:
    """Per lex rank, the triple (u, v, w) and the pair ranks of (u, v) and
    (v, w)."""
    triples = tuple(all_triples(N))
    row = pair_offsets(N)
    return triples, tuple((row[u] + v, row[v] + w) for u, v, w in triples)


@lru_cache(maxsize=16)
def _memo_layout(N: int, rm: int, bm: int):
    """(packs, front, sentinel): how the path/path memo packs its state,
    built once per problem and shared by every split.

    packed holds the clamped ar and ab value of every pair (x, y) with
    y < N, lowest pair rank in the lowest bits, under the sentinel bit;
    packs[red][pair][d] is what value d of that pair in ar (red) or ab adds
    to packed, 0 below the pair's clamp threshold.  front[rank] is the
    offset of pair (a, b) when rank is the block start (a, b, b+1), else
    None, so packed >> front[rank] is the state of every pair still read.
    """
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
    packs = tuple(
        tuple(tuple(d << shift if d >= thr else 0 for d in range(m)) for thr, shift in fs)
        for m, fs in ((bm, bfield), (rm, rfield)))
    triples, pairs_idx = _ranks(N)
    front = tuple(offset[iuv] if w == v + 1 else None
                  for (_, v, w), (iuv, _) in zip(triples, pairs_idx))
    return packs, front, 1 << width


def _run_split(args) -> tuple[int | None, bool, SearchStats]:
    problem, prefix, cap = args
    eng = _Engine(problem, cap, prefix)
    bits, hit = None, False
    try:
        eng.walk(len(prefix), eng.total, eng.found)
    except _Found:
        bits = eng.bits  # the walk's state at the leaf
    except _Budget:
        hit = True
    return bits, hit, eng.stats()


def _blue_kind(blue) -> tuple[str, int, int]:
    """(kind, m, t): how the engine tracks the blue side.

    path (alpha table, t = 3) and power (window table, t >= 4) for the power
    paths on m vertices, t read off the widest edge; jumps (member table)
    with m the jump count; pattern (detector run) for anything else, t = 0.
    A degenerate power:m,t with m < t is the complete system on [m], which
    is power:m,m.
    """
    if isinstance(blue, JumpsFamily):
        return "jumps", blue.n, 0
    t = blue.width + 1
    if blue.edges and blue == power_path(blue.m, t):
        return ("path" if t == 3 else "power"), blue.m, t
    return "pattern", blue.m, 0


def _has_blue(c: TripleColoring, blue, kind: str) -> bool:
    """Full detector run for the blue spec."""
    if kind == "path":
        return alpha_table(c, Color.BLUE).max_value >= blue.m - 1
    if kind == "jumps":
        return find_blue_jump_member(c, blue.n) is not None
    return find_blue_embedding(c, blue) is not None


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
        return SearchOutcome("inconclusive", None, probe.stats())
    head = probe.stats()

    payloads = [(problem, p, budget - head.nodes) for p in prefixes]
    # the pool forks all its workers up front: no more than there are splits
    workers = min(workers, len(payloads))
    if workers <= 1:
        folded = _fold((_run_split(pl) for pl in payloads), budget, head)
    else:
        # leaving the block terminates the workers: a decided fold does
        # not wait for the splits still running
        with Pool(workers) as pool:
            folded = _fold(pool.imap(_run_split, payloads), budget, head)
    return _finish(folded, problem)


def _fold(results, budget: int,
          head: SearchStats) -> tuple[str, int | None, SearchStats]:
    """Split results in prefix order, as one sequential run would meet
    them, after the split enumeration's work head.  The prune counts add
    up over every split read, the one that stops the fold included."""
    used = head.nodes
    depth = head.max_depth
    counts = head.memo_hits, head.red_dead, head.blue_dead, head.blue_hits
    for bits, hit_i, st in results:
        depth = max(depth, st.max_depth)
        counts = tuple(a + b for a, b in zip(counts, (
            st.memo_hits, st.red_dead, st.blue_dead, st.blue_hits)))
        if hit_i or st.nodes > budget - used:
            return "inconclusive", None, SearchStats(budget, depth, *counts)
        if bits is not None:
            return "sat", bits, SearchStats(used + st.nodes, depth, *counts)
        used += st.nodes
    return "unsat", None, SearchStats(used, depth, *counts)


def _finish(folded: tuple[str, int | None, SearchStats],
            problem: AvoidanceProblem) -> SearchOutcome:
    status, bits, stats = folded
    if bits is None:
        return SearchOutcome(status, None, stats)
    c = TripleColoring(problem.N, bits)
    if alpha_table(c, Color.RED).max_value >= problem.red.m - 1:
        raise RuntimeError("witness contains the red path; this is a bug")
    if _has_blue(c, problem.blue, _blue_kind(problem.blue)[0]):
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
