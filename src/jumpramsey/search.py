"""Exhaustive avoidance search over red-blue triple colorings.

decide answers "is there a coloring of all triples of [N] with no red copy
of the red pattern and no blue copy of the blue spec".  The red pattern
must be a monotone path on m vertices, and the search walks its red alpha
table instead of the triples.  Its lemma: level N is sat exactly when
some alpha: pairs -> [m - 2] has a lift (construct.lift: (u, v, w) red
iff alpha(u, v) < alpha(v, w)) with no blue copy.  Proof: a lift of m - 2
values has no red path on m vertices, as the values rise strictly along
one.  Conversely, let c avoid both and alpha be its red alpha table; a red
triple (u, v, w) of c has alpha(u, v) < alpha(v, w), so it is red in the
lift, whose blue triples are then blue in c and hold no copy.  So for
m = 4 the walk has 2^C(N-1, 2) leaves at most, against 2^C(N, 3) triple
colourings.  An alpha table is a fixed point: alpha(1, w) = 1, and
alpha(v, w) = j > 1 only if some u < v has alpha(u, v) = j - 1.  Searching
only these loses nothing, and it caps the values at v, so a red path
longer than the host tries no more values than the host allows.  When the
blue spec is the red path itself, the complement of an avoiding colouring
avoids both too, and the red alpha table of the one of the two with
(1, 2, 3) red has alpha(2, 3) = 2: that pair takes no other value.

The walk assigns the pairs (v, w) in colex order, w outer and v inner,
each value from 1 up.  One assignment colours the whole row of (v, w),
every triple (u, v, w), u < v, red iff alpha(u, v) < alpha(v, w), and then
pushes its blue triples, lowest u first, to the blue table.  A pattern of
width W on more than 3 vertices that holds every consecutive triple, a
monotone or a power path among them, is tracked per key of max(W, 3)
vertices (_Windows), a jump-family member per last four vertices
(_JumpMembers).  Both rest on one fact: a copy's lex-largest edge is its
last three vertices (u, v, w), and every other edge of the copy, or of the
window or member prefix being extended, has its last vertex below w, or is
a triple (., v', w) with v' <= v of lower lex rank: an edge the walk has
already coloured when it pushes (u, v, w).  Every key or prefix a push
writes ends in its own triple, so a table keeps one slot per lex rank,
ends[rank], and what a push at a rank reads and writes depends only on N
and the spec: it is planned once per (N, spec) and cached, and an engine
keeps only its ends.  A push reads a slot only when its rank is blue and
its last vertex below w, so the final assignment of its pair wrote it on
the current branch: the walker only pushes, never clears a slot, and a
pair not yet assigned may hold what an earlier branch or split left.  A
push that completes a copy is a blue hit, and the walk tries the next
value.  The one-edge path (1, 2, 3),
which no window of 3 vertices steps to, is the least member of the 1-jump
family: every blue triple is a copy, and the member table of one jump
tracks it.  No detector runs inside the walk; the witness re-check is a
full run.

At the first pair (1, w) of a vertex, whose row is empty, the walk also
reads every later row of w ahead of time, the forced-blue read: (u, v', w)
reads as blue exactly when alpha(u, v') = m - 2, already final, as no value
of (v', w) can exceed it, and every such triple is pushed too.  That is its
least blue colour over all completions, so a copy found there is in every
leaf below and kills the branch soundly.  An assignment to (v, w), v >= 2,
pushes only the blue triples of its own row.  A later push left out there,
of a triple (u, v', w), v' > v, blue at the forced read, could find only
a copy that the own-row push of (u, v', w) finds at every value of
(v', w).  A push finds every copy that ends in its triple, and at
(v', w) (u, v', w) is blue, as alpha(u, v') = m - 2, the slots it reads
are those of triples below w, already final, and the rows up to v' of w
hold their values, whose blue triples include those of the forced read.
So a branch such a push would kill has no leaf, and the statuses and
witnesses are those of a walk that pushes every later triple at every
assignment.  The later rows stay at the forced read without being
coloured again: the last value a pair tries is the largest j the
fixed-point rule allows, and its lift of the row is the forced read, as a
value alpha(u, v) = b with j <= b < m - 2 would allow b + 1.  So a row the
walk backs past is left as the forced read.  Each row is coloured again by
its own assignment, which rewrites every slot it owns before a later
vertex reads it.  The walker keeps its branch on an explicit stack, per
open pair the bitmask of the values still untried, so search depth
C(N, 2) is bounded by memory and the node budget, not by the interpreter's
recursion limit.  A full assignment leaves the colour list at the lift of
alpha, which is the witness.

Parallel runs must not change answers, witnesses, or statistics.  Work is
split by enumerating all live prefixes at a fixed depth (independent of
the worker count), the values of the first pairs.  A split is the walk
with its prefix held, and one engine, the probe in decide and one per
worker, runs every split of its process under the same node cap.  The
results fold in prefix order exactly as a single-threaded run would have
encountered them, budget accounting included, so a run that would have
starved sequentially reports inconclusive no matter how many workers
finished their pieces.  Each worker has a pipe of its own, and the
workers are killed as soon as the fold decides.
"""

from __future__ import annotations

from contextlib import closing, suppress
from functools import lru_cache
from itertools import combinations
from math import comb

from .core import (Color, OrderedTripleSystem, TripleColoring, all_triples, lex_rank,
                   pair_offsets, record)
from .detect import alpha_table, find_blue_embedding, find_blue_jump_member, jump_states

DEFAULT_BUDGET = 10**9
SPLIT_DEPTH = 4


@record
class JumpsFamily:
    """Blue-side selector: any member of the n-jump family counts."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one jump")


@record
class AvoidanceProblem:
    N: int
    red: OrderedTripleSystem
    blue: OrderedTripleSystem | JumpsFamily

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("N must be nonnegative")


@record
class SearchStats:
    """Work counts of a search: nodes are the values tried, one pair
    assignment each, max_depth the most pairs assigned on a branch, and
    blue hits the values whose pushes complete a blue copy (their nodes
    are counted).  The node budget counts the same nodes."""

    nodes: int
    max_depth: int
    blue_hits: int = 0


@record
class SearchOutcome:
    status: str  # sat | unsat | inconclusive
    witness: TripleColoring | None
    stats: SearchStats


@record
class BracketLevel:
    N: int
    outcome: SearchOutcome


@record
class BracketOutcome:
    levels: tuple[BracketLevel, ...]
    largest_sat: int | None
    status: str  # closed | open | inconclusive


class _Found(Exception):
    pass


class _Budget(Exception):
    pass


def _found() -> None:
    """The leaf of a split's walk: the first full colouring is the witness."""
    raise _Found()


class _Windows:
    """Blue copies of a pattern that holds every consecutive triple, kept
    per W-vertex key, W the larger of its width and 3.

    Position k + 1 shares edges only with the W positions before it, so a
    key holds the bitmask of the k for which a blue copy of positions 1..k
    ends there; bit W is always held, as its step checks every edge of
    positions 1..W + 1.  Window S + (u, v, w), at positions k - W + 1 to
    k + 1, ends in its lex-largest triple, the edge (u, v, w).  So the push
    there takes every (W-2)-subset S below u and, per group of k with the
    same edges in the window, reads the colours of those edges, all of
    lower rank, and when none is red steps the group's k at key S + (u, v)
    to k + 1 at key S[1:] + (u, v, w), a copy at m.  ends[rank of
    (u, v, w)] holds the keys ending there.  A prev key ends in (S[-1], u,
    v), an edge the window reads, so its slot is read only when that rank
    is blue on the branch, and the push of its pair's final value stored
    it.  A monotone path, of width 2, is kept per triple: key (u, v, w)
    holds the lengths of the blue paths ending there.  Bit k only steps to
    k + 1, so a pattern on m <= W vertices never reports a copy.
    """

    def __init__(self, N: int, pattern: OrderedTripleSystem, colour):
        self.colour = colour
        self.last, self.held = 1 << (pattern.m - 1), 1 << max(pattern.width, 3)
        self.plans = _window_plans(N, pattern)
        self.ends: list[list[int] | tuple[int, ...] | None] = [None] * comb(N, 3)

    def push(self, rank: int) -> bool:
        """Triple rank turned blue; True when a blue copy now ends there."""
        colour, ends = self.colour, self.ends
        keys, blank = self.plans[rank]
        tops = None
        for j, prevs in keys:
            top = 0
            for owner, i, span, edges in prevs:
                for e in edges:
                    if colour[e]:
                        break
                else:
                    top |= ends[owner][i] & span
            if top:
                if top & self.last:  # a copy of positions 1..m - 1 steps to m
                    return True
                if tops is None:
                    tops = list(blank)
                tops[j] = top << 1 | self.held
        ends[rank] = blank if tops is None else tops
        return False


class _JumpMembers:
    """Blue member prefixes of the n-jump family, kept per last four
    vertices.

    A prefix's future depends only on its last four vertices and its state
    set, a detect.JumpStates bitmask as in detect.find_blue_jump_member,
    and both step through the same memoised JumpStates.step.  ends[rank of
    (u, v, w)] maps y to the states of the prefixes ending (y, u, v, w),
    y = 0 for the prefix (u, v, w); every two-vertex prefix has the fixed
    states step(1, 7).  Appending w needs (u, v, w) blue, so the push at
    (u, v, w) extends the prefixes ending (y, u, v) for each y < u, reading
    (y, u, w), (y, v, w) and (x, u, w), all of lower rank in rows u and v
    of w, and writes ends[rank]; a red (y, u, v) is skipped, so a slot is
    read only when its rank is blue on the branch.  A prefix in an
    accepting state (all n jumps used, last position no jump) is a member.
    """

    def __init__(self, N: int, n: int, colour):
        self.colour = colour
        self.plans = _member_plans(N, n)
        self.ends: list[dict[int, int] | None] = [None] * comb(N, 3)
        jumps = jump_states(n)
        self.step, self.steps, self.accept = jumps.step, jumps.steps, jumps.accept

    def push(self, rank: int) -> bool:
        """Triple rank turned blue; True when a blue member now ends there."""
        sources, uw, fits, seen, entry = self.plans[rank]
        ends, colour = self.ends, self.colour
        out = None
        for src, y, yuw, yvw in sources:
            xs = ends[src]
            if xs is None or colour[src]:
                continue
            if out is None:
                steps = self.steps
                out = {0: seen} if seen else {}
            cond = (not colour[yuw]) | (not colour[yvw]) << 1
            free = held = 0
            for x, mask in xs.items():
                if x == 0 or not colour[uw[x]]:
                    free |= mask
                else:
                    held |= mask
            # the step memo, read directly; step fills it on a miss
            got = steps.get(free << 3 | cond | 4)
            if got is None:
                got = self.step(free, cond | 4)
            if held:
                more = steps.get(held << 3 | cond)
                got |= self.step(held, cond) if more is None else more
            got &= fits
            if got:
                out[y] = got
                seen |= got
        # no source read (out None) or nothing kept: the shared entry
        ends[rank] = out or entry
        return bool(seen & self.accept)


class _PairEngine:
    """One search lane of the pair walk: the red alpha table being
    assigned, the colours of its lift, the blue table, and walk.

    alpha holds per lex pair rank the value given on the current branch,
    and at a pair off it 0 or what an earlier walk left.  The colour list
    is the lift of the assigned pairs, True for red; a rank whose last pair
    (v, w) is unassigned holds the forced read while the walk assigns the
    pairs of w, and before that what an earlier branch gave it, as nothing
    reads it before (1, w) colours it.  allowed holds per pair in colex
    order the bitmask of the values it may take: all up to m - 2, all but
    1 at (2, 3) when the blue spec is the red path (module docstring), and
    only the held one at a pair of a split's prefix.
    """

    def __init__(self, problem: AvoidanceProblem, cap: int):
        N = problem.N
        self.N, self.cap, self.top = N, cap, problem.red.m - 2
        self.total = comb(N, 2)
        self.alpha = [0] * self.total
        self.colour = [True] * comb(N, 3)
        self.table = _blue_table(N, problem.blue, self.colour)
        self.plans = _pair_plans(N)
        # the fixed-point values never exceed N - 1, whatever the red path
        self.allowed = [(1 << min(self.top, N)) - 1] * self.total
        if problem.blue == problem.red and N >= 3:
            self.allowed[2] &= ~1
        self.nodes = self.max_depth = self.blue_hits = 0

    def stats(self) -> SearchStats:
        return SearchStats(self.nodes, self.max_depth, self.blue_hits)

    def walk(self, stop: int, leaf) -> None:
        """Depth-first over the pairs 0..stop-1 in colex order, the values
        of each from 1 up, calling leaf() with pairs below stop assigned;
        returns with them unassigned.

        tries holds per open pair the bitmask of its values still untried,
        bit j - 1 for value j: those of the fixed-point rule that allowed
        holds.  A value colours the pair's row, at (1, w) reads the later
        rows of w (the forced-blue read), and pushes the blue triples of
        its push list; a push that completes a copy is a dead end, which
        tries the next value, backing up past pairs with none left.  A pair
        backed past has its row at the forced read, the lift of the last
        value it tried (module docstring).  Counters live in locals and go
        back to the engine on every exit, _Budget and the leaf's _Found
        included."""
        alpha, colour, plans, cap = self.alpha, self.colour, self.plans, self.cap
        push, top, allowed = self.table.push, self.top, self.allowed
        nodes, max_depth, blue_hits = self.nodes, self.max_depth, self.blue_hits
        tries = []
        d = 0
        try:
            while True:
                if d == stop:
                    leaf()
                    d -= 1
                else:
                    mask = 1
                    for _, iuv in plans[d][1]:
                        mask |= 1 << alpha[iuv]
                    tries.append(mask & allowed[d])
                while True:
                    if d < 0:
                        return
                    mask = tries[-1]
                    if not mask:
                        tries.pop()
                        alpha[plans[d][0]] = 0
                        d -= 1
                        continue
                    low = mask & -mask
                    tries[-1] = mask ^ low
                    if nodes == cap:
                        raise _Budget()
                    nodes += 1
                    if d >= max_depth:
                        max_depth = d + 1
                    p, own, later, pushes = plans[d]
                    j = alpha[p] = low.bit_length()
                    for r, iuv in own:
                        colour[r] = alpha[iuv] < j
                    for r, iuv in later:
                        colour[r] = alpha[iuv] != top
                    for r in pushes:
                        if not colour[r] and push(r):
                            blue_hits += 1
                            break
                    else:
                        d += 1
                        break
        finally:
            self.nodes, self.max_depth, self.blue_hits = nodes, max_depth, blue_hits

    def decompose(self, depth: int) -> list[tuple[int, ...]]:
        """All live value prefixes of the first depth pairs, in DFS order."""
        prefixes: list[tuple[int, ...]] = []
        firsts = [plan[0] for plan in self.plans[:depth]]
        self.walk(depth, lambda: prefixes.append(tuple(self.alpha[p] for p in firsts)))
        return prefixes

    def split(self, prefix: tuple[int, ...],
              cap: int) -> tuple[TripleColoring | None, bool, SearchStats]:
        """The walk of every pair with a live prefix held, under a cap of
        nodes past it: (witness, hit, stats), hit True when the cap stopped
        it.  The prefix was counted where it was enumerated and has no blue
        hit, so nodes start at -len(prefix).  The walk reads only what its
        own branch assigned, so a split may follow any exit of the last."""
        allowed, k = self.allowed, len(prefix)
        held = allowed[:k]
        allowed[:k] = [1 << j - 1 for j in prefix]
        self.cap, self.nodes, self.max_depth, self.blue_hits = cap, -k, 0, 0
        witness, hit = None, False
        try:
            self.walk(self.total, _found)
        except _Found:
            bits = "".join("01"[red] for red in self.colour)
            witness = TripleColoring.from_bitstring(self.N, bits)
        except _Budget:
            hit = True
        finally:
            allowed[:k] = held
        return witness, hit, self.stats()


@lru_cache(maxsize=16)
def _pair_plans(N: int):
    """Per pair (v, w) in colex order (w, then v), (p, own, later, pushes):
    p its lex pair rank; own its row, (rank of (u, v, w), lex pair rank of
    (u, v)) for u < v; later every later row of w in the same form at the
    first pair (1, w), and nothing at the others; pushes the ranks that an
    assignment pushes when blue, those of own or later.  No plan colours a
    later row again after (1, w): a pair the walk backs past leaves its row
    at the forced read (module docstring).
    """
    row = pair_offsets(N)
    plans = []
    for w in range(2, N + 1):
        rows = [tuple((lex_rank((u, v, w), N), row[u] + v) for u in range(1, v))
                for v in range(w)]
        later = tuple(t for v in range(2, w) for t in rows[v])
        plans.append((row[1] + w, (), later, tuple(r for r, _ in later)))
        for v in range(2, w):
            plans.append((row[v] + w, rows[v], (), tuple(r for r, _ in rows[v])))
    return tuple(plans)


@lru_cache(maxsize=16)
def _window_plans(N: int, pattern: OrderedTripleSystem):
    """Per lex rank (u, v, w), (keys, blank): what the window push there
    reads and writes, built once per (N, pattern) and shared by every engine.

    The keys of rank (a, b, c) are the W-tuples L + (a, b, c), L a
    (W-3)-subset of [1, a-1] in combinations order, and key j of rank r is
    read as ends[r][j]; blank is bit W per key.  keys holds (j, prevs) per
    key, prevs (r, j', span, edges) per window S + (u, v, w) with S[1:] the
    key's L and per group: its prev key S + (u, v) is key j' of rank r, span
    has the group's k < N, and edges the ranks of the group's edges, sorted.
    """
    W = max(pattern.width, 3)
    # each group's edges at positions k - W + 1 .. k + 1, as 0..W, -> its k
    groups = {}
    for k in range(W, min(pattern.m, N)):
        low = k - W + 1
        edges = frozenset((a - low, b - low, c - low) for a, b, c in pattern.edges
                          if a >= low and c <= k + 1) - {(W - 2, W - 1, W)}
        groups[edges] = groups.get(edges, 0) | 1 << k
    slot, plans = {}, []
    for r, (u, v, w) in enumerate(all_triples(N)):
        keys = {lead: [] for lead in combinations(range(1, u), W - 3)}
        for lead in combinations(range(1, u), W - 2):
            window = lead + (u, v, w)
            for edges, span in groups.items():
                ranks = tuple(sorted(lex_rank((window[a], window[b], window[c]), N)
                                     for a, b, c in edges))
                keys[lead[1:]].append(slot[window[:-1]] + (span, ranks))
        slot.update((lead + (u, v, w), (r, j)) for j, lead in enumerate(keys))
        plans.append((tuple(enumerate(map(tuple, keys.values()))), (1 << W,) * len(keys)))
    return tuple(plans)


@lru_cache(maxsize=16)
def _member_plans(N: int, n: int):
    """Per lex rank (u, v, w), (sources, uw, fits, seen, entry): what
    the member push there reads and writes, built once per (N, n) and
    shared by every engine.

    sources holds (rank of (y, u, v), y, rank of (y, u, w), rank of
    (y, v, w)) for 0 < y < u, and uw[x] is the rank of (x, u, w).  fits are
    the states with room for the rest of a member after w, seen the fitting
    states of the three-vertex prefix (u, v, w), and entry its ends value,
    {0: seen}, or None when seen is 0.  A push with no prefix ending (u, v)
    stores that one entry, which no push changes.
    """
    jumps = jump_states(n)
    third = jumps.step(jumps.step(1, 7), 7)
    plans = []
    for u, v, w in all_triples(N):
        uw = (None,) + tuple(lex_rank((x, u, w), N) for x in range(1, u))
        sources = tuple((lex_rank((y, u, v), N), y, uw[y], lex_rank((y, v, w), N))
                        for y in range(1, u))
        fits = jumps.fits(N - w)
        seen = third & fits
        plans.append((sources, uw, fits, seen, {0: seen} if seen else None))
    return tuple(plans)


@lru_cache(maxsize=16)
def _consecutive(pattern: OrderedTripleSystem) -> int:
    """The width of pattern when it holds every consecutive triple (i, i+1,
    i+2), else 0, which is also the width with no edge: decide takes a
    pattern only where this is nonzero.  Width 2 is exactly the monotone
    path, which the witness re-check reads off the blue alpha table."""
    consecutive = all((i, i + 1, i + 2) in pattern.edges for i in range(1, pattern.m - 1))
    return pattern.width if consecutive else 0


def _blue_table(N: int, blue, colour: list[bool]):
    """The table the pair walker pushes each blue triple to.  A member with
    n jumps has 2n + 1 vertices, so no family with more than N // 2 jumps
    fits in [N]; the member table, the one cap on a jump count, is built
    for at most N // 2 + 1 jumps and walks the same tree.  A window table
    reports no copy of a pattern on 3 vertices, and the one pattern on 3
    vertices decide takes is the one-edge path (1, 2, 3), jump_min(1)[0]:
    it has the member table of one jump."""
    if isinstance(blue, JumpsFamily):
        return _JumpMembers(N, min(blue.n, N // 2 + 1), colour)
    if blue.m == 3:
        return _JumpMembers(N, 1, colour)
    return _Windows(N, blue, colour)


def _has_blue(c: TripleColoring, blue) -> bool:
    """Full detector run for the blue spec."""
    if isinstance(blue, JumpsFamily):
        return find_blue_jump_member(c, blue.n) is not None
    if _consecutive(blue) == 2:
        return alpha_table(c, Color.BLUE).max_value >= blue.m - 1
    return find_blue_embedding(c, blue) is not None


def _serve(conn, parent_end, problem: AvoidanceProblem, cap: int) -> None:
    """A worker: run each prefix that arrives on conn as a split of one
    engine, built at the first, and send back its result, or the exception
    that the build or the split raised and its traceback.  A forked worker
    inherits parent_end, the parent's end of the pipe, and closes it first,
    so that it sees a parent that dies without killing it go, and returns."""
    parent_end.close()
    engine = None
    with suppress(EOFError, OSError):
        while True:
            prefix = conn.recv()
            try:
                if engine is None:
                    engine = _PairEngine(problem, cap)
                result = engine.split(prefix, cap)
            except Exception as exc:
                from traceback import format_exc  # most workers never need it
                result = exc, format_exc()
            conn.send(result)


def _pool(problem: AvoidanceProblem, cap: int, prefixes: list, workers: int):
    """The split results in prefix order, from that many worker processes,
    each started with the problem, the cap and a pipe of its own; prefixes
    go out in order as workers come free.  Closing the generator kills the
    workers, which share no queue or lock that a killed one could leave
    held.  An exception in a worker raises RuntimeError here, with its
    traceback.  Most processes start no pool: multiprocessing loads here."""
    from multiprocessing import Pipe, Process
    from multiprocessing.connection import wait
    pool, running, done = [], {}, {}
    try:
        for _ in range(workers):
            conn, child = Pipe()
            proc = Process(target=_serve, args=(child, conn, problem, cap), daemon=True)
            proc.start()
            pool.append((proc, conn))
            child.close()
        free, sent = [conn for _, conn in pool], 0
        for i in range(len(prefixes)):
            while i not in done:
                for conn in free[:len(prefixes) - sent]:
                    conn.send(prefixes[sent])
                    running[conn] = sent
                    sent += 1
                free = wait(list(running))
                for conn in free:
                    done[running.pop(conn)] = conn.recv()
            result = done.pop(i)
            if isinstance(result[0], Exception):
                raise RuntimeError(f"split {i} failed in a worker:\n{result[1]}") from result[0]
            yield result
    finally:
        # the pipes close after the kills, so no worker wakes to a closed one
        for proc, conn in pool:
            proc.kill()
            proc.join()
            proc.close()
            conn.close()


def decide(problem: AvoidanceProblem, budget: int = DEFAULT_BUDGET,
           workers: int = 1) -> SearchOutcome:
    """Search for an avoidance coloring; see the module docstring.

    The red pattern must be a monotone path on at least 3 vertices, and
    the blue spec a JumpsFamily or a pattern that holds an edge and every
    consecutive triple: a monotone or power path on at least 3 vertices,
    or a fixed jump-family member.  A found witness is re-verified with
    the full detectors before return; running out of node budget reports
    inconclusive, never a guess.
    """
    if _consecutive(problem.red) != 2:
        raise ValueError("red pattern must be a monotone path on >= 3 vertices")
    if not isinstance(problem.blue, JumpsFamily) and not _consecutive(problem.blue):
        raise ValueError("blue pattern must hold an edge and every consecutive triple")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if workers < 1:
        raise ValueError("need at least one worker")

    probe = _PairEngine(problem, cap=budget)
    try:
        prefixes = probe.decompose(min(SPLIT_DEPTH, probe.total))
    except _Budget:
        return SearchOutcome("inconclusive", None, probe.stats())
    head = probe.stats()

    cap = budget - head.nodes
    # the pool starts all its workers up front: no more than there are splits
    workers = min(workers, len(prefixes))
    if workers <= 1:
        folded = _fold((probe.split(p, cap) for p in prefixes), budget, head)
    else:
        # leaving the block kills the workers, so a decided fold waits for no split
        with closing(_pool(problem, cap, prefixes, workers)) as results:
            folded = _fold(results, budget, head)
    return _finish(folded, problem)


def _fold(results, budget: int,
          head: SearchStats) -> tuple[str, TripleColoring | None, SearchStats]:
    """Split results in prefix order, as one sequential run would meet
    them, after the split enumeration's work head.  The blue hits add up
    over every split read, the one that stops the fold included."""
    used, depth, hits = head.nodes, head.max_depth, head.blue_hits
    for witness, hit_i, st in results:
        depth = max(depth, st.max_depth)
        hits += st.blue_hits
        if hit_i or st.nodes > budget - used:
            return "inconclusive", None, SearchStats(budget, depth, hits)
        if witness is not None:
            return "sat", witness, SearchStats(used + st.nodes, depth, hits)
        used += st.nodes
    return "unsat", None, SearchStats(used, depth, hits)


def _finish(folded: tuple[str, TripleColoring | None, SearchStats],
            problem: AvoidanceProblem) -> SearchOutcome:
    status, c, stats = folded
    if c is None:
        return SearchOutcome(status, None, stats)
    if alpha_table(c, Color.RED).max_value >= problem.red.m - 1:
        raise RuntimeError("witness contains the red path; this is a bug")
    if _has_blue(c, problem.blue):
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
