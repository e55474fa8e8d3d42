"""Detectors over red-blue triple colorings.

Three searches live here.  The first is a pair-state dynamic program: for a
target color, alpha(u, v) is one more than the number of triples in the
longest target-colored monotone path that finishes with the pair (u, v).
Assigning a triple (u, v, w) the target color always pushes alpha(v, w)
above alpha(u, v), which is what the avoidance search in module search
exploits for pruning.  The alpha table and the forward table of
longest_red_path decode the coloring into one mark per triple once, then
walk rows of consecutive triples (t, u, u+1..N) against the flat pair
index row[u] + v, so a whole host costs one step per triple.

The second finds an order-preserving embedding of a fixed pattern with all
edges blue.  Patterns of bounded width (largest span of an edge) admit a
window DP: once the last w chosen host vertices are fixed, earlier choices
cannot influence feasibility, so failed (position, window) states are
cached and the search runs in polynomial time for fixed width.

The third finds a blue member of the jump family with n jumps without
fixing the member in advance.  It scans host vertex tuples in lexicographic
order and carries, per tuple, the set of feasible jump placements encoded
as (last three flags, jumps used); every required edge of a jump pattern
touches at most five consecutive positions, so this state plus the last
four chosen vertices determines the future exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .core import (
    Color,
    Embedding,
    OrderedTripleSystem,
    TripleColoring,
    all_pairs,
    lex_rank,
    pair_offsets,
    pair_rank,
    rank_offsets,
)
from .family import JumpSpec, required_edges


class _FastBits:
    """O(1) blue lookups via precomputed rank offsets, without decoding
    the coloring: the embedding and member searches read few triples."""

    def __init__(self, c: TripleColoring):
        self.bits = c.bits
        self.pref1, self.pref2 = rank_offsets(c.N)

    def is_blue(self, a: int, b: int, c: int) -> bool:
        p2 = self.pref2
        return not (self.bits >> (self.pref1[a] + p2[b - 1] - p2[a] + c - b - 1)) & 1


@dataclass(frozen=True)
class AlphaTable:
    """Path-depth table for one target color, in pair lex-rank order."""

    N: int
    target: Color
    values: tuple[int, ...]

    def value(self, u: int, v: int) -> int:
        return self.values[pair_rank(u, v, self.N)]

    @property
    def max_value(self) -> int:
        return max(self.values, default=0)


def alpha_table(c: TripleColoring, target: Color = Color.RED) -> AlphaTable:
    """alpha(u, v) = 1 + max alpha(t, u) over t < u with (t, u, v) on target.

    The empty maximum gives alpha = 1: a bare pair ends a trivial path.
    The coloring is decoded once and its triples are walked in rank order,
    which is lex order: every triple (s, t, u) comes before the triples
    (t, u, v), so alpha(t, u) is final when it is pushed onto the pairs
    (u, v) that the row of (t, u, .) puts on target.
    """
    N = c.N
    want = "1" if target is Color.RED else "0"
    marks = c.bitstring()
    row = pair_offsets(N)
    values = [1] * comb(N, 2)
    r = 0  # rank of (t, u, u + 1)
    for t in range(1, N - 1):
        for u in range(t + 1, N):
            a = values[row[t] + u] + 1
            # i runs over the pairs (u, v), v = u+1..N
            for i, mark in enumerate(marks[r:r + N - u], row[u] + u + 1):
                if mark == want and values[i] < a:
                    values[i] = a
            r += N - u
    return AlphaTable(N, target, tuple(values))


def longest_red_path(c: TripleColoring) -> tuple[int, Embedding]:
    """Maximum alpha over all pairs and a path witness of that depth.

    A red monotone path on m vertices exists iff the returned depth is at
    least m - 1.  The witness has depth + 1 vertices and is the
    lexicographically least such sequence (or all of [N] for N < 2).
    """
    N = c.N
    if N < 2:
        return 0, Embedding(tuple(range(1, N + 1)))
    table = alpha_table(c, Color.RED)
    marks = c.bitstring()
    row = pair_offsets(N)
    # forward table: longest red continuation after starting with (u, v),
    # filled in reverse lex order so that every cont(v, w) is final
    cont = [0] * comb(N, 2)
    for u in range(N - 2, 0, -1):
        for v in range(N - 1, u, -1):
            r = lex_rank((u, v, v + 1), N)
            best = 0
            # i runs over the pairs (v, w), w = v+1..N
            for i, mark in enumerate(marks[r:r + N - v], row[v] + v + 1):
                if mark == "1" and cont[i] >= best:
                    best = cont[i] + 1
            cont[row[u] + v] = best
    top = max(cont)
    if top + 1 != table.max_value:
        raise RuntimeError("path tables disagree; this is a bug")
    u, v = list(all_pairs(N))[cont.index(top)]
    path = [u, v]
    remaining = top
    while remaining:
        u, v = path[-2], path[-1]
        w = next(
            w
            for w in range(v + 1, N + 1)
            if marks[lex_rank((u, v, w), N)] == "1"
            and cont[row[v] + w] == remaining - 1
        )
        path.append(w)
        remaining -= 1
    return table.max_value, Embedding(tuple(path))


@lru_cache(maxsize=256)
def _embedding_plan(pattern: OrderedTripleSystem):
    """Per-pattern tables of the embedding DP: the width, and the (a, b) of
    the edges (a, b, pos) ending at each position."""
    needs: list[list[tuple[int, int]]] = [[] for _ in range(pattern.m + 1)]
    for (a, b, cc) in pattern.sorted_edges:
        needs[cc].append((a, b))
    return pattern.width, tuple(map(tuple, needs))


def find_blue_embedding(c: TripleColoring, pattern: OrderedTripleSystem) -> Embedding | None:
    """Least order-preserving embedding of pattern with every edge blue.

    None when no embedding exists; patterns larger than the host never fit.
    """
    m, N = pattern.m, c.N
    if m > N:
        return None
    if m == 0:
        return Embedding(())
    w, needs = _embedding_plan(pattern)
    fast = _FastBits(c)
    failed: set[tuple[int, tuple[int, ...]]] = set()

    def dfs(prefix: list[int]) -> tuple[int, ...] | None:
        pos = len(prefix) + 1
        if pos > m:
            return tuple(prefix)
        window = tuple(prefix[max(0, len(prefix) - w):])
        if (pos, window) in failed:
            return None
        # position pos leaves room for the m - pos positions after it
        for h in range(prefix[-1] + 1 if prefix else 1, N - m + pos + 1):
            ok = True
            for (a, b) in needs[pos]:
                if not fast.is_blue(prefix[a - 1], prefix[b - 1], h):
                    ok = False
                    break
            if not ok:
                continue
            prefix.append(h)
            res = dfs(prefix)
            prefix.pop()
            if res is not None:
                return res
        failed.add((pos, window))
        return None

    found = dfs([])
    if found is None:
        return None
    for (a, b, cc) in pattern.edges:
        if not fast.is_blue(found[a - 1], found[b - 1], found[cc - 1]):
            raise RuntimeError("embedding failed recheck; this is a bug")
    return Embedding(found)


def _member_transitions(fast, n, N, prefix, alive, h):
    """Feasible (flags, used) states after appending host vertex h, with
    room left in [N] for the rest of the member."""
    p = len(prefix)
    if p >= 2 and not fast.is_blue(prefix[-2], prefix[-1], h):
        return frozenset()
    one_a = p < 3 or fast.is_blue(prefix[-3], prefix[-2], h)
    one_b = p < 3 or fast.is_blue(prefix[-3], prefix[-1], h)
    two = p < 4 or fast.is_blue(prefix[-4], prefix[-2], h)
    out = set()
    for f3, used in alive:
        for f in (False, True):
            if f and (p == 0 or (f3 and f3[-1]) or used == n):
                continue
            if f3 and f3[-1] and not one_a:
                continue
            if len(f3) >= 2 and f3[-2] and not one_b:
                continue
            if len(f3) >= 3 and f3[-3] and f3[-1] and not two:
                continue
            used2 = used + f
            need = n - used2
            tail = 2 * need + f if need else (1 if f else 0)
            if h + tail > N:
                continue
            out.add(((f3 + (f,))[-3:], used2))
    return frozenset(out)


def _minimal_jump_flags(fast, n, verts) -> tuple[int, ...]:
    """Least jump set completing a known-good vertex tuple, jumps early first."""
    m = len(verts)

    def walk(pos, f3, used, jumps):
        if pos > m:
            return jumps if used == n and not f3[-1] else None
        p = pos - 1
        for f in (True, False):
            if f and (p == 0 or (f3 and f3[-1]) or used == n or pos == m):
                continue
            if f3 and f3[-1] and p >= 3 and not fast.is_blue(
                verts[p - 3], verts[p - 2], verts[p]
            ):
                continue
            if len(f3) >= 2 and f3[-2] and p >= 3 and not fast.is_blue(
                verts[p - 3], verts[p - 1], verts[p]
            ):
                continue
            if len(f3) >= 3 and f3[-3] and f3[-1] and p >= 4 and not fast.is_blue(
                verts[p - 4], verts[p - 2], verts[p]
            ):
                continue
            res = walk(
                pos + 1, (f3 + (f,))[-3:], used + f, jumps + ((pos,) if f else ())
            )
            if res is not None:
                return res
        return None

    flags = walk(1, (), 0, ())
    if flags is None:
        raise RuntimeError("flag reconstruction failed; this is a bug")
    return flags


def find_blue_jump_member(
    c: TripleColoring, n: int
) -> tuple[tuple[int, ...], JumpSpec] | None:
    """Least blue-embedded member of the jump family with n jumps.

    Searches every host size from 2n+1 up to N.  The witness minimizes the
    host vertex tuple first and the jump position tuple second; None when
    no member of the family embeds with all required edges blue.
    """
    if n < 1:
        raise ValueError("need at least one jump")
    N = c.N
    if 2 * n + 1 > N:
        return None
    fast = _FastBits(c)
    failed: set[tuple[tuple[int, ...], frozenset]] = set()

    def dfs(prefix: list[int], alive: frozenset) -> tuple[int, ...] | None:
        if any(used == n and f3 and not f3[-1] for f3, used in alive):
            return tuple(prefix)
        state = (tuple(prefix[-4:]), alive)
        if state in failed:
            return None
        for h in range(prefix[-1] + 1 if prefix else 1, N + 1):
            nxt = _member_transitions(fast, n, N, prefix, alive, h)
            if not nxt:
                continue
            prefix.append(h)
            res = dfs(prefix, nxt)
            prefix.pop()
            if res is not None:
                return res
        failed.add(state)
        return None

    verts = dfs([], frozenset({((), 0)}))
    if verts is None:
        return None
    jumps = _minimal_jump_flags(fast, n, verts)
    spec = JumpSpec(len(verts), frozenset(jumps))
    for (a, b, cc) in required_edges(len(verts), spec).edges:
        if not fast.is_blue(verts[a - 1], verts[b - 1], verts[cc - 1]):
            raise RuntimeError("member witness failed recheck; this is a bug")
    return verts, spec
