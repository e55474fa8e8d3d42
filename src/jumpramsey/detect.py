"""Detectors over red-blue triple colorings.

Three searches live here.  The first is a pair-state dynamic program: for a
target color, alpha(u, v) is one more than the number of triples in the
longest target-colored monotone path that finishes with the pair (u, v).
Assigning a triple (u, v, w) the target color always pushes alpha(v, w)
above alpha(u, v), which is what the avoidance search in module search
exploits for pruning.  On a full host every detector works one row at a
time, not one triple, and reads its rows off one decoding of the host: the
red triples (t, ., .) are one int per first vertex t, cut from the coloring
in rank order, and the row (t, u, .) is its lowest bits once the rows
before it are shifted out; a blue row is its complement.  One alpha pass
fills a vertex u's pairs by ORing the rows (t, u, .) into one mask per
value alpha(t, u) and reading off, per pair, the best value whose mask
holds it; on request it also returns those masks per value, which the beta
table of module certify reads.  The alpha table and the forward table of
longest_red_path cost a few integer operations per pair.

The second finds an order-preserving embedding of a fixed pattern with all
edges blue.  Patterns of bounded width (largest span of an edge) admit a
window DP: once the last w chosen host vertices are fixed, earlier choices
cannot influence feasibility, so failed (position, window) states are
cached and the search runs in polynomial time for fixed width.  The
candidates for a position are one AND of the blue rows of its edges.

The third finds a blue member of the jump family with n jumps without
fixing the member in advance.  It scans host vertex tuples in lexicographic
order and carries, per tuple, the set of feasible jump placements encoded
as (last three flags, jumps used); every required edge of a jump pattern
touches at most five consecutive positions, so this state plus the last
four chosen vertices determines the future exactly.  The set is one
bitmask (JumpStates), and its transition is one memoised function that
the member table of module search steps through too.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .core import (
    Color,
    Embedding,
    OrderedTripleSystem,
    TripleColoring,
    all_pairs,
    pair_offsets,
    pair_rank,
    rank_offsets,
    record,
)
from .family import JumpSpec, required_edges


@record
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


def _red_blocks(c: TripleColoring) -> list[int]:
    """Per first vertex t, the red triples (t, ., .) as one int, in rank
    order from bit 0; 0 where there are none.

    Row (t, u, .) comes after the rows (t, t + 1, .), ..., (t, u - 1, .),
    so once those are shifted out it is the lowest N - u bits, bit
    v - u - 1 for (t, u, v)."""
    pref1, _ = rank_offsets(c.N)
    return [c.bits >> lo & (1 << hi - lo) - 1 for lo, hi in zip(pref1, pref1[1:])]


def _blue_rows(c: TripleColoring):
    """row(a, b): the blue triples (a, b, c) as one int with bit c set, read
    from block a of _red_blocks, pref2[b - 1] - pref2[a] bits in."""
    N = c.N
    blue = [~b for b in _red_blocks(c)]
    p2 = rank_offsets(N)[1]

    def row(a: int, b: int) -> int:
        return (blue[a] >> p2[b - 1] - p2[a] & (1 << N - b) - 1) << b + 1

    return row


def alpha_table(c: TripleColoring, target: Color = Color.RED) -> AlphaTable:
    """alpha(u, v) = 1 + max alpha(t, u) over t < u with (t, u, v) on target.

    The empty maximum gives alpha = 1: a bare pair ends a trivial path.
    """
    return AlphaTable(c.N, target, tuple(_alpha_pass(c, target)[0]))


def _alpha_pass(c: TripleColoring, target: Color = Color.RED, masks: bool = False):
    """(values, rows, cols): alpha in pair lex-rank order, in one pass over
    the blocks of _red_blocks, complemented for a blue target.

    Vertex u's pairs are filled after every alpha(t, u), t < u, is final.
    Each row (t, u, .), the low bits of block t, is ORed into the mask
    acc[alpha(t, u) + 1] and shifted out; going from the highest value
    down, each v takes the first value whose mask holds it, and the rest
    keep the value 1 unvisited.  With masks, rows[a][u] holds the v with
    alpha(u, v) = a at bit v, and cols[a][v] the t with alpha(t, v) = a
    at bit t, for a up to the largest value; else both are None.
    """
    N = c.N
    blocks = _red_blocks(c)
    if target is Color.BLUE:
        # ~b & m and ~b >> k read and drop the complemented rows
        blocks = [~b for b in blocks]
    row = pair_offsets(N)
    values = [1] * comb(N, 2)
    rows = [[0] * (N + 1) for _ in range(N + 2)] if masks else None
    cols = [[0] * (N + 1) for _ in range(N + 2)] if masks else None
    for u in range(1, N):
        w = N - u
        rest, start = (1 << w) - 1, row[u] + u  # values[start + i]: pair (u, u + i)
        acc = [0] * (u + 1)
        for t in range(1, u):
            b = blocks[t]
            acc[values[row[t] + u] + 1] |= b & rest
            blocks[t] = b >> w
        for a in range(u, 1, -1):
            vs = acc[a] & rest
            if not vs:
                continue
            rest ^= vs
            if masks:
                rows[a][u], col, bit = vs << u + 1, cols[a], 1 << u
            while vs:
                low = vs & -vs
                vs ^= low
                i = low.bit_length()
                values[start + i] = a
                if masks:
                    col[u + i] |= bit
        if masks:
            rows[1][u] = rest << u + 1
    if masks:
        top = max(values, default=1)
        del rows[top + 1:], cols[top + 1:]
        for v in range(2, N + 1):  # the disjoint masks of the other values
            cols[1][v] = (1 << v) - 2 - sum(cols[a][v] for a in range(2, top + 1))
    return values, rows, cols


def longest_red_path(c: TripleColoring) -> tuple[int, Embedding]:
    """Maximum alpha over all pairs and a path witness of that depth.

    A red monotone path on m vertices exists iff m <= N and the returned
    depth is at least m - 1.  The witness has depth + 1 vertices and is the
    lexicographically least such sequence (or all of [N] for N < 2).
    """
    depth = max(_alpha_pass(c)[0], default=0)
    return depth, _red_path_witness(c, depth)


def red_path(c: TripleColoring, m: int) -> Embedding | None:
    """The first m vertices of the longest_red_path witness, or None when
    no red path has m vertices.  The alpha table is filled once, and the
    witness is built only when there is one."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    depth = max(_alpha_pass(c)[0], default=0)
    if m > c.N or depth < m - 1:
        return None
    return Embedding(_red_path_witness(c, depth).vertices[:m])


def _red_path_witness(c: TripleColoring, depth: int) -> Embedding:
    """The longest_red_path witness, from the alpha depth that the forward
    table must match."""
    N = c.N
    if N < 2:
        return Embedding(tuple(range(1, N + 1)))
    row = pair_offsets(N)
    blocks = _red_blocks(c)
    # forward table: cont(u, v) is the longest red continuation after
    # starting with (u, v).  levels[v] lists (k, mask of the w with
    # cont(v, w) = k at bit w - v - 1), k falling, filed once every
    # cont(v, .) is final; so cont(u, v) is one more than the first k
    # whose mask meets row (u, v), the low bits of the block of u once the
    # rows before it are shifted out.
    cont = [0] * comb(N, 2)
    levels: list[list[tuple[int, int]]] = [[] for _ in range(N + 1)]
    for u in range(N - 1, 0, -1):
        block = blocks[u]
        for v in range(u + 1, N):
            for k, ws in levels[v]:
                if block & ws:
                    cont[row[u] + v] = k + 1
                    break
            block >>= N - v
        by_k: dict[int, int] = {}
        for v in range(u + 1, N + 1):
            k = cont[row[u] + v]
            by_k[k] = by_k.get(k, 0) | 1 << (v - u - 1)
        levels[u] = sorted(by_k.items(), reverse=True)
    top = max(cont)
    if top + 1 != depth:
        raise RuntimeError("path tables disagree; this is a bug")
    u, v = list(all_pairs(N))[cont.index(top)]
    path = [u, v]
    pref2 = rank_offsets(N)[1]
    for k in range(top - 1, -1, -1):
        # row (u, v, .) starts pref2[v - 1] - pref2[u] bits into the block;
        # the smallest w is the lowest bit
        ws = blocks[u] >> pref2[v - 1] - pref2[u] & dict(levels[v])[k]
        u, v = v, v + (ws & -ws).bit_length()
        path.append(v)
    return Embedding(tuple(path))


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
    row = _blue_rows(c)
    failed: set[tuple[int, tuple[int, ...]]] = set()

    def dfs(prefix: list[int]) -> tuple[int, ...] | None:
        pos = len(prefix) + 1
        if pos > m:
            return tuple(prefix)
        window = tuple(prefix[max(0, len(prefix) - w):])
        if (pos, window) in failed:
            return None
        # bit h: h after the last vertex, with room for m - pos more after it
        hs = (1 << N - m + pos + 1) - (1 << (prefix[-1] + 1 if prefix else 1))
        for (a, b) in needs[pos]:
            hs &= row(prefix[a - 1], prefix[b - 1])
        while hs:
            low = hs & -hs
            hs ^= low
            prefix.append(low.bit_length() - 1)
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
        if not row(found[a - 1], found[b - 1]) >> found[cc - 1] & 1:
            raise RuntimeError("embedding failed recheck; this is a bug")
    return Embedding(found)


class JumpStates:
    """States of blue member prefixes of the n-jump family, as bitmasks.

    A prefix's state is (f, used): f holds the jump flags of its last three
    positions, bit 0 the last, and used counts its jumps.  State (f, used)
    is bit 8 * used + f of a mask, so a set of states is one int; a
    one-vertex prefix has the state set 1 (no jump, none used).  A prefix
    accepts (is a member) in a state with all n jumps used and no jump at
    its last position.  step is memoised over (mask, cond) for the process
    and serves the detector below and the engine's member table in module
    search alike.
    """

    def __init__(self, n: int):
        self.n = n
        self.accept = sum(1 << (8 * n + f) for f in range(0, 8, 2))
        # room[s]: the states that leave room for the rest of a member with
        # s host vertices to spare: 2 per missing jump, 1 after a jump
        self.room = [sum(1 << (8 * used + f) for used in range(n + 1) for f in range(8)
                         if 2 * (n - used) + (f & 1) <= s) for s in range(2 * n + 2)]
        self.steps: dict[int, int] = {}

    def fits(self, spare: int) -> int:
        """The states that fit with spare host vertices after the last."""
        return self.room[min(spare, 2 * self.n + 1)]

    def step(self, mask: int, cond: int) -> int:
        """States after appending a vertex w to prefixes ending (x, y, u, v)
        in the states of mask; cond bits 0, 1, 2 say whether the jump edges
        (y, u, w), (y, v, w) and (x, u, w) are blue (set where a vertex is
        missing).  The caller checks (u, v, w) itself."""
        key = mask << 3 | cond
        out = self.steps.get(key)
        if out is None:
            out = 0
            for used in range(self.n + 1):
                for f in range(8):
                    if not mask >> (8 * used + f) & 1:
                        continue
                    if (f & 1 and not cond & 1 or f & 2 and not cond & 2
                            or f & 5 == 5 and not cond & 4):
                        continue
                    out |= 1 << (8 * used + (f << 1 & 7))
                    if not f & 1 and used < self.n:
                        out |= 1 << (8 * (used + 1) + (f << 1 & 7 | 1))
            self.steps[key] = out
        return out


@lru_cache(maxsize=16)
def jump_states(n: int) -> JumpStates:
    """The one JumpStates per jump count, shared by every caller."""
    return JumpStates(n)


def _minimal_jump_flags(row, n, verts) -> tuple[int, ...]:
    """Least jump set completing a known-good vertex tuple, jumps early first.

    One state at a time goes through JumpStates.step, with cond read off the
    tuple as the detector reads it; of a state's two successors the jump
    one is the higher bit and is tried first."""
    states = jump_states(n)
    m = len(verts)

    def walk(p, state):
        if p == m:
            return () if state & states.accept else None
        x, y, u, v, w = ((0, 0, 0, 0) + verts[:p + 1])[-5:]
        cond = 7 if p < 3 else (row(y, u) >> w & 1 | (row(y, v) >> w & 1) << 1
                                | (p == 3 or row(x, u) >> w & 1) << 2)
        nxt = states.step(state, cond) & states.fits(m - 1 - p)
        while nxt:
            bit = nxt.bit_length() - 1
            nxt ^= 1 << bit
            rest = walk(p + 1, 1 << bit)
            if rest is not None:
                return (p + 1,) + rest if bit & 1 else rest
        return None

    flags = walk(1, 1)
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
    row = _blue_rows(c)
    states = jump_states(n)
    step, accept = states.step, states.accept
    fits = [states.fits(N - h) for h in range(N + 1)]
    failed: set[tuple[tuple[int, ...], int]] = set()

    def dfs(prefix: list[int], alive: int) -> tuple[int, ...] | None:
        if alive & accept:
            return tuple(prefix)
        state = (tuple(prefix[-4:]), alive)
        if state in failed:
            return None
        p = len(prefix)
        x, y, u, v = ([0, 0, 0, 0] + prefix)[-4:]
        # the rows of the four edges that end at h; -1 where a vertex is missing
        uv = row(u, v) if p >= 2 else -1
        yu, yv = (row(y, u), row(y, v)) if p >= 3 else (-1, -1)
        xu = row(x, u) if p >= 4 else -1
        for h in range(v + 1, N + 1):
            if p == 0:  # no jump at the first position
                nxt = alive & fits[h]
            elif not uv >> h & 1:
                continue
            else:
                cond = yu >> h & 1 | (yv >> h & 1) << 1 | (xu >> h & 1) << 2
                nxt = step(alive, cond) & fits[h]
            if not nxt:
                continue
            prefix.append(h)
            res = dfs(prefix, nxt)
            prefix.pop()
            if res is not None:
                return res
        failed.add(state)
        return None

    verts = dfs([], 1)
    if verts is None:
        return None
    jumps = _minimal_jump_flags(row, n, verts)
    spec = JumpSpec(len(verts), frozenset(jumps))
    for (a, b, cc) in required_edges(len(verts), spec).edges:
        if not row(verts[a - 1], verts[b - 1]) >> verts[cc - 1] & 1:
            raise RuntimeError("member witness failed recheck; this is a bug")
    return verts, spec
