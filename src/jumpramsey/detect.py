"""Detectors over red-blue triple colorings.

Three searches live here.  The first is a pair-state dynamic program: for a
target color, alpha(u, v) is one more than the number of triples in the
longest target-colored monotone path that finishes with the pair (u, v).
Assigning a triple (u, v, w) the target color always pushes alpha(v, w)
above alpha(u, v), which is what the avoidance search in module search
exploits for pruning.  On a full host every detector works one row at a
time, not one triple, and reads its rows off one decoding of the host
for the target color: the target-colored triples (t, ., .) as one int per
first vertex t, its rows cut at the row starts of core.row_starts, which
states the rank layout.  The blue decoding is the complement of the red
one, taken once as the host is decoded.  One alpha pass fills a vertex
u's pairs by ORing the rows (t, u, .) into one mask per value alpha(t, u)
and reading off, per pair, the best value whose mask holds it.  It
returns those masks beside the values, per value a the v with
alpha(u, v) = a, which the beta table of module certify reads.  The
alpha table costs a few integer operations per pair.

The second finds the least order-preserving embedding of a fixed pattern
with all edges blue.  Patterns of bounded width (largest span of an edge)
admit a window DP: once the last w chosen host vertices are fixed, earlier
choices cannot influence feasibility, so failed (position, window) states
are cached and the search runs in polynomial time for fixed width.  The
candidates for a position are one AND of the blue rows of its edges.  Run
on red rows, the same search gives the witness of longest_red_path: the
least red embedding of the path on depth + 1 vertices.

The third finds a blue member of the jump family with n jumps without
fixing the member in advance.  It scans host vertex tuples in lexicographic
order and carries, per tuple, the set of feasible jump placements encoded
as (last three flags, jumps used); every required edge of a jump pattern
touches at most five consecutive positions, so this state plus the last
four chosen vertices determines the future exactly.  The set is one
bitmask (JumpStates), and its transition is one memoised function that
the member table of module search steps through too.  The jump flags of
the member found are read off the search's stack: one pass back marks the
states that still lead to acceptance, one pass forward takes each jump as
early as they allow.

Both searches run on explicit stacks, one frame per position, and call no
function recursively, so a pattern or member of any size fits under
Python's recursion limit.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .core import (
    Color,
    Embedding,
    OrderedTripleSystem,
    TripleColoring,
    pair_offsets,
    pair_rank,
    record,
    row_starts,
)
from .family import JumpSpec, monotone_path, required_edges


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


def _red_blocks(c: TripleColoring, target: Color = Color.RED) -> list[int]:
    """The decoding every detector reads: per first vertex t, the triples
    (t, ., .) of the target color as one int at index t (index 0 unused).

    Block t is the rows of the pairs (t, t+1), ..., (t, N) in the layout of
    core.row_starts, bit 0 the first rank of row (t, t+1), each cut from
    one little-endian byte decoding of the coloring.  A blue block is the
    complement of the red one, with every bit above its rows set too, which
    no reader of a row looks at."""
    N, read = c.N, int.from_bytes
    starts, pairs = row_starts(N), pair_offsets(N)
    data = c.bits.to_bytes(starts[-1] + 7 >> 3, "little")
    cuts = [starts[pairs[t] + t + 1] for t in range(1, N + 1)] + [starts[-1]]
    blocks = [0] + [read(data[lo >> 3:hi + 7 >> 3], "little") >> (lo & 7) & (1 << hi - lo) - 1
                    for lo, hi in zip(cuts, cuts[1:])]
    return [~b for b in blocks] if target is Color.BLUE else blocks


def _rows(blocks: list[int]):
    """row(a, b): the triples (a, b, c) of the blocks' color (_red_blocks)
    as one int with bit c set, cut at row (a, b) of core.row_starts from
    block a."""
    N = len(blocks) - 1
    starts, pairs = row_starts(N), pair_offsets(N)

    def row(a: int, b: int) -> int:
        p = pairs[a]  # block a starts at row (a, a + 1)
        return (blocks[a] >> starts[p + b] - starts[p + a + 1] & (1 << N - b) - 1) << b + 1

    return row


def alpha_table(c: TripleColoring, target: Color = Color.RED) -> AlphaTable:
    """alpha(u, v) = 1 + max alpha(t, u) over t < u with (t, u, v) on target.

    The empty maximum gives alpha = 1: a bare pair ends a trivial path.
    """
    return AlphaTable(c.N, target, tuple(_alpha_pass(_red_blocks(c, target))[0]))


def _alpha_pass(blocks: list[int]):
    """(values, rows): alpha in pair lex-rank order for the blocks' color,
    in one pass over a copy of blocks (_red_blocks), and rows[a][u], the v
    with alpha(u, v) = a at bit v, for a from 1 up to the largest value
    (rows[0] is empty).

    Vertex u's pairs are filled after every alpha(t, u), t < u, is final.
    Block t holds its rows in pair order (core.row_starts), so row (t, u)
    is its low N - u bits once the rows before it are shifted out.  Each is
    ORed into the mask acc[alpha(t, u) + 1] and shifted out; going from the
    highest value down, each v takes the first value whose mask holds it,
    which is rows[a][u], and the rest keep the value 1 unvisited.
    """
    N = len(blocks) - 1
    blocks = list(blocks)
    row = pair_offsets(N)
    values = [1] * comb(N, 2)
    rows = [[0] * (N + 1), [0] * (N + 1)]
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
            if a == len(rows):  # one above the largest value so far
                rows.append([0] * (N + 1))
            rows[a][u] = vs << u + 1
            while vs:
                low = vs & -vs
                vs ^= low
                values[start + low.bit_length()] = a
        rows[1][u] = rest << u + 1
    return values, rows


def longest_red_path(c: TripleColoring) -> tuple[int, Embedding]:
    """Maximum alpha over all pairs and a path witness of that depth.

    A red monotone path on m vertices exists iff m <= N and the returned
    depth is at least m - 1.  The witness has depth + 1 vertices and is the
    lexicographically least such sequence (or all of [N] for N < 2): the
    least red embedding of the path on depth + 1 vertices.
    """
    blocks = _red_blocks(c)
    depth = max(_alpha_pass(blocks)[0], default=0)
    N = c.N
    if N < 2:
        return depth, Embedding(tuple(range(1, N + 1)))
    path = _least_embedding(_rows(blocks), N, monotone_path(depth + 1))
    if path is None:
        raise RuntimeError("path tables disagree; this is a bug")
    return depth, Embedding(path)


def red_path(c: TripleColoring, m: int) -> Embedding | None:
    """The first m vertices of the longest_red_path witness, or None when
    no red path has m vertices."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    depth, path = longest_red_path(c)
    if m > c.N or depth < m - 1:
        return None
    return Embedding(path.vertices[:m])


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

    None when no embedding exists; patterns larger than the host never fit,
    and a host with no blue triple holds no pattern with an edge, which is
    answered without a search.  An edgeless pattern embeds on any host it
    fits.
    """
    if pattern.m > c.N or pattern.edges and c.bits.bit_count() == comb(c.N, 3):
        return None
    row = _rows(_red_blocks(c, Color.BLUE))
    found = _least_embedding(row, c.N, pattern)
    if found is None:
        return None
    for (a, b, cc) in pattern.edges:
        if not row(found[a - 1], found[b - 1]) >> found[cc - 1] & 1:
            raise RuntimeError("embedding failed recheck; this is a bug")
    return Embedding(found)


def _least_embedding(row, N: int, pattern: OrderedTripleSystem) -> tuple[int, ...] | None:
    """Least embedding of pattern into [N], m <= N, with every edge (a, b,
    c) mapped to a bit of row; None when there is none.

    The search runs on an explicit stack: open position pos holds its
    failed-state key (pos, window of the last w vertices) and the mask of
    its candidates not yet tried, lowest first."""
    m = pattern.m
    w, needs = _embedding_plan(pattern)
    failed: set[tuple[int, tuple[int, ...]]] = set()
    prefix: list[int] = []
    stack: list[list] = []  # per open position: [key, candidates left]
    while len(prefix) < m:
        pos = len(prefix) + 1
        key = (pos, tuple(prefix[max(0, pos - 1 - w):]))
        hs = 0
        if key not in failed:
            # bit h: h after the last vertex, with room for m - pos more after it
            hs = (1 << N - m + pos + 1) - (1 << (prefix[-1] + 1 if prefix else 1))
            for (a, b) in needs[pos]:
                hs &= row(prefix[a - 1], prefix[b - 1])
        stack.append([key, hs])
        while not hs:
            failed.add(stack.pop()[0])
            if not prefix:
                return None
            prefix.pop()
            hs = stack[-1][1]
        low = hs & -hs
        stack[-1][1] = hs ^ low
        prefix.append(low.bit_length() - 1)
    return tuple(prefix)


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
        self.accept = 0x55 << 8 * n  # all n jumps used, f even
        # room[s]: the states that leave room for the rest of a member with
        # s host vertices to spare: 2 per missing jump, 1 after a jump
        self.room, fit = [], 0
        for s in range(2 * n + 2):
            fit |= (0xAA if s & 1 else 0x55) << 8 * (n - s // 2)
            self.room.append(fit)
        self.steps: dict[int, int] = {}

    def fits(self, spare: int) -> int:
        """The states that fit with spare host vertices after the last."""
        return self.room[min(spare, 2 * self.n + 1)]

    def step(self, mask: int, cond: int) -> int:
        """States after appending a vertex w to prefixes ending (x, y, u, v)
        in the states of mask; cond bits 0, 1, 2 say whether the jump edges
        (y, u, w), (y, v, w) and (x, u, w) are blue (set where a vertex is
        missing).  The caller checks (u, v, w) itself.  Only the states of
        mask are visited."""
        key = mask << 3 | cond
        out = self.steps.get(key)
        if out is None:
            out, full = 0, 1 << 8 * self.n
            while mask:
                low = mask & -mask
                mask ^= low
                f = low.bit_length() - 1 & 7
                if (f & 1 and not cond & 1 or f & 2 and not cond & 2
                        or f & 5 == 5 and not cond & 4):
                    continue
                low = low >> f << (f << 1 & 7)  # the flags shifted, used kept
                out |= low
                if not f & 1 and low < full:  # a jump at w: used + 1, f odd
                    out |= low << 9
            self.steps[key] = out
        return out


@lru_cache(maxsize=16)
def jump_states(n: int) -> JumpStates:
    """The one JumpStates per jump count, shared by every caller."""
    return JumpStates(n)


def find_blue_jump_member(
    c: TripleColoring, n: int
) -> tuple[tuple[int, ...], JumpSpec] | None:
    """Least blue-embedded member of the jump family with n jumps.

    Searches every host size from 2n+1 up to N.  The witness minimizes the
    host vertex tuple first and the jump position tuple second; None when
    no member of the family embeds with all required edges blue, which a
    host with no blue triple answers without a search.
    """
    if n < 1:
        raise ValueError("need at least one jump")
    N = c.N
    if 2 * n + 1 > N or c.bits.bit_count() == comb(N, 3):
        return None
    row = _rows(_red_blocks(c, Color.BLUE))
    states = jump_states(n)
    step, accept = states.step, states.accept
    fits = [states.fits(N - h) for h in range(N + 1)]
    failed: set[tuple[tuple[int, ...], int]] = set()
    prefix: list[int] = []
    # one frame per prefix: the next vertices not yet tried, its states,
    # the rows of its three jump edges that end at the next vertex (-1
    # where a vertex is missing), its failed-state key and the cond of the
    # vertex it took last
    stack = [[(1 << N + 1) - 2, 1, -1, -1, -1, ((), 1), 0]]
    while True:
        frame = stack[-1]
        hs, alive, yu, yv, xu, _, _ = frame
        while hs:
            low = hs & -hs
            hs ^= low
            h = low.bit_length() - 1
            cond = yu >> h & 1 | (yv >> h & 1) << 1 | (xu >> h & 1) << 2
            # no jump at the first position
            nxt = (step(alive, cond) if prefix else alive) & fits[h]
            if not nxt:
                continue
            key = (tuple(prefix[-3:]) + (h,), nxt)
            if nxt & accept or key not in failed:
                break
        else:
            failed.add(frame[5])
            stack.pop()
            if not stack:
                return None
            prefix.pop()
            continue
        frame[0], frame[6] = hs, cond
        prefix.append(h)
        if nxt & accept:
            break
        p = len(prefix)
        x, y, u, v = ([0, 0, 0, 0] + prefix)[-4:]
        # the row (u, v, .) holds the next vertices; before it exists, all
        # vertices after v
        stack.append([row(u, v) if p >= 2 else (1 << N + 1) - (2 << v), nxt,
                      row(y, u) if p >= 3 else -1, row(y, v) if p >= 3 else -1,
                      row(x, u) if p >= 4 else -1, key, 0])
    verts = tuple(prefix)
    m = len(verts)
    # good[k]: the states of the k-vertex prefix that still lead to an
    # accepting state, taken from the states on the stack, which hold
    # every state the prefix can reach
    good = [0] * m + [accept]
    for k in range(m - 1, 0, -1):
        alive, cond = stack[k][1], stack[k][6]
        while alive:
            low = alive & -alive
            alive ^= low
            if step(low, cond) & good[k + 1]:
                good[k] |= low
    # jumps earliest: a state's jump successor is its higher bit, taken
    # whenever it still leads to an accepting state
    jumps, state = [], 1
    for k in range(1, m):
        nxt = step(state, stack[k][6]) & good[k + 1]
        if not nxt:
            raise RuntimeError("flag reconstruction failed; this is a bug")
        bit = nxt.bit_length() - 1
        if bit & 1:
            jumps.append(k + 1)
        state = 1 << bit
    spec = JumpSpec(m, frozenset(jumps))
    for (a, b, cc) in required_edges(m, spec).edges:
        if not row(verts[a - 1], verts[b - 1]) >> verts[cc - 1] & 1:
            raise RuntimeError("member witness failed recheck; this is a bug")
    return verts, spec
