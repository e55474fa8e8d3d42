"""Certificates tying pair colorings to triple colorings.

One direction: a block chain deep enough in the beta table pins down a blue
copy of the minimal jump pattern, and extract_blue_jump_witness turns the
chain into a checked embedding.  The other direction: a coloring of the
associated graph of a jump pattern that is non-increasing along required
edges always contains a monochromatic triangle, and gh_triangle_finder
locates one by peeling jumps off the end in one pass over the coloring.

The profile machinery sits between the two: every vertex gets a downward
closed staircase built from (alpha, beta) pairs of its predecessors, and
verify_profile_property checks that no group of same-staircase vertices
carries a monochromatic triangle under alpha.  Chains are the reason: such
a triangle would extend a chain by one block and push beta past itself.

The beta table reads its per-value row masks off the alpha pass of module
detect, builds a vertex's column masks from the alpha values when it comes
up, and keeps, per (value, vertex), the length of the longest chain a
block there extends; a chain is rebuilt from those only when asked for.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from math import comb

from .core import (Color, Embedding, TripleColoring, all_pairs, pair_offsets, pair_rank,
                   record)
from .detect import AlphaTable, _alpha_pass, _red_blocks, alpha_table, find_blue_jump_member
from .family import JumpSpec, associated_graph, jump_min, required_edges, _as_spec, _require_valid


class CertificationError(RuntimeError):
    """A witness or certificate failed verification; names the culprit."""

    def __init__(self, message: str, edge: tuple[int, int, int] | None = None):
        super().__init__(message)
        self.edge = edge


@record
class BetaChain:
    """Block chain of odd length: block i is (v_{2i-1}, v_{2i}, v_{2i+1}).

    ell counts one more than the blocks; alpha is constant inside a block
    and non-increasing from one block to the next.  The alpha conditions
    depend on a coloring and are checked by validate_beta_chain, not here.
    """

    vertices: tuple[int, ...]
    block_values: tuple[int, ...]
    ell: int

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("ell must be positive")
        if len(self.vertices) != 2 * self.ell - 1:
            raise ValueError(
                f"chain with ell={self.ell} needs {2 * self.ell - 1} vertices"
            )
        if len(self.block_values) != self.ell - 1:
            raise ValueError(f"chain with ell={self.ell} needs {self.ell - 1} blocks")
        if any(a >= b for a, b in zip(self.vertices, self.vertices[1:])):
            raise ValueError("chain vertices must increase")
        if any(
            a < b for a, b in zip(self.block_values, self.block_values[1:])
        ):
            raise ValueError("block values must be non-increasing")

    @property
    def final_pair(self) -> tuple[int, int] | None:
        if self.ell < 2:
            return None
        return self.vertices[-2], self.vertices[-1]

    def block(self, i: int) -> tuple[int, int, int]:
        """Vertices of block i, 1-based."""
        if not 1 <= i <= self.ell - 1:
            raise IndexError(f"no block {i} in a chain with ell={self.ell}")
        return tuple(self.vertices[2 * i - 2: 2 * i + 1])


def validate_beta_chain(c: TripleColoring, chain: BetaChain,
                        alpha: AlphaTable | None = None) -> None:
    """Raise CertificationError unless the alpha conditions hold in c."""
    if chain.vertices and not (
        1 <= chain.vertices[0] and chain.vertices[-1] <= c.N
    ):
        raise CertificationError(f"chain vertices leave [{c.N}]")
    if alpha is None:
        alpha = alpha_table(c, Color.RED)
    for i in range(1, chain.ell):
        x, y, z = chain.block(i)
        want = chain.block_values[i - 1]
        for (p, q) in ((x, y), (y, z), (x, z)):
            if alpha.value(p, q) != want:
                raise CertificationError(
                    f"block {i} claims alpha {want} but alpha({p},{q}) = "
                    f"{alpha.value(p, q)}"
                )


@record
class BetaTable:
    """Beta values in pair lex-rank order, and what rebuilds a chain.

    ext[a][t] is the most blocks over the pairs (s, t) with alpha(s, t) at
    least a, 0 where there is none: a block (t, u, v) at value a extends a
    chain of that many blocks.  chain rebuilds a pair's chain from it on
    demand.  deepest[v - 1][a - 1] is the largest beta(u, v) over the
    u < v with alpha(u, v) = a, 1 where there is none, for a up to the
    largest alpha(u, v); the profile staircases are read off it.
    """

    N: int
    alpha: AlphaTable
    betas: tuple[int, ...]
    ext: tuple[tuple[int, ...], ...]
    deepest: tuple[tuple[int, ...], ...]

    def beta(self, u: int, v: int) -> int:
        return self.betas[pair_rank(u, v, self.N)]

    def chain(self, u: int, v: int) -> BetaChain | None:
        """The optimal chain ending at (u, v); None where beta is 1.  Its
        last block (t, u, v) at a = alpha(u, v) has the smallest t with
        alpha(t, u) = alpha(t, v) = a and ext[a][t] = beta(u, v) - 2, glued
        to the chain of (s, t) for the smallest s with alpha(s, t) >= a and
        beta(s, t) - 1 = ext[a][t]: the per-pair DP's tie-breaks."""
        row, al, betas = pair_offsets(self.N), self.alpha.values, self.betas
        blocks = B = betas[row[u] + v] - 1
        if blocks == 0:
            return None
        back, values = [], []  # the chain's vertices and values, last first
        while True:
            a = al[row[u] + v]
            ext = self.ext[a]
            t = next(t for t in range(1, u) if ext[t] == B - 1
                     and al[row[t] + u] == a == al[row[t] + v])
            back += (v, u)
            values.append(a)
            B -= 1
            if not B:
                back.append(t)
                break
            u, v = next(s for s in range(1, t)
                        if betas[row[s] + t] - 1 == B and al[row[s] + t] >= a), t
        return BetaChain(tuple(reversed(back)), tuple(reversed(values)), blocks + 1)

    @property
    def chains(self) -> tuple[BetaChain | None, ...]:
        """Every pair's chain, in pair lex-rank order."""
        return tuple(self.chain(u, v) for u, v in all_pairs(self.N))

    @property
    def max_beta(self) -> int:
        return max(self.betas, default=1)


def beta_table(c: TripleColoring) -> BetaTable:
    """Longest block chain ending at each pair, by dynamic programming.

    A block (t, u, v) requires alpha(t,u) = alpha(u,v) = alpha(t,v); chains
    glue blocks at a shared vertex with non-increasing alpha.  B counts
    blocks; beta = B + 1.  Ties break toward the smallest predecessor, so
    the chain BetaTable.chain rebuilds is deterministic.

    The row masks rows[a][u], the v with alpha(u, v) = a, come from the
    alpha pass itself; vertex u's column masks cols[a], the t < u with
    alpha(t, u) = a, are read off the alpha values when u comes up.  The
    chain a block (t, u, v) extends depends only on t and a = alpha(u, v):
    its length is ext[a][t].  claimed[a][B] holds the v of the pairs (u, v)
    at value a written with B blocks, so when vertex t comes up, the
    largest B whose mask holds t, per value, is deepest, and ext is its
    running max over the values from the top down; t is filed in the mask
    filed[a][ext[a][t]].  Vertex u is then filled one value a at a time:
    the v with alpha(u, v) = a start open, and going down the levels of
    filed[a], each t there with alpha(t, u) = a, lowest first, claims the
    open v with alpha(t, v) = a.  Each pair is written once, by its best
    block: highest level, then smallest t.
    """
    N = c.N
    al, rows = _alpha_pass(_red_blocks(c))
    top = len(rows) - 1
    row = pair_offsets(N)
    betas = [1] * len(al)
    claimed = [[0] for _ in range(top + 1)]
    ext = [[0] * (N + 1) for _ in range(top + 1)]
    filed = [[0] for _ in range(top + 1)]
    deepest = []
    for u in range(1, N + 1):
        bit, most, deep = 1 << u, 0, []
        for a in range(top, 0, -1):
            marks = claimed[a]
            B = len(marks) - 1
            while B and not marks[B] & bit:
                B -= 1
            deep.append(B + 1)
            most = max(most, B)
            ext[a][u] = most
            levels = filed[a]
            levels += [0] * (most + 1 - len(levels))
            levels[most] |= bit
        cols = [0] * (top + 1)
        for t in range(1, u):
            cols[al[row[t] + u]] |= 1 << t
        width = next((a for a in range(top, 0, -1) if cols[a]), 0)
        deepest.append(tuple(deep[::-1][:width]))
        at = row[u] - 1
        for a in range(1, top + 1):
            open_, ts = rows[a][u], cols[a]
            levels, claims, marks = filed[a], rows[a], claimed[a]
            marks += [0] * (len(levels) + 1 - len(marks))
            B = len(levels)
            while open_ and ts and B:
                B -= 1
                hit = levels[B] & ts
                while hit and open_:
                    low = hit & -hit
                    hit ^= low
                    vs = open_ & claims[low.bit_length() - 1]
                    open_ ^= vs
                    marks[B + 1] |= vs
                    beta = B + 2
                    while vs:
                        low = vs & -vs
                        vs ^= low
                        betas[at + low.bit_length()] = beta  # pair (u, bit_length - 1)
    return BetaTable(N, AlphaTable(N, Color.RED, tuple(al)), tuple(betas),
                     tuple(map(tuple, ext)), tuple(deepest))


def extract_blue_jump_witness(c: TripleColoring, chain: BetaChain) -> Embedding:
    """Chain of ell = n+1 -> blue embedding of the minimal n-jump pattern.

    Non-increasing alpha along the chain makes every required edge blue:
    a red (u, v, w) would force alpha(v, w) past alpha(u, v).  Every edge
    is still re-checked against c; a non-blue edge is reported by name.
    """
    n = chain.ell - 1
    if n < 1:
        raise CertificationError("chain too short: need ell >= 2")
    validate_beta_chain(c, chain)
    pattern, _ = jump_min(n)
    verts = chain.vertices
    for (a, b, cc) in pattern.sorted_edges:
        triple = (verts[a - 1], verts[b - 1], verts[cc - 1])
        if c.color(*triple) is not Color.BLUE:
            raise CertificationError(
                f"required edge ({a},{b},{cc}) maps to non-blue {triple}",
                edge=(a, b, cc),
            )
    return Embedding(verts)


@record
class ProfileStaircase:
    """Downward-closed profile: maxB[a-1] is the deepest b at width a.

    Width runs to the largest alpha seen at the vertex, never clamped.
    """

    maxB: tuple[int, ...]

    def __post_init__(self):
        if any(x < 1 for x in self.maxB):
            raise ValueError("staircase depths must be positive")
        if any(a < b for a, b in zip(self.maxB, self.maxB[1:])):
            raise ValueError("staircase must be non-increasing")

    @property
    def width(self) -> int:
        return len(self.maxB)

    def contains(self, a: int, b: int) -> bool:
        return 1 <= a <= len(self.maxB) and 1 <= b <= self.maxB[a - 1]


def profile_table(c: TripleColoring) -> dict[int, ProfileStaircase]:
    """Staircase of (alpha, beta) pairs over all predecessors, per vertex."""
    return _profiles(beta_table(c))


def _profiles(table: BetaTable) -> dict[int, ProfileStaircase]:
    """profile_table's staircases from a beta table already built: the
    deepest b at width a is the largest beta at any value a' >= a, one
    suffix max over the table's per-value deepest betas of each vertex."""
    return {
        v: ProfileStaircase(tuple(accumulate(reversed(deep), max))[::-1])
        for v, deep in enumerate(table.deepest, 1)
    }


def count_downsets(n: int) -> int:
    """Downward-closed subsets of the n-by-n grid.  The boundary of one is a
    monotone lattice path of n steps right and n down, so there are
    C(2n, n)."""
    if n < 0:
        raise ValueError("grid size must be nonnegative")
    return comb(2 * n, n)


@record
class ProfileReport:
    """Outcome of the same-profile triangle scan."""

    n: int
    N: int
    groups: tuple[tuple[int, ...], ...]
    group_profiles: tuple[ProfileStaircase, ...]
    red_depth: int
    blue_member: tuple[tuple[int, ...], JumpSpec] | None
    triangle: tuple[int, int, int] | None
    extended_chain: BetaChain | None

    @property
    def has_red_path(self) -> bool:
        return self.red_depth >= self.n + 1

    @property
    def preconditions_hold(self) -> bool:
        return not self.has_red_path and self.blue_member is None

    @property
    def clean(self) -> bool:
        return self.triangle is None


def verify_profile_property(c: TripleColoring, n: int) -> ProfileReport:
    """Group vertices by staircase and scan each group for a triangle
    monochromatic under alpha.

    Under the preconditions (no red path on n+2 vertices, no blue n-jump
    member) no group may contain one: a triangle {u,v,w} with the same
    profile at u and w yields a predecessor chain that (u,v,w) extends,
    forcing beta(v,w) above itself.  A found triangle therefore comes with
    that extended chain; when instead the preconditions fail with some
    beta above n, the report carries a chain of ell = n+1 cut from the
    beta table, the object the blue-member extraction consumes.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    N = c.N
    table = beta_table(c)
    alpha = table.alpha
    profiles = _profiles(table)
    by_profile: dict[ProfileStaircase, list[int]] = {}
    for v in range(1, N + 1):
        by_profile.setdefault(profiles[v], []).append(v)
    groups = tuple(tuple(vs) for vs in by_profile.values())
    group_profiles = tuple(profiles[vs[0]] for vs in groups)
    depth = alpha.max_value
    member = find_blue_jump_member(c, n)

    triangle = None
    extended = None
    for vs in groups:
        for (u, v, w) in combinations(vs, 3):
            a = alpha.value(u, v)
            if alpha.value(u, w) == a and alpha.value(v, w) == a:
                triangle = (u, v, w)
                extended = _extend_chain(table, u, v, w)
                break
        if triangle:
            break

    if extended is None:
        overflow = next(
            (pair for pair, b in zip(all_pairs(N), table.betas) if b >= n + 1), None
        )
        if overflow is not None:
            chain = table.chain(*overflow)
            extended = BetaChain(
                chain.vertices[: 2 * n + 1], chain.block_values[:n], n + 1
            )

    return ProfileReport(
        n=n,
        N=N,
        groups=groups,
        group_profiles=group_profiles,
        red_depth=depth,
        blue_member=member,
        triangle=triangle,
        extended_chain=extended,
    )


def _extend_chain(table: BetaTable, u: int, v: int, w: int) -> BetaChain:
    """Append (u, v, w) as one more block after a chain for some (t, u).

    The profile match promises a predecessor t of u with alpha(t,u) at
    least alpha(v,w) and beta(t,u) at least beta(v,w) >= 2; the chain for
    (t, u) then continues with v, w.
    """
    alpha = table.alpha
    a, b = alpha.value(v, w), table.beta(v, w)
    t = next(
        (
            t
            for t in range(1, u)
            if alpha.value(t, u) >= a and table.beta(t, u) >= b
        ),
        None,
    )
    if t is None:
        raise CertificationError(
            f"no predecessor of {u} dominates ({a},{b}); profiles disagree"
        )
    chain = table.chain(t, u)
    if chain is None:
        raise CertificationError(f"pair ({t},{u}) has no chain to extend")
    return BetaChain(
        chain.vertices + (v, w),
        chain.block_values + (alpha.value(u, v),),
        chain.ell + 1,
    )


def gh_triangle_finder(m: int, jumps, chi) -> tuple[int, int, int]:
    """Monochromatic triangle in the associated graph of a jump pattern.

    chi must color exactly the associated-graph pairs with values 1..|J|,
    non-increasing along every required edge.  From k = m down, the peel
    takes the largest jump w of the prefix [k]: when the least color on [k]
    never lands before w, it drops w and goes on with k = w-1; otherwise
    that color propagates to the pairs around w and {w-1, w, w+1} closes
    the triangle, as the first jump always does.  One pass over chi.
    """
    spec = _require_valid(_as_spec(m, jumps))
    n = len(spec.jumps)
    if n < 1:
        raise ValueError("need at least one jump")
    gh = associated_graph(m, spec)
    got, want = set(chi), gh.pairs
    if got != want:
        off = min(got.symmetric_difference(want))
        side = "missing" if off in want else "extra"
        raise ValueError(f"chi domain mismatch: {side} pair {off}")
    for pair, value in sorted(chi.items()):
        if not isinstance(value, int) or not 1 <= value <= n:
            raise ValueError(f"chi({pair}) = {value} outside 1..{n}")
    for (a, b, cc) in required_edges(m, spec).sorted_edges:
        if chi[(a, b)] < chi[(b, cc)]:
            raise CertificationError(
                f"chi increases along required edge ({a},{b},{cc})",
                edge=(a, b, cc),
            )

    # Jumps are never consecutive, so the chord (v-1, v+1) of a jump v < w
    # ends by w-1: the graph on a prefix [k] is the pairs ending by k, and
    # low[k], the least color among them, is a prefix minimum.
    low = [n + 1] * (m + 1)
    for (_, b), value in chi.items():
        low[b] = min(low[b], value)
    low = list(accumulate(low, min))
    js = spec.sorted_jumps
    k = m
    for w in reversed(js):
        if w == js[0] or low[w - 1] == low[k]:
            break
        k = w - 1
    tri = x, y, z = (w - 1, w, w + 1)
    for pair in ((x, y), (y, z), (x, z)):
        if pair not in gh.pairs:
            raise RuntimeError(f"triangle pair {pair} not in graph; this is a bug")
    if not chi[(x, y)] == chi[(y, z)] == chi[(x, z)]:
        raise RuntimeError("triangle is not monochromatic; this is a bug")
    return tri
