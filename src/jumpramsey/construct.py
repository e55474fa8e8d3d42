"""Pair-coloring constructions and the pair-to-triple lift.

The lift turns a k-coloring chi of the pairs of [N] into a red-blue triple
coloring: (u, v, w) is red exactly when chi(u, v) < chi(v, w).  A red
monotone path on m vertices then forces m-1 strictly increasing colors, so
lifts of k-colorings never contain a red path on k+2 vertices; the
triangle-free constructions below feed the blue side.  The lift works a
column at a time: one string per row (a, b, .) and colour chi(a, b), made
by one translate when the colours are below 256, and one lookup pass over
the colours of each vertex a's pairs.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import combinations
from operator import getitem

from .core import PairColoring, TripleColoring, pair_offsets, record


def lift(chi: PairColoring) -> TripleColoring:
    """Red where the pair colors strictly increase along the triple.

    A row of core.row_starts, the triples (a, b, c) for c = b+1..N, has
    marks that depend only on b and x = chi(a, b): '1' where x is below
    chi(b, c).  So each row is one string, built once per (b, x) on first
    use, and a vertex a's run of rows is looked up with one map over the
    colours of its pairs (a, a+1..N-1), a column at a time."""
    N, colors = chi.N, chi.colors
    row = pair_offsets(N)
    tails = [colors[row[b] + b + 1: row[b] + N + 1] for b in range(N)]
    if max(colors, default=0) < 256:
        tails = list(map(bytes, tails))
    rows = list(map(_MarkRows, tails))
    marks: list[str] = []
    for a in range(1, N - 1):
        marks += map(getitem, rows[a + 1:], colors[row[a] + a + 1: row[a] + N])
    return TripleColoring.from_bitstring(N, "".join(marks))


class _MarkRows(dict):
    """The mark rows (a, b, .) of the lift for one b, keyed by x = chi(a, b)
    and built on first lookup: '1' where x is below chi(b, c).  A tail of
    colours below 256 is held as bytes, and a row is then one translate."""

    __slots__ = ("tail",)

    def __init__(self, tail):
        super().__init__()
        self.tail = tail  # chi(b, c) for c = b+1..N

    def __missing__(self, x: int) -> str:
        tail = self.tail
        if isinstance(tail, bytes):
            marks = tail.translate(b"0" * (x + 1) + b"1" * (255 - x)).decode()
        else:
            marks = "".join("1" if x < y else "0" for y in tail)
        self[x] = marks
        return marks


def pentagon_coloring() -> PairColoring:
    """2-coloring of the pairs of [5]: cycle pairs 1, diagonals 2."""
    cycle = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    return PairColoring.from_function(
        5, 2, lambda u, v: 1 if (u, v) in cycle else 2
    )


# reduction polynomial x^4 + x + 1 as a bit mask
_GF16_MODULUS = 0b10011


def _gf16_log_table() -> dict[int, int]:
    log = {}
    p = 1
    for e in range(15):
        log[p] = e
        p <<= 1
        if p & 0b10000:
            p ^= _GF16_MODULUS
    return log


def gf16_coloring() -> PairColoring:
    """3-coloring of the pairs of [16] from the field with 16 elements.

    Vertex i stands for the polynomial with coefficient bits i-1; the color
    of {u, v} is the discrete log of their sum, taken modulo 3, shifted to
    1..3.  Addition of distinct elements never gives 0, so this is total.
    """
    log = _gf16_log_table()
    return PairColoring.from_function(
        16, 3, lambda u, v: log[(u - 1) ^ (v - 1)] % 3 + 1
    )


def schur_coloring(classes) -> PairColoring:
    """Difference coloring from a partition of 1..N-1.

    chi(u, v) is the index (1-based) of the class containing v - u.  When
    every class is sum-free the result has no monochromatic triangle.
    """
    classes = [frozenset(c) for c in classes]
    if not classes or any(not c for c in classes):
        raise ValueError("classes must be nonempty")
    owner: dict[int, int] = {}
    for i, cls in enumerate(classes, start=1):
        for d in cls:
            if d < 1:
                raise ValueError(f"difference {d} is not positive")
            if d in owner:
                raise ValueError(f"difference {d} appears in two classes")
            owner[d] = i
    N = max(owner) + 1
    for d in range(1, N):
        if d not in owner:
            raise ValueError(f"difference {d} is not covered")
    return PairColoring.from_function(N, len(classes), lambda u, v: owner[v - u])


def product_coloring(chi1: PairColoring, chi2: PairColoring) -> PairColoring:
    """Blocked product on N1*N2 vertices with k1+k2 colors.

    Vertex (a, b) maps to index (a-1)*N2 + b, so the block index is the
    major coordinate.  Pairs across blocks take chi1 on the block indices;
    pairs inside a block take chi2 shifted past chi1's palette.
    """
    N2 = chi2.N

    def paint(x, y):
        a, b = divmod(x - 1, N2)
        a2, b2 = divmod(y - 1, N2)
        if a != a2:
            return chi1.color(a + 1, a2 + 1)
        return chi1.k + chi2.color(b + 1, b2 + 1)

    return PairColoring.from_function(chi1.N * N2, chi1.k + chi2.k, paint)


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def paley_coloring(q: int) -> PairColoring:
    """Quadratic-residue 2-coloring of the pairs of [q] for a prime q = 4t+1.

    Vertex i stands for the residue i-1; color 1 marks pairs whose
    difference is a nonzero square.  The congruence makes -1 a square, so
    the color does not depend on orientation.
    """
    if not _is_prime(q) or q % 4 != 1:
        raise ValueError("q must be a prime congruent to 1 mod 4")
    squares = {(x * x) % q for x in range(1, q)}
    return PairColoring.from_function(
        q, 2, lambda u, v: 1 if (v - u) % q in squares else 2
    )


def has_mono_clique(chi: PairColoring, m: int) -> tuple[int, ...] | None:
    """Lexicographically least monochromatic m-clique, or None."""
    if m < 2:
        raise ValueError("clique size must be at least 2")
    for verts in combinations(range(1, chi.N + 1), m):
        c = chi.color(verts[0], verts[1])
        if all(
            chi.color(u, v) == c for u, v in combinations(verts, 2)
        ):
            return verts
    return None


@record
class KnownValue:
    """A recorded clique Ramsey value r(m; n) with its witness coloring."""

    value: int
    provenance: str
    witness: Callable[[], PairColoring]


def _two_vertex_one_color() -> PairColoring:
    return PairColoring(2, 1, (1,))


KNOWN_VALUES: dict[tuple[int, int], KnownValue] = {
    (3, 1): KnownValue(3, "re-verified here by exhaustion", _two_vertex_one_color),
    (3, 2): KnownValue(6, "re-verified here by exhaustion", pentagon_coloring),
    (3, 3): KnownValue(17, "classical; witness checked here", gf16_coloring),
    (4, 2): KnownValue(18, "classical; witness checked here", lambda: paley_coloring(17)),
}


def known_value(m: int, n: int) -> KnownValue:
    try:
        return KNOWN_VALUES[(m, n)]
    except KeyError:
        raise KeyError(f"no recorded value for r({m}; {n})") from None
