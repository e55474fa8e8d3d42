"""Shared primitives for ordered 3-uniform hypergraphs on [N].

Vertices are 1-based and triples are written (a, b, c) with a < b < c.
Triple ranks are 0-based positions in the lexicographic enumeration of all
C(N, 3) increasing triples; a red-blue triple coloring is stored as one bit
per rank (1 = red).  The ranks come in rows, one per pair in pair rank
order: row_starts states that layout, and every reader of it goes through
that table.  The text formats defined here are the interchange layer for
every command-line tool in the package.  A 'pairs' text in the canonical
layout, the one serialize_pair_coloring writes, is read a column at a
time; any other layout goes through the line scanner, which also gives
each error its line number.  The value classes of the package are made
by the record decorator defined here: frozen, compared and hashed by
their fields, as dataclass(frozen=True) makes them, but without the
source dataclass generates and compiles for each class at import.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import accumulate, combinations
from math import comb


class FormatError(ValueError):
    """Raised when a text input does not match one of the file formats."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class Color(Enum):
    RED = "red"
    BLUE = "blue"


def check_triple(a: int, b: int, c: int, m: int) -> None:
    """Reject anything that is not an increasing triple inside [m]."""
    if not (1 <= a < b < c <= m):
        raise ValueError(f"not an increasing triple in [{m}]: ({a}, {b}, {c})")


@lru_cache(maxsize=64)
def row_starts(N: int) -> tuple[int, ...]:
    """The triple-rank layout over [N]: entry p, for the pair (a, b) of
    pair rank p, is the rank of (a, b, b+1), and one trailing entry holds
    C(N, 3).  The triples (a, b, c), c = b+1..N, are consecutive in rank
    order and the rows follow pair order, so row p is exactly the ranks
    starts[p] .. starts[p + 1] - 1.  A pair (a, N) has an empty row, which
    shares its start with the next row."""
    return tuple(accumulate((N - b for _, b in all_pairs(N)), initial=0))


def lex_rank(triple: tuple[int, int, int], N: int) -> int:
    """0-based position of an increasing triple in lex order over [N]."""
    a, b, c = triple
    check_triple(a, b, c, N)
    return row_starts(N)[pair_offsets(N)[a] + b] + c - b - 1


def all_triples(N: int):
    """All increasing triples of [N] in lex-rank order."""
    return combinations(range(1, N + 1), 3)


def pair_rank(u: int, v: int, N: int) -> int:
    """0-based lex position of an increasing pair of [N]."""
    if not 1 <= u < v <= N:
        raise ValueError(f"not an increasing pair in [{N}]: ({u}, {v})")
    return pair_offsets(N)[u] + v


@lru_cache(maxsize=64)
def pair_offsets(N: int) -> tuple[int, ...]:
    """row[u] + v is pair_rank(u, v, N) for every increasing pair of [N]:
    the (u - 1) * N - u * (u - 1) // 2 pairs with a first vertex below u
    come before (u, u + 1)."""
    return tuple((u - 1) * N - u * (u - 1) // 2 - u - 1 for u in range(N + 1))


def all_pairs(N: int):
    return combinations(range(1, N + 1), 2)


def pair_lines(N: int, values) -> str:
    """One 'u v x' line per pair of [N] in lex order, x from the sequence
    values, each ending in a newline.  The lines of a vertex u are one
    template, made by one join of the "v " heads, and one '%' fills in
    their x, so no step is taken per pair in Python."""
    heads = [f"{v} " for v in range(N + 1)]
    row = pair_offsets(N)
    return "".join([
        (heads[u] + f"%s\n{u} ".join(heads[u + 1:]) + "%s\n")
        % tuple(values[row[u] + u + 1: row[u] + N + 1])
        for u in range(1, N)
    ])


def record(cls):
    """Make cls an immutable value class over its annotated fields.

    The fields are the class's own annotations in order; a class attribute
    of a field's name is its default.  The methods are those of
    dataclass(frozen=True): __init__ taking the fields positionally or by
    keyword and then calling __post_init__ if the class has one, __eq__
    and __hash__ over the tuple of fields, __repr__, and __match_args__.
    Assigning or deleting an attribute raises AttributeError.  The methods
    are closures over the field names, so decorating a class generates
    and compiles no source, which is most of what dataclass costs at
    import time.  A call with every field given positionally skips the
    argument binding.
    """
    name = cls.__qualname__
    fields = tuple(cls.__annotations__)
    n = len(fields)
    given = [f for f in fields if f in cls.__dict__]
    required = n - len(given)
    if given != list(fields[required:]):
        raise TypeError(f"{name}: a field without a default follows one with a default")
    defaults = tuple(cls.__dict__[f] for f in given)
    post_init = hasattr(cls, "__post_init__")
    set_field = object.__setattr__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            if len(args) > n:
                raise TypeError(f"{name}() takes {n} arguments but {len(args)} were given")
            args = list(args)
            for i in range(len(args), n):
                f = fields[i]
                if f in kwargs:
                    args.append(kwargs.pop(f))
                elif i >= required:
                    args.append(defaults[i - required])
                else:
                    raise TypeError(f"{name}() missing argument {f!r}")
            if kwargs:
                f = next(iter(kwargs))
                what = "multiple values for" if f in fields else "an unexpected keyword"
                raise TypeError(f"{name}() got {what} argument {f!r}")
        # object.__setattr__ bound once: each field then costs one call
        set_own = set_field.__get__(self)
        for f, a in zip(fields, args):
            set_own(f, a)
        # looked up at each call, so a patched __post_init__ is the one run
        if post_init:
            self.__post_init__()

    def values(self):
        return tuple([getattr(self, f) for f in fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        inner = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values(self)))
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to {name}.{attr}: records are immutable")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete {name}.{attr}: records are immutable")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{name}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = fields
    return cls


@record
class OrderedTripleSystem:
    """An ordered 3-uniform hypergraph: m vertices, a set of increasing triples."""

    m: int
    edges: frozenset[tuple[int, int, int]]

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("vertex count must be nonnegative")
        # a set or list of edges is stored frozen, so the pattern hashes
        object.__setattr__(self, "edges", frozenset(self.edges))
        for (a, b, c) in self.edges:
            check_triple(a, b, c, self.m)

    @property
    def sorted_edges(self) -> list[tuple[int, int, int]]:
        return sorted(self.edges)

    @property
    def width(self) -> int:
        """Largest span c - a over the edges, 0 when there are none."""
        return max((c - a for (a, _, c) in self.edges), default=0)


@record
class Embedding:
    """An order-preserving vertex map, recorded as its increasing image."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        vs = self.vertices
        if any(v < 1 for v in vs) or any(x >= y for x, y in zip(vs, vs[1:])):
            raise ValueError(f"embedding image must be strictly increasing: {vs}")

    def __len__(self) -> int:
        return len(self.vertices)

    def apply(self, position: int) -> int:
        """Host vertex for a 1-based pattern position."""
        return self.vertices[position - 1]


@record
class PairColoring:
    """A total coloring of the pairs of [N] with colors 1..k.

    Colors are stored in pair lex-rank order.
    """

    N: int
    k: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if self.N < 0 or self.k < 0:
            raise ValueError("N and k must be nonnegative")
        want = comb(self.N, 2)
        if len(self.colors) != want:
            raise ValueError(f"expected {want} pair colors, got {len(self.colors)}")
        colors, k = self.colors, self.k
        if colors and not (1 <= min(colors) and max(colors) <= k):
            bad = next(c for c in colors if not 1 <= c <= k)
            raise ValueError(f"color {bad} outside 1..{k}")

    @classmethod
    def from_function(cls, N: int, k: int, fn) -> "PairColoring":
        return cls(N, k, tuple(fn(u, v) for u, v in all_pairs(N)))

    def color(self, u: int, v: int) -> int:
        """Color of the unordered pair {u, v}."""
        if u == v:
            raise ValueError("pair endpoints must differ")
        if u > v:
            u, v = v, u
        return self.colors[pair_rank(u, v, self.N)]


@record
class TripleColoring:
    """A red-blue coloring of all triples of [N], one bit per lex rank (1 = red)."""

    N: int
    bits: int

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("N must be nonnegative")
        # no bound 1 << C(N, 3) is built: it takes 20 MB at N = 1001
        if not (self.bits >= 0 and self.bits.bit_length() <= comb(self.N, 3)):
            raise ValueError("bits outside the range for this N")

    @property
    def num_triples(self) -> int:
        return comb(self.N, 3)

    @classmethod
    def all_red(cls, N: int) -> "TripleColoring":
        return cls(N, (1 << comb(N, 3)) - 1)

    @classmethod
    def all_blue(cls, N: int) -> "TripleColoring":
        return cls(N, 0)

    @classmethod
    def from_function(cls, N: int, fn) -> "TripleColoring":
        """fn(a, b, c) -> Color, evaluated over all triples."""
        return cls.from_bitstring(N, "".join(
            "1" if fn(a, b, c) is Color.RED else "0" for a, b, c in all_triples(N)
        ))

    @classmethod
    def from_bitstring(cls, N: int, marks: str) -> "TripleColoring":
        """Inverse of bitstring: character r is '1' when rank r is red."""
        if len(marks) != comb(N, 3):
            raise ValueError(f"expected {comb(N, 3)} marks, got {len(marks)}")
        # int(..., 2) alone would also take spaces, '_', a sign, a '0b'
        # prefix and non-ASCII digits
        if not marks.isascii() or marks.encode().translate(None, b"01"):
            raise ValueError("marks must be '0' or '1'")
        return cls(N, int(marks[::-1] or "0", 2))

    def is_red_rank(self, rank: int) -> bool:
        if not 0 <= rank < self.num_triples:
            raise ValueError(f"rank {rank} out of range")
        return bool((self.bits >> rank) & 1)

    def is_red(self, a: int, b: int, c: int) -> bool:
        return self.is_red_rank(lex_rank((a, b, c), self.N))

    def is_blue(self, a: int, b: int, c: int) -> bool:
        return not self.is_red(a, b, c)

    def color(self, a: int, b: int, c: int) -> Color:
        return Color.RED if self.is_red(a, b, c) else Color.BLUE

    def bitstring(self) -> str:
        """One '0'/'1' mark per triple in rank order; the leading 1 that
        pins the width is dropped by the reversing slice."""
        return format(self.bits | 1 << self.num_triples, "b")[:0:-1]

    def restrict(self, M: int) -> "TripleColoring":
        """Induced coloring on the first M vertices."""
        if not 0 <= M <= self.N:
            raise ValueError(f"cannot restrict to [{M}]")
        marks, starts, row = self.bitstring(), row_starts(self.N), pair_offsets(self.N)
        # row (a, b) over [M] is the first M - b marks of its row over [N]
        return TripleColoring.from_bitstring(M, "".join([
            marks[starts[row[a] + b]:starts[row[a] + b] + M - b] for a, b in all_pairs(M)]))


@record
class Witness:
    """Contents of a witness file: vertices plus optional jumps and blocks."""

    vertices: tuple[int, ...]
    jumps: tuple[int, ...] | None = None
    blocks: tuple[int, ...] | None = None


def _lines(text: str) -> list[tuple[int, str]]:
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            out.append((no, line))
    return out


def _ints(tokens: list[str], line_no: int) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise FormatError(f"expected integers, got {tokens!r}", line_no) from None


def _header(text: str, word: str, *names: str) -> tuple[list[tuple[int, str]], list[int]]:
    """The nonblank lines of a text whose first line is 'word' followed by
    one nonnegative integer per name, and those integers."""
    lines = _lines(text)
    if not lines:
        raise FormatError("empty input")
    no, header = lines[0]
    tok = header.split()
    if len(tok) != 1 + len(names) or tok[0] != word:
        shape = " ".join((word,) + names)
        raise FormatError(f"expected '{shape}' header, got {header!r}", no)
    values = _ints(tok[1:], no)
    if any(x < 0 for x in values):
        raise FormatError(f"{' and '.join(names)} must be nonnegative", no)
    return lines, values


def parse_pair_coloring(text: str) -> PairColoring:
    """Read the 'pairs N k' format; entry order is free, totality is not.

    The canonical layout is read a column at a time; any other text, and
    every malformed one, goes to the line scanner, which reads it or
    raises the first error with its line number."""
    chi = _read_pair_columns(text)
    return chi if chi is not None else _scan_pair_coloring(text)


def _read_pair_columns(text: str) -> PairColoring | None:
    """The coloring of a text laid out exactly as serialize_pair_coloring
    writes it, colours aside, or None.  The body is split into tokens in
    bulk; rebuilding it from the colour column checks every line's u and v
    against lex pair order and its token count.  Each distinct colour token
    is converted once and the range checked with min and max over those."""
    head, _, body = text.partition("\n")
    tok = head.split(" ")
    if len(tok) != 3 or tok[0] != "pairs":
        return None
    try:
        N, k = int(tok[1]), int(tok[2])
    except ValueError:
        return None
    if N < 0 or k < 0 or head != f"pairs {N} {k}":
        return None
    want = comb(N, 2)
    cells = body.split()
    # the count comes first, so that a header's N sizes nothing
    if len(cells) != 3 * want:
        return None
    column = cells[2::3]
    if body != pair_lines(N, column):
        return None
    try:
        value = {token: int(token) for token in set(column)}
    except ValueError:
        return None
    if value and not (1 <= min(value.values()) and max(value.values()) <= k):
        return None
    return PairColoring(N, k, tuple(map(value.__getitem__, column)))


def _scan_pair_coloring(text: str) -> PairColoring:
    """The line scanner: any entry order and spacing, one line at a time.
    The colours go into a dict by pair, so that a header's N sizes
    nothing."""
    lines, (N, k) = _header(text, "pairs", "N", "k")
    colors = {}
    for no, line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"expected 'u v c', got {line!r}", no)
        try:
            u, v, c = map(int, parts)
        except ValueError:
            raise FormatError(f"expected integers, got {parts!r}", no) from None
        if not 1 <= u < v <= N:
            raise FormatError(f"({u}, {v}) is not an increasing pair in [{N}]", no)
        if not 1 <= c <= k:
            raise FormatError(f"color {c} outside 1..{k}", no)
        if (u, v) in colors:
            raise FormatError(f"duplicate entry for pair ({u}, {v})", no)
        colors[u, v] = c
    if len(colors) < comb(N, 2):
        # ranges, not all_pairs, whose combinations would hold all of [N]
        missing = next((u, v) for u in range(1, N) for v in range(u + 1, N + 1)
                       if (u, v) not in colors)
        raise FormatError(f"partial coloring: pair {missing} has no color")
    return PairColoring(N, k, tuple(map(colors.__getitem__, all_pairs(N))))


def serialize_pair_coloring(chi: PairColoring) -> str:
    return f"pairs {chi.N} {chi.k}\n" + pair_lines(chi.N, chi.colors)


def parse_triple_coloring(text: str) -> TripleColoring:
    """Read the 'triples N' format: a header and one bitstring line."""
    lines, (N,) = _header(text, "triples", "N")
    want = comb(N, 3)
    body = lines[1:]
    if want == 0:
        if body:
            raise FormatError("unexpected data after header", body[0][0])
        return TripleColoring(N, 0)
    if len(body) != 1:
        raise FormatError(f"expected exactly one bitstring line of length {want}")
    no, bitline = body[0]
    try:
        return TripleColoring.from_bitstring(N, bitline)
    except ValueError:
        raise FormatError(
            f"expected {want} characters over 0/1, got {len(bitline)}", no
        ) from None


def serialize_triple_coloring(c: TripleColoring) -> str:
    return f"triples {c.N}\n{c.bitstring()}\n"


def parse_pattern(text: str):
    """Read the 'pattern m' format.

    Returns (OrderedTripleSystem, jumps) where jumps is a tuple of jump
    positions when the optional trailing 'jumps ...' line is present,
    else None.
    """
    lines, (m,) = _header(text, "pattern", "m")
    edges: set[tuple[int, int, int]] = set()
    jumps: tuple[int, ...] | None = None
    for idx, (no, line) in enumerate(lines[1:], start=1):
        parts = line.split()
        if parts[0] == "jumps":
            if idx != len(lines) - 1:
                raise FormatError("'jumps' must be the final line", no)
            jumps = tuple(_ints(parts[1:], no))
            break
        if len(parts) != 3:
            raise FormatError(f"expected 'a b c' edge line, got {line!r}", no)
        a, b, c = _ints(parts, no)
        if not 1 <= a < b < c <= m:
            raise FormatError(f"({a}, {b}, {c}) is not an increasing triple in [{m}]", no)
        if (a, b, c) in edges:
            raise FormatError(f"duplicate edge ({a}, {b}, {c})", no)
        edges.add((a, b, c))
    return OrderedTripleSystem(m, frozenset(edges)), jumps


def serialize_pattern(pattern: OrderedTripleSystem, jumps=None) -> str:
    out = [f"pattern {pattern.m}"]
    for (a, b, c) in pattern.sorted_edges:
        out.append(f"{a} {b} {c}")
    if jumps is not None:
        out.append("jumps " + " ".join(str(j) for j in sorted(jumps)))
    return "\n".join(out) + "\n"


def parse_witness(text: str) -> Witness:
    """Read a witness file: 'witness' header, then vertices/jumps/blocks lines."""
    lines, _ = _header(text, "witness")
    fields: dict[str, tuple[int, ...]] = {}
    for no, line in lines[1:]:
        parts = line.split()
        key = parts[0]
        if key not in ("vertices", "jumps", "blocks"):
            raise FormatError(f"unknown witness field {key!r}", no)
        if key in fields:
            raise FormatError(f"duplicate field {key!r}", no)
        fields[key] = tuple(_ints(parts[1:], no))
    if "vertices" not in fields:
        raise FormatError("witness has no 'vertices' field")
    vs = fields["vertices"]
    if any(x >= y for x, y in zip(vs, vs[1:])):
        raise FormatError(f"vertices must be strictly increasing: {vs}")
    return Witness(vs, fields.get("jumps"), fields.get("blocks"))


def serialize_witness(w: Witness) -> str:
    out = ["witness", "vertices " + " ".join(str(v) for v in w.vertices)]
    if w.jumps is not None:
        out.append("jumps " + " ".join(str(j) for j in w.jumps))
    if w.blocks is not None:
        out.append("blocks " + " ".join(str(b) for b in w.blocks))
    return "\n".join(out) + "\n"
