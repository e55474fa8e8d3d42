"""Ranking, container and file-format tests for the core module."""

import random
import tracemalloc
from math import comb

import pytest

from jumpramsey import core
from jumpramsey.core import (
    Color,
    Embedding,
    FormatError,
    OrderedTripleSystem,
    PairColoring,
    TripleColoring,
    Witness,
    all_pairs,
    all_triples,
    lex_rank,
    pair_rank,
    parse_pair_coloring,
    parse_pattern,
    parse_triple_coloring,
    parse_witness,
    row_starts,
    serialize_pair_coloring,
    serialize_pattern,
    serialize_triple_coloring,
    serialize_witness,
)
from oracles import scan_pair_coloring


def test_lex_rank_counts_triples_in_lex_order_exhaustive():
    for N in range(3, 13):
        for i, t in enumerate(all_triples(N)):
            assert lex_rank(t, N) == i
        # an empty row (a, N) starts where the next row (a + 1, a + 2)
        # does; the rank before it ends the row (a, N - 1)
        starts = row_starts(N)
        for a in range(1, N - 1):
            p = pair_rank(a, N, N)
            assert starts[p] == starts[p + 1]
            assert lex_rank((a, N - 1, N), N) == starts[p] - 1
            if a < N - 2:
                assert lex_rank((a + 1, a + 2, a + 3), N) == starts[p]


def test_row_starts_hold_each_row_in_combinations_order():
    for N in range(13):
        starts, ranks = row_starts(N), {t: r for r, t in enumerate(all_triples(N))}
        assert len(starts) == comb(N, 2) + 1 and starts[-1] == comb(N, 3)
        for p, (a, b) in enumerate(all_pairs(N)):
            assert list(range(starts[p], starts[p + 1])) == [
                ranks[a, b, c] for c in range(b + 1, N + 1)]
    assert row_starts(9) is row_starts(9)


def test_lex_rank_small_values():
    assert lex_rank((1, 2, 3), 5) == 0
    assert lex_rank((1, 3, 4), 5) == 3
    assert lex_rank((3, 4, 5), 5) == 9


def test_pair_rank_matches_iteration_order():
    for N in range(2, 10):
        for i, (u, v) in enumerate(all_pairs(N)):
            assert pair_rank(u, v, N) == i


def test_triple_coloring_bit_conventions():
    c = TripleColoring.all_red(4)
    assert all(c.is_red(*t) for t in all_triples(4))
    c = TripleColoring.all_blue(4)
    assert all(c.is_blue(*t) for t in all_triples(4))
    c = TripleColoring.from_function(
        4, lambda a, b, cc: Color.RED if a == 1 else Color.BLUE
    )
    assert c.is_red(1, 2, 3)
    assert c.is_blue(2, 3, 4)
    assert c.color(1, 2, 4) is Color.RED


def test_triple_coloring_restrict_agrees_on_prefix():
    rng = random.Random(11)
    for _ in range(20):
        c = TripleColoring(7, rng.getrandbits(35))
        for M in (4, 5, 6):
            r = c.restrict(M)
            assert r.N == M
            for t in all_triples(M):
                assert r.is_red(*t) == c.is_red(*t)


def test_triple_text_at_zero_and_one_triple():
    pins = {
        (0, 0): "triples 0\n\n",
        (1, 0): "triples 1\n\n",
        (2, 0): "triples 2\n\n",
        (3, 0): "triples 3\n0\n",
        (3, 1): "triples 3\n1\n",
    }
    for (N, bits), text in pins.items():
        c = TripleColoring(N, bits)
        assert serialize_triple_coloring(c) == text
        assert parse_triple_coloring(text) == c
        assert serialize_triple_coloring(parse_triple_coloring(text)) == text
        assert TripleColoring.from_bitstring(N, c.bitstring()) == c
        assert c.restrict(N) == c
    for N in range(4):
        assert TripleColoring.from_function(N, lambda a, b, cc: Color.RED) == (
            TripleColoring.all_red(N)
        )
        assert TripleColoring.from_function(N, lambda a, b, cc: Color.BLUE) == (
            TripleColoring.all_blue(N)
        )


def test_triple_bits_range_boundary():
    # every bit of the C(N, 3) triples may be set, and nothing beyond them
    for N in range(7):
        C = comb(N, 3)
        assert TripleColoring(N, (1 << C) - 1) == TripleColoring.all_red(N)
        for bits in (1 << C, -1):
            with pytest.raises(ValueError, match="bits outside the range"):
                TripleColoring(N, bits)


def test_triple_text_puts_rank_zero_first():
    rng = random.Random(13)
    for N in (4, 9, 30):
        c = TripleColoring(N, rng.getrandbits(comb(N, 3)))
        marks = c.bitstring()
        assert marks == "".join(
            "1" if c.is_red(*t) else "0" for t in all_triples(N)
        )
        assert serialize_triple_coloring(c) == f"triples {N}\n{marks}\n"
        assert TripleColoring.from_bitstring(N, marks) == c
        assert TripleColoring.from_function(N, c.color) == c
    with pytest.raises(ValueError):
        TripleColoring.from_bitstring(4, "101")


def test_pair_coloring_roundtrip():
    rng = random.Random(5)
    for N, k in ((5, 2), (7, 3), (2, 1)):
        chi = PairColoring.from_function(N, k, lambda u, v: rng.randint(1, k))
        again = parse_pair_coloring(serialize_pair_coloring(chi))
        assert again == chi


def test_pair_coloring_parse_accepts_any_entry_order():
    text = "pairs 3 2\n2 3 1\n1 3 2\n1 2 1\n"
    chi = parse_pair_coloring(text)
    assert chi.color(1, 2) == 1
    assert chi.color(1, 3) == 2
    assert chi.color(2, 3) == 1


def test_pair_coloring_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError) as exc:
        parse_pair_coloring("pairs 3 2\n1 2 1\n1 2 2\n2 3 1\n1 3 1\n")
    assert "duplicate" in str(exc.value)
    assert exc.value.line_no == 3
    with pytest.raises(FormatError) as exc:
        parse_pair_coloring("pairs 3 2\n1 2 9\n")
    assert exc.value.line_no == 2
    with pytest.raises(FormatError) as exc:
        parse_pair_coloring("pairs 3 2\n1 2 1\n")
    assert "partial" in str(exc.value)
    with pytest.raises(FormatError):
        parse_pair_coloring("")
    with pytest.raises(FormatError) as exc:
        parse_pair_coloring("coloring 3 2\n")
    assert exc.value.line_no == 1


# malformed pair texts and the exact error each gives: a duplicate in a text
# with a line per pair and in a shorter one, a missing pair, a pair out of
# range or not increasing, a colour out of range, a wrong token count
PAIR_TEXT_ERRORS = [
    ("pairs 3 2\n1 2 1\n1 2 2\n2 3 1\n", "line 3: duplicate entry for pair (1, 2)"),
    ("pairs 3 2\n1 2 1\n1 3 1\n2 3 1\n1 2 1\n", "line 5: duplicate entry for pair (1, 2)"),
    ("pairs 4 2\n1 2 1\n1 2 2\n", "line 3: duplicate entry for pair (1, 2)"),
    ("pairs 4 2\n1 2 1\n1 3 1\n1 4 1\n2 3 1\n3 4 1\n",
     "partial coloring: pair (2, 4) has no color"),
    ("pairs 2 1\n", "partial coloring: pair (1, 2) has no color"),
    ("pairs 3 2\n1 2 1\n2 4 1\n1 3 1\n", "line 3: (2, 4) is not an increasing pair in [3]"),
    ("pairs 3 2\n3 2 1\n", "line 2: (3, 2) is not an increasing pair in [3]"),
    ("pairs 3 2\n1 2 1\n1 3 3\n2 3 1\n", "line 3: color 3 outside 1..2"),
    ("pairs 3 2\n1 2 0\n", "line 2: color 0 outside 1..2"),
    ("pairs 3 2\n1 2\n", "line 2: expected 'u v c', got '1 2'"),
    ("pairs 3 2\n1 2 1 1\n1 3 1\n2 3 1\n", "line 2: expected 'u v c', got '1 2 1 1'"),
    # the token count of the body is right, but not each line's
    ("pairs 3 2\n1 2 1 1\n3 1\n2 3 1\n", "line 2: expected 'u v c', got '1 2 1 1'"),
]


@pytest.mark.parametrize("text, message", PAIR_TEXT_ERRORS)
def test_pair_coloring_parse_error_messages(text, message):
    with pytest.raises(FormatError) as exc:
        parse_pair_coloring(text)
    assert str(exc.value) == message


# malformed headers of each format, one header reader for all four: the
# text may be empty, name the wrong format, have the wrong token count, a
# negative or non-integer size, or start after blank lines
HEADER_TEXT_ERRORS = [
    (parse_pair_coloring, "", "empty input"),
    (parse_pair_coloring, "pairs 3\n", "line 1: expected 'pairs N k' header, got 'pairs 3'"),
    (parse_pair_coloring, "pairs -1 2\n", "line 1: N and k must be nonnegative"),
    (parse_pair_coloring, "\n\ncoloring 3 2\n",
     "line 3: expected 'pairs N k' header, got 'coloring 3 2'"),
    (parse_triple_coloring, "  \n", "empty input"),
    (parse_triple_coloring, "triples\n", "line 1: expected 'triples N' header, got 'triples'"),
    (parse_triple_coloring, "triples 3 1\n",
     "line 1: expected 'triples N' header, got 'triples 3 1'"),
    (parse_triple_coloring, "Triples 3\n", "line 1: expected 'triples N' header, got 'Triples 3'"),
    (parse_triple_coloring, "triples -2\n", "line 1: N must be nonnegative"),
    (parse_triple_coloring, "triples x\n", "line 1: expected integers, got ['x']"),
    (parse_pattern, "", "empty input"),
    (parse_pattern, "pattern 3 3\n", "line 1: expected 'pattern m' header, got 'pattern 3 3'"),
    (parse_pattern, "patterns 3\n", "line 1: expected 'pattern m' header, got 'patterns 3'"),
    (parse_pattern, "pattern -1\n", "line 1: m must be nonnegative"),
    (parse_pattern, "\npattern 2.5\n", "line 2: expected integers, got ['2.5']"),
    (parse_witness, "\n", "empty input"),
    (parse_witness, "witness 3\n", "line 1: expected 'witness' header, got 'witness 3'"),
    (parse_witness, "Witness\n", "line 1: expected 'witness' header, got 'Witness'"),
    (parse_witness, "vertices 1 2\n", "line 1: expected 'witness' header, got 'vertices 1 2'"),
    (parse_witness, "\n\nwitness extra\nvertices 1\n",
     "line 3: expected 'witness' header, got 'witness extra'"),
]


@pytest.mark.parametrize("parse, text, message", HEADER_TEXT_ERRORS)
def test_header_parse_error_messages(parse, text, message):
    with pytest.raises(FormatError) as exc:
        parse(text)
    assert str(exc.value) == message


def _outcome(parse, text):
    try:
        return parse(text)
    except FormatError as exc:
        return str(exc), exc.line_no


def _pair_text(rng):
    """A seeded 'pairs' text: canonical, in another layout or order, with
    other integer spellings, or broken in one of the ways the scanner
    reports."""
    N, k = rng.randint(0, 6), rng.randint(0, 4)
    rows = [[str(u), str(v), str(rng.randint(1, max(k, 1)))]
            for u, v in all_pairs(N)]
    head = ["pairs", str(N), str(k)]
    shape = rng.choice(["canonical"] * 4 + ["layout", "broken", "both"])
    if shape in ("broken", "both"):
        cut = rng.choice(["drop", "dup", "swap", "color", "vertex", "extra",
                          "short", "balance", "word", "header"])
        i = rng.randrange(len(rows)) if rows else None
        if cut == "header":
            head[rng.randint(1, 2)] = str(max(0, int(head[1]) + rng.choice((-1, 1))))
        elif cut == "word":
            (rows[i] if rows else head)[-1] = rng.choice(["x", "1.0", "", "1e0", "-"])
        elif rows and cut == "drop":
            del rows[i]
        elif rows and cut == "dup":
            rows.insert(rng.randrange(len(rows) + 1), list(rows[i]))
        elif rows and cut == "swap":
            rows[i][:2] = rows[i][1::-1]
        elif rows and cut == "color":
            rows[i][2] = str(rng.choice([0, k + 1, -1]))
        elif rows and cut == "vertex":
            rows[i][rng.randint(0, 1)] = str(rng.choice([0, N + 1]))
        elif rows and cut == "extra":
            rows[i].append(rng.choice(["1", "x"]))
        elif rows and cut == "short":
            rows[i].pop(rng.randrange(3))
        elif len(rows) > 1 and cut == "balance":
            j = rng.randrange(len(rows) - 1)
            rows[j + 1].insert(0, rows[j].pop())
    if shape == "canonical" or (shape == "broken" and rng.random() < 0.7):
        return "\n".join(" ".join(r) for r in [head] + rows) + "\n"
    if rng.random() < 0.5:
        rng.shuffle(rows)
    for r in rows:
        for t in range(3 if len(r) == 3 else 0):
            if rng.random() < 0.1:
                r[t] = rng.choice(["+", "0", "00"]) + r[t]
    lines = [rng.choice([" ", "\t", "  ", " \t "]).join(r) for r in [head] + rows]
    out = []
    for line in lines:
        while rng.random() < 0.15:
            out.append(rng.choice(["", " ", "\t"]))
        out.append(rng.choice(["", " ", "\t"]) * (rng.random() < 0.2) + line)
    return rng.choice(["\n", "\r\n"]).join(out) + rng.choice(["\n", "\r\n", "", "\n\n"])


def test_pair_reader_matches_the_line_scanner():
    # the column reader's result, or its exact error, is the scanner's; it
    # returns a coloring only where the scanner reads the same one
    rng = random.Random(1601)
    read = 0
    for _ in range(3000):
        text = _pair_text(rng)
        want = _outcome(scan_pair_coloring, text)
        assert _outcome(parse_pair_coloring, text) == want, text
        chi = core._read_pair_columns(text)
        if chi is not None:
            assert chi == want, text
            read += 1
    assert read > 1000


@pytest.mark.parametrize("text", [text for text, _ in PAIR_TEXT_ERRORS] + [
    text for parse, text, _ in HEADER_TEXT_ERRORS if parse is parse_pair_coloring])
def test_pair_text_errors_match_the_line_scanner(text):
    assert _outcome(scan_pair_coloring, text) == _outcome(parse_pair_coloring, text)
    assert core._read_pair_columns(text) is None


def test_pair_reader_takes_other_spellings_and_layouts():
    want = PairColoring(3, 2, (1, 2, 1))
    for text in ["pairs 3 2\n1 2 1\n1 3 2\n2 3 1\n",
                 "pairs 3 2\n1 2 +1\n1 3 02\n2 3 1\n",
                 "pairs 3 2\r\n1 2 1\r\n1 3 2\r\n2 3 1\r\n",
                 "pairs 3 2\n\n2 3 1\n1\t3  2\n 1 2 1 \n",
                 "pairs 03 2\n1 2 1\n1 3 2\n2 3 1"]:
        assert parse_pair_coloring(text) == want == scan_pair_coloring(text), text
    # only the layout the writer makes is read a column at a time
    assert core._read_pair_columns("pairs 3 2\n1 2 1\n1 3 2\n2 3 1\n") == want
    assert core._read_pair_columns("pairs 3 2\n1 2 1\n1 3 2\n2 3 1") is None


def test_pair_coloring_checks_its_colour_range():
    with pytest.raises(ValueError, match="^color 0 outside 1..2$"):
        PairColoring(3, 2, (1, 0, 3))
    with pytest.raises(ValueError, match="^color 3 outside 1..2$"):
        PairColoring(3, 2, (1, 3, 0))
    assert PairColoring(3, 2, (2, 1, 2)).colors == (2, 1, 2)
    assert PairColoring(1, 0, ()).colors == ()


def test_from_bitstring_takes_only_zeros_and_ones():
    # int(..., 2) alone skips spaces and '_' and reads other digits
    for marks in (" 101", "1_01", "10 1", "1201", "+101", "11b0", "\u0661010", "\ud800101"):
        with pytest.raises(ValueError, match="marks must be '0' or '1'"):
            TripleColoring.from_bitstring(4, marks)
    assert TripleColoring.from_bitstring(4, "1010").bits == 0b0101
    with pytest.raises(FormatError) as exc:
        parse_triple_coloring("triples 4\n1_01\n")
    assert str(exc.value) == "line 2: expected 4 characters over 0/1, got 4"


def test_pair_coloring_header_alone_sizes_nothing():
    # a partial text is reported from its lines: a header N of 3000 must
    # not build a table of its 4.5M pairs, and one of 100,000 no table of
    # its vertices either
    for N in (3000, 100_000):
        tracemalloc.start()
        try:
            with pytest.raises(FormatError) as exc:
                parse_pair_coloring(f"pairs {N} 2\n1 2 1\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == "partial coloring: pair (1, 3) has no color"
        assert peak < 1 << 20, N


def test_triple_coloring_roundtrip():
    rng = random.Random(7)
    for N in (0, 1, 2, 3, 5, 7):
        bits = rng.getrandbits(TripleColoring.all_red(N).num_triples)
        c = TripleColoring(N, bits)
        assert parse_triple_coloring(serialize_triple_coloring(c)) == c


def test_triple_coloring_parse_errors():
    with pytest.raises(FormatError) as exc:
        parse_triple_coloring("triples 5\n0101\n")
    assert "10" in str(exc.value)
    with pytest.raises(FormatError):
        parse_triple_coloring("triples 5\n01012010x1\n")
    with pytest.raises(FormatError) as exc:
        parse_triple_coloring("triples 2\nleftover\n")
    assert exc.value.line_no == 2


def test_pattern_roundtrip_with_and_without_jumps():
    pat = OrderedTripleSystem(5, frozenset({(1, 2, 3), (2, 3, 4), (1, 3, 5)}))
    text = serialize_pattern(pat)
    again, jumps = parse_pattern(text)
    assert again == pat and jumps is None
    text = serialize_pattern(pat, (4, 2))
    again, jumps = parse_pattern(text)
    assert again == pat and jumps == (2, 4)


def test_pattern_parse_errors():
    with pytest.raises(FormatError) as exc:
        parse_pattern("pattern 4\n1 2 5\n")
    assert exc.value.line_no == 2
    with pytest.raises(FormatError):
        parse_pattern("pattern 4\n1 2 3\njumps 2\n1 2 4\n")
    with pytest.raises(FormatError):
        parse_pattern("pattern 4\n1 2 3\n1 2 3\n")


def test_witness_roundtrip():
    w = Witness((2, 4, 6, 8, 9), jumps=(2, 4), blocks=None)
    assert parse_witness(serialize_witness(w)) == w
    w = Witness((1, 3, 5), blocks=(2,))
    assert parse_witness(serialize_witness(w)) == w
    with pytest.raises(FormatError):
        parse_witness("witness\nvertices 3 2 1\n")
    with pytest.raises(FormatError):
        parse_witness("witness\njumps 2\n")


def test_ordered_triple_system_width():
    assert OrderedTripleSystem(6, frozenset({(1, 2, 3), (2, 4, 6)})).width == 4
    assert OrderedTripleSystem(4, frozenset()).width == 0
    with pytest.raises(ValueError):
        OrderedTripleSystem(3, frozenset({(1, 3, 2)}))


def test_embedding_applies_positions():
    e = Embedding((3, 5, 8))
    assert len(e) == 3
    assert e.apply(2) == 5
    with pytest.raises(ValueError):
        Embedding((3, 3, 8))
