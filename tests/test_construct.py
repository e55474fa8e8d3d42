"""Colorings, the lift, and the recorded clique Ramsey values."""

import random
from itertools import product
from math import comb

import pytest

from jumpramsey.construct import (
    KNOWN_VALUES,
    gf16_coloring,
    has_mono_clique,
    known_value,
    lift,
    paley_coloring,
    pentagon_coloring,
    product_coloring,
    schur_coloring,
)
from jumpramsey.core import (
    PairColoring,
    TripleColoring,
    all_triples,
    parse_pair_coloring,
    parse_triple_coloring,
    serialize_pair_coloring,
    serialize_triple_coloring,
)
from jumpramsey.detect import find_blue_jump_member, longest_red_path


def random_pairs(N, k, rng):
    return PairColoring.from_function(N, k, lambda u, v: rng.randint(1, k))


def test_lift_rule_triple_by_triple():
    rng = random.Random(3)
    for _ in range(10):
        chi = random_pairs(7, 3, rng)
        c = lift(chi)
        for (u, v, w) in all_triples(7):
            assert c.is_red(u, v, w) == (chi.color(u, v) < chi.color(v, w))


def test_pentagon_is_triangle_free():
    chi = pentagon_coloring()
    assert chi.N == 5 and chi.k == 2
    assert set(chi.colors) == {1, 2}
    assert has_mono_clique(chi, 3) is None


def test_gf16_is_triangle_free():
    chi = gf16_coloring()
    assert chi.N == 16 and chi.k == 3
    assert has_mono_clique(chi, 3) is None


def test_schur_default_is_triangle_free():
    chi = schur_coloring([{1, 4, 10, 13}, {2, 3, 11, 12}, {5, 6, 7, 8, 9}])
    assert chi.N == 14 and chi.k == 3
    assert has_mono_clique(chi, 3) is None


def test_schur_rejects_bad_partitions():
    with pytest.raises(ValueError):
        schur_coloring([{1, 2}, {2, 3}])
    with pytest.raises(ValueError):
        schur_coloring([{1, 3}])  # difference 2 uncovered
    with pytest.raises(ValueError):
        schur_coloring([])
    with pytest.raises(ValueError):
        schur_coloring([{0, 1}])


def test_product_of_pentagons():
    chi = product_coloring(pentagon_coloring(), pentagon_coloring())
    assert chi.N == 25 and chi.k == 4
    assert has_mono_clique(chi, 3) is None


def test_product_color_layout():
    chi1 = pentagon_coloring()
    chi = product_coloring(chi1, chi1)
    # inside block 1, colors are chi1 shifted by 2; across blocks, raw chi1
    assert chi.color(1, 2) == 2 + chi1.color(1, 2)
    assert chi.color(1, 6) == chi1.color(1, 2)
    assert chi.color(3, 11) == chi1.color(1, 3)


def test_paley_17_has_no_mono_k4():
    chi = paley_coloring(17)
    assert chi.N == 17 and chi.k == 2
    assert has_mono_clique(chi, 4) is None
    # but it is not triangle-free
    assert has_mono_clique(chi, 3) is not None


def test_paley_rejects_bad_moduli():
    for q in (15, 7, 4, 1):
        with pytest.raises(ValueError):
            paley_coloring(q)


def test_has_mono_clique_finds_planted():
    rng = random.Random(9)
    chi = random_pairs(8, 5, rng)
    colors = list(chi.colors)
    from jumpramsey.core import pair_rank

    for pair in ((2, 5), (5, 7), (2, 7)):
        colors[pair_rank(*pair, 8)] = 5
    planted = PairColoring(8, 5, tuple(colors))
    found = has_mono_clique(planted, 3)
    assert found is not None
    a, b, c = found
    assert planted.color(a, b) == planted.color(b, c) == planted.color(a, c)
    with pytest.raises(ValueError):
        has_mono_clique(chi, 1)


def lifted_by_rule(chi):
    """The lift's bit line straight from its definition."""
    return "".join(
        "1" if chi.color(u, v) < chi.color(v, w) else "0"
        for (u, v, w) in all_triples(chi.N)
    )


def test_lift_text_at_the_edges():
    for N in range(4):
        for colors in product((1, 2), repeat=comb(N, 2)):
            chi = PairColoring(N, 2, colors)
            text = serialize_triple_coloring(lift(chi))
            assert text == f"triples {N}\n{lifted_by_rule(chi)}\n"
            assert serialize_triple_coloring(parse_triple_coloring(text)) == text


def test_lift_text_on_paley17_times_pentagon():
    chi = product_coloring(paley_coloring(17), pentagon_coloring())
    c = lift(chi)
    text = serialize_triple_coloring(c)
    assert text == f"triples 85\n{lifted_by_rule(chi)}\n"
    assert parse_triple_coloring(text) == c
    assert serialize_triple_coloring(parse_triple_coloring(text)) == text
    assert TripleColoring.from_function(85, c.color) == c
    # the first 60 vertices carry the lift of the first 60 of chi
    head = PairColoring.from_function(60, chi.k, chi.color)
    assert c.restrict(60) == lift(head)


def seeded_colorings(rng):
    """Pair colorings at the lift's edge cases: one colour, more colours
    than vertices, palettes with unused colours, colours past one byte,
    and N <= 3."""
    for N in range(9):
        for k in (1, 2, N + 3, 300):
            palette = list(range(1, k + 1))
            if k > 2:
                # leave some colours unused; past 255 the rows are not bytes
                palette = rng.sample(palette, rng.randint(1, min(k, 6)))
            for _ in range(3 if N > 3 else 6):
                colors = tuple(rng.choice(palette) for _ in range(comb(N, 2)))
                yield PairColoring(N, k, colors)


def test_lift_matches_its_definition_on_seeded_colorings():
    rng = random.Random(1602)
    seen = 0
    for chi in seeded_colorings(rng):
        assert lift(chi).bitstring() == lifted_by_rule(chi), chi
        text = serialize_pair_coloring(chi)
        assert parse_pair_coloring(text) == chi
        assert serialize_pair_coloring(parse_pair_coloring(text)) == text
        seen += max(chi.colors, default=0) > 255
    assert seen > 0


def test_lift_never_builds_deep_red_paths():
    rng = random.Random(17)
    for _ in range(24):
        N = rng.randint(4, 12)
        k = rng.randint(1, 4)
        chi = random_pairs(N, k, rng)
        depth, path = longest_red_path(lift(chi))
        assert depth <= k
        assert len(path.vertices) == depth + 1


def test_triangle_free_lifts_have_no_blue_member():
    cases = [
        (pentagon_coloring(), 2),
        (gf16_coloring(), 3),
        (schur_coloring([{1, 4, 10, 13}, {2, 3, 11, 12}, {5, 6, 7, 8, 9}]), 3),
        (product_coloring(pentagon_coloring(), pentagon_coloring()), 4),
    ]
    for chi, n in cases:
        assert find_blue_jump_member(lift(chi), n) is None


def test_known_values_registry():
    assert known_value(3, 2).value == 6
    assert known_value(3, 3).value == 17
    assert known_value(4, 2).value == 18
    with pytest.raises(KeyError):
        known_value(5, 5)
    for (m, n), kv in KNOWN_VALUES.items():
        chi = kv.witness()
        assert chi.N == kv.value - 1
        assert chi.k == n
        assert has_mono_clique(chi, m) is None
