"""Alpha tables, path witnesses, embeddings and the jump-member detector
against their brute-force twins."""

import random
from math import comb

import pytest

from jumpramsey import detect
from jumpramsey.construct import lift, pentagon_coloring
from jumpramsey.core import (
    Color,
    Embedding,
    OrderedTripleSystem,
    PairColoring,
    TripleColoring,
    all_pairs,
    all_triples,
)
from jumpramsey.detect import (
    JumpStates,
    _red_blocks,
    _rows,
    alpha_table,
    find_blue_embedding,
    find_blue_jump_member,
    longest_red_path,
    red_path,
)
from jumpramsey.family import jump_min, monotone_path, power_path
from oracles import (
    alpha_map,
    forward_red_path,
    longest_path,
    naive_alpha_values,
    naive_embedding,
    naive_fits,
    naive_jump_step,
    naive_member,
    naive_red_blocks,
    random_triples,
)


def red_at(N, density, rng):
    """A host whose triples are red each with the given probability."""
    return TripleColoring(N, sum(1 << r for r in range(comb(N, 3)) if rng.random() < density))


def test_alpha_table_on_random_hosts():
    rng = random.Random(23)
    for _ in range(40):
        N = rng.randint(3, 7)
        c = random_triples(N, rng)
        table = alpha_table(c)
        want = alpha_map(c)
        for (u, v), a in want.items():
            assert table.value(u, v) == a
        assert table.max_value == max(want.values())


def test_alpha_table_blue_target():
    rng = random.Random(29)
    for _ in range(20):
        c = random_triples(6, rng)
        table = alpha_table(c, Color.BLUE)
        want = alpha_map(c, Color.BLUE)
        for (u, v), a in want.items():
            assert table.value(u, v) == a


def test_decoded_reads_match_the_coloring():
    # N = 0..13 covers hosts with no triples, blocks with no triples and
    # rows of every width
    rng = random.Random(37)
    for N in range(14):
        hosts = [random_triples(N, rng) for _ in range(5)]
        hosts += [TripleColoring.all_red(N), TripleColoring.all_blue(N)]
        for c in hosts:
            for target in (Color.RED, Color.BLUE):
                row = _rows(_red_blocks(c, target))
                for a, b in all_pairs(N):
                    want = sum(1 << w for w in range(b + 1, N + 1)
                               if c.color(a, b, w) is target)
                    assert row(a, b) == want, (N, a, b, target)


def test_red_blocks_match_a_per_rank_cut():
    # the blocks cut at the row starts from one byte decoding, against one
    # bit per rank, on hosts with no triples, blocks with none and bytes
    # cut mid-row
    rng = random.Random(41)
    for N in list(range(14)) + [40, 85]:
        for c in (random_triples(N, rng), random_triples(N, rng),
                  TripleColoring.all_red(N), TripleColoring.all_blue(N)):
            red = naive_red_blocks(c)
            assert _red_blocks(c) == red, N
            assert _red_blocks(c, Color.RED) == red, N
            assert _red_blocks(c, Color.BLUE) == [~b for b in red], N


def test_jump_steps_match_the_walk_over_every_state():
    # each state alone, then seeded random masks, under all 8 conds; a
    # fresh JumpStates, so every step is computed, not read from the memo
    rng = random.Random(43)
    for n in range(7):
        states, width = JumpStates(n), 8 * (n + 1)
        masks = [1 << s for s in range(width)] + [rng.getrandbits(width) for _ in range(100)]
        for mask in masks + [0, (1 << width) - 1]:
            for cond in range(8):
                assert states.step(mask, cond) == naive_jump_step(n, mask, cond), (n, mask, cond)
        for spare in range(2 * n + 5):
            assert states.fits(spare) == naive_fits(n, spare), (n, spare)
        assert states.accept == sum(1 << 8 * n + f for f in range(0, 8, 2))


def random_lifts(seed, count):
    """Lifts of seeded random k-colorings of the pairs, N = 20..40, k = 2..4."""
    rng = random.Random(seed)
    for _ in range(count):
        N, k = rng.randint(20, 40), rng.randint(2, 4)
        yield lift(PairColoring(N, k, tuple(rng.randint(1, k) for _ in range(comb(N, 2)))))


def test_alpha_table_matches_pull_form_on_lifts():
    for c in random_lifts(71, 6):
        for target in (Color.RED, Color.BLUE):
            assert alpha_table(c, target).values == naive_alpha_values(c, target)
        depth, path = longest_red_path(c)
        assert depth == max(naive_alpha_values(c)) == len(path) - 1
        vs = path.vertices
        assert all(c.is_red(*vs[i:i + 3]) for i in range(len(vs) - 2))


def test_alpha_table_matches_pull_form_on_random_hosts():
    rng = random.Random(73)
    for N in (0, 1, 2, 3, 9, 16, 24):
        c = random_triples(N, rng)
        for target in (Color.RED, Color.BLUE):
            assert alpha_table(c, target).values == naive_alpha_values(c, target)


def test_alpha_extremes():
    c = TripleColoring.all_red(6)
    table = alpha_table(c)
    assert table.value(5, 6) == 5
    assert table.max_value == 5
    c = TripleColoring.all_blue(6)
    assert alpha_table(c).max_value == 1
    assert alpha_table(c, Color.BLUE).max_value == 5


def test_red_step_fact():
    # a red triple pushes the depth of its back pair strictly up
    rng = random.Random(31)
    for _ in range(200):
        N = rng.randint(4, 9)
        c = random_triples(N, rng)
        table = alpha_table(c)
        for (u, v, w) in all_triples(N):
            if c.is_red(u, v, w):
                assert table.value(v, w) >= table.value(u, v) + 1
            elif table.value(u, v) >= table.value(v, w):
                assert c.is_blue(u, v, w)


def test_longest_red_path_matches_oracle():
    rng = random.Random(37)
    for _ in range(60):
        N = rng.randint(4, 8)
        c = random_triples(N, rng)
        depth, emb = longest_red_path(c)
        want_depth, want_seq = longest_path(c)
        assert depth == want_depth
        assert emb.vertices == want_seq


def test_red_path_is_the_longest_red_path_witness_cut_to_m():
    # every m = 0..N+2 on N = 0..9: the cut witness exactly when m <= N
    # and depth >= m - 1, which is when the oracle finds a red path on m
    # vertices (any m <= 2 vertices of [N] are one)
    rng = random.Random(139)
    found = missing = 0
    for N in range(10):
        for _ in range(6):
            c = red_at(N, rng.uniform(0.2, 0.9), rng)
            depth, path = longest_red_path(c)
            longest = max(longest_path(c)[0] + 1, min(N, 2))
            for m in range(N + 3):
                got = red_path(c, m)
                if m <= N and depth >= m - 1:
                    assert got == Embedding(path.vertices[:m]), (N, m)
                    found += 1
                else:
                    assert got is None, (N, m)
                    missing += 1
                assert (got is not None) == (m <= longest), (N, m)
    assert found > 0 and missing > 0


def test_longest_red_path_matches_forward_table_on_lifts():
    for c in random_lifts(113, 8):
        depth, path = longest_red_path(c)
        assert (depth, path.vertices) == forward_red_path(c)


def test_longest_red_path_matches_forward_table_on_dense_red_hosts():
    # long paths on N = 10..30, where the least-embedding search for the
    # witness backtracks out of many dead ends
    rng = random.Random(131)
    depths = []
    for _ in range(40):
        c = red_at(rng.randint(10, 30), rng.uniform(0.6, 0.95), rng)
        depth, path = longest_red_path(c)
        assert (depth, path.vertices) == forward_red_path(c)
        depths.append(depth)
    assert max(depths) >= 20


# the searches below take one stack frame per position, 1,001 of them past
# the default recursion limit of 1,000 if a frame were a Python call
def test_find_blue_embedding_of_a_thousand_positions():
    emb = find_blue_embedding(TripleColoring.all_blue(1001), monotone_path(1001))
    assert emb.vertices == tuple(range(1, 1002))


def test_find_blue_jump_member_of_a_thousand_vertices():
    verts, spec = find_blue_jump_member(TripleColoring.all_blue(1001), 500)
    assert verts == tuple(range(1, 1002))
    assert spec.sorted_jumps == tuple(range(2, 1001, 2))


def test_longest_red_path_of_hundreds_of_vertices():
    N = 400
    depth, path = longest_red_path(TripleColoring.all_red(N))
    assert (depth, path.vertices) == (N - 1, tuple(range(1, N + 1)))


def test_longest_red_path_tiny_hosts():
    assert longest_red_path(TripleColoring(1, 0)) == (0, Embedding((1,)))
    depth, emb = longest_red_path(TripleColoring(2, 0))
    assert depth == 1 and emb.vertices == (1, 2)


def test_find_blue_embedding_matches_oracle():
    rng = random.Random(41)
    patterns = [
        monotone_path(4),
        monotone_path(5),
        power_path(6, 4),
        jump_min(2)[0],
        # no edge ends at positions 1-3: their candidates are the plain range
        OrderedTripleSystem(5, frozenset({(1, 2, 5), (2, 3, 4)})),
        power_path(4, 5),  # the complete system on [4]
        monotone_path(2),  # edgeless
    ]
    for _ in range(60):
        N = rng.randint(2, 8)  # m > N too
        c = random_triples(N, rng)
        for pattern in patterns:
            emb = find_blue_embedding(c, pattern)
            want = naive_embedding(c, pattern)
            if want is None:
                assert emb is None
            else:
                assert emb is not None and emb.vertices == want


def test_find_blue_embedding_edge_cases():
    c = TripleColoring.all_blue(5)
    assert find_blue_embedding(c, monotone_path(6)) is None
    empty = monotone_path(0)
    assert find_blue_embedding(c, empty).vertices == ()
    # edgeless pattern on two vertices embeds as the first two hosts
    assert find_blue_embedding(c, monotone_path(2)).vertices == (1, 2)


def test_a_host_with_no_blue_triple_holds_only_edgeless_patterns(monkeypatch):
    # an all-red host holds no jump-family member and no pattern with an
    # edge, as the oracles find; an edgeless pattern still embeds at the
    # start of the host.  On [300] both detectors answer without decoding
    # the host or searching it
    edgeless = (monotone_path(0), monotone_path(2), OrderedTripleSystem(3, frozenset()))
    patterns = edgeless + (monotone_path(3), power_path(4, 4), power_path(6, 5), jump_min(2)[0],
                           OrderedTripleSystem(5, {(1, 2, 5), (2, 3, 4)}))
    for N in range(9):
        c = TripleColoring.all_red(N)
        for n in (1, 2, 3):
            assert find_blue_jump_member(c, n) is None is naive_member(c, n), (N, n)
        for pattern in patterns:
            found, want = find_blue_embedding(c, pattern), naive_embedding(c, pattern)
            assert (None if found is None else found.vertices) == want, (N, pattern)
            assert (want is None) == (pattern not in edgeless or pattern.m > N), (N, pattern)
    c = TripleColoring.all_red(300)
    with monkeypatch.context() as patched:
        for name in ("_red_blocks", "_least_embedding"):
            patched.setattr(detect, name, None)
        for n in (1, 2, 149):
            assert find_blue_jump_member(c, n) is None
        for pattern in patterns[3:] + (monotone_path(300),):
            assert find_blue_embedding(c, pattern) is None
    assert find_blue_embedding(c, monotone_path(2)).vertices == (1, 2)


def test_find_blue_jump_member_exhaustive_small_host():
    for bits in range(1 << 10):
        c = TripleColoring(5, bits)
        for n in (1, 2):
            got = find_blue_jump_member(c, n)
            want = naive_member(c, n)
            if want is None:
                assert got is None
            else:
                verts, spec = got
                assert (verts, spec.sorted_jumps) == want


def test_find_blue_jump_member_random_hosts():
    rng = random.Random(43)
    for _ in range(120):
        N = rng.randint(5, 9)
        n = rng.randint(1, 2)
        c = random_triples(N, rng)
        got = find_blue_jump_member(c, n)
        want = naive_member(c, n)
        if want is None:
            assert got is None
        else:
            verts, spec = got
            assert (verts, spec.sorted_jumps) == want


def test_find_blue_jump_member_on_red_heavy_hosts():
    # members longer than 2n + 1, where several jump sets can fit the same
    # vertices and the flags must come out jumps earliest
    rng = random.Random(137)
    longer = 0
    for _ in range(80):
        n = rng.randint(1, 3)
        c = red_at(rng.randint(2 * n + 4, 11), rng.uniform(0.3, 0.6), rng)
        got = find_blue_jump_member(c, n)
        want = naive_member(c, n)
        if want is None:
            assert got is None
        else:
            verts, spec = got
            assert (verts, spec.sorted_jumps) == want
            longer += len(verts) > 2 * n + 1
    assert longer >= 10


def test_find_blue_jump_member_three_jumps():
    """n = 3 on hosts with a quarter of the triples red, N = 7..10."""
    rng = random.Random(97)
    found = 0
    for _ in range(150):
        N = rng.randint(7, 10)
        c = TripleColoring(N, rng.getrandbits(comb(N, 3)) & rng.getrandbits(comb(N, 3)))
        got = find_blue_jump_member(c, 3)
        want = naive_member(c, 3)
        if want is None:
            assert got is None
        else:
            found += 1
            verts, spec = got
            assert (verts, spec.sorted_jumps) == want
    assert 20 <= found <= 130


def test_member_on_all_blue_hosts():
    verts, spec = find_blue_jump_member(TripleColoring.all_blue(5), 2)
    assert verts == (1, 2, 3, 4, 5)
    assert spec.sorted_jumps == (2, 4)
    verts, spec = find_blue_jump_member(TripleColoring.all_blue(9), 2)
    assert verts == (1, 2, 3, 4, 5)
    assert spec.sorted_jumps == (2, 4)


def test_member_argument_checks():
    c = TripleColoring.all_blue(5)
    with pytest.raises(ValueError):
        find_blue_jump_member(c, 0)
    assert find_blue_jump_member(c, 3) is None  # needs 7 vertices


def test_pentagon_lift_defeats_both_detectors():
    c = lift(pentagon_coloring())
    depth, _ = longest_red_path(c)
    assert depth == 2
    assert find_blue_jump_member(c, 2) is None

