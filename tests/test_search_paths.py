"""Red monotone path against blue monotone path: the grid red 3-5 x blue
3-6 x N 3-8, the larger sat levels, and the colour-swap skip.

Every status of the grid is the one an earlier triple walker found, and
agrees with R(P_m, P_n) = C(m + n - 4, m - 2) + 1 (Fox, Pach, Sudakov and
Suk, Proc. LMS 2012): the level N is sat exactly when N < R.  Each sat
witness is re-checked with the brute-force path oracle in both colours.
"""

import hashlib
from math import comb

import pytest

from jumpramsey import search
from jumpramsey.core import Color, TripleColoring
from jumpramsey.family import jump_min, monotone_path
from jumpramsey.search import AvoidanceProblem, SearchStats, decide
from oracles import longest_path, naive_decide

# (red m, blue m, N): (status, witness bitstring)
PATH_GRID = {
    (3, 3, 3): ('unsat', None),
    (3, 3, 4): ('unsat', None),
    (3, 3, 5): ('unsat', None),
    (3, 3, 6): ('unsat', None),
    (3, 3, 7): ('unsat', None),
    (3, 3, 8): ('unsat', None),
    (3, 4, 3): ('sat', '0'),
    (3, 4, 4): ('unsat', None),
    (3, 4, 5): ('unsat', None),
    (3, 4, 6): ('unsat', None),
    (3, 4, 7): ('unsat', None),
    (3, 4, 8): ('unsat', None),
    (3, 5, 3): ('sat', '0'),
    (3, 5, 4): ('sat', '0000'),
    (3, 5, 5): ('unsat', None),
    (3, 5, 6): ('unsat', None),
    (3, 5, 7): ('unsat', None),
    (3, 5, 8): ('unsat', None),
    (3, 6, 3): ('sat', '0'),
    (3, 6, 4): ('sat', '0000'),
    (3, 6, 5): ('sat', '0000000000'),
    (3, 6, 6): ('unsat', None),
    (3, 6, 7): ('unsat', None),
    (3, 6, 8): ('unsat', None),
    (4, 3, 3): ('sat', '1'),
    (4, 3, 4): ('unsat', None),
    (4, 3, 5): ('unsat', None),
    (4, 3, 6): ('unsat', None),
    (4, 3, 7): ('unsat', None),
    (4, 3, 8): ('unsat', None),
    (4, 4, 3): ('sat', '1'),
    (4, 4, 4): ('sat', '1000'),
    (4, 4, 5): ('sat', '1000010011'),
    (4, 4, 6): ('sat', '10000001110001111110'),
    (4, 4, 7): ('unsat', None),
    (4, 4, 8): ('unsat', None),
    (4, 5, 3): ('sat', '0'),
    (4, 5, 4): ('sat', '0000'),
    (4, 5, 5): ('sat', '0000010011'),
    (4, 5, 6): ('sat', '00000001110001111110'),
    (4, 5, 7): ('sat', '00000000011111100001111111111110000'),
    (4, 5, 8): ('sat', '00000000100111111100100100111111100111111110010000000001'),
    (4, 6, 3): ('sat', '0'),
    (4, 6, 4): ('sat', '0000'),
    (4, 6, 5): ('sat', '0000000000'),
    (4, 6, 6): ('sat', '00000000010000010011'),
    (4, 6, 7): ('sat', '00000000000011100000001110001111110'),
    (4, 6, 8): ('sat', '00000000000000011111100000000011111100001111111111110000'),
    (5, 3, 3): ('sat', '1'),
    (5, 3, 4): ('sat', '1111'),
    (5, 3, 5): ('unsat', None),
    (5, 3, 6): ('unsat', None),
    (5, 3, 7): ('unsat', None),
    (5, 3, 8): ('unsat', None),
    (5, 4, 3): ('sat', '0'),
    (5, 4, 4): ('sat', '0011'),
    (5, 4, 5): ('sat', '0001111110'),
    (5, 4, 6): ('sat', '00001111111111110011'),
    (5, 4, 7): ('sat', '00000111111111111111111110001111110'),
    (5, 4, 8): ('sat', '00000011111111111111111111111111111101001110011110010001'),
    (5, 5, 3): ('sat', '1'),
    (5, 5, 4): ('sat', '1000'),
    (5, 5, 5): ('sat', '1000000000'),
    (5, 5, 6): ('sat', '10000000010000010011'),
    (5, 5, 7): ('sat', '10000000000011100000001110001111110'),
    (5, 5, 8): ('sat', '10000000000000011111100000000011111100001111111111110000'),
    (5, 6, 3): ('sat', '0'),
    (5, 6, 4): ('sat', '0000'),
    (5, 6, 5): ('sat', '0000000000'),
    (5, 6, 6): ('sat', '00000000010000010011'),
    (5, 6, 7): ('sat', '00000000000011100000001110001111110'),
    (5, 6, 8): ('sat', '00000000000000011111100000000011111100001111111111110000'),
}


def check_paths(witness, red_m, blue_m):
    assert longest_path(witness, Color.RED)[0] < red_m - 1
    assert longest_path(witness, Color.BLUE)[0] < blue_m - 1


def test_path_grid_keeps_every_status_and_witness():
    for (red_m, blue_m, N), (status, bits) in PATH_GRID.items():
        out = decide(AvoidanceProblem(N, monotone_path(red_m), monotone_path(blue_m)),
                     budget=3_000_000)
        got = None if out.witness is None else out.witness.bitstring()
        assert (out.status, got) == (status, bits), (red_m, blue_m, N)
        assert (status == "sat") == (N < comb(red_m + blue_m - 4, red_m - 2) + 1)
        if status == "sat":
            check_paths(out.witness, red_m, blue_m)
    # the work shows in the counts: nodes, max-depth, blue hits
    stats = {key: decide(AvoidanceProblem(key[2], monotone_path(key[0]),
                                          monotone_path(key[1]))).stats
             for key in ((4, 4, 8), (4, 5, 8), (5, 4, 8))}
    assert stats == {(4, 4, 8): SearchStats(102, 16, 40), (4, 5, 8): SearchStats(78, 28, 26),
                     (5, 4, 8): SearchStats(94, 28, 45)}


# p4/p5 at N=9: sat after 854 pair assignments; the triple walker took
# 42,272 nodes with propagation and 1,453,716 with the pair lookahead alone
P4_P5_N9 = ("000000001010011111010011100101010011111010011100111111000011100100000000"
            "001110010001")


def test_p4_p5_n9_witness_avoids_both_paths():
    w = TripleColoring.from_bitstring(9, P4_P5_N9)
    out = decide(AvoidanceProblem(9, monotone_path(4), monotone_path(5)))
    assert out.witness == w
    assert out.stats == SearchStats(854, 36, 354)
    assert longest_path(w, Color.RED)[0] == 2 < 4 - 1
    assert longest_path(w, Color.BLUE)[0] == 3 < 5 - 1


def test_p5_p4_n9_is_sat():
    # 654 pair assignments; the triple walker took 41,929 nodes with
    # propagation and was inconclusive at 20M with the pair lookahead alone
    out = decide(AvoidanceProblem(9, monotone_path(5), monotone_path(4)))
    assert out.status == "sat"
    assert out.stats == SearchStats(654, 36, 358)
    digest = hashlib.sha256(out.witness.bitstring().encode()).hexdigest()
    assert digest == "e2eacee1bb4ea017959bc0c63e6a3d86b345cd564d06799f1c09c0675f016123"
    check_paths(out.witness, 5, 4)


# (red m, blue m, N): (nodes, witness sha256).  The triple walker took
# 79,429 and 42,294 nodes on the first two and left the last two, the last
# sat levels of p4/p5 and p5/p4, inconclusive at 3M; each of these takes
# well under a second
QUICK = {
    (4, 6, 10): (154, "1f2df6c1f55f9693068c88acc9bfd7d8b2c89c15e95a9d71ff7b2b55e8676856"),
    (5, 5, 10): (63, "e1b9b3a95559a6f832559940bc88b3da66507fc44037bd8a171c628b7fa56697"),
    (4, 5, 10): (23698, "c2566e215911fda304bbc6cbc65ea225e9cfe57256911dff9253083a622721a3"),
    (5, 4, 10): (51251, "5ef7218a29eddc580ab32758aebd3e79f9a428ed0d9015fcf2039a42d5faa7c4"),
}


@pytest.mark.parametrize("red_m, blue_m, N", list(QUICK))
def test_pair_walk_decides_the_quick_levels(red_m, blue_m, N):
    out = decide(AvoidanceProblem(N, monotone_path(red_m), monotone_path(blue_m)))
    assert out.status == "sat"
    digest = hashlib.sha256(out.witness.bitstring().encode()).hexdigest()
    assert (out.stats.nodes, digest) == QUICK[red_m, blue_m, N]
    check_paths(out.witness, red_m, blue_m)


class Unskipped(search._PairEngine):
    """The pair walk with value 1 allowed at every pair."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ones = [1] * self.total


@pytest.mark.parametrize("m", [3, 4, 5])
def test_colour_swap_skip_keeps_every_symmetric_status(monkeypatch, m):
    # alpha(2, 3) takes only the value 2 when the blue spec is the red path:
    # each symmetric level of the grid keeps the status of the walk that
    # tries value 1 there too, and of the brute force over every colouring
    # up to N=5; on these levels the skip adds no node
    problem_of = lambda N: AvoidanceProblem(N, monotone_path(m), monotone_path(m))
    skipped = {N: decide(problem_of(N)) for N in range(3, 9)}
    with monkeypatch.context() as plain:
        plain.setattr(search, "_PairEngine", Unskipped)
        unskipped = {N: decide(problem_of(N)) for N in range(3, 9)}
    for N, out in skipped.items():
        assert out.status == unskipped[N].status == PATH_GRID[m, m, N][0], N
        assert out.stats.nodes <= unskipped[N].stats.nodes, N
        if N <= 5:
            assert (naive_decide(N, m, "path", m) is not None) == (out.status == "sat"), N
    if m == 4:  # the unsat level N=7: 102 nodes with the skip, 182 without
        assert (skipped[7].stats.nodes, unskipped[7].stats.nodes) == (102, 182)


@pytest.mark.parametrize("blue", [monotone_path(3), jump_min(1)[0]], ids=["path:3", "jmin:1"])
def test_blue_one_edge_path_is_sat_below_the_red_length(blue):
    # every blue triple is a copy of the path on 3 vertices, which is
    # jump_min(1), so only the all-red colouring can avoid it: sat exactly
    # when N < red m.  Its table runs the detector, as a window table never
    # reports a copy on 3 vertices
    assert blue == monotone_path(3)
    for red_m in (3, 4, 5, 6):
        for N in range(2, 9):
            out = decide(AvoidanceProblem(N, monotone_path(red_m), blue))
            assert out.status == ("sat" if N < red_m else "unsat"), (red_m, N)
            if N <= 5:
                assert (naive_decide(N, red_m, "path", 3) is not None) == (N < red_m), (red_m, N)
            if out.status == "sat":
                assert out.witness == TripleColoring.all_red(N)
