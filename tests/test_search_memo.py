"""The failed-frontier memo of the path/path engine.

Pruning failed subtrees must not move any status or witness, so the grid
below was decided by the engine before it had a memo (budget 3M nodes);
the two instances that engine left inconclusive are pinned at what the
memo decides, and the sat witness among them is re-checked against the
brute-force path oracle.
"""

import hashlib

import pytest

from jumpramsey import search
from jumpramsey.core import Color, TripleColoring
from jumpramsey.family import monotone_path
from jumpramsey.search import AvoidanceProblem, SearchStats, decide
from oracles import longest_path

# (red m, blue m, N): (status, witness bitstring)
PINNED = {
    (3, 3, 3): ("unsat", None),
    (3, 3, 4): ("unsat", None),
    (3, 3, 5): ("unsat", None),
    (3, 3, 6): ("unsat", None),
    (3, 3, 7): ("unsat", None),
    (3, 3, 8): ("unsat", None),
    (3, 4, 3): ("sat", "0"),
    (3, 4, 4): ("unsat", None),
    (3, 4, 5): ("unsat", None),
    (3, 4, 6): ("unsat", None),
    (3, 4, 7): ("unsat", None),
    (3, 4, 8): ("unsat", None),
    (3, 5, 3): ("sat", "0"),
    (3, 5, 4): ("sat", "0000"),
    (3, 5, 5): ("unsat", None),
    (3, 5, 6): ("unsat", None),
    (3, 5, 7): ("unsat", None),
    (3, 5, 8): ("unsat", None),
    (3, 6, 3): ("sat", "0"),
    (3, 6, 4): ("sat", "0000"),
    (3, 6, 5): ("sat", "0000000000"),
    (3, 6, 6): ("unsat", None),
    (3, 6, 7): ("unsat", None),
    (3, 6, 8): ("unsat", None),
    (4, 3, 3): ("sat", "1"),
    (4, 3, 4): ("unsat", None),
    (4, 3, 5): ("unsat", None),
    (4, 3, 6): ("unsat", None),
    (4, 3, 7): ("unsat", None),
    (4, 3, 8): ("unsat", None),
    (4, 4, 3): ("sat", "1"),
    (4, 4, 4): ("sat", "1110"),
    (4, 4, 5): ("sat", "1110110001"),
    (4, 4, 6): ("sat", "10110011110001101110"),
    (4, 4, 7): ("unsat", None),
    # over 3M nodes without the memo
    (4, 4, 8): ("unsat", None),
    (4, 5, 3): ("sat", "1"),
    (4, 5, 4): ("sat", "1110"),
    (4, 5, 5): ("sat", "1111110000"),
    (4, 5, 6): ("sat", "11111110110000000001"),
    (4, 5, 7): ("sat", "11111101100111100000000000001101110"),
    (4, 5, 8): ("sat", "11111101011101100111100000000000000010110001100001101110"),
    (4, 6, 3): ("sat", "1"),
    (4, 6, 4): ("sat", "1110"),
    (4, 6, 5): ("sat", "1111110000"),
    (4, 6, 6): ("sat", "11111111110000000000"),
    (4, 6, 7): ("sat", "11111111111101100000000000000000001"),
    (4, 6, 8): ("sat", "11111111111101100111100000000000000000000000000001101110"),
    (5, 3, 3): ("sat", "1"),
    (5, 3, 4): ("sat", "1111"),
    (5, 3, 5): ("unsat", None),
    (5, 3, 6): ("unsat", None),
    (5, 3, 7): ("unsat", None),
    (5, 3, 8): ("unsat", None),
    (5, 4, 3): ("sat", "1"),
    (5, 4, 4): ("sat", "1111"),
    (5, 4, 5): ("sat", "1111111110"),
    (5, 4, 6): ("sat", "11111111111110110001"),
    (5, 4, 7): ("sat", "11111111111111110110011110001101110"),
    # over 3M nodes without the memo
    (5, 4, 8): ("sat", "11111111111111101111101111111100101111110000000000001111"),
    (5, 5, 3): ("sat", "1"),
    (5, 5, 4): ("sat", "1111"),
    (5, 5, 5): ("sat", "1111111110"),
    (5, 5, 6): ("sat", "11111111111111110000"),
    (5, 5, 7): ("sat", "11111111111111111111110110000000001"),
    (5, 5, 8): ("sat", "11111111111111111111111111101100111100000000000001101110"),
    (5, 6, 3): ("sat", "1"),
    (5, 6, 4): ("sat", "1111"),
    (5, 6, 5): ("sat", "1111111110"),
    (5, 6, 6): ("sat", "11111111111111110000"),
    (5, 6, 7): ("sat", "11111111111111111111111110000000000"),
    (5, 6, 8): ("sat", "11111111111111111111111111111111101100000000000000000001"),
}


def grid_outcomes():
    outcomes = {}
    for (red_m, blue_m, N) in PINNED:
        problem = AvoidanceProblem(N, monotone_path(red_m), monotone_path(blue_m))
        outcomes[red_m, blue_m, N] = decide(problem, budget=3_000_000)
    return outcomes


def test_memo_keeps_every_status_and_witness():
    outcomes = grid_outcomes()
    for key, out in outcomes.items():
        bits = None if out.witness is None else out.witness.bitstring()
        assert (out.status, bits) == PINNED[key], key
    # how far the clamp merges states shows only in the work done
    # and in the prune counts: red-dead, blue-dead, blue hits
    assert outcomes[4, 4, 8].stats == SearchStats(0, 0, 0, 1, 0, 0)
    assert outcomes[4, 5, 8].stats == SearchStats(82, 56, 0, 30, 0, 0)
    assert outcomes[5, 4, 8].stats == SearchStats(109, 56, 10, 20, 4, 0)
    w = outcomes[5, 4, 8].witness
    assert longest_path(w, Color.RED)[0] < 5 - 1
    assert longest_path(w, Color.BLUE)[0] < 4 - 1


# p4/p5 at N=9: sat, the first level the pair lookahead decided, after
# 1,453,716 nodes; propagation takes 42,272.  The witness is pinned and
# checked with the brute-force path oracle
P4_P5_N9 = ("111011101001110011000111111100000000000000011100010011000011111000001111"
            "101111110000")


def test_p4_p5_n9_witness_avoids_both_paths():
    w = TripleColoring.from_bitstring(9, P4_P5_N9)
    out = decide(AvoidanceProblem(9, monotone_path(4), monotone_path(5)))
    assert out.witness == w
    assert longest_path(w, Color.RED)[0] == 2 < 4 - 1
    assert longest_path(w, Color.BLUE)[0] == 3 < 5 - 1


def test_p5_p4_n9_is_sat_with_the_forced_colour_lookahead():
    # inconclusive at 20M nodes with only the pair lookahead, and 221,131
    # nodes with the one-step forced-colour lookahead
    out = decide(AvoidanceProblem(9, monotone_path(5), monotone_path(4)))
    assert out.status == "sat"
    assert out.stats == SearchStats(41929, 84, 14610, 4938, 7686, 0)
    digest = hashlib.sha256(out.witness.bitstring().encode()).hexdigest()
    assert digest == "b518217a1d569cd00d86601c725825e12631794a157e243d2ccffc6469907bf6"
    assert longest_path(out.witness, Color.RED)[0] < 5 - 1
    assert longest_path(out.witness, Color.BLUE)[0] < 4 - 1


# (red m, blue m, N): (nodes, witness sha256), levels propagation decides in
# under 0.2 s; p4/p6 at N=10 took 5,785,659 nodes with the one-step
# lookahead and gave the same witness
QUICK = {
    (4, 6, 10): (79429, "2cd3ada2a49e8a219b4fc0af7972c6ffcfe7dcc0f454bf3e4c72c4b0396010ef"),
    (5, 5, 10): (42294, "b71ce2b9cd3d9d7fb86913327cbcbe53a72f99d49733cc603093315b4d4b7a77"),
}


@pytest.mark.parametrize("red_m, blue_m, N", list(QUICK))
def test_propagation_decides_the_quick_levels(red_m, blue_m, N):
    out = decide(AvoidanceProblem(N, monotone_path(red_m), monotone_path(blue_m)))
    assert out.status == "sat"
    digest = hashlib.sha256(out.witness.bitstring().encode()).hexdigest()
    assert (out.stats.nodes, digest) == QUICK[red_m, blue_m, N]
    assert longest_path(out.witness, Color.RED)[0] < red_m - 1
    assert longest_path(out.witness, Color.BLUE)[0] < blue_m - 1


@pytest.mark.parametrize("cap", [1, 4])
def test_tiny_memo_cap_keeps_every_outcome(monkeypatch, cap):
    # the memo is cleared every cap keys; what it forgets is re-searched
    monkeypatch.setattr(search, "MEMO_CAP", cap)
    outcomes = grid_outcomes()
    for key, out in outcomes.items():
        bits = None if out.witness is None else out.witness.bitstring()
        assert (out.status, bits) == PINNED[key], key
    assert sum(out.stats.memo_hits for out in outcomes.values()) > 0
    # propagation leaves the grid 10 memo hits in all; p4/p5 at N=9 has
    # thousands, and its first split fails, so the memo is cleared there
    out = decide(AvoidanceProblem(9, monotone_path(4), monotone_path(5)))
    assert out.witness.bitstring() == P4_P5_N9
    assert out.stats.memo_hits > 1000


def longest_chain(y, N):
    """Most steps from pair (., y) along pairs (y, w1), (w1, w2), ... to a
    pair that a later triple still reads (second vertex below N)."""
    if y >= N:
        return None
    best = 0
    for w in range(y + 1, N):
        best = max(best, 1 + longest_chain(w, N))
    return best


def test_clamp_keeps_exactly_the_values_that_can_still_kill():
    # a value d at pair (x, y) kills a branch iff some chain carries it to a
    # read pair at d + steps >= m - 2; every other value must pack as 0
    for N in range(3, 10):
        for red_m, blue_m in ((3, 5), (4, 4), (5, 4), (4, 6), (6, 5)):
            problem = AvoidanceProblem(N, monotone_path(red_m), monotone_path(blue_m))
            eng = search._Engine(problem, 0, ())
            pairs = [(x, y) for x in range(1, N + 1) for y in range(x + 1, N + 1)]
            for i, (x, y) in enumerate(pairs):
                if y == N:
                    continue
                steps = longest_chain(y, N)
                # a value packs as nonzero exactly when the clamp keeps it
                for m, pack in ((red_m, eng.packs[True][i]), (blue_m, eng.packs[False][i])):
                    for d in range(1, m - 1):
                        assert (pack[d] != 0) == (d + steps >= m - 2), (N, m, x, y, d)
