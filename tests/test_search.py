"""The avoidance engine: correctness against full enumeration on tiny
hosts, the known path-vs-path values, budget semantics and worker
invariance."""

from concurrent.futures import Future

import pytest

from jumpramsey import search
from jumpramsey.detect import (
    alpha_table,
    find_blue_embedding,
    find_blue_jump_member,
    longest_red_path,
)
from jumpramsey.core import Color
from jumpramsey.family import jump_min, monotone_path, power_path
from jumpramsey.search import (
    DEFAULT_BUDGET,
    SPLIT_DEPTH,
    AvoidanceProblem,
    JumpsFamily,
    bracket,
    decide,
)
from oracles import naive_decide


def check_witness(out, problem):
    c = out.witness
    assert c.N == problem.N
    depth, _ = longest_red_path(c)
    assert depth < problem.red.m - 1
    if isinstance(problem.blue, JumpsFamily):
        assert find_blue_jump_member(c, problem.blue.n) is None
    else:
        assert find_blue_embedding(c, problem.blue) is None


def test_engine_agrees_with_enumeration_on_tiny_hosts():
    cases = [
        (4, monotone_path(3), monotone_path(3), "path", 3),
        (4, monotone_path(4), monotone_path(3), "path", 3),
        (5, monotone_path(4), monotone_path(4), "path", 4),
        (5, monotone_path(3), JumpsFamily(1), "jumps", 1),
        (5, monotone_path(4), JumpsFamily(2), "jumps", 2),
        (5, monotone_path(4), power_path(4, 4), "pattern", power_path(4, 4)),
        (5, monotone_path(5), jump_min(1)[0], "pattern", jump_min(1)[0]),
    ]
    for N, red, blue, kind, arg in cases:
        problem = AvoidanceProblem(N, red, blue)
        out = decide(problem)
        want = naive_decide(N, red.m, kind, arg)
        assert out.status == ("sat" if want is not None else "unsat")
        if out.status == "sat":
            check_witness(out, problem)


def test_path_four_against_itself():
    out6 = decide(AvoidanceProblem(6, monotone_path(4), monotone_path(4)))
    assert out6.status == "sat"
    assert out6.stats.nodes == 555
    assert out6.stats.max_depth == 20
    assert out6.witness.bitstring() == "10110011110001101110"
    out7 = decide(AvoidanceProblem(7, monotone_path(4), monotone_path(4)))
    assert out7.status == "unsat"
    assert out7.stats.nodes == 9833
    assert out7.stats.max_depth == 34
    assert out7.stats.memo_hits > 0


def test_small_red_path_against_jumps():
    out = decide(AvoidanceProblem(5, monotone_path(4), JumpsFamily(2)))
    assert out.status == "sat"
    assert out.stats.nodes == 36
    assert out.witness.bitstring() == "1111110000"


def test_blue_detector_searches_keep_their_outcomes():
    # the engine runs the blue detectors anchored at the triple that just
    # turned blue; every prune, node count and witness is pinned here
    cases = [
        (7, JumpsFamily(2), DEFAULT_BUDGET,
         ("sat", 7786, 35, "11111101100111100000000000001101110")),
        (6, power_path(4, 4), DEFAULT_BUDGET,
         ("sat", 1865, 20, "11010111110000011100")),
        (7, power_path(5, 4), DEFAULT_BUDGET,
         ("sat", 3483, 35, "11111110101111100000000000000011100")),
        (8, JumpsFamily(2), 10_000, ("inconclusive", 10000, 47, None)),
        (7, power_path(4, 4), 20_000, ("inconclusive", 20000, 32, None)),
    ]
    for N, blue, budget, want in cases:
        problem = AvoidanceProblem(N, monotone_path(4), blue)
        out = decide(problem, budget=budget)
        bits = None if out.witness is None else out.witness.bitstring()
        assert (out.status, out.stats.nodes, out.stats.max_depth, bits) == want
    problem = AvoidanceProblem(7, monotone_path(4), power_path(5, 4))
    again = decide(problem, workers=2)
    assert (again.status, again.stats.nodes, again.stats.max_depth,
            again.witness.bitstring()) == cases[2][3]


def test_unsat_is_monotone_in_host_size():
    red = monotone_path(4)
    seen_unsat = False
    for N in range(4, 9):
        out = decide(AvoidanceProblem(N, red, red))
        if seen_unsat:
            assert out.status == "unsat"
        elif out.status == "unsat":
            seen_unsat = True
    assert seen_unsat


def test_worker_invariance():
    # hosts with at most SPLIT_DEPTH triples: every split prefix is already
    # a full assignment, so each split is a replay and an immediate leaf
    small = [
        (AvoidanceProblem(4, monotone_path(4), monotone_path(4)),
         ("sat", 11, 4, "1110")),
        (AvoidanceProblem(4, monotone_path(4), power_path(4, 4)),
         ("sat", 26, 4, "1110")),
        (AvoidanceProblem(4, monotone_path(3), JumpsFamily(1)),
         ("unsat", 1, 1, None)),
        (AvoidanceProblem(2, monotone_path(3), monotone_path(3)),
         ("sat", 0, 0, "")),
    ]
    for problem, want in small:
        out = decide(problem)
        bits = None if out.witness is None else out.witness.bitstring()
        assert (out.status, out.stats.nodes, out.stats.max_depth, bits) == want
    problems = [
        AvoidanceProblem(6, monotone_path(4), monotone_path(4)),
        AvoidanceProblem(7, monotone_path(4), monotone_path(4)),
        AvoidanceProblem(5, monotone_path(4), JumpsFamily(2)),
    ] + [problem for problem, _ in small]
    for problem in problems:
        base = decide(problem, workers=1)
        for workers in (2, 4):
            again = decide(problem, workers=workers)
            assert again.status == base.status
            assert again.stats == base.stats
            assert again.witness == base.witness


def test_pool_never_outnumbers_the_splits(monkeypatch):
    seen = []

    class InlinePool:
        """Records its size and runs every split in this process."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    def splits(problem):
        probe = search._Engine(problem, DEFAULT_BUDGET)
        return len(probe.decompose(min(SPLIT_DEPTH, probe.total)))

    monkeypatch.setattr(search, "ProcessPoolExecutor", InlinePool)
    problem = AvoidanceProblem(6, monotone_path(4), monotone_path(4))
    base = decide(problem)
    assert seen == []
    out = decide(problem, workers=5000)
    assert seen == [splits(problem)]
    assert (out.status, out.stats, out.witness) == (base.status, base.stats, base.witness)
    # a single split runs in this process, with no pool at all
    tiny = AvoidanceProblem(3, monotone_path(4), monotone_path(4))
    assert splits(tiny) == 1
    assert decide(tiny, workers=5000).status == "sat"
    assert seen == [splits(problem)]


def test_budget_starvation_is_deterministic():
    problem = AvoidanceProblem(7, monotone_path(4), monotone_path(4))
    base = decide(problem, budget=5000, workers=1)
    assert base.status == "inconclusive"
    assert base.stats.nodes == 5000
    for workers in (2, 4):
        again = decide(problem, budget=5000, workers=workers)
        assert again.status == "inconclusive"
        assert again.stats == base.stats
    # a genuinely sufficient budget still finishes
    assert decide(problem, budget=300000).status == "unsat"


def test_symmetry_shortcut_only_for_identical_sides():
    # red P4 vs blue P5 is asymmetric: flipping colors of a witness is not
    # allowed to count, so both root branches must be explored
    problem = AvoidanceProblem(5, monotone_path(4), monotone_path(5))
    out = decide(problem)
    assert out.status == "sat"
    check_witness(out, problem)
    flipped = AvoidanceProblem(5, monotone_path(5), monotone_path(4))
    assert decide(flipped).status == "sat"
    # the asymmetric pair must not reuse the symmetric node count
    sym = decide(AvoidanceProblem(5, monotone_path(4), monotone_path(4)))
    assert sym.status == "sat"
    assert out.stats.nodes != sym.stats.nodes


def test_blue_pattern_present_at_root_is_instant():
    # an edgeless blue pattern embeds into any host, red-only or not
    out = decide(AvoidanceProblem(5, monotone_path(3), monotone_path(2)))
    assert out.status == "unsat"
    assert out.stats.nodes == 0


def test_argument_validation():
    with pytest.raises(ValueError):
        decide(AvoidanceProblem(5, power_path(5, 4), monotone_path(4)))
    with pytest.raises(ValueError):
        decide(AvoidanceProblem(5, monotone_path(2), monotone_path(4)))
    with pytest.raises(ValueError):
        decide(AvoidanceProblem(5, monotone_path(4), monotone_path(4)), budget=-1)
    with pytest.raises(ValueError):
        decide(AvoidanceProblem(5, monotone_path(4), monotone_path(4)), workers=0)
    with pytest.raises(ValueError):
        JumpsFamily(0)


def test_bracket_path_three_against_one_jump():
    out = bracket(monotone_path(3), JumpsFamily(1), nmax=4)
    assert out.status == "closed"
    assert out.largest_sat == 2
    assert [lv.outcome.status for lv in out.levels] == ["sat", "unsat"]


def test_bracket_path_four_against_itself():
    out = bracket(monotone_path(4), monotone_path(4), nmax=8)
    assert out.status == "closed"
    assert out.largest_sat == 6
    assert [lv.N for lv in out.levels] == [2, 3, 4, 5, 6, 7]


def test_bracket_left_open_at_nmax():
    out = bracket(monotone_path(4), JumpsFamily(2), nmax=5)
    assert out.status == "open"
    assert out.largest_sat == 5


def test_bracket_inconclusive_on_starved_budget():
    out = bracket(monotone_path(4), monotone_path(4), nmax=8, budget=5000)
    assert out.status == "inconclusive"
    assert out.levels[-1].outcome.status == "inconclusive"
