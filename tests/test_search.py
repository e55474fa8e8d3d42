"""The avoidance engine: correctness against full enumeration on tiny
hosts, the known path-vs-path values, budget semantics and worker
invariance."""

import hashlib
import io
import multiprocessing
import random
from itertools import combinations

import pytest

from jumpramsey import detect, search
from jumpramsey.cli import dispatch
from jumpramsey.detect import (
    alpha_table,
    find_blue_embedding,
    find_blue_jump_member,
    jump_states,
    longest_red_path,
)
from jumpramsey.construct import lift
from jumpramsey.core import (Color, OrderedTripleSystem, PairColoring, TripleColoring, all_pairs,
                             all_triples, lex_rank)
from jumpramsey.family import jump_min, monotone_path, power_path, required_edges
from jumpramsey.search import (
    DEFAULT_BUDGET,
    SPLIT_DEPTH,
    AvoidanceProblem,
    JumpsFamily,
    bracket,
    decide,
)
from oracles import (PlainPairEngine, alpha_map, longest_path, naive_decide, naive_member,
                     naive_pair_decide)


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


# blue specs of every kind, for the twins of the pair reduction
TINY_BLUE = [
    ("path", 3), ("path", 4), ("pattern", power_path(4, 4)), ("pattern", jump_min(2)[0]),
    ("jumps", 1), ("jumps", 2),
]


@pytest.mark.parametrize("N", range(2, 6))
def test_some_alpha_table_lifts_to_an_avoiding_colouring_exactly_when_any_does(N):
    # the reduction the pair walk rests on: a level is sat exactly when the
    # lift of some alpha: pairs -> [m - 2] avoids both sides.  The two
    # enumerations, over every triple colouring and over every alpha, must
    # agree, and decide with them, whichever table serves the blue spec
    for red_m in (3, 4, 5):
        red = monotone_path(red_m)
        for kind, arg in TINY_BLUE:
            blue = (monotone_path(arg) if kind == "path"
                    else JumpsFamily(arg) if kind == "jumps" else arg)
            problem = AvoidanceProblem(N, red, blue)
            out = decide(problem)
            triples = naive_decide(N, red_m, kind, arg) is not None
            pairs = naive_pair_decide(N, red_m, kind, arg) is not None
            assert triples == pairs == (out.status == "sat"), (red_m, kind, arg)
            if out.status == "sat":
                check_witness(out, problem)


def test_path_four_against_itself():
    out6 = decide(AvoidanceProblem(6, monotone_path(4), monotone_path(4)))
    assert out6.status == "sat"
    assert out6.stats.nodes == 18
    assert out6.stats.max_depth == 15
    assert out6.witness.bitstring() == "10000001110001111110"
    # alpha(2, 3) takes only the value 2, as the sides agree
    out7 = decide(AvoidanceProblem(7, monotone_path(4), monotone_path(4)))
    assert out7.status == "unsat"
    assert out7.stats == search.SearchStats(102, 16, 40)


def test_small_red_path_against_jumps():
    out = decide(AvoidanceProblem(5, monotone_path(4), JumpsFamily(2)))
    assert out.status == "sat"
    assert out.stats.nodes == 13
    assert out.witness.bitstring() == "0000010011"


# (N, blue, budget): (status, SearchStats fields, witness) for red path:4;
# the pair walk counts one node per value tried and a blue hit per value
# whose pushes find a copy.  Budget stops after 1 to 7 nodes land in the
# split enumeration (the first SPLIT_DEPTH pairs) or the first split, the
# larger ones deep in the search
P4_JUMPS2_N8 = "00000000010110110101100010110110101111011010100000010011"
P4_JUMPS2_N10 = (
    "000000000010110101101110011010001111001011010110111001101000111110110111"
    "001000000100000000101000000100000001110001101110")
BLUE_STATS = {
    (7, JumpsFamily(2), DEFAULT_BUDGET):
        ("sat", (29, 21, 6), "00000000011111100001111111111110000"),
    (6, power_path(4, 4), DEFAULT_BUDGET):
        ("sat", (27, 15, 7), "00101010111010100011"),
    (7, power_path(5, 4), DEFAULT_BUDGET):
        ("sat", (29, 21, 6), "00000000011111100001111111111110000"),
    (8, JumpsFamily(2), 1): ("inconclusive", (1, 1, 0), None),
    (8, JumpsFamily(2), 2): ("inconclusive", (2, 2, 0), None),
    (8, JumpsFamily(2), 3): ("inconclusive", (3, 3, 0), None),
    (8, JumpsFamily(2), 7): ("inconclusive", (7, 5, 0), None),
    (8, JumpsFamily(2), 30): ("inconclusive", (30, 22, 7), None),
    (8, JumpsFamily(2), 50): ("sat", (45, 28, 11), P4_JUMPS2_N8),
    (8, JumpsFamily(2), 10_000): ("sat", (45, 28, 11), P4_JUMPS2_N8),
    (7, power_path(4, 4), 1): ("inconclusive", (1, 1, 0), None),
    (7, power_path(4, 4), 2): ("inconclusive", (2, 2, 0), None),
    (7, power_path(4, 4), 3): ("inconclusive", (3, 3, 0), None),
    (7, power_path(4, 4), 7): ("inconclusive", (7, 5, 0), None),
    (7, power_path(4, 4), 50): ("inconclusive", (50, 16, 16), None),
    (7, power_path(4, 4), 20_000):
        ("sat", (241, 21, 91), "01010110100011111010001100000011110"),
    # the first unsat level of p4 vs power:4,4, by exhaustion over alpha
    (8, power_path(4, 4), DEFAULT_BUDGET): ("unsat", (649, 22, 262), None),
    (9, JumpsFamily(2), 200_000): ("sat", (65, 36, 18), (
        "000000000011011001100100111100011011001100100111111001100100100000000001110001111110")),
    (9, power_path(4, 4), 200_000): ("unsat", (649, 22, 262), None),
    (10, JumpsFamily(2), 1000): ("inconclusive", (1000, 37, 423), None),
    (10, JumpsFamily(2), DEFAULT_BUDGET): ("sat", (31146, 45, 13024), P4_JUMPS2_N10),
}


def test_blue_detector_searches_keep_their_outcomes():
    # the pair walker pushes each triple of the lift that turns blue to its
    # blue table; every blue hit, node count and witness is pinned here
    for (N, blue, budget), (status, stats, bits) in BLUE_STATS.items():
        problem = AvoidanceProblem(N, monotone_path(4), blue)
        out = decide(problem, budget=budget)
        got = None if out.witness is None else out.witness.bitstring()
        assert (out.status, out.stats, got) == (
            status, search.SearchStats(*stats), bits), (N, blue, budget)
        if status == "sat":
            check_witness(out, problem)
    # the whole SearchStats and the witness at every worker count; the
    # level has two splits, so the pool runs both
    problem = AvoidanceProblem(10, monotone_path(4), JumpsFamily(2))
    for workers in (2, 4):
        again = decide(problem, workers=workers)
        assert (again.status, again.stats, again.witness.bitstring()) == (
            "sat", search.SearchStats(31146, 45, 13024), P4_JUMPS2_N10), workers


def _blue(text):
    kind, _, arg = text.partition(":")
    if kind == "path":
        return monotone_path(int(arg))
    if kind == "jumps":
        return JumpsFamily(int(arg))
    if kind == "power":
        return power_path(*(int(x) for x in arg.split(",")))
    # jump_min(1) is the path on 3 vertices, (2) is generic
    return jump_min(int(arg))[0]


# holds an edge but not the consecutive triples (1, 2, 3) and (3, 4, 5):
# decide refuses it, as it does an edgeless pattern
GAPPED = OrderedTripleSystem(5, frozenset({(1, 2, 5), (2, 3, 4)}))


# (red m, blue spec, N, budget): (status, nodes, max-depth, witness).  Each
# status is the one an earlier triple walker found with a blue detector at
# every blue node, except that power:4,4 and power:4,5 at N=7, jumps:2 at
# N=8 and power:4,4 at N=8, which stopped at their budgets, are now decided
BLUE_GRID = {
    (4, 'jumps:1', 4, 20000): ('unsat', 5, 4, None),
    (4, 'jumps:1', 5, 20000): ('unsat', 5, 4, None),
    (4, 'jumps:1', 6, 20000): ('unsat', 5, 4, None),
    (4, 'jumps:1', 7, 20000): ('unsat', 5, 4, None),
    (4, 'jumps:2', 4, 20000): ('sat', 8, 6, '0000'),
    (4, 'jumps:2', 5, 20000): ('sat', 13, 10, '0000010011'),
    (4, 'jumps:2', 6, 20000): ('sat', 20, 15, '00000001110001111110'),
    (4, 'jumps:2', 7, 20000): ('sat', 29, 21, '00000000011111100001111111111110000'),
    (4, 'power:4,4', 4, 20000): ('sat', 9, 6, '0011'),
    (4, 'power:4,4', 5, 20000): ('sat', 15, 10, '0001111110'),
    (4, 'power:4,4', 6, 20000): ('sat', 27, 15, '00101010111010100011'),
    (4, 'power:4,4', 7, 20000): ('sat', 241, 21, '01010110100011111010001100000011110'),
    (4, 'power:5,4', 4, 20000): ('sat', 8, 6, '0000'),
    (4, 'power:5,4', 5, 20000): ('sat', 13, 10, '0000010011'),
    (4, 'power:5,4', 6, 20000): ('sat', 20, 15, '00000001110001111110'),
    (4, 'power:5,4', 7, 20000): ('sat', 29, 21, '00000000011111100001111111111110000'),
    (4, 'power:6,4', 4, 20000): ('sat', 8, 6, '0000'),
    (4, 'power:6,4', 5, 20000): ('sat', 12, 10, '0000000000'),
    (4, 'power:6,4', 6, 20000): ('sat', 18, 15, '00000000010000010011'),
    (4, 'power:6,4', 7, 20000): ('sat', 26, 21, '00000000000011100000001110001111110'),
    (4, 'power:6,5', 4, 20000): ('sat', 8, 6, '0000'),
    (4, 'power:6,5', 5, 20000): ('sat', 12, 10, '0000000000'),
    (4, 'power:6,5', 6, 20000): ('sat', 18, 15, '00000000010000010011'),
    (4, 'power:6,5', 7, 20000): ('sat', 26, 21, '00000000000011100000001110001111110'),
    (4, 'power:7,5', 4, 20000): ('sat', 8, 6, '0000'),
    (4, 'power:7,5', 5, 20000): ('sat', 12, 10, '0000000000'),
    (4, 'power:7,5', 6, 20000): ('sat', 17, 15, '00000000000000000000'),
    (4, 'power:7,5', 7, 20000): ('sat', 24, 21, '00000000000000100000000010000010011'),
    (4, 'power:4,5', 4, 20000): ('sat', 9, 6, '0011'),
    (4, 'power:4,5', 5, 20000): ('sat', 15, 10, '0001111110'),
    (4, 'power:4,5', 6, 20000): ('sat', 27, 15, '00101010111010100011'),
    (4, 'power:4,5', 7, 20000): ('sat', 241, 21, '01010110100011111010001100000011110'),
    (5, 'jumps:2', 5, 20000): ('sat', 13, 10, '0000010011'),
    (5, 'jumps:2', 6, 20000): ('sat', 20, 15, '00000001110001111110'),
    (5, 'jumps:2', 7, 20000): ('sat', 29, 21, '00000000011111100001111111111110000'),
    (5, 'jumps:2', 8, 20000): ('sat', 41, 28, '00000000000111111111100000111111111111111111110000010011'),
    (4, 'jumps:2', 8, 10000): ('sat', 45, 28, P4_JUMPS2_N8),
    (4, 'jumps:2', 9, 20000): ('sat', 65, 36, BLUE_STATS[9, JumpsFamily(2), 200_000][2]),
    (4, 'power:4,4', 8, 20000): ('unsat', 649, 22, None),
    (5, 'power:5,5', 8, 20000): ('sat', 41, 28, '00000000000111111111100000111111111111111111110000010011'),
    (5, 'power:6,5', 8, 20000): ('sat', 36, 28, '00000000000000011111100000000011111100001111111111110000'),
    (5, 'jumps:3', 9, 20000): ('sat', 44, 36, (
        '000000000000000000000011111100000000000000011111100000000011111100001111111111110000')),
    (5, 'jumps:3', 10, 20000): ('sat', 57, 45, (
        '000000000000000000000000001111111111000000000000000000111111111100000000000111111111100000'
        '111111111111111111110000000000')),
    # jmin:1 is the blue path on 3 vertices, whose every blue triple is a
    # copy: its table is the member table of one jump, and the first blue
    # triple kills
    (4, 'jmin:1', 4, 20000): ('unsat', 5, 4, None),
    (4, 'jmin:1', 5, 20000): ('unsat', 5, 4, None),
    (4, 'jmin:1', 6, 20000): ('unsat', 5, 4, None),
    (4, 'jmin:2', 5, 20000): ('sat', 13, 10, '0000010011'),
    (4, 'jmin:2', 6, 20000): ('sat', 20, 15, '00000001110001111110'),
    (4, 'jmin:2', 7, 20000): ('sat', 29, 21, '00000000011111100001111111111110000'),
    (5, 'jmin:2', 7, 20000): ('sat', 29, 21, '00000000011111100001111111111110000'),
}


def outcome_key(out):
    bits = None if out.witness is None else out.witness.bitstring()
    return (out.status, out.stats.nodes, out.stats.max_depth, bits)


def test_blue_grid_keeps_every_outcome():
    for (red_m, blue, N, budget), want in BLUE_GRID.items():
        problem = AvoidanceProblem(N, monotone_path(red_m), _blue(blue))
        out = decide(problem, budget=budget)
        assert outcome_key(out) == want, (red_m, blue, N)
        if out.status == "sat":
            check_witness(out, problem)


def test_blue_grid_at_two_workers():
    # the whole SearchStats, blue hits included, and the witness match
    # the one-worker run on every row that walks past its split enumeration
    for (red_m, blue, N, budget), want in BLUE_GRID.items():
        if want[1] <= SPLIT_DEPTH + 2:
            continue
        problem = AvoidanceProblem(N, monotone_path(red_m), _blue(blue))
        one, two = (decide(problem, budget=budget, workers=workers) for workers in (1, 2))
        assert outcome_key(two) == want, (red_m, blue, N)
        assert (two.status, two.stats, two.witness) == (
            one.status, one.stats, one.witness), (red_m, blue, N)


class Stale:
    """A table slot that no push may read."""

    def __getattr__(self, name):
        raise AssertionError("a push read a stale slot")

    def __getitem__(self, key):
        raise AssertionError("a push read a stale slot")


def test_tables_read_no_colour_above_the_rank_they_push(monkeypatch):
    # a push at (u, v, w) may read the colours of the triples whose last
    # vertex is below w and of the lower ranks (., b, w), b <= v, and a
    # slot only when its rank is blue and its last vertex below w, so that
    # its pair is assigned for good on the branch: with every other colour
    # refilled at random and every other slot made unreadable during each
    # push, and put back after it, every row of BLUE_GRID keeps its
    # outcome.  The walker leaves the colours and slots of unassigned pairs
    # as an earlier branch set them, and never clears the slot of a rank
    # that turns red.  The walker sees nothing of a table but its push
    rng = random.Random(26)
    table_of, pushed, stale = search._blue_table, set(), Stale()

    class Scrambling:
        def __init__(self, table, colour, N):
            self.table, self.colour, self.triples = table, colour, list(all_triples(N))

        def push(self, rank):
            pushed.add(type(self.table))
            colour, ends, triples = self.colour, self.table.ends, self.triples
            _, v, w = triples[rank]
            saved = colour[:], ends[:]
            for r, (_, b, c) in enumerate(triples):
                if not (c < w or (c == w and b <= v and r < rank)):
                    colour[r] = rng.random() < 0.5
                if c >= w or saved[0][r]:
                    ends[r] = stale
            hit = self.table.push(rank)
            colour[:] = saved[0]
            slot = ends[rank]
            ends[:] = saved[1]
            ends[rank] = slot
            return hit

    def scrambling(N, blue, colour):
        return Scrambling(table_of(N, blue, colour), colour, N)

    monkeypatch.setattr(search, "_blue_table", scrambling)
    for (red_m, blue, N, budget), want in BLUE_GRID.items():
        problem = AvoidanceProblem(N, monotone_path(red_m), _blue(blue))
        assert outcome_key(decide(problem, budget=budget)) == want, (red_m, blue, N)
    assert pushed == {search._Windows, search._JumpMembers}


# a colouring of the triples of [11] with no red path on 4 vertices and no
# blue member of J_2, so R(P_4, J_2) >= 12, found by a local search; mark r
# is the triple of lex rank r, 1 red.  decide finds witnesses of its own at
# N = 9, 10 and 11, sat in 65, 31,146 and 4,107,417 nodes
P4_JUMPS2_N11 = (
    "1000010111000000100001001001010101110010001000000000000111111001111001110100000100"
    "00000010001011001101100010110011111010000000000000000100100000000000001100001101110")


def test_pinned_n11_witness_avoids_both():
    text = f"triples 11\n{P4_JUMPS2_N11}\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9d63c11dbd0fb379be0a3e92dff78fdddcbee856c14c481188a837ec6e38e1fe")

    def run(*argv):
        out = io.StringIO()
        return dispatch(list(argv), io.StringIO(text), out, io.StringIO()), out.getvalue()

    assert run("detect", "redpath", "--m", "4")[0] == 1
    assert run("detect", "jumps", "--n", "2")[0] == 1
    code, report = run("certify", "profileprop", "--n", "2")
    lines = report.splitlines()
    assert code == 0 and "status clean" in lines
    assert [line for line in lines if line.startswith("group ")] == [
        "group 1", "group 2", "group 3", "group 4 6 7 9", "group 5", "group 8 10 11"]
    c = TripleColoring.from_bitstring(11, P4_JUMPS2_N11)
    assert naive_member(c, 2) is None
    assert longest_path(c)[0] == 2
    for M in (9, 10):
        part = c.restrict(M)
        assert alpha_table(part, Color.RED).max_value < 3, M
        assert find_blue_jump_member(part, 2) is None, M


def test_path_five_against_three_jumps_is_sat_at_n20():
    # R(P_5, J_3) >= 21, where the paper's lower bound is r(3;3) = 17: the
    # witness has red depth 3 by the path oracle and no blue member with
    # 3 jumps.  oracles.naive_member, which tries every member, is left
    # out: on this 20-vertex host it takes over two minutes
    problem = AvoidanceProblem(20, monotone_path(5), JumpsFamily(3))
    for workers in (1, 2):
        out = decide(problem, workers=workers)
        assert (out.status, out.stats) == ("sat", search.SearchStats(408, 190, 186)), workers
        text = f"triples 20\n{out.witness.bitstring()}\n"
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "7395bb60e35498df7b0bebe9060f50194ec88db5493accc05e4c0299c4aee3f3"), workers
    assert longest_path(out.witness)[0] == 3
    assert find_blue_jump_member(out.witness, 3) is None


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
    # hosts with at most four vertices: the walk of N=4 has 6 pairs, two
    # past its split prefixes, and the walk of N=2 one pair, a prefix that
    # is already a full assignment, so its split is a replay and a leaf
    small = [
        (AvoidanceProblem(4, monotone_path(4), monotone_path(4)),
         ("sat", 6, 6, "1000")),
        (AvoidanceProblem(4, monotone_path(4), power_path(4, 4)),
         ("sat", 9, 6, "0011")),
        (AvoidanceProblem(4, monotone_path(3), JumpsFamily(1)),
         ("unsat", 2, 2, None)),
        (AvoidanceProblem(2, monotone_path(3), monotone_path(3)),
         ("sat", 1, 1, "")),
    ]
    for problem, want in small:
        out = decide(problem)
        bits = None if out.witness is None else out.witness.bitstring()
        assert (out.status, out.stats.nodes, out.stats.max_depth, bits) == want
    problems = [
        AvoidanceProblem(6, monotone_path(4), monotone_path(4)),
        AvoidanceProblem(8, monotone_path(5), monotone_path(4)),
        AvoidanceProblem(5, monotone_path(4), JumpsFamily(2)),
        AvoidanceProblem(6, monotone_path(4), power_path(4, 4)),
        # the path on 3 vertices, built as a power path: the member table
        # of one jump
        AvoidanceProblem(5, monotone_path(5), power_path(3, 5)),
    ] + [problem for problem, _ in small]
    hits = 0
    for problem in problems:
        base = decide(problem, workers=1)
        hits += base.stats.blue_hits
        for workers in (2, 4):
            again = decide(problem, workers=workers)
            assert again.status == base.status
            assert again.stats == base.stats
            assert again.stats.blue_hits == base.stats.blue_hits
            assert again.witness == base.witness
    assert hits


def test_pool_never_outnumbers_the_splits(monkeypatch):
    seen = []
    results = []

    def inline_pool(payloads, workers):
        """Records its size and runs each split in this process when the
        fold asks for its result."""
        seen.append(workers)
        for args in payloads:
            results.append(search._run_split(args))
            yield results[-1]

    def splits(problem):
        probe = search._PairEngine(problem, DEFAULT_BUDGET)
        return len(probe.decompose(min(SPLIT_DEPTH, probe.total)))

    monkeypatch.setattr(search, "_pool", inline_pool)
    # two splits, and the first is sat
    problem = AvoidanceProblem(6, monotone_path(4), monotone_path(5))
    base = decide(problem)
    assert seen == []
    out = decide(problem, workers=5000)
    assert seen == [splits(problem)]
    assert (out.status, out.stats, out.witness) == (base.status, base.stats, base.witness)
    # the fold reads no split past the first sat one
    sat = [i for i, (bits, _, _) in enumerate(results) if bits is not None]
    assert out.status == "sat" and sat == [len(results) - 1] and len(results) < seen[0]
    # a single split runs in this process, with no pool at all
    tiny = AvoidanceProblem(3, monotone_path(4), monotone_path(4))
    assert splits(tiny) == 1
    assert decide(tiny, workers=5000).status == "sat"
    assert seen == [splits(problem)]


def test_a_split_that_raises_in_a_worker_is_an_error(monkeypatch):
    # the split enumeration runs in this process, so a prefix longer than
    # the host has pairs, put first, reaches a worker, whose walk starts
    # past the last pair and raises IndexError under every start method
    # (its values lift to the all-blue host, which holds no blue path on 7
    # vertices); the error must come back through decide and the CLI (exit
    # 4, never a hang or exit 1), and the pool must leave no worker behind
    enumerate_splits = search._PairEngine.decompose

    def decompose(self, depth):
        return [(1,) * (self.total + 1)] + enumerate_splits(self, depth)

    monkeypatch.setattr(search._PairEngine, "decompose", decompose)
    problem = AvoidanceProblem(6, monotone_path(4), monotone_path(7))
    with pytest.raises(RuntimeError) as err:
        decide(problem, workers=2)
    assert isinstance(err.value.__cause__, IndexError)
    # the worker's traceback names the frame that raised
    assert "in walk" in str(err.value)
    assert multiprocessing.active_children() == []
    stderr = io.StringIO()
    argv = ["search", "--n", "6", "--red", "path:4", "--blue", "path:7", "--workers", "2"]
    assert dispatch(argv, io.StringIO(), io.StringIO(), stderr) == 4
    assert stderr.getvalue().startswith("internal error: RuntimeError")
    assert "in walk" in stderr.getvalue()
    assert multiprocessing.active_children() == []


def test_a_worker_whose_parent_has_gone_exits_quietly(capfd):
    # the worker closes the only parent end of its pipe, as a forked one
    # does, so the split it reads has nowhere to go: sending its result
    # fails, and the worker must return with nothing on stderr
    parent, child = multiprocessing.Pipe()
    parent.send((AvoidanceProblem(4, monotone_path(4), monotone_path(4)), (), DEFAULT_BUDGET))
    search._serve(child, parent)
    child.close()
    assert capfd.readouterr().err == ""


def test_path_budget_stops_keep_their_stats():
    # a budget stop in a path/path walk, before the first blue hit or after
    # a few: every counter is pinned, max_depth included
    for red_m, blue_m, N, budget, stats in [
            (4, 4, 5, 7, (7, 7, 0)),
            (4, 4, 6, 2, (2, 2, 0)),
            (4, 5, 9, 50, (50, 22, 16)),
            (4, 5, 10, 1000, (1000, 37, 417))]:
        problem = AvoidanceProblem(N, monotone_path(red_m), monotone_path(blue_m))
        out = decide(problem, budget=budget)
        assert (out.status, out.stats, out.witness) == (
            "inconclusive", search.SearchStats(*stats), None), (red_m, blue_m, N)


def test_budget_starvation_is_deterministic():
    # 854 nodes decide it: 6 in the split enumeration, then a sat split of
    # 848; 40 nodes short starves that split, while the workers run the
    # second split, also sat in 116 nodes, beside it
    problem = AvoidanceProblem(9, monotone_path(4), monotone_path(5))
    budget = 854 - 40
    base = decide(problem, budget=budget, workers=1)
    assert base.status == "inconclusive"
    assert base.stats.nodes == budget
    for workers in (2, 4):
        again = decide(problem, budget=budget, workers=workers)
        assert again.status == "inconclusive"
        assert again.stats == base.stats
    # a genuinely sufficient budget still finishes
    assert decide(problem, budget=300000).status == "sat"


def test_a_split_out_of_budget_at_its_start_has_no_depth():
    # the pair walk gives every pair value 1 under red path:3, and the
    # forced-blue read makes all of [5] blue at pair (1, 5), a member of
    # J_2: the third node is a blue hit and ends the split, whose budget
    # of three nodes is then spent but not overrun
    problem = AvoidanceProblem(8, monotone_path(3), JumpsFamily(2))
    prefixes = search._PairEngine(problem, DEFAULT_BUDGET).decompose(SPLIT_DEPTH)
    assert prefixes == [(1,) * SPLIT_DEPTH]
    assert search._run_split((problem, prefixes[0], 0)) == (
        None, True, search.SearchStats(0, 0))
    assert search._run_split((problem, prefixes[0], 3)) == (
        None, False, search.SearchStats(3, SPLIT_DEPTH + 3, blue_hits=1))


def test_symmetry_shortcut_only_for_identical_sides():
    # red P4 vs blue P5 is asymmetric: flipping colors of a witness is not
    # allowed to count, so alpha(2, 3) must take both its values; with
    # identical sides it takes only 2, so one split is left
    splits = [search._PairEngine(AvoidanceProblem(6, monotone_path(4), monotone_path(blue_m)),
                                 DEFAULT_BUDGET).decompose(SPLIT_DEPTH) for blue_m in (5, 4)]
    assert splits == [[(1, 1, 1, 1), (1, 1, 2, 1)], [(1, 1, 2, 1)]]
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


def test_a_blue_pattern_without_every_consecutive_triple_is_refused():
    # an edgeless blue pattern embeds into any host, and one that lacks a
    # consecutive triple has no table in the walk: decide refuses both,
    # before it builds an engine
    for blue in (monotone_path(2), power_path(2, 5), OrderedTripleSystem(3, frozenset()),
                 GAPPED, OrderedTripleSystem(4, {(1, 2, 3), (1, 2, 4)})):
        with pytest.raises(ValueError, match="every consecutive triple"):
            decide(AvoidanceProblem(5, monotone_path(3), blue))


def test_oversized_jump_family_is_searched_on_the_hosts_scale(monkeypatch):
    # a member with n jumps has 2n + 1 vertices, so at N = 8 no family past
    # 4 jumps fits and the member table stops at N // 2 + 1 = 5 jumps; the
    # guard fails before a larger table, O(n^2) in size, is built
    built = []

    def guarded(n):
        assert n <= 8 // 2 + 1, n
        built.append(n)
        return jump_states(n)

    monkeypatch.setattr(search, "jump_states", guarded)
    monkeypatch.setattr(detect, "jump_states", guarded)
    huge = decide(AvoidanceProblem(8, monotone_path(4), JumpsFamily(10**9)))
    small = decide(AvoidanceProblem(8, monotone_path(4), JumpsFamily(5)))
    assert huge.status == small.status == "sat"
    assert huge.stats == small.stats
    # no member fits, so every pair takes value 1 and the lift is all blue
    assert huge.stats.nodes == 30
    assert huge.witness.bits == 0
    assert huge.witness == small.witness
    assert set(built) == {5}


@pytest.mark.parametrize("N", [5, 6])
def test_patterns_built_from_a_set_or_list_decide_like_their_frozen_twins(N):
    # the cached plans hash the patterns, so their edges are stored frozen
    red, blue = monotone_path(4), jump_min(2)[0]
    loose_red = OrderedTripleSystem(red.m, set(red.edges))
    loose_blue = OrderedTripleSystem(blue.m, sorted(blue.edges))
    want = outcome_key(decide(AvoidanceProblem(N, red, blue)))
    assert outcome_key(decide(AvoidanceProblem(N, loose_red, blue))) == want
    assert outcome_key(decide(AvoidanceProblem(N, red, loose_blue))) == want
    assert type(loose_red.edges) is type(loose_blue.edges) is frozenset
    assert (loose_red, loose_blue) == (red, blue)


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
    # N=9 is sat in 854 nodes, N=10 needs 23,698
    out = bracket(monotone_path(4), monotone_path(5), nmax=10, budget=1000)
    assert out.status == "inconclusive"
    assert out.levels[-1].outcome.status == "inconclusive"


TRACKED = [
    monotone_path(3),
    monotone_path(4),
    monotone_path(5),
    power_path(4, 4),
    power_path(5, 4),
    power_path(6, 5),
    power_path(7, 5),
    power_path(5, 5),
    JumpsFamily(1),
    JumpsFamily(2),
    JumpsFamily(3),
    jump_min(2)[0],
    jump_min(3)[0],
    required_edges(7, {3, 5}),
]


def full_detection(c, blue):
    if isinstance(blue, JumpsFamily):
        return find_blue_jump_member(c, blue.n) is not None
    return find_blue_embedding(c, blue) is not None


def test_blue_tables_match_full_detection():
    # colourings built in the order the pair walk colours them: pairs (v, w)
    # in colex order and the triples (u, v, w) of each in order of u, each
    # triple tried blue and kept blue unless that completes a blue copy,
    # the rest read as red.  Half the runs try a planted copy's edges blue
    # and end at the edge the walk colours last, so that the last step
    # often completes it.  Two engines of one problem, sharing its plans,
    # are driven in lockstep with their own random choices, their colour
    # lists and tables as the walker drives them: a triple whose push
    # completes a copy turns red, and its slot keeps what that push wrote.
    # Every blue push must report a copy exactly when a full detector run on
    # that engine's own colours so far, the rest red, finds one, and the
    # shared plans must still equal freshly built ones.
    rng = random.Random(59)
    for blue in TRACKED:
        pattern = jump_min(blue.n)[0] if isinstance(blue, JumpsFamily) else blue
        runs = last_hits = 0
        for _ in range(50):
            N = rng.randint(max(5, pattern.m), 8)
            problem = AvoidanceProblem(N, monotone_path(N + 2), blue)
            order = [r for _, own, _, _ in search._pair_plans(N) for r, _ in own]
            step = {r: i for i, r in enumerate(order)}
            lanes = []
            for _ in range(2):
                eng = search._PairEngine(problem, DEFAULT_BUDGET)
                assert isinstance(eng.table, (search._Windows, search._JumpMembers))
                plant = set()
                if rng.random() < 0.5:
                    verts = sorted(rng.sample(range(1, N + 1), pattern.m))
                    plant = {step[lex_rank(tuple(verts[p - 1] for p in e), N)]
                             for e in pattern.edges}
                top = max(plant) if plant else rng.randrange(len(order))
                lanes.append([eng, plant, top, rng.uniform(0.3, 0.9), False])
            plans = lanes[0][0].table.plans
            assert lanes[1][0].table.plans is plans
            for i, rank in enumerate(order[:max(lane[2] for lane in lanes) + 1]):
                for lane in lanes:
                    eng, plant, top, share, _ = lane
                    if i > top:
                        continue
                    if i == top or i in plant or rng.random() < share:
                        eng.colour[rank] = False
                        marks = "".join("1" if red else "0" for red in eng.colour)
                        found = full_detection(TripleColoring.from_bitstring(N, marks), blue)
                        assert eng.table.push(rank) is found, (blue, N, rank)
                        lane[4] = found
                        if not found:
                            continue
                    eng.colour[rank] = True
            for *_, found in lanes:
                runs += 1
                last_hits += found
            if isinstance(blue, JumpsFamily) or blue.m == 3:
                # the path on 3 vertices is jump_min(1)[0], a member of 1 jump
                assert plans == search._member_plans.__wrapped__(N, pattern.m // 2)
            else:
                assert plans == search._window_plans.__wrapped__(N, blue)
        assert last_hits > runs // 10, blue


@pytest.mark.parametrize("N", range(3, 10))
def test_plans_read_the_ranks_they_name(N):
    # the pair plan's pairs and rows, the member plan's ranks, and the
    # window plan's key slots and edge ranks, recomputed from the triples
    # with lex_rank and the pairs in lex order
    pair_rank = {pair: p for p, pair in enumerate(all_pairs(N))}
    colex = sorted(pair_rank, key=lambda pair: pair[::-1])
    plans = search._pair_plans(N)
    assert len(plans) == len(colex)
    for (v, w), (p, own, later, pushes) in zip(colex, plans):
        assert p == pair_rank[v, w]
        assert own == tuple((lex_rank((u, v, w), N), pair_rank[u, v]) for u in range(1, v))
        rest = tuple((lex_rank((u, b, w), N), pair_rank[u, b])
                     for b in range(v + 1, w) for u in range(1, b))
        # the first pair of w reads every later row ahead; the others none
        assert later == (rest if v == 1 else ())
        # and pushes what it colours, row by row
        assert pushes == tuple(r for r, _ in own + later)
    for n in (1, 2, 3):
        for (u, v, w), (sources, uw, *_) in zip(all_triples(N), search._member_plans(N, n)):
            assert sources == tuple(
                (lex_rank((y, u, v), N), y, lex_rank((y, u, w), N), lex_rank((y, v, w), N))
                for y in range(1, u))
            assert uw[1:] == tuple(lex_rank((x, u, w), N) for x in range(1, u))
    for pattern in (power_path(5, 4), power_path(7, 5), jump_min(3)[0]):
        W = pattern.width
        for (u, v, w), (keys, blank) in zip(all_triples(N), search._window_plans(N, pattern)):
            leads = list(combinations(range(1, u), W - 3))
            assert blank == (1 << W,) * len(leads)
            want = [[] for _ in leads]
            for lead in combinations(range(1, u), W - 2):
                window = lead + (u, v, w)
                x = window[W - 3]  # the prev key ends (x, u, v)
                prev = list(combinations(range(1, x), W - 3)).index(window[:W - 3])
                # per k, the ranks of the window's other triples that are
                # edges when it is positions k - W + 1 .. k + 1, in rank
                # order; the k with one such tuple share an entry, in order
                # of first k
                spans = {}
                for k in range(W, min(pattern.m, N)):
                    ranks = set()
                    for a, b, c in pattern.edges:
                        if a > k - W and c <= k + 1:
                            e = tuple(window[p - (k - W + 1)] for p in (a, b, c))
                            if e != (u, v, w):
                                ranks.add(lex_rank(e, N))
                    # the prev key's own triple is read, so its ends are set
                    assert lex_rank((x, u, v), N) in ranks
                    edges = tuple(sorted(ranks))
                    spans[edges] = spans.get(edges, 0) | 1 << k
                # a power path has one group, so one entry per window
                assert len(spans) <= 1 or pattern == jump_min(3)[0]
                want[leads.index(lead[1:])] += [
                    (lex_rank((x, u, v), N), prev, span, edges) for edges, span in spans.items()]
            assert keys == tuple(enumerate(map(tuple, want)))


def push_reads(N, blue):
    """Per lex rank, the ranks of the colours a push there reads, taken
    from the member or window plan."""
    if isinstance(blue, JumpsFamily):
        return [{r for src, _, yuw, yvw in sources for r in (src, yuw, yvw)} | set(uw[1:])
                for sources, uw, *_ in search._member_plans(N, blue.n)]
    return [{e for _, prevs in keys for *_, edges in prevs for e in edges}
            for keys, _ in search._window_plans(N, blue)]


@pytest.mark.parametrize("N", range(3, 10))
def test_push_lists_hold_every_push_that_reads_the_row(N):
    # at (v, w), v >= 2, the walk pushes only its own row.  A later triple
    # (u, v', w) whose push reads a triple of row v is held by the push
    # list of its own pair (v', w), later in colex order, and every colour
    # that push reads, brute-forced from the plan, is of a triple below w
    # or of a lower rank in a row v'' <= v' of w: assigned by then, and at
    # least as blue as at the forced read (module docstring)
    triples = list(all_triples(N))
    colex = sorted(all_pairs(N), key=lambda pair: pair[::-1])
    plans = dict(zip(colex, search._pair_plans(N)))
    for blue in (JumpsFamily(1), JumpsFamily(2), JumpsFamily(3), power_path(4, 4),
                 power_path(5, 4), power_path(5, 5), power_path(6, 5), power_path(7, 5),
                 jump_min(3)[0], required_edges(7, {3, 5}), monotone_path(4),
                 monotone_path(6)):
        reads = push_reads(N, blue)
        for (v, w), (_, own, _, pushes) in plans.items():
            ahead = [r for r, (_, b, x) in enumerate(triples) if x == w and b > v]
            if v == 1:
                assert sorted(pushes) == ahead, (blue, v, w)
                continue
            row = {r for r, _ in own}
            assert set(pushes) == row, (blue, v, w)
            for r in ahead:
                if not reads[r] & row:
                    continue
                _, b, _ = triples[r]
                assert r in plans[b, w][3], (blue, v, w, r)
                for e in reads[r]:
                    _, eb, ex = triples[e]
                    assert ex < w or (ex == w and eb <= b and e < r), (blue, r, e)


@pytest.mark.parametrize("blue", ["jumps:1", "jumps:2", "jumps:3", "power:4,4", "power:5,4",
                                  "power:5,5", "power:6,5", "power:7,5", "path:4",
                                  "path:5", "jmin:1", "path:3", "power:3,5"])
def test_planned_pushes_walk_as_the_plain_rule(monkeypatch, blue):
    # the push lists leave out only pushes that would find no copy, so the
    # planned walk gives the whole SearchStats, status and witness of
    # oracles.PlainPairEngine, which re-pushes every later row at every
    # assignment, budget stops included, at one worker and at two
    spec = _blue(blue)
    for N in range(3, 10):
        for red_m, budget in ((4, 20000), (5, 20000), (4, 40)):
            problem = AvoidanceProblem(N, monotone_path(red_m), spec)
            with monkeypatch.context() as plain:
                plain.setattr(search, "_PairEngine", PlainPairEngine)
                want = decide(problem, budget=budget)
            workers = (1, 2) if N in (7, 9) and want.stats.nodes > SPLIT_DEPTH + 2 else (1,)
            for w in workers:
                got = decide(problem, budget=budget, workers=w)
                assert (got.status, got.stats, got.witness) == (
                    want.status, want.stats, want.witness), (blue, N, red_m, budget, w)


def test_table_push_counts(monkeypatch):
    # the work the push lists save, counted with a wrapped push over the
    # probe, the split replays and the splits: the plain rule pushed
    # 234,947 and 2,065 times, and lists with the later triples that read
    # the row 172,828 and 1,756
    table_of, pushes = search._blue_table, [0]

    def counted(N, blue, colour):
        table = table_of(N, blue, colour)
        push = table.push

        def count(rank):
            pushes[0] += 1
            return push(rank)

        table.push = count
        return table

    monkeypatch.setattr(search, "_blue_table", counted)
    for N, blue, want in ((10, JumpsFamily(2), 159_466), (8, power_path(4, 4), 1_564)):
        pushes[0] = 0
        out = decide(AvoidanceProblem(N, monotone_path(4), blue))
        assert out.status == BLUE_STATS[N, blue, DEFAULT_BUDGET][0]
        assert pushes[0] == want, (N, blue)


def engine_state(eng):
    """Copies of what the walker changes and must restore; the table slots
    it leaves as they are, as a table reads only slots of blue ranks.  Of
    the colours, those of the assigned rows, and of the later rows of w
    when the first unassigned pair (v, w) has v > 1, which the walk reads
    at the forced read."""
    N = eng.N
    colex = sorted(all_pairs(N), key=lambda pair: pair[::-1]) + [(1, N + 1)]
    v, w = colex[next(d for d, (p, *_) in enumerate(eng.plans + ((None,),))
                      if p is None or not eng.alpha[p])]
    return list(eng.alpha), [red for red, (_, _, x) in zip(eng.colour, all_triples(N))
                             if x < w or x == w and v > 1]


# every level is sat, and a leaf that returns makes each split visit every
# avoiding table below its prefix; they split after the first 12 pairs, 14
# at N=9, inside the pairs of vertex 6, so that the walk must leave the
# later rows of vertex 6 at the forced read, and at most 32 splits, spread
# over the DFS order, are walked.  The blue path on 5 vertices, the jump_min(2)
# member and the power paths have window tables, the families member tables.
@pytest.mark.parametrize("N, blue", [
    (9, monotone_path(5)), (6, power_path(4, 4)), (6, JumpsFamily(2)),
    (6, jump_min(2)[0]), (7, JumpsFamily(2)), (6, power_path(5, 4))])
def test_walker_leaves_the_engine_as_it_found_it(N, blue):
    walk_every_split(AvoidanceProblem(N, monotone_path(4), blue), 12 if N < 9 else 14)


def test_pair_walk_leaves_backed_past_rows_at_the_forced_read_under_path_five():
    # under red path:4 a pair's last value is 2 = m - 2, whose lift of its
    # row is the forced read whatever the row; under path:5 the last value
    # of a pair may be below m - 2, and its row must still lift to the
    # forced read when the walk backs past it
    walk_every_split(AvoidanceProblem(6, monotone_path(5), power_path(5, 5)))


def walk_every_split(problem, depth=12):
    N, blue = problem.N, problem.blue
    probe = search._PairEngine(problem, DEFAULT_BUDGET)
    prefixes = probe.decompose(depth)
    prefixes = prefixes[::-(-len(prefixes) // 32)]
    assert engine_state(probe) == engine_state(search._PairEngine(problem, DEFAULT_BUDGET))
    leaves = []
    hits = 0

    def leaf():
        # the colour list is the lift of the table, and avoids both sides
        lifted = lift(PairColoring(N, problem.red.m - 2, tuple(eng.alpha)))
        assert "".join("01"[red] for red in eng.colour) == lifted.bitstring()
        assert not full_detection(lifted, blue)
        leaves.append(1)

    for prefix in prefixes:
        eng = search._PairEngine(problem, DEFAULT_BUDGET, prefix)
        replayed = engine_state(eng)
        eng.walk(len(prefix), eng.total, leaf)
        assert engine_state(eng) == replayed
        hits += eng.stats().blue_hits
    assert hits > 0
    assert leaves


def prefix_host(N, values, top):
    """The colours of the host [w] that the walk reads after assigning the
    first len(values) pairs in colex order, the last (v, w), from the
    definitions: a triple (a, b, x) of an assigned row is red iff
    alpha(a, b) < alpha(b, x), and one of a later row of w is blue iff
    alpha(a, b) = top, the forced read.  Returns (w, colouring, alpha)."""
    colex = sorted(all_pairs(N), key=lambda pair: pair[::-1])
    alpha = dict(zip(colex, values))
    v, w = colex[len(values) - 1]
    marks = "".join(
        "01"[alpha[a, b] < alpha[b, x] if x < w or b <= v else alpha[a, b] != top]
        for a, b, x in all_triples(w))
    return w, TripleColoring.from_bitstring(w, marks), alpha


# walk(0, stop, leaf) calls the leaf at every live prefix of stop pairs
@pytest.mark.parametrize("red_m, blue_m, N, stops", [
    (4, 4, 6, range(16)), (4, 5, 6, range(16)), (5, 4, 6, range(16)),
    (4, 5, 7, range(16)), (5, 4, 7, range(16))])
def test_no_live_prefix_has_a_pair_dead_in_both_colours(red_m, blue_m, N, stops):
    # at every live prefix, the host [w] it colours, its assigned rows
    # lifted and the later rows of w at the forced read, has red alpha
    # values equal to the assigned ones, and no blue path on blue_m
    # vertices, by the brute-force oracles; so no pair (a, b), b < w, is at
    # both dead levels, red m - 2 and blue m - 2, where (a, b, w) would have
    # no colour.  The live prefixes one pair longer are exactly the values
    # the fixed-point rule allows whose host has no blue path, all but
    # value 1 of (2, 3) when the sides agree
    problem = AvoidanceProblem(N, monotone_path(red_m), monotone_path(blue_m))
    eng = search._PairEngine(problem, DEFAULT_BUDGET)
    colex = sorted(all_pairs(N), key=lambda pair: pair[::-1])
    top = red_m - 2
    live = {}
    for stop in stops:
        live[stop] = []
        eng.walk(0, stop, lambda: live[stop].append(
            tuple(eng.alpha[p] for p, *_ in eng.plans[:stop])))
    dead = 0
    for stop in stops:
        for values in live[stop]:
            if not values:
                continue
            w, c, alpha = prefix_host(N, values, top)
            reds, blues = alpha_map(c), alpha_map(c, Color.BLUE)
            assert all(reds[pair] == value for pair, value in alpha.items()), values
            assert longest_path(c, Color.BLUE)[0] < blue_m - 1, values
            for (a, b), value in alpha.items():
                assert b == w or value < top or blues[a, b] < blue_m - 2, values
        if stop + 1 not in live:
            continue
        want = []
        for values in live[stop]:
            v, w = colex[stop]
            below = {alpha for (a, b), alpha in zip(colex, values) if b == v}
            for j in range(1, top + 1):
                if j > 1 and j - 1 not in below or j == 1 and stop == 2 and red_m == blue_m:
                    continue
                if longest_path(prefix_host(N, values + (j,), top)[1], Color.BLUE)[0] < blue_m - 1:
                    want.append(values + (j,))
                else:
                    dead += 1
        assert live[stop + 1] == want, stop
    assert dead > 0


def test_member_table_and_detector_step_through_one_function():
    states = jump_states(2)
    assert jump_states(2) is states
    eng = search._PairEngine(AvoidanceProblem(7, monotone_path(4), JumpsFamily(2)),
                             DEFAULT_BUDGET)
    assert eng.table.step == states.step
    states.steps.clear()
    find_blue_jump_member(TripleColoring.all_blue(7), 2)
    assert states.steps


def test_one_recogniser_reads_the_spec():
    # the width of a spec that has an edge and every consecutive triple,
    # else 0; width 2 is the monotone path
    assert search._consecutive(power_path(6, 3)) == 2
    assert search._consecutive(monotone_path(4)) == 2
    assert search._consecutive(power_path(6, 5)) == 4
    # the degenerate power:4,5 is the complete system on [4]
    assert search._consecutive(power_path(4, 5)) == 3
    assert search._consecutive(jump_min(2)[0]) == 4
    assert search._consecutive(required_edges(7, {3, 5})) == 4
    assert search._consecutive(GAPPED) == 0
    assert search._consecutive(OrderedTripleSystem(4, {(1, 2, 3), (1, 2, 4)})) == 0
    assert search._consecutive(monotone_path(2)) == 0
    # decide takes a pattern where the recogniser is nonzero: one on more
    # than 3 vertices has a window table, and the one-edge path on 3
    # vertices, in each of its builds, the member table of one jump, as
    # the jump family has
    specs = (monotone_path(4), power_path(6, 3), power_path(4, 5), JumpsFamily(2),
             jump_min(2)[0], monotone_path(3), power_path(3, 5), jump_min(1)[0])
    tables = [search._blue_table(7, blue, [True] * 35) for blue in specs]
    assert [type(table).__name__ for table in tables] == (
        ["_Windows"] * 3 + ["_JumpMembers", "_Windows"] + ["_JumpMembers"] * 3)
    assert tables[-1].plans is search._member_plans(7, 1)
    # one build of a spec is read once per process
    search._consecutive.cache_clear()
    for _ in range(3):
        search._consecutive(power_path(6, 5))
    assert search._consecutive.cache_info().misses == 1


def test_a_window_table_runs_no_detector_at_a_node(monkeypatch):
    # every table tracks its copies itself, so no detector runs inside the
    # walk: a sat level runs one, on the witness, and an unsat or stopped
    # level none.  The witness check of a monotone path, the one-edge path
    # among them, reads the blue alpha table and runs no detector at all
    calls = []

    def counted(detector):
        def run(c, blue):
            calls.append(blue)
            return detector(c, blue)
        return run

    monkeypatch.setattr(search, "find_blue_embedding", counted(find_blue_embedding))
    monkeypatch.setattr(search, "find_blue_jump_member", counted(find_blue_jump_member))
    for (red_m, blue, N, budget), want in BLUE_GRID.items():
        calls.clear()
        spec = _blue(blue)
        out = decide(AvoidanceProblem(N, monotone_path(red_m), spec), budget=budget)
        assert outcome_key(out) == want, (red_m, blue, N)
        path = not isinstance(spec, JumpsFamily) and search._consecutive(spec) == 2
        assert len(calls) == (out.status == "sat" and not path), (red_m, blue, N, len(calls))
