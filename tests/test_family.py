"""Pattern generators, jump conditions and the associated graph."""

from itertools import combinations

import pytest

from jumpramsey.family import (
    JumpSpec,
    associated_graph,
    jump_min,
    monotone_path,
    power_path,
    required_edges,
    validate_jump_member,
)
from oracles import jump_sets, member_edges


def test_monotone_path_edges():
    assert monotone_path(2).edges == frozenset()
    assert monotone_path(3).edges == frozenset({(1, 2, 3)})
    p = monotone_path(6)
    assert p.sorted_edges == [(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6)]
    assert p.width == 2


def test_power_path_is_union_of_windows():
    for m, t in ((6, 4), (8, 5), (5, 3), (10, 4)):
        windows = [range(lo, lo + t) for lo in range(1, m - t + 2)]
        want = {tr for w in windows for tr in combinations(w, 3)}
        assert power_path(m, t).edges == frozenset(want)
    assert power_path(5, 3) == monotone_path(5)


def test_power_path_degenerate_and_errors():
    # fewer vertices than the window: everything is one window
    assert power_path(4, 6).edges == frozenset(combinations(range(1, 5), 3))
    assert power_path(2, 4).edges == frozenset()
    with pytest.raises(ValueError):
        power_path(5, 2)


def test_condition_violations_in_order():
    assert JumpSpec(5, frozenset({2, 4})).condition_violation() is None
    v = JumpSpec(5, frozenset({1, 3})).condition_violation()
    assert v == "position 1 is a jump"
    v = JumpSpec(5, frozenset({2, 5})).condition_violation()
    assert v == "last position 5 is a jump"
    v = JumpSpec(6, frozenset({2, 3, 5})).condition_violation()
    assert v == "consecutive jumps 2 and 3"
    # position 1 is reported before anything else
    v = JumpSpec(5, frozenset({1, 2, 5})).condition_violation()
    assert v == "position 1 is a jump"
    with pytest.raises(ValueError):
        JumpSpec(5, frozenset({6}))


def test_minimal_member_size_by_exhaustion():
    # n jumps never fit on 2n vertices; they do fit on 2n+1
    for n in range(1, 7):
        assert jump_sets(2 * n, n) == []
        assert jump_sets(2 * n + 1, n) == [tuple(range(2, 2 * n + 1, 2))]


def test_jump_min_matches_required_edges():
    for n in range(1, 9):
        pattern, spec = jump_min(n)
        assert pattern.m == 2 * n + 1
        assert spec.sorted_jumps == tuple(2 * i for i in range(1, n + 1))
        # the oracle's own copy of conditions 1-2, not required_edges,
        # which jump_min is built from
        assert pattern.sorted_edges == member_edges(pattern.m, spec.sorted_jumps)


def test_jump_min_edge_counts():
    assert jump_min(1)[0].sorted_edges == [(1, 2, 3)]
    assert len(jump_min(2)[0].edges) == 6
    assert len(jump_min(3)[0].edges) == 11
    assert len(jump_min(4)[0].edges) == 16


def test_required_edges_match_the_conditions():
    for m in range(3, 12):
        for n in range(1, (m - 1) // 2 + 1):
            for J in jump_sets(m, n):
                got = required_edges(m, frozenset(J))
                assert got.sorted_edges == member_edges(m, J)


def test_required_edges_rejects_bad_jumps():
    with pytest.raises(ValueError):
        required_edges(5, {1})
    with pytest.raises(ValueError):
        required_edges(5, {2, 3})


def test_required_pairs_live_in_associated_graph():
    for m in range(3, 16):
        for n in range(1, (m - 1) // 2 + 1):
            for J in jump_sets(m, n):
                gh = associated_graph(m, frozenset(J))
                for (a, b, c) in required_edges(m, frozenset(J)).edges:
                    assert (a, b) in gh.pairs
                    assert (b, c) in gh.pairs


def test_associated_graph_shape():
    gh = associated_graph(5, {2, 4})
    assert gh.pairs == frozenset(
        {(1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (3, 5)}
    )


def test_validate_jump_member_reports():
    pattern, spec = jump_min(2)
    assert validate_jump_member(pattern, spec).valid
    report = validate_jump_member(pattern, {2, 3})
    assert not report.valid
    assert report.reason == "consecutive jumps 2 and 3"
    smaller = monotone_path(5)
    report = validate_jump_member(smaller, {2, 4})
    assert not report.valid
    assert report.missing_edge == (1, 3, 4)
    assert "missing" in report.reason


def test_power_path_contains_tripled_jumps():
    # jumps at 2, 5, 8, ... on 3n vertices fit inside the fourth power
    for n in range(1, 31):
        m = 3 * n
        jumps = frozenset(3 * i - 1 for i in range(1, n + 1))
        need = required_edges(m, jumps)
        assert need.edges <= power_path(m, 4).edges
