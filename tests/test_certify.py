"""Beta chains, profiles, downset counts, the triangle finder and the
round-trip between blue members and monochromatic triangles."""

import random
from itertools import product
from math import comb

import pytest

from jumpramsey.certify import (
    BetaChain,
    CertificationError,
    beta_table,
    count_downsets,
    extract_blue_jump_witness,
    gh_triangle_finder,
    profile_table,
    validate_beta_chain,
    verify_profile_property,
)
from jumpramsey.construct import lift, pentagon_coloring
from jumpramsey.core import Color, PairColoring, TripleColoring, all_pairs
from jumpramsey.detect import _alpha_pass, _red_blocks, alpha_table, find_blue_jump_member
from jumpramsey.family import associated_graph, jump_min, required_edges
from oracles import (
    alpha_map,
    chain_beta,
    gh_peel,
    grid_downsets,
    mono_triangles,
    naive_alpha_values,
    naive_beta_table,
    naive_profiles,
    random_triples,
)


def test_beta_table_on_random_hosts():
    rng = random.Random(47)
    for _ in range(30):
        N = rng.randint(3, 7)
        c = random_triples(N, rng)
        table = beta_table(c)
        alphas = alpha_map(c)
        for u in range(1, N + 1):
            for v in range(u + 1, N + 1):
                assert table.beta(u, v) == chain_beta(c, u, v, alphas)


def test_beta_chains_are_valid_and_end_at_their_pair():
    rng = random.Random(53)
    for _ in range(20):
        c = random_triples(7, rng)
        table = beta_table(c)
        for u in range(1, 8):
            for v in range(u + 1, 8):
                chain = table.chain(u, v)
                if table.beta(u, v) == 1:
                    assert chain is None
                    continue
                assert chain.ell == table.beta(u, v)
                assert chain.final_pair == (u, v)
                validate_beta_chain(c, chain, table.alpha)


def random_lift(N, k, rng):
    return lift(PairColoring(N, k, tuple(rng.randint(1, k) for _ in range(comb(N, 2)))))


def lift_hosts():
    rng = random.Random(79)
    return [random_lift(rng.randint(20, 40), rng.randint(2, 4), rng) for _ in range(6)]


def density_hosts():
    """Random triple colourings, not lifts, at five red densities from 1/8
    to 7/8: the red-heavy ones give alpha up to about N, the blue-heavy
    ones chains of several blocks.  Yields (N, density, coloring)."""
    rng = random.Random(101)
    for N in range(25):
        T = comb(N, 3)
        for density in range(5):
            a, b, extra = rng.getrandbits(T), rng.getrandbits(T), rng.getrandbits(T)
            bits = (a & b & extra, a & b, a, a | b, a | b | extra)[density]
            yield N, density, TripleColoring(N, bits)


def test_alpha_pass_masks_match_the_alpha_values():
    # the masks the beta table reads off the alpha pass: rows[a][u] holds
    # v exactly where alpha is a, for a up to the largest value
    hosts = lift_hosts() + [c for _, _, c in density_hosts()]
    for c in hosts:
        N = c.N
        for target in Color:
            values, rows = _alpha_pass(_red_blocks(c, target))
            alpha = dict(zip(all_pairs(N), naive_alpha_values(c, target)))
            assert tuple(values) == tuple(alpha.values())
            top = max(alpha.values(), default=1)
            assert len(rows) == top + 1
            assert rows[0] == [0] * (N + 1)
            for a in range(1, top + 1):
                assert rows[a][0] == 0
                for u in range(1, N + 1):
                    assert rows[a][u] == sum(1 << v for v in range(u + 1, N + 1)
                                             if alpha[u, v] == a)


def plain_chains(table):
    """The table's chains in naive_beta_table's form."""
    return tuple(
        None if ch is None else (ch.vertices, ch.block_values) for ch in table.chains
    )


def test_beta_table_matches_plain_dp_on_lifts():
    for c in lift_hosts():
        table = beta_table(c)
        betas, chains = naive_beta_table(c)
        assert table.betas == betas
        assert plain_chains(table) == chains


def test_beta_table_matches_plain_dp_on_random_hosts():
    deepest = widest = 0
    for N, density, c in density_hosts():
        table = beta_table(c)
        betas, chains = naive_beta_table(c)
        assert table.betas == betas, (N, density)
        assert plain_chains(table) == chains, (N, density)
        deepest = max(deepest, table.max_beta)
        widest = max(widest, table.alpha.max_value)
    assert deepest >= 5 and widest >= 20


def test_beta_table_breaks_ties_as_the_plain_dp():
    # all blue: alpha is 1 on every pair, so every triple is a block and
    # many t, and many s, tie; the smallest t, then the smallest s, must
    # win.  All red: alpha(u, v) = u, and no triple is a block
    for N in range(3, 15):
        for c in (TripleColoring.all_blue(N), TripleColoring.all_red(N)):
            table = beta_table(c)
            betas, chains = naive_beta_table(c)
            assert table.betas == betas, N
            assert plain_chains(table) == chains, N


def test_profile_table_matches_definition():
    hosts = [(c.N, None, c) for c in lift_hosts()] + list(density_hosts())
    for N, density, c in hosts:
        got = {v: stair.maxB for v, stair in profile_table(c).items()}
        assert got == naive_profiles(c), (N, density)


def test_beta_table_builds_chains_only_on_demand(monkeypatch):
    built = []
    check = BetaChain.__post_init__
    monkeypatch.setattr(BetaChain, "__post_init__",
                        lambda self: (built.append(self.vertices), check(self)))
    c = random_lift(30, 3, random.Random(89))
    table = beta_table(c)
    assert built == []
    pairs = [(u, v) for u in range(1, 31) for v in range(u + 1, 31)
             if table.beta(u, v) >= 2]
    u, v = pairs[-1]
    chain = table.chain(u, v)
    assert built == [chain.vertices]
    assert len(table.chains) == comb(30, 2)
    assert len(built) == 1 + len(pairs)


def test_beta_table_on_small_lifts():
    rng = random.Random(83)
    for _ in range(12):
        N = rng.randint(5, 12)
        c = random_lift(N, rng.randint(2, 4), rng)
        table = beta_table(c)
        alphas = alpha_map(c)
        for u in range(1, N + 1):
            for v in range(u + 1, N + 1):
                assert table.beta(u, v) == chain_beta(c, u, v, alphas)


def test_profile_property_builds_one_beta_table(monkeypatch):
    import jumpramsey.certify as certify

    calls = []

    def counted(c):
        calls.append(c)
        return beta_table(c)

    monkeypatch.setattr(certify, "beta_table", counted)
    c = random_lift(30, 3, random.Random(89))
    report = verify_profile_property(c, 2)
    assert len(calls) == 1
    assert tuple(certify.profile_table(c)[vs[0]] for vs in report.groups) == (
        report.group_profiles
    )


def test_beta_on_all_blue_host():
    c = TripleColoring.all_blue(5)
    table = beta_table(c)
    assert table.beta(1, 2) == 1
    assert table.beta(2, 3) == 2
    assert table.beta(4, 5) == 3
    assert table.max_beta == 3
    assert table.chain(4, 5).vertices == (1, 2, 3, 4, 5)


def test_beta_chain_structure_checks():
    with pytest.raises(ValueError):
        BetaChain((1, 2, 3, 4), (1,), 2)  # even vertex count
    with pytest.raises(ValueError):
        BetaChain((1, 3, 2), (1,), 2)  # not increasing
    with pytest.raises(ValueError):
        BetaChain((1, 2, 3, 4, 5), (1, 2), 3)  # values increase
    chain = BetaChain((1, 2, 3, 4, 5), (2, 1), 3)
    assert chain.block(1) == (1, 2, 3)
    assert chain.block(2) == (3, 4, 5)
    with pytest.raises(IndexError):
        chain.block(3)


def test_validate_beta_chain_rejects_wrong_values():
    c = TripleColoring.all_blue(5)
    with pytest.raises(CertificationError):
        validate_beta_chain(c, BetaChain((1, 2, 3), (4,), 2))
    with pytest.raises(CertificationError):
        validate_beta_chain(c, BetaChain((1, 2, 6), (1,), 2))


def test_extract_blue_member_from_deep_chains():
    # every pair at beta 3 or more pins down a blue minimal 2-jump pattern
    rng = random.Random(59)
    pattern = jump_min(2)[0]
    seen = 0
    for _ in range(600):
        c = random_triples(9, rng)
        table = beta_table(c)
        for u in range(1, 10):
            for v in range(u + 1, 10):
                if table.beta(u, v) < 3:
                    continue
                seen += 1
                full = table.chain(u, v)
                chain = BetaChain(full.vertices[:5], full.block_values[:2], 3)
                emb = extract_blue_jump_witness(c, chain)
                assert emb.vertices == chain.vertices
                for (a, b, cc) in pattern.edges:
                    assert c.is_blue(
                        emb.vertices[a - 1], emb.vertices[b - 1], emb.vertices[cc - 1]
                    )
    assert seen > 20


def test_extract_rejects_short_or_invalid_chains():
    c = TripleColoring.all_blue(5)
    with pytest.raises(CertificationError):
        extract_blue_jump_witness(c, BetaChain((1,), (), 1))
    with pytest.raises(CertificationError):
        extract_blue_jump_witness(c, BetaChain((1, 2, 3), (2,), 2))


def test_profile_staircases_describe_predecessors():
    rng = random.Random(61)
    for _ in range(20):
        N = rng.randint(3, 8)
        c = random_triples(N, rng)
        table = beta_table(c)
        profiles = profile_table(c)
        assert profiles[1].width == 0
        for v in range(1, N + 1):
            stair = profiles[v]
            pts = [
                (table.alpha.value(u, v), table.beta(u, v)) for u in range(1, v)
            ]
            assert stair.width == max((a for a, _ in pts), default=0)
            for a in range(1, stair.width + 1):
                for b in range(1, 10):
                    dominated = any(a <= pa and b <= pb for pa, pb in pts)
                    assert stair.contains(a, b) == dominated


def test_downsets_against_binomials_and_grid_scan():
    assert [count_downsets(n) for n in range(1, 7)] == [2, 6, 20, 70, 252, 924]
    for n in range(0, 9):
        assert count_downsets(n) == comb(2 * n, n)
    for n in range(0, 4):
        assert count_downsets(n) == grid_downsets(n)
    with pytest.raises(ValueError):
        count_downsets(-1)


def test_profile_property_on_all_blue_host():
    report = verify_profile_property(TripleColoring.all_blue(5), 1)
    assert report.groups == ((1,), (2,), (3, 4), (5,))
    assert report.clean
    assert not report.preconditions_hold  # a blue member exists
    assert report.blue_member is not None
    assert report.red_depth == 1
    chain = report.extended_chain
    assert chain.vertices == (1, 2, 3) and chain.block_values == (1,)


def test_profile_property_on_pentagon_lift():
    report = verify_profile_property(lift(pentagon_coloring()), 2)
    assert report.clean
    assert report.preconditions_hold
    assert report.extended_chain is None
    assert not report.has_red_path


def test_profile_property_stays_clean_on_random_hosts():
    rng = random.Random(67)
    for _ in range(80):
        N = rng.randint(4, 8)
        c = random_triples(N, rng)
        report = verify_profile_property(c, rng.randint(1, 2))
        assert report.clean
        if report.extended_chain is not None:
            validate_beta_chain(c, report.extended_chain)
        if report.blue_member is not None:
            verts, spec = report.blue_member
            for (a, b, cc) in required_edges(len(verts), spec).edges:
                assert c.is_blue(verts[a - 1], verts[b - 1], verts[cc - 1])


def gh_colorings(m, jumps, palette):
    """Every chi on the associated graph with values from the palette."""
    pairs = associated_graph(m, frozenset(jumps)).sorted_pairs
    for values in product(palette, repeat=len(pairs)):
        yield dict(zip(pairs, values))


def non_increasing(m, jumps, chi):
    return all(
        chi[(a, b)] >= chi[(b, c)]
        for (a, b, c) in required_edges(m, frozenset(jumps)).sorted_edges
    )


def test_gh_triangle_finder_exhaustive_one_jump():
    hits = 0
    for chi in gh_colorings(3, {2}, (1,)):
        tri = gh_triangle_finder(3, {2}, chi)
        assert tri == (1, 2, 3)
        hits += 1
    assert hits == 1
    # two colors overflow the one-jump palette
    bad = {(1, 2): 2, (2, 3): 1, (1, 3): 1}
    with pytest.raises(ValueError):
        gh_triangle_finder(3, {2}, bad)


def test_gh_triangle_finder_exhaustive_two_jumps():
    checked = 0
    for chi in gh_colorings(5, {2, 4}, (1, 2)):
        if not non_increasing(5, {2, 4}, chi):
            with pytest.raises(CertificationError):
                gh_triangle_finder(5, {2, 4}, chi)
            continue
        tri = gh_triangle_finder(5, {2, 4}, chi)
        scan = mono_triangles(associated_graph(5, {2, 4}).pairs, chi)
        assert tri in scan
        checked += 1
    assert checked > 0


def test_gh_triangle_finder_three_jumps_exhaustive():
    pairs = associated_graph(7, {2, 4, 6}).sorted_pairs
    need = required_edges(7, {2, 4, 6}).sorted_edges
    found = 0
    for values in product((1, 2, 3), repeat=len(pairs)):
        chi = dict(zip(pairs, values))
        if not all(chi[(a, b)] >= chi[(b, c)] for (a, b, c) in need):
            continue
        tri = gh_triangle_finder(7, {2, 4, 6}, chi)
        assert tri in mono_triangles(pairs, chi)
        found += 1
    assert found > 100


def random_gh_input(rng):
    """A random valid (m, jumps, chi): uniform chi kept when it never
    increases along a required edge; else a random non-increasing function
    of the right endpoint, or values drawn from the last pair back, each at
    least that of the pairs it must dominate."""
    m = rng.randint(3, 14)
    jumps = set()
    for v in rng.sample(range(2, m), m - 2):
        if rng.random() < 0.7 and v - 1 not in jumps and v + 1 not in jumps:
            jumps.add(v)
    jumps = jumps or {rng.randrange(2, m)}
    n = len(jumps)
    pairs = associated_graph(m, jumps).sorted_pairs
    need = required_edges(m, jumps).sorted_edges
    for _ in range(5):
        chi = {p: rng.randint(1, n) for p in pairs}
        if non_increasing(m, jumps, chi):
            return m, jumps, chi
    if rng.random() < 0.5:
        low = sorted((rng.randint(1, n) for _ in range(m + 1)), reverse=True)
        return m, jumps, {(a, b): low[b] for (a, b) in pairs}
    chi = {}
    for (a, b) in sorted(pairs, key=lambda p: -p[1]):
        least = max((chi[(b, c)] for (x, y, c) in need if (x, y) == (a, b)), default=1)
        chi[(a, b)] = rng.choice((least, rng.randint(least, n)))
    return m, jumps, chi


def test_gh_triangle_finder_matches_the_recursive_peel():
    rng = random.Random(2801)
    closed_at = set()
    for _ in range(3000):
        m, jumps, chi = random_gh_input(rng)
        tri = gh_triangle_finder(m, jumps, chi)
        assert tri == gh_peel(m, jumps, chi), (m, sorted(jumps), chi)
        closed_at.add((sorted(jumps).index(tri[1]), len(jumps) - 1))
    # (closing jump, last jump) by index: with 3 and with 5 jumps the peel
    # closes at the first, a middle and the last one
    assert {(0, 2), (1, 2), (2, 2), (0, 4), (4, 4)} <= closed_at


def test_gh_triangle_finder_rejects_bad_domains():
    with pytest.raises(ValueError) as exc:
        gh_triangle_finder(3, {2}, {(1, 2): 1, (2, 3): 1})
    assert "missing pair (1, 3)" in str(exc.value)
    with pytest.raises(ValueError) as exc:
        gh_triangle_finder(
            3, {2}, {(1, 2): 1, (2, 3): 1, (1, 3): 1, (1, 4): 1}
        )
    assert "extra" in str(exc.value)
    with pytest.raises(ValueError):
        gh_triangle_finder(3, set(), {(1, 2): 1, (2, 3): 1})


def test_member_witness_round_trip():
    # pull the pair coloring back along a detected blue member; the finder
    # must then produce a triangle that is monochromatic in the host
    rng = random.Random(73)
    applicable = 0
    for _ in range(150):
        N, k = 9, 2
        chi = PairColoring.from_function(N, k, lambda u, v: rng.randint(1, k))
        found = find_blue_jump_member(lift(chi), k)
        if found is None:
            continue
        applicable += 1
        verts, spec = found
        m = len(verts)
        chi_h = {
            (a, b): chi.color(verts[a - 1], verts[b - 1])
            for (a, b) in associated_graph(m, spec).sorted_pairs
        }
        x, y, z = gh_triangle_finder(m, spec, chi_h)
        hx, hy, hz = verts[x - 1], verts[y - 1], verts[z - 1]
        assert chi.color(hx, hy) == chi.color(hy, hz) == chi.color(hx, hz)
    assert applicable > 30
