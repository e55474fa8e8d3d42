"""End-to-end command tests through dispatch with in-memory streams."""

import argparse
import hashlib
import io
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from jumpramsey import cli, detect, search
from jumpramsey.cli import WORKERS_ENV, dispatch
from jumpramsey.core import (
    PairColoring,
    TripleColoring,
    parse_pair_coloring,
    parse_pattern,
    parse_triple_coloring,
    parse_witness,
    serialize_pair_coloring,
    serialize_triple_coloring,
)
from jumpramsey.construct import (
    gf16_coloring,
    lift,
    paley_coloring,
    pentagon_coloring,
    product_coloring,
)
from jumpramsey.family import monotone_path


def run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    code = dispatch(argv, stdin=io.StringIO(stdin), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_gen_path_roundtrips():
    code, out, _ = run(["gen", "path", "--m", "5"])
    assert code == 0
    pattern, jumps = parse_pattern(out)
    assert pattern.m == 5 and jumps is None
    assert (2, 3, 4) in pattern.edges


def test_gen_imin_carries_jumps():
    code, out, _ = run(["gen", "imin", "--n", "2"])
    assert code == 0
    pattern, jumps = parse_pattern(out)
    assert jumps == (2, 4)
    assert len(pattern.edges) == 6


def test_gen_pentagon_parses_back():
    code, out, _ = run(["gen", "pentagon"])
    assert code == 0
    assert parse_pair_coloring(out) == pentagon_coloring()


def test_gen_schur_default_and_custom():
    code, out, _ = run(["gen", "schur"])
    assert code == 0
    assert parse_pair_coloring(out).N == 14
    code, out, _ = run(["gen", "schur", "--classes", "1/2"])
    assert code == 0
    assert parse_pair_coloring(out).N == 3
    code, _, err = run(["gen", "schur", "--classes", "1/1"])
    assert code == 2 and "error:" in err


def test_gen_schur_rejects_a_bad_class_list():
    assert run(["gen", "schur", "--classes", "1,x"]) == (2, "", "error: bad class list '1,x'\n")


def test_gen_paley_argument_check():
    code, _, err = run(["gen", "paley", "--q", "15"])
    assert code == 2 and "error:" in err


def test_gen_product_reads_files(tmp_path):
    path = tmp_path / "pent.pairs"
    path.write_text(serialize_pair_coloring(pentagon_coloring()))
    code, out, _ = run(
        ["gen", "product", "--left", str(path), "--right", str(path)]
    )
    assert code == 0
    assert parse_pair_coloring(out).N == 25
    code, _, err = run(
        ["gen", "product", "--left", str(tmp_path / "no"), "--right", str(path)]
    )
    assert code == 2 and "cannot read" in err


def test_lift_pipeline():
    _, pairs, _ = run(["gen", "pentagon"])
    code, triples, _ = run(["lift"], stdin=pairs)
    assert code == 0
    assert parse_triple_coloring(triples) == lift(pentagon_coloring())


def test_detect_jumps_on_pentagon_lift_finds_nothing():
    _, pairs, _ = run(["gen", "pentagon"])
    _, triples, _ = run(["lift"], stdin=pairs)
    code, out, _ = run(["detect", "jumps", "--n", "2"], stdin=triples)
    assert code == 1 and out == ""


def test_detect_jumps_on_all_blue_host():
    host = "triples 5\n" + "0" * 10 + "\n"
    code, out, _ = run(["detect", "jumps", "--n", "2"], stdin=host)
    assert code == 0
    w = parse_witness(out)
    assert w.vertices == (1, 2, 3, 4, 5)
    assert w.jumps == (2, 4)


@pytest.mark.parametrize("bad", ["2", "_", " ", "\u00e9"])
def test_host_line_of_the_right_length_with_a_stray_character(bad):
    host = "triples 5\n01" + bad + "0101010\n"
    code, out, err = run(["detect", "redpath", "--m", "3"], stdin=host)
    assert (code, out) == (2, "")
    assert err == "error: line 2: expected 10 characters over 0/1, got 10\n"


def test_detect_redpath_truncates_to_requested_length():
    host = "triples 5\n" + "1" * 10 + "\n"
    code, out, _ = run(["detect", "redpath", "--m", "4"], stdin=host)
    assert code == 0
    assert parse_witness(out).vertices == (1, 2, 3, 4)
    code, _, _ = run(["detect", "redpath", "--m", "6"], stdin=host)
    assert code == 1


def test_detect_redpath_goes_through_the_module_longest_red_path(monkeypatch):
    # a wrapper bound on the detect module, as the benchmark's layer tracer
    # binds one, sees every detect redpath run
    calls = []
    original = detect.longest_red_path

    def counted(c):
        calls.append(c.N)
        return original(c)

    monkeypatch.setattr(detect, "longest_red_path", counted)
    host = "triples 5\n" + "1" * 10 + "\n"
    assert run(["detect", "redpath", "--m", "4"], stdin=host) == (
        0, "witness\nvertices 1 2 3 4\n", "")
    assert calls == [5]


def test_detect_redpath_rejects_negative_m():
    # a negative m would slice the witness from its end
    host = "triples 5\n" + "1" * 10 + "\n"
    for m in ("-1", "-5"):
        assert run(["detect", "redpath", "--m", m], stdin=host) == (
            2, "", "error: m must be nonnegative\n")
    assert run(["gen", "path", "--m", "-1"]) == (2, "", "error: m must be nonnegative\n")
    code, out, _ = run(["detect", "redpath", "--m", "0"], stdin=host)
    assert code == 0 and parse_witness(out).vertices == ()


def test_detect_redpath_needs_m_vertices():
    # the empty host has depth 0, which alone would pass for a path on 1 vertex
    assert run(["detect", "redpath", "--m", "1"], stdin="triples 0\n\n") == (1, "", "")
    assert run(["detect", "redpath", "--m", "0"], stdin="triples 0\n\n") == (
        0, "witness\nvertices \n", "")
    assert run(["detect", "redpath", "--m", "1"], stdin="triples 1\n\n") == (
        0, "witness\nvertices 1\n", "")


def test_detect_pattern_subcommand(tmp_path):
    _, pat, _ = run(["gen", "imin", "--n", "2"])
    patfile = tmp_path / "i2.pattern"
    patfile.write_text(pat)
    host = "triples 5\n" + "0" * 10 + "\n"
    code, out, _ = run(
        ["detect", "pattern", "--pattern", str(patfile)], stdin=host
    )
    assert code == 0
    assert parse_witness(out).vertices == (1, 2, 3, 4, 5)


def test_detect_clique_reads_pair_host():
    _, pairs, _ = run(["gen", "pentagon"])
    code, _, _ = run(["detect", "clique", "--m", "3"], stdin=pairs)
    assert code == 1
    code, out, _ = run(["detect", "clique", "--m", "2"], stdin=pairs)
    assert code == 0
    assert len(parse_witness(out).vertices) == 2


def test_table_outputs_parse():
    host = "triples 5\n" + "0" * 10 + "\n"
    code, out, _ = run(["table", "alpha"], stdin=host)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "alpha 5"
    assert lines[1] == "1 2 1"
    code, out, _ = run(["table", "beta"], stdin=host)
    assert code == 0
    assert out.splitlines()[-1] == "4 5 3"
    code, out, _ = run(["table", "profiles"], stdin=host)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "profiles 5"
    assert lines[1] == "1"
    assert lines[-1] == "5 3"


# (exit code, sha256 of stdout) per command; a faster table or text path
# must leave these bytes as they are
TABLE_PINS = {
    "gf16-x-pentagon": {
        "lift": (0, "4c6537f3fa3ba6df4115cd7708992eae2f1a784d37fe6793c0a57dd223a92944"),
        "table alpha": (0, "984e19a67750c4853693c263b47966dba11030f1691a6a68f3e17a200ff57b26"),
        "table beta": (0, "28e4cc198e3163605d020b9759099e587a2889273175bd4ee1bbac045a43ba3f"),
        "table profiles": (0, "e50106cc7ff83a4058e3962c0b2fbd6c9df3d26372d9f51a84acbf515e480283"),
        "certify profileprop --n 2": (0, "3c1ab59a34ea6e210ae5e4ef89977294fe45cb478db27544148d821c21ef0215"),
        "certify profileprop --n 3": (0, "8bcd50469f16cc4aafcbe4b3507b1cb30f1fc3ea81fecfa1ebcefe6fc4b0f153"),
        "detect redpath --m 5": (0, "7822efd65a99e23a84c340d7ad42667940b89a58329145b7945ae160553df7c4"),
        # red depth 5: the last m that prints a witness, and the first that exits 1
        "detect redpath --m 6": (0, "1a7669fcd4d2ec69d7f034c21f6fb42283ea473d322af59d022410693e4bffff"),
        "detect redpath --m 7": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "detect jumps --n 1": (0, "b492f95b0d9f4d59b16ad61ef428a0989a5a3dcd1362cf1d328ad18e5d84e9d4"),
        "detect jumps --n 2": (0, "b00cdf3491796eff4dcf32078abaf203deb3b219d6c4db9ad4820e4025212bb7"),
        "detect jumps --n 3": (0, "4ba2cd463a3a4b9fdb67638732f31e3678720dc74fd816e7fa45784eebdb99eb"),
    },
    # the deepest chains of the pinned hosts: max beta 10 at N = 85
    "paley17-x-pentagon": {
        "lift": (0, "7d691eedcb8ccf91cddbd384d16cb630cf5656a2d30e31d49e803accca4ed768"),
        "table alpha": (0, "f9fcedc51191d01966bdaf7ebf1949e4ac280011d9ed2d62d1c099b6bbf14a1f"),
        # the witness 1 6 21 22 24
        "detect redpath --m 5": (0, "cf670cb2ab1a4582e889a7ccdf9043e11571ef26f18aed85b1c0fb6df4eda304"),
        "table beta": (0, "6b5609fb922c4a018f0dea4c6fb893d674e074ddb3019d777493a77c19f82d98"),
        "table profiles": (0, "d1c913fd4a11c484debf03caa651ee978315098f1211a8dfa24720f22333a974"),
        "certify profileprop --n 2": (0, "a8916c91aabee1bca784cfb46de6c07552f8dbb2d0ccbdd0ef45f5abd8727dd8"),
        "certify profileprop --n 3": (0, "997d3ddcedef0a9447acf98d87697b489949499d73cadfa6d8fac937bfd989e8"),
        "detect jumps --n 1": (0, "b492f95b0d9f4d59b16ad61ef428a0989a5a3dcd1362cf1d328ad18e5d84e9d4"),
        "detect jumps --n 2": (0, "b00cdf3491796eff4dcf32078abaf203deb3b219d6c4db9ad4820e4025212bb7"),
        # the witness 1 2 3 4 5 6 11 16 with jumps 2 5 7
        "detect jumps --n 3": (0, "276c55c1e83e7bf35dad992ca97908362d91f81f9d9b748e469a31e0c40dcd00"),
    },
    "random-40-4": {
        "lift": (0, "bcb89e0a7152eeee0103292f7ba60198bb68913862b9cfcd703a824d6e545701"),
        "table alpha": (0, "cd845043ca524dc2a66ec31b09488d556a7854d76c60267dae24caf0dce86ed1"),
        "table beta": (0, "e6ae01e7f6c22b68d042b30c4483c93e6247c9f1b98c01e3cca074b22eb6b23a"),
        "table profiles": (0, "8c7b4b2d7c7d367d8f49aff26296b15625fdcab385ac2fbe5ce6a2a18ce9fa73"),
        "certify profileprop --n 2": (0, "1dacccdcdb32c85024c71c444ab6292da4a52739938e87d75f0d2e51545210d7"),
        "certify profileprop --n 3": (0, "609c7a46316838f241f30a8a8b042ebccc6d5409c45c76964c7003058a681486"),
        "detect redpath --m 5": (0, "32a692c0af0c082aa8ebeea74496e068c2d7ebddba1bc654a9863b3e9575b820"),
        "detect jumps --n 1": (0, "b492f95b0d9f4d59b16ad61ef428a0989a5a3dcd1362cf1d328ad18e5d84e9d4"),
        "detect jumps --n 2": (0, "a0212c3f41c7bfa64d5d7a99814caf2e5c6d9ac73aadecb9d3f002e8e676ec89"),
        "detect jumps --n 3": (0, "d04cb430a937408987b06f9806f84afb2f963f13ffb1f1017a9166158c980bdb"),
    },
}


def test_table_and_certify_bytes_are_pinned():
    rng = random.Random(40)
    hosts = {
        "gf16-x-pentagon": product_coloring(gf16_coloring(), pentagon_coloring()),
        "paley17-x-pentagon": product_coloring(paley_coloring(17), pentagon_coloring()),
        "random-40-4": PairColoring(
            40, 4, tuple(rng.randint(1, 4) for _ in range(comb(40, 2)))
        ),
    }
    for label, chi in hosts.items():
        _, triples, _ = run(["lift"], stdin=serialize_pair_coloring(chi))
        for command, (want_code, want_digest) in TABLE_PINS[label].items():
            stdin = serialize_pair_coloring(chi) if command == "lift" else triples
            code, out, err = run(command.split(), stdin=stdin)
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert (code, digest, err) == (want_code, want_digest, ""), (label, command)


# sha256 of the detect pattern witness on the paley17 x pentagon lift per
# pattern from gen
PATTERN_PINS = {
    "power --m 6 --t 4": "93dd2cec2f965424cdc1abd96d92b1dd04fe645640bf55c78fb884b2c179f3ee",
    "power --m 9 --t 4": "21e69b29100449163607c2c2da5ae80fa3dab7cb984c031d56fcbd5f2d34c4df",
    "imin --n 3": "5d5b6e03581e14e791cfd4ba591debd73de370c99973c303bd497c899dcc3d0c",
}


def test_detect_pattern_bytes_are_pinned(tmp_path):
    chi = product_coloring(paley_coloring(17), pentagon_coloring())
    _, triples, _ = run(["lift"], stdin=serialize_pair_coloring(chi))
    patfile = tmp_path / "p.pattern"
    for gen_args, want_digest in PATTERN_PINS.items():
        _, pattern, _ = run(["gen", *gen_args.split()])
        patfile.write_text(pattern)
        code, out, err = run(["detect", "pattern", "--pattern", str(patfile)], stdin=triples)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest, err) == (0, want_digest, ""), gen_args


def test_certify_downsets():
    code, out, _ = run(["certify", "downsets", "--n", "4"])
    assert code == 0 and out.strip() == "70"


def test_certify_downsets_large_grid():
    # the count is the closed form C(2n, n), so no stack depth grows with n
    code, out, _ = run(["certify", "downsets", "--n", "1500"])
    assert code == 0 and out == f"{comb(3000, 1500)}\n"


def test_certify_downsets_past_the_digit_limit_of_str():
    # C(16000, 8000) has 4,815 digits, more than str() converts by default;
    # it is printed exactly, with no interpreter-wide setting changed
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    code, out, err = run(["certify", "downsets", "--n", "8000"])
    assert (code, err) == (0, "")
    digits, newline = out[:-1], out[-1]
    assert newline == "\n" and digits.isdigit() and len(digits) == 4815
    assert digits[:12] == "190460056139" and digits[-12:] == "976447208000"
    assert limit() == before
    # a count under the limit prints as str() prints it
    assert run(["certify", "downsets", "--n", "3000"])[:2] == (0, f"{comb(6000, 3000)}\n")


def test_internal_failure_exits_four(monkeypatch):
    # a command that runs out of stack has no answer, so it must not exit 1
    def overflow(n):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("jumpramsey.cli.count_downsets", overflow)
    code, out, err = run(["certify", "downsets", "--n", "4"])
    assert code == 4
    assert out == ""
    assert err.startswith("internal error:") and "RecursionError" in err


def test_any_command_exception_exits_four(monkeypatch):
    # a bug in a table (here a TypeError) decides nothing either
    def broken(host):
        raise TypeError("planted")

    monkeypatch.setattr("jumpramsey.cli.beta_table", broken)
    host = serialize_triple_coloring(TripleColoring.all_blue(5))
    code, out, err = run(["table", "beta"], stdin=host)
    assert code == 4
    assert out == ""
    assert err.startswith("internal error:") and "TypeError" in err


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [
    ["search", "--n", "9", "--red", "path:5", "--blue", "path:4"],
    ["certify", "downsets", "--n", "3"],
])
def test_closed_stdout_exits_141(argv, unbuffered):
    # a reader that has gone decides nothing, so it must not read as exit 1;
    # unbuffered, the write in dispatch fails, buffered, the flush in main
    read, write = os.pipe()
    os.close(read)
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run([sys.executable, "-m", "jumpramsey", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr


def test_certify_ghtriangle(tmp_path):
    chi = tmp_path / "chi.txt"
    chi.write_text("1 2 1\n2 3 1\n1 3 1\n")
    code, out, _ = run(
        ["certify", "ghtriangle", "--m", "3", "--jumps", "2", "--chi", str(chi)]
    )
    assert code == 0 and out.strip() == "1 2 3"
    chi.write_text("1 2 1\n2 3 1\n1 3 1\n1 3 2\n")
    code, _, err = run(
        ["certify", "ghtriangle", "--m", "3", "--jumps", "2", "--chi", str(chi)]
    )
    assert code == 2 and "duplicate" in err


def test_certify_ghtriangle_peels_a_thousand_jumps(tmp_path):
    # chi(a, b) = 1001 - #{jumps <= b}: each jump w the peel meets has a
    # least color one above the prefix past it, so it runs down to jump 2
    jumps = range(2, 2001, 2)
    pairs = [(i, i + 1) for i in range(1, 2001)] + [(v - 1, v + 1) for v in jumps]
    chi = tmp_path / "chi.txt"
    chi.write_text("".join(f"{a} {b} {1001 - b // 2}\n" for a, b in pairs))
    code, out, err = run(["certify", "ghtriangle", "--m", "2001", "--jumps",
                          ",".join(map(str, jumps)), "--chi", str(chi)])
    assert (code, out, err) == (0, "1 2 3\n", "")


def test_certify_witness_roundtrip(tmp_path):
    chain = tmp_path / "chain.witness"
    chain.write_text("witness\nvertices 1 2 3 4 5\nblocks 1 1\n")
    host = "triples 5\n" + "0" * 10 + "\n"
    code, out, _ = run(
        ["certify", "witness", "--chain", str(chain)], stdin=host
    )
    assert code == 0
    w = parse_witness(out)
    assert w.vertices == (1, 2, 3, 4, 5) and w.jumps == (2, 4)
    chain.write_text("witness\nvertices 1 2 3 4 5\n")
    code, _, err = run(
        ["certify", "witness", "--chain", str(chain)], stdin=host
    )
    assert code == 2 and "blocks" in err


def test_certify_profileprop_reports():
    host = "triples 5\n" + "0" * 10 + "\n"
    code, out, _ = run(["certify", "profileprop", "--n", "1"], stdin=host)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "profileprop N=5 n=1"
    assert "group 3 4" in lines
    assert "blue-member 1 2 3 jumps 2" in lines
    assert lines[-1] == "status clean"


def test_search_single_level_sat(tmp_path):
    out_file = tmp_path / "w.triples"
    code, _, err = run(
        [
            "search",
            "--n",
            "6",
            "--red",
            "path:4",
            "--blue",
            "path:4",
            "--output",
            str(out_file),
        ]
    )
    assert code == 0
    assert "sat nodes=18" in err
    c = parse_triple_coloring(out_file.read_text())
    assert c.bitstring() == "10000001110001111110"


def test_search_single_level_unsat_certificate():
    code, out, _ = run(
        ["search", "--n", "7", "--red", "path:4", "--blue", "path:4"]
    )
    assert code == 1
    assert out == (
        "unsat N=7\n"
        "red path:4\n"
        "blue path:4\n"
        "budget 1000000000\n"
        "split-depth 4\n"
        "nodes 102\n"
        "max-depth 16\n"
    )


def test_search_depth_is_not_bound_by_the_recursion_limit():
    # C(46, 2) = 1035 pairs on one branch, more than the default limit
    code, out, err = run(
        ["search", "--n", "46", "--red", "path:3", "--blue", "path:60"]
    )
    assert code == 0
    assert err == "sat nodes=1035 max-depth=1035\n"
    assert parse_triple_coloring(out).bits == 0


def test_search_certificate_names_the_power_spec():
    certs = []
    for blue in ("power:5,4", "power:5,5"):
        code, out, _ = run(
            ["search", "--n", "6", "--red", "path:3", "--blue", blue]
        )
        assert code == 1
        assert f"\nblue {blue}\n" in out
        certs.append(out)
    assert certs[0] != certs[1]


def test_search_inconclusive_exit_code():
    code, _, err = run(
        [
            "search",
            "--n",
            "9",
            "--red",
            "path:4",
            "--blue",
            "path:5",
            "--budget",
            "100",
        ]
    )
    # sat after 854 pair assignments, so 100 stop it
    assert code == 3 and "inconclusive" in err


def test_search_bracket_writes_level_files(tmp_path):
    base = tmp_path / "lv"
    code, out, _ = run(
        [
            "search",
            "--nmax",
            "4",
            "--red",
            "path:3",
            "--blue",
            "jumps:1",
            "--output",
            str(base),
        ]
    )
    assert code == 0
    assert out.splitlines() == [
        "N=2 sat",
        "N=3 unsat",
        "largest-sat 2",
        "status closed",
    ]
    assert (tmp_path / "lv-N2.triples").exists()
    cert = (tmp_path / "lv-N3.cert").read_text()
    assert cert.startswith("unsat N=3\n")
    assert "blue jumps:1" in cert


@pytest.mark.parametrize("argv, out, written", [
    (["gen", "pentagon", "--output", "x"], "", "x"),
    # the bracket's prefix is checked before its first level is printed
    (["search", "--nmax", "4", "--red", "path:3", "--blue", "path:3", "--output", "pre"],
     "", "pre"),
])
def test_unwritable_output_is_a_usage_error(tmp_path, argv, out, written):
    missing = tmp_path / "missing"
    code, got, err = run([*argv[:-1], str(missing / argv[-1])])
    assert (code, got) == (2, out)
    assert err == f"error: cannot write {missing / written}: No such file or directory\n"


@pytest.mark.parametrize("argv, target, reason", [
    (["--n", "6"], "missing/x", "No such file or directory"),
    (["--n", "6"], "file/x", "Not a directory"),
    (["--n", "6"], "folder", "Is a directory"),
    (["--nmax", "6"], "missing/pre", "No such file or directory"),
])
def test_unwritable_output_fails_before_the_search_runs(monkeypatch, tmp_path, argv,
                                                         target, reason):
    def refuse(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "decide", refuse)
    monkeypatch.setattr(cli, "bracket", refuse)
    (tmp_path / "file").write_text("")
    (tmp_path / "folder").mkdir()
    before = sorted(tmp_path.rglob("*"))
    path = tmp_path / target
    code, out, err = run(["search", *argv, "--red", "path:4", "--blue", "path:4",
                          "--output", str(path)])
    assert (code, out, err) == (2, "", f"error: cannot write {path}: {reason}\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_a_folder_is_a_bracket_prefix(tmp_path):
    # --nmax writes folder-N2.triples and so on beside the folder, not in it
    (tmp_path / "lv").mkdir()
    code, out, _ = run(["search", "--nmax", "4", "--red", "path:3", "--blue", "path:3",
                        "--output", str(tmp_path / "lv")])
    assert code == 0 and out.endswith("status closed\n")
    assert (tmp_path / "lv-N2.triples").exists() and (tmp_path / "lv-N3.cert").exists()


def test_a_failed_level_file_leaves_stdout_empty(tmp_path):
    # as with every other command, a failed write prints nothing, not the
    # levels decided before it
    (tmp_path / "lv-N2.triples").mkdir()
    code, out, err = run(["search", "--nmax", "4", "--red", "path:3", "--blue", "jumps:1",
                          "--output", str(tmp_path / "lv")])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {tmp_path / 'lv-N2.triples'}: ")


ALL_BLUE_5 = "triples 5\n" + "0" * 10 + "\n"

# one run of every command that takes --output, with its exit code; the
# last two print nothing.  {name} is a file written by the test, and the
# stdin is a pair coloring, the gf16 lift or ALL_BLUE_5
OUTPUT_RUNS = [
    ("gen path --m 5", None, 0),
    ("gen power --m 6 --t 4", None, 0),
    ("gen imin --n 2", None, 0),
    ("gen pentagon", None, 0),
    ("gen gf16", None, 0),
    ("gen schur --classes 1/2", None, 0),
    ("gen paley --q 13", None, 0),
    ("gen product --left {pentagon} --right {pentagon}", None, 0),
    ("lift", "pentagon", 0),
    ("detect redpath --m 4", "gf16-lift", 0),
    ("detect pattern --pattern {imin}", "all-blue", 0),
    ("detect jumps --n 2", "gf16-lift", 0),
    ("detect clique --m 2", "pentagon", 0),
    ("table alpha", "gf16-lift", 0),
    ("table beta", "gf16-lift", 0),
    ("table profiles", "gf16-lift", 0),
    ("certify ghtriangle --m 3 --jumps 2 --chi {chi}", None, 0),
    ("certify witness --chain {chain}", "all-blue", 0),
    ("certify profileprop --n 2", "gf16-lift", 0),
    ("certify downsets --n 4", None, 0),
    ("search --n 6 --red path:4 --blue path:4", None, 0),
    ("search --n 7 --red path:4 --blue path:4", None, 1),
    ("detect jumps --n 3", "gf16-lift", 1),
    ("search --n 9 --red path:4 --blue path:5 --budget 100", None, 3),
]


@pytest.mark.parametrize("command, stdin, want", OUTPUT_RUNS)
def test_output_file_holds_what_stdout_would(tmp_path, command, stdin, want):
    files = {
        "pentagon": serialize_pair_coloring(pentagon_coloring()),
        "imin": run(["gen", "imin", "--n", "2"])[1],
        "chi": "1 2 1\n2 3 1\n1 3 1\n",
        "chain": "witness\nvertices 1 2 3 4 5\nblocks 1 1\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = command.format(**{name: tmp_path / name for name in files}).split()
    text = {
        None: "",
        "pentagon": files["pentagon"],
        "gf16-lift": serialize_triple_coloring(lift(gf16_coloring())),
        "all-blue": ALL_BLUE_5,
    }[stdin]
    code, out, err = run(argv, stdin=text)
    assert code == want
    target = tmp_path / "out"
    assert run([*argv, "--output", str(target)], stdin=text) == (code, "", err)
    if out:
        assert target.read_bytes() == out.encode()
    else:
        assert not target.exists()


def test_search_usage_errors():
    code, _, err = run(["search", "--red", "path:4", "--blue", "path:4"])
    assert code == 2 and "exactly one" in err
    code, _, err = run(
        ["search", "--n", "5", "--red", "power:5,4", "--blue", "path:4"]
    )
    assert code == 2 and "path:<m>" in err
    code, _, err = run(
        ["search", "--n", "5", "--red", "path:4", "--blue", "tree:4"]
    )
    assert code == 2
    code, _, err = run(
        ["search", "--n", "5", "--red", "path:4", "--blue", "path:2"]
    )
    assert code == 2
    # power:2,3 is the same edgeless pattern as path:2
    code, _, err = run(
        ["search", "--n", "5", "--red", "path:4", "--blue", "power:2,3"]
    )
    assert code == 2 and "at least 3 vertices" in err


def test_search_and_decide_take_the_same_specs():
    # each spec form over small numbers is refused by the CLI (exit 2) or
    # taken by decide, never refused there; a taken spec searches to a
    # decided level or its budget through the CLI too
    texts = [f"path:{m}" for m in range(-1, 8)]
    texts += [f"power:{m},{t}" for m in range(-1, 8) for t in range(-1, 7)]
    texts += [f"jumps:{n}" for n in range(-1, 5)]
    taken = 0
    for side, other in (("blue", "path:4"), ("red", "jumps:2")):
        for text in texts:
            red, blue = (other, text) if side == "blue" else (text, other)
            argv = ["search", "--n", "5", "--red", red, "--blue", blue, "--budget", "50"]
            code, _, err = run(argv)
            try:
                spec, _ = cli._parse_spec(text, side, 5)
            except cli._UsageError:
                assert code == 2 and err, (side, text, code)
                continue
            problem = (search.AvoidanceProblem(5, monotone_path(4), spec) if side == "blue"
                       else search.AvoidanceProblem(5, spec, search.JumpsFamily(2)))
            search.decide(problem, budget=50)
            assert code in (0, 1, 3), (side, text, code, err)
            taken += 1
    # path:3..7, power:3..7 with t 3..6, jumps:1..4, and the red paths
    assert taken == 5 + 5 * 4 + 4 + 5


# (oversized spec, host-sized twin, stderr): no copy larger than the host
# fits in it, so the spec is built on the host's scale and walks the same
# tree; each of these hung building the full-size pattern before.  Under a
# red path:N+1 the pair walk tries every value the fixed-point rule allows,
# up to v at a pair (v, w), and still decides at once
OVERSIZED_SPECS = [
    (["--n", "8", "--red", "path:4", "--blue", "path:1000000000"],
     ["--n", "8", "--red", "path:4", "--blue", "path:9"], "sat nodes=30 max-depth=28\n"),
    (["--n", "8", "--red", "path:4", "--blue", "jumps:1000000000"],
     ["--n", "8", "--red", "path:4", "--blue", "jumps:5"], "sat nodes=30 max-depth=28\n"),
    (["--n", "8", "--red", "path:4", "--blue", "power:1000000000,4"],
     ["--n", "8", "--red", "path:4", "--blue", "power:9,4"], "sat nodes=30 max-depth=28\n"),
    (["--n", "7", "--red", "path:1000000000", "--blue", "path:4"],
     ["--n", "7", "--red", "path:8", "--blue", "path:4"], "sat nodes=36 max-depth=21\n"),
    (["--nmax", "6", "--red", "path:4", "--blue", "path:1000000000"],
     ["--nmax", "6", "--red", "path:4", "--blue", "path:7"], ""),
    (["--n", "8", "--red", "path:1000000000", "--blue", "jumps:2"],
     ["--n", "8", "--red", "path:9", "--blue", "jumps:2"], "sat nodes=41 max-depth=28\n"),
    (["--n", "7", "--red", "path:1000000000", "--blue", "power:4,4"],
     ["--n", "7", "--red", "path:8", "--blue", "power:4,4"], "sat nodes=36 max-depth=21\n"),
    (["--n", "8", "--red", "path:1000000000", "--blue", "power:4,4"],
     ["--n", "8", "--red", "path:9", "--blue", "power:4,4"], "sat nodes=52 max-depth=28\n"),
]


@pytest.mark.parametrize("big, twin, err", OVERSIZED_SPECS)
def test_oversized_spec_searches_as_its_host_sized_twin(big, twin, err):
    got = run(["search", *big])
    assert got == run(["search", *twin])
    assert got[0] == 0 and got[2] == err


def test_oversized_red_spec_keeps_its_numbers_in_the_certificate():
    # a red path too long for the host is avoided by the all-red host,
    # which has no blue copy of any spec search takes, so the level is sat;
    # an oversized blue spec shows the numbers given in its certificate
    code, out, _ = run(
        ["search", "--n", "5", "--red", "path:1000000000", "--blue", "path:3"])
    assert code == 0
    assert out == "triples 5\n" + "1" * 10 + "\n"
    code, out, _ = run(
        ["search", "--n", "5", "--red", "path:3", "--blue", "power:4,1000000000"])
    assert code == 1
    assert out.startswith("unsat N=5\nred path:3\nblue power:4,1000000000\n")


def test_search_workers_env_and_flag(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "not-a-number")
    code, _, err = run(
        ["search", "--n", "5", "--red", "path:4", "--blue", "jumps:2"]
    )
    assert code == 2 and WORKERS_ENV in err
    # the flag wins over the broken environment value
    code, _, err = run(
        [
            "search",
            "--n",
            "5",
            "--red",
            "path:4",
            "--blue",
            "jumps:2",
            "--workers",
            "1",
        ]
    )
    assert code == 0 and err == "sat nodes=13 max-depth=10\n"
    monkeypatch.setenv(WORKERS_ENV, "2")
    code, out, _ = run(
        ["search", "--n", "7", "--red", "path:4", "--blue", "path:4"]
    )
    assert code == 1 and "nodes 102\n" in out


def test_verify_member_paths(tmp_path):
    _, pat, _ = run(["gen", "imin", "--n", "2"])
    patfile = tmp_path / "i2.pattern"
    patfile.write_text(pat)
    code, out, _ = run(["verify", "member", "--pattern", str(patfile)])
    assert code == 0 and out == "valid\n"
    code, out, _ = run(
        ["verify", "member", "--pattern", str(patfile), "--jumps", "2,3"]
    )
    assert code == 1 and out.startswith("invalid:")
    _, bare, _ = run(["gen", "path", "--m", "5"])
    barefile = tmp_path / "p5.pattern"
    barefile.write_text(bare)
    code, _, err = run(["verify", "member", "--pattern", str(barefile)])
    assert code == 2 and "no jump set" in err


def test_verify_roundtrip_all_applicable():
    code, out, _ = run(
        [
            "verify",
            "roundtrip",
            "--n",
            "2",
            "--seed",
            "7",
            "--count",
            "50",
            "--hosts",
            "9",
        ]
    )
    assert code == 0
    assert out == "count 50 applicable 50 verified 50\n"


@pytest.mark.parametrize("args, message", [
    (["--count", "-3"], "count must be at least 0"),
    (["--hosts", "2"], "hosts must be at least 3"),
    (["--n", "0"], "n must be at least 1"),
])
def test_verify_roundtrip_rejects_bad_arguments(args, message):
    assert run(["verify", "roundtrip", "--seed", "7", *args]) == (2, "", f"error: {message}\n")


def test_usage_without_subcommand():
    code, _, _ = run([])
    assert code == 2


def test_parser_is_built_once_and_reports_to_the_given_streams():
    cli._build_parser.cache_clear()
    assert run(["certify", "downsets", "--n", "2"])[:2] == (0, "6\n")
    code, out, err = run(["certify", "downsets", "--n", "two"])
    assert cli._build_parser.cache_info().misses == 1
    assert code == 2 and out == ""
    assert err.startswith("usage: jumpramsey certify downsets")
    assert "invalid int value: 'two'" in err
    # --help goes to the stdout given to this call, not to an earlier one's
    code, out, err = run(["lift", "--help"])
    assert code == 0 and out.startswith("usage: jumpramsey lift") and err == ""
    assert cli._build_parser.cache_info().misses == 1


def test_every_leaf_has_a_handler_and_all_but_verify_take_output():
    def leaves(parser, path):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield path, parser
        for sub in subs:
            for name, child in sub.choices.items():
                yield from leaves(child, (*path, name))

    found = dict(leaves(cli._build_parser(), ()))
    assert len(found) == 23
    for path, parser in found.items():
        assert callable(parser.get_default("run")), path
        takes_output = any("--output" in a.option_strings for a in parser._actions)
        assert takes_output == (path[0] != "verify"), path
