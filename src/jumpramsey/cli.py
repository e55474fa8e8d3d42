"""Command line front end.

One verb per operation: gen writes colorings and patterns, lift turns a
pair coloring into a triple coloring, detect looks for structures in a
host coloring, table prints the pair tables, certify checks certificates,
search runs the avoidance engine, verify bundles consistency checks.

Data flows through stdin/stdout in the formats of module core.  Each
command's handler sits on its parser and returns the text to print (None
for nothing) and the exit code; dispatch writes the text once.  --output
receives exactly what stdout would, and a run that prints nothing writes
no file; search --nmax prints its level lines and takes --output as the
prefix of one file per level.  An --output that cannot be written is a
usage error before the command runs.
Exit codes: 0 found/true/sat, 1 not-found/false/unsat, 2 usage or format
error, 3 inconclusive search, 4 internal error (a failed self-check,
exhausted resources or any other exception a command raises), 141
(128 + SIGPIPE) when stdout is closed before the output is written.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import random
import sys
from functools import lru_cache

from .certify import (
    BetaChain,
    CertificationError,
    beta_table,
    count_downsets,
    extract_blue_jump_witness,
    gh_triangle_finder,
    profile_table,
    verify_profile_property,
)
from .construct import (
    gf16_coloring,
    has_mono_clique,
    lift,
    paley_coloring,
    pentagon_coloring,
    product_coloring,
    schur_coloring,
)
from .core import (
    Embedding,
    FormatError,
    PairColoring,
    Witness,
    pair_lines,
    pair_rank,
    parse_pair_coloring,
    parse_pattern,
    parse_triple_coloring,
    parse_witness,
    serialize_pair_coloring,
    serialize_pattern,
    serialize_triple_coloring,
    serialize_witness,
)
from .detect import alpha_table, find_blue_embedding, find_blue_jump_member, red_path
from .family import associated_graph, jump_min, monotone_path, power_path, validate_jump_member
from .search import (
    DEFAULT_BUDGET,
    SPLIT_DEPTH,
    AvoidanceProblem,
    JumpsFamily,
    bracket,
    decide,
)

WORKERS_ENV = "JUMPRAMSEY_WORKERS"

# the shell's code for a writer killed by SIGPIPE; exit 1 would read as unsat
EXIT_BROKEN_PIPE = 128 + 13

_SCHUR_DEFAULT = "1,4,10,13/2,3,11,12/5,6,7,8,9"
# the spec forms search takes on each side
_SPEC_FORMS = {"red": "path:<m>", "blue": "path:<m> | power:<m>,<t> | jumps:<n>"}


class _UsageError(Exception):
    pass


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process.
    parse_args keeps no state between calls, and it prints usage and help
    to sys.stderr and sys.stdout as they are at the call, which dispatch
    redirects.  Each leaf carries its handler as ``run``: a function of
    this module, which looks up what it calls at call time."""
    p = argparse.ArgumentParser(prog="jumpramsey")
    sub = p.add_subparsers(dest="cmd", required=True)
    # --output is added to these last, so that it ends usage and help
    outputs = []

    def leaf(group, name, run, output=True, **kwargs):
        q = group.add_parser(name, **kwargs)
        q.set_defaults(run=run, output=None)
        if output:
            outputs.append(q)
        return q

    gen = sub.add_parser("gen", help="write a coloring or pattern")
    gsub = gen.add_subparsers(dest="what", required=True)
    g = leaf(gsub, "path", _gen_path)
    g.add_argument("--m", type=int, required=True)
    g = leaf(gsub, "power", _gen_power)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--t", type=int, required=True)
    g = leaf(gsub, "imin", _gen_imin)
    g.add_argument("--n", type=int, required=True)
    leaf(gsub, "pentagon", _gen_pentagon)
    leaf(gsub, "gf16", _gen_gf16)
    g = leaf(gsub, "schur", _gen_schur)
    g.add_argument("--classes", default=_SCHUR_DEFAULT,
                   help="difference classes, e.g. 1,4/2,3 (default: 14-vertex)")
    g = leaf(gsub, "paley", _gen_paley)
    g.add_argument("--q", type=int, required=True)
    g = leaf(gsub, "product", _gen_product)
    g.add_argument("--left", required=True)
    g.add_argument("--right", required=True)

    leaf(sub, "lift", _lift, help="triple coloring from a pair coloring")

    det = sub.add_parser("detect", help="find a structure in a host coloring")
    dsub = det.add_subparsers(dest="what", required=True)
    d = leaf(dsub, "redpath", _detect_redpath)
    d.add_argument("--m", type=int, required=True)
    d = leaf(dsub, "pattern", _detect_pattern)
    d.add_argument("--pattern", required=True, help="pattern file")
    d = leaf(dsub, "jumps", _detect_jumps)
    d.add_argument("--n", type=int, required=True)
    d = leaf(dsub, "clique", _detect_clique)
    d.add_argument("--m", type=int, required=True)

    tab = sub.add_parser("table", help="print pair tables of a host coloring")
    tsub = tab.add_subparsers(dest="what", required=True)
    leaf(tsub, "alpha", _table_alpha)
    leaf(tsub, "beta", _table_beta)
    leaf(tsub, "profiles", _table_profiles)

    cert = sub.add_parser("certify", help="check or emit certificates")
    csub = cert.add_subparsers(dest="what", required=True)
    c = leaf(csub, "ghtriangle", _certify_ghtriangle)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--jumps", required=True, help="comma-separated positions")
    c.add_argument("--chi", required=True, help="file of 'u v c' lines")
    c = leaf(csub, "witness", _certify_witness)
    c.add_argument("--chain", required=True,
                   help="witness file with vertices and blocks")
    c = leaf(csub, "profileprop", _certify_profileprop)
    c.add_argument("--n", type=int, required=True)
    c = leaf(csub, "downsets", _certify_downsets)
    c.add_argument("--n", type=int, required=True)

    se = leaf(sub, "search", _search, help="avoidance search / bracketing")
    se.add_argument("--n", type=int, help="host size for a single decision")
    se.add_argument("--nmax", type=int, help="bracket up to this host size")
    se.add_argument("--red", required=True, help=_SPEC_FORMS["red"])
    se.add_argument("--blue", required=True, help=_SPEC_FORMS["blue"])
    se.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    se.add_argument("--workers", type=int, default=None)

    # the verify checks print their verdict to stdout only
    ver = sub.add_parser("verify", help="consistency checks")
    vsub = ver.add_subparsers(dest="what", required=True)
    v = leaf(vsub, "member", _verify_member, output=False)
    v.add_argument("--pattern", required=True, help="pattern file")
    v.add_argument("--jumps", help="comma-separated; default: file's jumps line")
    v = leaf(vsub, "roundtrip", _verify_roundtrip, output=False)
    v.add_argument("--n", type=int, default=2)
    v.add_argument("--seed", type=int, required=True)
    v.add_argument("--count", type=int, default=200)
    v.add_argument("--hosts", type=int, default=9)

    for q in outputs:
        q.add_argument("--output")
    return p


def _emit(text: str, output: str | None, stdout) -> None:
    if output:
        _write_file(output, text)
    else:
        stdout.write(text)


def _read_file(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror}")


def _check_output(path: str, prefix: bool) -> None:
    """Fail as a write to path would, before the command runs: its folder
    must exist and be writable, and path must not be a folder.  A prefix
    (search --nmax) names files path-N..., so only its folder is checked.
    Nothing is created; the write itself still reports what this misses."""
    folder = os.path.dirname(path) or "."
    try:
        if not os.path.isdir(folder):
            os.stat(folder)  # the reason it is missing, if it is
            raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        if not os.access(folder, os.W_OK):
            raise OSError(errno.EACCES, os.strerror(errno.EACCES))
        if not prefix and os.path.isdir(path):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR))
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror}")


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror}")


def _positions(text: str) -> frozenset[int]:
    try:
        return frozenset(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise _UsageError(f"bad position list {text!r}")


def _witness(emb: Embedding | None, jumps=None):
    """A found structure's witness and exit 0, or nothing and exit 1."""
    if emb is None:
        return None, 1
    return serialize_witness(Witness(emb.vertices, jumps=jumps)), 0


def _gen_path(args, stdin):
    return serialize_pattern(monotone_path(args.m)), 0


def _gen_power(args, stdin):
    return serialize_pattern(power_path(args.m, args.t)), 0


def _gen_imin(args, stdin):
    pattern, spec = jump_min(args.n)
    return serialize_pattern(pattern, spec.sorted_jumps), 0


def _gen_pentagon(args, stdin):
    return serialize_pair_coloring(pentagon_coloring()), 0


def _gen_gf16(args, stdin):
    return serialize_pair_coloring(gf16_coloring()), 0


def _gen_schur(args, stdin):
    try:
        classes = [[int(x) for x in part.split(",") if x]
                   for part in args.classes.split("/")]
    except ValueError:
        raise _UsageError(f"bad class list {args.classes!r}")
    return serialize_pair_coloring(schur_coloring(classes)), 0


def _gen_paley(args, stdin):
    return serialize_pair_coloring(paley_coloring(args.q)), 0


def _gen_product(args, stdin):
    left = parse_pair_coloring(_read_file(args.left))
    right = parse_pair_coloring(_read_file(args.right))
    return serialize_pair_coloring(product_coloring(left, right)), 0


def _lift(args, stdin):
    chi = parse_pair_coloring(stdin.read())
    return serialize_triple_coloring(lift(chi)), 0


def _detect_redpath(args, stdin):
    host = parse_triple_coloring(stdin.read())
    return _witness(red_path(host, args.m))


def _detect_pattern(args, stdin):
    host = parse_triple_coloring(stdin.read())
    pattern, _ = parse_pattern(_read_file(args.pattern))
    return _witness(find_blue_embedding(host, pattern))


def _detect_jumps(args, stdin):
    host = parse_triple_coloring(stdin.read())
    found = find_blue_jump_member(host, args.n)
    if found is None:
        return None, 1
    verts, spec = found
    return _witness(Embedding(verts), spec.sorted_jumps)


def _detect_clique(args, stdin):
    chi = parse_pair_coloring(stdin.read())
    found = has_mono_clique(chi, args.m)
    return _witness(None if found is None else Embedding(found))


# alpha and beta print their values by pair rank, the order of pair_lines
def _table_alpha(args, stdin):
    host = parse_triple_coloring(stdin.read())
    return f"alpha {host.N}\n" + pair_lines(host.N, alpha_table(host).values), 0


def _table_beta(args, stdin):
    host = parse_triple_coloring(stdin.read())
    return f"beta {host.N}\n" + pair_lines(host.N, beta_table(host).betas), 0


def _table_profiles(args, stdin):
    host = parse_triple_coloring(stdin.read())
    profiles = profile_table(host)
    lines = [f"profiles {host.N}"]
    for v in range(1, host.N + 1):
        stair = " ".join(str(b) for b in profiles[v].maxB)
        lines.append(f"{v} {stair}".rstrip())
    return "\n".join(lines) + "\n", 0


def _certify_ghtriangle(args, stdin):
    chi = _parse_gh_coloring(_read_file(args.chi))
    tri = gh_triangle_finder(args.m, _positions(args.jumps), chi)
    return " ".join(str(v) for v in tri) + "\n", 0


def _certify_witness(args, stdin):
    w = parse_witness(_read_file(args.chain))
    if w.blocks is None:
        raise _UsageError("chain witness needs a 'blocks' field")
    host = parse_triple_coloring(stdin.read())
    chain = BetaChain(w.vertices, w.blocks, len(w.blocks) + 1)
    emb = extract_blue_jump_witness(host, chain)
    _, spec = jump_min(chain.ell - 1)
    return _witness(emb, spec.sorted_jumps)


def _certify_profileprop(args, stdin):
    host = parse_triple_coloring(stdin.read())
    report = verify_profile_property(host, args.n)
    lines = [f"profileprop N={report.N} n={report.n}"]
    for vs in report.groups:
        lines.append("group " + " ".join(str(v) for v in vs))
    lines.append(f"red-path {'yes' if report.has_red_path else 'no'}")
    if report.blue_member is None:
        lines.append("blue-member no")
    else:
        verts, spec = report.blue_member
        lines.append(
            "blue-member " + " ".join(str(v) for v in verts)
            + " jumps " + " ".join(str(j) for j in spec.sorted_jumps)
        )
    if report.triangle is None:
        lines.append("triangle none")
    else:
        lines.append("triangle " + " ".join(str(v) for v in report.triangle))
    if report.extended_chain is not None:
        ch = report.extended_chain
        lines.append(
            "chain " + " ".join(str(v) for v in ch.vertices)
            + " blocks " + " ".join(str(b) for b in ch.block_values)
        )
    lines.append("status " + ("clean" if report.clean else "triangle"))
    return "\n".join(lines) + "\n", 0 if report.clean else 1


def _certify_downsets(args, stdin):
    # str() refuses an int of over 4,300 digits: convert 4,000 at a time
    count, chunk, low_first = count_downsets(args.n), 10**4000, []
    while count >= chunk:
        count, low = divmod(count, chunk)
        low_first.append(f"{low:04000}")
    return "".join([str(count), *reversed(low_first), "\n"]), 0


def _parse_gh_coloring(text: str) -> dict[tuple[int, int], int]:
    chi: dict[tuple[int, int], int] = {}
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"expected 'u v c', got {line!r}", no)
        try:
            u, v, c = (int(x) for x in parts)
        except ValueError:
            raise FormatError(f"bad integer in {line!r}", no)
        if (u, v) in chi:
            raise FormatError(f"duplicate pair ({u}, {v})", no)
        chi[(u, v)] = c
    return chi


def _parse_spec(text: str, side: str, N: int):
    """The --red or --blue spec for hosts of up to N vertices, and its text
    as certificates print it, with the numbers given.  A path or power path
    needs at least 3 vertices, as one with no edge has a copy in every host
    and decide refuses it.  No copy larger than the host fits in it, so one
    is built on at most max(N + 1, 3) vertices, and the search walks the
    same tree: no blue table can report a copy, the pair walk's red values
    at a pair (x, y) are at most x under either red path, and its
    forced-blue read, which looks for the value m - 2 >= N - 1 at pairs
    (x, y), y < N, finds none.  A jump family is only its count, so it is
    kept as given; the search caps the count where it builds its member
    table."""
    kind, _, rest = text.partition(":")
    if kind != "path" and (side == "red" or kind not in ("power", "jumps")):
        raise _UsageError(f"{side} spec must be {_SPEC_FORMS[side]}, got {text!r}")
    try:
        if kind == "jumps":
            n = int(rest)
            return JumpsFamily(n), f"jumps:{n}"
        m, t = (int(x) for x in rest.split(",")) if kind == "power" else (int(rest), 3)
        if m < 3:
            raise _UsageError(f"{side} spec {text!r} needs at least 3 vertices")
        given = f"power:{m},{t}" if kind == "power" else f"path:{m}"
        return power_path(min(m, max(N + 1, 3)), t), given
    except (ValueError, TypeError) as exc:
        raise _UsageError(f"bad {side} spec {text!r}: {exc}")


def _resolve_workers(args) -> int:
    if args.workers is not None:
        return args.workers
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return 1
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"{WORKERS_ENV} must be an integer, got {raw!r}")


def _certificate(N: int, red_text: str, blue_text: str, budget: int,
                 outcome) -> str:
    return (
        f"{outcome.status} N={N}\n"
        f"red {red_text}\n"
        f"blue {blue_text}\n"
        f"budget {budget}\n"
        f"split-depth {SPLIT_DEPTH}\n"
        f"nodes {outcome.stats.nodes}\n"
        f"max-depth {outcome.stats.max_depth}\n"
    )


def _search(args, stdin):
    if (args.n is None) == (args.nmax is None):
        raise _UsageError("give exactly one of --n and --nmax")
    N = max(args.nmax if args.n is None else args.n, 0)
    red, red_text = _parse_spec(args.red, "red", N)
    blue, blue_text = _parse_spec(args.blue, "blue", N)
    workers = _resolve_workers(args)
    if args.nmax is not None:
        out = bracket(red, blue, args.nmax, budget=args.budget, workers=workers)
        for level in out.levels:
            if args.output and level.outcome.status == "sat":
                _write_file(f"{args.output}-N{level.N}.triples",
                            serialize_triple_coloring(level.outcome.witness))
            if args.output and level.outcome.status == "unsat":
                _write_file(f"{args.output}-N{level.N}.cert",
                            _certificate(level.N, red_text, blue_text,
                                         args.budget, level.outcome))
        text = "".join(f"N={level.N} {level.outcome.status}\n" for level in out.levels)
        return (text + f"largest-sat {out.largest_sat}\nstatus {out.status}\n",
                3 if out.status == "inconclusive" else 0)

    outcome = decide(AvoidanceProblem(args.n, red, blue), budget=args.budget,
                     workers=workers)
    if outcome.status == "sat":
        note = f"sat nodes={outcome.stats.nodes} max-depth={outcome.stats.max_depth}\n"
        return serialize_triple_coloring(outcome.witness), 0, note
    if outcome.status == "unsat":
        return _certificate(args.n, red_text, blue_text, args.budget, outcome), 1
    return None, 3, f"inconclusive budget={args.budget}\n"


def _verify_member(args, stdin):
    pattern, file_jumps = parse_pattern(_read_file(args.pattern))
    if args.jumps is not None:
        jumps = _positions(args.jumps)
    elif file_jumps is not None:
        jumps = frozenset(file_jumps)
    else:
        raise _UsageError("no jump set: pass --jumps or a file jumps line")
    report = validate_jump_member(pattern, jumps)
    if report.valid:
        return "valid\n", 0
    return f"invalid: {report.reason}\n", 1


def _verify_roundtrip(args, stdin):
    for name, least in (("n", 1), ("count", 0), ("hosts", 3)):
        if getattr(args, name) < least:
            raise _UsageError(f"{name} must be at least {least}")
    rng = random.Random(args.seed)
    applicable = verified = 0
    for _ in range(args.count):
        chi = _planted_coloring(args.hosts, args.n, rng)
        found = find_blue_jump_member(lift(chi), args.n)
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
        if chi.color(hx, hy) == chi.color(hy, hz) == chi.color(hx, hz):
            verified += 1
    return (f"count {args.count} applicable {applicable} verified {verified}\n",
            0 if verified == applicable else 1)


def _planted_coloring(N: int, k: int, rng: random.Random) -> PairColoring:
    chi = PairColoring.from_function(N, k, lambda u, v: rng.randint(1, k))
    a, b, c = sorted(rng.sample(range(1, N + 1), 3))
    colors = list(chi.colors)
    shade = rng.randint(1, k)
    for pair in ((a, b), (b, c), (a, c)):
        colors[pair_rank(*pair, N)] = shade
    return PairColoring(N, k, tuple(colors))


def dispatch(argv, stdin=None, stdout=None, stderr=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    # search --nmax takes --output as the prefix of its level files
    prefix = getattr(args, "nmax", None) is not None
    try:
        if args.output:
            _check_output(args.output, prefix)
        # search's note for stderr follows the text, so a failed write leaves none
        text, code, *note = args.run(args, stdin)
        if text is not None:
            _emit(text, None if prefix else args.output, stdout)
        stderr.writelines(note)
        return code
    except BrokenPipeError:
        return EXIT_BROKEN_PIPE
    except (FormatError, _UsageError, CertificationError, ValueError) as exc:
        stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        # a failed self-check, exhausted resources or a bug decides nothing;
        # it must not escape as exit 1, "unsat / not found".
        # CertificationError is a RuntimeError, so the handler above must
        # stay first; KeyboardInterrupt and SystemExit are not caught
        stderr.write(f"internal error: {exc!r}\n")
        return 4


def main() -> None:
    code = dispatch(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    if code == EXIT_BROKEN_PIPE:
        # what is left in the buffer goes nowhere, so the flush at exit
        # cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
