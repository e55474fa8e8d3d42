"""The benchmark's three workloads and their correctness gates.

search-path   decide on red-path/blue-path instances.  The engine's
              incremental alpha tables and branch loop do all the work; a
              detector runs only to re-verify a sat witness.  The mix of
              unsat, sat and budget-stop outcomes shows both a per-node
              speed-up and a pruning change.
search-blue   decide with a red path against jump-family and power-path
              blue specs.  Every blue node re-runs a full blue detector on
              a partial host of at most 56 triples, so detector calls take
              nearly all of the time.
pipeline      cli.dispatch, in process, over text stdin/stdout: lift, then
              red-path and jump detection, the beta table and the profile
              check on full hosts of up to 98,770 triples.  The same detect
              and core code as the searches, used on a few large hosts
              instead of thousands of tiny ones; the only workload that
              runs construct, certify, the core text formats and the CLI.

Left out, too long for one run: red path:4 vs blue path:4 at N=8 (about
22 s, 21.1M nodes) and path:4 vs power:4,4 at N=7 (inconclusive after
300k nodes, about 28 s).

Every workload has the same interface: ``build`` makes the inputs (set-up
time), ``run_pass`` runs every instance once, each through the runner's
``timed(label, thunk)``, and ``check`` returns the failed instances of a
pass, with the reason.  Only the pipeline's two
random hosts depend on the seed.
"""

from __future__ import annotations

import hashlib
import io
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb


@dataclass(frozen=True)
class SearchCase:
    label: str
    N: int
    red_m: int
    blue: str  # path:<m> | power:<m>,<t> | jumps:<n>
    # decided cases get a cap of a few times their node count, so that a
    # regression ends the run with a failure instead of running for hours
    budget: int
    expect: str  # sat | unsat | inconclusive


SEARCH_CASES = {
    "search-path": (
        SearchCase("p4-p4-N7", 7, 4, "path:4", 1_000_000, "unsat"),
        SearchCase("p4-p5-N8", 8, 4, "path:5", 12_000_000, "sat"),
        SearchCase("p5-p4-N8", 8, 5, "path:4", 2_000_000, "inconclusive"),
    ),
    "search-blue": (
        SearchCase("p4-jumps2-N7", 7, 4, "jumps:2", 40_000, "sat"),
        SearchCase("p4-power44-N6", 6, 4, "power:4,4", 10_000, "sat"),
        SearchCase("p4-power54-N7", 7, 4, "power:5,4", 20_000, "sat"),
        SearchCase("p4-jumps2-N8", 8, 4, "jumps:2", 10_000, "inconclusive"),
        SearchCase("p4-power44-N7", 7, 4, "power:4,4", 20_000, "inconclusive"),
    ),
}


def _outcome_key(out):
    bits = None if out.witness is None else out.witness.bits
    return (out.status, out.stats.nodes, out.stats.max_depth, bits)


class SearchWorkload:
    """decide on fixed instances, one worker, one process."""

    def __init__(self, name: str):
        self.name = name
        self.cases = SEARCH_CASES[name]
        self._verified: dict = {}

    def build(self, pkg, seed: int):
        return [(case, pkg.search.AvoidanceProblem(
            case.N, pkg.family.monotone_path(case.red_m), _blue_spec(pkg, case.blue)))
            for case in self.cases]

    def run_pass(self, pkg, inputs, timed):
        for case, problem in inputs:
            timed(case.label, lambda: pkg.search.decide(problem, budget=case.budget))

    def fingerprint(self, out):
        return repr(out) if isinstance(out, Exception) else _outcome_key(out)

    def check(self, pkg, inputs, results):
        failures = []
        for (case, problem), (label, out, _) in zip(inputs, results):
            why = self._failure(pkg, case, problem, out)
            if why:
                failures.append(f"{label}: {why}")
        return failures

    def _failure(self, pkg, case, problem, out):
        if isinstance(out, Exception):
            return f"raised {out!r}"
        if case.expect != "inconclusive" and out.status != case.expect:
            return f"status {out.status}, expected {case.expect}"
        if out.status != "sat":
            return None if out.witness is None else "witness without sat"
        key = (case.label, out.witness.bits)
        if key not in self._verified:
            self._verified[key] = _witness_failure(pkg, case, problem, out.witness)
        return self._verified[key]

    def decided(self, results):
        return sum(1 for _, out, _ in results
                   if not isinstance(out, Exception) and out.status in ("sat", "unsat"))

    def nodes(self, results):
        return sum(out.stats.nodes for _, out, _ in results
                   if not isinstance(out, Exception))

    def triples(self, inputs):
        return 0

    def text_bytes(self, inputs, results):
        return 0

    def invariance(self, pkg, inputs, results):
        """Rerun the first instance at two workers; the outcome must not move.

        Returns the number of checks made and their failure messages."""
        (case, problem), (label, out, _) = inputs[0], results[0]
        try:
            twin = pkg.search.decide(problem, budget=case.budget, workers=2)
        except Exception as exc:
            return 1, [f"{label} at 2 workers: raised {exc!r}"]
        if isinstance(out, Exception) or _outcome_key(twin) != _outcome_key(out):
            return 1, [f"{label} at 2 workers: {_outcome_key(twin)[:3]} differs"]
        return 1, []


def _blue_spec(pkg, text: str):
    kind, _, arg = text.partition(":")
    if kind == "path":
        return pkg.family.monotone_path(int(arg))
    if kind == "power":
        m, t = (int(x) for x in arg.split(","))
        return pkg.family.power_path(m, t)
    return pkg.search.JumpsFamily(int(arg))


def _witness_failure(pkg, case, problem, w):
    if w.N != case.N:
        return f"witness on N={w.N}"
    Color = pkg.core.Color
    if pkg.detect.alpha_table(w, Color.RED).max_value >= case.red_m - 1:
        return "witness holds the red path"
    kind, _, arg = case.blue.partition(":")
    if kind == "path":
        bad = pkg.detect.alpha_table(w, Color.BLUE).max_value >= int(arg) - 1
    elif kind == "power":
        bad = pkg.detect.find_blue_embedding(w, problem.blue) is not None
    else:
        bad = pkg.detect.find_blue_jump_member(w, problem.blue.n) is not None
    return "witness holds the blue spec" if bad else None


@dataclass(frozen=True)
class Host:
    label: str
    N: int
    k: int
    colors: tuple[int, ...]
    text: str  # the pair coloring in the 'pairs N k' format

    @property
    def steps(self):
        return (
            ["lift"],
            ["detect", "redpath", "--m", str(self.k + 2)],
            ["detect", "jumps", "--n", "2"],
            ["detect", "jumps", "--n", "3"],
            ["table", "beta"],
            ["certify", "profileprop", "--n", "2"],
        )


# (exit code, first 16 hex digits of the stdout sha256) per step, from the
# unmodified package; the outputs are meant to stay byte-identical
GOLDEN = {
    "gf16": (
        (0, "370325c99c861950"), (1, "e3b0c44298fc1c14"), (0, "50a482e5510c5f73"),
        (1, "e3b0c44298fc1c14"), (0, "4879b2e057e4c834"), (0, "08be49c7676b51cf")),
    "paley17": (
        (0, "d0c6c754e99a94ee"), (1, "e3b0c44298fc1c14"), (0, "5463bc87f333576f"),
        (0, "05901cd6a8916e68"), (0, "1771ffafdf71251d"), (0, "b10330990be6d583")),
    "pentagon-x-pentagon": (
        (0, "928d4a35916b911e"), (1, "e3b0c44298fc1c14"), (0, "b00cdf3491796eff"),
        (0, "eccc6f541472193b"), (0, "521a945c198ed047"), (0, "bab58a72b797f310")),
    "gf16-x-pentagon": (
        (0, "4c6537f3fa3ba6df"), (1, "e3b0c44298fc1c14"), (0, "b00cdf3491796eff"),
        (0, "4ba2cd463a3a4b9f"), (0, "28e4cc198e316360"), (0, "3c1ab59a34ea6e21")),
    "paley17-x-pentagon": (
        (0, "7d691eedcb8ccf91"), (1, "e3b0c44298fc1c14"), (0, "b00cdf3491796eff"),
        (0, "276c55c1e83e7bf3"), (0, "6b5609fb922c4a01"), (0, "a8916c91aabee1bc")),
}

RANDOM_HOSTS = ((60, 3), (80, 2))


class PipelineWorkload:
    """cli.dispatch chains over fixed and seeded hosts."""

    name = "pipeline"

    def __init__(self):
        self._oracle: dict[str, str] = {}

    def build(self, pkg, seed: int):
        con = pkg.construct
        pentagon = con.pentagon_coloring()
        colorings = [
            ("gf16", con.gf16_coloring()),
            ("paley17", con.paley_coloring(17)),
            ("pentagon-x-pentagon", con.product_coloring(pentagon, pentagon)),
            ("gf16-x-pentagon", con.product_coloring(con.gf16_coloring(), pentagon)),
            ("paley17-x-pentagon", con.product_coloring(con.paley_coloring(17), pentagon)),
        ]
        rng = random.Random(seed)
        for N, k in RANDOM_HOSTS:
            colors = tuple(rng.randint(1, k) for _ in range(comb(N, 2)))
            colorings.append((f"random-{N}-{k}", pkg.core.PairColoring(N, k, colors)))
        return [Host(label, chi.N, chi.k, chi.colors,
                     pkg.core.serialize_pair_coloring(chi))
                for label, chi in colorings]

    def run_pass(self, pkg, inputs, timed):
        for host in inputs:
            lift, *rest = host.steps
            out = timed(f"{host.label}:lift", lambda: _dispatch(pkg, lift, host.text))
            text = "" if isinstance(out, Exception) else out[1]
            for argv in rest:
                timed(f"{host.label}:{' '.join(argv)}", lambda: _dispatch(pkg, argv, text))

    def fingerprint(self, out):
        return repr(out) if isinstance(out, Exception) else (out[0], _digest(out[1]))

    def check(self, pkg, inputs, results):
        failures = []
        for i, host in enumerate(inputs):
            steps = results[6 * i: 6 * i + 6]
            for j, (label, out, _) in enumerate(steps):
                try:
                    why = self._failure(pkg, host, j, out)
                except (IndexError, KeyError, ValueError) as exc:
                    why = f"malformed output: {exc!r}"
                if why:
                    failures.append(f"{label}: {why}")
        return failures

    def _failure(self, pkg, host, step, out):
        if isinstance(out, Exception):
            return f"raised {out!r}"
        code, stdout, stderr = out
        if code not in (0, 1) or stderr:
            return f"exit {code}: {stderr.strip()}"
        golden = GOLDEN.get(host.label)
        if golden and (code, _digest(stdout)) != golden[step]:
            return f"exit {code} digest {_digest(stdout)}, expected {golden[step]}"
        argv = host.steps[step]
        if argv[0] == "lift":
            if stdout != f"triples {host.N}\n{self._lifted(host)}\n":
                return "lift differs from the rule chi(u,v) < chi(v,w)"
        elif argv[:2] == ["detect", "redpath"]:
            if code != 1:
                return "a lift of a k-coloring holds a red path on k+2 vertices"
        elif argv[:2] == ["detect", "jumps"] and code == 0:
            return self._member_failure(pkg, host, int(argv[3]), stdout)
        elif argv[0] == "table":
            lines = stdout.splitlines()
            if lines[0] != f"beta {host.N}" or len(lines) != comb(host.N, 2) + 1:
                return "malformed beta table"
        elif argv[0] == "certify":
            lines = stdout.splitlines()
            status = "status clean" if code == 0 else "status triangle"
            if lines[0] != f"profileprop N={host.N} n=2" or lines[-1] != status:
                return "malformed profileprop report"
        return None

    def _lifted(self, host):
        """The lift by its definition, without the package."""
        if host.label not in self._oracle:
            color = dict(zip(combinations(range(1, host.N + 1), 2), host.colors))
            self._oracle[host.label] = "".join(
                "1" if color[a, b] < color[b, c] else "0"
                for a, b, c in combinations(range(1, host.N + 1), 3))
        return self._oracle[host.label]

    def _member_failure(self, pkg, host, n, stdout):
        fields = dict(line.split(" ", 1) for line in stdout.splitlines()[1:])
        verts = [int(v) for v in fields["vertices"].split()]
        jumps = [int(j) for j in fields["jumps"].split()]
        if len(jumps) != n:
            return f"member has {len(jumps)} jumps, asked for {n}"
        color = dict(zip(combinations(range(1, host.N + 1), 2), host.colors))
        for a, b, c in pkg.family.required_edges(len(verts), jumps).sorted_edges:
            u, v, w = verts[a - 1], verts[b - 1], verts[c - 1]
            if color[u, v] < color[v, w]:
                return f"required edge ({a},{b},{c}) maps to red ({u},{v},{w})"
        return None

    def decided(self, results):
        return sum(1 for _, out, _ in results
                   if not isinstance(out, Exception) and out[0] in (0, 1))

    def nodes(self, results):
        return 0

    def triples(self, inputs):
        return sum(comb(host.N, 3) for host in inputs)

    def text_bytes(self, inputs, results):
        """Bytes read and written by dispatch; each step after lift reads its output."""
        total = 0
        for i, host in enumerate(inputs):
            outs = [out for _, out, _ in results[6 * i: 6 * i + 6]]
            if any(isinstance(out, Exception) for out in outs):
                continue
            total += len(host.text) + 5 * len(outs[0][1]) + sum(len(out[1]) for out in outs)
        return total

    def invariance(self, pkg, inputs, results):
        return 0, []


def _dispatch(pkg, argv, text):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = pkg.cli.dispatch(argv, stdin=io.StringIO(text), stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


WORKLOADS = {
    "search-path": lambda: SearchWorkload("search-path"),
    "search-blue": lambda: SearchWorkload("search-blue"),
    "pipeline": PipelineWorkload,
}
