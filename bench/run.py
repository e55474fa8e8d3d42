"""Benchmark for the jumpramsey toolkit.

    python3 bench/run.py --workload search-path --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  One run sets the workload up several times (fresh import of the
package plus input construction) and reports the median as ``setup_s``,
then runs whole passes over the workload's instances for ``--seconds``
seconds (at least three passes), one worker in one process, and checks
every output.  Afterwards one instance of each search workload is rerun at
two workers; its outcome must not change.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (instance executions; their ratio is the fail fraction) and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` passes alternate untraced and traced, and the metrics are the
per-layer ones from the span recorder (see spans.py), whose spans are
written to ``.bench_out/``.  ``--workload all`` runs each workload in its
own process and prints a table instead.  See README.md for what each metric
should move.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("core", "family", "construct", "detect", "certify", "search", "cli")
SETUP_REPEATS = 7
MIN_PASSES = 3
# a pass that outgrows --seconds still gets MIN_PASSES, but only this long
PASS_LIMIT_S = 120.0


def load_package():
    """Import the package from src/ afresh, dropping any earlier import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n.split(".")[0] == "jumpramsey"]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"jumpramsey.{name}") for name in MODULES}
    if not Path(mods["core"].__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"jumpramsey imported from outside {SRC}")
    return SimpleNamespace(**mods)


# read by the reference below; about 1 MB, so it competes for cache too
REF_TABLE = {i: i * 7 % 13 for i in range(1 << 14)}


def reference():
    """Fixed pure-Python work that never calls the package: dict lookups
    and shifts of a 90,000-bit integer.  It allocates nothing the garbage
    collector tracks, so the size of the workload's heap cannot slow it."""
    table, acc = REF_TABLE, 0
    for i in range(80000):
        acc += table[(i * 40503) & 16383]
    bits = (1 << 90000) - 1
    for r in range(0, 90000, 32):
        acc += (bits >> r) & 1
    return acc


class Clock:
    """Times a piece of work and scales it to one machine speed.

    On a shared machine the speed of one core moves by up to 2x over
    seconds to minutes as neighbours come and go, and CPU time moves with
    wall time.  So the reference runs right before and right after every
    timed piece and, when sampling inside is on, every INTERVAL_S during
    it from a timer signal; the time the samples take is left out of the
    piece.  The piece's time is scaled by REF_S over the mean sample.
    REF_S is a constant near the reference's median time on the 2-core
    machine the benchmark was sized on, so scaled times read like raw
    seconds there; raw times are printed beside them.
    """

    REF_S = 0.015
    INTERVAL_S = 0.2

    def __init__(self):
        self.refs: list[float] = []
        self._last = None

    def ref(self) -> float:
        t0 = time.perf_counter()
        reference()
        dt = time.perf_counter() - t0
        self.refs.append(dt)
        return dt

    def run(self, thunk, inside: bool):
        """(result or raised exception, raw seconds, scaled seconds).

        The sample that ends one piece also starts the next."""
        samples = [self._last if self._last is not None else self.ref()]
        stolen = 0.0

        def tick(signum, frame):
            nonlocal stolen
            t0 = time.perf_counter()
            samples.append(self.ref())
            stolen += time.perf_counter() - t0

        if inside:
            previous = signal.signal(signal.SIGALRM, tick)
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        t0 = time.perf_counter()
        try:
            out = thunk()
        except Exception as exc:  # a failed instance; its check reports it
            out = exc
        finally:
            if inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        dt = time.perf_counter() - t0 - stolen
        self._last = self.ref()
        samples.append(self._last)
        return out, dt, dt * self.REF_S / statistics.mean(samples)


def set_up(workload, seed, clock):
    """Median scaled set-up time over SETUP_REPEATS, the median raw time,
    and the last set-up's result."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        built, dt, dt_scaled = clock.run(lambda: _build(workload, seed), inside=True)
        if isinstance(built, Exception):
            raise built
        pkg, inputs = built
        raw.append(dt)
        scaled.append(dt_scaled)
    return statistics.median(scaled), statistics.median(raw), pkg, inputs


def _build(workload, seed):
    pkg = load_package()
    return pkg, workload.build(pkg, seed)


class Passes:
    """Pass timings of one mode: raw and scaled pass totals and, per
    instance, the scaled times over all passes."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.per_instance: dict[str, list[float]] = {}

    def wall_s(self) -> float:
        # instance by instance, so that a slow spell of the machine during
        # one pass only counts where it lands
        return sum(statistics.median(v) for v in self.per_instance.values())


def run_pass(workload, pkg, inputs, clock, request, passes, inside):
    """One pass, every instance timed by the clock.  Traced passes sample
    only between instances, so that no span holds reference work."""
    results = []
    raw_total = scaled_total = 0.0

    def timed(label, thunk):
        nonlocal raw_total, scaled_total

        def one_request():
            with request(label):
                return thunk()

        out, dt, scaled = clock.run(one_request, inside)
        passes.per_instance.setdefault(label, []).append(scaled)
        results.append((label, out, dt))
        raw_total += dt
        scaled_total += scaled
        return out

    workload.run_pass(pkg, inputs, timed)
    passes.raw.append(raw_total)
    passes.scaled.append(scaled_total)
    return results


def measure(workload, pkg, inputs, seconds, clock, recorder):
    """Run passes for about `seconds`; traced and untraced passes alternate
    when a recorder is given.  Returns the Passes of each mode, the results
    of the first pass, the failure messages and the attempt count."""
    modes = (False, True) if recorder else (False,)
    min_passes = 2 * len(modes) if recorder else MIN_PASSES
    passes = {False: Passes(), True: Passes()}
    first = None
    failures = []
    attempted = 0
    start = time.perf_counter()
    count = 0
    while True:
        traced = modes[count % len(modes)]
        t0 = time.perf_counter()
        if traced:
            recorder.install()
            try:
                results = run_pass(workload, pkg, inputs, clock,
                                   lambda label: recorder.request(f"pass{count}/{label}"),
                                   passes[True], inside=False)
            finally:
                recorder.restore()
        else:
            results = run_pass(workload, pkg, inputs, clock,
                               lambda label: contextlib.nullcontext(), passes[False],
                               inside=True)
        dt = time.perf_counter() - t0
        attempted += len(results)
        failures += workload.check(pkg, inputs, results)
        if first is None:
            first = results
        else:
            for (label, out, _), (_, ref, _) in zip(results, first):
                if workload.fingerprint(out) != workload.fingerprint(ref):
                    failures.append(f"{label}: pass {count} differs from pass 0")
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed + dt > seconds and (count >= min_passes or elapsed + dt > PASS_LIMIT_S):
            break
    return passes, first, failures, attempted


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_one(args) -> int:
    workload = workloads.WORKLOADS[args.workload]()
    clock = Clock()
    setup_s, setup_raw_s, pkg, inputs = set_up(workload, args.seed, clock)
    recorder = None
    if args.trace:
        recorder = spans.SpanRecorder({name: getattr(pkg, name) for name in MODULES})
    passes, results, failures, attempted = measure(
        workload, pkg, inputs, args.seconds, clock, recorder)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    twin_attempted, twin_failures = workload.invariance(pkg, inputs, results)
    attempted += twin_attempted
    failures += twin_failures

    untraced = passes[False]
    wall_s = untraced.wall_s()
    q1, q3 = quartiles(untraced.raw)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print(f"  {len(untraced.raw)} untraced passes, raw s: median "
          f"{statistics.median(untraced.raw):.4f} q1 {q1:.4f} q3 {q3:.4f}; "
          f"setup {setup_raw_s:.4f}; reference median {statistics.median(clock.refs):.4f} "
          f"(REF_S {Clock.REF_S:.4f})")
    print(f"  nodes {workload.nodes(results)}  decided {workload.decided(results)}  "
          f"triples {workload.triples(inputs)}  "
          f"text_bytes {workload.text_bytes(inputs, results)}  "
          f"fail_frac {len(failures)}/{attempted}")
    for label, out, _ in results:
        print(f"    {label:<44} {_describe(out)} "
              f"{statistics.median(untraced.per_instance[label]):.4f} s")
    for msg in failures:
        print(f"  FAILED {msg}")

    if not args.trace:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "decided": (workload.decided(results), "count"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = per_layer(workload, inputs, results, passes, recorder)
        path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl.gz"
        recorder.write(path, {"workload": workload.name, "seed": args.seed,
                              "traced_passes": len(passes[True].raw)})
        print(f"  spans {len(recorder.spans)} written to {path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def per_layer(workload, inputs, results, passes, recorder):
    untraced, traced = passes[False], passes[True]
    wall_s = untraced.wall_s()
    n = len(traced.raw)
    raw_total = sum(traced.raw)
    # span times are raw; scale them like the passes they ran in
    factor = sum(traced.scaled) / raw_total
    layers = spans.LayerSummary(recorder.spans)
    nodes = workload.nodes(results)
    engine_s = layers.self_s["search.engine"] * factor / n

    def share(name):
        return (layers.self_s[name] / raw_total, "frac")

    def calls(name):
        return (layers.calls[name] / n, "count")

    print(f"  per traced pass ({n}): self s, calls")
    for name in spans.TRACED:
        print(f"    {name:<22} {layers.self_s[name] * factor / n:.4f} "
              f"{layers.calls[name] / n:.0f}")
    return {
        "trace.wall_s": (traced.wall_s(), "s"),
        "trace.overhead_s": (traced.wall_s() - wall_s, "s"),
        "trace.spans": (len(recorder.spans) / n, "count"),
        "search.nodes": (nodes, "count"),
        "search.nodes_per_s": (nodes / wall_s, "1/s"),
        "search.engine.self_share": share("search.engine"),
        "search.engine.nodes_per_s": (nodes / engine_s if engine_s else 0.0, "1/s"),
        "search.detector.share": (layers.detector_share, "frac"),
        "detect.embedding.calls": calls("detect.embedding"),
        "detect.embedding.self_share": share("detect.embedding"),
        "detect.jump_member.calls": calls("detect.jump_member"),
        "detect.jump_member.self_share": share("detect.jump_member"),
        "detect.hit_frac": (layers.hit_frac, "frac"),
        "detect.alpha.self_share": share("detect.alpha"),
        "detect.redpath.self_share": share("detect.redpath"),
        "construct.lift.self_share": share("construct.lift"),
        "core.parse.self_share": share("core.parse"),
        "core.serialize.self_share": share("core.serialize"),
        "core.text_bytes": (workload.text_bytes(inputs, results), "bytes"),
        "certify.beta.self_share": share("certify.beta"),
        "certify.profile.self_share": share("certify.profile"),
        "certify.profileprop.self_share": share("certify.profileprop"),
        "cli.self_share": share("cli"),
        "pipeline.triples_per_s": (workload.triples(inputs) / wall_s, "1/s"),
    }


def _describe(out):
    if isinstance(out, Exception):
        return f"raised {out!r}"
    if isinstance(out, tuple):
        return f"exit {out[0]} {len(out[1]):>7} bytes"
    return f"{out.status:<12} nodes {out.stats.nodes:>8} max-depth {out.stats.max_depth:>3}"


def run_all(args) -> int:
    """Each workload in its own process, then one table of the metrics."""
    rows = []
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            status = 1
        rows.append((name, result))
    print()
    for name, result in rows:
        print(f"{name}: fail_frac {result['failed']}/{result['attempted']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<32} {m['value']:.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        load_package()
    except ImportError as exc:
        print(f"error: cannot import jumpramsey from {SRC}: {exc}", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
