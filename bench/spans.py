"""Span recorder for the traced benchmark run.

The recorder wraps package functions at module-attribute level, from the
benchmark's side only: every module of the package that binds one of the
traced functions (for example ``jumpramsey.search.find_blue_jump_member``
or ``jumpramsey.cli.decide``) gets the wrapper, so calls between modules are
seen as long as they go through a module global.  Calls a function makes
to itself or through a local name are part of its own span.

Spans live in memory as ``(run, name, start, end, parent, hit)`` and are
written out once, at the end of the run.  ``hit`` is whether a detector
found a structure; it is None for every other layer.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from collections import defaultdict

# span name -> (defining module, function names); the span name is the layer
TRACED = {
    "cli": ("cli", ("dispatch",)),
    "search.engine": ("search", ("decide",)),
    "detect.embedding": ("detect", ("find_blue_embedding",)),
    "detect.jump_member": ("detect", ("find_blue_jump_member",)),
    "detect.alpha": ("detect", ("alpha_table",)),
    "detect.redpath": ("detect", ("longest_red_path",)),
    "certify.beta": ("certify", ("beta_table",)),
    "certify.profile": ("certify", ("profile_table",)),
    "certify.profileprop": ("certify", ("verify_profile_property",)),
    "construct.lift": ("construct", ("lift",)),
    "core.parse": ("core", ("parse_pair_coloring", "parse_triple_coloring",
                            "parse_pattern", "parse_witness")),
    "core.serialize": ("core", ("serialize_pair_coloring",
                                "serialize_triple_coloring",
                                "serialize_pattern", "serialize_witness")),
}

DETECTORS = ("detect.embedding", "detect.jump_member")
REQUEST = "request"


class SpanRecorder:
    def __init__(self, modules):
        """modules: name -> module object for every module of the package."""
        self.modules = modules
        self.spans: list = []
        self._stack: list[int] = []
        self._run = None
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every binding of every traced function."""
        if self._saved:
            raise RuntimeError("recorder already installed")
        for name, (home, funcs) in TRACED.items():
            for fname in funcs:
                original = getattr(self.modules[home], fname)
                wrapper = self._wrap(name, original, name in DETECTORS)
                for mod in self.modules.values():
                    if getattr(mod, fname, None) is original:
                        self._saved.append((mod, fname, original))
                        setattr(mod, fname, wrapper)

    def restore(self) -> None:
        for mod, fname, original in reversed(self._saved):
            setattr(mod, fname, original)
        self._saved.clear()

    def _wrap(self, name, fn, detector):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            hit = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if detector:
                    hit = result is not None
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (self._run, name, start, end, parent, hit)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def request(self, run: str):
        """Root span for one instance; its spans all carry the run id."""
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        self._run = run
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (run, REQUEST, start, end, -1, None)
            self._run = None

    def write(self, path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[2] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, (run, name, start, end, parent, hit) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "run": run, "name": name, "parent": parent,
                    "start": start - origin, "end": end - origin, "hit": hit,
                }) + "\n")


class LayerSummary:
    """Self times, call counts and detector hits per layer."""

    def __init__(self, spans):
        child = [0.0] * len(spans)
        for run, name, start, end, parent, hit in spans:
            if parent >= 0:
                child[parent] += end - start
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.hits: dict[str, int] = defaultdict(int)
        engine_s = detector_in_engine_s = 0.0
        for sid, (run, name, start, end, parent, hit) in enumerate(spans):
            dur = end - start
            self.self_s[name] += dur - child[sid]
            self.calls[name] += 1
            self.hits[name] += bool(hit)
            if name == "search.engine":
                engine_s += dur
            elif name in DETECTORS and parent >= 0 and spans[parent][1] == "search.engine":
                detector_in_engine_s += dur
        self.detector_share = detector_in_engine_s / engine_s if engine_s else 0.0
        calls = sum(self.calls[d] for d in DETECTORS)
        self.hit_frac = sum(self.hits[d] for d in DETECTORS) / calls if calls else 0.0
