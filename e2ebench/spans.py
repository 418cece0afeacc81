"""Spans around calls into the program's layers, recorded from outside.

Tracing wraps each layer's entry points in place (module attributes and
class methods, looked up where the callers look them up) for the traced
passes of a ``--trace 1`` run, then restores them.  A target that no
longer resolves raises :class:`LookupError`: a renamed function must
not read as an idle layer.

Spans live in memory as ``(request id, layer, start, end, parent)`` and
are written out when the run ends.  A layer's self time is its span's
duration minus the durations of its direct children.  Layers named in
``BACKGROUND`` run on their own threads, outside any request.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

REQUEST = "request"       # the benchmark's own root span per request
BACKGROUND = {"shadow.verify"}
REQUEST_HEADER = "X-Bench-Request"

# Layer timings: mean self time per request, in ms.  The other per-layer
# metrics are ratios (``_ratio``, ``_share``) or counts per traced pass.
TIME_LAYERS = {
    "pla.parse_ms": "pla.parse",
    "server.handle_ms": "server.handle",
    "server.http_ms": "server.http",
    "admission.wait_ms": "admission.wait",
    "shadow.verify_ms": "shadow.verify",
    "scheduler.self_ms": "scheduler",
    "ladder.self_ms": "ladder",
    "cache.get_ms": "cache.get",
    "cache.put_ms": "cache.put",
    "delta.lookup_ms": "delta.lookup",
    "delta.capture_ms": "delta.capture",
    "delta.warm_ms": "delta.warm",
    "eppp.gen_ms": "eppp.gen",
    "qm.primes_ms": "qm.primes",
    "heuristic.self_ms": "heuristic",
    "coverage.build_ms": "coverage.build",
    "mincov.solve_ms": "mincov.solve",
    "verify.ms": "verify",
    "integrity.cert_ms": "integrity.cert",
}
# Counts that must repeat exactly across traced passes, runs and seeds.
PINNED_COUNTS = ("eppp.candidates", "coverage.columns", "qm.primes")


class Recorder:
    """The spans and counts of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []   # (rid, layer, t0, t1, parent index)
        self.counts: dict[str, float] = defaultdict(float)
        self.lock = threading.Lock()

    def count(self, name: str, value: float = 1) -> None:
        with self.lock:
            self.counts[name] += value

    def layer_totals(self) -> tuple[dict[str, float], float, int]:
        """Per-layer self seconds, summed root wall seconds, root count.

        Self time of request-path layers counts only for requests whose
        root span was recorded; background layers count as they run.
        """
        child = [0.0] * len(self.spans)
        roots: dict[str, float] = {}
        for s in self.spans:
            if s is None:
                continue
            rid, layer, t0, t1, parent = s
            if parent is not None:
                child[parent] += t1 - t0
            if layer == REQUEST:
                roots[rid] = roots.get(rid, 0.0) + t1 - t0
        totals: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s is None or s[1] == REQUEST:
                continue
            if s[1] in BACKGROUND or s[0] in roots:
                totals[s[1]] += (s[3] - s[2]) - child[i]
        return totals, sum(roots.values()), len(roots)


class Tracer:
    """Routes spans to the current :class:`Recorder`; none means off.

    Span stacks and request ids are per thread: a server answers each
    request on its own thread, and tags it with the id the client sent.
    """

    def __init__(self) -> None:
        self.rec: Recorder | None = None
        self._local = threading.local()

    def set_request(self, rid: str | None) -> None:
        self._local.rid = rid

    def count(self, name: str, value: float = 1) -> None:
        rec = self.rec
        if rec is not None:
            rec.count(name, value)

    @contextlib.contextmanager
    def span(self, layer: str):
        rec = self.rec
        if rec is None:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        with rec.lock:
            index = len(rec.spans)
            rec.spans.append(None)
        parent = stack[-1] if stack else None
        stack.append(index)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            rec.spans[index] = (getattr(self._local, "rid", None), layer, t0, t1, parent)


def dump(recorders: list[Recorder], path: Path) -> None:
    """Write every recorded span as one JSON line, tagged with its pass."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for index, rec in enumerate(recorders):
            for span in rec.spans:
                if span is not None:
                    out.write(json.dumps([index, *span]) + "\n")


def _resolve(module: str, path: str):
    try:
        owner = importlib.import_module(module)
    except ImportError as exc:
        raise LookupError(f"trace target module {module} does not import: {exc}") from exc
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"trace target {module}.{path} no longer resolves")
    if not hasattr(owner, parts[-1]):
        raise LookupError(f"trace target {module}.{path} no longer resolves")
    return owner, parts[-1]


def _timed(tracer: Tracer, layer: str, fn, post=None):
    def wrapper(*args, **kwargs):
        if tracer.rec is None:
            return fn(*args, **kwargs)
        with tracer.span(layer):
            result = fn(*args, **kwargs)
        if post is not None:
            post(tracer, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _post_parse(tracer, func):
    tracer.count("pla.points", sum(len(f.on_set) + len(f.dc_set) for f in func.outputs))


def _post_batch(tracer, result):
    tracer.count("ladder.jobs", len(result.outcomes))
    tracer.count("ladder.degraded", sum(o.degraded for o in result.outcomes))
    tracer.count("ladder.computed", sum(o.source == "computed" for o in result.outcomes))


def _post_rung(tracer, record):
    tracer.count("ladder.attempts")


def _post_get(tracer, record):
    tracer.count("cache.gets")
    tracer.count("cache.hits", record is not None)


def _post_warm(tracer, record):
    tracer.count("delta.tries")
    tracer.count("delta.warm_hits", record is not None)


def _post_gen(tracer, result):
    tracer.count("eppp.candidates", len(result.eppps))
    tracer.count("eppp.comparisons", result.total_comparisons)


def _post_primes(tracer, primes):
    tracer.count("qm.primes", len(primes))


def _post_build(tracer, problem):
    tracer.count("coverage.columns", problem.num_columns)


def _post_solve(tracer, solution):
    if solution.stats is not None:
        tracer.count("mincov.columns", solution.stats.columns)
        tracer.count("mincov.core_columns", solution.stats.core_columns)


def _post_shadow(tracer, report):
    tracer.count("shadow.checked")


# (module, attribute path, layer, post-hook).  Patched where the callers
# look the names up, so one function can appear under several modules.
TARGETS = [
    ("repro.serve.server", "parse_pla", "pla.parse", _post_parse),
    ("repro.serve.server", "jobs_from_payload", "server.handle", None),
    ("repro.serve.server", "MinimizeService.handle_minimize", "server.handle", None),
    ("repro.serve.server", "run_batch", "scheduler", _post_batch),
    ("repro.engine.scheduler", "run_batch", "scheduler", _post_batch),
    ("repro.engine.scheduler", "execute_rung", "ladder", _post_rung),
    ("repro.engine.cache", "ResultCache.get", "cache.get", _post_get),
    ("repro.engine.cache", "ResultCache.put", "cache.put", None),
    ("repro.delta", "warm_record_for", "delta.warm", _post_warm),
    ("repro.delta.index", "DeltaIndex.lookup", "delta.lookup", None),
    ("repro.delta.index", "DeltaIndex.observe", "delta.capture", None),
    ("repro.minimize.exact", "generate_eppp", "eppp.gen", _post_gen),
    ("repro.minimize.exact", "prime_implicants", "qm.primes", _post_primes),
    ("repro.minimize.heuristic", "prime_implicants", "qm.primes", _post_primes),
    ("repro.minimize.sp", "prime_implicants", "qm.primes", _post_primes),
    ("repro.engine.ladder", "minimize_spp_k", "heuristic", None),
    ("repro.minimize.exact", "build_problem", "coverage.build", _post_build),
    ("repro.minimize.sp", "build_cube_problem", "coverage.build", _post_build),
    ("repro.minimize.covering", "solve", "mincov.solve", _post_solve),
    ("repro.engine.ladder", "verify_form", "verify", None),
    ("repro.verify", "verify_form", "verify", None),
    ("repro.engine.ladder", "make_certificate", "integrity.cert", None),
    ("repro.integrity", "make_certificate", "integrity.cert", None),
    ("repro.serve.shadow", "verify_form", "shadow.verify", _post_shadow),
]


def _admit_shim(tracer: Tracer, admit):
    """``AdmissionQueue.admit`` is a context manager that waits on entry."""

    @contextlib.contextmanager
    def wrapper(self, *args, **kwargs):
        manager = admit(self, *args, **kwargs)
        try:
            with tracer.span("admission.wait"):
                manager.__enter__()
        except Exception as exc:
            if type(exc).__name__ == "Overloaded":
                tracer.count("admission.shed")
            raise
        try:
            yield
        except BaseException:
            if not manager.__exit__(*sys.exc_info()):
                raise
        else:
            manager.__exit__(None, None, None)

    wrapper.__wrapped__ = admit
    return wrapper


def _handler_shim(tracer: Tracer, make_handler, layer: str):
    """Time each HTTP request's header parsing and ``do_POST`` as
    ``layer``, tagged with the request id the benchmark client sent."""

    def wrapper(owner):
        handler = make_handler(owner)
        parse, do_post = handler.parse_request, handler.do_POST

        def traced_parse(self):
            with tracer.span(layer):
                ok = parse(self)
                headers = getattr(self, "headers", None)
                tracer.set_request(headers.get(REQUEST_HEADER) if ok and headers is not None else None)
            return ok

        def traced_post(self):
            try:
                with tracer.span(layer):
                    do_post(self)
            finally:
                tracer.set_request(None)

        handler.parse_request = traced_parse
        handler.do_POST = traced_post
        return handler

    wrapper.__wrapped__ = make_handler
    return wrapper


class Shims:
    """Install every target's wrapper; restore the originals on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, name, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self) -> "Shims":
        try:
            for module, path, layer, post in TARGETS:
                owner, name = _resolve(module, path)
                self._patch(owner, name, _timed(self.tracer, layer, getattr(owner, name), post))
            owner, name = _resolve("repro.serve.admission", "AdmissionQueue.admit")
            self._patch(owner, name, _admit_shim(self.tracer, getattr(owner, name)))
            owner, name = _resolve("repro.serve.server", "_make_handler")
            self._patch(owner, name, _handler_shim(self.tracer, getattr(owner, name), "server.http"))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    totals, root_s, requests = rec.layer_totals()
    c = rec.counts
    per_request = max(requests, 1)
    out = {name: totals.get(layer, 0.0) * 1000.0 / per_request for name, layer in TIME_LAYERS.items()}

    def ratio(num: str, den: str) -> float:
        return c[num] / c[den] if c[den] else 0.0

    ladder_jobs = c["ladder.computed"] - c["delta.warm_hits"]
    out.update({
        "pla.points": c["pla.points"] / per_request,
        "admission.shed": c["admission.shed"],
        "shadow.checked": c["shadow.checked"],
        "ladder.attempts_per_job": c["ladder.attempts"] / ladder_jobs if ladder_jobs > 0 else 0.0,
        "ladder.degraded_share": ratio("ladder.degraded", "ladder.jobs"),
        "cache.hit_ratio": ratio("cache.hits", "cache.gets"),
        "delta.warm_ratio": ratio("delta.warm_hits", "delta.tries"),
        "eppp.candidates": c["eppp.candidates"],
        "eppp.comparisons": c["eppp.comparisons"],
        "qm.primes": c["qm.primes"],
        "coverage.columns": c["coverage.columns"],
        "mincov.core_columns": c["mincov.core_columns"],
        "mincov.core_ratio": ratio("mincov.core_columns", "mincov.columns"),
    })
    attributed = sum(v for layer, v in totals.items() if layer not in BACKGROUND)
    out["trace.unattributed_share"] = (root_s - attributed) / root_s if root_s else 0.0
    return out
