"""Closed-loop caller in a fresh interpreter (cold-exact, wide-spp0).

Speaks JSON lines: stdin takes commands, the original stdout carries
replies (the program's own prints go to stderr).  Set-up is what
``run.py`` times: imports, building the benchmark registry, one warm-up
request, then ``{"ready": ...}``.

Each request goes ``jobs_from_payload`` → ``run_batch(workers=0)`` with
the ``serve`` defaults (rung timeout, request budget, cache and delta
index sizes).  Every pass starts with a fresh ``ResultCache`` and
``DeltaIndex``, so every request is a cold miss.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

WARMUP_PLA = ".i 4\n.o 1\n0110 1\n1001 1\n1111 1\n0000 1\n0011 -\n.e\n"


def main() -> None:
    replies = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr

    def reply(obj) -> None:
        replies.write(json.dumps(obj) + "\n")
        replies.flush()

    import repro.bench.suite  # noqa: F401 — the registry is part of set-up
    import repro.serve.server as server
    from repro.budget import Budget
    from repro.delta import DeltaIndex
    from repro.engine import scheduler
    from repro.engine.cache import ResultCache

    cfg = server.ServeConfig()

    def fresh():
        return (
            ResultCache(max_entries=cfg.cache_entries, audit_rate=cfg.audit_rate),
            DeltaIndex(cfg.delta_entries, max_edit=cfg.delta_max_edit),
        )

    def call(payload, cache, delta):
        jobs = server.jobs_from_payload(payload)
        return scheduler.run_batch(
            jobs, workers=0, timeout=cfg.default_timeout, cache=cache,
            delta_index=delta, budget=Budget(seconds=cfg.default_budget),
        )

    call({"pla": WARMUP_PLA}, *fresh())
    reply({"ready": True, "pid": os.getpid()})

    payloads: list[dict] = []
    recorders = []
    tracer = None
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "load":
            payloads = cmd["payloads"]
            reply({"loaded": len(payloads)})
        elif cmd["cmd"] == "pass":
            rec = shims = None
            if cmd.get("trace"):
                import spans

                tracer = tracer or spans.Tracer()
                rec = tracer.rec = spans.Recorder()
                recorders.append(rec)
                shims = spans.Shims(tracer).__enter__()
            cache, delta = fresh()
            results = []
            t_pass = time.perf_counter()
            try:
                for i in cmd["order"]:
                    payload = payloads[i]
                    t0 = time.perf_counter()
                    if rec is None:
                        batch = call(payload, cache, delta)
                    else:
                        tracer.set_request(str(i))
                        with tracer.span(spans.REQUEST):
                            batch = call(payload, cache, delta)
                    ms = (time.perf_counter() - t0) * 1000.0
                    outcome = batch.outcomes[0]
                    record = outcome.record or {}
                    results.append({
                        "index": i, "ms": ms, "ok": outcome.ok,
                        "rung": record.get("rung"), "degraded": bool(record.get("degraded")),
                        "literals": record.get("literals", 0), "form": record.get("form"),
                    })
            finally:
                if shims is not None:
                    shims.__exit__()
                    tracer.rec = None
            out = {"wall_s": time.perf_counter() - t_pass, "results": results}
            if rec is not None:
                out["layers"] = spans.layer_metrics(rec)
                out["counts"] = {k: rec.counts[k] for k in spans.PINNED_COUNTS}
            reply(out)
        elif cmd["cmd"] == "rss":
            from procs import peak_rss_mb

            reply({"rss_mb": peak_rss_mb(os.getpid())})
        elif cmd["cmd"] == "exit":
            if cmd.get("spans") and recorders:
                import spans

                spans.dump(recorders, Path(cmd["spans"]))
            reply({"bye": True})
            return


if __name__ == "__main__":
    main()
