"""Regenerate ``inputs.json``: which outputs each workload sends, and why
the others are left out.

    PYTHONPATH=src python3 e2ebench/select_inputs.py

Candidates are every output of the paper functions named below.  An
output is left out when it is constant 0, when its truth table repeats
an earlier candidate (it would silently become a cache hit), when its
exact rung is capped or degrades, or when its median cold time is at
least ``SLOW_S``: a slow output makes passes long (a run must hold
several whole passes for its per-output medians) and sits nearer the
5 s rung timeout, where a degrade under host noise would change rung,
latency and literals at once.  Each output is timed as the
closed-loop worker sends it, on a fresh cache and delta index.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from inputs import INPUTS_PATH, Function, to_hex  # noqa: E402

CANDIDATES = {
    "cold-exact": (["adr4", "radd", "mlp4", "life", "dist", "root", "f51m", "cs8"], "exact", "exact"),
    "wide-spp0": (["add6", "newtpla2", "max512", "max1024", "addm4", "newcond"], "heuristic", "heuristic-k0"),
}
SLOW_S = 0.8
REPEATS = 3
# serve-mix bases: cold-exact outputs whose cold solve
# takes 30-250 ms and whose 1- and 2-point deltas go warm in 5 ms or
# more, so the cold, warm and hit classes do not overlap in latency and
# every cold solve ends well before the next serve-mix arrival.
SERVE_BASES = ["mlp4[2]", "mlp4[5]", "mlp4[6]", "life[0]", "dist[2]", "dist[3]", "cs8[4]"]


def main() -> None:
    from repro.bench.suite import get_benchmark
    from repro.delta import DeltaIndex
    from repro.engine.cache import ResultCache
    from repro.engine.scheduler import run_batch
    from repro.serve.server import ServeConfig, jobs_from_payload

    cfg = ServeConfig()

    def solve(payload):
        cache = ResultCache(max_entries=cfg.cache_entries, audit_rate=cfg.audit_rate)
        delta = DeltaIndex(cfg.delta_entries, max_edit=cfg.delta_max_edit)
        t0 = time.perf_counter()
        batch = run_batch(jobs_from_payload(payload), workers=0, timeout=cfg.default_timeout,
                          cache=cache, delta_index=delta)
        return (time.perf_counter() - t0) * 1000.0, batch.outcomes[0].record

    functions: dict[str, dict] = {}
    workloads: dict[str, dict] = {}
    excluded: list[dict] = []
    measured: dict[str, float] = {}
    for workload, (names, method, rung) in CANDIDATES.items():
        seen: dict[tuple, str] = {}
        kept = []
        for name in names:
            multi = get_benchmark(name)
            for o, f in enumerate(multi.outputs):
                label = f"{name}[{o}]"
                on = np.zeros(1 << f.n, dtype=bool)
                dc = np.zeros(1 << f.n, dtype=bool)
                on[list(f.on_set)] = True
                dc[list(f.dc_set)] = True
                key = (f.n, to_hex(on), to_hex(dc))

                def drop(reason: str) -> None:
                    excluded.append({"workload": workload, "output": label, "reason": reason})
                    print(f"{workload}: drop {label}: {reason}", flush=True)

                if not f.on_set:
                    drop("constant 0")
                    continue
                if key in seen:
                    drop(f"same truth table as {seen[key]}")
                    continue
                seen[key] = label
                payload = {"pla": Function(label, f.n, on, dc).pla, "method": method, "k": 0}
                times = []
                record = None
                for _ in range(REPEATS):
                    ms, record = solve(payload)
                    times.append(ms)
                    if record["rung"] != rung or record.get("truncated"):
                        break
                median = statistics.median(times)
                measured[label] = round(median, 1)
                if record.get("truncated"):
                    drop("exact generation capped (truncated candidate list)")
                elif record["rung"] != rung:
                    drop(f"{rung} rung timed out; degraded to {record['rung']} after {median / 1000:.1f} s")
                elif median >= SLOW_S * 1000:
                    drop(f"median cold time {median / 1000:.2f} s >= {SLOW_S} s")
                else:
                    kept.append(label)
                    functions[label] = {"n": f.n, "on": key[1], "dc": key[2]}
                    print(f"{workload}: keep {label}: {median:.0f} ms", flush=True)
        spec = {"method": method, "rung": rung, "outputs": kept}
        if method == "heuristic":
            spec["k"] = 0
        workloads[workload] = spec
    missing = [b for b in SERVE_BASES if b not in workloads["cold-exact"]["outputs"]]
    if missing:
        raise SystemExit(f"serve bases not in cold-exact: {missing}")
    workloads["serve-mix"] = {"rung": "exact", "bases": SERVE_BASES}
    INPUTS_PATH.write_text(json.dumps({
        "about": "Written by select_inputs.py. Truth tables are hex bitmasks, bit p = minterm p.",
        "measured_ms": {
            "what": "median cold time per candidate output, fresh cache and delta index",
            "host": "2-CPU Linux container, Python 3.11, NumPy 2.4",
            "values": measured,
        },
        "excluded": excluded,
        "workloads": workloads,
        "functions": functions,
    }, indent=1) + "\n")


if __name__ == "__main__":
    main()
