"""Fresh-process helpers for run.py.

    child.py setup --workload NAME
        Seconds to import the package and serve one warm-up request,
        measured from before the import (interpreter start-up excluded).

    child.py traced --workload NAME --seed N --count C
        Replays the first C requests under the span tracer and prints the
        per-layer totals and one answer hash per request. Every fourth
        request is then solved once more untraced, right after, so that
        the tracing overhead is measured on the same inputs in the same
        process.

A fresh process keeps the traced replay from meeting anything the
untraced run left in memory.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run
from workloads import WORKLOADS

# every this many requests of a traced replay is solved again untraced
OVERHEAD_EVERY = 4
# K4 with three terminals: a valid instance of every problem kind
WARMUP = "{kind} 4 6 3\nt 0\nt 1\nt 2\ne 0 1 1 S\ne 1 2 1 S\ne 2 3 1 S\ne 3 0 1 S\ne 0 2 1 S\ne 1 3 1 U\n"


def setup(workload) -> dict:
    kind = workload.strata[0]["kinds"][0]
    start = time.perf_counter()
    sys.path.insert(0, str(run.SRC))
    code, _ = run.call_cli([kind, "-"], WARMUP.format(kind=kind))
    elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"warm-up request exited {code}")
    return {"setup_s": elapsed}


def _layer_counts(requests, answers) -> dict[str, int]:
    """Per-layer counts read from the SolveStats of each report."""
    out = dict.fromkeys(
        ("twonc.iterations", "twonc.updates", "twonc.subcalls", "kfst.families",
         "kfst.protected_pairs", "scaling.prefix_checks", "scaling.subdivided_nodes"),
        0,
    )
    for req, ans in zip(requests, answers):
        stats = ans.counts
        subcalls = stats.get("subcalls") or {}
        if req.kind == "2ncs":
            out["twonc.iterations"] += stats.get("iterations") or 0
            out["twonc.updates"] += len(stats.get("updates") or ())
            out["twonc.subcalls"] += subcalls.get("cycle_calls", 0) + subcalls.get("path_calls", 0)
        elif req.kind in ("kfst", "2ecs"):
            out["kfst.families"] += stats.get("iterations") or 0
            out["kfst.protected_pairs"] += subcalls.get("protected_pairs", 0)
            out["twonc.iterations"] += subcalls.get("twonc_iterations", 0)
        out["scaling.prefix_checks"] += stats.get("threshold_index") or 0
        out["scaling.subdivided_nodes"] += stats.get("subdivided_nodes") or 0
    return out


def traced(workload, seed: int, count: int) -> dict:
    sys.path.insert(0, str(run.SRC))
    import survsteiner.cli  # noqa: F401  (the tracer patches loaded modules)
    from check import answer_hashes, read_answer
    from spans import LAYERS, Tracer

    tracer = Tracer()
    requests, answers = [], []
    untraced_s = paired_s = 0.0
    for i in range(count):
        req = workload.request(seed, i)
        argv = [req.kind, "-"]
        text = req.text()
        (code, out), elapsed = tracer.run_request(lambda: run.call_cli(argv, text))
        if i % OVERHEAD_EVERY == 0:
            start = time.perf_counter()
            run.call_cli(argv, text)
            untraced_s += time.perf_counter() - start
            paired_s += elapsed
        requests.append(req)
        answers.append(read_answer(req, code, out))

    counts = _layer_counts(requests, answers)
    layers: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        layers[f"{layer}.self_s"] = (tracer.self_s[layer], "s")
        layers[f"{layer}.calls"] = (tracer.calls[layer], "count")
    layers["cycles.cycle_calls"] = (tracer.cycle_calls, "count")
    layers["cycles.path_calls"] = (tracer.path_calls, "count")
    for name in ("scaling.prefix_checks", "scaling.subdivided_nodes", "twonc.iterations",
                 "twonc.updates", "kfst.families", "kfst.protected_pairs"):
        layers[name] = (counts[name], "count")
    iterations = counts["twonc.iterations"]
    layers["twonc.subcalls_per_iteration"] = (
        counts["twonc.subcalls"] / iterations if iterations else 0.0, "1/iteration",
    )
    layers["unattributed_s"] = (tracer.unattributed_s, "s")
    layers["tracing.overlap_s"] = (tracer.overlap_s, "s")
    layers["tracing.request_s"] = (tracer.request_s, "s")
    layers["tracing.overhead_frac"] = (paired_s / untraced_s - 1, "frac")
    return {"layers": layers, "answers": answer_hashes(answers)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("setup", "traced"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.role == "setup":
        result = setup(workload)
    else:
        result = traced(workload, args.seed, args.count)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
