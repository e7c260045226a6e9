"""Solve benchmark: closed-loop request streams with checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends one request at a time: an instance text handed to the
``survsteiner`` command line entry point, run in-process, which returns
the JSON report. The loop runs until the requests have taken ``--seconds``
of wall time and the workload's minimum request count is reached, or its
maximum count is. Every answer is checked (see ``check.py``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` replays the
same requests in a fresh process under the span tracer (``spans.py``,
``child.py``) and prints the per-layer metrics. The last line of standard output is
the result as one JSON object; the line before it names the answer and
count digests, which two runs with one seed must reproduce.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150


def call_cli(argv: list[str], text: str) -> tuple[int, str]:
    """One request through ``survsteiner.cli.main`` with text on stdin."""
    from survsteiner import cli

    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def solve_one(workload: Workload, req, solve=call_cli):
    """Send one request; returns (answer, seconds, cpu seconds)."""
    from check import Answer, read_answer

    argv = [req.kind, "-"]
    text = req.text()
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        code, out = solve(argv, text)
    except Exception:  # a crash is a failed request, not the end of the run
        elapsed = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return Answer("crashed", (), None, {}, "solver raised"), elapsed, 0.0
    elapsed = time.perf_counter() - start
    cpu = time.process_time() - cpu
    return read_answer(req, code, out), elapsed, cpu


def closed_loop(workload: Workload, seed: int, seconds: float, solve=call_cli):
    """Requests, answers, latencies and CPU seconds of one measured loop."""
    requests, answers, latencies, cpu = [], [], [], []
    busy = 0.0
    while (busy < seconds or len(requests) < workload.min_requests) and len(
        requests
    ) < workload.max_requests:
        req = workload.request(seed, len(requests))
        answer, elapsed, used = solve_one(workload, req, solve)
        requests.append(req)
        answers.append(answer)
        latencies.append(elapsed)
        cpu.append(used)
        busy += elapsed
    return requests, answers, latencies, cpu


def judge(workload: Workload, seed: int, requests, answers) -> list[str]:
    """Why each answer is wrong ('' when right), against the references."""
    import reference
    from check import verdict

    refs = reference.references(workload.name, seed, requests)
    return [verdict(r, a, ref) for r, a, ref in zip(requests, answers, refs)]


def tail_latency(latencies: list[float], percentile: int) -> float:
    ordered = sorted(latencies)
    return ordered[math.ceil(percentile / 100 * len(ordered)) - 1]


def _child(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload: Workload) -> float:
    """Median seconds to import the package and serve a warm-up request."""
    samples = [
        _child("setup", "--workload", workload.name)["setup_s"]
        for _ in range(SETUP_REPEATS)
    ]
    return statistics.median(samples)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (SRC / "survsteiner" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import survsteiner.cli  # noqa: F401  (fail here, before any measuring)

    setup_s = measure_setup(workload) if args.trace == 0 else None
    requests, answers, latencies, cpu = closed_loop(workload, args.seed, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wrong = judge(workload, args.seed, requests, answers)

    traced = None
    if args.trace == 1:
        traced = _child(
            "traced", "--workload", workload.name, "--seed", str(args.seed),
            "--count", str(len(requests)),
        )
        from check import answer_hashes

        for i, (mine, theirs) in enumerate(zip(answer_hashes(answers), traced["answers"])):
            if mine != theirs and not wrong[i]:
                wrong[i] = "traced replay gave another answer"

    from check import digests

    prefix = workload.min_requests
    answer_digest, count_digest = digests(requests[:prefix], answers[:prefix])
    failed = sum(1 for w in wrong if w)
    attempted = len(requests)
    graphs = {r.graph_key for r in requests}
    summary = {
        "workload": workload.name,
        "seed": args.seed,
        "requests": attempted,
        "graph_repeat_frac": 1 - len(graphs) / attempted,
        "failed_frac": failed / attempted,
        "digest_requests": prefix,
        "answer_digest": answer_digest,
        "count_digest": count_digest,
        "tail_percentile": workload.tail_percentile,
        "failures": sorted({w for w in wrong if w})[:5],
    }
    print(json.dumps(summary, sort_keys=True))

    if args.trace == 0:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "latency_p50_ms": metric(statistics.median(latencies) * 1000, "ms"),
            "latency_tail_ms": metric(
                tail_latency(latencies, workload.tail_percentile) * 1000, "ms"
            ),
            "throughput_rps": metric(attempted / sum(latencies), "1/s"),
            "correct_frac": metric(1 - failed / attempted, "frac"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    else:
        metrics = {name: metric(*pair) for name, pair in traced["layers"].items()}
        metrics["dispatch.cpu_per_wall"] = metric(sum(cpu) / sum(latencies), "s/s")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
