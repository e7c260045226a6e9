"""Self-tests of the benchmark: its answer gate, references and output.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from check import digests, read_answer, verdict  # noqa: E402
from survsteiner import Graph, Infeasible, ProblemKind, oracle_min_subgraph  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny(monkeypatch, name: str, requests: int = 3):
    small = dataclasses.replace(workloads.WORKLOADS[name], min_requests=requests)
    monkeypatch.setitem(workloads.WORKLOADS, name, small)
    monkeypatch.setitem(run.WORKLOADS, name, small)
    return small


def _run_main(argv: list[str]) -> tuple[dict, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    lines = out.getvalue().strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _corrupt(mutate):
    def solve(argv, text):
        code, out = run.call_cli(argv, text)
        report = json.loads(out)
        mutate(report)
        return code, json.dumps(report)

    return solve


def _failed_frac(workload, solve) -> float:
    workload = dataclasses.replace(workload, min_requests=4)
    requests, answers, _, _ = run.closed_loop(workload, 0, 0.0, solve)
    wrong = run.judge(workload, 0, requests, answers)
    return sum(1 for w in wrong if w) / len(wrong)


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda r: r["edges"].pop(), id="edge-dropped"),
        pytest.param(lambda r: r.update(cost=str(int(r["cost"]) + 1)), id="cost-changed"),
    ],
)
def test_corrupted_answer_raises_failed_frac(mutate):
    workload = workloads.WORKLOADS["kfst-mixed"]
    assert _failed_frac(workload, run.call_cli) == 0
    assert _failed_frac(workload, _corrupt(mutate)) > 0


def test_suboptimal_answer_fails():
    # a feasible, consistent answer that is too dear still counts as wrong
    req = workloads.WORKLOADS["twonc-unit"].request(0, 0)
    code, out = run.call_cli([req.kind, "-"], req.text())
    answer = read_answer(req, code, out)
    ref = reference.reference_cost(req.kind, req.n, req.edges, req.terminals)
    assert verdict(req, answer, ref) == ""
    assert verdict(req, answer, ref - 1) != ""


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric(monkeypatch, trace, key):
    _tiny(monkeypatch, "kfst-mixed")
    summary, result = _run_main(
        ["--workload", "kfst-mixed", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    )
    assert summary["failed_frac"] == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected


@pytest.mark.parametrize("name", ["kfst-mixed", "twonc-unit"])
def test_traced_run_accounts_for_request_time(monkeypatch, name):
    _tiny(monkeypatch, name, requests=2)
    _, result = _run_main(["--workload", name, "--seed", "5", "--seconds", "0", "--trace", "1"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
    total = layers + m["unattributed_s"] - m["tracing.overlap_s"]
    assert total == pytest.approx(m["tracing.request_s"], rel=1e-9)
    assert m["cli.calls"] == result["attempted"]
    if name == "kfst-mixed":
        assert m["kfst.families"] > 0 and m["twonc.calls"] == 0
    else:
        assert m["twonc.iterations"] > 0 and m["kfst.calls"] == 0
    assert m["tracing.overlap_s"] == pytest.approx(0, abs=1e-9)


def test_digests_repeat_and_ignore_thread_count(monkeypatch):
    _tiny(monkeypatch, "twonc-unit", requests=2)
    argv = ["--workload", "twonc-unit", "--seed", "7", "--seconds", "0", "--trace", "0"]
    first, _ = _run_main(argv)
    again, _ = _run_main(argv)
    assert first["answer_digest"] == again["answer_digest"]
    assert first["count_digest"] == again["count_digest"]

    # the paper's claim: the thread count changes wall time, never answers
    workload = workloads.WORKLOADS["twonc-unit"]
    requests, single, _, _ = run.closed_loop(workload, 7, 0.0)
    _, threaded, _, _ = run.closed_loop(
        workload, 7, 0.0, lambda argv, text: run.call_cli([*argv, "--threads", "2"], text)
    )
    assert digests(requests, single)[0] == digests(requests, threaded)[0]


def test_reference_matches_oracle():
    rng = random.Random(11)
    for i in range(60):
        kind = ("cycle", "2ncs", "kfst", "2ecs")[i % 4]
        n = rng.randint(4, 6)
        weighted = i % 8 >= 4
        edges = [
            (*rng.sample(range(n), 2), rng.randint(0, 9) if weighted else 1, rng.random() < 0.5)
            for _ in range(rng.randint(n, n + 5))
        ]
        terms = rng.sample(range(n), 3)
        g = Graph.build(n, edges)
        try:
            want = oracle_min_subgraph(g, terms, ProblemKind(kind), weighted=weighted).cost
        except Infeasible:
            want = None
        assert reference.reference_cost(kind, n, edges, terms) == want, (kind, edges, terms)


def test_committed_references_match_the_workloads():
    committed = json.loads(reference.COMMITTED.read_text())
    for workload in workloads.WORKLOADS.values():
        refs = committed[workload.name]
        assert len(refs) == workload.max_requests
        for i in range(3):
            req = workload.request(reference.DEFAULT_SEED, i)
            assert refs[i] == reference.reference_cost(req.kind, req.n, req.edges, req.terminals)
