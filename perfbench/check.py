"""Answer checks and determinism digests.

A report passes when it re-validates (``validate_report``), its edge set
is feasible by ``oracle_feasible``, its cost is the sum of its edges'
costs, and that cost matches the reference optimum: equal for unit-cost
requests, within [OPT, (1 + EPSILON) * OPT] for weighted ones. An
"infeasible" report passes only when the reference is infeasible too.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

from survsteiner import Graph, ProblemKind, oracle_feasible, validate_report

# the command line's default slack for non-uniform costs
EPSILON = Fraction(1, 10)


@dataclass(frozen=True)
class Answer:
    """What the checks and digests need from one report."""

    status: str
    edges: tuple[int, ...]
    cost: Fraction | None
    counts: dict
    fault: str  # why the report failed its structural check, if it did


COUNT_FIELDS = (
    "iterations", "subcalls", "updates", "threshold_index", "subdivided_nodes", "beta", "mu"
)


def _counts(stats: dict) -> dict:
    """The exact search counts of a report's SolveStats (no timings)."""
    return {name: stats.get(name) for name in COUNT_FIELDS}


def read_answer(request, exit_code: int, text: str) -> Answer:
    """Parse one report and run every check that needs no reference."""
    try:
        report = json.loads(text)
    except ValueError:
        return Answer("garbled", (), None, {}, "report is not JSON")
    status = report.get("status")
    counts = _counts(report.get("stats") or {})
    if status == "infeasible":
        ok = exit_code == 2
        return Answer(status, (), None, counts, "" if ok else f"exit code {exit_code}")
    if status != "ok" or exit_code != 0:
        return Answer(str(status), (), None, counts, f"status {status}, exit {exit_code}")
    g = Graph.build(request.n, request.edges)
    try:
        edges = tuple(int(e) for e in report["edges"])
        cost = Fraction(report["cost"])
        if report["problem"] != request.kind:
            raise ValueError(f"solved {report['problem']}, asked {request.kind}")
        if list(report["terminals"]) != list(request.terminals):
            raise ValueError("report names other terminals")
        if len(set(edges)) != len(edges) or not all(0 <= e < g.m for e in edges):
            raise ValueError("edge ids are repeated or out of range")
        validate_report(g, report)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return Answer(status, (), None, counts, f"invalid report: {exc}")
    if not oracle_feasible(g, edges, request.terminals, ProblemKind(request.kind)):
        return Answer(status, edges, cost, counts, "edge set is not feasible")
    if cost != sum((Fraction(request.edges[e][2]) for e in edges), Fraction(0)):
        return Answer(status, edges, cost, counts, "cost is not the sum of the edge costs")
    return Answer(status, edges, cost, counts, "")


def verdict(request, answer: Answer, reference: int | None) -> str:
    """Empty when the answer is right, else why it is wrong."""
    if answer.fault:
        return answer.fault
    if reference is None:
        return "" if answer.status == "infeasible" else "solved an infeasible instance"
    if answer.status != "ok":
        return "reported infeasible, reference has a solution"
    if not request.weighted:
        return "" if answer.cost == reference else f"cost {answer.cost}, optimum {reference}"
    if reference <= answer.cost <= (1 + EPSILON) * reference:
        return ""
    return f"cost {answer.cost} outside [{reference}, {(1 + EPSILON) * reference}]"


def answer_hashes(answers) -> list[str]:
    """One short hash of (status, edge set, cost) per answer."""
    return [
        hashlib.sha256(f"{a.status}|{a.edges}|{a.cost}".encode()).hexdigest()[:16]
        for a in answers
    ]


def digests(requests, answers) -> tuple[str, str]:
    """Digest of the (request, edge set, cost) triples, and of the counts."""
    answer_hash = hashlib.sha256()
    count_hash = hashlib.sha256()
    for req, ans, short in zip(requests, answers, answer_hashes(answers)):
        text_hash = hashlib.sha256(req.text().encode()).hexdigest()
        answer_hash.update(f"{text_hash}|{short}\n".encode())
        count_hash.update(json.dumps(ans.counts, sort_keys=True).encode() + b"\n")
    return answer_hash.hexdigest()[:16], count_hash.hexdigest()[:16]
