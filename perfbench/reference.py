"""Reference optima from an integer program, independent of the solvers.

Each instance becomes one 0/1 program with multi-commodity flows, solved
with HiGHS through ``scipy.optimize.milp``. Only the optimal cost is used,
so which optimum HiGHS returns does not matter.

Variables: x_e per edge, y_v per node (cycle and 2ncs only), and per
commodity a flow on both directions of every edge. A commodity sends two
units from terminal s to terminal t; the two directions of edge e carry
at most cap_e * x_e together. By max-flow/min-cut this says every cut
splitting s from t has capacity at least two in the chosen edge set F.

- cycle: deg_F(v) = 2 y_v and y_t = 1, so F is a union of disjoint
  cycles; unit capacities from t0 to every other terminal put all the
  terminals on one of them.
- 2ncs: every terminal pair gets a commodity, and flow through any node
  other than the pair's ends is at most y_v: two internally disjoint
  paths per pair. The terminals then share one block of F, which is a
  2-node-connected solution no dearer than F (at least three terminals).
- kfst: capacity 2 on safe and 1 on unsafe edges, commodities from t0:
  every cut splitting the terminals keeps a safe edge or two unsafe ones.
  2ecs uses capacity 1 everywhere. Trimming the terminal-free side of each
  bridge of F keeps this and does not raise the cost (costs are >= 0).

All costs in the benchmark's inputs are integers, so optima are integers.

For the default seed the optima are read from ``references/``, computed
once and committed, so neither a change to the program nor to SciPy can
move them; other seeds compute them on the fly. Regenerate the file with
``python3 perfbench/reference.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array

DEFAULT_SEED = 0
COMMITTED = Path(__file__).resolve().parent / "references" / f"seed{DEFAULT_SEED}.json"
WORKERS = 2
WORKER_TIMEOUT_S = 120


class _Program:
    def __init__(self) -> None:
        self.nvars = 0
        self.rows: list[dict[int, float]] = []
        self.lo: list[float] = []
        self.hi: list[float] = []

    def new_vars(self, count: int) -> int:
        first = self.nvars
        self.nvars += count
        return first

    def add(self, coefs: dict[int, float], lo: float, hi: float) -> None:
        self.rows.append(coefs)
        self.lo.append(lo)
        self.hi.append(hi)

    def matrix(self) -> coo_array:
        r, c, v = [], [], []
        for i, coefs in enumerate(self.rows):
            for j, val in coefs.items():
                r.append(i)
                c.append(j)
                v.append(val)
        return coo_array((v, (r, c)), shape=(len(self.rows), self.nvars))


def reference_cost(kind: str, n: int, edges, terminals) -> int | None:
    """Optimal cost of the instance, or None when it has no solution.

    ``edges`` holds (u, v, integer cost, safe) tuples.
    """
    terms = sorted(set(terminals))
    if kind == "2ncs" and len(terms) < 3:
        # with two terminals a pair of parallel edges carries both paths
        raise ValueError("the 2ncs program needs at least three terminals")
    if kind not in ("cycle", "2ncs", "kfst", "2ecs"):
        raise ValueError(f"unknown kind {kind!r}")
    m = len(edges)
    prog = _Program()
    x = prog.new_vars(m)
    y = prog.new_vars(n) if kind in ("cycle", "2ncs") else None
    if kind == "kfst":
        caps = [2.0 if safe else 1.0 for _, _, _, safe in edges]
    else:
        caps = [1.0] * m

    if kind == "cycle":
        for v in range(n):
            row = {x + e: 1.0 for e, (a, b, _, _) in enumerate(edges) if v in (a, b)}
            row[y + v] = -2.0
            prog.add(row, 0.0, 0.0)
    if kind == "2ncs":
        pairs = [(a, b) for i, a in enumerate(terms) for b in terms[i + 1:]]
    else:
        pairs = [(terms[0], t) for t in terms[1:]]

    for s, t in pairs:
        f = prog.new_vars(2 * m)  # f + 2e: u->v, f + 2e + 1: v->u
        balance: list[dict[int, float]] = [{} for _ in range(n)]
        inflow: list[dict[int, float]] = [{} for _ in range(n)]
        for e, (a, b, _, _) in enumerate(edges):
            fwd, back = f + 2 * e, f + 2 * e + 1
            prog.add({fwd: 1.0, back: 1.0, x + e: -caps[e]}, -np.inf, 0.0)
            balance[a][fwd] = balance[a].get(fwd, 0.0) + 1.0
            balance[b][fwd] = balance[b].get(fwd, 0.0) - 1.0
            balance[b][back] = balance[b].get(back, 0.0) + 1.0
            balance[a][back] = balance[a].get(back, 0.0) - 1.0
            inflow[b][fwd] = 1.0
            inflow[a][back] = 1.0
        for v in range(n):
            need = 2.0 if v == s else -2.0 if v == t else 0.0
            prog.add(balance[v], need, need)
            if kind == "2ncs" and v not in (s, t):
                row = dict(inflow[v])
                row[y + v] = -1.0
                prog.add(row, -np.inf, 0.0)

    cost = np.zeros(prog.nvars)
    cost[x : x + m] = [c for _, _, c, _ in edges]
    integrality = np.zeros(prog.nvars)
    integrality[x : x + m] = 1
    lower = np.zeros(prog.nvars)
    upper = np.full(prog.nvars, np.inf)
    upper[x : x + m] = 1.0
    if y is not None:
        integrality[y : y + n] = 1
        upper[y : y + n] = 1.0
        for v in terms:
            lower[y + v] = 1.0
    res = milp(
        cost,
        integrality=integrality,
        bounds=Bounds(lower, upper),
        constraints=[LinearConstraint(prog.matrix(), prog.lo, prog.hi)],
        options={"mip_rel_gap": 0.0},
    )
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"reference solve failed: {res.message}")
    return int(round(res.fun))


def _worker(workload: str, seed: int, first: int, stop: int) -> None:
    """Print the optima of requests first, first + WORKERS, ... < stop."""
    from workloads import WORKLOADS

    # HiGHS writes stray progress lines straight to file descriptor 1, so
    # the answer goes out on a copy of it taken before that is silenced
    answer = os.fdopen(os.dup(1), "w")
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    optima = []
    for i in range(first, stop, WORKERS):
        req = WORKLOADS[workload].request(seed, i)
        optima.append(reference_cost(req.kind, req.n, req.edges, req.terminals))
    answer.write(json.dumps(optima) + "\n")
    answer.close()


def _solve_range(workload: str, seed: int, first: int, stop: int) -> list[int | None]:
    """Optima of requests first..stop-1, split over WORKERS child processes.

    The children draw the requests themselves from (workload, seed, index).
    Every child is waited for on every way out, so none outlives the call.
    """
    procs = []
    try:
        for w in range(min(WORKERS, max(stop - first, 0))):
            argv = ["--worker", workload, str(seed), str(first + w), str(stop)]
            procs.append(
                subprocess.Popen(
                    [sys.executable, __file__, *argv], stdout=subprocess.PIPE, text=True
                )
            )
        shares = []
        for proc in procs:
            text, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"reference worker exited {proc.returncode}")
            shares.append(json.loads(text.strip().splitlines()[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    optima: list[int | None] = [None] * max(stop - first, 0)
    for w, share in enumerate(shares):
        optima[w::WORKERS] = share
    return optima


def references(workload: str, seed: int, requests) -> list[int | None]:
    """Reference optimum per request: committed ones first, then computed.

    ``requests`` are the workload's requests 0, 1, ... in order.
    """
    known: list[int | None] = []
    if seed == DEFAULT_SEED:
        known = json.loads(COMMITTED.read_text())[workload][: len(requests)]
    return known + _solve_range(workload, seed, len(known), len(requests))


def _write_committed() -> None:
    from workloads import WORKLOADS

    refs = {}
    for workload in WORKLOADS.values():
        refs[workload.name] = _solve_range(workload.name, DEFAULT_SEED, 0, workload.max_requests)
        print(f"{workload.name}: {workload.max_requests} references", file=sys.stderr)
    COMMITTED.parent.mkdir(exist_ok=True)
    COMMITTED.write_text(json.dumps(refs, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        _worker(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), int(sys.argv[5]))
    else:
        _write_committed()
