"""Command line front end.

One solve per invocation: read an instance, dispatch to the requested
solver, print a JSON run report on standard output. Exit codes follow
sysexits habits: 0 success, 2 infeasible instance, 3 oracle or budget
refusal, 64 usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from fractions import Fraction

from .cycles import min_steiner_cycle
from .errors import (
    BudgetExceeded,
    Infeasible,
    NoCycle,
    NoPath,
    NoProtectedPath,
    ParseError,
    SpecInfeasible,
)
from .graph import Graph
from .instance_io import cost_text, generate_instance, read_instance
from .kfst import FstInstance, solve_2ecs, solve_kfst_unweighted, solve_kfst_weighted
from .oracle import OracleBudget, oracle_min_subgraph
from .report import build_report, emit_report
from .scaling import weighted_steiner_cycle
from .solution import ProblemKind, Solution, SolveStats, run_stats
from .twonc import solve_2ncs_unweighted, solve_2ncs_weighted

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64

_INFEASIBLE = (Infeasible, NoCycle, NoPath, NoProtectedPath)


def _fraction_arg(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None
    return value


def _add_solve_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", help="instance file path, or - for standard input")
    sub.add_argument(
        "--epsilon",
        type=_fraction_arg,
        default=None,
        metavar="EPS",
        help="approximation slack for weighted costs; forces the scaling "
        "solver (default: 0.1 when costs are non-uniform, exact otherwise)",
    )
    sub.add_argument(
        "--eta",
        type=_fraction_arg,
        default=Fraction(1, 100),
        metavar="ETA",
        help="failure budget, recorded in the report (default 0.01; the "
        "engine is deterministic and never spends it)",
    )
    sub.add_argument("--seed", type=int, default=0, help="seed recorded in the report")
    sub.add_argument(
        "--threads",
        type=int,
        default=1,
        help="thread count, recorded in the report (default 1; the solvers "
        "run on one thread, so it never changes answers, counts or speed)",
    )
    sub.add_argument(
        "--oracle-check",
        action="store_true",
        help="also run the exhaustive oracle and report agreement",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once; parsing never mutates it."""
    parser = argparse.ArgumentParser(
        prog="survsteiner",
        description="Minimum survivable Steiner subgraphs: cycles, "
        "2-node-connected and 2-edge-connected subgraphs, and trees that "
        "tolerate one unsafe-edge failure.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("cycle", "minimum Steiner cycle through the terminals"),
        ("2ncs", "minimum 2-node-connected subgraph containing the terminals"),
        ("2ecs", "minimum 2-edge-connected subgraph containing the terminals"),
        ("kfst", "minimum tree-like connection surviving one unsafe-edge failure"),
    ):
        sub = subs.add_parser(name, help=blurb)
        _add_solve_flags(sub)
        sub.set_defaults(func=_run_solve, kind=ProblemKind(name))

    gen = subs.add_parser("generate", help="write a random feasible instance")
    gen.add_argument(
        "--kind", required=True, choices=[k.value for k in ProblemKind]
    )
    gen.add_argument("--n", required=True, type=int, help="node count")
    gen.add_argument("--m", required=True, type=int, help="edge count")
    gen.add_argument("--k", required=True, type=int, help="terminal count")
    gen.add_argument("--weighted", action="store_true", help="integer costs in [0, 50]")
    gen.add_argument(
        "--unsafe-fraction",
        type=float,
        default=0.3,
        help="fraction of unsafe edges for kfst instances (default 0.3)",
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--output", "-o", default="-", help="output path, or - for standard output"
    )
    gen.set_defaults(func=_run_generate)
    return parser


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _uniform_costs(g: Graph) -> bool:
    costs = {e.cost for e in g.edges}
    return len(costs) <= 1


def _dispatch(
    kind: ProblemKind,
    g: Graph,
    terminals: frozenset[int],
    epsilon: Fraction | None,
    args,
    stats: SolveStats,
) -> Solution:
    eta = args.eta
    seed = args.seed
    if kind is ProblemKind.CYCLE:
        if epsilon is None:
            return min_steiner_cycle(g, sorted(terminals))
        return weighted_steiner_cycle(
            g, sorted(terminals), epsilon, eta, seed, stats=stats
        )
    if kind is ProblemKind.TWO_NCS:
        if epsilon is None:
            return solve_2ncs_unweighted(
                g, sorted(terminals), eta, seed, threads=args.threads, stats=stats
            )
        return solve_2ncs_weighted(
            g, sorted(terminals), epsilon, eta, seed, threads=args.threads, stats=stats
        )
    if kind is ProblemKind.TWO_ECS:
        return solve_2ecs(
            g, sorted(terminals), epsilon, eta, seed, threads=args.threads, stats=stats
        )
    inst = FstInstance(g, terminals)
    if epsilon is None:
        return solve_kfst_unweighted(inst, eta, seed, threads=args.threads, stats=stats)
    return solve_kfst_weighted(
        inst, epsilon, eta, seed, threads=args.threads, stats=stats
    )


def _oracle_section(
    kind: ProblemKind, g: Graph, terminals, sol: Solution, weighted: bool
) -> dict:
    oracle = oracle_min_subgraph(
        g, sorted(terminals), kind, weighted=weighted, budget=OracleBudget()
    )
    section = {
        "oracle_cost": cost_text(oracle.cost),
        "solver_cost": cost_text(sol.cost),
    }
    if sol.cost == oracle.cost:
        section["agreement"] = "exact"
    elif (
        sol.ratio_bound is not None
        and oracle.cost > 0
        and sol.cost <= sol.ratio_bound * oracle.cost
    ):
        section["agreement"] = "within-ratio"
    else:
        section["agreement"] = "mismatch"
    return section


def _run_solve(args) -> int:
    try:
        text = _read_input(args.input)
    except OSError as exc:
        print(f"survsteiner: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        header_kind, inst = read_instance(text)
    except ParseError as exc:
        print(f"survsteiner: {exc}", file=sys.stderr)
        return EXIT_USAGE
    kind: ProblemKind = args.kind
    if header_kind is not kind:
        print(
            f"survsteiner: note: instance header says {header_kind.value}, "
            f"solving as {kind.value}",
            file=sys.stderr,
        )
    need = 1 if kind is ProblemKind.CYCLE else 2
    if len(inst.terminals) < need:
        print(f"survsteiner: {kind.value} needs {need}+ terminals", file=sys.stderr)
        return EXIT_USAGE
    if args.threads < 1:
        print("survsteiner: --threads must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.epsilon is not None and args.epsilon <= 0:
        print("survsteiner: --epsilon must be positive", file=sys.stderr)
        return EXIT_USAGE
    try:
        stats = run_stats(None, args.seed, args.eta, args.threads)
    except ValueError as exc:
        print(f"survsteiner: --{exc}", file=sys.stderr)
        return EXIT_USAGE

    g = inst.graph
    epsilon = args.epsilon
    if epsilon is None and not _uniform_costs(g):
        epsilon = Fraction(1, 10)

    started = time.perf_counter()
    try:
        sol = _dispatch(kind, g, inst.terminals, epsilon, args, stats)
    except _INFEASIBLE as exc:
        stats.elapsed_ms = round((time.perf_counter() - started) * 1000, 3)
        report = build_report(
            g, kind, inst.terminals, None, stats,
            status="infeasible", message=str(exc),
        )
        sys.stdout.write(emit_report(report))
        return EXIT_INFEASIBLE
    except BudgetExceeded as exc:
        print(f"survsteiner: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    stats.elapsed_ms = round((time.perf_counter() - started) * 1000, 3)

    oracle_section = None
    if args.oracle_check:
        try:
            oracle_section = _oracle_section(
                kind, g, inst.terminals, sol, weighted=epsilon is not None
            )
        except BudgetExceeded as exc:
            print(f"survsteiner: {exc}", file=sys.stderr)
            return EXIT_BUDGET

    report = build_report(
        g, kind, inst.terminals, sol, stats, oracle_check=oracle_section
    )
    sys.stdout.write(emit_report(report))
    return EXIT_OK


def _run_generate(args) -> int:
    spec = {
        "kind": args.kind,
        "n": args.n,
        "m": args.m,
        "k": args.k,
        "weighted": args.weighted,
        "unsafe_fraction": args.unsafe_fraction,
        "seed": args.seed,
    }
    try:
        text = generate_instance(spec)
    except (SpecInfeasible, ValueError) as exc:
        print(f"survsteiner: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"survsteiner: cannot write {args.output}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
