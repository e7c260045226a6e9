"""Solution certificates, JSON reports, and the command-line front end."""

import json
import random
from collections.abc import Callable
from fractions import Fraction
from typing import NamedTuple

import pytest

from survsteiner import (
    FstInstance,
    Graph,
    ProblemKind,
    Solution,
    SolveStats,
    build_certificate,
    build_report,
    emit_report,
    min_steiner_cycle,
    solve_2ecs,
    solve_2ncs_unweighted,
    solve_2ncs_weighted,
    solve_kfst_unweighted,
    solve_kfst_weighted,
    validate_certificate,
    validate_report,
    weighted_steiner_cycle,
)
from survsteiner.cli import main


def theta():
    return Graph.build(
        5,
        [(0, 2, 1, True), (2, 1, 1, True), (0, 3, 1, True),
         (3, 1, 1, True), (0, 4, 1, True), (4, 1, 1, True)],
    )


def mixed_five():
    return Graph.build(
        5,
        [(0, 1, 1, False), (1, 2, 1, True), (2, 3, 1, False),
         (3, 0, 1, True), (1, 3, 1, False), (1, 4, 1, True),
         (4, 3, 1, True)],
    )


class TestCertificates:
    def test_cycle_certificate_lists_the_tour(self):
        g = theta()
        sol = min_steiner_cycle(g, [2, 3])
        cert = build_certificate(g, ProblemKind.CYCLE, [2, 3], sol.edges)
        assert cert["kind"] == "cycle"
        assert len(cert["nodes"]) == len(sol.edges)
        validate_certificate(g, ProblemKind.CYCLE, [2, 3], sol.edges, cert)

    def test_ear_certificate_for_two_ncs(self):
        g = theta()
        sol = solve_2ncs_unweighted(g, [2, 3, 4])
        cert = build_certificate(g, ProblemKind.TWO_NCS, [2, 3, 4], sol.edges)
        assert cert["kind"] == "ears"
        assert cert["ears"][0]["closed"] is True
        assert all(not ear["closed"] for ear in cert["ears"][1:])
        validate_certificate(g, ProblemKind.TWO_NCS, [2, 3, 4], sol.edges, cert)

    def test_block_certificate_for_kfst(self):
        g = mixed_five()
        sol = solve_kfst_unweighted(FstInstance(g, frozenset({0, 2, 4})))
        cert = build_certificate(g, ProblemKind.KFST, [0, 2, 4], sol.edges)
        assert cert["kind"] == "blocks"
        validate_certificate(g, ProblemKind.KFST, [0, 2, 4], sol.edges, cert)

    def test_block_certificate_for_two_ecs(self):
        g = Graph.build(4, [(i, (i + 1) % 4, 1, True) for i in range(4)])
        sol = solve_2ecs(g, [0, 2])
        cert = build_certificate(g, ProblemKind.TWO_ECS, [0, 2], sol.edges)
        validate_certificate(g, ProblemKind.TWO_ECS, [0, 2], sol.edges, cert)

    def test_tampered_cycle_rejected(self):
        g = theta()
        sol = min_steiner_cycle(g, [2, 3])
        cert = build_certificate(g, ProblemKind.CYCLE, [2, 3], sol.edges)
        cert["nodes"] = cert["nodes"][:-1]
        with pytest.raises(ValueError):
            validate_certificate(g, ProblemKind.CYCLE, [2, 3], sol.edges, cert)

    def test_tampered_edges_rejected(self):
        g = theta()
        sol = solve_2ncs_unweighted(g, [2, 3, 4])
        cert = build_certificate(g, ProblemKind.TWO_NCS, [2, 3, 4], sol.edges)
        with pytest.raises(ValueError):
            validate_certificate(
                g, ProblemKind.TWO_NCS, [2, 3, 4], sol.edges - {min(sol.edges)}, cert
            )

    def test_wrong_kind_label_rejected(self):
        g = theta()
        sol = min_steiner_cycle(g, [2, 3])
        cert = build_certificate(g, ProblemKind.CYCLE, [2, 3], sol.edges)
        with pytest.raises(ValueError):
            validate_certificate(g, ProblemKind.TWO_NCS, [2, 3], sol.edges, cert)

    def test_unprotected_chain_rejected(self):
        # a bare unsafe bridge cannot certify a survivable connection
        g = Graph.build(2, [(0, 1, 1, False)])
        cert = {
            "kind": "blocks",
            "blocks": [{"nodes": [0, 1], "edges": [0]}],
            "tree_edges": [],
            "cut_nodes": [],
            "condensed_nodes": [0],
            "condensed_edges": [],
            "protected_paths": [],
        }
        with pytest.raises(ValueError):
            validate_certificate(g, ProblemKind.KFST, [0, 1], frozenset({0}), cert)


class TestReports:
    def test_report_round_trips_through_json(self):
        g = theta()
        sol = min_steiner_cycle(g, [2, 3])
        report = build_report(g, ProblemKind.CYCLE, [2, 3], sol)
        parsed = json.loads(emit_report(report))
        assert parsed["status"] == "ok"
        assert parsed["problem"] == "cycle"
        assert parsed["edges"] == sorted(sol.edges)
        validate_report(g, parsed)

    def test_infeasible_report_skips_the_certificate(self):
        g = Graph.build(3, [(0, 1, 1, True), (1, 2, 1, True)])
        report = build_report(
            g, ProblemKind.CYCLE, [0, 2], None, status="infeasible", message="no cycle"
        )
        assert "certificate" not in report and "edges" not in report
        validate_report(g, report)

    def test_ratio_bound_travels_as_text(self):
        g = theta()
        sol = Solution(
            edges=frozenset({0, 1, 2, 3}),
            cost=Fraction(4),
            optimal=False,
            ratio_bound=Fraction(3, 2),
        )
        report = build_report(g, ProblemKind.TWO_NCS, [0, 1], sol)
        assert report["ratio_bound"] == "1.5"
        assert report["cost"] == "4"


HALF = Fraction(1, 2)


class Entry(NamedTuple):
    weighted: bool
    threads: int  # the count it records: weighted_steiner_cycle takes none
    call: Callable  # (epsilon, eta, stats) -> Solution, with seed 7


ENTRY_POINTS = {
    "weighted_steiner_cycle": Entry(True, 1, lambda eps, eta, st: weighted_steiner_cycle(
        theta(), [0, 1], eps, eta, 7, stats=st)),
    "solve_2ncs_unweighted": Entry(False, 2, lambda eps, eta, st: solve_2ncs_unweighted(
        theta(), [0, 1, 2], eta, 7, threads=2, stats=st)),
    "solve_2ncs_weighted": Entry(True, 2, lambda eps, eta, st: solve_2ncs_weighted(
        theta(), [0, 1, 2], eps, eta, 7, threads=2, stats=st)),
    "solve_kfst_unweighted": Entry(False, 2, lambda eps, eta, st: solve_kfst_unweighted(
        FstInstance(mixed_five(), frozenset({0, 2})), eta, 7, threads=2, stats=st)),
    "solve_kfst_weighted": Entry(True, 2, lambda eps, eta, st: solve_kfst_weighted(
        FstInstance(mixed_five(), frozenset({0, 2})), eps, eta, 7, threads=2, stats=st)),
    "solve_2ecs": Entry(False, 2, lambda eps, eta, st: solve_2ecs(
        mixed_five(), [0, 2], None, eta, 7, threads=2, stats=st)),
    "solve_2ecs_weighted": Entry(True, 2, lambda eps, eta, st: solve_2ecs(
        mixed_five(), [0, 2], eps, eta, 7, threads=2, stats=st)),
}
WEIGHTED_ENTRY_POINTS = sorted(name for name, e in ENTRY_POINTS.items() if e.weighted)


@pytest.mark.parametrize("eta", [0, 5, Fraction(3, 2)], ids=["0", "5", "3/2"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_eta_outside_the_unit_interval_is_rejected(entry, eta):
    call = ENTRY_POINTS[entry].call
    with pytest.raises(ValueError, match="eta must be in"):
        call(HALF, eta, None)
    call(HALF, 1, None)  # the closed end of (0, 1] is accepted


@pytest.mark.parametrize("epsilon", [0, Fraction(-1, 2)], ids=["0", "-1/2"])
@pytest.mark.parametrize("entry", WEIGHTED_ENTRY_POINTS)
def test_every_weighted_entry_point_checks_epsilon(entry, epsilon):
    with pytest.raises(ValueError, match="epsilon must be positive"):
        ENTRY_POINTS[entry].call(epsilon, 1, SolveStats())


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_records_its_run(entry):
    weighted, threads, call = ENTRY_POINTS[entry]
    stats = SolveStats()
    sol = call(HALF, Fraction(1, 3), stats)
    assert (stats.seed, stats.eta, stats.threads) == (7, Fraction(1, 3), threads)
    if weighted:
        # unit costs on 5 nodes: beta = 1 and mu = eps * beta / n
        assert (stats.epsilon, stats.beta, stats.mu) == (HALF, 1, HALF / 5)
        assert stats.threshold_index >= 1
        assert sol.optimal is False and sol.ratio_bound == 1 + HALF
    else:
        assert (stats.epsilon, stats.beta, stats.mu, stats.threshold_index) == (None,) * 4
        assert sol.optimal is True and sol.ratio_bound is None


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(tmp_path, text, name="inst.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCli:
    def test_solve_emits_a_valid_report(self, tmp_path, capsys):
        text = "cycle 4 4 2\nt 0\nt 2\n" + "".join(
            f"e {i} {(i + 1) % 4} 1 S\n" for i in range(4)
        )
        path = write_instance(tmp_path, text)
        code, out, _ = run_cli(capsys, "cycle", path)
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "ok"
        assert report["cost"] == "4"
        g = Graph.build(4, [(i, (i + 1) % 4, 1, True) for i in range(4)])
        validate_report(g, report)

    def test_sub_millisecond_solve_reports_its_time(self, tmp_path, capsys):
        # a K4 cycle solve takes well under a millisecond; whole
        # milliseconds would read 0
        pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        text = "cycle 4 6 2\nt 0\nt 2\n" + "".join(f"e {u} {v} 1 S\n" for u, v in pairs)
        code, out, _ = run_cli(capsys, "cycle", write_instance(tmp_path, text))
        assert code == 0
        elapsed = json.loads(out)["stats"]["elapsed_ms"]
        assert isinstance(elapsed, float) and elapsed > 0

    def test_infeasible_exits_two(self, tmp_path, capsys):
        text = "cycle 3 2 2\nt 0\nt 2\ne 0 1 1 S\ne 1 2 1 S\n"
        code, out, _ = run_cli(capsys, "cycle", write_instance(tmp_path, text))
        assert code == 2
        assert json.loads(out)["status"] == "infeasible"

    def test_oracle_budget_exits_three(self, tmp_path, capsys):
        n = 26
        lines = [f"kfst {n} {n} 3", "t 0", "t 5", "t 10"]
        lines += [f"e {i} {(i + 1) % n} 1 S" for i in range(n)]
        path = write_instance(tmp_path, "\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "kfst", path, "--oracle-check")
        assert code == 3
        assert "budget" in err.lower()

    def test_usage_errors_exit_sixtyfour(self, tmp_path, capsys):
        assert run_cli(capsys, "nonsense")[0] == 64
        assert run_cli(capsys, "cycle", str(tmp_path / "missing.txt"))[0] == 64
        text = "cycle 3 3 2\nt 0\nt 1\ne 0 1 1 S\ne 1 2 1 S\ne 2 0 1 S\n"
        path = write_instance(tmp_path, text)
        assert run_cli(capsys, "cycle", path, "--epsilon", "-1")[0] == 64
        assert run_cli(capsys, "cycle", path, "--threads", "0")[0] == 64
        bad = write_instance(tmp_path, "cycle 2 1 2\nt 0\nt 1\ne 0 1 bogus S\n", "bad.txt")
        assert run_cli(capsys, "cycle", bad)[0] == 64

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["cycle", "--help"]) == 0
        capsys.readouterr()

    def test_oracle_check_agrees_exactly(self, tmp_path, capsys):
        text = "2ncs 5 7 3\nt 0\nt 1\nt 3\n" + "".join(
            f"e {u} {v} 1 S\n"
            for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)]
        )
        path = write_instance(tmp_path, text)
        code, out, _ = run_cli(capsys, "2ncs", path, "--oracle-check")
        assert code == 0
        report = json.loads(out)
        assert report["oracle_check"]["agreement"] == "exact"

    def test_default_epsilon_for_ragged_costs(self, tmp_path, capsys):
        text = "cycle 4 5 2\nt 0\nt 2\n" + "".join(
            f"e {u} {v} {c} S\n"
            for u, v, c in [(0, 1, 3), (1, 2, 1), (2, 3, 4), (3, 0, 2), (0, 2, 2)]
        )
        path = write_instance(tmp_path, text)
        code, out, _ = run_cli(capsys, "cycle", path)
        assert code == 0
        report = json.loads(out)
        assert report["optimal"] is False
        assert report["ratio_bound"] == "1.1"

    def test_uniform_costs_solve_exactly(self, tmp_path, capsys):
        text = "cycle 3 3 2\nt 0\nt 1\n" + "".join(
            f"e {i} {(i + 1) % 3} 7 S\n" for i in range(3)
        )
        path = write_instance(tmp_path, text)
        code, out, _ = run_cli(capsys, "cycle", path)
        assert code == 0
        report = json.loads(out)
        assert report["optimal"] is True and report["cost"] == "21"

    def test_explicit_epsilon_wins(self, tmp_path, capsys):
        text = "cycle 3 3 2\nt 0\nt 1\n" + "".join(
            f"e {i} {(i + 1) % 3} 1 S\n" for i in range(3)
        )
        path = write_instance(tmp_path, text)
        code, out, _ = run_cli(capsys, "cycle", path, "--epsilon", "1/2")
        assert code == 0
        report = json.loads(out)
        assert report["optimal"] is False and report["ratio_bound"] == "1.5"

    def test_header_mismatch_notes_on_stderr(self, tmp_path, capsys):
        text = "kfst 3 3 2\nt 0\nt 1\n" + "".join(
            f"e {i} {(i + 1) % 3} 1 S\n" for i in range(3)
        )
        path = write_instance(tmp_path, text)
        code, out, err = run_cli(capsys, "cycle", path)
        assert code == 0
        assert "kfst" in err
        assert json.loads(out)["problem"] == "cycle"

    def test_generate_then_solve(self, tmp_path, capsys):
        out_path = tmp_path / "gen.txt"
        code, _, _ = run_cli(
            capsys, "generate", "--kind", "2ecs", "--n", "6", "--m", "9",
            "--k", "3", "--seed", "4", "--output", str(out_path),
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "2ecs", str(out_path))
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    def test_generate_rejects_impossible_specs(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--kind", "2ncs", "--n", "2", "--m", "9", "--k", "2"
        )
        assert code == 64 and err

    def test_generate_is_deterministic(self, capsys):
        argv = ["generate", "--kind", "kfst", "--n", "6", "--m", "10", "--k", "3",
                "--seed", "9"]
        code, first, _ = run_cli(capsys, *argv)
        assert code == 0
        code, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        import io

        text = "cycle 3 3 2\nt 0\nt 1\n" + "".join(
            f"e {i} {(i + 1) % 3} 1 S\n" for i in range(3)
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run_cli(capsys, "cycle", "-")
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    @pytest.mark.parametrize("seed", range(6))
    def test_reports_validate_across_kinds(self, capsys, seed, tmp_path):
        rng = random.Random(300 + seed)
        kind = ["cycle", "2ncs", "2ecs", "kfst"][seed % 4]
        code, text, _ = run_cli(
            capsys, "generate", "--kind", kind, "--n", "7", "--m", "11",
            "--k", "3", "--seed", str(rng.randrange(100)),
        )
        assert code == 0
        path = write_instance(tmp_path, text, f"gen{seed}.txt")
        code, out, _ = run_cli(capsys, kind, path, "--oracle-check")
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "ok"
        assert report["oracle_check"]["agreement"] in ("exact", "within-ratio")

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    @pytest.mark.parametrize("kind", ["cycle", "2ncs", "2ecs", "kfst"])
    def test_report_records_the_eta_it_was_given(self, tmp_path, capsys, kind, weighted):
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)]
        text = f"{kind} 5 7 3\nt 0\nt 1\nt 3\n" + "".join(
            f"e {u} {v} {i + 1 if weighted else 1} {'SU'[i % 2]}\n"
            for i, (u, v) in enumerate(pairs)
        )
        path = write_instance(tmp_path, text)
        code, out, _ = run_cli(capsys, kind, path)
        assert code == 0
        report = json.loads(out)
        assert report["optimal"] is not weighted
        assert report["stats"]["eta"] == "0.01"
        code, out, _ = run_cli(capsys, kind, path, "--eta", "1/3")
        assert code == 0
        assert json.loads(out)["stats"]["eta"] == "1/3"

    @pytest.mark.parametrize("kind", ["cycle", "2ncs", "2ecs", "kfst"])
    def test_infeasible_weighted_report_records_epsilon(self, tmp_path, capsys, kind):
        text = "cycle 4 3 2\nt 0\nt 3\ne 0 1 1 U\ne 1 2 2 U\ne 2 3 3 U\n"
        code, out, _ = run_cli(capsys, kind, write_instance(tmp_path, text))
        assert code == 2
        report = json.loads(out)
        assert report["status"] == "infeasible"
        assert report["stats"]["epsilon"] == "0.1"

    @pytest.mark.parametrize("eta", ["0", "5"])
    def test_eta_outside_the_unit_interval_is_a_usage_error(self, tmp_path, capsys, eta):
        text = "cycle 3 3 2\nt 0\nt 1\n" + "".join(
            f"e {i} {(i + 1) % 3} 1 S\n" for i in range(3)
        )
        code, out, err = run_cli(capsys, "cycle", write_instance(tmp_path, text), "--eta", eta)
        assert code == 64 and not out
        assert "eta must be in (0, 1]" in err

    @pytest.mark.parametrize(
        "kind, k",
        [("cycle", 0), ("2ncs", 0), ("2ncs", 1), ("2ecs", 0), ("2ecs", 1),
         ("kfst", 0), ("kfst", 1)],
    )
    def test_too_few_terminals_is_a_usage_error(self, tmp_path, capsys, kind, k):
        text = f"{kind} 4 4 {k}\n" + "t 0\n" * k + "".join(
            f"e {i} {(i + 1) % 4} 1 S\n" for i in range(4)
        )
        code, out, err = run_cli(capsys, kind, write_instance(tmp_path, text))
        assert code == 64 and not out
        assert "terminals" in err
