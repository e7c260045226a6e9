"""Instance text format: parsing, emission, and the seeded generator."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from survsteiner import (
    FstInstance,
    Graph,
    ParseError,
    ProblemKind,
    SemanticError,
    SpecInfeasible,
    cost_text,
    emit_instance,
    generate_instance,
    instance_kind,
    oracle_feasible,
    parse_instance,
    read_instance,
    solve_2ncs_unweighted,
)
from survsteiner.instance_io import _cost_token

TRIANGLE = """\
# a comment
cycle 3 3 2

t 0
t 2
e 0 1 1 S
e 1 2 0.5 U
e 2 0 1/3 S
"""


class TestParsing:
    def test_minimal_instance(self):
        inst = parse_instance(TRIANGLE)
        assert inst.graph.n == 3 and inst.graph.m == 3
        assert inst.terminals == frozenset({0, 2})
        assert inst.graph.edge(1).cost == Fraction(1, 2)
        assert inst.graph.edge(2).cost == Fraction(1, 3)
        assert inst.graph.edge(1).safe is False
        assert instance_kind(TRIANGLE) is ProblemKind.CYCLE
        kind, once = read_instance(TRIANGLE)
        assert kind is ProblemKind.CYCLE
        assert once.terminals == inst.terminals and once.graph.m == inst.graph.m

    def test_parallel_edge_lines_get_distinct_ids(self):
        text = "kfst 2 2 2\nt 0\nt 1\ne 0 1 1 U\ne 0 1 1 U\n"
        inst = parse_instance(text)
        assert inst.graph.m == 2
        assert inst.graph.edge(0).other(0) == inst.graph.edge(1).other(0) == 1

    def test_missing_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_instance("# only comments\n")

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_instance("spanning 3 3 2\n")

    def test_bad_cost_token(self):
        text = "cycle 2 1 2\nt 0\nt 1\ne 0 1 bogus S\n"
        with pytest.raises(ParseError, match="line 4"):
            parse_instance(text)

    def test_bad_safety_flag(self):
        text = "cycle 2 1 2\nt 0\nt 1\ne 0 1 1 X\n"
        with pytest.raises(ParseError, match="line 4"):
            parse_instance(text)

    def test_unknown_record(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_instance("cycle 2 1 2\nq 0\n")

    def test_negative_cost_is_semantic(self):
        text = "cycle 2 1 2\nt 0\nt 1\ne 0 1 -2 S\n"
        with pytest.raises(SemanticError, match="line 4"):
            parse_instance(text)
        # semantic errors still read as parse failures to broad handlers
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_loop_edge_is_semantic(self):
        text = "cycle 2 1 2\nt 0\nt 1\ne 1 1 1 S\n"
        with pytest.raises(SemanticError, match="line 4"):
            parse_instance(text)

    def test_endpoint_out_of_range(self):
        text = "cycle 2 1 2\nt 0\nt 1\ne 0 5 1 S\n"
        with pytest.raises(SemanticError, match="line 4"):
            parse_instance(text)

    def test_duplicate_terminal(self):
        text = "cycle 2 1 2\nt 0\nt 0\ne 0 1 1 S\n"
        with pytest.raises(SemanticError, match="line 3"):
            parse_instance(text)

    def test_errors_carry_their_line_number(self):
        head = "cycle 3 2 2\n# a comment\nt 0\nt 2\n"
        for record, error, message in [
            ("e 0 1 x S", ParseError, "line 5: bad cost 'x'"),
            ("e 0 7 1 S", SemanticError, "line 5: endpoint out of range"),
        ]:
            with pytest.raises(error) as info:
                parse_instance(head + record + "\ne 1 2 1 S\n")
            assert info.value.line == 5
            assert str(info.value) == message
        with pytest.raises(SemanticError) as info:
            parse_instance(head + "e 0 1 1 S\n")
        assert info.value.line is None  # a count mismatch has no one line

    def test_count_mismatches(self):
        with pytest.raises(SemanticError, match="terminals"):
            parse_instance("cycle 2 1 2\nt 0\ne 0 1 1 S\n")
        with pytest.raises(SemanticError, match="edges"):
            parse_instance("cycle 2 2 2\nt 0\nt 1\ne 0 1 1 S\n")


class TestEmission:
    def test_round_trip_is_stable(self):
        once = emit_instance(parse_instance(TRIANGLE), ProblemKind.CYCLE)
        twice = emit_instance(parse_instance(once), instance_kind(once))
        assert once == twice
        inst = parse_instance(once)
        ref = parse_instance(TRIANGLE)
        assert inst.terminals == ref.terminals
        assert [(e.u, e.v, e.cost, e.safe) for e in inst.graph.edges] == [
            (e.u, e.v, e.cost, e.safe) for e in ref.graph.edges
        ]

    def test_emitted_text_names_the_kind(self):
        inst = FstInstance(Graph.build(2, [(0, 1, 1, False)]), frozenset({0, 1}))
        text = emit_instance(inst, ProblemKind.KFST)
        assert text.splitlines()[1].startswith("kfst 2 1 2")
        assert instance_kind(text) is ProblemKind.KFST


class TestCostText:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(1), "1"),
            (Fraction(0), "0"),
            (Fraction(1, 2), "0.5"),
            (Fraction(9, 4), "2.25"),
            (Fraction(1, 3), "1/3"),
            (Fraction(-3, 2), "-1.5"),
            (Fraction(7, 50), "0.14"),
        ],
    )
    def test_examples(self, value, expected):
        assert cost_text(value) == expected

    @given(
        st.integers(min_value=-(10**6), max_value=10**6),
        st.integers(min_value=1, max_value=10**4),
    )
    def test_round_trip(self, num, den):
        value = Fraction(num, den)
        assert _cost_token(cost_text(value), 1) == value


class TestGenerator:
    def test_deterministic_per_seed(self):
        spec = {"kind": "2ncs", "n": 8, "m": 14, "k": 3, "seed": 1}
        assert generate_instance(spec) == generate_instance(dict(spec))
        assert generate_instance(spec) != generate_instance({**spec, "seed": 2})

    def test_generated_instance_parses_and_solves(self):
        text = generate_instance({"kind": "2ncs", "n": 8, "m": 13, "k": 3, "seed": 5})
        assert instance_kind(text) is ProblemKind.TWO_NCS
        inst = parse_instance(text)
        assert inst.graph.n == 8 and inst.graph.m == 13
        assert len(inst.terminals) == 3
        sol = solve_2ncs_unweighted(inst.graph, sorted(inst.terminals))
        assert sol.edges

    @pytest.mark.parametrize("kind", ["cycle", "2ncs", "2ecs", "kfst"])
    def test_planted_ring_is_feasible(self, kind):
        # the first max(3, k) edges are the planted terminal ring
        for seed in range(4):
            text = generate_instance(
                {"kind": kind, "n": 7, "m": 12, "k": 3, "seed": seed}
            )
            inst = parse_instance(text)
            assert oracle_feasible(
                inst.graph, set(range(3)), sorted(inst.terminals), instance_kind(text)
            )

    def test_weighted_costs_land_in_range(self):
        text = generate_instance(
            {"kind": "kfst", "n": 8, "m": 16, "k": 3, "weighted": True, "seed": 3}
        )
        costs = {e.cost for e in parse_instance(text).graph.edges}
        assert all(0 <= c <= 50 for c in costs)
        assert len(costs) > 1

    def test_two_ecs_edges_are_all_unsafe(self):
        text = generate_instance({"kind": "2ecs", "n": 6, "m": 9, "k": 3, "seed": 0})
        assert all(not e.safe for e in parse_instance(text).graph.edges)

    def test_unsafe_fraction_extremes(self):
        safe = generate_instance(
            {"kind": "kfst", "n": 6, "m": 10, "k": 3, "unsafe_fraction": 0.0, "seed": 2}
        )
        assert all(e.safe for e in parse_instance(safe).graph.edges)
        risky = generate_instance(
            {"kind": "kfst", "n": 6, "m": 10, "k": 3, "unsafe_fraction": 1.0, "seed": 2}
        )
        assert all(not e.safe for e in parse_instance(risky).graph.edges)

    def test_spec_bounds(self):
        with pytest.raises(SpecInfeasible):
            generate_instance({"kind": "cycle", "n": 5, "m": 8, "k": 1})
        with pytest.raises(SpecInfeasible):
            generate_instance({"kind": "2ncs", "n": 2, "m": 8, "k": 2})
        with pytest.raises(SpecInfeasible):
            generate_instance({"kind": "2ncs", "n": 6, "m": 4, "k": 3})
        with pytest.raises(SpecInfeasible):
            generate_instance({"kind": "mst", "n": 6, "m": 9, "k": 3})
