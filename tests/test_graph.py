"""Structural validation, DOT export and JSON round-trips for GraphSpec."""

from decimal import Decimal

import pytest

import gatekeep as gk
from gatekeep import procedures as proc
from gatekeep.graph import SUM_TOL, FamilySpec, GraphSpec, TransitionCoefficients

from conftest import (
    SPEC_NUMBER_FIELDS,
    parallel_split_spec,
    random_spec,
    spec_text_with_true,
    two_layer_fixed_sequence_spec,
)


def chain_spec():
    return gk.make_spec(
        0.05,
        [
            [("F1", ["H11", "H12", "H13"], 0.05, proc.truncated_holm(0.5))],
            [("F2", ["H21", "H22", "H23"], 0.0, proc.truncated_holm(0.5))],
            [("F3", ["H31", "H32", "H33"], 0.0, proc.holm())],
        ],
        {("F1", "F2"): 1.0, ("F2", "F3"): 1.0},
    )


def family(name, labels):
    return FamilySpec(name, tuple(labels), 0.0, proc.bonferroni())


class TestValidateSpec:
    @pytest.mark.parametrize(
        "layers, entries, violation",
        [
            ((), {}, "no layers"),
            (((family("F1", ["H1"]),), ()), {}, "layer 2 is empty"),
            (((family("F1", ["H1"]), family("F1", ["H2"])),), {}, "duplicate family name 'F1'"),
            (((family("F1", []),),), {}, "family F1: no hypotheses"),
            (((family("F1", ["H1"]),),), {("F1", "F9"): 1.0},
             "transition (1, 1) -> F9: unknown family"),
        ],
    )
    def test_shapes_make_spec_cannot_build(self, layers, entries, violation):
        spec = GraphSpec(0.05, layers, TransitionCoefficients(entries))
        assert violation in gk.validate_spec(spec).violations

    def test_make_spec_refuses_a_duplicate_family_name(self):
        layers = [[("F1", ["H1"], 0.0, proc.bonferroni())], [("F1", ["H2"], 0.0, proc.holm())]]
        with pytest.raises(gk.SpecFormatError, match="duplicate family name 'F1'"):
            gk.make_spec(0.05, layers)

    def test_parallel_split_strategy_is_ok(self):
        # 0.04 / 0.005 / 0.005 allocation with a 0.8 / 0.2 / 1 edge set
        assert gk.validate_spec(parallel_split_spec()).ok

    def test_backward_edge_rejected(self):
        spec = gk.make_spec(
            0.05,
            [
                [("F1", ["H1"], 0.025, proc.bonferroni())],
                [("F2", ["H2"], 0.025, proc.bonferroni())],
            ],
            {("F2", "F1"): 0.5},
        )
        outcome = gk.validate_spec(spec)
        assert not outcome.ok
        assert any("backward edge" in v for v in outcome.violations)

    def test_same_layer_edge_rejected(self):
        spec = gk.make_spec(
            0.05,
            [[("F1", ["H1"], 0.02, proc.bonferroni()),
              ("F2", ["H2"], 0.02, proc.bonferroni())]],
            {("F1", "F2"): 1.0},
        )
        outcome = gk.validate_spec(spec)
        assert any("backward edge" in v for v in outcome.violations)

    def test_row_sum_above_one_rejected(self):
        spec = gk.make_spec(
            0.05,
            [
                [("F1", ["H1"], 0.02, proc.bonferroni())],
                [("F2", ["H2"], 0.01, proc.bonferroni()),
                 ("F3", ["H3"], 0.01, proc.bonferroni())],
            ],
            {("F1", "F2"): 0.7, ("F1", "F3"): 0.4},
        )
        outcome = gk.validate_spec(spec)
        assert any("row sum" in v and "1.1" in v for v in outcome.violations)

    def test_decimal_literal_slack(self):
        # 0.8 + 0.2 and 0.04 + 0.005 + 0.005 must validate despite rounding
        spec = parallel_split_spec()
        assert gk.validate_spec(spec).ok
        total = sum(f.initial_alpha for f in spec.families())
        assert total <= spec.global_alpha + SUM_TOL

    def test_alpha_budget_overflow(self):
        spec = gk.make_spec(
            0.05,
            [[("F1", ["H1"], 0.03, proc.bonferroni()),
              ("F2", ["H2"], 0.03, proc.bonferroni())]],
        )
        outcome = gk.validate_spec(spec)
        assert any("exceeding global alpha" in v for v in outcome.violations)

    def test_duplicate_labels_rejected(self):
        spec = gk.make_spec(
            0.05,
            [
                [("F1", ["H1", "H2"], 0.02, proc.holm())],
                [("F2", ["H2"], 0.02, proc.bonferroni())],
            ],
        )
        outcome = gk.validate_spec(spec)
        assert any("duplicate hypothesis label" in v for v in outcome.violations)

    def test_gamma_required_and_bounded(self):
        spec = gk.make_spec(
            0.05,
            [[("F1", ["H1", "H2"], 0.05, gk.LocalProcedureSpec("truncated_holm"))]],
        )
        assert any("requires gamma" in v for v in gk.validate_spec(spec).violations)
        spec = gk.make_spec(
            0.05,
            [[("F1", ["H1", "H2"], 0.05,
               gk.LocalProcedureSpec("truncated_holm", gamma=1.0))]],
        )
        assert any("outside [0, 1)" in v for v in gk.validate_spec(spec).violations)

    @pytest.mark.parametrize("bad", [None, "0.05", Decimal("0.05"), 0.05j])
    @pytest.mark.parametrize("where", ["global", "family", "coefficient"])
    def test_a_value_that_is_not_a_number_is_a_violation(self, where, bad):
        spec = parallel_split_spec()
        if where == "global":
            spec = spec._replace(global_alpha=bad)
            violation = f"global alpha {bad!r} outside [0, 1]"
        elif where == "family":
            first, *rest = spec.layers[0]
            spec = spec._replace(layers=((first._replace(initial_alpha=bad), *rest),
                                         *spec.layers[1:]))
            violation = f"family {first.name}: initial alpha {bad!r} outside [0, 1]"
        else:
            edge = next(iter(spec.transitions.entries))
            spec = spec._replace(transitions=TransitionCoefficients(
                {**spec.transitions.entries, edge: bad}))
            violation = f"coefficient {bad!r} outside [0, 1]"
        # The bad value is reported once; the sums skip it.
        [reported] = gk.validate_spec(spec).violations
        assert reported.endswith(violation)
        with pytest.raises(gk.InvalidSpecError):
            spec.plan

    def test_a_decimal_level_is_reported_not_run(self):
        # A Decimal compares with floats but does not add to them: it is
        # reported like any value that is not a number, so `run` refuses
        # the spec before a rule multiplies a float by it.
        spec = gk.make_spec(
            0.05,
            [[("F1", ["H1"], 0.05, proc.bonferroni())], [("F2", ["H2"], 0.0, proc.bonferroni())]],
            {("F1", "F2"): 1.0},
        )
        (first,), (second,) = spec.layers
        spec = spec._replace(layers=(
            (first._replace(initial_alpha=Decimal("0.9")),),
            (second._replace(initial_alpha=Decimal("0.9")),),
        ))
        assert gk.validate_spec(spec).violations == (
            "family F1: initial alpha Decimal('0.9') outside [0, 1]",
            "family F2: initial alpha Decimal('0.9') outside [0, 1]",
        )
        with pytest.raises(gk.InvalidSpecError):
            gk.run(spec, {"H1": 0.01, "H2": 0.01})

    # A complex adds to a float but does not compare with one.
    @pytest.mark.parametrize("bad", ["0.5", 0.5j])
    def test_gamma_that_is_not_a_number_is_a_violation(self, bad):
        spec = gk.make_spec(0.05, [[("F1", ["H1", "H2"], 0.05,
                                     gk.LocalProcedureSpec("truncated_holm", gamma=bad))]])
        assert gk.validate_spec(spec).violations == (f"family F1: gamma {bad!r} outside [0, 1)",)

    @pytest.mark.parametrize("bad", [None, "0.5", 0.5j])
    def test_weight_that_is_not_a_number_is_a_violation(self, bad):
        spec = gk.make_spec(0.05, [[("F1", ["H1", "H2"], 0.05,
                                     gk.LocalProcedureSpec("holm", weights=(bad, 1.0)))]])
        assert gk.validate_spec(spec).violations == ("family F1: non-finite weight",)

    def test_fixed_sequence_order_must_permute(self):
        spec = gk.make_spec(
            0.05,
            [[("F1", ["H1", "H2"], 0.05, proc.fixed_sequence(["H1", "H3"]))]],
        )
        assert any("permutation" in v for v in gk.validate_spec(spec).violations)

    def test_all_violations_reported_at_once(self):
        spec = gk.make_spec(
            0.05,
            [
                [("F1", ["H1"], 0.7, proc.bonferroni())],
                [("F2", ["H2"], 0.01, gk.LocalProcedureSpec("truncated_holm"))],
            ],
            {("F2", "F1"): 2.0},
        )
        outcome = gk.validate_spec(spec)
        assert len(outcome.violations) >= 3

    def test_single_family_spec_is_accepted(self):
        # degenerate input: the engine then just runs the local procedure
        spec = gk.make_spec(0.05, [[("F1", ["H1", "H2", "H3"], 0.05, proc.holm())]])
        assert gk.validate_spec(spec).ok

    def test_validate_is_pure(self, rng):
        for _ in range(20):
            spec = random_spec(rng)
            first = gk.validate_spec(spec)
            assert first == gk.validate_spec(spec)

    def test_accepted_specs_satisfy_recomputed_constraints(self, rng):
        for _ in range(50):
            spec = random_spec(rng)
            if not gk.validate_spec(spec).ok:
                continue
            assert sum(f.initial_alpha for f in spec.families()) \
                <= spec.global_alpha + SUM_TOL
            layer_of = {fam.name: i for i, layer in enumerate(spec.layers) for fam in layer}
            rows = {}
            for (src, dst), g in spec.transitions.items():
                assert 0.0 <= g <= 1.0
                assert layer_of[src] < layer_of[dst]
                rows[src] = rows.get(src, 0.0) + g
            assert all(total <= 1.0 + SUM_TOL for total in rows.values())


class TestDot:
    def test_chain_has_three_nodes_two_unit_edges(self):
        text = gk.to_dot(chain_spec())
        assert text.count("[label=") == 5  # 3 nodes + 2 edges
        assert text.count('[label="1"]') == 2
        assert '"F1" -> "F2"' in text and '"F2" -> "F3"' in text

    def test_split_strategy_edge_labels(self):
        text = gk.to_dot(parallel_split_spec())
        for fragment in ('[label="0.8"]', '[label="0.2"]', '[label="1"]'):
            assert fragment in text
        assert text.count(" -> ") == 3

    def test_deterministic_bytes(self):
        a = gk.to_dot(parallel_split_spec())
        b = gk.to_dot(parallel_split_spec())
        assert a.encode() == b.encode()

    def test_rejects_invalid_spec(self):
        spec = gk.make_spec(
            0.05,
            [[("F1", ["H1"], 0.2, proc.bonferroni())]],
        )
        with pytest.raises(gk.InvalidSpecError):
            gk.to_dot(spec)

    def test_names_with_quotes_and_backslashes_stay_quoted(self):
        import re

        names = ['F"1', "F\\2", "F3\\"]
        spec = gk.make_spec(
            0.05,
            [[(names[0], ["H1"], 0.05, proc.bonferroni())],
             [(names[1], ["H2"], 0.0, proc.bonferroni())],
             [(names[2], ["H3"], 0.0, proc.bonferroni())]],
            {(names[0], names[1]): 1.0, (names[1], names[2]): 1.0},
        )
        text = gk.to_dot(spec)
        quoted = r'"((?:[^"\\]|\\.)*)"'  # a quoted string; a backslash escapes one character
        node = re.compile(rf"  {quoted} \[label={quoted}\];")
        edge = re.compile(rf"  {quoted} -> {quoted} \[label={quoted}\];")

        def unescape(s):
            return re.sub(r"\\(.)", r"\1", s)

        lines = text.splitlines()[2:-1]
        nodes = [node.fullmatch(line) for line in lines[:3]]
        edges = [edge.fullmatch(line) for line in lines[3:]]
        assert all(nodes) and all(edges) and len(edges) == 2
        assert [unescape(m[1]) for m in nodes] == names
        assert unescape(nodes[2][2]) == names[2] + " (0)"
        assert [(unescape(m[1]), unescape(m[2])) for m in edges] == [
            (names[0], names[1]), (names[1], names[2])
        ]

    def test_plain_names_keep_their_bytes(self):
        assert gk.to_dot(chain_spec()).splitlines()[2:4] == [
            '  "F1" [label="F1 (0.05)"];',
            '  "F2" [label="F2 (0)"];',
        ]


class TestJson:
    def test_round_trip_structural_equality(self, rng):
        for spec in [
            two_layer_fixed_sequence_spec(),
            parallel_split_spec(),
            chain_spec(),
            *(random_spec(rng) for _ in range(30)),
        ]:
            again = gk.spec_from_json(gk.spec_to_json(spec))
            assert again == spec

    def test_emit_is_deterministic(self):
        spec = parallel_split_spec()
        assert gk.spec_to_json(spec) == gk.spec_to_json(spec)

    def test_rejects_malformed(self):
        with pytest.raises(gk.SpecFormatError):
            gk.spec_from_json("{not json")
        with pytest.raises(gk.SpecFormatError):
            gk.spec_from_json("[]")
        with pytest.raises(gk.SpecFormatError):
            gk.spec_from_json('{"alpha": 0.05}')
        with pytest.raises(gk.SpecFormatError):
            gk.spec_from_json(
                '{"alpha": 0.05, "layers": [[{"id": "F1", "hypotheses": ["H1"],'
                ' "alpha": 0.05, "procedure": {"kind": "nonsense"}}]]}'
            )

    def test_rejects_duplicate_edges(self):
        text = """
        {"alpha": 0.05,
         "layers": [[{"id": "F1", "hypotheses": ["H1"], "alpha": 0.025,
                      "procedure": {"kind": "bonferroni"}}],
                    [{"id": "F2", "hypotheses": ["H2"], "alpha": 0.025,
                      "procedure": {"kind": "bonferroni"}}]],
         "transitions": [{"from": "F1", "to": "F2", "g": 0.5},
                         {"from": "F1", "to": "F2", "g": 0.5}]}
        """
        with pytest.raises(gk.SpecFormatError, match="duplicate edge"):
            gk.spec_from_json(text)

    @pytest.mark.parametrize("field", SPEC_NUMBER_FIELDS)
    def test_bool_is_not_a_number(self, field):
        with pytest.raises(gk.SpecFormatError, match="must be a"):
            gk.spec_from_json(spec_text_with_true(field))

    def test_unknown_transition_family(self):
        text = """
        {"alpha": 0.05,
         "layers": [[{"id": "F1", "hypotheses": ["H1"], "alpha": 0.05,
                      "procedure": {"kind": "bonferroni"}}]],
         "transitions": [{"from": "F1", "to": "F9", "g": 0.5}]}
        """
        with pytest.raises(gk.SpecFormatError, match="unknown family"):
            gk.spec_from_json(text)
