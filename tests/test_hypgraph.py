"""Hypothesis-level graphical procedure: updates, epsilon edges, invariants."""

import re
from itertools import permutations

import pytest

import gatekeep as gk
from gatekeep import cli
from gatekeep import hypgraph as hg

from conftest import GRAPH_NUMBER_FIELDS, graph_text_with_true, rejected_labels


def plain_graph(alpha, labels, weights, cells, eps=()):
    n = len(labels)
    return hg.HypothesisGraph(
        alpha=alpha,
        labels=tuple(labels),
        weights=tuple(weights),
        transitions=tuple(
            tuple(cells.get((j, k), 0.0) for k in range(n)) for j in range(n)
        ),
        epsilon_edges=frozenset(eps),
    )


class TestValidation:
    def test_ok_graph(self):
        hyp, _ = hg.bonferroni_gate_pair(0.05)
        assert hg.validate_graph(hyp).ok

    def test_weight_sum_above_one(self):
        graph = plain_graph(0.05, ["A", "B"], [0.7, 0.6], {})
        assert any("weights sum" in v for v in hg.validate_graph(graph).violations)

    def test_nonzero_diagonal(self):
        graph = plain_graph(0.05, ["A", "B"], [0.5, 0.5], {(0, 0): 0.3})
        assert any("diagonal" in v for v in hg.validate_graph(graph).violations)

    def test_row_sum_above_one(self):
        graph = plain_graph(0.05, ["A", "B", "C"], [1, 0, 0],
                            {(0, 1): 0.7, (0, 2): 0.7})
        assert any("sums to" in v for v in hg.validate_graph(graph).violations)

    @pytest.mark.parametrize("graph, violation", [
        (plain_graph(0.05, [], [], {}), "no hypotheses"),
        (plain_graph(0.05, ["A", "A"], [0.5, 0.5], {}), "duplicate hypothesis labels"),
        (plain_graph(1.5, ["A"], [1.0], {}), "alpha 1.5 outside [0, 1]"),
        (plain_graph(0.05, ["A", "B"], [1, 0], {(0, 1): -0.5}),
         "coefficient -0.5 at (0, 1) outside [0, 1]"),
        (plain_graph(0.05, ["A", "B", "C"], [1, 0, 0], {(0, 1): 0.7, (0, 2): 0.7},
                     eps=[(0, 1), (0, 2)]),
         "row 0 epsilon multipliers sum to 1.4 > 1"),
    ])
    def test_violation_named(self, graph, violation):
        assert violation in hg.validate_graph(graph).violations

    def test_epsilon_edge_out_of_range(self):
        graph = plain_graph(0.05, ["A", "B"], [1, 0], {(0, 1): 1.0}, eps=[(0, 5)])
        assert any("epsilon edge" in v for v in hg.validate_graph(graph).violations)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight(self, bad):
        hyp, _ = hg.bonferroni_gate_pair(0.05)
        graph = hg.HypothesisGraph(hyp.alpha, hyp.labels, (bad, 0.5, 0.0, 0.0), hyp.transitions)
        assert "non-finite weight" in hg.validate_graph(graph).violations

    @pytest.mark.parametrize("cell", [(0, 1), (1, 1)])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_coefficient(self, cell, bad):
        graph = plain_graph(0.05, ["A", "B"], [1.0, 0.0], {(0, 1): 1.0, cell: bad})
        assert f"non-finite coefficient {bad!r} at {cell}" in hg.validate_graph(graph).violations

    def test_run_rejects_invalid_graph(self):
        graph = plain_graph(0.05, ["A"], [2.0], {})
        with pytest.raises(gk.InvalidSpecError):
            gk.run_hypothesis_graph(graph, {"A": 0.01})

    def test_run_rejects_label_mismatch(self):
        graph = plain_graph(0.05, ["A", "B"], [0.5, 0.5], {})
        with pytest.raises(ValueError, match="mismatch"):
            gk.run_hypothesis_graph(graph, {"A": 0.01})


class TestRunBasics:
    def test_all_ones_rejects_nothing(self):
        hyp, _ = hg.bonferroni_gate_pair(0.05)
        assert gk.run_hypothesis_graph(hyp, {l: 1.0 for l in hyp.labels}) == frozenset()

    @pytest.mark.parametrize("bad", [1.5, float("nan"), None, "0.5"])
    def test_pvalue_outside_unit_interval_named(self, bad):
        graph = plain_graph(0.05, ["A", "B"], [0.5, 0.5], {})
        with pytest.raises(ValueError, match=r"for B outside \[0, 1\]$"):
            gk.run_hypothesis_graph(graph, {"A": 0.01, "B": bad})

    def test_pick_must_return_an_eligible_index(self):
        graph = plain_graph(0.05, ["A", "B"], [0.5, 0.5], {})
        with pytest.raises(ValueError, match="^pick returned ineligible index 1$"):
            gk.run_hypothesis_graph(graph, {"A": 0.01, "B": 0.9}, pick=lambda eligible: 1)

    def test_single_hypothesis_boundary(self):
        graph = plain_graph(0.05, ["A"], [1.0], {})
        assert gk.run_hypothesis_graph(graph, {"A": 0.05}) == {"A"}
        assert gk.run_hypothesis_graph(graph, {"A": 0.050001}) == frozenset()

    def test_weight_propagation_hand_example(self):
        # H1 rejected at alpha/2; its weight splits to H3, H4 (0.25 each),
        # leaving 0.02 > 0.0125 unrejected; H2 fails at alpha/2 outright
        hyp, _ = hg.bonferroni_gate_pair(0.05)
        got = gk.run_hypothesis_graph(
            hyp, {"H1": 0.01, "H2": 0.04, "H3": 0.02, "H4": 0.049}
        )
        assert got == {"H1"}

    def test_holm_between_survivors(self):
        # both gatekeepers rejected: H3, H4 get 0.25 each with mutual edges,
        # so they behave like Holm at the combined level
        hyp, _ = hg.bonferroni_gate_pair(0.05)
        got = gk.run_hypothesis_graph(
            hyp, {"H1": 0.01, "H2": 0.02, "H3": 0.0124, "H4": 0.026}
        )
        assert got == {"H1", "H2", "H3", "H4"}

    def test_epsilon_weight_rejects_only_zero(self):
        # one gatekeeper rejected: H3 holds an infinitesimal weight
        hyp, _ = hg.serial_holm_gate_single(0.05)
        assert gk.run_hypothesis_graph(
            hyp, {"H1": 0.01, "H2": 0.9, "H3": 0.0}
        ) == {"H1", "H3"}
        assert gk.run_hypothesis_graph(
            hyp, {"H1": 0.01, "H2": 0.9, "H3": 1e-12}
        ) == {"H1"}

    def test_serial_gate_opens_at_full_level(self):
        hyp, _ = hg.serial_holm_gate_single(0.05)
        got = gk.run_hypothesis_graph(hyp, {"H1": 0.01, "H2": 0.03, "H3": 0.05})
        assert got == {"H1", "H2", "H3"}


class TestCaseBuilders:
    def test_parallel_gate_structure(self):
        hyp, fam = hg.bonferroni_gate_pair(0.05)
        assert hyp.weights == (0.5, 0.5, 0.0, 0.0)
        assert len(hyp.labels) == 4
        assert not hyp.epsilon_edges
        assert gk.validate_spec(fam).ok
        alphas = [f.initial_alpha for f in fam.families()]
        assert alphas == [0.025, 0.025, 0.0]

    def test_serial_single_structure(self):
        hyp, fam = hg.serial_holm_gate_single(0.05)
        assert len(hyp.labels) == 3
        assert (0, 2) in hyp.epsilon_edges and (1, 2) in hyp.epsilon_edges
        assert [f.initial_alpha for f in fam.families()] == [0.05, 0.0]

    def test_weighted_pair_split(self):
        hyp, fam = hg.serial_holm_gate_weighted_pair(0.05, 0.8, 0.2)
        # both gatekeepers down: H3 at 0.8*alpha, H4 at 0.2*alpha
        got = gk.run_hypothesis_graph(
            hyp, {"H1": 0.01, "H2": 0.02, "H3": 0.04, "H4": 0.011}
        )
        assert got == {"H1", "H2", "H3", "H4"}  # H3 first, then H4 at full level
        got = gk.run_hypothesis_graph(
            hyp, {"H1": 0.01, "H2": 0.02, "H3": 0.041, "H4": 0.011}
        )
        assert got == {"H1", "H2"}  # 0.041 > 0.04 and 0.011 > 0.2*0.05

    def test_weighted_pair_requires_unit_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            hg.serial_holm_gate_weighted_pair(0.05, 0.6, 0.3)

    def test_truncated_gate_interpolates(self):
        # gamma = 0: after one rejection the other gatekeeper still sits at
        # alpha/2 (Bonferroni-like), and half the level reaches the pair
        hyp, _ = hg.truncated_holm_gate(0.05, 0.0)
        got = gk.run_hypothesis_graph(
            hyp, {"H1": 0.01, "H2": 0.026, "H3": 0.012, "H4": 0.9}
        )
        assert got == {"H1", "H3"}


class TestOrderIndependence:
    def graphs(self):
        yield hg.bonferroni_gate_pair(0.05)[0]
        yield hg.serial_holm_gate_single(0.05)[0]
        yield hg.serial_holm_gate_weighted_pair(0.05, 0.6, 0.4)[0]
        yield hg.truncated_holm_gate(0.05, 0.5)[0]

    def test_every_rejection_order_agrees(self, rng):
        # force every preference permutation through the pick callback
        for graph in self.graphs():
            n = len(graph.labels)
            for _ in range(40):
                p = {l: float(x) for l, x in zip(graph.labels, rng.uniform(0, 0.15, n))}
                baseline = gk.run_hypothesis_graph(graph, p)
                for pref in permutations(range(n)):
                    def pick(eligible, _pref=pref):
                        return min(eligible, key=_pref.index)
                    assert gk.run_hypothesis_graph(graph, p, pick=pick) == baseline

    def test_weight_conservation_along_every_path(self, rng):
        for graph in self.graphs():
            n = len(graph.labels)
            for _ in range(60):
                p = {l: float(x) for l, x in zip(graph.labels, rng.uniform(0, 0.2, n))}
                trace = []
                gk.run_hypothesis_graph(graph, p, trace=trace)
                for _, weights in trace:
                    total = sum(w[0] for w in weights.values())
                    assert total <= 1.0 + 1e-12


class TestEquivalenceSpotChecks:
    # full 10^4-vector equivalence runs in the acceptance suite
    def test_family_twin_agrees_on_dense_grid(self):
        hyp, fam = hg.bonferroni_gate_pair(0.1)
        grid = [0.001, 0.024, 0.026, 0.051, 0.2]
        for p1 in grid:
            for p2 in grid:
                for p3 in grid:
                    p = {"H1": p1, "H2": p2, "H3": p3, "H4": 0.03}
                    assert gk.run_hypothesis_graph(hyp, p) == rejected_labels(
                        gk.run(fam, p)
                    )

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.5, 0.9])
    def test_truncated_gate_twin_agrees(self, rng, gamma):
        hyp, fam = hg.truncated_holm_gate(0.05, gamma)
        for _ in range(2000):
            p = {l: float(x) for l, x in zip(hyp.labels, rng.uniform(0, 0.12, 4))}
            assert gk.run_hypothesis_graph(hyp, p) == rejected_labels(gk.run(fam, p))


class TestJson:
    def test_round_trip(self):
        for graph in [
            hg.bonferroni_gate_pair(0.05)[0],
            hg.serial_holm_gate_single(0.025)[0],
            hg.serial_holm_gate_weighted_pair(0.05, 0.7, 0.3)[0],
        ]:
            assert hg.graph_from_json(hg.graph_to_json(graph)) == graph

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    @pytest.mark.parametrize(
        "field, violation",
        [("alpha", "^alpha .* outside"), ("weight", "^non-finite weight$"),
         ("transition", "^non-finite coefficient .* at \\(0, 0\\)$")],
        ids=["alpha", "weight", "transition"],
    )
    def test_non_finite_literals_rejected(self, literal, field, violation, tmp_path, capsys):
        # Non-finite numbers parse, as in strategy files; validation names the field.
        values = {"alpha": "0.05", "weight": "1", "transition": "0"}
        values[field] = literal
        text = (
            f'{{"alpha": {values["alpha"]}, "hypotheses": ["A"], '
            f'"weights": [{values["weight"]}], "transitions": [[{values["transition"]}]]}}'
        )
        violations = hg.validate_graph(hg.graph_from_json(text)).violations
        assert any(re.search(violation, v) for v in violations), violations
        gpath, ppath = tmp_path / "graph.json", tmp_path / "p.csv"
        gpath.write_text(text)
        ppath.write_text("hypothesis,p\nA,0.01\n")
        assert cli.main(["oracle", "--graph", str(gpath), "--pvalues", str(ppath)]) == 2
        assert capsys.readouterr().err.splitlines() == list(violations)

    def test_alpha_must_be_a_number(self):
        with pytest.raises(gk.SpecFormatError, match="alpha must be a number"):
            hg.graph_from_json(
                '{"alpha": "0.05", "hypotheses": ["A"], "weights": [1], "transitions": [[0]]}'
            )

    @pytest.mark.parametrize("field", GRAPH_NUMBER_FIELDS)
    def test_bool_is_not_a_number(self, field):
        with pytest.raises(gk.SpecFormatError, match="must be"):
            hg.graph_from_json(graph_text_with_true(field))

    def test_malformed(self):
        with pytest.raises(gk.SpecFormatError):
            hg.graph_from_json("nope")
        with pytest.raises(gk.SpecFormatError):
            hg.graph_from_json('{"alpha": 0.05}')
        with pytest.raises(gk.SpecFormatError):
            hg.graph_from_json(
                '{"alpha": 0.05, "hypotheses": ["A"], "weights": [1],'
                ' "transitions": [[0]], "epsilon_edges": [[0]]}'
            )
