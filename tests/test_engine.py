"""Engine behavior: update rules, audit trail, invariants, reductions."""

import json
import re
from fractions import Fraction

import numpy as np
import pytest

import gatekeep as gk
from gatekeep import mcsim
from gatekeep import procedures as proc
from gatekeep.engine import initial_state, replay, report_from_json, report_to_json, step

from conftest import (
    TABLE_PVALUES,
    exact_spec,
    random_pvalues,
    random_spec,
    rejected_labels,
    three_layer_step_up_spec,
    two_layer_fixed_sequence_spec,
)


class TestGoldenRuns:
    def test_two_layer_fixed_sequence_decision_table(self):
        report = gk.run(two_layer_fixed_sequence_spec(), TABLE_PVALUES)
        assert report.decisions == {
            "H11": "S", "H12": "S", "H13": "S",
            "H21": "S", "H22": "NS", "H23": "NS",
            "H31": "S", "H32": "S", "H33": "NS",
        }
        levels = {o.family: o.level_used for o in report.outcomes}
        assert levels["F1"] == pytest.approx(0.04, abs=0)
        assert levels["F2"] == pytest.approx(0.025, abs=1e-15)
        assert levels["F3"] == pytest.approx(0.025, abs=1e-15)

    def test_three_layer_step_up_levels_and_decisions(self):
        report = gk.run(three_layer_step_up_spec(), TABLE_PVALUES)
        by_family = {o.family: o for o in report.outcomes}
        # first family consumes nothing: all rejected, 0.8 / 0.2 split
        assert by_family["F1"].rejected == {"H11", "H12", "H13"}
        assert by_family["F2"].level_used == pytest.approx(0.037, abs=1e-12)
        assert by_family["F3"].level_used == pytest.approx(
            0.013 + 0.037 - (0.5 + 0.5 / 3) * 0.037, abs=1e-12
        )
        # the step-up rule keeps H22 (0.026 > (0.5 + 0.5/3) * 0.037)
        assert by_family["F2"].rejected == {"H21", "H23"}
        assert by_family["F2"].e_star == pytest.approx((0.5 + 0.5 / 3) * 0.037, abs=1e-15)
        assert by_family["F2"].transfers[0].amount == pytest.approx(
            0.037 - (0.5 + 0.5 / 3) * 0.037, abs=1e-15
        )
        assert by_family["F3"].rejected == {"H31", "H32"}
        assert report.decisions["H33"] == "NS"

    def test_holm_full_consumption_blocks_transfer(self):
        # nothing rejected in F1 under Holm: e* equals the level, so the
        # later family runs at exactly its initial alpha
        spec = gk.make_spec(
            0.05,
            [
                [("F1", ["H1", "H2"], 0.03, proc.holm())],
                [("F2", ["H3"], 0.02, proc.bonferroni())],
            ],
            {("F1", "F2"): 1.0},
        )
        report = gk.run(spec, {"H1": 0.5, "H2": 0.6, "H3": 0.019})
        by_family = {o.family: o for o in report.outcomes}
        assert by_family["F1"].rejected == frozenset()
        assert by_family["F1"].e_star == 0.03
        assert all(t.amount == 0.0 for t in by_family["F1"].transfers)
        assert by_family["F2"].level_used == 0.02
        assert report.decisions["H3"] == "S"

    def test_zero_level_family_is_still_tested(self):
        spec = gk.make_spec(
            0.05,
            [
                [("F1", ["H1"], 0.05, proc.bonferroni())],
                [("F2", ["H2"], 0.0, proc.bonferroni())],
            ],
        )
        report = gk.run(spec, {"H1": 0.01, "H2": 0.0})
        by_family = {o.family: o for o in report.outcomes}
        assert by_family["F2"].level_used == 0.0
        assert by_family["F2"].rejected == frozenset()
        assert by_family["F2"].e_star == 0.0
        assert set(report.decisions) == {"H1", "H2"}

    def test_label_mismatch_raises(self):
        spec = two_layer_fixed_sequence_spec()
        with pytest.raises(ValueError, match="missing p-values"):
            gk.run(spec, {k: v for k, v in TABLE_PVALUES.items() if k != "H33"})
        with pytest.raises(ValueError, match="unknown labels"):
            gk.run(spec, {**TABLE_PVALUES, "H99": 0.5})

    def test_invalid_spec_raises(self):
        spec = gk.make_spec(0.05, [[("F1", ["H1"], 0.2, proc.bonferroni())]])
        with pytest.raises(gk.InvalidSpecError):
            gk.run(spec, {"H1": 0.01})

    @pytest.mark.parametrize("bad", [1.5, float("nan")])
    def test_pvalue_outside_unit_interval_raises(self, bad):
        spec = two_layer_fixed_sequence_spec()
        with pytest.raises(ValueError, match="at position 2 outside"):
            gk.run(spec, {**TABLE_PVALUES, "H32": bad})

    @pytest.mark.parametrize("bad", [None, "0.5", [0.5]])
    def test_pvalue_that_is_not_a_number_raises(self, bad):
        spec = gk.make_spec(0.05, [[("F1", ["H1", "H2"], 0.05, proc.holm())]])
        message = rf"^p-value {re.escape(repr(bad))} at position 1 outside"
        with pytest.raises(ValueError, match=message):
            gk.run(spec, {"H1": bad, "H2": 0.5})
        with pytest.raises(ValueError, match="at position 2 outside"):
            step(spec, initial_state(spec), "F1", {"H1": 0.5, "H2": bad})


class TestStep:
    def singleton_gate(self):
        return gk.make_spec(
            0.05,
            [
                [("F11", ["H1"], 0.025, proc.bonferroni()),
                 ("F12", ["H2"], 0.025, proc.bonferroni())],
                [("F21", ["H3", "H4"], 0.0, proc.holm())],
            ],
            {("F11", "F21"): 1.0, ("F12", "F21"): 1.0},
        )

    def test_full_transfer_after_singleton_rejection(self):
        spec = self.singleton_gate()
        state = initial_state(spec)
        outcome, after = step(spec, state, "F11", {"H1": 0.01, "H2": 1, "H3": 1, "H4": 1})
        assert outcome.rejected == {"H1"}
        assert outcome.e_star == 0.0
        assert outcome.transfers == (gk.Transfer("F21", 0.025),)
        assert after.current_alpha["F21"] == 0.025
        # input state untouched
        assert state.current_alpha["F21"] == 0.0
        assert "F11" in state.remaining[0]

    def test_zero_transfers_when_everything_accepted(self):
        spec = gk.make_spec(
            0.05,
            [
                [("F1", ["H1", "H2"], 0.05, proc.holm())],
                [("F2", ["H3"], 0.0, proc.bonferroni())],
            ],
            {("F1", "F2"): 1.0},
        )
        outcome, _ = step(
            spec, initial_state(spec), "F1", {"H1": 0.9, "H2": 0.8, "H3": 0.1}
        )
        assert [t.amount for t in outcome.transfers] == [0.0]

    def test_eligibility_enforced(self):
        spec = self.singleton_gate()
        state = initial_state(spec)
        with pytest.raises(ValueError, match="not eligible yet"):
            step(spec, state, "F21", {"H1": 1, "H2": 1, "H3": 1, "H4": 1})
        _, state = step(spec, state, "F11", {"H1": 1, "H2": 1, "H3": 1, "H4": 1})
        with pytest.raises(ValueError, match="not an untested family"):
            step(spec, state, "F11", {"H1": 1, "H2": 1, "H3": 1, "H4": 1})

    @staticmethod
    def _forked(edges):
        """The two-layer fixed-sequence spec with other transitions: a fork
        with other coefficients is validated like any spec."""
        spec = two_layer_fixed_sequence_spec()
        return spec._replace(transitions=gk.TransitionCoefficients(edges))

    def test_unknown_edge_target_named(self):
        spec = self._forked({("F1", "F9"): 1.0})
        with pytest.raises(gk.InvalidSpecError, match=r"transition \(1, 1\) -> F9: unknown family"):
            step(spec, initial_state(spec), "F1", TABLE_PVALUES)

    def test_edge_to_family_outside_the_spec_named(self):
        # A state that lists F9 as untested does not make an edge to it valid.
        spec = self._forked({("F1", "F9"): 1.0})
        state = initial_state(spec)._replace(
            remaining=(frozenset({"F1"}), frozenset({"F2", "F3", "F9"})),
        )
        with pytest.raises(gk.InvalidSpecError, match="-> F9: unknown family"):
            step(spec, state, "F1", TABLE_PVALUES)

    def test_untested_family_outside_the_spec_named(self):
        # A hand-edited state may list a family the spec lacks as untested.
        spec = two_layer_fixed_sequence_spec()
        state = initial_state(spec)._replace(
            remaining=(frozenset({"F9", "F1"}), frozenset({"F2", "F3"})),
        )
        with pytest.raises(ValueError, match=r"^family 'F9' is not in the spec$"):
            step(spec, state, "F9", TABLE_PVALUES)

    def _after_f1(self, edges):
        spec = two_layer_fixed_sequence_spec()
        pvalues = {label: 0.001 for label in TABLE_PVALUES}
        _, state = step(spec, initial_state(spec), "F1", pvalues)
        return self._forked(edges), state, pvalues

    def test_back_edge_to_tested_family_rejected(self):
        # F1 is tested; a live F2 -> F1 edge would hand F1 level it never spends.
        spec, state, pvalues = self._after_f1({("F2", "F1"): 1.0})
        with pytest.raises(
            gk.InvalidSpecError, match=r"backward edge transition \(2, 1\) -> \(1, 1\)"
        ):
            step(spec, state, "F2", pvalues)

    def test_same_layer_edge_rejected(self):
        spec, state, pvalues = self._after_f1({("F2", "F3"): 1.0})
        with pytest.raises(
            gk.InvalidSpecError, match=r"backward edge transition \(2, 1\) -> \(2, 2\)"
        ):
            step(spec, state, "F2", pvalues)

    @pytest.mark.parametrize("g", [5.0, float("nan")])
    def test_coefficient_outside_unit_interval_passes_nothing(self, g):
        # A coefficient lives only on the spec, so step cannot follow one
        # that validation refuses (5.0 would pass 0.125 out of 0.05).
        spec = self._forked({("F1", "F3"): g})
        with pytest.raises(gk.InvalidSpecError, match=rf"coefficient {g} outside \[0, 1\]"):
            step(spec, initial_state(spec), "F1", TABLE_PVALUES)

    @staticmethod
    def bonferroni_chain():
        return gk.make_spec(
            0.05,
            [[("F1", ["H1"], 0.05, proc.bonferroni())], [("F2", ["H2"], 0.0, proc.bonferroni())]],
            {("F1", "F2"): 1.0},
        )

    @pytest.mark.parametrize("levels, message", [
        ({"F1": 0.05}, "edge 'F1' -> 'F2': state has no level for 'F2'"),
        ({"F2": 0.0}, "state has no level for family 'F1'"),
    ])
    def test_hand_edited_levels_without_a_family_named(self, levels, message):
        spec = self.bonferroni_chain()
        state = initial_state(spec)._replace(current_alpha=levels)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            step(spec, state, "F1", {"H1": 0.01, "H2": 0.01})

    def test_pvalue_map_missing_a_family_label(self):
        spec = gk.make_spec(0.05, [[("F1", ["H1", "H2", "H3"], 0.05, proc.holm())]])
        with pytest.raises(ValueError, match=r"^missing p-values for \['H2', 'H3'\]$"):
            step(spec, initial_state(spec), "F1", {"H1": 0.01})

    @pytest.mark.parametrize("level", [1.5, -0.01, float("nan"), None, "0.05"])
    def test_hand_edited_level_outside_unit_interval(self, level):
        spec = self.bonferroni_chain()
        state = initial_state(spec)._replace(current_alpha={"F1": level, "F2": 0.0})
        with pytest.raises(ValueError, match=r"^level .* outside \[0, 1\]$"):
            step(spec, state, "F1", {"H1": 0.01, "H2": 0.01})

    def test_exhausted_state(self):
        spec = self.singleton_gate()
        p = {"H1": 1, "H2": 1, "H3": 1, "H4": 1}
        state = initial_state(spec)
        for name in ("F11", "F12", "F21"):
            _, state = step(spec, state, name, p)
        with pytest.raises(ValueError, match="already tested"):
            step(spec, state, "F11", p)

    def test_within_layer_order_invariance(self, rng):
        for _ in range(60):
            spec = random_spec(rng, max_layers=3, max_families=2)
            if not gk.validate_spec(spec).ok:
                continue
            pvalues = random_pvalues(rng, spec)

            def run_in_order(flip):
                state = initial_state(spec)
                seen = {}
                for layer in spec.layers:
                    fams = [f.name for f in layer]
                    if flip:
                        fams = fams[::-1]
                    for name in fams:
                        outcome, state = step(spec, state, name, pvalues)
                        seen[name] = outcome
                return state, seen

            fwd_state, fwd = run_in_order(False)
            rev_state, rev = run_in_order(True)
            assert fwd_state.current_alpha == rev_state.current_alpha
            for name in fwd:
                assert fwd[name].rejected == rev[name].rejected
                assert fwd[name].level_used == rev[name].level_used

    def test_step_sequence_matches_run(self, rng):
        for _ in range(40):
            spec = random_spec(rng)
            if not gk.validate_spec(spec).ok:
                continue
            pvalues = random_pvalues(rng, spec)
            report = gk.run(spec, pvalues)
            state = initial_state(spec)
            collected = []
            for layer in spec.layers:
                for fam in layer:
                    outcome, state = step(spec, state, fam.name, pvalues)
                    collected.append(outcome)
            assert tuple(collected) == report.outcomes


class TestConservationLedger:
    def test_budget_never_exceeded(self, rng):
        # consumed e* + unrouted remainders + levels still on the table
        # add up to at most the global level, at every intermediate point
        for _ in range(80):
            spec = random_spec(rng)
            if not gk.validate_spec(spec).ok:
                continue
            pvalues = random_pvalues(rng, spec)
            state = initial_state(spec)
            tested = []
            for layer in spec.layers:
                for fam in layer:
                    outcome, state = step(spec, state, fam.name, pvalues)
                    tested.append(outcome)
                    consumed = sum(o.e_star for o in tested)
                    unrouted = sum(
                        (o.level_used - o.e_star) - sum(t.amount for t in o.transfers)
                        for o in tested
                    )
                    still_waiting = sum(
                        state.current_alpha[name]
                        for names in state.remaining
                        for name in names
                    )
                    total = consumed + unrouted + still_waiting
                    assert total <= spec.global_alpha + 1e-9
                    assert all(
                        0.0 <= v <= spec.global_alpha + 1e-9
                        for v in state.current_alpha.values()
                    )

    def test_transfer_amounts_bounded_by_remainder(self, rng):
        for _ in range(40):
            spec = random_spec(rng)
            if not gk.validate_spec(spec).ok:
                continue
            report = gk.run(spec, random_pvalues(rng, spec))
            for o in report.outcomes:
                assert all(t.amount >= 0.0 for t in o.transfers)
                assert sum(t.amount for t in o.transfers) \
                    <= o.level_used - o.e_star + 1e-12

    @pytest.mark.parametrize("procedure, n", [
        (proc.bonferroni(), 6),
        (proc.bonferroni(), 7),
        (proc.bonferroni(), 10),
        (proc.truncated_holm(0.3), 3),
    ])
    def test_family_that_accepts_everything_passes_nothing_on(self, procedure, n):
        # Here n default weights of 1/n, or gamma + (1 - gamma) * n / n, add
        # up to a hair below 1 in floats; the family spends its whole level
        # all the same, so a successor at level 0 gets exactly 0.
        labels = [f"H{k}" for k in range(1, n + 1)]
        spec = gk.make_spec(
            0.05,
            [[("F1", labels, 0.05, procedure)], [("F2", ["G"], 0.0, proc.bonferroni())]],
            {("F1", "F2"): 1.0},
        )
        pvalues = {**{label: 0.9 for label in labels}, "G": 1e-300}
        first, second = gk.run(spec, pvalues).outcomes
        assert first.e_star == 0.05
        assert [t.amount for t in first.transfers] == [0.0]
        assert second.level_used == 0.0 and second.rejected == frozenset()
        batch = mcsim.batch_run(spec, np.array([[pvalues[l] for l in spec.labels()]]))
        assert not batch.any()


class TestMonotonicity:
    def test_lowering_a_pvalue_never_shrinks_rejections(self, rng):
        kinds = ("bonferroni", "holm", "fixed_sequence")
        checked = 0
        while checked < 60:
            spec = random_spec(rng, kinds=kinds)
            if not gk.validate_spec(spec).ok:
                continue
            pvalues = random_pvalues(rng, spec)
            before = rejected_labels(gk.run(spec, pvalues))
            label = str(rng.choice(spec.labels()))
            lowered = dict(pvalues)
            lowered[label] = float(pvalues[label] * rng.uniform(0, 0.9))
            after = rejected_labels(gk.run(spec, lowered))
            assert before <= after
            checked += 1


class TestReductions:
    def chain(self, n_families, size, procedure_for):
        layers = []
        transitions = {}
        count = 0
        for i in range(n_families):
            labels = [f"H{count + k + 1}" for k in range(size)]
            count += size
            name = f"F{i + 1}"
            layers.append([
                (name, labels, 0.05 if i == 0 else 0.0, procedure_for(labels))
            ])
            if i + 1 < n_families:
                transitions[(name, f"F{i + 2}")] = 1.0
        return gk.make_spec(0.05, layers, transitions)

    def test_singleton_chain_is_fixed_sequence(self, rng):
        # one hypothesis per layer, full transfer: identical to walking the
        # sequence and rejecting while p <= alpha
        spec = self.chain(5, 1, lambda labels: proc.bonferroni())
        labels = spec.labels()
        for _ in range(10_000):
            p = {l: float(x) for l, x in zip(labels, rng.uniform(0, 0.12, 5))}
            got = rejected_labels(gk.run(spec, p))
            expect = set()
            for l in labels:
                if p[l] <= 0.05:
                    expect.add(l)
                else:
                    break
            assert got == expect

    def test_holm_chain_is_serial_gatekeeping(self, rng):
        # a later family sees positive level iff its predecessor rejected
        # every hypothesis
        spec = self.chain(3, 3, lambda labels: proc.holm())
        labels = spec.labels()
        for _ in range(10_000):
            p = {l: float(x) for l, x in zip(labels, rng.uniform(0, 0.08, 9))}
            report = gk.run(spec, p)
            outcomes = list(report.outcomes)
            for prev, nxt in zip(outcomes, outcomes[1:]):
                opens_gate = (
                    prev.level_used > 0.0 and prev.accepted == frozenset()
                )
                assert (nxt.level_used > 0.0) == opens_gate

    def test_truncated_chain_matches_stagewise_recursion(self, rng):
        # independent reimplementation: stage levels via the recursion
        # next_level = level - e*(accepted), truncated-Holm locals
        gamma = 0.4
        spec = self.chain(3, 3, lambda labels: proc.truncated_holm(gamma))
        labels = spec.labels()

        def stagewise(p):
            level = 0.05
            out = set()
            for i in range(3):
                fam_labels = labels[3 * i: 3 * i + 3]
                ps = sorted((p[l], l) for l in fam_labels)
                rejected = []
                n = 3
                for pos, (value, l) in enumerate(ps, start=1):
                    threshold = (gamma / (n - pos + 1) + (1 - gamma) / n) * level
                    if threshold > 0 and value <= threshold:
                        rejected.append(l)
                    else:
                        break
                out.update(rejected)
                n_accepted = n - len(rejected)
                if n_accepted == 0:
                    e_star = 0.0
                else:
                    e_star = (gamma + (1 - gamma) * n_accepted / n) * level
                level = level - e_star
            return out

        for _ in range(10_000):
            p = {l: float(x) for l, x in zip(labels, rng.uniform(0, 0.1, 9))}
            assert rejected_labels(gk.run(spec, p)) == stagewise(p)


class TestExactArithmetic:
    @pytest.mark.parametrize("seed", range(6))
    def test_exact_and_float_engines_agree_on_continuous_pvalues(self, seed):
        # The same engine on `exact_spec` specs decides as on floats, with
        # every level, e* and transfer a Fraction, and replays clean.
        rng = np.random.default_rng([22, seed])
        for _ in range(100):
            spec = random_spec(rng, max_size=6)
            exact = exact_spec(spec)
            p = random_pvalues(rng, spec)
            report = gk.run(exact, p)
            assert report.decisions == gk.run(spec, p).decisions, (spec, p)
            for o in report.outcomes:
                numbers = [o.level_used, o.e_star, *(t.amount for t in o.transfers)]
                assert all(type(x) is Fraction for x in numbers), o
            assert replay(report, exact).ok


class TestReplay:
    def test_self_consistency(self, rng):
        for _ in range(50):
            spec = random_spec(rng)
            if not gk.validate_spec(spec).ok:
                continue
            report = gk.run(spec, random_pvalues(rng, spec))
            assert replay(report, spec).ok

    def test_perturbed_transfer_detected(self):
        spec = three_layer_step_up_spec()
        report = gk.run(spec, TABLE_PVALUES)
        tampered_outcomes = []
        for o in report.outcomes:
            if o.family == "F2":
                t = o.transfers[0]
                o = o._replace(transfers=(gk.Transfer(t.target, t.amount + 1e-6),))
            tampered_outcomes.append(o)
        tampered = gk.TestReport(tuple(tampered_outcomes), report.decisions)
        outcome = replay(tampered, spec)
        assert not outcome.ok
        assert any("transfer to F3" in v for v in outcome.violations)

    def test_perturbed_level_detected(self):
        spec = two_layer_fixed_sequence_spec()
        report = gk.run(spec, TABLE_PVALUES)
        tampered_outcomes = [
            o._replace(level_used=o.level_used + 1e-6)
            if o.family == "F2" else o
            for o in report.outcomes
        ]
        outcome = replay(gk.TestReport(tuple(tampered_outcomes), report.decisions), spec)
        assert any("level_used" in v for v in outcome.violations)

    def test_wrong_decision_detected(self):
        spec = two_layer_fixed_sequence_spec()
        report = gk.run(spec, TABLE_PVALUES)
        flipped = dict(report.decisions)
        flipped["H22"] = "S"
        outcome = replay(gk.TestReport(report.outcomes, flipped), spec)
        assert any("decision for H22" in v for v in outcome.violations)

    @staticmethod
    def _replay_edited(edit):
        """Replay the two-layer fixed-sequence report after `edit` changes
        its JSON object; F1 rejects everything and passes 0.02 to F2 and F3."""
        spec = two_layer_fixed_sequence_spec()
        obj = json.loads(report_to_json(gk.run(spec, TABLE_PVALUES)))
        edit(obj)
        return replay(report_from_json(json.dumps(obj)), spec)

    def test_edited_e_star_is_the_one_violation(self):
        def edit(obj):
            obj["outcomes"][1]["e_star"] = 0.5

        assert self._replay_edited(edit).violations == (
            "family F2: e_star 0.5, re-derived 0.025",
        )

    def test_unexpected_transfer_is_the_one_violation(self):
        def edit(obj):
            obj["outcomes"][1]["transfers"].append({"to": "F3", "amount": 0.0})

        assert self._replay_edited(edit).violations == ("family F2: unexpected transfer to F3",)

    def test_missing_transfer_is_the_one_violation(self):
        def edit(obj):
            del obj["outcomes"][0]["transfers"][1]

        assert self._replay_edited(edit).violations == ("family F1: missing transfer to F3",)

    def test_rejected_hypothesis_decided_ns_is_the_one_violation(self):
        def edit(obj):
            obj["decisions"]["H11"] = "NS"

        assert self._replay_edited(edit).violations == ("decision for H11 is 'NS', not S",)

    def test_every_kind_of_violation_in_order(self):
        # P's targets run S3, S1, S2 in execution order; its violations
        # come after its level and e*, sorted by target name.
        spec = gk.make_spec(
            0.05,
            [
                [("P", ["H1", "H2"], 0.05, proc.bonferroni())],
                [("S3", ["H3"], 0.0, proc.bonferroni()),
                 ("S1", ["H4"], 0.0, proc.bonferroni()),
                 ("S2", ["H5"], 0.0, proc.bonferroni())],
                [("R", ["H6"], 0.0, proc.bonferroni())],
            ],
            {("P", "S3"): 0.5, ("P", "S1"): 0.3, ("P", "S2"): 0.2,
             ("S3", "R"): 1.0, ("S1", "R"): 1.0},
        )
        report = gk.run(
            spec, {"H1": 0.001, "H2": 0.9, "H3": 0.001, "H4": 0.9, "H5": 0.9, "H6": 0.001}
        )
        p, s3, s1, s2, r = report.outcomes
        p = p._replace(
            level_used=0.04,
            e_star=0.02,
            transfers=(gk.Transfer("S3", 0.5), gk.Transfer("R", 0.01), gk.Transfer("S1", 0.25)),
        )
        tampered = gk.TestReport(
            (p, s3, s1, s2._replace(level_used=0.5), r), {**report.decisions, "H6": "NS"}
        )
        assert replay(tampered, spec).violations == (
            "family P: level_used 0.04, re-derived 0.05",
            "family P: e_star 0.02, re-derived 0.025",
            "family P: unexpected transfer to R",
            "family P: transfer to S1 is 0.25, re-derived 0.0075",
            "family P: missing transfer to S2",
            "family P: transfer to S3 is 0.5, re-derived 0.0125",
            "family S2: level_used 0.5, re-derived 0.005000000000000001",
            "decision for H6 is 'NS', not S",
        )

    def test_decisions_and_their_violations_in_label_order(self):
        # Not in the hash order of a set of labels, whatever PYTHONHASHSEED is.
        labels = ("H5", "H3", "H1", "H4", "H2")
        spec = gk.make_spec(0.05, [[("F1", labels, 0.05, proc.bonferroni())]])
        report = gk.run(spec, dict.fromkeys(labels, 0.0))
        assert tuple(report.decisions) == labels
        flipped = report._replace(decisions=dict.fromkeys(labels, "NS"))
        assert replay(flipped, spec).violations == tuple(
            f"decision for {label} is 'NS', not S" for label in labels
        )

    def test_decisions_not_covering_the_labels_raise(self):
        def edit(obj):
            del obj["decisions"]["H33"]

        with pytest.raises(ValueError, match="decisions cover .*, spec labels are"):
            self._replay_edited(edit)

    def test_structural_mismatch_raises(self):
        spec = two_layer_fixed_sequence_spec()
        report = gk.run(spec, TABLE_PVALUES)
        with pytest.raises(ValueError, match="covers families"):
            replay(gk.TestReport(report.outcomes[:-1], report.decisions), spec)

    def test_out_of_layer_order_raises(self):
        spec = two_layer_fixed_sequence_spec()
        report = gk.run(spec, TABLE_PVALUES)
        f1, f2, f3 = report.outcomes
        with pytest.raises(ValueError, match="tested out of order"):
            replay(gk.TestReport((f2, f1, f3), report.decisions), spec)

    def test_overlapping_rejected_and_accepted_raise(self):
        spec = two_layer_fixed_sequence_spec()
        report = gk.run(spec, TABLE_PVALUES)
        f1, f2, f3 = report.outcomes
        assert f1.rejected == set(spec.layers[0][0].labels)
        f1 = f1._replace(accepted=f1.rejected)
        with pytest.raises(ValueError, match="do not partition"):
            replay(gk.TestReport((f1, f2, f3), report.decisions), spec)

    def test_duplicate_transfer_target_raises(self):
        spec = two_layer_fixed_sequence_spec()
        report = gk.run(spec, TABLE_PVALUES)
        f1, f2, f3 = report.outcomes
        f1 = f1._replace(transfers=(f1.transfers[0], f1.transfers[0]))
        with pytest.raises(ValueError, match="duplicate transfer target"):
            replay(gk.TestReport((f1, f2, f3), report.decisions), spec)

    @pytest.mark.parametrize(
        "field, text",
        [
            ("outcomes", "5"),
            ("level", '"abc"'),
            ("level", "true"),
            ("level", "1e999"),
            ("family", '["F1"]'),
            ("rejected", "[1]"),
            ("transfers", '[{"to": 5, "amount": 0.0}]'),
        ],
    )
    def test_malformed_report_json_raises_format_error(self, field, text):
        report = gk.run(three_layer_step_up_spec(), TABLE_PVALUES)
        obj = json.loads(report_to_json(report))
        (obj if field == "outcomes" else obj["outcomes"][0])[field] = "@"
        with pytest.raises(gk.SpecFormatError):
            report_from_json(json.dumps(obj).replace('"@"', text))

    def test_json_round_trip_replays(self):
        spec = three_layer_step_up_spec()
        report = gk.run(spec, TABLE_PVALUES)
        again = report_from_json(report_to_json(report))
        assert replay(again, spec).ok
        assert again == report
