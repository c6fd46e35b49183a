"""The per-spec plan: built once, never stale, and the same report bytes."""

from __future__ import annotations

import hashlib
import pickle
import random

import pytest

import gatekeep as gk
from gatekeep import graph
from gatekeep import procedures as proc
from gatekeep.engine import initial_state, step

from conftest import TABLE_PVALUES, three_layer_step_up_spec, two_layer_fixed_sequence_spec

# sha256 of report_to_json, taken from the release before the plan existed;
# the large one retaken when a family that accepts everything came to spend
# its whole level (F11's e* and its 11 transfers, which are now 0.0).
README_REPORT_SHA256 = "e849582cc96c138e13c478b325da0183a790200a1746e8c36c4962f4f2fb1ff4"
LARGE_REPORT_SHA256 = "085d908faeadd4672492b3c1877b75dfdb8f9f601afc4bb99ac8edc6998ce954"


def large_strategy_shaped(seed: int = 14) -> tuple[gk.GraphSpec, dict[str, float]]:
    """A 14-family, 4-layer strategy over all six kinds, and its p-values."""
    rng = random.Random(seed)
    layers, names = [], []
    k = 0
    for i, width in enumerate((3, 4, 4, 3)):
        layer = []
        for j in range(width):
            name = f"F{i + 1}{j + 1}"
            labels = [f"{name}H{h + 1}" for h in range((2, 3, 4)[k % 3])]
            kind = proc.KINDS[k % 6]
            if kind in ("truncated_holm", "truncated_hochberg"):
                procedure = gk.LocalProcedureSpec(kind, gamma=rng.uniform(0.1, 0.9))
            elif kind == "fixed_sequence":
                procedure = proc.fixed_sequence(rng.sample(labels, len(labels)))
            elif kind in ("bonferroni", "holm"):
                raw = [rng.uniform(0.2, 1.0) for _ in labels]
                procedure = gk.LocalProcedureSpec(kind, weights=tuple(x / sum(raw) for x in raw))
            else:
                procedure = gk.LocalProcedureSpec(kind)
            layer.append((name, labels, 0.05 / 14 * rng.uniform(0.5, 0.9), procedure))
            names.append((i, name))
            k += 1
        layers.append(layer)
    transitions = {}
    for li, src in names:
        targets = [name for lj, name in names if lj > li]
        raw = [rng.uniform(0.0, 1.0) for _ in targets]
        for dst, g in zip(targets, raw):
            transitions[(src, dst)] = g * rng.uniform(0.5, 0.95) / sum(raw)
    spec = gk.make_spec(0.05, layers, transitions)
    pvalues = {
        label: rng.uniform(0.0, 0.002) if rng.random() < 0.8 else rng.random()
        for label in spec.labels()
    }
    return spec, pvalues


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestReportBytes:
    def test_readme_report(self):
        report = gk.run(two_layer_fixed_sequence_spec(), TABLE_PVALUES)
        assert sha256(gk.report_to_json(report)) == README_REPORT_SHA256

    def test_large_strategy_report(self):
        spec, pvalues = large_strategy_shaped()
        assert len(list(spec.families())) == 14
        report = gk.run(spec, pvalues)
        assert 0 < sum(d == "S" for d in report.decisions.values()) < len(report.decisions)
        assert any(t.amount > 0.0 for o in report.outcomes for t in o.transfers)
        assert sha256(gk.report_to_json(report)) == LARGE_REPORT_SHA256


class TestPlan:
    def test_validated_once_per_spec_object(self, monkeypatch):
        calls = []
        validate = graph.validate_spec
        monkeypatch.setattr(graph, "validate_spec", lambda s: calls.append(s) or validate(s))
        spec, pvalues = large_strategy_shaped()
        for _ in range(5):
            assert gk.replay(gk.run(spec, pvalues), spec).ok
        assert calls == [spec]
        other = two_layer_fixed_sequence_spec()  # an equal spec is a new object
        gk.run(other, TABLE_PVALUES)
        assert calls == [spec, other]

    def test_no_procedure_checks_once_planned(self, monkeypatch):
        spec = three_layer_step_up_spec()
        assert spec.plan is not None
        calls = []
        check = proc.check_procedure

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(proc, "check_procedure", counted)
        monkeypatch.setattr(graph, "check_procedure", counted)
        for _ in range(3):
            assert gk.replay(gk.run(spec, TABLE_PVALUES), spec).ok
        assert calls == []

    def test_invalid_spec_raises_every_time(self, monkeypatch):
        calls = []
        validate = graph.validate_spec
        monkeypatch.setattr(graph, "validate_spec", lambda s: calls.append(s) or validate(s))
        spec = gk.make_spec(0.05, [[("F1", ["H1"], 0.2, proc.bonferroni())]])
        for _ in range(3):
            with pytest.raises(gk.InvalidSpecError, match="exceeding global alpha"):
                gk.run(spec, {"H1": 0.01})
        with pytest.raises(gk.InvalidSpecError):
            gk.replay(gk.TestReport((), {}), spec)
        assert len(calls) == 4

    def test_transitions_are_read_only(self):
        entries = {("F1", "F2"): 0.5}
        spec = gk.make_spec(
            0.05,
            [[("F1", ["H1"], 0.05, proc.bonferroni())], [("F2", ["H2"], 0.0, proc.bonferroni())]],
            entries,
        )
        with pytest.raises(TypeError):
            spec.transitions.entries[("F1", "F2")] = 1.0
        entries[("F1", "F2")] = 1.0  # the mapping given to make_spec is copied
        assert dict(spec.transitions.entries) == {("F1", "F2"): 0.5}
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_step_follows_a_forked_spec(self):
        spec = two_layer_fixed_sequence_spec()
        assert spec.plan.edges["F1"] == (("F2", 0.5), ("F3", 0.5))
        # send all of F1's unspent level to F3 instead of splitting it
        forked = spec._replace(transitions=gk.TransitionCoefficients({("F1", "F3"): 1.0}))
        pvalues = {label: 0.001 for label in TABLE_PVALUES}  # F1 rejects all, spends 0
        outcome, after = step(forked, initial_state(forked), "F1", pvalues)
        assert outcome.transfers == (gk.Transfer("F3", 0.04),)
        assert after.current_alpha["F2"] == 0.005
        assert after.current_alpha["F3"] == 0.005 + 0.04
        outcome, _ = step(forked, after, "F3", pvalues)
        assert outcome.level_used == 0.005 + 0.04
        # the fork built its own plan; the original's is unchanged
        assert forked.plan.edges["F1"] == (("F3", 1.0),)
        outcome, _ = step(spec, initial_state(spec), "F1", pvalues)
        assert outcome.transfers == (gk.Transfer("F2", 0.02), gk.Transfer("F3", 0.02))
