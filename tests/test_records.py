"""The decision-path records are read-only NamedTuples."""

from __future__ import annotations

import copy
import pickle

import pytest

import gatekeep as gk
from gatekeep import graph, hypgraph
from gatekeep.engine import initial_state, step

from conftest import TABLE_PVALUES, two_layer_fixed_sequence_spec


def one_of_each() -> list:
    """One instance of every record type outside mcsim."""
    spec = two_layer_fixed_sequence_spec()
    report = gk.run(spec, TABLE_PVALUES)
    oracle, _ = hypgraph.bonferroni_gate_pair(0.05)
    return [
        report.outcomes[0].transfers[0],
        report.outcomes[0],
        report,
        initial_state(spec),
        spec.layers[0][0],
        spec.transitions,
        spec.plan,
        spec,
        gk.validate_spec(spec),
        spec.layers[0][0].procedure,
        spec.plan.kernels["F1"],
        gk.FamilyTestInput((0.01, 0.02), 0.05),
        oracle,
    ]


@pytest.mark.parametrize("record", one_of_each(), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record):
    assert record._fields
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    if type(record) is not gk.GraphSpec:  # the spec's __dict__ holds its plan
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.extra = None


def test_a_spec_accepts_no_attribute_and_no_plan():
    spec = two_layer_fixed_sequence_spec()
    for name in ("plan", "extra"):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(spec, name, None)
    assert spec.__dict__ == {}


def test_a_record_equals_the_tuple_of_its_fields():
    transfer = gk.Transfer("F2", 0.5)
    assert transfer == ("F2", 0.5)
    assert transfer._asdict() == {"target": "F2", "amount": 0.5}
    assert gk.LocalProcedureSpec("holm") == ("holm", None, None, None)


def test_replace_forks_a_state():
    spec = two_layer_fixed_sequence_spec()
    state = initial_state(spec)
    before = copy.deepcopy(state)
    fork = state._replace(current_g={("F1", "F3"): 1.0})
    assert state == before
    assert fork.remaining is state.remaining
    outcome, _ = step(spec, fork, "F1", {label: 0.001 for label in TABLE_PVALUES})
    assert outcome.transfers == (gk.Transfer("F3", 0.04),)
    assert state == before


def _built_every_way(entries):
    made = gk.TransitionCoefficients(entries)
    return [
        made,
        made._replace(entries=dict(entries)),
        gk.TransitionCoefficients._make([entries]),
        pickle.loads(pickle.dumps(made)),
        copy.deepcopy(made),
    ]


def test_transition_entries_are_read_only_however_built():
    entries = {("F1", "F2"): 0.5}
    for built in _built_every_way(entries):
        assert type(built) is gk.TransitionCoefficients
        assert built.entries == entries
        with pytest.raises(TypeError):
            built.entries[("F1", "F2")] = 1.0
    for built in _built_every_way(entries):
        entries[("F1", "F3")] = 0.25  # the mapping built from is copied
        assert ("F1", "F3") not in built.entries
        del entries[("F1", "F3")]


def test_a_pickled_spec_leaves_its_plan_behind(monkeypatch):
    spec = two_layer_fixed_sequence_spec()
    assert spec.plan is spec.plan
    assert "plan" in spec.__dict__
    for twin in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
        assert type(twin) is gk.GraphSpec
        assert twin == spec
        assert twin.__dict__ == {}
    assert b"Plan" not in pickle.dumps(spec)

    calls = []
    validate = graph.validate_spec
    monkeypatch.setattr(graph, "validate_spec", lambda s: calls.append(s) or validate(s))
    twin = pickle.loads(pickle.dumps(spec))
    assert twin.plan.families == spec.plan.families
    assert calls == [twin]
    assert gk.run(twin, TABLE_PVALUES) == gk.run(spec, TABLE_PVALUES)


def test_a_replaced_spec_plans_afresh():
    spec = two_layer_fixed_sequence_spec()
    assert spec.plan.labels
    bad = spec._replace(global_alpha=0.01)
    assert bad.__dict__ == {}
    with pytest.raises(gk.InvalidSpecError, match="exceeding global alpha"):
        bad.plan
    assert bad.__dict__ == {}
