"""`report_to_json` writes the bytes of the standard library's
`json.dumps(obj, indent=2, sort_keys=True)`, where `obj` is the report's
JSON object built as a tree of dicts and lists, and refuses what that tree
writer refuses."""

from __future__ import annotations

import json
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gatekeep as gk
from gatekeep import jsontext

from conftest import TABLE_PVALUES, three_layer_step_up_spec


def report_obj(report: gk.TestReport) -> dict:
    """The report's JSON object, as a tree of dicts and lists."""
    return {
        "outcomes": [
            {
                "family": o.family,
                "level": o.level_used,
                "rejected": sorted(o.rejected),
                "accepted": sorted(o.accepted),
                "e_star": o.e_star,
                "transfers": [{"to": t.target, "amount": t.amount} for t in o.transfers],
            }
            for o in report.outcomes
        ],
        "decisions": dict(sorted(report.decisions.items())),
    }


def reference(report: gk.TestReport) -> str:
    return json.dumps(report_obj(report), indent=2, sort_keys=True)


# Labels with quotes, backslashes, control and non-ASCII characters.
TEXT = st.text(alphabet=st.sampled_from('"\\/\x00\x1f\x7f \t\nAHé中\U0001f600\ud800'), max_size=6)
EDGE_FLOATS = (-0.0, 0.0, 5e-324, 1e308, -1e308, float("nan"), float("inf"), float("-inf"))
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS[:5])
NUMBER = st.floats() | st.sampled_from(EDGE_FLOATS)
# Any value json writes, int and bool leaves included; object keys are strings.
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**30), 10**30) | NUMBER | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)


@st.composite
def reports(draw, finite: bool = False) -> gk.TestReport:
    """Hand-built reports, not ones the engine makes. Unless `finite`,
    numbers may be non-finite or integers, labels integers, and decision
    values any JSON value."""
    number = FINITE if finite else NUMBER | st.integers(-5, 5) | st.booleans()
    label = TEXT if finite else draw(st.sampled_from((TEXT, st.integers(-3, 3))))
    outcomes = tuple(
        gk.FamilyOutcome(
            draw(TEXT),
            draw(number),
            draw(st.frozensets(label, max_size=3)),
            draw(st.frozensets(label, max_size=3)),
            draw(number),
            tuple(draw(st.lists(st.builds(gk.Transfer, TEXT, number), max_size=3))),
        )
        for _ in range(draw(st.integers(0, 3)))
    )
    value = st.sampled_from(("S", "NS")) if finite else JSON_VALUE
    return gk.TestReport(outcomes, draw(st.dictionaries(TEXT, value, max_size=4)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(report=reports())
def test_writer_matches_the_standard_library(report):
    assert gk.report_to_json(report) == reference(report)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(report=reports(finite=True))
def test_finite_reports_round_trip(report):
    assert gk.report_from_json(gk.report_to_json(report)) == report


def test_edge_cases_match_the_standard_library():
    report = gk.run(three_layer_step_up_spec(), TABLE_PVALUES)
    empty = gk.TestReport((), {})
    bare = gk.FamilyOutcome("F", 0.0, frozenset(), frozenset(), 0.0, ())
    odd = gk.FamilyOutcome(
        'a"b\\c\x01é', -0.0, frozenset({1, 2}), frozenset({True}), 5e-324,
        (gk.Transfer("\U0001f600", float("nan")), gk.Transfer("\t", float("-inf"))),
    )
    decisions = {"H1": None, "H2": 7, "H3": [1.5, {"b": [], "a": {}}], "H4": float("inf")}
    for r in (report, empty, gk.TestReport((bare,), {}), gk.TestReport((odd, bare), decisions)):
        assert gk.report_to_json(r) == reference(r)


class Pair(NamedTuple):
    a: int
    b: int


@pytest.mark.parametrize(
    "edit",
    [
        lambda o: o._replace(family=Pair(1, 2)),  # a record, not an array
        lambda o: o._replace(level_used=object()),
        lambda o: o._replace(rejected=frozenset({(1, Pair(1, 2))})),
        lambda o: o._replace(transfers=(gk.Transfer({1: "S"}, 0.0),)),  # a non-string key
        lambda o: o._replace(transfers=(gk.Transfer("F2", {0.5}),)),
    ],
)
def test_what_the_tree_writer_refuses_is_refused(edit):
    report = gk.run(three_layer_step_up_spec(), TABLE_PVALUES)
    bad = report._replace(outcomes=(edit(report.outcomes[0]), *report.outcomes[1:]))
    with pytest.raises(TypeError):
        jsontext.dumps(report_obj(bad))
    with pytest.raises(TypeError):
        gk.report_to_json(bad)


@pytest.mark.parametrize("decisions", [{1: "S"}, {"H1": Pair(1, 2)}, {"H1": {2: "S"}}])
def test_decisions_the_tree_writer_refuses_are_refused(decisions):
    report = gk.TestReport((), decisions)
    with pytest.raises(TypeError):
        jsontext.dumps(report_obj(report))
    with pytest.raises(TypeError):
        gk.report_to_json(report)
