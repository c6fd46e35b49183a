"""The indented JSON writer gives json.dumps's bytes."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gatekeep as gk
from gatekeep import hypgraph, mcsim
from gatekeep.jsontext import dumps, write_list

from conftest import parallel_split_spec

leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e-320, 5e-324])
    | st.text()
    | st.sampled_from(["", "é", "名前", " ", "\x00\"\\\n", "\U0001f600"])
)
trees = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(trees)
def test_same_text_as_json_dumps(obj):
    assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [[], {}, [[]], {"a": {}}, {"é": ["ü", {}]}, [0.1, -0.0, 10**30]])
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_edge_shapes(obj, depth):
    for _ in range(depth):  # in a list in an object: two more levels of indent
        obj = {"x": [obj, 1]}
    assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


@settings(max_examples=100, deadline=None)
@given(st.lists(trees, max_size=6))
def test_list_written_one_item_at_a_time(items):
    pieces = []
    write_list(iter(items), pieces.append)
    assert "".join(pieces) == json.dumps(items, indent=2, sort_keys=True)
    assert len(pieces) == max(len(items), 1) + bool(items)


def test_unserializable_values_and_keys_raise():
    with pytest.raises(TypeError):
        dumps({"a": object()})
    with pytest.raises(TypeError):
        dumps({1: "a"})
    # A record is a tuple, but it is not written as an array.
    for record in (gk.Transfer("F2", 0.5), gk.ValidationOutcome()):
        with pytest.raises(TypeError, match="Transfer|ValidationOutcome"):
            dumps({"a": [record]})
        with pytest.raises(TypeError):
            write_list([record], [].append)


def test_every_writer_keeps_its_bytes():
    spec = parallel_split_spec()
    graph, _ = hypgraph.serial_holm_gate_single(0.025)
    config = mcsim.SimConfig(spec, {label: "true_null" for label in spec.labels()}, reps=50, seed=3)
    result = mcsim.simulate_fwer(config)
    for text, obj in [
        (gk.spec_to_json(spec), json.loads(gk.spec_to_json(spec))),
        (gk.graph_to_json(graph), json.loads(gk.graph_to_json(graph))),
        (mcsim.sim_config_to_json(config), json.loads(mcsim.sim_config_to_json(config))),
        (mcsim.sim_result_to_json(result), mcsim.sim_result_obj(result)),
    ]:
        assert text == json.dumps(obj, indent=2, sort_keys=True)
