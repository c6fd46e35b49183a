"""Every input parser ends malformed input in SpecFormatError or
InvalidSpecError, and the field readers give one message per kind of field."""

from __future__ import annotations

import copy
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gatekeep as gk
from gatekeep import hypgraph, jsontext, mcsim
from gatekeep import procedures as proc
from gatekeep.cli import parse_pvalues

from conftest import TABLE_PVALUES, all_true_null, three_layer_step_up_spec

# What a mutation may put in place of a JSON value: every JSON type, the
# values a reader must refuse (booleans, integers beyond the float range,
# non-finite numbers) and shapes near the valid ones.
VALUES = (
    None, True, False, 0, 1, 2, -1, 5, 0.5, -0.0, 1e308, 10**400,
    float("nan"), float("inf"), "", "x", "F1", "H11", "holm",
    [], {}, [0, True], [[0, 1]], [0.5, 0.5], ["H11"], [None], {"kind": "holm"},
)
PVALUES_CSV = "hypothesis,p\n" + "".join(f"{h},{p!r}\n" for h, p in TABLE_PVALUES.items())
CSV_TOKENS = ("", "nan", "inf", "-0", "1e999", "0.5", "abc", '"', ",", "\x00", "\n", "H11")


def _all_kinds_spec() -> gk.GraphSpec:
    return gk.make_spec(
        0.05,
        [
            [("F1", ["H1", "H2"], 0.02, proc.holm([0.25, 0.75])),
             ("F2", ["H3"], 0.01, proc.bonferroni())],
            [("F3", ["H4", "H5"], 0.01, proc.truncated_holm(0.5)),
             ("F4", ["H6", "H7"], 0.01, proc.truncated_hochberg(0.25))],
            [("F5", ["H8", "H9"], 0.0, proc.fixed_sequence(["H9", "H8"])),
             ("F6", ["H10"], 0.0, proc.hochberg())],
        ],
        {("F1", "F3"): 0.5, ("F1", "F4"): 0.5, ("F2", "F5"): 1.0,
         ("F3", "F6"): 1.0, ("F4", "F5"): 0.25},
    )


def _documents() -> dict[str, str]:
    spec = three_layer_step_up_spec()
    graph, _ = hypgraph.serial_holm_gate_weighted_pair(0.05, 0.25, 0.75)
    config = mcsim.SimConfig(spec, all_true_null(spec), mcsim.PValueModel(), 10, 3)
    return {
        "spec": gk.spec_to_json(_all_kinds_spec()),
        "graph": hypgraph.graph_to_json(graph),
        "config": f"[{mcsim.sim_config_to_json(config)}]",
        "report": gk.report_to_json(gk.run(spec, TABLE_PVALUES)),
    }


DOCUMENTS = _documents()
PARSE = {
    "spec": lambda text: gk.spec_from_json(text).plan,
    "graph": lambda text: hypgraph.validate_graph(hypgraph.graph_from_json(text)),
    "config": lambda text: mcsim.sim_configs_from_json(text, seed=1),
    "report": gk.report_from_json,
    "csv": parse_pvalues,
}


def _mutate_json(doc, draw) -> str:
    """One to three mutations, each at a node reached by a random walk down
    from the top that stops at each level with probability 1/2: replace the
    node by a value or by a copy of the whole document, or delete it; or
    cut the text at a random point and stop."""
    doc = json.loads(doc)
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, draw(st.sampled_from(keys))
            node = parent[key]
        op = draw(st.sampled_from(("value", "delete", "copy", "cut")))
        if op == "cut":
            text = json.dumps(doc)
            return text[: draw(st.integers(0, len(text)))]
        if parent is None:
            doc = copy.deepcopy(draw(st.sampled_from(VALUES)))
        elif op == "delete":
            del parent[key]
        elif op == "copy":
            parent[key] = json.loads(json.dumps(doc))
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(VALUES)))
    return json.dumps(doc)


def _mutate_csv(draw) -> str:
    rows = [row.split(",") for row in PVALUES_CSV.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        if not rows:
            break
        row = draw(st.sampled_from(rows))
        op = draw(st.sampled_from(("field", "delete", "append")))
        if op == "field":
            row[draw(st.integers(0, 1))] = draw(st.sampled_from(CSV_TOKENS))
        elif op == "delete":
            rows.remove(row)
        else:
            row.append(draw(st.sampled_from(CSV_TOKENS)))
    return "\n".join(",".join(row) for row in rows) + "\n"


@pytest.mark.parametrize("fmt", sorted(PARSE))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_input_raises_only_format_or_spec_errors(fmt, data):
    if fmt == "csv":
        text = _mutate_csv(data.draw)
    else:
        text = _mutate_json(DOCUMENTS[fmt], data.draw)
    try:
        PARSE[fmt](text)
    except (gk.SpecFormatError, gk.InvalidSpecError):
        pass


@pytest.mark.parametrize("fmt", sorted(PARSE))
def test_unmutated_documents_parse(fmt):
    text = PVALUES_CSV if fmt == "csv" else DOCUMENTS[fmt]
    PARSE[fmt](text)


@pytest.mark.parametrize(
    "reader, value, message",
    [
        (jsontext.number, True, "x must be a number"),
        (jsontext.number, 10**400, "x must be a number"),
        (jsontext.number, "1", "x must be a number"),
        (jsontext.finite, float("nan"), "x must be a finite number"),
        (jsontext.finite, float("-inf"), "x must be a finite number"),
        (jsontext.finite, 10**400, "x must be a finite number"),
        (jsontext.finite, False, "x must be a finite number"),
        (jsontext.numbers, [0.5, True], "x must be a list of numbers"),
        (jsontext.numbers, [10**400], "x must be a list of numbers"),
        (jsontext.numbers, {}, "x must be a list of numbers"),
        (jsontext.string, 5, "x must be a string"),
        (jsontext.integer, True, "x must be an integer"),
        (jsontext.integer, 1.0, "x must be an integer"),
    ],
)
def test_reader_messages(reader, value, message):
    with pytest.raises(gk.SpecFormatError, match=f"^{message}$"):
        reader(value, "x")


def test_structure_reader_messages():
    with pytest.raises(gk.SpecFormatError, match="^x must be an object$"):
        jsontext.fields([], ("a",), "x")
    with pytest.raises(gk.SpecFormatError, match="^x: missing key 'b'$"):
        jsontext.fields({"a": 1}, ("a", "b"), "x")
    for kind, value, plural in [(str, ["a", 1], "strings"), (list, [[0], 5], "lists"),
                                (dict, [{}, []], "objects"), (list, "ab", "lists")]:
        with pytest.raises(gk.SpecFormatError, match=f"^x must be a list of {plural}$"):
            jsontext.list_of(kind, value, "x")


def test_readers_return_the_values():
    assert math.isnan(jsontext.number(float("nan"), "x"))
    assert jsontext.number(3, "x") == 3.0 and type(jsontext.number(3, "x")) is float
    assert jsontext.finite(-2, "x") == -2.0 and type(jsontext.finite(-2, "x")) is float
    assert jsontext.numbers([1, 0.5], "x") == (1.0, 0.5)
    assert jsontext.integer(2**70, "x") == 2**70
    assert jsontext.list_of(list, [[0, True]], "x") == [[0, True]]


def test_finiteness_per_format():
    # Spec numbers are read as numbers and NaN is left to validation;
    # report numbers must be finite when read.
    spec_obj = json.loads(gk.spec_to_json(three_layer_step_up_spec()))
    spec_obj["layers"][0][0]["alpha"] = float("nan")
    spec = gk.spec_from_json(json.dumps(spec_obj))
    with pytest.raises(gk.InvalidSpecError, match="initial alpha nan outside"):
        spec.plan
    report_obj = json.loads(DOCUMENTS["report"])
    report_obj["outcomes"][1]["level"] = float("nan")
    with pytest.raises(gk.SpecFormatError, match="^outcome 2: level must be a finite number$"):
        gk.report_from_json(json.dumps(report_obj))


def test_integer_too_long_to_convert():
    with pytest.raises(gk.SpecFormatError, match="not valid JSON"):
        jsontext.loads('{"alpha": ' + "1" * 5000 + "}")


def test_csv_field_over_the_csv_size_limit():
    with pytest.raises(gk.SpecFormatError, match="not a valid CSV file"):
        parse_pvalues('hypothesis,p\nH1,"' + "1" * 200_000 + '"\n')
