"""Every input parser ends malformed input in SpecFormatError or
InvalidSpecError, and the field readers give one message per kind of field."""

from __future__ import annotations

import copy
import json
import math
import re

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
    # Spec and graph numbers are read as numbers and non-finite ones are left
    # to validation; report numbers must be finite when read.
    spec_obj = json.loads(gk.spec_to_json(three_layer_step_up_spec()))
    spec_obj["layers"][0][0]["alpha"] = float("nan")
    spec = gk.spec_from_json(json.dumps(spec_obj))
    with pytest.raises(gk.InvalidSpecError, match="initial alpha nan outside"):
        spec.plan
    graph_obj = json.loads(DOCUMENTS["graph"])
    graph_obj["weights"][0] = float("inf")
    for text in (json.dumps(graph_obj), json.dumps(graph_obj).replace("Infinity", "1e999")):
        graph = hypgraph.graph_from_json(text)
        assert "non-finite weight" in hypgraph.validate_graph(graph).violations
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


# ---------------------------------------------------------------------------
# Unknown keys in fixed-shape objects
# ---------------------------------------------------------------------------


def _path(fmt, obj):
    """The objects of one document that take only fixed keys, by name."""
    if fmt == "spec":
        return {"spec": obj, "family": obj["layers"][0][0],
                "procedure": obj["layers"][0][0]["procedure"], "transition": obj["transitions"][0]}
    if fmt == "graph":
        return {"graph": obj}
    if fmt == "config":
        return {"config": obj[0], "model": obj[0]["model"]}
    return {"report": obj, "outcome": obj["outcomes"][0],
            "transfer": obj["outcomes"][0]["transfers"][0]}


UNKNOWN_KEY_MESSAGES = [
    ("spec", "spec", "spec: "),
    ("spec", "family", "layer 1, family 1: "),
    ("spec", "procedure", "layer 1, family 1: procedure: "),
    ("spec", "transition", "transition 1: "),
    ("graph", "graph", "graph: "),
    ("config", "config", "config: "),
    ("config", "model", "model: "),
    ("config", "spec", "spec: "),
    ("report", "report", "report: "),
    ("report", "outcome", "outcome 1: "),
    ("report", "transfer", "outcome 1: transfer: "),
]


@pytest.mark.parametrize("fmt, name, prefix", UNKNOWN_KEY_MESSAGES)
def test_unknown_key_is_refused(fmt, name, prefix):
    obj = json.loads(DOCUMENTS[fmt])
    target = (_path("spec", obj[0]["spec"]) if fmt == "config" and name == "spec"
              else _path(fmt, obj))[name]
    target["zeta"] = 1
    target["beta"] = 2  # the first unknown key in sorted order is named
    with pytest.raises(gk.SpecFormatError, match=f"^{prefix}unknown key 'beta'$"):
        PARSE[fmt](json.dumps(obj))


def test_misspelt_optional_keys_no_longer_change_the_strategy(tmp_path, capsys):
    from gatekeep import cli

    obj = json.loads(DOCUMENTS["spec"])
    obj["layers"][0][0]["procedure"] = {"kind": "holm", "weight": [0.9, 0.1]}
    with pytest.raises(gk.SpecFormatError, match="procedure: unknown key 'weight'$"):
        gk.spec_from_json(json.dumps(obj))
    obj = json.loads(DOCUMENTS["spec"])
    obj["transition"] = obj.pop("transitions")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["validate", "--spec", str(path)]) == 1
    assert capsys.readouterr().err == "error: spec: unknown key 'transition'\n"


def test_label_maps_take_any_label():
    report = json.loads(DOCUMENTS["report"])
    report["decisions"]["H99"] = "S"
    assert gk.report_from_json(json.dumps(report)).decisions["H99"] == "S"
    config = json.loads(DOCUMENTS["config"])
    config[0]["truth"]["H99"] = "true_null"
    (parsed,) = mcsim.sim_configs_from_json(json.dumps(config), seed=1)
    with pytest.raises(ValueError, match=r"extra \['H99'\]"):
        mcsim.simulate_fwer(parsed)


def test_fields_takes_only_the_keys_given():
    assert jsontext.fields({"a": 1, "b": 2}, ("a",), "x", ("b", "c")) == {"a": 1, "b": 2}
    assert jsontext.fields({"a": 1, "b": 2}, ("a",), "x", None) == {"a": 1, "b": 2}
    with pytest.raises(gk.SpecFormatError, match="^x: unknown key 'b'$"):
        jsontext.fields({"a": 1, "b": 2}, ("a",), "x")


# ---------------------------------------------------------------------------
# The config list is read one element at a time
# ---------------------------------------------------------------------------

CONFIG = DOCUMENTS["config"][1:-1]
NAN_CONFIG = CONFIG.replace('"alpha": 0.05', '"alpha": NaN', 1)
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "text",
    [
        "[]", "[ ]", " \t[\n]\r\n", f"[{CONFIG}]", f"\n [ {CONFIG} ,\n{CONFIG}\t] \n",
        f"[{CONFIG},{NAN_CONFIG}]", f"[{json.dumps(json.loads(CONFIG))}]",
        # refused by json.loads
        f"\ufeff[{CONFIG}]", f"[{CONFIG},]", f"[{CONFIG} {CONFIG}]", f"[{CONFIG}] x",
        f"[{CONFIG}]]", f"[{CONFIG}", f"[{CONFIG},", "[", "[,]", f"[,{CONFIG}]",
        f"[{CONFIG},,{CONFIG}]", f"[{CONFIG}]\x00", f"[{CONFIG[:-9]}]", f"[{DEEP}]",
        "[" + '{"spec": ' * 50_000,
    ],
)
def test_streamed_list_accepts_what_json_loads_accepts(text):
    try:
        elements = json.loads(text)
    except (ValueError, RecursionError):
        with pytest.raises(gk.SpecFormatError, match="^not valid JSON: "):
            mcsim.sim_configs_from_json(text, seed=1)
        return
    got = mcsim.sim_configs_from_json(text, seed=1)
    one_by_one = [mcsim.sim_configs_from_json(json.dumps(e), seed=1)[0] for e in elements]
    assert [mcsim.sim_config_to_json(c) for c in got] == [
        mcsim.sim_config_to_json(c) for c in one_by_one
    ]


def test_config_list_nested_near_the_decoder_limit_never_escapes():
    # An element decoded on its own can nest one level deeper than in a
    # whole-file decode; re-encoding its spec must not escape either.
    import sys

    limit = sys.getrecursionlimit()
    for depth in range(limit - 160, limit + 10):
        nested = "[" * depth + "]" * depth
        text = f'[{{"spec": {{"alpha": 0.05, "layers": {nested}}}, "truth": {{}}, "reps": 1}}]'
        try:
            mcsim.sim_configs_from_json(text, seed=1)
        except (gk.SpecFormatError, gk.InvalidSpecError):
            pass


def test_streamed_list_shares_specs():
    first, second = mcsim.sim_configs_from_json(f"[{CONFIG}, {CONFIG}]", seed=1)
    assert first.spec is second.spec


def test_a_spec_differing_only_in_bool_for_int_is_parsed_again():
    good = json.loads(CONFIG)
    good["spec"]["alpha"] = 1
    bad = json.loads(CONFIG)
    bad["spec"]["alpha"] = True
    with pytest.raises(gk.SpecFormatError, match="^alpha must be a number$"):
        mcsim.sim_configs_from_json(json.dumps([good, bad]), seed=1)


def test_parsing_a_long_config_list_holds_one_element_at_a_time():
    import itertools
    import tracemalloc

    from conftest import parallel_split_spec, serial_chain_spec, three_layer_step_up_spec

    model = {"kind": "independent_uniform", "rho": 0.0, "delta": 3.0}
    configs = []
    for spec in (three_layer_step_up_spec(), parallel_split_spec(), serial_chain_spec()):
        spec_obj = json.loads(gk.spec_to_json(spec))
        labels = spec.labels()
        for bits in itertools.product((True, False), repeat=len(labels)):
            truth = {l: "true_null" if b else "false_null" for l, b in zip(labels, bits)}
            configs.append({"spec": spec_obj, "truth": truth, "model": model, "reps": 1000})
    text = json.dumps(configs)
    del configs
    tracemalloc.start()
    try:
        parsed = mcsim.sim_configs_from_json(text, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(parsed) == 1536
    # The whole decoded list is about 8 MB.
    assert peak <= 4e6


CHARS = list(' \t\n\r[]{},:"0123456789.-eE') + ["\ufeff", "NaN", "true", "null", "x"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_config_list_text_never_escapes(data):
    """Characters inserted, deleted or cut anywhere in a config list: only
    SpecFormatError/InvalidSpecError escape, and text that json.loads
    refuses is refused."""
    text = f"[{CONFIG},\n{CONFIG}]"
    for _ in range(data.draw(st.integers(1, 3))):
        pos = data.draw(st.integers(0, len(text)))
        op = data.draw(st.sampled_from(("insert", "delete", "cut")))
        if op == "insert":
            text = text[:pos] + data.draw(st.sampled_from(CHARS)) + text[pos:]
        elif op == "delete":
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos]
    try:
        json.loads(text)
        valid = True
    except ValueError:
        valid = False
    try:
        mcsim.sim_configs_from_json(text, seed=1)
    except (gk.SpecFormatError, gk.InvalidSpecError):
        return
    assert valid


# ---------------------------------------------------------------------------
# P-values are plain ASCII decimals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "field, value",
    [("0.5", 0.5), (" 0.25 ", 0.25), (".5", 0.5), ("1.", 1.0), ("+0.1", 0.1), ("-0", 0.0),
     ("5e-3", 0.005), ("5E-3", 0.005), ("0.5e+0", 0.5), ("\u00a00.5\u2003", 0.5)],
)
def test_pvalue_decimals_accepted(field, value):
    assert parse_pvalues(f"hypothesis,p\nH1,{field}\n") == {"H1": value}


@pytest.mark.parametrize(
    "field",
    ["0.0_3", "1_0e-1", "\u0660.\u0660\u0664", "\uff10.5", "nan", "NaN", "-nan", "inf",
     "infinity", "-Infinity", "0x1", "1e", "e5", ".", "+", "", " ", "0.5.1", "1e5.0"],
)
def test_pvalue_non_decimals_refused(field):
    with pytest.raises(gk.SpecFormatError, match=r"^row 2: p-value .* is not a number$"):
        parse_pvalues(f"hypothesis,p\nH1,{field}\n")


# ---------------------------------------------------------------------------
# Report messages, word for word
# ---------------------------------------------------------------------------


def _at(where):
    """The object an edit changes: the report, its outcome 2 (F2, which has
    one transfer) or that outcome's transfer."""
    return {
        "report": lambda obj: obj,
        "outcome": lambda obj: obj["outcomes"][1],
        "transfer": lambda obj: obj["outcomes"][1]["transfers"][0],
    }[where]


REPORT_MESSAGES = [
    ("report", {}, ("outcomes",), "report: missing key 'outcomes'"),
    ("report", {}, ("decisions", "outcomes"), "report: missing key 'outcomes'"),
    ("report", {"zeta": 1, "beta": 2}, (), "report: unknown key 'beta'"),
    ("report", {"outcomes": {}}, (), "outcomes must be a list of objects"),
    ("report", {"decisions": []}, (), "decisions must be an object"),
    ("report", {"decisions": math.nan}, (), "decisions must be an object"),
    ("outcome", {}, ("e_star",), "outcome 2: missing key 'e_star'"),
    ("outcome", {}, ("accepted", "level"), "outcome 2: missing key 'level'"),
    ("outcome", {"zeta": 1, "beta": 2}, (), "outcome 2: unknown key 'beta'"),
    ("outcome", {"beta": 1, "family": 5}, (), "outcome 2: unknown key 'beta'"),
    ("outcome", {"family": 5}, (), "outcome 2: family must be a string"),
    ("outcome", {"level": True}, (), "outcome 2: level must be a finite number"),
    ("outcome", {"rejected": [1]}, (), "outcome 2: rejected must be a list of strings"),
    ("outcome", {"transfers": [[]]}, (), "outcome 2: transfers must be a list of objects"),
    ("outcome", {"level": math.nan}, (), "outcome 2: level must be a finite number"),
    ("outcome", {"e_star": math.inf}, (), "outcome 2: e_star must be a finite number"),
    ("outcome", {"e_star": 10**400}, (), "outcome 2: e_star must be a finite number"),
    ("transfer", {}, ("amount",), "outcome 2: transfer: missing key 'amount'"),
    ("transfer", {"zeta": 1, "beta": 2}, (), "outcome 2: transfer: unknown key 'beta'"),
    ("transfer", {"to": 5}, ("amount",), "outcome 2: transfer: missing key 'amount'"),
    ("transfer", {"to": 5}, (), "outcome 2: transfer to must be a string"),
    ("transfer", {"amount": "0.1"}, (), "outcome 2: amount must be a finite number"),
    ("transfer", {"amount": -math.inf}, (), "outcome 2: amount must be a finite number"),
]


@pytest.mark.parametrize("where, put, drop, message", REPORT_MESSAGES)
def test_report_message(where, put, drop, message):
    obj = json.loads(DOCUMENTS["report"])
    target = _at(where)(obj)
    for key in drop:
        del target[key]
    target.update(put)
    with pytest.raises(gk.SpecFormatError, match=f"^{re.escape(message)}$"):
        gk.report_from_json(json.dumps(obj))


@pytest.mark.parametrize("text", ["NaN", "[]", '"report"'])
def test_report_that_is_not_an_object(text):
    with pytest.raises(gk.SpecFormatError, match="^report must be an object$"):
        gk.report_from_json(text)
