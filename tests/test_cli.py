"""End-to-end CLI behavior: exit codes, file handling, determinism."""

import json

import pytest

import gatekeep as gk
from gatekeep import cli, hypgraph
from gatekeep.cli import parse_pvalues

from conftest import (
    GRAPH_NUMBER_FIELDS,
    SPEC_NUMBER_FIELDS,
    TABLE_PVALUES,
    graph_text_with_true,
    spec_text_with_true,
    three_layer_step_up_spec,
    two_layer_fixed_sequence_spec,
)

PVALUES_CSV = "hypothesis,p\n" + "\n".join(
    f"{label},{TABLE_PVALUES[label]}" for label in sorted(TABLE_PVALUES)
) + "\n"


@pytest.fixture
def files(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(gk.spec_to_json(two_layer_fixed_sequence_spec()))
    csv_path = tmp_path / "pvalues.csv"
    csv_path.write_text(PVALUES_CSV)
    return tmp_path, str(spec_path), str(csv_path)


class TestParsePvalues:
    def test_table(self):
        assert parse_pvalues(PVALUES_CSV) == TABLE_PVALUES

    def test_header_only(self):
        assert parse_pvalues("hypothesis,p\n") == {}

    def test_out_of_range_names_row(self):
        with pytest.raises(gk.SpecFormatError, match="row 3"):
            parse_pvalues("hypothesis,p\nA,0.5\nB,1.2\n")

    def test_duplicate_label(self):
        with pytest.raises(gk.SpecFormatError, match="duplicate"):
            parse_pvalues("hypothesis,p\nA,0.5\nA,0.2\n")

    def test_bad_header(self):
        with pytest.raises(gk.SpecFormatError, match="header"):
            parse_pvalues("hyp,pval\nA,0.5\n")

    def test_non_numeric(self):
        with pytest.raises(gk.SpecFormatError, match="not a number"):
            parse_pvalues("hypothesis,p\nA,abc\n")


class TestValidateCommand:
    def test_ok(self, files, capsys):
        _, spec_path, _ = files
        assert cli.main(["validate", "--spec", spec_path]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_violation_exit_2_names_edge(self, tmp_path, capsys):
        spec = gk.make_spec(
            0.05,
            [
                [("F1", ["H1"], 0.025, gk.LocalProcedureSpec("bonferroni"))],
                [("F2", ["H2"], 0.025, gk.LocalProcedureSpec("bonferroni"))],
            ],
            {("F2", "F1"): 0.5},
        )
        path = tmp_path / "bad.json"
        path.write_text(gk.spec_to_json(spec))
        assert cli.main(["validate", "--spec", str(path)]) == 2
        out = capsys.readouterr().out
        assert "backward edge" in out and "(2, 1) -> (1, 1)" in out

    def test_unreadable_exit_1(self, tmp_path):
        assert cli.main(["validate", "--spec", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("field", SPEC_NUMBER_FIELDS)
    def test_bool_number_exit_1(self, tmp_path, capsys, field):
        path = tmp_path / "spec.json"
        path.write_text(spec_text_with_true(field))
        assert cli.main(["validate", "--spec", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_exit_1(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{]")
        assert cli.main(["validate", "--spec", str(path)]) == 1


class TestRunCommand:
    def test_golden_decision_table(self, files, capsys):
        tmp_path, spec_path, csv_path = files
        out_path = tmp_path / "report.json"
        code = cli.main([
            "run", "--spec", spec_path, "--pvalues", csv_path, "--out", str(out_path)
        ])
        assert code == 0
        table = capsys.readouterr().out
        decided = {}
        for line in table.strip().split("\n")[1:]:
            fields = line.split()
            decided[fields[2]] = fields[4]
        assert decided == {
            "H11": "S", "H12": "S", "H13": "S",
            "H21": "S", "H22": "NS", "H23": "NS",
            "H31": "S", "H32": "S", "H33": "NS",
        }
        report = gk.report_from_json(out_path.read_text())
        assert gk.replay(report, two_layer_fixed_sequence_spec()).ok

    def test_json_to_stdout_without_out(self, files, capsys):
        _, spec_path, csv_path = files
        assert cli.main(["run", "--spec", spec_path, "--pvalues", csv_path]) == 0
        captured = capsys.readouterr()
        report = gk.report_from_json(captured.out)
        assert report.decisions["H22"] == "NS"
        assert "decision" in captured.err  # human table goes to stderr

    def test_deterministic_output(self, files, capsys):
        _, spec_path, csv_path = files
        cli.main(["run", "--spec", spec_path, "--pvalues", csv_path])
        first = capsys.readouterr().out
        cli.main(["run", "--spec", spec_path, "--pvalues", csv_path])
        second = capsys.readouterr().out
        assert first.encode() == second.encode()

    def test_bad_pvalue_exit_1(self, files, capsys):
        tmp_path, spec_path, _ = files
        bad = tmp_path / "bad.csv"
        bad.write_text("hypothesis,p\nH11,1.2\n")
        assert cli.main(["run", "--spec", spec_path, "--pvalues", str(bad)]) == 1
        assert "row 2" in capsys.readouterr().err

    def test_missing_labels_exit_1(self, files, tmp_path, capsys):
        _, spec_path, _ = files
        partial = tmp_path / "partial.csv"
        partial.write_text("hypothesis,p\nH11,0.01\n")
        assert cli.main(["run", "--spec", spec_path, "--pvalues", str(partial)]) == 1
        assert "missing p-values" in capsys.readouterr().err

    def test_constraint_violation_exit_2(self, files, tmp_path, capsys):
        tmp_path_, _, csv_path = files
        spec = gk.make_spec(
            0.05, [[("F1", sorted(TABLE_PVALUES), 0.5,
                     gk.LocalProcedureSpec("holm"))]]
        )
        bad = tmp_path_ / "overbudget.json"
        bad.write_text(gk.spec_to_json(spec))
        assert cli.main(["run", "--spec", str(bad), "--pvalues", csv_path]) == 2
        assert "exceeding global alpha" in capsys.readouterr().err


    @pytest.mark.parametrize("case", [
        "transitions not a list", "from not a string", "huge alpha", "huge g", "deep nesting",
    ])
    def test_malformed_spec_exit_1_without_traceback(self, files, capsys, case):
        tmp_path, _, csv_path = files
        obj = json.loads(gk.spec_to_json(two_layer_fixed_sequence_spec()))
        if case == "transitions not a list":
            obj["transitions"] = 5
        elif case == "from not a string":
            obj["transitions"][0]["from"] = ["F1"]
        elif case == "huge alpha":
            obj["alpha"] = 10**400
        elif case == "huge g":
            obj["transitions"][0]["g"] = 10**400
        text = "[" * 100_000 + "]" * 100_000 if case == "deep nesting" else json.dumps(obj)
        path = tmp_path / "malformed.json"
        path.write_text(text)
        assert cli.main(["run", "--spec", str(path), "--pvalues", csv_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_unwritable_out_exit_1(self, files, capsys):
        tmp_path, spec_path, csv_path = files
        out = str(tmp_path / "missing-dir" / "report.json")
        code = cli.main(["run", "--spec", spec_path, "--pvalues", csv_path, "--out", out])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}")


class TestDotCommand:
    def test_deterministic_bytes(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(gk.spec_to_json(three_layer_step_up_spec()))
        cli.main(["dot", "--spec", str(path)])
        first = capsys.readouterr().out
        cli.main(["dot", "--spec", str(path)])
        second = capsys.readouterr().out
        assert first.encode() == second.encode()
        assert first.count(" -> ") == 3

    def test_invalid_spec_exit_2(self, tmp_path):
        spec = gk.make_spec(
            0.05, [[("F1", ["H1"], 0.5, gk.LocalProcedureSpec("bonferroni"))]]
        )
        path = tmp_path / "bad.json"
        path.write_text(gk.spec_to_json(spec))
        assert cli.main(["dot", "--spec", str(path)]) == 2


    def test_unwritable_out_exit_1(self, files, capsys):
        tmp_path, spec_path, _ = files
        out = str(tmp_path / "missing-dir" / "graph.dot")
        assert cli.main(["dot", "--spec", spec_path, "--out", out]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}")


class TestSimulateCommand:
    def config_file(self, tmp_path, seed_field=True):
        spec = two_layer_fixed_sequence_spec()
        truth = {label: "true_null" for label in spec.labels()}
        obj = {
            "spec": json.loads(gk.spec_to_json(spec)),
            "truth": truth,
            "model": {"kind": "independent_uniform", "rho": 0.0, "delta": 3.0},
            "reps": 400,
        }
        if seed_field:
            obj["seed"] = 123
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def test_single_config(self, tmp_path, capsys):
        path = self.config_file(tmp_path, seed_field=False)
        assert cli.main(["simulate", "--config", path, "--seed", "5"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["seed"] == 5 and obj["reps"] == 400
        assert 0.0 <= obj["fwer_hat"] <= 1.0

    def test_seed_flag_overrides_file(self, tmp_path, capsys):
        path = self.config_file(tmp_path, seed_field=True)
        cli.main(["simulate", "--config", path, "--seed", "5"])
        assert json.loads(capsys.readouterr().out)["seed"] == 5

    def test_deterministic_and_csv(self, tmp_path, capsys):
        path = self.config_file(tmp_path)
        csv_out = tmp_path / "out.csv"
        cli.main(["simulate", "--config", path, "--seed", "5", "--csv", str(csv_out)])
        first = capsys.readouterr().out
        cli.main(["simulate", "--config", path, "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second
        lines = csv_out.read_text().strip().split("\n")
        assert lines[0] == "truth_mask,fwer_hat,se,reps,seed"
        assert lines[1].startswith("1" * 9 + ",")

    def test_seed_flag_required(self, tmp_path, capsys):
        path = self.config_file(tmp_path)
        with pytest.raises(SystemExit):
            cli.main(["simulate", "--config", path])

    def test_malformed_config_exit_1(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"reps": 10}')
        assert cli.main(["simulate", "--config", str(path), "--seed", "1"]) == 1

    @pytest.mark.parametrize("key", ["rho", "delta"])
    @pytest.mark.parametrize("value", [None, "0.3", True])
    def test_model_number_not_a_number_exit_1(self, tmp_path, capsys, key, value):
        path = self.config_file(tmp_path)
        obj = json.loads((tmp_path / "config.json").read_text())
        obj["model"][key] = value
        (tmp_path / "config.json").write_text(json.dumps(obj))
        assert cli.main(["simulate", "--config", path, "--seed", "5"]) == 1
        assert capsys.readouterr().err.startswith(f"error: model {key} must be a finite number")

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_exit_1(self, tmp_path, capsys, seed):
        path = self.config_file(tmp_path)
        assert cli.main(["simulate", "--config", path, "--seed", seed]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"seed {seed} outside" in err

    def test_bad_seed_is_reported_once_for_a_config_list(self, tmp_path, capsys):
        path = self.config_file(tmp_path)
        obj = json.loads((tmp_path / "config.json").read_text())
        (tmp_path / "config.json").write_text(json.dumps([obj] * 50))
        assert cli.main(["simulate", "--config", path, "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed -1 outside [0, 2**64)\n"

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_stdout_is_one_indented_document(self, tmp_path, capsys, count):
        # A list is written one result at a time, in json.dumps's bytes;
        # a list of one config prints its result as an object.
        path = self.config_file(tmp_path)
        obj = json.loads((tmp_path / "config.json").read_text())
        configs = [dict(obj, reps=50 + k) for k in range(count)]
        (tmp_path / "config.json").write_text(json.dumps(configs))
        assert cli.main(["simulate", "--config", path, "--seed", "5"]) == 0
        out = capsys.readouterr().out
        results = json.loads(out)
        assert out == json.dumps(results, indent=2, sort_keys=True) + "\n"
        if count == 1:
            assert results["reps"] == 50
        else:
            assert [r["reps"] for r in results] == [50 + k for k in range(count)]

    def test_unwritable_csv_exit_1(self, tmp_path, capsys):
        path = self.config_file(tmp_path)
        out = str(tmp_path / "missing-dir" / "sweep.csv")
        assert cli.main(["simulate", "--config", path, "--seed", "5", "--csv", out]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}")


class TestConsoleScript:
    def test_installed_entry_point(self, files):
        import subprocess
        import sys

        _, spec_path, _ = files
        done = subprocess.run(
            [sys.executable, "-m", "gatekeep.cli", "validate", "--spec", spec_path],
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0
        assert done.stdout.strip() == "ok"

    def test_decision_commands_do_not_load_numpy_or_scipy(self, files, tmp_path):
        # ...nor dataclasses and inspect, which `import gatekeep` skips too;
        # and simulate loads numpy but not scipy.
        import subprocess
        import sys

        _, spec_path, csv_path = files
        config_path = TestSimulateCommand().config_file(tmp_path)
        graph, _ = hypgraph.bonferroni_gate_pair(0.05)
        graph_path = tmp_path / "graph.json"
        graph_path.write_text(hypgraph.graph_to_json(graph))
        oracle_csv = tmp_path / "oracle.csv"
        oracle_csv.write_text("hypothesis,p\nH1,0.01\nH2,0.04\nH3,0.02\nH4,0.049\n")
        commands = [
            ["validate", "--spec", spec_path],
            ["run", "--spec", spec_path, "--pvalues", csv_path],
            ["dot", "--spec", spec_path],
            ["oracle", "--graph", str(graph_path), "--pvalues", str(oracle_csv)],
        ]
        script = (
            "import contextlib, io, json, sys\n"
            "import gatekeep\n"
            "slow = ('dataclasses', 'inspect')\n"
            "loaded = [[m for m in slow if m in sys.modules]]\n"
            "from gatekeep import cli\n"
            "codes, oracle = [], []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "        codes.append(cli.main(argv))\n"
            "    oracle.append('gatekeep.hypgraph' in sys.modules)\n"
            "    loaded.append([m for m in slow if m in sys.modules])\n"
            "heavy = sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))\n"
            "lazy = gatekeep.batch_run is gatekeep.mcsim.batch_run\n"
            "lazy = lazy and gatekeep.run_hypothesis_graph is gatekeep.hypgraph.run_hypothesis_graph\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes.append(cli.main(json.loads(sys.argv[2])))\n"
            "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(json.dumps([codes, heavy, lazy, scipy, oracle, loaded]))\n"
        )
        simulate = ["simulate", "--config", config_path, "--seed", "3"]
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(commands), json.dumps(simulate)],
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        codes, heavy, lazy, scipy, oracle, loaded = json.loads(done.stdout)
        assert codes == [0, 0, 0, 0, 0]
        assert heavy == []
        # after `import gatekeep`, then after each decision command
        assert loaded == [[]] * 5
        assert lazy
        assert scipy == []
        # only the oracle command loads the oracle module
        assert oracle == [False, False, False, True]


class TestOracleCommand:
    def test_rejections_printed(self, tmp_path, capsys):
        graph, _ = hypgraph.bonferroni_gate_pair(0.05)
        gpath = tmp_path / "graph.json"
        gpath.write_text(hypgraph.graph_to_json(graph))
        ppath = tmp_path / "p.csv"
        ppath.write_text("hypothesis,p\nH1,0.01\nH2,0.04\nH3,0.02\nH4,0.049\n")
        assert cli.main(["oracle", "--graph", str(gpath), "--pvalues", str(ppath)]) == 0
        assert json.loads(capsys.readouterr().out) == {"rejected": ["H1"]}

    @pytest.mark.parametrize("field", GRAPH_NUMBER_FIELDS)
    def test_bool_number_exit_1(self, tmp_path, capsys, field):
        gpath = tmp_path / "graph.json"
        gpath.write_text(graph_text_with_true(field))
        ppath = tmp_path / "p.csv"
        ppath.write_text("hypothesis,p\nA,0.01\nB,0.5\n")
        assert cli.main(["oracle", "--graph", str(gpath), "--pvalues", str(ppath)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("eps", ["5", "null", "[[0, true]]"])
    def test_malformed_epsilon_edges_exit_1_without_traceback(self, tmp_path, capsys, eps):
        graph, _ = hypgraph.serial_holm_gate_single(0.05)
        obj = json.loads(hypgraph.graph_to_json(graph))
        obj["epsilon_edges"] = "@"
        gpath = tmp_path / "graph.json"
        gpath.write_text(json.dumps(obj).replace('"@"', eps))
        ppath = tmp_path / "p.csv"
        ppath.write_text("hypothesis,p\nH1,0.01\nH2,0.02\nH3,0.5\n")
        assert cli.main(["oracle", "--graph", str(gpath), "--pvalues", str(ppath)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: epsilon") and "Traceback" not in err

    def test_invalid_graph_exit_2(self, tmp_path):
        graph, _ = hypgraph.bonferroni_gate_pair(0.05)
        bad = hypgraph.HypothesisGraph(
            alpha=graph.alpha,
            labels=graph.labels,
            weights=(0.9, 0.9, 0.0, 0.0),
            transitions=graph.transitions,
        )
        gpath = tmp_path / "graph.json"
        gpath.write_text(hypgraph.graph_to_json(bad))
        ppath = tmp_path / "p.csv"
        ppath.write_text("hypothesis,p\nH1,0.5\nH2,0.5\nH3,0.5\nH4,0.5\n")
        assert cli.main(["oracle", "--graph", str(gpath), "--pvalues", str(ppath)]) == 2
