"""Per-layer metrics: timed calls into each gatekeep module, under spans.

Every traced run executes the same probe, so a per-layer number means the
same thing whichever workload's traced run reports it. Inputs come from
the workloads' own set-ups for the run's seed:

  cli        fresh-interpreter import and start-up, numpy/scipy modules
             loaded by a CLI `run`, in-process `cli.main` per decision
             command and `parse_pvalues` (the cli workload's files);
  graph, procedures, engine, hypgraph
             every audit strategy, one p-vector per strategy and round;
             test_family / error_rate_bound are called per family at the
             level the engine's step chain gives it;
  mcsim      parsing the cli workload's sweep configs, drawing
             power-model scores, simulate_fwer and batch_run on sampled
             sweep masks, batch_run per procedure kind on a one-family
             spec, and one full sweep.

A layer value is the mean per call within a round, and the median of
that over rounds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
import statistics
import sys
from collections import defaultdict

import inputs
import workloads

KINDS = inputs.KINDS
STRATEGIES = tuple(inputs.SWEEP_STRATEGIES)

# Rounds per probe section, score-matrix rows, and masks sampled per strategy.
PROBE_SIZES = {"full": {"library": 20, "mcsim": 3, "cli": 20, "process": 5, "rows": 10_000, "masks": 8},
               "smoke": {"library": 1, "mcsim": 1, "cli": 1, "process": 1, "rows": 300, "masks": 2}}

# Metric name -> unit, in report order. Span names map onto these below.
METRICS = {
    "python.startup_ms": "ms",
    "cli.import_ms": "ms",
    "cli.heavy_modules": "count",
    **{f"cli.main_ms.{c}": "ms" for c in workloads.DECIDE_COMMANDS},
    "cli.parse_pvalues_us": "us",
    **{f"graph.{f}_us": "us" for f in ("spec_from_json", "spec_to_json", "validate_spec", "to_dot")},
    **{f"procedures.test_family_us.{k}": "us" for k in KINDS},
    **{f"procedures.error_rate_bound_us.{k}": "us" for k in KINDS},
    **{f"engine.{f}_us": "us" for f in ("run", "step", "replay", "report_to_json", "report_from_json")},
    "hypgraph.graph_from_json_us": "us",
    "hypgraph.run_hypothesis_graph_us": "us",
    "mcsim.sim_configs_from_json_s": "s",
    "mcsim.draw_scores_s": "s",
    "mcsim.draw_rows_per_s": "1/s",
    "mcsim.simulate_fwer_ms_per_config": "ms",
    "mcsim.pmap_ms_per_config": "ms",
    **{f"mcsim.batch_run_ms.{s}": "ms" for s in STRATEGIES},
    **{f"mcsim.batch_run_ms.{k}": "ms" for k in KINDS},
    "mcsim.sweep_s": "s",
    "engine.replay_violations": "count",
    "hypgraph.disagreements": "count",
    "mcsim.row_mismatches": "count",
    "mcsim.masks_over_bound": "count",
    "trace.overhead_ratio": "ratio",
}
MUST_BE_ZERO = ("engine.replay_violations", "hypgraph.disagreements", "mcsim.row_mismatches")

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}

# Span name -> metric name, for metrics that are one span's duration.
_SPAN_METRIC = {
    "cli.parse_pvalues": "cli.parse_pvalues_us",
    **{f"cli.main.{c}": f"cli.main_ms.{c}" for c in workloads.DECIDE_COMMANDS},
    **{f"graph.{f}": f"graph.{f}_us" for f in ("spec_from_json", "spec_to_json", "validate_spec", "to_dot")},
    **{f"procedures.test_family.{k}": f"procedures.test_family_us.{k}" for k in KINDS},
    **{f"procedures.error_rate_bound.{k}": f"procedures.error_rate_bound_us.{k}" for k in KINDS},
    **{f"engine.{f}": f"engine.{f}_us" for f in ("run", "step", "replay", "report_to_json", "report_from_json")},
    "hypgraph.graph_from_json": "hypgraph.graph_from_json_us",
    "hypgraph.run_hypothesis_graph": "hypgraph.run_hypothesis_graph_us",
    "mcsim.sim_configs_from_json": "mcsim.sim_configs_from_json_s",
    "mcsim.draw_scores": "mcsim.draw_scores_s",
    "mcsim.simulate_fwer": "mcsim.simulate_fwer_ms_per_config",
    **{f"mcsim.batch_run.{s}": f"mcsim.batch_run_ms.{s}" for s in STRATEGIES + KINDS},
    "mcsim.sweep": "mcsim.sweep_s",
}

_HEAVY_MODULES = (
    "import contextlib, io, sys; from gatekeep import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(sys.argv[1:])\n"
    "print(code, sum(1 for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))"
)


class Probe:
    def __init__(self, root, seed: int, smoke: bool, tracer):
        self.root = root
        self.seed = seed
        self.smoke = smoke
        self.n = PROBE_SIZES["smoke" if smoke else "full"]
        self.tracer = tracer
        self.counts = defaultdict(int)
        self.values: dict[str, float] = {}
        self.problems: list[str] = []

    # -- helpers ----------------------------------------------------------

    def _round(self, r: int, section: str):
        op = f"{section}.{r}"
        self.tracer.op = op
        return self.tracer.span(f"probe.{section}")

    def run(self) -> dict[str, float]:
        self.first_span = len(self.tracer.spans)
        cli = workloads.Cli(self.root, self.seed, self.smoke)
        audit = workloads.Audit(self.root, self.seed, self.smoke)
        try:
            cli.setup()
            audit.setup()
            self.processes(cli)
            self.cli(cli)
            self.library(audit)
            self.mcsim(cli.workdir, cli.sims["sweep"], random.Random(self.seed))
        finally:
            for w in (cli, audit):
                w.close()
        self.tracer.op = None
        self._span_metrics()
        for name in MUST_BE_ZERO:
            self.values.setdefault(name, float(self.counts[name]))
            if self.values[name]:
                self.problems.append(f"{name} = {self.values[name]:g}")
        return self.values

    def _span_metrics(self) -> None:
        """Mean per call within each probe round, median over rounds."""
        per_round: dict[str, dict] = defaultdict(lambda: defaultdict(list))
        for name, start, end, _, op in self.tracer.spans[self.first_span:]:
            metric = _SPAN_METRIC.get(name)
            if metric is not None:
                per_round[metric][op].append(end - start)
        for metric, rounds in per_round.items():
            scale = _SCALE[METRICS[metric]]
            means = [statistics.fmean(d) for d in rounds.values()]
            self.values[metric] = statistics.median(means) * scale
        sims = per_round["mcsim.simulate_fwer_ms_per_config"]
        batch = defaultdict(list)
        for metric in (f"mcsim.batch_run_ms.{s}" for s in STRATEGIES):
            for op, d in per_round[metric].items():
                batch[op].extend(d)
        self.values["mcsim.pmap_ms_per_config"] = statistics.median(
            (sum(sims[op]) - sum(batch[op])) / len(sims[op]) * 1e3 for op in sims
        )
        self.values["mcsim.draw_rows_per_s"] = self.n["rows"] / self.values["mcsim.draw_scores_s"]

    # -- cli --------------------------------------------------------------

    def processes(self, workload) -> None:
        env, wd = workload.env, workload.workdir
        startup, imports = [], []
        for r in range(self.n["process"]):
            with self._round(r, "process"):
                startup.append(workloads.spawn([sys.executable, "-c", "pass"], env, wd).latency_s)
                imports.append(workloads.time_import("gatekeep.cli", env, wd))
        self.values["python.startup_ms"] = statistics.median(startup) * 1e3
        self.values["cli.import_ms"] = statistics.median(imports) * 1e3
        child = workloads.spawn(
            [sys.executable, "-c", _HEAVY_MODULES, *workloads.DECIDE_ARGV["run"]], env, wd
        )
        out = child.stdout.split()
        if child.returncode != 0 or len(out) != 2 or out[0] != b"0":
            self.problems.append(f"in-process cli run failed: {child.stderr[-300:]!r}")
        else:
            self.values["cli.heavy_modules"] = float(out[1])

    def cli(self, workload) -> None:
        from gatekeep import cli

        pvalues_csv = (workload.workdir / "pvalues.csv").read_text()
        cwd = os.getcwd()
        os.chdir(workload.workdir)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                for cmd in workloads.DECIDE_COMMANDS:
                    cli.main(workloads.DECIDE_ARGV[cmd])  # warm-up
                for r in range(self.n["cli"]):
                    with self._round(r, "cli"):
                        for cmd in workloads.DECIDE_COMMANDS:
                            code = self.tracer.call(f"cli.main.{cmd}", cli.main, workloads.DECIDE_ARGV[cmd])
                            if code != 0:
                                self.problems.append(f"cli.main {cmd} exited {code}")
                        for _ in range(10):
                            self.tracer.call("cli.parse_pvalues", cli.parse_pvalues, pvalues_csv)
        finally:
            os.chdir(cwd)

    # -- graph / procedures / engine / hypgraph ----------------------------

    def library(self, audit) -> None:
        import gatekeep as gk
        from gatekeep.procedures import FamilyTestInput, error_rate_bound, test_family

        call = self.tracer.call
        graph_text = {
            s.name: gk.graph_to_json(s.graph) for s in audit.strategies if s.graph is not None
        }
        for r in range(self.n["library"]):
            with self._round(r, "library"):
                for s in audit.strategies:
                    spec, pv = s.spec, s.pool[r % len(s.pool)]
                    text = call("graph.spec_to_json", gk.spec_to_json, spec)
                    call("graph.spec_from_json", gk.spec_from_json, text)
                    call("graph.validate_spec", gk.validate_spec, spec)
                    call("graph.to_dot", gk.to_dot, spec)
                    report = call("engine.run", gk.run, spec, pv)
                    state = gk.initial_state(spec)
                    for fam in spec.families():
                        level = state.current_alpha[fam.name]
                        kind = fam.procedure.kind
                        inp = FamilyTestInput(tuple(pv[l] for l in fam.labels), level, fam.labels)
                        rej = call(f"procedures.test_family.{kind}", test_family, fam.procedure, inp)
                        accepted = frozenset(range(1, fam.size + 1)) - rej
                        call(f"procedures.error_rate_bound.{kind}", error_rate_bound,
                             fam.procedure, accepted, fam.size, level)
                        _, state = call("engine.step", gk.step, spec, state, fam.name, pv)
                    text = call("engine.report_to_json", gk.report_to_json, report)
                    back = call("engine.report_from_json", gk.report_from_json, text)
                    audit_result = call("engine.replay", gk.replay, back, spec)
                    self.counts["engine.replay_violations"] += len(audit_result.violations)
                    if s.graph is not None:
                        graph = call("hypgraph.graph_from_json", gk.graph_from_json, graph_text[s.name])
                        oracle = call("hypgraph.run_hypothesis_graph", gk.run_hypothesis_graph, graph, pv)
                        engine = {l for l, d in report.decisions.items() if d == "S"}
                        self.counts["hypgraph.disagreements"] += oracle != engine

    # -- mcsim --------------------------------------------------------------

    def mcsim(self, workdir, sweep, rng: random.Random) -> None:
        from scipy.special import ndtr

        from gatekeep import make_spec, mcsim
        from gatekeep import procedures as proc

        call = self.tracer.call
        rows = self.n["rows"]
        power_config, _ = inputs.power_config(rng, rows)
        model = mcsim.PValueModel(**power_config["model"])
        config_text = (workdir / sweep.config_file).read_text()
        per_strategy = len(sweep.configs) // len(STRATEGIES)
        masks = {
            s: [k * per_strategy + m for m in rng.sample(range(per_strategy), self.n["masks"])]
            for k, s in enumerate(STRATEGIES)
        }
        family = {
            "bonferroni": proc.bonferroni(), "holm": proc.holm(),
            "truncated_holm": proc.truncated_holm(0.5), "hochberg": proc.hochberg(),
            "truncated_hochberg": proc.truncated_hochberg(0.5),
            "fixed_sequence": proc.fixed_sequence(["K3", "K1", "K4", "K2"]),
        }
        one_family = {
            k: make_spec(0.05, [[("K", ["K1", "K2", "K3", "K4"], 0.05, p)]])
            for k, p in family.items()
        }
        for r in range(self.n["mcsim"]):
            with self._round(r, "mcsim"):
                configs = call("mcsim.sim_configs_from_json", mcsim.sim_configs_from_json,
                               config_text, seed=sweep.sim_seed)
                scores = call("mcsim.draw_scores", mcsim.draw_scores, self.seed + r, rows,
                              len(configs[0].spec.labels()), model.kind, model.rho)
                for s in STRATEGIES:
                    picked = [dataclasses.replace(configs[i], model=model, reps=rows) for i in masks[s]]
                    expected = []
                    for c in picked:
                        result = call("mcsim.simulate_fwer", mcsim.simulate_fwer, c, _scores=scores)
                        expected.append(json.loads(mcsim.sim_result_to_json(result)))
                        pmat, _ = workloads.p_matrix(c, scores)
                        call(f"mcsim.batch_run.{s}", mcsim.batch_run, c.spec, pmat)
                    self.counts["mcsim.row_mismatches"] += workloads.row_agreement(
                        mcsim, picked, scores, expected, rng, 3
                    )
                pmat = ndtr(-scores[:, :4])
                for k, spec in one_family.items():
                    call(f"mcsim.batch_run.{k}", mcsim.batch_run, spec, pmat)
        configs = [dataclasses.replace(c, seed=sweep.sim_seed) for c in
                   mcsim.sim_configs_from_json(config_text, seed=sweep.sim_seed)]
        self.tracer.op = "sweep"
        results = call("mcsim.sweep", mcsim.sweep, configs)
        self.values["mcsim.masks_over_bound"] = float(
            sum(1 for c, res in zip(configs, results)
                if res.fwer_hat > c.spec.global_alpha + 3 * res.se)
        )
