"""The two benchmark workloads.

`setup` loads what the workload needs, builds its inputs from the seed
(timed, and repeated for a steadier set-up time) and works out expected
outputs. Each `run_op` call then runs one operation, which returns an
`OpResult` and never raises: an exception, a non-zero exit or a failed
output check marks it failed. `finish` runs the checks that need the whole
run.

  cli     one round of `gatekeep` processes, one after another: the
          one-shot decision path (validate, run --out, dot, oracle), then
          `simulate` over every truth mask of three nine-hypothesis
          strategies sharing one score matrix (sweep), then `simulate` on
          one equicorrelated config with many replicates (power).
  audit   in-process run -> report_to_json -> report_from_json -> replay,
          plus run_hypothesis_graph where the strategy has a twin, for every
          report of a seeded pool (8 strategies x 32 p-vectors) per operation.

All loops are closed: one caller, and at most one child process at a time.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import inputs

# Operation sizes. `smoke` sizes exist only for the benchmark's own tests.
SIZES = {
    "full": {"sweep_reps": 1000, "power_reps": 25_000, "audit_pool": 32, "sample_rows": 200},
    "smoke": {"sweep_reps": 20, "power_reps": 500, "audit_pool": 2, "sample_rows": 10},
}

# The console script `gatekeep` installed by pyproject.toml runs exactly this.
CONSOLE_SCRIPT = "import sys; from gatekeep.cli import main; sys.exit(main())"


@dataclass
class OpResult:
    latency_s: float
    ok: bool
    rss_kb: int | None = None
    problem: str = ""
    # Seconds of each step of the op, by step name (the cli round's commands).
    parts: dict[str, float] = field(default_factory=dict)


@dataclass
class Child:
    """Outcome of one child process, reaped with `os.wait4`."""

    latency_s: float
    returncode: int
    rss_kb: int
    stdout: bytes
    stderr: bytes


def program_root(root: Path) -> Path:
    """The package source the benchmark measures; raises if it is absent."""
    src = root / "src"
    if not (src / "gatekeep" / "__init__.py").is_file():
        raise FileNotFoundError(f"no gatekeep sources under {src}")
    return src


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(program_root(root))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], env: dict, workdir: Path) -> Child:
    """Run one child to completion; stdout/stderr go through files."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=workdir)
        _, status, usage = os.wait4(proc.pid, 0)
        end = perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        end - start, proc.returncode, usage.ru_maxrss, out_path.read_bytes(), err_path.read_bytes()
    )


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int, smoke: bool = False):
        self.root = root
        self.seed = seed
        self.size = SIZES["smoke" if smoke else "full"]
        parent = root / ".bench_build" / "work"
        parent.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=parent))
        self.files: dict[str, str] = {}

    def setup(self, repeats: int = 1, min_seconds: float = 0.0) -> list[float]:
        """Load, build the inputs repeatedly, write them, derive expected outputs.

        Builds at least `repeats` times and until `min_seconds` have been
        spent building (at most 1000 times), so that a set-up of a
        millisecond still gets a steady median. Writing the input files is
        left out of the timing: file-system latency varies far more
        between runs than anything the program controls. Returns each
        build's seconds.
        """
        self.load()
        times = []
        while len(times) < repeats or (sum(times) < min_seconds and len(times) < 1000):
            start = perf_counter()
            self.make_inputs()
            times.append(perf_counter() - start)
        for name, text in self.files.items():
            (self.workdir / name).write_text(text)
        self.expect()
        return times

    def load(self) -> None:
        """Untimed preparation: the program's modules and the child env."""
        import gatekeep
        from gatekeep import hypgraph

        self.gk, self.hypgraph = gatekeep, hypgraph
        self.env = child_env(self.root)

    def make_inputs(self) -> None:
        """Build the inputs from the seed; file contents go in `self.files`."""
        raise NotImplementedError

    def expect(self) -> None:
        """Untimed: expected outputs for the checks."""

    def run_op(self, i: int, tracer) -> OpResult:
        raise NotImplementedError

    def rep_evals(self) -> dict[str, int]:
        """Configs x replicates evaluated per run of each simulate step."""
        return {}

    def finish(self) -> list[str]:
        """Checks that need the whole run; any problem fails every op."""
        return []

    def check_counts(self) -> dict:
        """Counts from the checks, reported beside the metrics."""
        return {}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# cli: one round of `gatekeep` processes per operation
# ---------------------------------------------------------------------------

DECIDE_ARGV = {
    "validate": ["validate", "--spec", "spec.json"],
    "run": ["run", "--spec", "spec.json", "--pvalues", "pvalues.csv", "--out", "report.json"],
    "dot": ["dot", "--spec", "spec.json"],
    "oracle": ["oracle", "--graph", "graph.json", "--pvalues", "oracle.csv"],
}
DECIDE_COMMANDS = tuple(DECIDE_ARGV)


def golden_table() -> str:
    """The README decision table, formatted from the golden constants."""
    lines = ["family  level   hypothesis  p-value  decision"]
    for layer in inputs.README_SPEC["layers"]:
        for fam in layer:
            for label in fam["hypotheses"]:
                lines.append(
                    f"{fam['id']:<7} {inputs.GOLDEN_LEVELS[fam['id']]:<7.4f} {label:<11} "
                    f"{inputs.README_PVALUES[label]:<8.4f} {inputs.GOLDEN_DECISIONS[label]}"
                )
    return "\n".join(lines) + "\n"


def cli_process(args: list[str], env: dict, workdir: Path) -> Child:
    """One process of the `gatekeep` console script."""
    return spawn([sys.executable, "-c", CONSOLE_SCRIPT, *args], env, workdir)


class Cli(Workload):
    """The decision commands and the two simulate runs, one process each."""

    name = "cli"

    def make_inputs(self) -> None:
        rng = random.Random(self.seed)
        params = inputs.twin_parameters(rng)
        twin = rng.choice(sorted(params))
        graph, self.family_spec = getattr(self.hypgraph, twin)(*params[twin])
        self.oracle_p = inputs.pvalue_vector(rng, graph.labels)
        sweep, sweep_seed = inputs.sweep_configs(rng, self.size["sweep_reps"])
        power, power_seed = inputs.power_config(rng, self.size["power_reps"])
        self.sims = {
            "sweep": Simulation("sweep", sweep, sweep_seed, rng.random()),
            "power": Simulation("power", [power], power_seed, rng.random()),
        }
        self.argv = {**DECIDE_ARGV, **{name: sim.argv for name, sim in self.sims.items()}}
        self.files = {
            "spec.json": inputs.dumps(inputs.README_SPEC),
            "pvalues.csv": inputs.pvalues_csv(inputs.README_PVALUES),
            "graph.json": self.hypgraph.graph_to_json(graph),
            "oracle.csv": inputs.pvalues_csv(self.oracle_p),
            **{sim.config_file: sim.config_text() for sim in self.sims.values()},
        }

    def expect(self) -> None:
        gk = self.gk
        report = gk.run(self.family_spec, self.oracle_p)
        self.expected = {
            "validate": b"ok\n",
            "run": golden_table().encode(),
            "dot": gk.to_dot(gk.spec_from_json(self.files["spec.json"])).encode(),
            "oracle": sorted(l for l, d in report.decisions.items() if d == "S"),
        }

    def run_op(self, i: int, tracer) -> OpResult:
        parts, rss, problems = {}, [], []
        for cmd, argv in self.argv.items():
            with tracer.span(f"process.{cmd}"):
                child = cli_process(argv, self.env, self.workdir)
            parts[cmd] = child.latency_s
            rss.append(child.rss_kb)
            try:
                problem = self._check(cmd, child)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problem = f"{cmd}: unreadable output: {exc!r}"
            if problem:
                problems.append(problem)
        return OpResult(sum(parts.values()), not problems, max(rss), "; ".join(problems[:3]), parts)

    def _check(self, cmd: str, child: Child) -> str:
        if child.returncode != 0:
            return f"{cmd}: exit {child.returncode}: {child.stderr[-300:]!r}"
        if cmd in self.sims:
            return self.sims[cmd].check_repeat(child, self.workdir)
        if cmd == "oracle":
            got = json.loads(child.stdout).get("rejected")
            return "" if got == self.expected[cmd] else f"oracle rejected {got}"
        if child.stdout != self.expected[cmd]:
            return f"{cmd}: unexpected stdout {child.stdout[:200]!r}"
        if cmd == "run":
            report = json.loads((self.workdir / "report.json").read_text())
            levels = {o["family"]: o["level"] for o in report["outcomes"]}
            if levels != inputs.GOLDEN_LEVELS or report["decisions"] != inputs.GOLDEN_DECISIONS:
                return f"run: report levels {levels} or decisions differ from golden"
        return ""

    def rep_evals(self) -> dict[str, int]:
        return {name: sim.rep_evals for name, sim in self.sims.items()}

    def finish(self) -> list[str]:
        from gatekeep import mcsim

        return [p for sim in self.sims.values() for p in sim.check_library(mcsim, self.size["sample_rows"])]

    def check_counts(self) -> dict:
        counts = {}
        for key in ("mcsim.masks_over_bound", "mcsim.row_mismatches"):
            values = [sim.counts()[key] for sim in self.sims.values()]
            counts[key] = None if None in values else sum(values)
        return counts


class Simulation:
    """One `gatekeep simulate` command of the cli round and its checks.

    Every run must print exactly what the first one printed; after the
    run, sampled configs must match the library's `simulate_fwer`, and
    sampled rows must get the same decisions from `batch_run` and
    `engine.run`.
    """

    def __init__(self, name: str, configs: list[dict], sim_seed: int, check_seed: float):
        self.name = name
        self.configs = configs
        self.sim_seed = sim_seed
        self.config_file = f"{name}.json"
        self.csv_file = f"{name}.csv"
        self.argv = ["simulate", "--config", self.config_file, "--seed", str(sim_seed),
                     "--csv", self.csv_file]
        self.rep_evals = len(configs) * configs[0]["reps"]
        self.check_rng = random.Random(check_seed)
        self.reference = self.results = self.row_mismatches = None

    def config_text(self) -> str:
        return json.dumps(self.configs if len(self.configs) > 1 else self.configs[0])

    def check_repeat(self, child: Child, workdir: Path) -> str:
        output = (child.stdout, (workdir / self.csv_file).read_bytes())
        if self.reference is None:
            self.reference = output
        elif output != self.reference:
            return f"{self.name}: output differs from the first run with the same seed"
        return ""

    def check_library(self, mcsim, sample_rows: int) -> list[str]:
        """Check the (shared) output against the library, then `batch_run`
        against `engine.run` row by row on sampled rows."""
        if self.reference is None:
            return [f"{self.name}: no simulate run succeeded"]
        rng = self.check_rng
        sample = sorted(rng.sample(range(len(self.configs)), min(12, len(self.configs))))
        picked = mcsim.sim_configs_from_json(
            json.dumps([self.configs[i] for i in sample]), seed=self.sim_seed
        )
        c0 = picked[0]
        scores = mcsim.draw_scores(
            self.sim_seed, c0.reps, len(c0.spec.labels()), c0.model.kind, c0.model.rho
        )
        expected = [
            json.loads(mcsim.sim_result_to_json(mcsim.simulate_fwer(c, _scores=scores)))
            for c in picked
        ]
        try:
            problem = self._check_output(sample, expected)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            return [f"{self.name}: {problem}"]
        self.row_mismatches = row_agreement(mcsim, picked, scores, expected, rng, sample_rows)
        if self.row_mismatches:
            return [f"{self.name}: {self.row_mismatches} rows where batch_run != engine.run"]
        return []

    def _check_output(self, sample, expected) -> str:
        stdout, csv = self.reference
        out = json.loads(stdout)
        results = out if isinstance(out, list) else [out]
        if len(results) != len(self.configs):
            return f"{len(results)} results for {len(self.configs)} configs"
        for idx, want in zip(sample, expected):
            if results[idx] != want:
                return f"config {idx}: {results[idx]} != library {want}"
        rows = csv.decode().splitlines()
        if len(rows) != len(self.configs) + 1:
            return f"CSV has {len(rows) - 1} rows for {len(self.configs)} configs"
        for idx, want in zip(sample, expected):
            fields = rows[idx + 1].split(",")
            if float(fields[1]) != want["fwer_hat"] or float(fields[2]) != want["se"]:
                return f"CSV row {idx + 1} disagrees with the library"
        self.results = results
        return ""

    def counts(self) -> dict:
        over = None
        if self.results is not None:
            over = sum(
                1 for c, r in zip(self.configs, self.results)
                if r["fwer_hat"] > c["spec"]["alpha"] + 3 * r["se"]
            )
        return {"mcsim.masks_over_bound": over, "mcsim.row_mismatches": self.row_mismatches}


def p_matrix(config, scores):
    """The p-value matrix `simulate_fwer` derives from a score matrix."""
    import numpy as np
    from scipy.special import ndtr

    false_mask = np.array([config.truth[l] == "false_null" for l in config.spec.labels()])
    return ndtr(-(scores + config.model.delta * false_mask)), ~false_mask


def row_agreement(mcsim, configs, scores, expected, rng, rows_per_config) -> int:
    """Count rows where `batch_run` and `engine.run` reject different sets.

    Also fails loudly (one mismatch per config) when the rebuilt p-matrix
    does not reproduce the library's fwer_hat, since the rows would then
    not be the ones the program evaluated.
    """
    import gatekeep as gk

    mismatches = 0
    for config, want in zip(configs, expected):
        pmat, true_mask = p_matrix(config, scores)
        rejected = mcsim.batch_run(config.spec, pmat)
        fwer = float((rejected & true_mask).any(axis=1).mean()) if true_mask.any() else 0.0
        if fwer != want["fwer_hat"]:
            mismatches += 1
            continue
        labels = config.spec.labels()
        for r in rng.sample(range(pmat.shape[0]), min(rows_per_config, pmat.shape[0])):
            report = gk.run(config.spec, dict(zip(labels, map(float, pmat[r]))))
            engine = [report.decisions[l] == "S" for l in labels]
            if engine != rejected[r].tolist():
                mismatches += 1
    return mismatches


# ---------------------------------------------------------------------------
# audit: in-process library loop
# ---------------------------------------------------------------------------


@dataclass
class Strategy:
    name: str
    spec: object
    graph: object = None
    pool: list = field(default_factory=list)


class Audit(Workload):
    name = "audit"

    def make_inputs(self) -> None:
        gk, hypgraph = self.gk, self.hypgraph
        rng = random.Random(self.seed)
        pool = self.size["audit_pool"]
        strategies = [
            Strategy("readme", gk.spec_from_json(json.dumps(inputs.README_SPEC))),
            Strategy("step_up", gk.spec_from_json(json.dumps(inputs.STEP_UP_SPEC))),
        ]
        for twin, args in inputs.twin_parameters(rng).items():
            graph, spec = getattr(hypgraph, twin)(*args)
            strategies.append(Strategy(twin, spec, graph))
        for tag in ("A", "B"):
            spec = gk.spec_from_json(json.dumps(inputs.large_strategy(rng, tag)))
            if not gk.validate_spec(spec).ok:
                raise RuntimeError(f"generated strategy {tag} is invalid")
            strategies.append(Strategy(f"large_{tag}", spec))
        for s in strategies:
            labels = s.spec.labels()
            s.pool = [inputs.pvalue_vector(rng, labels) for _ in range(pool)]
        strategies[0].pool[0] = dict(inputs.README_PVALUES)
        self.strategies = strategies
        self.reports = [(s, j) for j in range(pool) for s in strategies]

    def run_op(self, i: int, tracer) -> OpResult:
        """Audit every report of the pool once: one p-vector per strategy and
        pool slot. The batch is ~0.2 s, so a host stall of a few ms cannot
        set the tail the way it would for a single report of ~0.4 ms."""
        gk = self.gk
        done = []
        start = perf_counter()
        try:
            with tracer.span("audit.op"):
                for s, j in self.reports:
                    pvalues = s.pool[j]
                    report = tracer.call("engine.run", gk.run, s.spec, pvalues)
                    text = tracer.call("engine.report_to_json", gk.report_to_json, report)
                    back = tracer.call("engine.report_from_json", gk.report_from_json, text)
                    audit = tracer.call("engine.replay", gk.replay, back, s.spec)
                    oracle = None
                    if s.graph is not None:
                        oracle = tracer.call("hypgraph.run_hypothesis_graph",
                                             gk.run_hypothesis_graph, s.graph, pvalues)
                    done.append((s, j, report, text, back, audit, oracle))
            latency = perf_counter() - start
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            return OpResult(perf_counter() - start, False, None, repr(exc))
        problems = [p for p in (self._check(*d) for d in done) if p]
        return OpResult(latency, not problems, None, "; ".join(problems[:3]))

    def _check(self, s, j, report, text, back, audit, oracle) -> str:
        rejected = sorted(l for l, d in report.decisions.items() if d == "S")
        if not audit.ok:
            return f"{s.name}: replay: {audit.violations}"
        if back != report or self.gk.report_to_json(back) != text:
            return f"{s.name}: report JSON does not round-trip"
        if oracle is not None and sorted(oracle) != rejected:
            return f"{s.name}: oracle {sorted(oracle)} != engine {rejected}"
        if s.name == "readme" and j == 0 and dict(report.decisions) != inputs.GOLDEN_DECISIONS:
            return "readme: decisions differ from golden"
        return ""


WORKLOADS = {w.name: w for w in (Cli, Audit)}


_TIME_IMPORT = (
    "import sys, time; t = time.perf_counter(); __import__(sys.argv[1]); "
    "print(time.perf_counter() - t)"
)


def time_import(module: str, env: dict, workdir: Path) -> float:
    """Seconds to import `module` in a fresh interpreter, timed inside it."""
    child = spawn([sys.executable, "-c", _TIME_IMPORT, module], env, workdir)
    if child.returncode != 0:
        raise RuntimeError(f"import {module} failed: {child.stderr[-300:]!r}")
    return float(child.stdout)
