"""Command-line front end.

Subcommands: validate, run, dot, simulate, oracle. Exit codes: 0 success,
1 unreadable or malformed input, 2 constraint violation. All output is
deterministic for identical inputs; simulation requires an explicit seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

from .engine import TestReport, report_to_json, run
from .errors import InvalidSpecError, SpecFormatError, SweepError
from .graph import GraphSpec, spec_from_json, to_dot, validate_spec
from .hypgraph import graph_from_json, run_hypothesis_graph


def parse_pvalues(text: str) -> dict[str, float]:
    """Parse a two-column CSV (header `hypothesis,p`) into a label map.

    Duplicate labels, missing fields and out-of-range values are errors
    naming the offending row.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise SpecFormatError("empty p-value file (expected header 'hypothesis,p')")
    if [h.strip() for h in header] != ["hypothesis", "p"]:
        raise SpecFormatError(
            f"bad header {header!r}: expected 'hypothesis,p'"
        )
    out: dict[str, float] = {}
    for row_number, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise SpecFormatError(f"row {row_number}: expected 2 fields, got {len(row)}")
        label = row[0].strip()
        try:
            p = float(row[1])
        except ValueError:
            raise SpecFormatError(
                f"row {row_number}: p-value {row[1]!r} is not a number"
            ) from None
        if not 0.0 <= p <= 1.0:
            raise SpecFormatError(f"row {row_number}: p-value {p!r} outside [0, 1]")
        if label in out:
            raise SpecFormatError(f"row {row_number}: duplicate hypothesis {label!r}")
        out[label] = p
    return out


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SpecFormatError(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SpecFormatError(f"cannot write {path}: {exc}") from None


def _load_spec(path: str) -> GraphSpec:
    return spec_from_json(_read(path))


def decision_table(spec: GraphSpec, report: TestReport, pvalues: dict[str, float]) -> str:
    """Fixed-precision table of per-hypothesis decisions, execution order."""
    level_of = {o.family: o.level_used for o in report.outcomes}
    lines = ["family  level   hypothesis  p-value  decision"]
    for fam in spec.families():
        for label in fam.labels:
            lines.append(
                f"{fam.name:<7} {level_of[fam.name]:<7.4f} {label:<11} "
                f"{pvalues[label]:<8.4f} {report.decisions[label]}"
            )
    return "\n".join(lines) + "\n"


def _cmd_validate(args) -> int:
    spec = _load_spec(args.spec)
    outcome = validate_spec(spec)
    if outcome.ok:
        print("ok")
        return 0
    for violation in outcome.violations:
        print(violation)
    return 2


def _cmd_run(args) -> int:
    spec = _load_spec(args.spec)
    pvalues = parse_pvalues(_read(args.pvalues))
    report = run(spec, pvalues)
    text = report_to_json(report) + "\n"
    table = decision_table(spec, report, pvalues)
    if args.out:
        _write(args.out, text)
        sys.stdout.write(table)
    else:
        sys.stdout.write(text)
        sys.stderr.write(table)
    return 0


def _cmd_dot(args) -> int:
    text = to_dot(_load_spec(args.spec))
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_simulate(args) -> int:
    # Imported here so that the other commands never load numpy and scipy.
    from .mcsim import sim_configs_from_json, sim_result_to_json, sweep, sweep_to_csv

    configs = sim_configs_from_json(_read(args.config), seed=args.seed)
    configs = [dataclasses.replace(c, seed=args.seed) for c in configs]
    results = sweep(configs)
    if len(results) == 1:
        sys.stdout.write(sim_result_to_json(results[0]) + "\n")
    else:
        parts = [json.loads(sim_result_to_json(r)) for r in results]
        sys.stdout.write(json.dumps(parts, indent=2, sort_keys=True) + "\n")
    if args.csv:
        _write(args.csv, sweep_to_csv(configs, results))
    return 0


def _cmd_oracle(args) -> int:
    graph = graph_from_json(_read(args.graph))
    pvalues = parse_pvalues(_read(args.pvalues))
    rejected = run_hypothesis_graph(graph, pvalues)
    sys.stdout.write(
        json.dumps({"rejected": sorted(rejected)}, indent=2) + "\n"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatekeep",
        description=(
            "Test hierarchically ordered families of hypotheses with "
            "overall FWER control."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a strategy file's constraints")
    p.add_argument("--spec", required=True, help="strategy JSON file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("run", help="test a strategy against observed p-values")
    p.add_argument("--spec", required=True, help="strategy JSON file")
    p.add_argument("--pvalues", required=True, help="CSV with header hypothesis,p")
    p.add_argument("--out", help="write the report JSON here instead of stdout")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("dot", help="render the family graph as DOT")
    p.add_argument("--spec", required=True, help="strategy JSON file")
    p.add_argument("--out", help="write DOT here instead of stdout")
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("simulate", help="Monte Carlo FWER estimation")
    p.add_argument("--config", required=True, help="simulation config JSON (object or list)")
    p.add_argument(
        "--seed",
        required=True,
        type=int,
        help="seed applied to every config (overrides any seed in the file)",
    )
    p.add_argument("--csv", help="also write one CSV row per config here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "oracle", help="run the hypothesis-level graphical procedure"
    )
    p.add_argument("--graph", required=True, help="hypothesis graph JSON file")
    p.add_argument("--pvalues", required=True, help="CSV with header hypothesis,p")
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvalidSpecError as exc:
        for violation in exc.violations:
            print(violation, file=sys.stderr)
        return 2
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
