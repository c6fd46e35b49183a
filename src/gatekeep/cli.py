"""Command-line front end.

Subcommands: validate, run, dot, simulate, oracle. Exit codes: 0 success,
1 unreadable or malformed input, 2 constraint violation. All output is
deterministic for identical inputs; simulation requires an explicit seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import re
import sys

from .engine import TestReport, report_to_json, run
from .errors import InvalidSpecError, SpecFormatError, SweepError
from .graph import GraphSpec, spec_from_json, to_dot, validate_spec
from .jsontext import dumps, write_list

# What parse_pvalues reads as a number, once stripped: a plain ASCII decimal
# with optional sign and exponent. float() alone would also take "1_0", "nan",
# "inf" and non-ASCII digits.
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def parse_pvalues(text: str) -> dict[str, float]:
    """Parse a two-column CSV (header `hypothesis,p`) into a label map.

    Duplicate labels, missing fields and out-of-range values are errors
    naming the offending row.
    """
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:  # a field over the csv module's size limit
        raise SpecFormatError(f"not a valid CSV file: {exc}") from None
    if not rows:
        raise SpecFormatError("empty p-value file (expected header 'hypothesis,p')")
    if [h.strip() for h in rows[0]] != ["hypothesis", "p"]:
        raise SpecFormatError(
            f"bad header {rows[0]!r}: expected 'hypothesis,p'"
        )
    out: dict[str, float] = {}
    for row_number, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise SpecFormatError(f"row {row_number}: expected 2 fields, got {len(row)}")
        label = row[0].strip()
        if not _DECIMAL.fullmatch(row[1].strip()):
            raise SpecFormatError(f"row {row_number}: p-value {row[1]!r} is not a number")
        p = float(row[1])
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
    # Imported here so that the other commands load neither numpy nor dataclasses.
    import dataclasses

    from .mcsim import _check_seed, sim_configs_from_json, sim_result_obj, sweep, sweep_to_csv

    _check_seed(args.seed)  # once, not once per config
    configs = sim_configs_from_json(_read(args.config), seed=args.seed)
    configs = [dataclasses.replace(c, seed=args.seed) for c in configs]
    results = sweep(configs)
    # One result is written as an object, several as a list, one at a time.
    if len(results) == 1:
        sys.stdout.write(dumps(sim_result_obj(results[0])))
    else:
        write_list(map(sim_result_obj, results), sys.stdout.write)
    sys.stdout.write("\n")
    if args.csv:
        _write(args.csv, sweep_to_csv(configs, results))
    return 0


def _cmd_oracle(args) -> int:
    # Imported here so that the other commands do not compile the oracle.
    from .hypgraph import graph_from_json, run_hypothesis_graph

    graph = graph_from_json(_read(args.graph))
    pvalues = parse_pvalues(_read(args.pvalues))
    rejected = run_hypothesis_graph(graph, pvalues)
    sys.stdout.write(dumps({"rejected": sorted(rejected)}) + "\n")
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
    except InvalidSpecError as exc:
        for violation in exc.violations:
            print(violation, file=sys.stderr)
        return 2
    except (SpecFormatError, SweepError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
