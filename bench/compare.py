"""Compare two source trees (parent and change) on the benchmark.

    python3 bench/compare.py --parent DIR --change DIR [--out FILE]

Each tree is a checkout with `src/gatekeep`. This file's own `run.py`
measures both trees, so both sides use identical benchmark code, and every
run lasts BENCHMARK.json's `run_seconds`. Every workload in BENCHMARK.json
gets 10 pairs; pair i runs each side once with seed 1000 + i, the parent
first in even pairs and the change first in odd ones.

For every workload and end-to-end metric the table gives each side's
median and quartiles, the change's wins over the pairs, and a verdict:

  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and its median beats the parent's by more than the
              parent's interquartile range;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the parent's own spread (IQR / median) exceeds the bound and
              not every change run beats every parent run;
  no worse    otherwise.

A change with more failed operations than the parent cannot be improved.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import quartiles

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
PAIRS = 10
SEED_BASE = 1000


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int]:
    """(verdict, wins) for paired samples of one metric; see the module doc."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    gain = sign * (cm - pm)
    if wins >= 0.9 * len(parent) and gain > p3 - p1:
        return "improved", wins
    if (p3 - p1) > bound * abs(pm):
        every = all(sign * (c - p) > 0 for c in change for p in parent)
        return ("no worse" if every else "unresolved"), wins
    if -gain > bound * abs(pm):
        return "worse", wins
    return "no worse", wins


def run_once(tree: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} failed: {proc.stderr[-500:]}")
    return json.loads(lines[-1])


def compare(parent: Path, change: Path):
    rows = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                tree = parent if side == "parent" else change
                runs[side].append(run_once(tree, workload, SEED_BASE + i))
        failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
        row = {"failed": failed, "metrics": {}}
        for m in SPEC["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in runs["parent"]]
            c = [r["metrics"][m["name"]]["value"] for r in runs["change"]]
            v, wins = verdict(p, c, m["better"], m["bound"])
            if v == "improved" and failed["change"] > failed["parent"]:
                v = "no worse"
            row["metrics"][m["name"]] = {
                "unit": m["unit"], "parent": quartiles(p), "change": quartiles(c),
                "wins": wins, "pairs": PAIRS, "verdict": v, "parent_runs": p, "change_runs": c,
            }
        rows[workload] = row
    return rows


def print_table(rows) -> None:
    for workload, row in rows.items():
        print(f"{workload}: failed ops parent={row['failed']['parent']} "
              f"change={row['failed']['change']}")
        print(f"  {'metric':<16} {'parent q1/med/q3':>34} {'change q1/med/q3':>34}  wins  verdict")
        for name, m in row["metrics"].items():
            p = "/".join(f"{x:.4g}" for x in m["parent"])
            c = "/".join(f"{x:.4g}" for x in m["change"])
            print(f"  {name:<16} {p:>34} {c:>34}  {m['wins']:>2}/{m['pairs']:<2} {m['verdict']}"
                  f"  [{m['unit']}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--out", type=Path, help="also write the rows as JSON here")
    args = parser.parse_args(argv)
    rows = compare(args.parent.resolve(), args.change.resolve())
    print_table(rows)
    if args.out:
        args.out.write_text(json.dumps(rows, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
