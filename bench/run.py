"""gatekeep benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {cli,audit} --seed N --seconds S
                         --trace {0,1} [--smoke]

Run it from the root of a source tree; it measures the package in
`./src` and exits 2 without a result when that is missing. Inputs come
from the seed only. The run sets the workload up, runs one untimed
operation (a cli op runs every command once), then runs operations back
to back for S seconds and checks every output. `setup_s` is the set-up a
run needs: loading the program (`import gatekeep`, timed in fresh
interpreters since a process imports once) plus building the inputs
(timed in-process, many times); each part is a median.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs the same
operations untraced and then traced, for `trace.overhead_ratio`, and then
the per-layer probe in `layers.py`, which records a span around every
call the benchmark makes into a gatekeep module. `--smoke` shrinks every
size for the benchmark's own tests.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The lines above it, and `.bench_build/results/`, hold the details: sample
counts, the tail percentile, fail_ratio, each cli command's median seconds
(`wall_s[sweep]`, `wall_s[power]`, ...) and rep_evals_per_s for the two
simulate commands, per-span times and provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import layers
import stats
import workloads
from spans import NullTracer, Tracer

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Input builds per run (at least this many, for at least this long) and
# fresh-interpreter imports per run; set-up time is the sum of their medians.
SETUP_REPEATS = {"full": (5, 0.5), "smoke": (1, 0.0)}
IMPORT_REPEATS = {"full": 5, "smoke": 1}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    return parser.parse_args(argv)


def provenance(root: Path, args) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "gatekeep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def timed_loop(workload, tracer, seconds=None, count=None, first=0):
    """Closed loop: run ops back to back until `seconds` pass or `count` ran.

    Returns the op results and the loop's wall time.
    """
    results = []
    start = perf_counter()
    i = first
    while True:
        tracer.op = i
        results.append(workload.run_op(i, tracer))
        i += 1
        if count is not None and len(results) >= count:
            break
        if seconds is not None and perf_counter() - start >= seconds:
            break
    tracer.op = None
    return results, perf_counter() - start


def end_to_end(results, loop_wall, builds, imports, rep_evals) -> tuple[dict, dict]:
    """End-to-end metrics of the timed loop, and the details printed beside them.

    `ops_per_s` divides by the loop's wall time, output checks included.
    `peak_rss_mb` is the median over ops of the largest child RSS in the
    op (cli), or this process's own peak (audit). Per cli command, the
    details give its median seconds (`wall_s`) and, for the simulate
    commands, configs x replicates per second of that median
    (`rep_evals_per_s`); these move with `op_ms_p50`, so they are not
    scored.
    """
    lat = [r.latency_s for r in results]
    tail, pct, n = stats.tail(lat)
    rss = [r.rss_kb for r in results if r.rss_kb is not None]
    if rss:
        peak_mb = statistics.median(rss) / 1024.0
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(imports) + statistics.median(builds),
        "op_ms_p50": statistics.median(lat) * 1e3,
        "op_ms_tail": tail * 1e3,
        "ops_per_s": len(lat) / loop_wall,
        "peak_rss_mb": peak_mb,
    }
    details = {
        "samples": n,
        "tail_percentile": pct,
        "setup_import_s": statistics.median(imports),
        "setup_import_samples": len(imports),
        "setup_build_s": statistics.median(builds),
        "setup_build_samples": len(builds),
        "op_ms": [x * 1e3 for x in lat],
        "peak_rss_mb_max": (max(rss) / 1024.0) if rss else peak_mb,
        "wall_s": {
            part: statistics.median(r.parts[part] for r in results) for part in results[0].parts
        },
    }
    details["rep_evals_per_s"] = {
        part: evals / details["wall_s"][part] for part, evals in rep_evals.items()
    }
    return values, details


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        src = workloads.program_root(root)
    except FileNotFoundError as exc:
        print(f"error: {exc}; run from the root of a gatekeep source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    size = "smoke" if args.smoke else "full"
    out_dir = root / ".bench_build" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    workload = workloads.WORKLOADS[args.workload](root, args.seed, args.smoke)
    try:
        builds = workload.setup(*SETUP_REPEATS[size])
        imports = [workloads.time_import("gatekeep", workload.env, workload.workdir)
                   for _ in range(IMPORT_REPEATS[size])]
        warm = [workload.run_op(0, NullTracer())]
        first = len(warm)
        if args.trace == 0:
            results, loop_wall = timed_loop(workload, NullTracer(), seconds=args.seconds, first=first)
            timed = results
        else:
            base, loop_wall = timed_loop(workload, NullTracer(), seconds=args.seconds / 4, first=first)
            tracer = Tracer()
            traced, traced_wall = timed_loop(workload, tracer, count=len(base), first=first)
            results, timed = base + traced, base
        run_problems = workload.finish()
        checks = workload.check_counts()
    finally:
        workload.close()

    everything = warm + results
    problems = [r.problem for r in everything if r.problem] + run_problems
    failed = len(everything) if run_problems else sum(1 for r in everything if not r.ok)
    attempted = len(everything)
    values, details = end_to_end(timed, loop_wall, builds, imports, workload.rep_evals())
    units = END_TO_END
    if args.trace == 1:
        probe = layers.Probe(root, args.seed, args.smoke, tracer)
        try:
            values = probe.run()
        except Exception as exc:  # noqa: BLE001 - reported as a failed probe, with its traceback
            traceback.print_exc()
            values = {}
            probe.problems.append(f"probe raised {exc!r}")
        values["trace.overhead_ratio"] = traced_wall / loop_wall
        problems += probe.problems
        attempted += 1
        failed += bool(probe.problems)
        units = layers.METRICS
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
        details["spans"] = tracer.summary()

    missing = [m for m in units if values.get(m) is None]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    metrics = {m: {"value": values[m], "unit": u} for m, u in units.items() if m not in missing}
    correct = not problems
    record = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": metrics,
        "details": details,
        "check_counts": checks,
        "problems": problems[:20],
        "provenance": provenance(root, args),
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True))

    report(args, record)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def report(args, record) -> None:
    d = record["details"]
    print(f"gatekeep benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "git_commit", "source_sha256"):
        print(f"  {key}: {record['provenance'][key]}")
    for name, m in record["metrics"].items():
        note = ""
        if name == "op_ms_tail":
            note = f"  (p{d['tail_percentile']:.2f} of n={d['samples']})"
        elif name in ("op_ms_p50", "ops_per_s", "peak_rss_mb"):
            note = f"  (n={d['samples']})"
        elif name == "setup_s":
            note = (f"  (import: median of n={d['setup_import_samples']}, "
                    f"inputs: median of n={d['setup_build_samples']})")
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}{note}")
    if args.trace == 0:
        for part, s in d["wall_s"].items():
            print(f"  {f'wall_s[{part}]':<48} {s:>14.6g} s  (median, n={d['samples']})")
        for part, rate in d["rep_evals_per_s"].items():
            print(f"  {f'rep_evals_per_s[{part}]':<48} {rate:>14.6g} 1/s  (n={d['samples']})")
    else:
        spans = sorted(d["spans"].items(), key=lambda kv: -kv[1]["self_s"])[:20]
        print("  spans by self time (name, count, self s, total s):")
        for name, s in spans:
            print(f"    {name:<44} {s['count']:>7} {s['self_s']:>10.4f} {s['total_s']:>10.4f}")
    print(f"  fail_ratio: {record['fail_ratio']:.6g} ({record['failed']}/{record['attempted']})")
    for key, value in record["check_counts"].items():
        print(f"  {key}: {value}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")


if __name__ == "__main__":
    sys.exit(main())
