"""End-to-end and per-layer benchmark of the batch, engine and serving paths.

One measured run (what BENCHMARK.json's ``command`` starts)::

    python3 benchmarks/e2e/run.py --workload pr_dense --seed 3 --seconds 8 --trace 0

prints every end-to-end metric (``--trace 1``: every per-layer metric) by
name with its unit, then one JSON object as the last line.  Without
``--workload`` the same program is a small driver: it runs every workload
that way in child processes and prints the tables::

    python3 benchmarks/e2e/run.py [--seed N] [--runs N] [--smoke] [--out DIR]
    python3 benchmarks/e2e/run.py --compare A/results.json B/results.json

Metric names, units, directions and bounds live in BENCHMARK.json only.
README.md explains the workloads, the metrics and the estimator.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

from measure import (CALIB_REF_S, child_env, clock, median, quartiles,
                     spread)  # sibling module

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
#: Temporary files, the daemon's socket and (by default) the traces: inside
#: the checkout, outside the benchmark's own directory, git-ignored.
WORK = REPO / ".bench_e2e"


def load_spec() -> dict:
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- one measured run ----------------------------------------------------------------


def _reexec_clean() -> None:
    """Run this process, too, in the children's clean environment: engine
    repetitions run here, and neither a ``REPRO_*`` knob nor set order may
    depend on who started the benchmark."""
    env = child_env()
    if dict(os.environ) != env:
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _measure(workload, seconds: float, errors: list):
    """Repetitions of the workload's steps until ``seconds`` have gone by;
    a repetition that could not finish in time is not started."""
    samples = {step: [] for step in workload.steps}
    attempted = failed = 0
    deadline = clock() + seconds
    longest = 0.0
    while attempted == 0 or clock() + longest <= deadline:
        started = clock()
        for step in workload.steps:
            attempted += 1
            try:
                result, sample = workload.run_step(step)
                ok = workload.check(step, result)
            except Exception:
                errors.append(f"{workload.name}/{step} raised:\n"
                              f"{traceback.format_exc()}")
                ok = False
            if ok:
                samples[step].append(sample)
            else:
                failed += 1
        longest = max(longest, clock() - started)
        if failed >= 3:
            break
    return samples, attempted, failed


def run_one(args) -> int:
    _reexec_clean()
    from workloads import WORKLOADS, Context  # imports the program

    spec = load_spec()
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK)
    ctx = Context(args.seed, args.smoke, tmp, repin=args.repin)
    sampler = ctx.sampler
    values: dict = {}
    notes: dict = {}
    try:
        workload.prepare(ctx)
        setups = []
        for _ in range(1 if args.smoke else 3):
            workload.close()  # untimed: what the previous set-up started
            setups.append(sampler.time(workload.setup)[1])
        if args.trace:
            values, attempted, failed = workload.trace(args.seconds)
            probes = sorted(1e3 * p for p in sampler.probes)
            values.update({
                "host.cores": os.cpu_count() or 1,
                "host.calib_ms_min": probes[0],
                "host.calib_ms_median": median(probes),
                "host.calib_ms_max": probes[-1],
                # 9th decile over fastest: single spikes do not count.
                "host.noise_ratio": probes[len(probes) * 9 // 10] / probes[0],
            })
        else:
            samples, attempted, failed = _measure(workload, args.seconds,
                                                  ctx.errors)
            if all(samples.values()):
                rep_s = sum(median(s.norm for s in v) for v in samples.values())
                op_s = rep_s / workload.ops_per_rep
                raw = [sum(parts) / workload.ops_per_rep for parts in
                       zip(*([s.raw for s in v] for v in samples.values()))]
                q1, q2, q3 = quartiles(raw)
                notes["op_wall_ms"] = (
                    f"as measured: median {1e3 * q2:.4g}, q1 {1e3 * q1:.4g}, "
                    f"q3 {1e3 * q3:.4g}, n {len(raw)}")
                values["op_wall_ms"] = 1e3 * op_s
                values["work_per_s"] = workload.work_units() / op_s
            else:
                failed = max(failed, 1)
        checked, mismatched = workload.verify()
        attempted += checked
        failed += mismatched
    finally:
        workload.close()
        shutil.rmtree(tmp, ignore_errors=True)
    ctx.pins.save()

    if not args.trace:
        values["setup_s"] = median(s.norm for s in setups)
        values["peak_rss_mb"] = workload.peak_rss_mb()
        notes["setup_s"] = (f"as measured: median "
                            f"{median(s.raw for s in setups):.4g}, "
                            f"n {len(setups)}")
    else:
        out_dir = Path(args.out) if args.out else WORK / "out"
        ctx.recorder.write(str(out_dir / f"trace-{workload.name}.jsonl"))

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    unknown = set(values) - {m["name"] for m in wanted}
    if unknown:
        ctx.errors.append(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    correct = failed == 0 and not ctx.errors and (
        bool(args.trace) or {m["name"] for m in wanted} <= set(values))

    probes = sampler.probes
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}{'  smoke' if args.smoke else ''}")
    print(f"host: {os.cpu_count()} cores, python {platform.python_version()}, "
          f"{platform.platform()}; calibration probe "
          f"min/median/max {1e3 * min(probes):.2f}/{1e3 * median(probes):.2f}/"
          f"{1e3 * max(probes):.2f} ms over {len(probes)} probes "
          f"(reference {1e3 * CALIB_REF_S:.2f} ms)")
    metrics = {}
    for m in wanted:
        value = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = f"   ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"  {m['name']:34s} {value:14.6g} {m['unit']}{note}")
    for error in ctx.errors:
        print(f"FAILED: {error}")
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# -- the small driver: every workload, tables, comparison ---------------------------


def run_suite(args) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else (
        0.5 if args.smoke else spec["run_seconds"])
    out_dir = Path(args.out) if args.out else WORK / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    results = {
        "host": {"cores": os.cpu_count(), "python": platform.python_version(),
                 "platform": platform.platform()},
        "seed": args.seed, "runs": args.runs, "seconds": seconds,
        "smoke": args.smoke,
        "end_to_end": {n: {} for n in names},
        "per_layer": {n: {} for n in names},
        "failed": [],
    }
    for run in range(args.runs):
        # Rotate the start so that a slow spell of the host is spread over
        # the workloads instead of always hitting the same one.
        order = names[run % len(names):] + names[:run % len(names)]
        for name in order:
            for trace in ((0, 1) if run == 0 else (0,)):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(args.seed + run), "--seconds", str(seconds),
                       "--trace", str(trace), "--out", str(out_dir)]
                if args.smoke:
                    cmd.append("--smoke")
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      env=child_env())
                log = out_dir / f"log-{name}-seed{args.seed + run}-trace{trace}.txt"
                log.write_text(proc.stdout + proc.stderr, encoding="utf-8")
                lines = proc.stdout.strip().splitlines()
                try:
                    report = json.loads(lines[-1])
                except (IndexError, ValueError):
                    report = {"correct": False, "metrics": {}}
                if proc.returncode != 0 or not report["correct"]:
                    results["failed"].append(f"{name} seed {args.seed + run} "
                                             f"trace {trace}")
                    print(proc.stdout, proc.stderr, sep="\n", file=sys.stderr)
                print(f"[run {run + 1}/{args.runs}] {name} trace {trace}: "
                      f"{'ok' if report['correct'] else 'FAILED'}", flush=True)
                for metric, cell in report["metrics"].items():
                    if trace:
                        results["per_layer"][name][metric] = cell["value"]
                    else:
                        results["end_to_end"][name].setdefault(
                            metric, []).append(cell["value"])
    with open(out_dir / "results.json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    _print_tables(spec, results)
    print(f"\nresults: {out_dir / 'results.json'}; per-run output: "
          f"{out_dir}/log-*.txt; spans: {out_dir}/trace-<workload>.jsonl")
    if results["failed"]:
        print("FAILED runs: " + "; ".join(results["failed"]))
        return 1
    return 0


def _print_tables(spec: dict, results: dict) -> None:
    host = results["host"]
    print(f"\nhost: {host['cores']} cores, python {host['python']}, "
          f"{host['platform']}; seed {results['seed']}, {results['runs']} "
          f"run(s) of {results['seconds']} s per workload"
          f"{' (smoke)' if results['smoke'] else ''}")
    print("\nend-to-end (median over runs; spread = (q3 - q1) / median)")
    print(f"  {'workload':16s} {'metric':14s} {'value':>14s} {'unit':6s} "
          f"{'spread':>7s} {'bound':>6s} {'n':>3s}")
    for name, metrics in results["end_to_end"].items():
        for m in spec["end_to_end"]:
            vals = metrics.get(m["name"], [])
            print(f"  {name:16s} {m['name']:14s} {median(vals):14.6g} "
                  f"{m['unit']:6s} {spread(vals):7.3f} {m['bound']:6.2f} "
                  f"{len(vals):3d}")
    names = list(results["per_layer"])
    print("\nper layer (traced run; 0 = the layer does not take part)")
    print(f"  {'metric':34s} {'unit':6s} " + " ".join(f"{n:>14s}" for n in names))
    for m in spec["per_layer"]:
        cells = " ".join(
            f"{results['per_layer'][n].get(m['name'], 0.0):14.6g}" for n in names)
        print(f"  {m['name']:34s} {m['unit']:6s} {cells}")


def compare(path_a: str, path_b: str) -> int:
    """One row per workload x end-to-end metric: both medians, the ratio
    with its base, the bound, and ok / worse / unresolved (a set's own
    q1-q3 spread exceeds the bound).  Non-zero exit on ``worse``."""
    spec = load_spec()
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    worse = 0
    print(f"A = {path_a}\nB = {path_b}")
    print(f"  {'workload':16s} {'metric':14s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'bound':>6s}  verdict")
    for name in a["end_to_end"]:
        for m in spec["end_to_end"]:
            va = a["end_to_end"][name].get(m["name"], [])
            vb = b["end_to_end"].get(name, {}).get(m["name"], [])
            if not va or not vb:
                continue
            ma, mb = median(va), median(vb)
            ratio = mb / ma
            change = ratio - 1.0 if m["better"] == "lower" else 1.0 - ratio
            if max(spread(va), spread(vb)) > m["bound"]:
                verdict = "unresolved"
            elif change > m["bound"]:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(f"  {name:16s} {m['name']:14s} {ma:12.5g} {mb:12.5g} "
                  f"{ratio:7.3f} {m['bound']:6.2f}  {verdict} "
                  f"(base A = {ma:.5g} {m['unit']}, {m['better']} is better)")
    if a["seed"] != b["seed"] or a["smoke"] != b["smoke"]:
        print("per-layer counts: not compared (the sets' seeds or sizes differ)")
    else:
        differ = [
            f"{name}/{metric}"
            for name, layer in a["per_layer"].items()
            for metric, value in layer.items()
            if _is_count(spec, metric)
            and b["per_layer"].get(name, {}).get(metric) != value
        ]
        print("per-layer counts: " + (
            "identical" if not differ else "DIFFER: " + ", ".join(differ)))
    return 1 if worse else 0


def _is_count(spec: dict, metric: str) -> bool:
    unit = next(m["unit"] for m in spec["per_layer"] if m["name"] == metric)
    return unit in ("count", "B") and not metric.startswith("host.")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload and print "
                        "the result object (BENCHMARK.json's command)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "BENCHMARK.json's run_seconds; 0.5 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="scaled-down graphs, one set-up, 0.5 s per run")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, each with the next seed")
    parser.add_argument("--out", default=None,
                        help="directory for results.json and traces")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--repin", action="store_true",
                        help="with --workload and the default seed: rewrite "
                             "this workload's digests in expected.json")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        if args.seconds is None:
            args.seconds = 0.5 if args.smoke else float(load_spec()["run_seconds"])
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
