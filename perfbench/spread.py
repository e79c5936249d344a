"""Measure the benchmark's spread and write ``perfbench/results/first_numbers.json``.

    python3 perfbench/spread.py [--workload NAME ...] [--out FILE]

For every workload (all of them by default) it makes two sets of untraced
runs on seeds 1-10, one run at a time, each through ``run.py``, so each
workload still runs in a fresh process.  For every end-to-end metric it
reports each set's median and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
how far the second median lies from the first, and whether every seed gave
the same value in both sets.  It then makes traced runs on seeds 1-3 and a
second traced run on seed 1, and reports each per-layer metric's median and
whether it repeats.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10
WALL = ("wall_throughput_per_s", "wall_op_ms_p50", "wall_op_ms_tail", "wall_setup_s",
        "ref_ms_p50")


def run(workload, seed, seconds, trace):
    """(result, env, info) of one run."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(x[len("# env "):]) for x in lines if x.startswith("# env "))
    info = next(json.loads(x[x.index("{"):]) for x in lines
                if x.startswith(f"# {workload} seed="))
    return json.loads(lines[-1]), env, info


def spread(values):
    """(median, quartile distance as a share of the median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def workload_report(workload, seconds, bound, log):
    seed_list = range(1, SEEDS + 1)
    sets = [[run(workload, s, seconds, 0) for s in seed_list] for _ in range(2)]
    traced = [run(workload, s, seconds, 1) for s in (1, 2, 3, 1)]
    every = [r for runs in sets + [traced] for r, _, _ in runs]
    report = {"all_runs_correct": all(r["correct"] for r in every),
              "attempted_ops": sum(r["attempted"] for r in every),
              "failed_ops": sum(r["failed"] for r in every),
              "end_to_end": {}, "per_layer": {}}
    for name, b in bound.items():
        values = [[r["metrics"][name]["value"] for r, _, _ in runs] for runs in sets]
        (m1, s1), (m2, s2) = spread(values[0]), spread(values[1])
        report["end_to_end"][name] = {
            "unit": sets[0][0][0]["metrics"][name]["unit"], "bound": b,
            "set1_median": m1, "set1_iqr_share": s1, "set2_median": m2, "set2_iqr_share": s2,
            "set2_vs_set1": m2 / m1 - 1.0,
            "same_value_per_seed_in_both_sets": values[0] == values[1]}
        log(f"  {name:<22} set1 {m1:.5g} ({s1:.3f})  set2 {m2:.5g} ({s2:.3f})  "
            f"bound {b}  same {values[0] == values[1]}")
    infos = [i for runs in sets for _, _, i in runs]
    report["wall_clock_medians_both_sets"] = {
        k: statistics.median(i[k] for i in infos) for k in WALL}
    report["tail"] = sorted({(i["tail_percentile"], i["tail_samples_beyond"]) for i in infos})
    for name, v in traced[0][0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r, _, _ in traced]
        report["per_layer"][name] = {
            "unit": v["unit"], "median_seeds_1_3": statistics.median(values[:3]),
            "identical_over_seeds": len(set(values[:3])) == 1,
            "seed1_repeat_identical": values[0] == values[3]}
    report["traced_info_seeds_1_3"] = [i for _, _, i in traced[:3]]
    varying = [k for k, v in report["per_layer"].items()
               if v["unit"] == "count" and not v["seed1_repeat_identical"]]
    log(f"  all correct {report['all_runs_correct']}, failed {report['failed_ops']}, "
        f"counters not repeating: {varying}")
    return report, sets[0][0][1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out", default=os.path.join(HERE, "results", "first_numbers.json"))
    args = ap.parse_args(argv)
    sys.path.insert(0, HERE)
    from run import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"about": f"two sets of {SEEDS} untraced runs (seeds 1-{SEEDS}) and "
                    "traced runs on seeds 1-3 plus a repeat of seed 1, one run at a time",
           "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workload or WORKLOADS:
        print(workload, flush=True)
        doc["workloads"][workload], doc["env"] = workload_report(
            workload, spec["run_seconds"], bound,
            lambda line: print(line, flush=True))
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
