"""Benchmark launcher: runs each workload in a fresh single process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` (the default) runs every workload in turn, and
``--trace both`` runs each untraced and then traced.  ``--seconds`` defaults
to ``run_seconds`` of ``BENCHMARK.json``.  The launcher pins BLAS/OpenMP
threads to one through the worker's environment, puts this checkout's
``src/`` on its ``PYTHONPATH``, relays its output and exits with its code.
The last line of standard output is the JSON result; when several workers
ran, it joins theirs, each metric named ``<workload>/<metric>`` (``/t1``
added for a traced run).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train_gan_lstm", "train_nogan_transformer_crowded",
             "eval_crowded_k20", "parse_annotations")
TIMEOUT_S = 170
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env():
    env = dict(os.environ)
    env.update(dict.fromkeys(PINNED, "1"))
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in (env.get("PYTHONPATH"),) if p])
    return env


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: {workload} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3, None
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode, None
    return 0, json.loads(out.strip().splitlines()[-1])


def run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", default="0", choices=("0", "1", "both"))
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "trajgan", "tensor.py")):
        print(f"perfbench: no trajgan sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    seconds = args.seconds or run_seconds()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    results = {}
    for name in names:
        for trace in traces:
            code, results[name + "/t1" * trace] = run_one(name, args.seed, seconds, trace)
            if code != 0:
                return code
    if len(results) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{run}/{k}": v for run, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
