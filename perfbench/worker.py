"""Run one benchmark workload in this process and print its result.

``run.py`` starts this script in a fresh process with BLAS/OpenMP threads
pinned to one and the checkout's ``src/`` on ``PYTHONPATH``; run it through
``run.py`` rather than directly.

With ``--trace 0`` it measures the end-to-end metrics, untraced.  With
``--trace 1`` it runs the same operations three times from the same seed,
one op of each in turn: untraced, with layer spans, and with a span around
every tensor op; it checks that all three give bitwise-equal outputs and
reports the per-layer metrics.  The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import types

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARD_LIMIT_S = 140.0    # a run must exit within 180 s, build included
# the layer pass's self times must add up to the untraced op time within this
FIDELITY_TOLERANCE = 0.10

clock = time.perf_counter

# Times are scaled to a reference speed.  On small shared machines the
# speed of a core drifts by up to a factor of two in phases of tens of
# seconds, which no statistic of one run averages out.  A fixed loop of
# small numpy ops and Python arithmetic, timed right after each operation,
# slows down by the same factor, so wall time * REF_S / (that loop's time)
# repeats from run to run.  The loop is short next to an operation, so each
# operation is scaled by the mean loop time of the SMOOTH operations around
# it.  REF_S is the loop's typical time on the machine that gave the first
# numbers, so scaled times read close to wall times there.
REF_S = 1.3e-3
SMOOTH = 9
_REF_A = np.ones((16, 64))
_REF_B = np.full((64, 64), 0.01)


def reference_s(reps=1):
    """Mean wall time of the reference loop over ``reps`` runs; it allocates
    nothing the cyclic garbage collector tracks."""
    t0 = clock()
    acc = 0.0
    for _ in range(120 * reps):
        y = np.tanh(_REF_A @ _REF_B) + 1.0
        acc += float(y[0, 0]) + int("12345") + float("2.5")
    return (clock() - t0) / reps


def scaled(walls, refs):
    """Wall times scaled to the reference speed, each by the mean reference
    time of the SMOOTH operations centred on it."""
    half = SMOOTH // 2
    out = []
    for i, wall in enumerate(walls):
        near = refs[max(0, i - half):i + half + 1]
        out.append(wall * REF_S * len(near) / sum(near))
    return out


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import the program from this checkout's ``src/``, nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "trajgan", "tensor.py")):
        raise ProgramMissing(f"no trajgan sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import trajgan.config
    import trajgan.data
    import trajgan.evaluate
    import trajgan.model
    import trajgan.optim
    import trajgan.tensor
    import trajgan.train
    if os.path.commonpath([os.path.abspath(trajgan.tensor.__file__), src]) != src:
        raise ProgramMissing(f"trajgan was imported from {trajgan.tensor.__file__}")
    t = trajgan
    return types.SimpleNamespace(config=t.config, data=t.data, evaluate=t.evaluate,
                                 model=t.model, optim=t.optim, tensor=t.tensor,
                                 train=t.train)


def environment():
    from run import PINNED

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    threads = {k: os.environ.get(k) for k in PINNED + ("PYTHONHASHSEED",)}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "blas": blas, "threads": threads}


def tail(times, pct):
    """(value, percentile, samples beyond it) for the ``pct`` percentile, or
    for the highest one with 10 samples beyond it when there are too few."""
    n = len(times)
    pct = min(pct, max(0, math.floor(100 * (n - 10) / n)))
    rank = max(1, math.ceil(pct * n / 100))
    return sorted(times)[rank - 1], pct, n - rank


def run_one(wl, st, i, op, on_out):
    """Issue op i, time it and check its output.

    Returns its wall time, the items it completed (0 when it failed) and
    failure notes.
    """
    from workloads import CheckFailed

    notes = []
    out, n = None, 0
    t0 = clock()
    try:
        out = op(st, i)
    except Exception:  # a failed op is counted, and the loop goes on
        notes.append(f"op {i} raised:\n{traceback.format_exc()}")
    wall = clock() - t0
    if out is not None:
        try:
            n = wl.check_op(st, i, out)
            on_out(i, out)
        except CheckFailed as exc:
            notes.append(str(exc))
    return wall, n, notes


def run_ops(wl, st, n_ops, seconds, op, on_out, between):
    """Closed loop: issue op i only after op i-1 returned.

    Runs at least ``n_ops`` operations, then keeps going until ``seconds``
    have passed and ``wl.min_timed_ops`` operations past warm-up were timed.
    ``between(elapsed)`` runs before each op, outside its timing.  Returns
    per-op wall times, the reference loop's time after each op, items
    completed per op (0 when the op failed) and failure notes.
    """
    walls, refs, items, notes = [], [], [], []
    start = clock()
    i = 0
    while True:
        elapsed = clock() - start
        if i >= n_ops and elapsed >= seconds and i - wl.warmup >= wl.min_timed_ops:
            break
        if elapsed > HARD_LIMIT_S:
            notes.append(f"stopped after {i} ops at the {HARD_LIMIT_S:.0f} s limit")
            break
        between(elapsed)
        wall, n, op_notes = run_one(wl, st, i, op, on_out)
        walls.append(wall)
        refs.append(reference_s())
        items.append(n)
        notes += op_notes
        i += 1
    return walls, refs, items, notes


def measure(wl, seed, seconds, workdir):
    """End-to-end metrics, tracing off."""
    setup_s = []

    def set_up():
        d = os.path.join(workdir, f"setup{len(setup_s)}")
        os.makedirs(d)
        t0 = clock()
        state = wl.setup(seed, d)
        wall = clock() - t0
        setup_s.append((wall, wall * REF_S / reference_s(reps=5)))
        return state, d

    def spare_setup(elapsed):
        # set-up repeats are spread over the run: this machine's speed
        # drifts in phases of tens of seconds, and a burst of set-ups at
        # the start would time only one phase
        if len(setup_s) < wl.setup_reps and elapsed >= len(setup_s) * seconds / wl.setup_reps:
            shutil.rmtree(set_up()[1])

    st, _ = set_up()
    kept = []

    def keep(i, out):
        if i < wl.fixed_ops:
            kept.append(out)

    walls, refs, items, notes = run_ops(wl, st, max(wl.fixed_ops, wl.warmup), seconds,
                                        wl.run_op, keep, spare_setup)
    while len(setup_s) < wl.setup_reps:
        spare_setup(float("inf"))
    error_px, run_notes = wl.fingerprint(st, kept)
    notes += run_notes
    raw, done = walls[wl.warmup:], items[wl.warmup:]
    timed = scaled(walls, refs)[wl.warmup:]
    tail_s, pct, beyond = tail(timed, wl.tail_pct)
    metrics = {
        "throughput_per_s": (sum(done) / sum(timed), "1/s"),
        "op_ms_p50": (statistics.median(timed) * 1e3, "ms"),
        "op_ms_tail": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(k for _, k in setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "output_error_px": (error_px, "px"),
        "output_error_floor_px": (error_px, "px"),
    }
    failed = sum(1 for n in items if n == 0) + (1 if run_notes else 0)
    info = {"items": wl.unit, "ops": len(walls), "timed_ops": len(timed),
            "tail_percentile": pct, "tail_samples_beyond": beyond,
            "setup_runs": len(setup_s),
            "ref_ms_p50": statistics.median(refs) * 1e3,
            "wall_throughput_per_s": sum(done) / sum(raw),
            "wall_op_ms_p50": statistics.median(raw) * 1e3,
            "wall_op_ms_tail": tail(raw, wl.tail_pct)[0] * 1e3,
            "wall_setup_s": statistics.median(w for w, _ in setup_s)}
    return metrics, len(items) + 1, failed, notes, info


def traced(wl, seed, workdir):
    """Per-layer metrics from two traced passes checked against an untraced one.

    The three passes have their own state from the same seed and run one op
    each in turn, in an order that rotates from op to op, so a change in the
    machine's speed hits all three alike.  Each op starts after a full
    garbage collection, so that no op pays for the garbage of another pass.
    """
    import tracing

    tg = wl.tg
    n = wl.trace_ops
    passes = {}
    for mode in ("untraced", "layers", "ops"):
        d = os.path.join(workdir, mode)
        os.makedirs(d)
        st = wl.setup(seed, d)
        tracer = tracing.Tracer()
        op, patches = wl.run_op, []
        if mode == "layers":
            wl.install(tracer, st)
            patches = tracing.layer_patches(tracer, tg.tensor, tg.train, tg.evaluate,
                                            tg.data)
        elif mode == "ops":
            patches = tracing.op_patches(tracer, tg.tensor, tg.train)
        if mode != "untraced":
            op = tracer.wrap(wl.root_span, wl.run_op)
        passes[mode] = types.SimpleNamespace(
            tracer=tracer, st=st, op=op, patches=patches,
            hooks=[tracer.on_gc] if mode == "layers" else [],
            walls=[], items=[], sigs={}, notes=[])
    order = list(passes.items())
    for i in range(n):
        for mode, p in order[i % 3:] + order[:i % 3]:
            gc.collect()
            gc.callbacks.extend(p.hooks)
            try:
                with tracing.patched(p.patches):
                    wall, k, op_notes = run_one(
                        wl, p.st, i, p.op, lambda i, out: p.sigs.__setitem__(
                            i, wl.signature(out)))
            finally:
                for hook in p.hooks:
                    gc.callbacks.remove(hook)
            p.walls.append(wall)
            p.items.append(k)
            p.notes += [f"{mode}: {x}" for x in op_notes]

    base, lay, ops = passes["untraced"], passes["layers"], passes["ops"]
    notes = [x for p in passes.values() for x in p.notes]
    attempted = sum(len(p.items) for p in passes.values())
    failed = sum(1 for p in passes.values() for k in p.items if k == 0)

    tr = lay.tracer
    ms = lambda span: (tr.self_s.get(span, 0.0) * 1e3 / n, "ms")  # noqa: E731
    nodes = lambda span: (tr.self_nodes.get(span, 0) / n, "count")  # noqa: E731
    per_op = lambda value: (value / n, "count")  # noqa: E731
    m = {"tensor.nodes": per_op(tr.closed_nodes)}
    for kind in tracing.OP_KINDS + ("other",):
        m[f"tensor.nodes.{kind}"] = per_op(tr.node_kinds.get(kind, 0))
    m["tensor.bwd_ms"] = ms("tensor.backward")
    for kind in tracing.OP_KINDS + ("other",):
        m[f"tensor.fwd_ms.{kind}"] = (ops.tracer.self_s.get(f"op.{kind}", 0.0) * 1e3 / n,
                                      "ms")
    for part in ("encoder", "pooling", "decoder", "disc"):
        m[f"model.{part}_ms"] = ms(f"model.{part}")
        m[f"model.{part}_nodes"] = nodes(f"model.{part}")
    m["model.pooling_pairs"] = per_op(tr.counts.get("model.pooling_pairs", 0))
    m["model.forward_self_ms"] = ms("model.forward")
    m["model.forward_calls"] = per_op(tr.calls.get("model.forward", 0)
                                      + tr.calls.get("evaluate.forward", 0))
    loads = [p.st["ckpt_load_s"] for p in passes.values() if "ckpt_load_s" in p.st]
    m["model.ckpt_load_ms"] = (statistics.median(loads) * 1e3 if loads else 0.0, "ms")
    m["train.loss_ms"] = ms("train.loss")
    m["train.step_self_ms"] = ms("train.step")
    m["train.failed_steps"] = (
        sum(sum(1 for k in p.items if k == 0) for p in passes.values())
        if wl.root_span == "train.step" else 0, "count")
    m["optim.adam_ms"] = ms("optim.adam")
    m["optim.gradnorm_ms"] = ms("optim.gradnorm")
    params = [p for opt in wl.optimizers(lay.st) for p in opt.params]
    m["optim.param_tensors"] = (len(params), "count")
    m["optim.param_elems"] = (sum(p.data.size for p in params), "count")
    m["evaluate.forward_ms"] = ms("evaluate.forward")
    m["evaluate.select_ms"] = ms("evaluate")
    for part in ("parse", "tracks", "subsample", "windows", "csv_write", "csv_read"):
        m[f"data.{part}_ms"] = ms(f"data.{part}")
    m["data.load_self_ms"] = ms("data.load")
    m["data.lines"] = per_op(lay.st.get("lines_done", 0))
    m["data.windows"] = per_op(lay.st.get("windows_done", 0))
    m["runtime.gc_ms"] = (tr.gc_s * 1e3 / n, "ms")
    # The reported self times of the layer pass, added up, against the time
    # the same ops take untraced.  Spans left out of the metrics, or tracing
    # that inflates the ops, move it away from 1.
    layer_ms = [k for k, (_, unit) in m.items() if unit == "ms" and not k.startswith(
        ("tensor.fwd_ms.", "model.ckpt_load", "runtime."))]
    self_sum = sum(m[k][0] for k in layer_ms) * n / 1e3
    m["trace.self_sum_frac"] = (self_sum / sum(base.walls), "ratio")
    m["trace.overhead_frac"] = (statistics.median(lay.walls) / statistics.median(base.walls)
                                - 1.0, "ratio")
    m["trace.op_overhead_frac"] = (statistics.median(ops.walls)
                                   / statistics.median(base.walls) - 1.0, "ratio")

    checks = {
        "layer pass outputs differ from the untraced pass": lay.sigs != base.sigs,
        "op pass outputs differ from the untraced pass": ops.sigs != base.sigs,
        "tape node counts differ between traced passes":
            (lay.tracer.closed_nodes, lay.tracer.node_kinds)
            != (ops.tracer.closed_nodes, ops.tracer.node_kinds),
        f"layer self times add up to {m['trace.self_sum_frac'][0]:.3f} of the untraced "
        f"op time, not within {FIDELITY_TOLERANCE} of 1":
            abs(m["trace.self_sum_frac"][0] - 1.0) > FIDELITY_TOLERANCE,
    }
    for note, bad in checks.items():
        attempted += 1
        if bad:
            failed += 1
            notes.append(note)
    info = {"ops_per_pass": n, "untraced_ms_p50": statistics.median(base.walls) * 1e3,
            "layer_traced_ms_p50": statistics.median(lay.walls) * 1e3,
            "op_traced_ms_p50": statistics.median(ops.walls) * 1e3}
    return m, attempted, failed, notes, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    try:
        tg = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import workloads

    table = workloads.build(tg)
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(table)}", file=sys.stderr)
        return 2
    wl = table[args.workload]
    workdir = os.path.join(ROOT, ".perfbench_work", f"{wl.name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            metrics, attempted, failed, notes, info = traced(wl, args.seed, workdir)
        else:
            metrics, attempted, failed, notes, info = measure(wl, args.seed, args.seconds,
                                                              workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    for note in notes:
        print(f"perfbench: {note}", file=sys.stderr)
    print(f"# {wl.name} seed={args.seed} trace={args.trace} "
          f"{json.dumps(info, sort_keys=True)}")
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        alias = wl.aliases.get(name, "")
        print(f"# {name:<28}{value:>16.6g} {unit:<6}{alias}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
