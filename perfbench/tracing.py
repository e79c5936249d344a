"""Span tracing around calls into the program's layers.

Every wrapper lives in the benchmark process only: it replaces a module
attribute or an object attribute for the length of one traced pass and puts
the original back afterwards.  No file of the program changes.

A span's self time is its duration minus the time its child spans cover;
self times of all spans under one root therefore add up to the root's
duration.  Tape nodes are attributed the same way, by reading the length of
the open tape when a span starts and ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

# op kinds reported one by one; everything else counts as "other"
OP_KINDS = ("matmul", "add", "narrow", "sigmoid", "tanh", "mul", "mul_scalar",
            "concat", "take_rows", "softmax_rows", "transpose", "leaky_relu")
# public forward ops of trajgan.tensor that the op pass times
TENSOR_OPS = ("add", "sub", "mul", "neg", "add_scalar", "mul_scalar", "matmul",
              "transpose", "concat", "narrow", "take_rows", "blockwise_max", "tsum",
              "tmean", "relu", "leaky_relu", "tanh", "sigmoid", "exp", "log", "sqrt",
              "powf", "clamp_min", "activation", "softmax_rows")


def op_kind(node):
    """Op kind of a tape node, read from its backward closure's qualname."""
    kind = node.bwd.__qualname__.split(".", 1)[0]
    return kind if kind in OP_KINDS else "other"


class Tracer:
    """Aggregates span self times, call counts and tape-node counts."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.self_nodes = defaultdict(int)
        self.calls = Counter()
        self.counts = Counter()
        self.node_kinds = Counter()
        self.closed_nodes = 0
        self.open_tape = None
        self.gc_s = 0.0
        self._gc_start = 0.0
        self._stack = []

    def on_gc(self, phase, info):
        """``gc.callbacks`` hook: time spent in the cyclic garbage collector."""
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start

    def nodes_now(self):
        open_nodes = len(self.open_tape.nodes) if self.open_tape is not None else 0
        return self.closed_nodes + open_nodes

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # frame: [start, child seconds, nodes at start, child nodes]
            frame = [clock(), 0.0, self.nodes_now(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                nodes = self.nodes_now() - frame[2]
                stack.pop()
                dur = end - frame[0]
                self.self_s[name] += dur - frame[1]
                self.self_nodes[name] += nodes - frame[3]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                    stack[-1][3] += nodes

        return traced

    def counting_tape(self, tape_cls):
        """A ``Tape`` subclass that reports its nodes to this tracer."""
        tracer = self

        class CountingTape(tape_cls):
            def __enter__(self):
                tracer.open_tape = self
                return super().__enter__()

            def __exit__(self, *exc):
                tracer.closed_nodes += len(self.nodes)
                tracer.node_kinds.update(op_kind(n) for n in self.nodes)
                tracer.open_tape = None
                return super().__exit__(*exc)

        return CountingTape


class LayerProxy:
    """Stands in for a model part, tracing one method and forwarding the rest."""

    def __init__(self, target, method, traced):
        self._target = target
        self._method = method
        self._traced = traced

    def __call__(self, *args, **kwargs):
        return self._traced(*args, **kwargs)

    def __getattr__(self, attr):
        if attr == self._method:
            return self._traced
        return getattr(self._target, attr)


@contextlib.contextmanager
def patched(patches):
    """Temporarily set module attributes: ``patches`` is (module, name, value)."""
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, value in patches:
            setattr(mod, name, value)
        yield
    finally:
        for mod, name, value in reversed(saved):
            setattr(mod, name, value)


def layer_patches(tracer, T, train, evaluate, data):
    """Module-level wrappers for the layer pass."""
    out = [(T, "backward", tracer.wrap("tensor.backward", T.backward)),
           (train, "Tape", tracer.counting_tape(T.Tape)),
           (train, "generator_forward",
            tracer.wrap("model.forward", train.generator_forward)),
           (evaluate, "generator_forward",
            tracer.wrap("evaluate.forward", evaluate.generator_forward))]
    for name in ("variety_norms", "d_loss", "g_adv_loss"):
        out.append((train, name, tracer.wrap("train.loss", getattr(train, name))))
    for name in ("grad_norm", "clip_grad_norm"):
        out.append((train, name, tracer.wrap("optim.gradnorm", getattr(train, name))))
    for name, span in (("parse_annotations", "data.parse"), ("build_tracks", "data.tracks"),
                       ("subsample", "data.subsample"), ("build_windows", "data.windows"),
                       ("load_annotation_dataset", "data.load"),
                       ("write_windows_csv", "data.csv_write"),
                       ("read_windows_csv", "data.csv_read")):
        out.append((data, name, tracer.wrap(span, getattr(data, name))))
    return out


def op_patches(tracer, T, train):
    """Module-level wrappers for the op pass: every public forward op."""
    out = [(train, "Tape", tracer.counting_tape(T.Tape))]
    for name in TENSOR_OPS:
        kind = name if name in OP_KINDS else "other"
        out.append((T, name, tracer.wrap(f"op.{kind}", getattr(T, name))))
    return out
