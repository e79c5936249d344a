"""Reverse-mode automatic differentiation on float64 numpy arrays.

Gradients are computed by recording every differentiable operation on an
explicit tape (a Wengert list) and replaying it backwards.  The op set is
deliberately small: 2-D matmul, elementwise arithmetic with row/column
vector broadcasting, concat/slice/gather, row softmax, segment max,
reductions, multi-head attention over grouped sequences, an LSTM run over
whole sequences, the decoder's autoregressive LSTM rollout, and the handful
of nonlinearities the models need.  Each remaining model part is one node
too: an MLP or a single affine layer (``mlp``), a layer norm
(``layer_norm``) and the min-of-k trajectory norms of the variety loss
(``min_of_k_norms``).  There is no general
broadcasting and no dtype other than float64.  Importing this module tells
glibc to keep freed heap memory in the process (``_keep_freed_heap``).
"""

from __future__ import annotations

import ctypes
import functools
import math
import sys
import weakref

import numpy as np


class ShapeError(ValueError):
    """Operands have shapes the operation does not accept."""


class ContractError(RuntimeError):
    """An operation was called outside its contract (missing grad, non-scalar loss, ...)."""


# glibc's mallopt parameters, and the thresholds its own dynamic mmap
# threshold grows to on a 64-bit build
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 32 << 20


def _keep_freed_heap():
    """Keep the memory an operation frees in the process for the next one.

    A train step allocates and frees megabytes of tape arrays, and an LSTM
    call frees its step blocks.  glibc hands the top of its heap back to the
    kernel whenever more than M_TRIM_THRESHOLD (128 KiB at start) is free
    there, and the next step or call faults those pages in again: without
    this, a warm train_nogan_transformer_crowded, train_gan_lstm and
    eval_crowded_k20 benchmark operation takes 650, 450 and 235 minor faults
    and runs 22%, 13% and 2% slower (2-vCPU Linux box).  So this sets the
    mmap and trim thresholds to the most glibc's dynamic adjustment would
    raise them to.  Called once, at import; process-wide; a no-op off Linux
    or where the C library has no mallopt.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


_keep_freed_heap()


# ---------------------------------------------------------------------------
# Tape

class _Node:
    __slots__ = ("out", "inputs", "bwd")

    def __init__(self, out, inputs, bwd):
        self.out = out
        self.inputs = inputs
        self.bwd = bwd


class Tape:
    """Ordered record of operations, topologically sorted by construction.

    Use as a context manager; ops executed inside record themselves when any
    input requires grad.  Outside any tape (or inside ``no_grad``) ops run as
    plain numpy and produce constants.  Tensors refer to their tape weakly,
    so the tape and every intermediate it holds are freed by reference
    counting as soon as nothing else refers to the tape.
    """

    def __init__(self):
        self.nodes = []
        self.ref = weakref.ref(self)

    def __enter__(self):
        _tape_stack.append(self)
        return self

    def __exit__(self, *exc):
        popped = _tape_stack.pop()
        assert popped is self
        return False


class no_grad:
    """Context manager that disables tape recording."""

    def __enter__(self):
        _tape_stack.append(None)
        return self

    def __exit__(self, *exc):
        _tape_stack.pop()
        return False


_tape_stack = []


def _active_tape():
    return _tape_stack[-1] if _tape_stack else None


# ---------------------------------------------------------------------------
# Tensor

class Tensor:
    """A float64 array plus the bookkeeping needed for reverse-mode autodiff.

    ``data`` is the value (row-major ndarray).  ``node_id`` is the index of
    the tape entry that produced this tensor, None for a leaf: a tensor no
    op produced.  ``grad`` lives on requires_grad leaves only; it
    accumulates across backward calls until explicitly zeroed, and stays
    None on every op output.
    """

    __slots__ = ("data", "requires_grad", "grad", "tape_ref", "node_id", "__weakref__")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.tape_ref = None
        self.node_id = None

    @property
    def tape(self):
        """The tape that recorded this tensor, or None for leaves, constants
        and tensors whose tape has been released."""
        return None if self.tape_ref is None else self.tape_ref()

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def constant(data):
    return Tensor(data, requires_grad=False)


def _recording_tape(inputs):
    """The tape an op on ``inputs`` records itself on, or None."""
    tape = _active_tape()
    return tape if tape is not None and any(t.requires_grad for t in inputs) else None


def _make(data, inputs, bwd):
    """Wrap an op result, recording it on the active tape when grads flow.

    An op with several outputs passes a tuple of arrays and gets a tuple of
    tensors back.  They share one node, whose ``bwd`` takes a tuple with one
    gradient per output, None for an output no gradient reached.
    """
    many = type(data) is tuple
    outs = tuple(map(Tensor, data)) if many else (Tensor(data),)
    tape = _recording_tape(inputs)
    if tape is not None:
        for out in outs:
            out.requires_grad = True
            out.tape_ref = tape.ref
            out.node_id = len(tape.nodes)
        tape.nodes.append(_Node(outs if many else outs[0], tuple(inputs), bwd))
    return outs if many else outs[0]


# ---------------------------------------------------------------------------
# Broadcasting rules: same shape, scalar, or a 2-D operand against a
# (n,), (1,n) row or (m,1) column vector.  Anything else is rejected.

def _check_broadcast(sa, sb):
    if sa == sb:
        return
    if math.prod(sa) == 1 or math.prod(sb) == 1:
        return
    if len(sa) == 2 and sb in ((sa[1],), (1, sa[1]), (sa[0], 1)):
        return
    if len(sb) == 2 and sa in ((sb[1],), (1, sb[1]), (sb[0], 1)):
        return
    raise ShapeError(f"cannot broadcast shapes {sa} and {sb}")


def _reduce_to(grad, shape):
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] > 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a, b):
    _check_broadcast(a.shape, b.shape)
    data = a.data + b.data

    def bwd(g):
        return _reduce_to(g, a.shape), _reduce_to(g, b.shape)

    return _make(data, (a, b), bwd)


def sub(a, b):
    _check_broadcast(a.shape, b.shape)
    data = a.data - b.data

    def bwd(g):
        return _reduce_to(g, a.shape), _reduce_to(-g, b.shape)

    return _make(data, (a, b), bwd)


def mul(a, b):
    _check_broadcast(a.shape, b.shape)
    data = a.data * b.data

    def bwd(g):
        return _reduce_to(g * b.data, a.shape), _reduce_to(g * a.data, b.shape)

    return _make(data, (a, b), bwd)


def neg(a):
    return _make(-a.data, (a,), lambda g: (-g,))


def add_scalar(a, s):
    s = float(s)
    return _make(a.data + s, (a,), lambda g: (g,))


def mul_scalar(a, s):
    s = float(s)
    return _make(a.data * s, (a,), lambda g: (g * s,))


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul requires 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def bwd(g):
        return g @ b.data.T, a.data.T @ g

    return _make(data, (a, b), bwd)


def transpose(a):
    if a.data.ndim != 2:
        raise ShapeError(f"transpose requires a 2-D tensor, got {a.shape}")
    return _make(a.data.T.copy(), (a,), lambda g: (g.T,))


def concat(tensors, axis=0):
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of an empty sequence")
    nd = tensors[0].data.ndim
    if any(t.data.ndim != nd for t in tensors) or not 0 <= axis < nd:
        raise ShapeError(
            f"concat axis {axis} invalid for shapes {[t.shape for t in tensors]}")
    ref = list(tensors[0].shape)
    for t in tensors:
        s = list(t.shape)
        s[axis] = ref[axis]
        if s != ref:
            raise ShapeError(f"concat shapes incompatible: {[t.shape for t in tensors]}")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def bwd(g):
        outs, start = [], 0
        for n in sizes:
            idx = [slice(None)] * nd
            idx[axis] = slice(start, start + n)
            outs.append(g[tuple(idx)])
            start += n
        return tuple(outs)

    return _make(data, tuple(tensors), bwd)


def narrow(a, axis, start, length):
    """Contiguous slice [start, start+length) along one axis."""
    nd = a.data.ndim
    if not 0 <= axis < nd:
        raise ShapeError(f"narrow axis {axis} invalid for shape {a.shape}")
    if start < 0 or length < 1 or start + length > a.shape[axis]:
        raise ShapeError(f"narrow [{start}:{start + length}) out of range for shape {a.shape}")
    idx = [slice(None)] * nd
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def bwd(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return _make(a.data[idx].copy(), (a,), bwd)


def take_rows(a, indices):
    """Gather rows of a 2-D tensor; rows may repeat. Backward scatter-adds."""
    if a.data.ndim != 2:
        raise ShapeError(f"take_rows requires a 2-D tensor, got {a.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1 or (idx.size and (idx.min() < 0 or idx.max() >= a.shape[0])):
        raise ShapeError(f"take_rows indices out of range for shape {a.shape}")

    def bwd(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return _make(a.data[idx], (a,), bwd)  # fancy indexing returns a copy


def segment_max(a, lengths):
    """Elementwise max over consecutive row segments: (rows, n) -> (len(lengths), n).

    Segment s covers the next ``lengths[s]`` rows; the lengths are
    non-negative and sum to ``rows``.  An empty segment gives a zero row.
    Backward routes each gradient entry to the first row attaining the max
    within its segment; an empty segment routes nothing.
    """
    if a.data.ndim != 2:
        raise ShapeError(f"segment_max requires a 2-D tensor, got {a.shape}")
    rows, cols = a.shape
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.size == 0 or np.any(lengths < 0) or lengths.sum() != rows:
        raise ShapeError(f"segment lengths {lengths.tolist()} invalid for {rows} rows")
    full_segs = lengths > 0
    starts = (np.cumsum(lengths) - lengths)[full_segs]
    data = np.zeros((lengths.size, cols))
    data[full_segs] = np.maximum.reduceat(a.data, starts, axis=0)

    def bwd(g):
        # first row of each segment holding the max (or a NaN, as argmax does)
        hit = (a.data == np.repeat(data, lengths, axis=0)) | np.isnan(a.data)
        first = np.minimum.reduceat(np.where(hit, np.arange(rows)[:, None], rows),
                                    starts, axis=0)
        full = np.zeros((rows, cols))
        full[first, np.arange(cols)] = g[full_segs]
        return (full,)

    return _make(data, (a,), bwd)


def blockwise_max(a, block):
    """``segment_max`` over consecutive blocks of ``block`` rows each."""
    if block < 1 or a.shape[0] % block != 0:
        raise ShapeError(f"block size {block} does not divide row count {a.shape[0]}")
    return segment_max(a, np.full(a.shape[0] // block, block))


def tsum(a, axis=None, keepdims=False):
    if axis is None:
        data = a.data.sum()

        def bwd(g):
            return (np.broadcast_to(g, a.shape).copy(),)
    else:
        data = a.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            if not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, a.shape).copy(),)

    return _make(data, (a,), bwd)


def tmean(a, axis=None, keepdims=False):
    n = a.data.size if axis is None else a.shape[axis]
    if n == 0:
        raise ShapeError("mean of an empty tensor")
    return mul_scalar(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


# ---------------------------------------------------------------------------
# Nonlinearities.  Kinked ops take their subgradient from the positive branch.

def _sigmoid(x):
    """1/(1+exp(-x)) of an array, as a fresh array; 0 where exp(-x)
    overflows, below about -709.8."""
    out = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def _activate(x, kind, slope, out=None):
    """The nonlinearity ``kind``, one of ACTIVATIONS, of an array, into
    ``out`` where given."""
    if kind == "leaky_relu" and slope > 0.0:
        # x and slope*x share their sign, so the larger of the two (the
        # smaller for slope > 1) is the one x >= 0 selects: the np.where
        # below bit for bit, NaN and signed zeros included, at half the cost
        return (np.maximum if slope <= 1.0 else np.minimum)(x, slope * x, out=out)
    # x < 0 selects, not x >= 0, so NaN passes through as x
    y = np.where(x < 0.0, slope * x if kind == "leaky_relu" else 0.0, x)
    if out is None:
        return y
    out[...] = y
    return out


def _activate_grad(g, x, kind, slope):
    """Backward of ``_activate`` given its input ``x``."""
    if kind == "relu":
        return g * (x >= 0.0)
    return np.where(x >= 0.0, g, g * slope)


def relu(a):
    out = _activate(a.data, "relu", 0.0)
    return _make(out, (a,), lambda g: (_activate_grad(g, a.data, "relu", 0.0),))


def leaky_relu(a, slope=0.2):
    slope = float(slope)
    out = _activate(a.data, "leaky_relu", slope)
    return _make(out, (a,), lambda g: (_activate_grad(g, a.data, "leaky_relu", slope),))


def tanh(a):
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a):
    out = _sigmoid(a.data)
    return _make(out, (a,), lambda g: (g * out * (1.0 - out),))


def exp(a):
    out = np.exp(a.data)

    def bwd(g):
        return (g * out,)

    return _make(out, (a,), bwd)


def log(a):
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a):
    out = np.sqrt(a.data)

    def bwd(g):
        # zero subgradient at sqrt(0), where the derivative is infinite
        return (np.divide(g * 0.5, out, out=np.zeros_like(out), where=out > 0),)

    return _make(out, (a,), bwd)


def powf(a, p):
    p = float(p)
    out = a.data ** p

    def bwd(g):
        return (g * p * a.data ** (p - 1.0),)

    return _make(out, (a,), bwd)


def clamp_min(a, lo):
    mask = a.data >= lo
    return _make(np.maximum(a.data, float(lo)), (a,), lambda g: (g * mask,))


def bce_logits(s, target):
    """Mean binary cross entropy of the logits ``s`` against the constant
    label ``target``, a scalar or an array that broadcasts to ``s``:
    max(s, 0) - s*target + log(1 + exp(-|s|)), gradient (σ(s) - target)/n;
    neither overflows nor saturates at a finite logit."""
    x, target = s.data, np.asarray(target, dtype=float)
    loss = np.maximum(x, 0.0) - x * target + np.log1p(np.exp(-np.abs(x)))
    return _make(loss.mean(), (s,), lambda g: ((_sigmoid(x) - target) * (g / x.size),))


ACTIVATIONS = ("relu", "leaky_relu")


def activation(a, kind, slope=0.2):
    """Apply one of the MLP nonlinearities, ACTIVATIONS, by name."""
    if kind == "relu":
        return relu(a)
    if kind == "leaky_relu":
        return leaky_relu(a, slope)
    raise ValueError(f"unknown activation kind {kind!r}; expected one of {ACTIVATIONS}")


# ---------------------------------------------------------------------------
# Model parts as one node each.  Every part makes the numpy calls of the ops
# it replaces, in their order, so its values are theirs bit for bit.

def mlp(x, layers, activation="leaky_relu", slope=0.2, taps=None):
    """The (N, n) ``x`` through the affine ``layers`` = [(W, b), ...] with the
    nonlinearity ``activation``, one of ACTIVATIONS, between them, as one
    tape node whose inputs are ``x`` and the layer parameters.

    When ``taps`` is a list, the backward appends to it the loss gradient it
    computes at each hidden pre-activation, an (N, width) array, top layer
    first; a node the activation gates off gets an exact zero there.  The
    forward and backward make the numpy products and sums of the composed
    matmul, add and activation ops, so values and gradients are theirs bit
    for bit.  No dx is computed when ``x`` needs no gradient, and no weight
    gradient for a parameter that needs none.
    """
    layers = [tuple(layer) for layer in layers]
    n_in = x.shape[1] if x.data.ndim == 2 else -1
    widths = [n_in] + [W.shape[-1] for W, _ in layers]
    if (n_in < 0 or not layers
            or any(W.data.ndim != 2 or W.shape[0] != n or b.shape != (m,)
                   for (W, b), n, m in zip(layers, widths, widths[1:]))):
        raise ShapeError(f"mlp shapes do not fit: x {x.shape}, layers "
                         f"{[(W.shape, b.shape) for W, b in layers]}")
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation kind {activation!r}; "
                         f"expected one of {ACTIVATIONS}")
    slope = float(slope)
    ins, pres = [x.data], []
    for j, (W, b) in enumerate(layers):
        z = ins[-1] @ W.data
        z += b.data
        if j == len(layers) - 1:
            break
        pres.append(z)
        ins.append(_activate(z, activation, slope))

    def bwd(g):
        grads = []
        for j in reversed(range(len(layers))):
            W, b = layers[j]
            grads += [g.sum(axis=0) if b.requires_grad else None,
                      ins[j].T @ g if W.requires_grad else None]
            if j == 0:
                grads.append(g @ W.data.T if x.requires_grad else None)
            else:
                g = _activate_grad(g @ W.data.T, pres[j - 1], activation, slope)
                if taps is not None:
                    taps.append(g)
        return grads[::-1]

    return _make(z, (x,) + tuple(p for layer in layers for p in layer), bwd)


def layer_norm(x, gamma, beta, eps=1e-5):
    """Each row of the (N, D) ``x`` shifted to mean 0 and scaled to variance
    1, then times ``gamma`` plus ``beta``, both (D,), as one tape node.

    The forward makes the numpy calls of the composed tmean, sub, mul,
    add_scalar, powf and add ops in their order, so its values are theirs
    bit for bit.  The backward is analytic (Ba et al. 2016): with x̂ the
    normalized rows, σ⁻¹ = (var + eps)^-½ and gγ the output gradient times
    gamma, dx = σ⁻¹·(gγ − mean(gγ) − x̂·mean(gγ·x̂)), each mean over a row.
    """
    if x.data.ndim != 2 or x.shape[1] == 0 or gamma.shape != x.shape[1:] \
            or beta.shape != x.shape[1:]:
        raise ShapeError(f"layer_norm shapes do not fit: x {x.shape}, gamma "
                         f"{gamma.shape}, beta {beta.shape}")
    inv_n = 1.0 / x.shape[1]
    centered = x.data - x.data.sum(axis=1, keepdims=True) * inv_n
    inv_std = ((centered * centered).sum(axis=1, keepdims=True) * inv_n + float(eps)) ** -0.5
    normed = centered * inv_std

    def bwd(g):
        dx = None
        if x.requires_grad:
            gg = g * gamma.data
            dx = gg - gg.mean(axis=1, keepdims=True)
            dx -= normed * (gg * normed).mean(axis=1, keepdims=True)
            dx *= inv_std
        return dx, (g * normed).sum(axis=0), g.sum(axis=0)

    return _make(normed * gamma.data + beta.data, (x, gamma, beta), bwd)


def min_of_k_norms(a, target, k):
    """The L2 distance from each row of the (N, n) constant ``target`` to
    the nearest of its ``k`` rows in the (N*k, n) ``a``, rows k*i to
    k*i + k - 1 for target row i, as an (N, 1) tensor and one tape node.

    The nearest row is picked outside the graph, first of equals, so the
    gradient reaches that row only and the others receive exactly zero;
    a distance of 0 has zero subgradient.  The values and the gradient of
    the picked rows are those of the composed sub, mul, tsum, take_rows
    and sqrt ops bit for bit.
    """
    target = np.asarray(target, dtype=np.float64)
    if (a.data.ndim != 2 or k < 1 or target.ndim != 2
            or a.shape != (target.shape[0] * k, target.shape[1])):
        raise ShapeError(f"min_of_k_norms shapes do not fit: a {a.shape}, "
                         f"target {target.shape}, k {k}")
    diff = a.data - np.repeat(target, k, axis=0)
    sq = (diff * diff).sum(axis=1, keepdims=True)
    rows = np.arange(target.shape[0]) * k + sq.reshape(-1, k).argmin(axis=1)
    out = np.sqrt(sq[rows])

    def bwd(g):
        g_sq = np.divide(g * 0.5, out, out=np.zeros_like(out), where=out > 0)
        picked = g_sq * diff[rows]
        full = np.zeros_like(diff)
        full[rows] = picked + picked
        return (full,)

    return _make(out, (a,), bwd)


def softmax_rows(a):
    """Row-wise softmax of a 2-D tensor; each output row sums to 1."""
    if a.data.ndim != 2:
        raise ShapeError(f"softmax_rows requires a 2-D tensor, got {a.shape}")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), bwd)


def grouped_attention(q, k, v, heads, groups):
    """Scaled dot-product attention of ``groups`` sequences at once.

    ``k`` and ``v`` are (N, D) with N = length * groups rows in time-major
    order (row t*groups + g is step t of sequence g); columns split into
    ``heads`` heads of D // heads.  ``q`` is (M, D), the queries of M //
    groups steps in the same order: every step's, or fewer, such as the
    last step's alone.  Each query attends over all steps of its own
    sequence.  Returns the (M, D) output, heads side by side.
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or k.shape != v.shape or q.shape[1] != k.shape[1]:
        raise ShapeError(f"grouped_attention needs 2-D q, k, v of equal width and equal "
                         f"k, v, got {q.shape}, {k.shape}, {v.shape}")
    (m, d), n = q.shape, k.shape[0]
    if heads < 1 or groups < 1 or d % heads or n % groups or m % groups or n == 0 or m == 0:
        raise ShapeError(f"{heads} heads and {groups} groups do not divide shapes "
                         f"{q.shape} and {k.shape}")
    hd = d // heads

    def split(a):  # (L * groups, D) -> (groups, heads, L, head_dim)
        return a.reshape(-1, groups, heads, hd).transpose(1, 2, 0, 3)

    def join(a):  # inverse of split
        return a.transpose(2, 0, 1, 3).reshape(-1, d)

    # numpy hands a product with a one-row operand to gemv, which rounds
    # differently from the gemm that queries of several steps get; so a
    # lone query step against several key steps runs as two copies, whose
    # first gives the rows of every step's queries bit for bit
    lone = m == groups < n
    scale = 1.0 / np.sqrt(hd)
    qh, kh, vh = split(np.concatenate([q.data, q.data]) if lone else q.data), \
        split(k.data), split(v.data)
    scores = (qh @ kh.swapaxes(2, 3)) * scale
    e = np.exp(scores - scores.max(axis=3, keepdims=True))
    attn = e / e.sum(axis=3, keepdims=True)

    def bwd(g):
        gh = split(np.concatenate([g, np.zeros_like(g)]) if lone else g)
        ga = gh @ vh.swapaxes(2, 3)
        gs = attn * (ga - (ga * attn).sum(axis=3, keepdims=True)) * scale
        return (join(gs @ kh)[:m], join(gs.swapaxes(2, 3) @ qh),
                join(attn.swapaxes(2, 3) @ gh))

    return _make(join(attn @ vh)[:m], (q, k, v), bwd)


@functools.lru_cache(maxsize=None)
def _gate_order(hd):
    """Row indices that take the stored gate blocks (input, forget, cell,
    output) of hidden size ``hd`` to the compute order (input, forget,
    output, cell), which puts the three sigmoid gates in one block.  It
    swaps two blocks, so it also takes the compute order back.  Cached per
    ``hd``; read-only."""
    r = np.arange(hd)
    order = np.concatenate([r, r + hd, r + 3 * hd, r + 2 * hd])
    order.flags.writeable = False
    return order


def _compute_order(W):
    """An LSTM's stored (n, 4H) gate weights, or its (4H,) bias, as the
    fresh (4H, n) transposed array, or (4H,) vector, that the feature-major
    steps use, gate rows in the compute order.

    The rows of the three sigmoid gates are stored negated, so a step's
    gate product gives -z for those gates and its sigmoid needs no
    negation pass.  The values are those of negating the sum, bit for bit:
    IEEE negation is exact and round-to-nearest is symmetric in sign.  The
    parameters themselves are left as they are.
    """
    hd = W.shape[-1] // 4
    A = W.T[_gate_order(hd)]
    np.negative(A[:3 * hd], out=A[:3 * hd])
    return A


def _lstm_step(out, c_next, h_next):
    """The elementwise half of one LSTM step on feature-major arrays:
    ``out`` is a (6H, R) block laid out (i, f, o, g, c, tanh c'), whose gate
    rows hold the step's pre-activations in the compute order of
    ``_compute_order``, so each gate is one contiguous block, and whose
    fifth block holds the (H, R) cell state c the step reads.

    The activations overwrite their gates, tanh(c') goes into the last
    block, c' into ``c_next``, which may be the fifth block itself, and h'
    into ``h_next``.  The caller holds ``np.errstate(over="ignore")``: a
    sigmoid gate whose exp(-z) overflows is 0, as in ``_sigmoid``.
    """
    hd = c_next.shape[0]
    sig, g, c, tc = out[:3 * hd], out[3 * hd:4 * hd], out[4 * hd:5 * hd], out[5 * hd:]
    # one sigmoid over the first three blocks, which hold -z already, and
    # one tanh over the cell gate
    np.exp(sig, out=sig)
    sig += 1.0
    np.reciprocal(sig, out=sig)
    np.tanh(g, out=g)
    # f*c + i*g, in place when c_next is c
    np.multiply(out[hd:2 * hd], c, out=c_next)
    c_next += np.multiply(out[:hd], g, out=tc)
    np.tanh(c_next, out=tc)
    np.multiply(out[2 * hd:3 * hd], tc, out=h_next)


def _lstm_factors(blocks, hd):
    """The factors of an LSTM's gate gradients that depend on its forward
    alone, for all steps at once, from the (T, 6H, R) blocks that its
    ``_lstm_step`` calls of hidden size ``hd`` wrote.

    Returns a fresh (T, 4H, R) array of i(1-i)g, f(1-f)c, i(1-g²) and
    o(1-o)tanh(c'), c the cell state the step read, in the stored gate
    order (input, forget, cell, output); and a fresh (T, H, R) array of
    o(1-tanh²(c')).  The sigmoid factors are two passes, one over (i, f),
    whose factors g and c are contiguous too, and one over o.  ``blocks``
    is left as it is.
    """
    steps, _, rows = blocks.shape
    D, P = np.empty((steps, 4 * hd, rows)), np.empty((steps, hd, rows))
    B, D4 = blocks.reshape(steps, 6, hd, rows), D.reshape(steps, 4, hd, rows)
    for s, y, out in ((B[:, :2], B[:, 3:5], D4[:, :2]), (B[:, 2], B[:, 5], D4[:, 3])):
        np.subtract(1.0, s, out=out)  # s(1-s)y of a sigmoid s
        out *= s
        out *= y
    for s, y, out in ((B[:, 3], B[:, 0], D4[:, 2]), (B[:, 5], B[:, 2], P)):
        np.multiply(s, s, out=out)  # (1-s²)y of a tanh s
        np.subtract(1.0, out, out=out)
        out *= y
    return D, P


def _bptt(D, P, blocks, W_h, dh, dc):
    """Backpropagate through the steps of an LSTM, the last one first.

    ``D`` and ``P`` are the ``_lstm_factors`` of its step ``blocks``, ``W_h``
    the stored (H, 4H) recurrent weights, and ``dh`` and ``dc`` the (H, R)
    gradients of the last step's h and c.
    Yields each step's index first, for the caller to add to ``dh`` what
    else reached the step's h.  The step then multiplies its rows of ``D``
    by dc (input, forget and cell gates) and dh (output gate) in place,
    which makes them its gate gradients, and sets ``dh`` and ``dc`` to those
    of the h and c it read.
    """
    hd = dh.shape[0]
    D4 = D.reshape(len(D), 4, hd, -1)
    for t, d, d_c, d_o, p, f in zip(range(len(D) - 1, -1, -1), D[::-1], D4[::-1, :3],
                                    D4[::-1, 3], P[::-1], blocks[::-1, hd:2 * hd]):
        yield t
        p *= dh
        dc += p
        d_c *= dc
        d_o *= dh
        np.matmul(W_h, d, out=dh)
        dc *= f


def _weight_grad(a, G):
    """The sum over steps of a[t] @ G[t].T, for time-major (T, n, R) inputs
    ``a`` and (T, m, R) output gradients ``G`` of a weight that maps a
    step's feature-major a to its G: the (n, m) gradient of that weight."""
    return np.matmul(a, G.transpose(0, 2, 1)).sum(axis=0)


def lstm_sequence(x, W_x, W_h, b, rows):
    """Run an LSTM from a zero state over ``rows`` sequences at once.

    ``x`` is (T*rows, I) in time-major order (row t*rows + r is step t of
    sequence r), ``W_x`` (I, 4H), ``W_h`` (H, 4H) and ``b`` (4H,), gate
    order (input, forget, cell, output).  Returns the (rows, H) hidden state
    after the last step as one tape node.

    The steps run feature-major (``_lstm_step``): each makes its four gate
    pre-activations with one product, the (4H, I+H+1) stacked weight
    ``[W_x; W_h; b]ᵀ`` with the gate rows in the order (input, forget,
    output, cell) times the stacked input ``[x_t; h; 1]``, then sigmoid/tanh
    gates, ``c' = f*c + i*g`` and ``h' = o*tanh(c')``, with the operations,
    their order and their array layouts those of the same step composed of
    concat, transpose, take_rows, matmul, narrow, sigmoid, tanh, mul and add
    ops, so the values are the same bit for bit.  Each step writes its h
    into the next step's stacked input and its c' into the next step's
    block, and keeps its own, with or without a tape.  The backward works
    in the stored gate order, so it reads W_x and W_h as they are: it
    computes the gate gradients' factors for all steps at once
    (``_lstm_factors``), loops only over the dh/dc recurrence (``_bptt``),
    then takes dx and the stacked weight's gradient, whose blocks are W_x's,
    W_h's and b's, in one product each, only for inputs that require grad.
    """
    hd = W_h.shape[0]
    if (x.data.ndim != 2 or rows < 1 or x.shape[0] < rows or x.shape[0] % rows
            or W_x.shape != (x.shape[1], 4 * hd) or W_h.shape != (hd, 4 * hd)
            or b.shape != (4 * hd,)):
        raise ShapeError(f"lstm_sequence shapes do not fit: x {x.shape} in {rows} rows, "
                         f"W_x {W_x.shape}, W_h {W_h.shape}, b {b.shape}")
    steps, n_in = x.shape[0] // rows, x.shape[1]
    A = _compute_order(np.concatenate([W_x.data, W_h.data, b.data[None]]))
    # step t's stacked input [x_t; h; 1] in block t: h written by step t-1
    S = np.empty((steps + 1, n_in + hd + 1, rows))
    S[:-1, :n_in] = x.data.reshape(steps, rows, n_in).transpose(0, 2, 1)
    S[0, n_in:] = 0.0
    S[:, -1] = 1.0
    # step t's gates, cell state and tanh(c') in block t, c' in block t+1
    blocks = np.empty((steps + 1, 6 * hd, rows))
    blocks[0, 4 * hd:5 * hd] = 0.0
    with np.errstate(over="ignore"):
        for t in range(steps):
            np.matmul(A, S[t], out=blocks[t, :4 * hd])
            _lstm_step(blocks[t], blocks[t + 1, 4 * hd:5 * hd], S[t + 1, n_in:-1])

    def bwd(grad):
        D, P = _lstm_factors(blocks[:-1], hd)
        for _ in _bptt(D, P, blocks[:-1], W_h.data, grad.T.copy(), np.zeros((hd, rows))):
            pass
        dx = (np.matmul(D.transpose(0, 2, 1), W_x.data.T).reshape(x.shape)
              if x.requires_grad else None)
        G = (_weight_grad(S[:-1], D)
             if W_x.requires_grad or W_h.requires_grad or b.requires_grad else None)
        return (dx, G[:n_in] if W_x.requires_grad else None,
                G[n_in:-1] if W_h.requires_grad else None, G[-1] if b.requires_grad else None)

    return _make(S[-1, n_in:-1].T.copy(), (x, W_x, W_h, b), bwd)


def lstm_rollout(h0, embed, cell, gamma, last_pos, last_disp, t_pred, scale,
                 activation="leaky_relu", slope=0.2):
    """Autoregressive LSTM decoder over ``t_pred`` steps as one tape node.

    Each step multiplies the previous displacement (``last_disp`` at the
    first step) by ``scale``, embeds it with ``embed`` = (W, b), advances
    the LSTM ``cell`` = (W_x, W_h, b) from the (R, H) hidden state ``h0``
    and a zero cell state, maps h through the MLP ``gamma`` = [(W, b), ...]
    with ``activation`` between its layers, and divides by ``scale``: that
    is the step's displacement, fed back as the next input and added to the
    position (``last_pos`` before the first step).  ``last_pos`` and
    ``last_disp`` are (R, 2) arrays.

    Returns the (R, 2*t_pred) positions, step t in columns 2t and 2t+1, and
    the (t_pred*R, 2) displacements in time-major order (row t*R + r).

    Every step runs feature-major (see ``lstm_sequence``) and makes its
    four gate pre-activations with one product: the (4H, 3+H) stacked
    weight ``[A_x W_eᵀ scale | A_h | A_x b_e + b]``, built once per call in
    the order of ``_compute_order``, times the stacked input ``[x; h; 1]``.
    So the scaling and the embedding are folded into the cell's product.
    The cell's elementwise half (``_lstm_step``) and ``gamma`` follow, each
    gamma layer one product too: its transposed weights with the bias as a
    last column, the output layer's over ``scale``, times its input with a
    ones row.  A step makes 14 numpy calls with one hidden gamma layer.
    The values are those of the same stacked products composed of ops, bit
    for bit, and agree with the unfolded chain to rounding.  Each step
    writes its displacement into the next step's ``x`` rows; after the loop
    the positions are one running sum from ``last_pos``, the values of
    adding the steps one by one.  While recording, each step keeps its
    stacked input, gates and gamma activations in blocks of its own.
    Without a tape every step overwrites one block and a stacked input
    overlaps the next: a 640-row min-of-20 evaluation with a block a step
    measured 20% more peak memory and 17% less throughput.  The backward
    loops only over the recurrence, which runs through gamma and the
    stacked weight's x block as well as the cell (see ``lstm_sequence``),
    in the stored gate order.  The stacked weight's gradient, each step's
    gate gradients times its stacked input summed over steps, is one
    batched product, and each parameter's comes from its blocks; so is each
    gamma layer's, whose ones-row block is its bias gradient.
    """
    W_e, b_e = embed
    W_x, W_h, b = cell
    layers = [tuple(layer) for layer in gamma]
    rows, hd = h0.shape if h0.data.ndim == 2 else (0, 0)
    widths = [hd] + [W.shape[-1] for W, _ in layers]
    if (rows < 1 or t_pred < 1 or not layers or widths[-1] != 2
            or W_e.data.ndim != 2 or W_e.shape[0] != 2 or b_e.shape != W_e.shape[1:]
            or W_x.shape != (W_e.shape[1], 4 * hd) or W_h.shape != (hd, 4 * hd)
            or b.shape != (4 * hd,)
            or any(W.shape != (n, m) or b_.shape != (m,)
                   for (W, b_), n, m in zip(layers, widths, widths[1:]))
            or np.shape(last_pos) != (rows, 2) or np.shape(last_disp) != (rows, 2)):
        raise ShapeError(f"lstm_rollout shapes do not fit: h0 {h0.shape}, embed "
                         f"{[p.shape for p in embed]}, cell {[p.shape for p in cell]}, "
                         f"gamma {[(W.shape, b_.shape) for W, b_ in layers]}, last_pos "
                         f"{np.shape(last_pos)}, last_disp {np.shape(last_disp)}, "
                         f"t_pred {t_pred}")
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation kind {activation!r}; "
                         f"expected one of {ACTIVATIONS}")
    scale, slope = float(scale), float(slope)
    inv = 1.0 / scale
    inputs = (h0, W_e, b_e, W_x, W_h, b) + tuple(p for layer in layers for p in layer)
    record = _recording_tape(inputs) is not None
    # the gate weights of the stacked input's rows x, h and 1, stored order:
    # the scaled embedding and its bias folded into W_x and b
    W_es, stacked = W_e.data * scale, np.empty((3 + hd, 4 * hd))
    np.matmul(W_es, W_x.data, out=stacked[:2])
    stacked[2:-1] = W_h.data
    np.matmul(b_e.data, W_x.data, out=stacked[-1])
    stacked[-1] += b.data
    A = _compute_order(stacked)
    # every gamma layer as its transposed weights with the bias as a last
    # column, for an input block with a ones row; the output layer over scale
    layers_T = [np.concatenate([W.data, b_.data[None]]).T.copy() for W, b_ in layers]
    W_out = layers_T.pop()
    W_out *= inv
    # step t's stacked input in block t, written by step t-1, as views of
    # one buffer: while recording each block has rows of its own, for the
    # backward; else each starts two rows after the one before, so that the
    # next step overwrites a step's h and ones row but no displacement
    stride = 3 + hd if record else 2
    buf = np.empty((stride * t_pred + 3 + hd, rows))
    buf[2 + hd::stride] = 1.0
    S = np.lib.stride_tricks.as_strided(buf, (t_pred + 1, 3 + hd, rows),
                                        (stride * buf.strides[0], *buf.strides))
    S[0, :2], S[0, 2:-1] = np.transpose(last_disp), h0.data.T
    # what else the steps compute, in (n, ., rows) buffers: step t in block
    # t while recording, for the backward to read, else all in block 0.  A
    # step reads its cell state from its block and writes c' into the next
    # one's (its own without a tape); gamma's activations carry a ones row
    n = t_pred if record else 1
    pres = [np.empty((n, len(W), rows)) for W in layers_T]
    acts = [np.empty((n, len(W) + 1, rows)) for W in layers_T]
    blocks = np.empty((n + record, 6 * hd, rows))
    blocks[0, 4 * hd:5 * hd] = 0.0
    for Y in acts:
        Y[:, -1] = 1.0
    with np.errstate(over="ignore"):
        for t in range(t_pred):
            k = t if record else 0
            np.matmul(A, S[t], out=blocks[k, :4 * hd])
            _lstm_step(blocks[k], blocks[k + record, 4 * hd:5 * hd], S[t + 1, 2:-1])
            a = S[t + 1, 2:]  # [h; 1]
            for W, Z, Y in zip(layers_T, pres, acts):
                _activate(np.matmul(W, a, out=Z[k]), activation, slope, Y[k, :-1])
                a = Y[k]
            np.matmul(W_out, a, out=S[t + 1, :2])
    disps = S[1:, :2].transpose(0, 2, 1).reshape(t_pred * rows, 2)
    walk = np.concatenate([np.reshape(last_pos, (1, rows, 2)), disps.reshape(t_pred, rows, 2)])
    positions = np.cumsum(walk, axis=0, out=walk)[1:].transpose(1, 0, 2).reshape(rows, 2 * t_pred)

    def bwd(grads):
        g_pos, g_disp = (np.zeros(shape) if g is None else g
                         for g, shape in zip(grads, ((rows, 2 * t_pred), (t_pred * rows, 2))))
        D, P = _lstm_factors(blocks[:-1], hd)
        # the gradient of each step's gamma output, (T, 2, rows): its
        # displacement's and every later position's, over scale; the loop
        # adds what reaches it through the next step's input
        G_out = np.empty((t_pred, 2, rows))
        np.add(np.cumsum(g_pos.reshape(rows, t_pred, 2)[:, ::-1], axis=1)[:, ::-1]
               .transpose(1, 2, 0), g_disp.reshape(t_pred, rows, 2).transpose(0, 2, 1),
               out=G_out)
        G_out *= inv
        # the hidden gamma layers' activation slopes, which the loop turns
        # into their pre-activation gradients in place; from the top layer
        # down, each with the weight to its output and a scratch block
        Gs = [_activate_grad(1.0, z, activation, slope) for z in pres]
        hidden = [(layers[j + 1][0].data, Gs[j], np.empty(Gs[j].shape[1:]))
                  for j in reversed(range(len(pres)))]
        Gs.append(G_out)
        # from a step's gate gradients to the previous step's gamma output,
        # through the x block of the stacked weight and the division by scale
        back = stacked[:2] * inv
        dh, dc, dh_gamma, gx = (np.zeros((hd, rows)), np.zeros((hd, rows)),
                                np.empty((hd, rows)), np.empty((2, rows)))
        for t in _bptt(D, P, blocks[:-1], W_h.data, dh, dc):
            g = G_out[t]
            if t + 1 < t_pred:
                g += np.matmul(back, D[t + 1], out=gx)
            for W, G, scratch in hidden:
                g = np.multiply(G[t], np.matmul(W, g, out=scratch), out=G[t])
            dh += np.matmul(layers[0][0].data, g, out=dh_gamma)
        # the stacked weight's gradient; its x block is W_e scale W_x, and its
        # last row b_e W_x + b
        G_A = _weight_grad(S[:-1], D)
        G_x, db = G_A[:2], G_A[-1]
        # each gamma layer's input ends in a ones row, whose gradient row is
        # the layer's bias gradient, as the stacked weight's last row is b's
        G_gamma = [_weight_grad(a, G) for a, G in zip([S[1:, 2:], *acts], Gs)]
        return (dh.T, (G_x @ W_x.data.T) * scale, W_x.data @ db,
                W_es.T @ G_x + np.outer(b_e.data, db), G_A[2:-1], db,
                *(d for G in G_gamma for d in (G[:-1], G[-1])))

    return _make((positions, disps), inputs, bwd)


# ---------------------------------------------------------------------------
# Backward

def backward(loss):
    """Add d(loss)/d(leaf) to the ``grad`` of every requires_grad leaf
    reachable from ``loss``.  Gradients accumulate across calls until
    zeroed; op outputs keep none.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    seed = np.ones_like(loss.data)
    if loss.node_id is None:
        # constant or bare leaf; nothing upstream of it
        if loss.requires_grad:
            loss.grad = seed if loss.grad is None else loss.grad + seed
        return
    tape = loss.tape
    if tape is None:
        raise ContractError("the tape that recorded this loss has been released; "
                            "call backward inside its `with Tape()` block")
    ref = tape.ref
    pending = {id(loss): seed}
    for node in reversed(tape.nodes[: loss.node_id + 1]):
        if type(node.out) is tuple:
            g = tuple(pending.pop(id(out), None) for out in node.out)
            if all(part is None for part in g):
                continue
        else:
            g = pending.pop(id(node.out), None)
            if g is None:
                continue
        for t, ig in zip(node.inputs, node.bwd(g)):
            if ig is None or not t.requires_grad:
                continue
            if t.node_id is None:
                t.grad = ig.copy() if t.grad is None else t.grad + ig
            elif t.tape_ref is ref:
                key = id(t)
                if key in pending:
                    pending[key] = pending[key] + ig
                else:
                    pending[key] = ig
