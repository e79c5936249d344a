"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (explicit
loops, central differences, textbook formulas) so that agreement with the
library is a real two-route check rather than the same code twice.
"""

import csv
import io
import math
from typing import NamedTuple

import numpy as np

from trajgan import tensor as T
from trajgan.data import (CLASS_NAMES, LABEL_ALIASES, WINDOW_CSV_HEADER, AgentTrack,
                          AnnotationColumns, AnnotationParseError, DataError, SceneWindow,
                          UnknownLabelError)
from trajgan.evaluate import constant_velocity_baseline
from trajgan.model import (fake_steps, generator_forward, real_steps, sinusoidal_positions,
                           stacked_onehots)
from trajgan.optim import clip_grad_norm, grad_norm
from trajgan.tensor import Tape, backward, no_grad
from trajgan.train import StepRecord, d_loss, g_adv_loss, variety_loss, variety_norms


def finite_diff(f, leaves, h=1e-5, coords=None):
    """Central-difference gradients of the scalar function ``f``.

    ``f`` is re-evaluated with perturbed leaf values; it must not depend on
    any state other than the leaves.  ``coords``, when given, is a list of
    (leaf_index, flat_index) pairs restricting which coordinates are probed;
    unprobed entries are left as NaN.
    """
    grads = [np.full(leaf.data.shape, np.nan) for leaf in leaves]
    if coords is None:
        coords = [(li, i) for li, leaf in enumerate(leaves)
                  for i in range(leaf.data.size)]
    for li, i in coords:
        flat = leaves[li].data.reshape(-1)
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f())
        flat[i] = orig - h
        fm = float(f())
        flat[i] = orig
        grads[li].reshape(-1)[i] = (fp - fm) / (2.0 * h)
    return grads


def relative_error(a, b):
    denom = max(abs(a), abs(b))
    if denom < 1e-6:
        # both effectively zero relative to the loss scale; compare absolutely
        return abs(a - b)
    return abs(a - b) / denom


def assert_grads_match(build_loss, leaves, rtol=1e-4, h=1e-5, coords=None):
    """Backward through ``build_loss`` and compare against finite differences.

    ``build_loss`` must rebuild the graph from the leaves on every call and
    return the scalar loss tensor.
    """
    for leaf in leaves:
        leaf.grad = None
    with Tape():
        loss = build_loss()
        backward(loss)
    auto = [leaf.grad.copy() if leaf.grad is not None else np.zeros(leaf.data.shape)
            for leaf in leaves]
    fd = finite_diff(lambda: build_loss().data, leaves, h=h, coords=coords)
    worst = 0.0
    for li, (a, n) in enumerate(zip(auto, fd)):
        mask = ~np.isnan(n)
        for i in np.flatnonzero(mask.reshape(-1)):
            err = relative_error(a.reshape(-1)[i], n.reshape(-1)[i])
            worst = max(worst, err)
            assert err < rtol, (
                f"gradient mismatch at leaf {li} coord {i}: "
                f"autodiff {a.reshape(-1)[i]!r} vs finite-diff {n.reshape(-1)[i]!r}")
    return worst


def looped_attention(q, k, v, heads, groups):
    """Reference for ``T.grouped_attention``: every sequence and head on its
    own through matmul/transpose/mul_scalar/softmax_rows.  ``q`` may hold
    fewer steps than ``k`` and ``v``.  Returns the output tensor, one row
    per query row, in the same time-major row order as the queries."""
    (n, d), n_k = q.shape, k.shape[0]
    hd = d // heads
    seqs = []
    for g in range(groups):
        qg = T.take_rows(q, np.arange(g, n, groups))
        kg, vg = (T.take_rows(a, np.arange(g, n_k, groups)) for a in (k, v))
        outs = []
        for h in range(heads):
            qh, kh, vh = (T.narrow(a, 1, h * hd, hd) for a in (qg, kg, vg))
            scores = T.mul_scalar(T.matmul(qh, T.transpose(kh)), 1.0 / np.sqrt(hd))
            outs.append(T.matmul(T.softmax_rows(scores), vh))
        seqs.append(T.concat(outs, axis=1))
    # sequence-major rows g*length + t back to time-major t*groups + g
    length = n // groups
    return T.take_rows(T.concat(seqs, axis=0),
                       (np.arange(n) % groups) * length + np.arange(n) // groups)


def full_rows_transformer_run(enc, seq, rows):
    """Reference for ``TransformerEncoder.run``: every layer runs every
    step's rows, the last layer's included, and the summary narrows to the
    last step's rows after it."""
    length = seq.shape[0] // rows
    pe = np.repeat(sinusoidal_positions(length, enc.config.hidden_dim), rows, axis=0)
    x = T.add(enc.in_proj(seq), T.constant(pe))
    for layer in enc.layers:
        x = layer["ln1"](T.add(x, layer["mha"](x, rows)))
        ff = T.mlp(x, [(layer[k].W, layer[k].b) for k in ("ff1", "ff2")],
                   enc.config.activation, enc.config.leaky_slope)
        x = layer["ln2"](T.add(x, ff))
    return T.narrow(x, 0, (length - 1) * rows, rows)


def composed_mlp(x, layers, activation, slope, probes=()):
    """Reference for ``T.mlp``: a matmul and an add node per layer, the
    probe added to each hidden pre-activation, an activation node between
    layers."""
    probes = list(probes)
    for j, (W, b) in enumerate(layers):
        x = T.add(T.matmul(x, W), b)
        if j < len(layers) - 1:
            if probes:
                x = T.add(x, probes[j])
            x = T.activation(x, activation, slope)
    return x


def composed_layer_norm(x, gamma, beta, eps):
    """Reference for ``T.layer_norm``: row mean and variance, normalization,
    scale and shift as eleven nodes."""
    mu = T.tmean(x, axis=1, keepdims=True)
    centered = T.sub(x, mu)
    var = T.tmean(T.mul(centered, centered), axis=1, keepdims=True)
    normed = T.mul(centered, T.powf(T.add_scalar(var, eps), -0.5))
    return T.add(T.mul(normed, gamma), beta)


def composed_min_of_k_norms(a, target, k):
    """Reference for ``T.min_of_k_norms``: squared row distances as sub, mul
    and tsum nodes, the nearest of each k rows gathered and square-rooted."""
    diff = T.sub(a, T.constant(np.repeat(target, k, axis=0)))
    sq = T.tsum(T.mul(diff, diff), axis=1, keepdims=True)
    rows = np.arange(len(target)) * k + sq.data.reshape(len(target), k).argmin(axis=1)
    return T.sqrt(T.take_rows(sq, rows))


def gate_order(hd):
    """Rows that take the stored gate blocks (input, forget, cell, output)
    to the compute order (input, forget, output, cell), and back."""
    r = np.arange(hd)
    return np.concatenate([r, r + hd, r + 3 * hd, r + 2 * hd])


def column(b):
    """A (n,) tensor as an (n, 1) column."""
    return T._make(b.data[:, None].copy(), (b,), lambda g: (g[:, 0],))


def looped_lstm_step(x, hc, W_x, W_h, b):
    """Reference for ``lstm_cell``: the feature-major step composed of
    transpose, take_rows, matmul, add, narrow, sigmoid, tanh and mul nodes
    on the (I, R) input and the (2H, R) state ``[h; c]``.  The weights are
    transposed and their gate rows put in the compute order (input, forget,
    output, cell) as tape ops, so their gradients reach the stored order."""
    hd = W_h.shape[0]
    order = gate_order(hd)
    h, c = T.narrow(hc, 0, 0, hd), T.narrow(hc, 0, hd, hd)
    gates = T.add(T.add(T.matmul(T.take_rows(T.transpose(W_x), order), x),
                        T.matmul(T.take_rows(T.transpose(W_h), order), h)),
                  T.take_rows(column(b), order))
    i = T.sigmoid(T.narrow(gates, 0, 0, hd))
    f = T.sigmoid(T.narrow(gates, 0, hd, hd))
    o = T.sigmoid(T.narrow(gates, 0, 2 * hd, hd))
    g = T.tanh(T.narrow(gates, 0, 3 * hd, hd))
    c_next = T.add(T.mul(f, c), T.mul(i, g))
    h_next = T.mul(o, T.tanh(c_next))
    return T.concat([h_next, c_next], axis=0)


def sigmoid_ref(x):
    """The logistic function as the plain composition 1/(1 + exp(-x)),
    0 where exp(-x) overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def lstm_cell(x, hc, W_x, W_h, b):
    """Reference LSTM step as one tape node, feature-major.

    ``x`` is the (I, R) input, ``hc`` the (2H, R) state ``[h; c]``, ``W_x``
    (I, 4H), ``W_h`` (H, 4H) and ``b`` (4H,) in the stored gate order
    (input, forget, cell, output).  Returns the next ``[h; c]``; the
    arithmetic, array layouts included, is that of the composed ops in
    ``looped_lstm_step``, so the values are the same bit for bit.
    """
    hd = W_h.shape[0]
    if (x.data.ndim != 2 or hc.data.ndim != 2 or hc.shape != (2 * hd, x.shape[1])
            or W_x.shape != (x.shape[0], 4 * hd) or W_h.shape != (hd, 4 * hd)
            or b.shape != (4 * hd,)):
        raise T.ShapeError(f"lstm_cell shapes do not fit: x {x.shape}, hc {hc.shape}, "
                           f"W_x {W_x.shape}, W_h {W_h.shape}, b {b.shape}")
    order = gate_order(hd)
    A_x, A_h = W_x.data.T.copy()[order], W_h.data.T.copy()[order]
    h, c = hc.data[:hd], hc.data[hd:]
    gates = (A_x @ x.data + A_h @ h) + b.data[order][:, None]
    i = sigmoid_ref(gates[:hd])
    f = sigmoid_ref(gates[hd:2 * hd])
    o = sigmoid_ref(gates[2 * hd:3 * hd])
    g = np.tanh(gates[3 * hd:])
    c_next = f * c + i * g
    tc = np.tanh(c_next)
    out = np.concatenate([o * tc, c_next], axis=0)

    def bwd(grad):
        dh = grad[:hd]
        dc = grad[hd:] + dh * o * (1.0 - tc * tc)
        dgates = np.concatenate([dc * g * i * (1.0 - i), dc * c * f * (1.0 - f),
                                 dh * tc * o * (1.0 - o), dc * i * (1.0 - g * g)], axis=0)
        dhc = (np.concatenate([A_h.T @ dgates, dc * f], axis=0)
               if hc.requires_grad else None)
        return (A_x.T @ dgates if x.requires_grad else None, dhc,
                (dgates @ x.data.T)[order].T if W_x.requires_grad else None,
                (dgates @ h.T)[order].T if W_h.requires_grad else None,
                dgates.sum(axis=1)[order] if b.requires_grad else None)

    return T._make(out, (x, hc, W_x, W_h, b), bwd)


def looped_lstm_sequence(x, W_x, W_h, b, rows):
    """Reference for ``T.lstm_sequence``: its stacked gate product composed
    of ops.  The (I+H+1, 4H) gate weights ``[W_x; W_h; b]`` of the input rows
    x, h and 1 (a concat node), transposed with the gate rows put in the
    compute order; each step multiplies them by the concatenated ``[x_t; h;
    1]``, x_t a narrowed and transposed slice of ``x``, and runs
    ``lstm_activations``, from a zero h and c; a final transpose."""
    hd = W_h.shape[0]
    A = T.take_rows(T.transpose(T.concat([W_x, W_h, row(b)], axis=0)), gate_order(hd))
    ones = T.constant(np.ones((1, rows)))
    h = c = T.constant(np.zeros((hd, rows)))
    for start in range(0, x.shape[0], rows):
        x_t = T.transpose(T.narrow(x, 0, start, rows))
        h, c = lstm_activations(T.matmul(A, T.concat([x_t, h, ones], axis=0)), c)
    return T.transpose(h)


def unstacked_lstm_sequence(x, W_x, W_h, b, rows):
    """The LSTM as separate products: one ``lstm_cell`` node per step, whose
    gates are ``(A_x x_t + A_h h) + b``, on a narrowed and transposed slice
    of ``x``, from a zero ``[h; c]``, and a final narrow and transpose.
    ``T.lstm_sequence`` sums the three in one product, so it agrees with
    this to rounding."""
    hd = W_h.shape[0]
    hc = T.constant(np.zeros((2 * hd, rows)))
    for start in range(0, x.shape[0], rows):
        hc = lstm_cell(T.transpose(T.narrow(x, 0, start, rows)), hc, W_x, W_h, b)
    return T.transpose(T.narrow(hc, 0, 0, hd))


def row(b):
    """A (n,) tensor as a (1, n) row."""
    return T._make(b.data[None].copy(), (b,), lambda g: (g[0],))


def lstm_activations(gates, c):
    """The elementwise half of an LSTM step composed of narrow, sigmoid,
    tanh, mul and add nodes: the (4H, R) pre-activations ``gates`` in the
    compute order (input, forget, output, cell) and the (H, R) cell state
    ``c`` to the next h and c."""
    hd = c.shape[0]
    i, f, o = (T.sigmoid(T.narrow(gates, 0, k * hd, hd)) for k in range(3))
    g = T.tanh(T.narrow(gates, 0, 3 * hd, hd))
    c_next = T.add(T.mul(f, c), T.mul(i, g))
    return T.mul(o, T.tanh(c_next)), c_next


def looped_decode(h0, embed, cell, gamma, last_pos, last_disp, t_pred, scale,
                  activation="leaky_relu", slope=0.2):
    """Reference for ``T.lstm_rollout``: its stacked gate product composed of
    ops.  The (3+H, 4H) gate weights of the input rows x, h and 1 are
    ``[W_e scale W_x; W_h; b_e W_x + b]`` (matmul, mul_scalar, add and
    concat nodes), transposed with the gate rows put in the compute order;
    each step multiplies them by the concatenated ``[x; h; 1]``, then runs
    ``lstm_activations``.  Each gamma layer is one product too: its
    transposed weights with the bias as a last column, the output layer's
    times 1/scale (concat and mul_scalar nodes), times its input with a
    ones row, an activation node between layers; the output is the step's
    displacement, added to the position.  Returns the positions and the
    time-major displacements."""
    (W_e, b_e), (W_x, W_h, b) = embed, cell
    rows, hd = h0.shape
    stacked = T.concat([T.matmul(T.mul_scalar(W_e, scale), W_x), W_h,
                        T.add(T.matmul(row(b_e), W_x), row(b))], axis=0)
    A = T.take_rows(T.transpose(stacked), gate_order(hd))
    ones = T.constant(np.ones((1, rows)))
    layers = [T.concat([T.transpose(W), column(b_)], axis=1) for W, b_ in gamma]
    layers[-1] = T.mul_scalar(layers[-1], 1.0 / scale)
    h, c = T.transpose(h0), T.constant(np.zeros((hd, rows)))
    x_in = T.transpose(T.constant(np.asarray(last_disp, dtype=float)))
    pos = T.transpose(T.constant(np.asarray(last_pos, dtype=float)))
    disp_steps, pos_steps = [], []
    for _ in range(t_pred):
        h, c = lstm_activations(T.matmul(A, T.concat([x_in, h, ones], axis=0)), c)
        out = h
        for j, W in enumerate(layers):
            if j:
                out = T.activation(out, activation, slope)
            out = T.matmul(W, T.concat([out, ones], axis=0))
        pos = T.add(pos, out)
        disp_steps.append(T.transpose(out))
        pos_steps.append(T.transpose(pos))
        x_in = out
    return T.concat(pos_steps, axis=1), T.concat(disp_steps, axis=0)


def unfused_decode(h0, embed, cell, gamma, last_pos, last_disp, t_pred, scale,
                   activation="leaky_relu", slope=0.2):
    """The decoder loop as the model defines it, before any folding: each
    step scales its input, embeds it and runs ``lstm_cell``, composed of
    mul_scalar, transpose, matmul, add, ``lstm_cell``, narrow and activation
    nodes, a dozen per step, all feature-major.  ``T.lstm_rollout`` folds
    the scaling and the embedding into the cell's products, so it agrees
    with this to rounding.  Returns the positions and the time-major
    displacements."""
    rows, hd = h0.shape
    hc = T.concat([T.transpose(h0), T.constant(np.zeros((hd, rows)))], axis=0)
    x_in = T.transpose(T.constant(np.asarray(last_disp, dtype=float)))
    pos = T.transpose(T.constant(np.asarray(last_pos, dtype=float)))
    disp_steps, pos_steps = [], []
    for _ in range(t_pred):
        scaled = T.mul_scalar(x_in, scale)
        emb = T.add(T.matmul(T.transpose(embed[0]), scaled), column(embed[1]))
        hc = lstm_cell(emb, hc, *cell)
        out = T.narrow(hc, 0, 0, hd)
        for j, (W, b) in enumerate(gamma):
            if j:
                out = T.activation(out, activation, slope)
            out = T.add(T.matmul(T.transpose(W), out), column(b))
        disp = T.mul_scalar(out, 1.0 / scale)
        pos = T.add(pos, disp)
        disp_steps.append(T.transpose(disp))
        pos_steps.append(T.transpose(pos))
        x_in = disp
    return T.concat(pos_steps, axis=1), T.concat(disp_steps, axis=0)


def looped_pair_indices(counts):
    """Reference for ``model._pair_indices``: the off-diagonal entries of
    each window's agent-by-agent grid, window by window."""
    i_idx, j_idx, offset = [], [], 0
    for n in counts:
        i, j = np.nonzero(~np.eye(n, dtype=bool))
        i_idx.append(offset + i)
        j_idx.append(offset + j)
        offset += n
    return np.concatenate(i_idx), np.concatenate(j_idx)


def segment_max_ref(a, lengths, g):
    """Reference for ``T.segment_max``: each segment's column max found by a
    scan that keeps the first maximal row (the first NaN, if any), and the
    gradient ``g`` routed to that row.  An empty segment gives a zero row and
    routes nothing.  Returns (values, gradient with respect to ``a``)."""
    out = np.zeros((len(lengths), a.shape[1]))
    grad = np.zeros(a.shape)
    start = 0
    for s, n in enumerate(lengths):
        for c in range(a.shape[1]):
            best = None
            for r in range(start, start + n):
                if (best is None or a[r, c] > a[best, c]
                        or (np.isnan(a[r, c]) and not np.isnan(a[best, c]))):
                    best = r
            if best is not None:
                out[s, c] = a[best, c]
                grad[best, c] = g[s, c]
        start += n
    return out, grad


def looped_draw_noise(rng, n_agents, k, noise_dim):
    """Sample-major noise drawn one (n_agents, noise_dim) sample at a time."""
    samples = [rng.standard_normal((n_agents, noise_dim)) for _ in range(k)]
    return np.stack(samples, axis=1)


def looped_eval_report(gen, windows, k, seed=0):
    """Reference for ``evaluate.eval_min_of_k``'s scoring: every agent's best
    sample picked and scored on its own, with straight loops.  Returns
    {scope: (ade, fde, n)} for "model", "constant_velocity" and each class
    seen, as "class:<name>"."""
    rows = []  # (class index, best prediction, truth, baseline prediction)
    for i, w in enumerate(windows):
        with no_grad():
            preds = generator_forward(gen, w, k=k, rng=np.random.default_rng([seed, i]))
        trajs = preds.trajectories()
        base = constant_velocity_baseline(w)
        for a in range(w.n_agents):
            errs = [rmse_trajectory_ref(trajs[a, j], w.future[a]) for j in range(k)]
            rows.append((int(w.class_indices[a]), trajs[a, int(np.argmin(errs))],
                         w.future[a], base[a]))

    def scores(picked):
        finals = [float(np.sum((p[-1] - t[-1]) ** 2)) for p, t in picked]
        return (ade_ref([p for p, _ in picked], [t for _, t in picked]),
                float(np.sqrt(sum(finals) / len(finals))), len(picked))

    out = {"model": scores([(p, t) for _, p, t, _ in rows]),
           "constant_velocity": scores([(b, t) for _, _, t, b in rows])}
    for ci in sorted({r[0] for r in rows}):
        out[f"class:{CLASS_NAMES[ci]}"] = scores([(p, t) for c, p, t, _ in rows if c == ci])
    return out


def rmse_trajectory_ref(pred, truth):
    """Straight-loop per-trajectory RMSE: sqrt(mean_t of squared point error)."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    assert pred.shape == truth.shape
    total = 0.0
    for t in range(pred.shape[0]):
        dx = pred[t, 0] - truth[t, 0]
        dy = pred[t, 1] - truth[t, 1]
        total += dx * dx + dy * dy
    return float(np.sqrt(total / pred.shape[0]))


def ade_ref(preds, truths):
    """Mean over trajectories of per-trajectory RMSE."""
    vals = [rmse_trajectory_ref(p, t) for p, t in zip(preds, truths)]
    return float(sum(vals) / len(vals))


def fde_ref(preds, truths):
    """Root of the mean over trajectories of the final-point squared error."""
    total = 0.0
    for p, t in zip(preds, truths):
        dx = p[-1, 0] - t[-1, 0]
        dy = p[-1, 1] - t[-1, 1]
        total += dx * dx + dy * dy
    return float(np.sqrt(total / len(preds)))


def jacobi_eigh(a, sweeps=100, tol=1e-14):
    """Brute-force symmetric eigendecomposition via cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) sorted descending, columns are
    eigenvectors.  Independent of LAPACK; only suitable for small matrices.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < tol:
                    continue
                theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    order = np.argsort(np.diag(a))[::-1]
    return np.diag(a)[order], v[:, order]


class LoopedAdam:
    """Per-tensor Adam, one moment array per parameter: the reference that
    the packed ``optim.Adam`` must match bit for bit."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.epsilon = lr, beta1, beta2, epsilon
        self.t = 0
        self.m = [np.zeros(p.shape) for p in self.params]
        self.v = [np.zeros(p.shape) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * (g * g)
            m_hat, v_hat = self.m[i] / c1, self.v[i] / c2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon)
            p.grad = None


LOG_FLOOR = 1e-7


def d_loss_clamped(real_logits, fake_logits):
    """The discriminator loss as composed on probabilities: binary cross
    entropy of σ(logit), each probability clamped at ``LOG_FLOOR`` before
    its log, so the gradient of a clamped entry is exactly 0."""
    log_r = T.log(T.clamp_min(T.sigmoid(real_logits), LOG_FLOOR))
    log_f = T.log(T.clamp_min(T.add_scalar(T.neg(T.sigmoid(fake_logits)), 1.0), LOG_FLOOR))
    return T.add(T.neg(T.tmean(log_r)), T.neg(T.tmean(log_f)))


def d_loss_pair(real_logits, fake_logits):
    """The discriminator loss as two means, one per half, added: real logits
    toward label 1, fake toward 0."""
    return T.add(T.bce_logits(real_logits, 1.0), T.bce_logits(fake_logits, 0.0))


def g_adv_loss_clamped(fake_logits):
    """The non-saturating generator loss as composed on clamped probabilities."""
    return T.neg(T.tmean(T.log(T.clamp_min(T.sigmoid(fake_logits), LOG_FLOOR))))


def _batch(windows):
    return [windows] if isinstance(windows, SceneWindow) else list(windows)


def score_real(disc, windows):
    """Discriminator logits for the windows' true trajectories, (R, 1)."""
    batch = _batch(windows)
    return disc.score_steps(real_steps(batch), T.constant(stacked_onehots(batch)))


def score_fake(disc, windows, preds, sample=0):
    """Discriminator logits for one generated sample per agent, gradients
    flowing to the generator through the predicted displacements.  Picks
    the sample's rows of the time-major displacements itself, row by row."""
    assert 0 <= sample < preds.k, sample
    rows = [t * preds.n_agents * preds.k + i * preds.k + sample
            for t in range(preds.t_pred) for i in range(preds.n_agents)]
    steps = T.concat([preds.obs_steps, T.take_rows(preds.disp_steps, np.array(rows))])
    return disc.score_steps(steps, T.constant(stacked_onehots(_batch(windows))))


def grad_norm_ref(params):
    """Global L2 norm as a sum of per-tensor sums of squares."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    return float(np.sqrt(total))


def _norm_and_step(params, opt, config):
    norm = (grad_norm(params) if config.clip_norm is None
            else clip_grad_norm(params, config.clip_norm))
    opt.step()
    return norm


def _looped_generator_losses(batch, gen, config, rng, disc=None):
    scores, norms = [], []
    for w in batch:
        preds = generator_forward(gen, w, k=config.k, rng=rng)
        if disc is not None:
            scores.append(score_fake(disc, w, preds, sample=0))
        norms.append(variety_norms(w.future, preds))
    return T.tmean(T.concat(norms, axis=0)), scores


def looped_train_step_gan(batch, gen, disc, g_opt, d_opt, config, rng):
    """Reference GAN step that gives every window its own encoder, pooling,
    decoder and discriminator passes: one discriminator update, then one
    generator update, each on a tape of its own.  Returns the record's loss
    and norm fields as a dict."""
    with Tape():
        real, fake = [], []
        for w in batch:
            with no_grad():
                preds = generator_forward(gen, w, k=1, rng=rng)
            real.append(score_real(disc, w))
            fake.append(score_fake(disc, w, preds, sample=0))
        loss_d = d_loss(T.concat(real + fake, axis=0), sum(w.n_agents for w in batch))
        backward(loss_d)
    grad_norm_d = _norm_and_step(disc.parameters(), d_opt, config)
    for p in disc.parameters():
        p.requires_grad = False
    with Tape():
        var, scores = _looped_generator_losses(batch, gen, config, rng, disc)
        adv = g_adv_loss(T.concat(scores, axis=0))
        loss_g = T.add(adv, var)
        backward(loss_g)
    grad_norm_g = _norm_and_step(gen.parameters(), g_opt, config)
    for p in disc.parameters():
        p.requires_grad = True
    return dict(d_loss=float(loss_d.data), g_adv=float(adv.data), variety=float(var.data),
                grad_norm_g=grad_norm_g, grad_norm_d=grad_norm_d)


def two_encoding_train_step_gan(batch, gen, disc, g_opt, d_opt, config, rng):
    """Reference packed step that encodes the batch anew for each pass: the
    discriminator update samples its fakes from an encoding made under
    ``no_grad``, on a tape of its own, and the generator update encodes on
    its tape.  ``disc=None`` and ``d_opt=None`` give the noGAN step.
    Returns a StepRecord with ``seconds`` 0."""
    d_val = d_norm = None
    if disc is not None:
        with Tape():
            with no_grad():
                preds = generator_forward(gen, batch, k=1, rng=rng)
            rows = preds.n_agents
            real, fake = (s.data.reshape(-1, rows, 2)
                          for s in (real_steps(batch), fake_steps(preds)))
            steps = T.constant(np.concatenate([real, fake], axis=1).reshape(-1, 2))
            onehots = stacked_onehots(batch)
            loss_d = d_loss(disc.score_steps(
                steps, T.constant(np.concatenate([onehots, onehots]))), rows)
            backward(loss_d)
        d_val = float(loss_d.data)
        d_norm = _norm_and_step(disc.parameters(), d_opt, config)
    frozen = [] if disc is None else disc.parameters()
    for p in frozen:
        p.requires_grad = False
    with Tape():
        preds = generator_forward(gen, batch, k=config.k, rng=rng)
        var = variety_loss(np.concatenate([w.future for w in batch]), preds)
        adv = None if disc is None else g_adv_loss(score_fake(disc, batch, preds))
        loss_g = var if adv is None else T.add(adv, var)
        backward(loss_g)
    g_norm = _norm_and_step(gen.parameters(), g_opt, config)
    for p in frozen:
        p.requires_grad = True
    return StepRecord(0, 0, d_val, None if adv is None else float(adv.data),
                      float(var.data), g_norm, d_norm, 0.0)


def looped_train_step_nogan(batch, gen, g_opt, config, rng):
    """Reference variety-only step, one generator pass per window."""
    with Tape():
        loss, _ = _looped_generator_losses(batch, gen, config, rng)
        backward(loss)
    return dict(d_loss=None, g_adv=None, variety=float(loss.data),
                grad_norm_g=_norm_and_step(gen.parameters(), g_opt, config),
                grad_norm_d=None)


# ---------------------------------------------------------------------------
# data pipeline

def _check_line_ref(line, ln):
    """Check every field of one annotation line, in the order they come.

    Returns ``(lost, occluded, generated, label)`` from the line's last four
    fields; raises AnnotationParseError for the first field at fault.
    """
    parts = line.split(None, 9)
    if len(parts) != 10:
        raise AnnotationParseError(f"expected 10 fields, got {len(parts)}", ln)
    try:
        int(parts[0])
        bbox = tuple(float(p) for p in parts[1:5])
        int(parts[5])
        lost, occluded, generated = (int(p) != 0 for p in parts[6:9])
    except ValueError as e:
        raise AnnotationParseError(str(e), ln) from None
    if not all(math.isfinite(v) for v in bbox):
        raise AnnotationParseError(f"bbox not finite: {bbox}", ln)
    if bbox[0] > bbox[2] or bbox[1] > bbox[3]:
        raise AnnotationParseError(f"bbox not ordered: {bbox}", ln)
    raw_label = parts[9].strip().strip('"')
    label = raw_label.strip().lower()
    label = LABEL_ALIASES.get(label, label)
    if label not in CLASS_NAMES:
        raise UnknownLabelError(f"unknown class label {raw_label!r}", ln)
    return lost, occluded, generated, label


class RawAnnotation(NamedTuple):
    """One annotated box that was not lost, as one record: the row form of
    ``AnnotationColumns``, for comparing parses field by field."""

    track_id: int
    bbox: tuple  # (xmin, ymin, xmax, ymax)
    frame: int
    occluded: bool
    generated: bool
    label: str  # canonical class name


def records(columns):
    """The RawAnnotations of ``AnnotationColumns``, one per kept line."""
    n = len(columns)
    assert len(columns.track_ids) == len(columns.tails) == n and len(columns.boxes) == 4 * n
    boxes = columns.boxes
    return [RawAnnotation(columns.track_ids[k], tuple(boxes[4 * k:4 * k + 4]),
                          columns.frames[k], *columns.tails[k]) for k in range(n)]


def columns(records):
    """``AnnotationColumns`` holding ``records``, the inverse of ``records()``
    (``n_lines`` counts one line per record)."""
    out = AnnotationColumns(n_lines=len(records))
    for a in records:
        out.track_ids.append(a.track_id)
        out.frames.append(a.frame)
        out.boxes.extend(a.bbox)
        out.tails.append((a.occluded, a.generated, a.label))
    return out


def parse_annotations_ref(source):
    """The two-pass annotation parser: a line whose last four fields are new
    is first checked in full, field by field, and then converted again.
    ``trajgan.data.parse_annotations`` must give columns that hold the same
    records, or raise the same error class with the same line and message.
    A string is split into lines at CR LF, CR and LF, as a text-mode file
    is."""
    lines = (source.replace("\r\n", "\n").replace("\r", "\n").split("\n")
             if isinstance(source, str) else source)
    tails = {}
    out = []
    for ln, line in enumerate(lines, start=1):
        parts = line.split(None, 6)
        tail = tails.get(parts[6]) if len(parts) == 7 else None
        if tail is None:
            if not parts:
                continue
            tail = tails[parts[6]] = _check_line_ref(line, ln)
        try:
            track_id = int(parts[0])
            xmin = float(parts[1])
            ymin = float(parts[2])
            xmax = float(parts[3])
            ymax = float(parts[4])
            frame = int(parts[5])
        except ValueError as e:
            raise AnnotationParseError(str(e), ln) from None
        if not all(math.isfinite(v) for v in (xmin, ymin, xmax, ymax)):
            raise AnnotationParseError(f"bbox not finite: {(xmin, ymin, xmax, ymax)}", ln)
        if xmin > xmax or ymin > ymax:
            raise AnnotationParseError(f"bbox not ordered: {(xmin, ymin, xmax, ymax)}", ln)
        lost, occluded, generated, label = tail
        if lost:
            continue
        out.append(RawAnnotation(track_id, (xmin, ymin, xmax, ymax), frame,
                                 occluded, generated, label))
    return out


def serialize_annotations(annotations):
    """Inverse of ``trajgan.data.parse_annotations`` on well-formed records,
    written as not lost."""
    lines = []
    for a in annotations:
        bbox = " ".join(repr(float(v)) for v in a.bbox)
        lines.append(f'{a.track_id} {bbox} {a.frame} 0 '
                     f'{int(a.occluded)} {int(a.generated)} "{a.label}"')
    return "\n".join(lines) + ("\n" if lines else "")


def looped_build_tracks(annotations):
    """Per-record grouping into tracks: a dict per track id, a set for the
    frames already seen (the first record of a frame wins), a cut at every
    gap."""
    by_id = {}
    for a in annotations:
        by_id.setdefault(a.track_id, []).append(a)
    tracks = []
    for tid in sorted(by_id):
        rows = sorted(by_id[tid], key=lambda a: a.frame)
        seen = set()
        frames, pts = [], []
        label = rows[0].label
        for a in rows:
            if a.frame in seen:
                continue
            seen.add(a.frame)
            frames.append(a.frame)
            xmin, ymin, xmax, ymax = a.bbox
            pts.append(((xmin + xmax) / 2.0, (ymin + ymax) / 2.0))
        frames = np.asarray(frames, dtype=np.int64)
        pts = np.asarray(pts)
        cuts = np.flatnonzero(np.diff(frames) != 1)
        start = 0
        for cut in list(cuts) + [frames.size - 1]:
            end = cut + 1
            tracks.append(AgentTrack(tid, label, frames[start:end], pts[start:end]))
            start = end
    return [t for t in tracks if len(t) > 0]


def looped_build_windows(tracks_by_scene, t_obs, t_pred):
    """Window membership by looking up every frame of the span in a
    frame -> row dict of every track, for every start frame of the scene."""
    span = t_obs + t_pred
    windows = []
    for scene_id in sorted(tracks_by_scene):
        tracks = tracks_by_scene[scene_id]
        steps = {int(d) for t in tracks for d in np.diff(t.frames)}
        if len(steps) > 1:
            raise DataError(f"scene {scene_id}: inconsistent frame steps {sorted(steps)}")
        step = steps.pop() if steps else 1
        frame_to_row = [dict(zip(t.frames.tolist(), range(len(t)))) for t in tracks]
        all_frames = sorted({int(f) for t in tracks for f in t.frames})
        for start in all_frames:
            span_frames = [start + i * step for i in range(span)]
            members = []
            for ti, t in enumerate(tracks):
                rows = frame_to_row[ti]
                if all(f in rows for f in span_frames):
                    members.append((t.track_id, ti, rows[start]))
            if not members:
                continue
            members.sort()
            ids, cls, obs, fut = [], [], [], []
            for tid, ti, row0 in members:
                t = tracks[ti]
                pts = t.xy[row0:row0 + span]
                ids.append(tid)
                cls.append(t.class_idx)
                obs.append(pts[:t_obs])
                fut.append(pts[t_obs:])
            windows.append(SceneWindow(scene_id, start, step, tuple(ids),
                                       np.array(cls), np.array(obs), np.array(fut)))
    return windows


def csv_writer_windows_text(windows):
    """The window CSV text with every row, numbers included, passed through
    csv.writer."""
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(WINDOW_CSV_HEADER)
    for win in windows:
        pts = win.points()
        for ai, aid in enumerate(win.agent_ids):
            for t in range(pts.shape[1]):
                w.writerow([win.scene_id, win.window_id, aid,
                            int(win.class_indices[ai]), t,
                            repr(float(pts[ai, t, 0])), repr(float(pts[ai, t, 1])),
                            int(t >= win.t_obs), win.frame_step])
    return out.getvalue()
