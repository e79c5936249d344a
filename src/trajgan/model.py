"""Seq2seq trajectory models: class-conditioned encoders, social pooling,
noise-driven decoder, and the discriminator that scores whole trajectories.

All sequence inputs are per-step displacements (first step zero); absolute
positions are rebuilt by summing displacements onto the last observed point.
One encoder is shared across all agent classes; class identity enters only
through the embeddings.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .data import N_CLASSES, SceneWindow, displacements, open_text, write_atomic
from .tensor import ContractError, Tensor

ENCODER_KINDS = ("lstm", "transformer")


class ConfigError(ValueError):
    pass


class LabelsUnavailableError(RuntimeError):
    """Raised when class-embedding inspection is asked of a label-free model."""


class CheckpointError(ValueError):
    pass


@dataclass
class ModelConfig:
    embed_dim: int = 16
    class_embed_dim: int = 16
    hidden_dim: int = 32
    noise_dim: int = 8
    pool_dim: int = 32
    # coordinates are multiplied by this before any embedding so that
    # pixel-scale inputs do not saturate the recurrent gates at init
    input_scale: float = 0.02
    encoder: str = "lstm"
    use_labels: bool = True
    activation: str = "leaky_relu"
    leaky_slope: float = 0.2
    transformer_heads: int = 4
    transformer_layers: int = 4
    transformer_ff_dim: int = 64
    gamma_mlp_hidden: tuple = (32,)
    pooling_mlp_hidden: tuple = (32,)
    decoder_init_mlp_hidden: tuple = (32,)
    classifier_mlp_hidden: tuple = (32,)

    def __post_init__(self):
        self.gamma_mlp_hidden = tuple(self.gamma_mlp_hidden)
        self.pooling_mlp_hidden = tuple(self.pooling_mlp_hidden)
        self.decoder_init_mlp_hidden = tuple(self.decoder_init_mlp_hidden)
        self.classifier_mlp_hidden = tuple(self.classifier_mlp_hidden)

    def validate(self):
        if self.encoder not in ENCODER_KINDS:
            raise ConfigError(f"encoder must be one of {ENCODER_KINDS}, got {self.encoder!r}")
        if self.activation not in T.ACTIVATIONS:
            raise ConfigError(f"activation must be one of {T.ACTIVATIONS}, "
                              f"got {self.activation!r}")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ConfigError(f"leaky_slope must lie in (0, 1), got {self.leaky_slope}")
        if not (math.isfinite(self.input_scale) and self.input_scale > 0.0):
            raise ConfigError(f"input_scale must be positive and finite, "
                              f"got {self.input_scale}")
        dims = [self.embed_dim, self.class_embed_dim, self.hidden_dim,
                self.noise_dim, self.pool_dim, self.transformer_heads,
                self.transformer_layers, self.transformer_ff_dim]
        if any(d < 1 for d in dims):
            raise ConfigError("all model dimensions must be positive")
        for name in ("gamma_mlp_hidden", "pooling_mlp_hidden", "decoder_init_mlp_hidden",
                     "classifier_mlp_hidden"):
            if any(w < 1 for w in getattr(self, name)):
                raise ConfigError(f"{name} widths must be positive, "
                                  f"got {list(getattr(self, name))}")
        if self.encoder == "transformer" and self.hidden_dim % self.transformer_heads:
            raise ConfigError(f"hidden_dim {self.hidden_dim} not divisible by "
                              f"{self.transformer_heads} attention heads")
        return self


# ---------------------------------------------------------------------------
# building blocks

def _uniform_init(rng, fan_in, shape):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, shape)


class Linear:
    def __init__(self, in_dim, out_dim, rng):
        self.W = Tensor(_uniform_init(rng, in_dim, (in_dim, out_dim)), requires_grad=True)
        self.b = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x):
        return T.mlp(x, [(self.W, self.b)])

    def named_parameters(self, prefix):
        return {f"{prefix}.W": self.W, f"{prefix}.b": self.b}


class MLP:
    """Stack of Linears with the configured nonlinearity between them, run
    as one ``T.mlp`` node.  A ``taps`` list passed to a call receives the
    backward's gradient at each hidden pre-activation (see ``T.mlp``)."""

    def __init__(self, dims, rng, activation="leaky_relu", slope=0.2):
        if len(dims) < 2:
            raise ConfigError(f"MLP needs at least input and output dims, got {dims}")
        self.layers = [Linear(a, b, rng) for a, b in zip(dims[:-1], dims[1:])]
        self.activation = activation
        self.slope = slope

    def __call__(self, x, taps=None):
        return T.mlp(x, [(layer.W, layer.b) for layer in self.layers], self.activation,
                     self.slope, taps)

    def named_parameters(self, prefix):
        out = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.named_parameters(f"{prefix}.{i}"))
        return out


class LSTMCell:
    """Single LSTM cell, run over whole sequences at once.

    The gate blocks of ``W_x``, ``W_h`` and ``b`` are stored in the order
    (input, forget, cell, output), which checkpoints keep.  The ops'
    forward computes feature-major in the order (input, forget, output,
    cell) and permutes the weights once per call (see
    ``tensor.lstm_sequence``); their backward works in the stored order.
    Forget-gate bias starts at 1 so early training does not erase state.
    """

    def __init__(self, input_dim, hidden_dim, rng):
        h = hidden_dim
        self.W_x = Tensor(_uniform_init(rng, input_dim, (input_dim, 4 * h)),
                          requires_grad=True)
        self.W_h = Tensor(_uniform_init(rng, h, (h, 4 * h)), requires_grad=True)
        bias = np.zeros(4 * h)
        bias[h:2 * h] = 1.0
        self.b = Tensor(bias, requires_grad=True)

    def run(self, x, rows):
        """Run ``rows`` sequences from a zero state; ``x`` holds their
        (T*rows, input_dim) steps time-major (row t*rows + r is step t of
        sequence r).  Returns the (rows, hidden_dim) final hidden state."""
        return T.lstm_sequence(x, self.W_x, self.W_h, self.b, rows)

    def named_parameters(self, prefix):
        return {f"{prefix}.W_x": self.W_x, f"{prefix}.W_h": self.W_h,
                f"{prefix}.b": self.b}


class LayerNorm:
    def __init__(self, dim, eps=1e-5):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.eps = eps

    def __call__(self, x):
        return T.layer_norm(x, self.gamma, self.beta, self.eps)

    def named_parameters(self, prefix):
        return {f"{prefix}.gamma": self.gamma, f"{prefix}.beta": self.beta}


@functools.lru_cache(maxsize=None)
def sinusoidal_positions(length, dim):
    """Fixed sin/cos positional code, shape (length, dim).  Cached per
    (length, dim); read-only."""
    pos = np.arange(length)[:, None]
    idx = np.arange(dim)[None, :]
    angles = pos / np.power(10000.0, 2.0 * (idx // 2) / dim)
    pe = np.where(idx % 2 == 0, np.sin(angles), np.cos(angles))
    pe.flags.writeable = False
    return pe


class MultiHeadAttention:
    """Multi-head self-attention over time of ``groups`` sequences at once.

    The key projection has no bias: it would add the same amount to every
    score of a query, which softmax ignores.
    """

    def __init__(self, hidden_dim, heads, rng):
        if hidden_dim % heads:
            raise ConfigError(f"hidden_dim {hidden_dim} not divisible by {heads} heads")
        self.heads = heads
        self.Wq = Linear(hidden_dim, hidden_dim, rng)
        self.Wk = Tensor(_uniform_init(rng, hidden_dim, (hidden_dim, hidden_dim)),
                         requires_grad=True)
        self.Wv = Linear(hidden_dim, hidden_dim, rng)
        self.Wo = Linear(hidden_dim, hidden_dim, rng)

    def __call__(self, x, groups=1, queries=None):
        """``x`` holds ``groups`` sequences in time-major rows (row
        t*groups + g).  ``queries``, by default ``x``, holds the rows, in
        the same order, that attend: every step's or fewer.  Returns one
        output row per query row."""
        queries = x if queries is None else queries
        out = T.grouped_attention(self.Wq(queries), T.matmul(x, self.Wk), self.Wv(x),
                                  self.heads, groups)
        return self.Wo(out)

    def named_parameters(self, prefix):
        out = self.Wq.named_parameters(f"{prefix}.q")
        out[f"{prefix}.k.W"] = self.Wk
        out.update(self.Wv.named_parameters(f"{prefix}.v"))
        out.update(self.Wo.named_parameters(f"{prefix}.o"))
        return out


class TransformerEncoder:
    """Post-norm transformer: (self-attention, residual, LN, FF, residual, LN)
    per layer, sinusoidal positions added to the input projection.
    """

    def __init__(self, in_dim, config, rng):
        cfg = config
        self.config = cfg
        self.in_proj = Linear(in_dim, cfg.hidden_dim, rng)
        self.layers = []
        for _ in range(cfg.transformer_layers):
            self.layers.append({
                "mha": MultiHeadAttention(cfg.hidden_dim, cfg.transformer_heads, rng),
                "ln1": LayerNorm(cfg.hidden_dim),
                "ff1": Linear(cfg.hidden_dim, cfg.transformer_ff_dim, rng),
                "ff2": Linear(cfg.transformer_ff_dim, cfg.hidden_dim, rng),
                "ln2": LayerNorm(cfg.hidden_dim),
            })

    def run(self, seq, rows):
        """(T*rows, in_dim) sequences of ``rows`` agents in time-major rows
        (row t*rows + r is step t of agent r) to (rows, hidden_dim)
        summaries, the last step's outputs; each agent attends only over
        its own steps.

        Only the last step's rows leave the last layer, so that layer runs
        its queries, attention read-out, output projection, residuals, norms
        and feed-forward on those rows alone; its keys and values still read
        every step.  Every operation there is row by row, so those rows have
        the values of running every step's rows through.
        """
        length = seq.shape[0] // rows
        pe = np.repeat(sinusoidal_positions(length, self.config.hidden_dim), rows, axis=0)
        x = T.add(self.in_proj(seq), T.constant(pe))
        for j, layer in enumerate(self.layers):
            q = T.narrow(x, 0, (length - 1) * rows, rows) if j == len(self.layers) - 1 else x
            x = layer["ln1"](T.add(q, layer["mha"](x, rows, q)))
            ff = T.mlp(x, [(layer[k].W, layer[k].b) for k in ("ff1", "ff2")],
                       self.config.activation, self.config.leaky_slope)
            x = layer["ln2"](T.add(x, ff))
        return x

    def named_parameters(self, prefix):
        out = self.in_proj.named_parameters(f"{prefix}.in_proj")
        for i, layer in enumerate(self.layers):
            for name, comp in layer.items():
                out.update(comp.named_parameters(f"{prefix}.{i}.{name}"))
        return out


# ---------------------------------------------------------------------------
# sequence encoder shared by generator and discriminator

class SequenceEncoder:
    """Embeds (displacement, class) steps and summarizes them to one hidden
    state per agent.  The recurrent/attention weights are shared across all
    classes; class identity enters only through the embeddings.
    """

    def __init__(self, config, rng):
        self.config = config
        spatial_in = 2 + (N_CLASSES if config.use_labels else 0)
        self.spatial = Linear(spatial_in, config.embed_dim, rng)
        self.class_embed = Linear(N_CLASSES, config.class_embed_dim, rng) \
            if config.use_labels else None
        e_dim = config.embed_dim + (config.class_embed_dim if config.use_labels else 0)
        self.core = LSTMCell(e_dim, config.hidden_dim, rng) if config.encoder == "lstm" \
            else TransformerEncoder(e_dim, config, rng)

    def embed_step(self, xy, onehots):
        """(M, 2) displacements + (M, 6) one-hots -> (M, e_dim), row by row."""
        xy = T.mul_scalar(xy, self.config.input_scale)
        if not self.config.use_labels:
            return self.spatial(xy)
        s = self.spatial(T.concat([xy, onehots], axis=1))
        return T.concat([s, self.class_embed(onehots)], axis=1)

    def encode(self, xy, onehots):
        """(T*R, 2) displacements of R agents, time-major (row t*R + r is
        step t of agent r), and their (R, 6) one-hots -> (R, hidden_dim)
        summaries.  Every step of every agent is embedded in one call."""
        rows = onehots.shape[0]
        e = self.embed_step(xy, T.take_rows(onehots, np.tile(np.arange(rows),
                                                             xy.shape[0] // rows)))
        return self.core.run(e, rows)

    def named_parameters(self, prefix):
        out = self.spatial.named_parameters(f"{prefix}.spatial")
        if self.class_embed is not None:
            out.update(self.class_embed.named_parameters(f"{prefix}.class_embed"))
        out.update(self.core.named_parameters(f"{prefix}.{self.config.encoder}"))
        return out


def _pair_indices(counts):
    """Row pairs (i, j), j != i, of the agents of each window, for windows of
    ``counts`` agents stacked in order: grouped by i, j ascending within a
    group, at global row offsets.  Returns the i and j index arrays."""
    counts = np.asarray(counts, dtype=np.intp)
    first = np.repeat(np.cumsum(counts) - counts, counts)  # window start, per row
    partners = np.repeat(counts - 1, counts)
    i = np.repeat(np.arange(first.size), partners)
    # the k-th partner of row i is the k-th row of its window, i skipped
    k = np.arange(i.size) - np.repeat(np.cumsum(partners) - partners, partners)
    j = np.repeat(first, partners) + k
    j += j >= i
    return i, j


class PoolingModule:
    """Permutation-invariant social context: embed relative positions of the
    other agents in the same window, join with their hidden states, and take
    an elementwise max.  A lone agent pools to a zero vector.
    """

    def __init__(self, config, rng):
        self.config = config
        self.pos_embed = Linear(2, config.embed_dim, rng)
        dims = (config.embed_dim + config.hidden_dim,) + config.pooling_mlp_hidden \
            + (config.pool_dim,)
        self.mlp = MLP(dims, rng, config.activation, config.leaky_slope)

    def __call__(self, hidden, positions):
        """Pool ``hidden`` (R, hidden_dim) rows window by window.

        ``positions`` is one (n, 2) array for a single window, or a list of
        per-window (n_w, 2) arrays whose rows stack to the R rows of
        ``hidden``.  Returns (R, pool_dim).
        """
        if isinstance(positions, np.ndarray) and positions.ndim == 2:
            positions = [positions]
        counts = np.array([len(p) for p in positions], dtype=np.intp)
        if counts.sum() != hidden.shape[0]:
            raise ContractError(f"{counts.sum()} positions for {hidden.shape[0]} hidden rows")
        i_idx, j_idx = _pair_indices(counts)
        pos = np.concatenate([np.asarray(p, dtype=float) for p in positions])
        rel_emb = self.pos_embed(T.constant((pos[j_idx] - pos[i_idx]) * self.config.input_scale))
        feats = self.mlp(T.concat([rel_emb, T.take_rows(hidden, j_idx)], axis=1))
        # row i is the max over its own run of n - 1 pair rows; a lone agent's
        # run is empty and pools to a zero row
        return T.segment_max(feats, np.repeat(counts - 1, counts))

    def named_parameters(self, prefix):
        out = self.pos_embed.named_parameters(f"{prefix}.pos_embed")
        out.update(self.mlp.named_parameters(f"{prefix}.mlp"))
        return out


class Decoder:
    """Autoregressive displacement decoder.  The initial hidden state mixes
    the encoder summary, pooled context, and the noise sample; each predicted
    displacement is fed back as the next input.  No teacher forcing.
    """

    def __init__(self, config, rng):
        self.config = config
        init_dims = (config.hidden_dim + config.pool_dim + config.noise_dim,) \
            + config.decoder_init_mlp_hidden + (config.hidden_dim,)
        self.init_mlp = MLP(init_dims, rng, config.activation, config.leaky_slope)
        self.embed = Linear(2, config.embed_dim, rng)
        self.cell = LSTMCell(config.embed_dim, config.hidden_dim, rng)
        gamma_dims = (config.hidden_dim,) + config.gamma_mlp_hidden + (2,)
        self.gamma = MLP(gamma_dims, rng, config.activation, config.leaky_slope)

    def decode(self, hidden, pooled, noise, last_pos, last_disp, t_pred):
        """Roll the decoder forward ``t_pred`` steps in one ``T.lstm_rollout``.

        Returns (trajectory, displacements): the (rows, 2*t_pred) absolute
        positions and the (t_pred*rows, 2) displacements in time-major order
        (row t*rows + r is step t of row r).  ``gamma`` works in the scaled
        coordinate system; displacements leave the decoder in data units.
        """
        cfg = self.config
        h0 = self.init_mlp(T.concat([hidden, pooled, noise], axis=1))
        return T.lstm_rollout(
            h0, (self.embed.W, self.embed.b), (self.cell.W_x, self.cell.W_h, self.cell.b),
            [(layer.W, layer.b) for layer in self.gamma.layers], last_pos, last_disp,
            t_pred, cfg.input_scale, cfg.activation, cfg.leaky_slope)

    def named_parameters(self, prefix):
        out = self.init_mlp.named_parameters(f"{prefix}.init_mlp")
        out.update(self.embed.named_parameters(f"{prefix}.embed"))
        out.update(self.cell.named_parameters(f"{prefix}.cell"))
        out.update(self.gamma.named_parameters(f"{prefix}.gamma"))
        return out


# ---------------------------------------------------------------------------
# generator and discriminator

class Generator:
    def __init__(self, config, rng):
        config.validate()
        self.config = config
        self.encoder = SequenceEncoder(config, rng)
        self.pooling = PoolingModule(config, rng)
        self.decoder = Decoder(config, rng)

    def named_parameters(self):
        out = self.encoder.named_parameters("encoder")
        out.update(self.pooling.named_parameters("pooling"))
        out.update(self.decoder.named_parameters("decoder"))
        return out

    def parameters(self):
        return list(self.named_parameters().values())


class Discriminator:
    """Encodes a whole (observed + future) trajectory with its own encoder
    and classifies it real/fake through an MLP whose output is a logit.
    """

    def __init__(self, config, rng):
        config.validate()
        self.config = config
        self.encoder = SequenceEncoder(config, rng)
        dims = (config.hidden_dim,) + config.classifier_mlp_hidden + (1,)
        self.classifier = MLP(dims, rng, config.activation, config.leaky_slope)

    def score_steps(self, steps, onehots, taps=None):
        """Real-vs-fake logits of the (T*R, 2) time-major displacements of R
        trajectories with their (R, 6) one-hots, as an (R, 1) tensor; a
        ``taps`` list goes to the classifier (see ``MLP``)."""
        return self.classifier(self.encoder.encode(steps, onehots), taps)

    def named_parameters(self):
        out = self.encoder.named_parameters("encoder")
        out.update(self.classifier.named_parameters("classifier"))
        return out

    def parameters(self):
        return list(self.named_parameters().values())


def build_generator(config, seed):
    return Generator(config, np.random.default_rng(seed))


def build_discriminator(config, seed):
    return Discriminator(config, np.random.default_rng(seed))


def _time_major_steps(points):
    """Displacements of (N, T, 2) points as one constant (T*N, 2) tensor,
    row t*N + i holding step t of trajectory i."""
    return T.constant(displacements(points).transpose(1, 0, 2).reshape(-1, 2))


def _as_batch(windows):
    """One SceneWindow or a sequence of them as a non-empty list of windows
    that share t_obs and t_pred, so their agents stack into one set of rows."""
    batch = [windows] if isinstance(windows, SceneWindow) else list(windows)
    if not batch:
        raise ContractError("no windows given")
    lengths = {(w.t_obs, w.t_pred) for w in batch}
    if len(lengths) > 1:
        raise ContractError(f"windows differ in (t_obs, t_pred): {sorted(lengths)}")
    return batch


def stacked_onehots(batch):
    """Class one-hots of every agent of every window, (R, N_CLASSES)."""
    return np.concatenate([w.onehots() for w in batch])


@dataclass
class PredictionSet:
    """k sampled future trajectories per agent plus the noise that made them.

    The agents of all windows of a batch are stacked as rows in batch order.
    ``traj`` holds absolute positions as a (n_agents*k, 2*t_pred) tensor
    with rows grouped agent-major: row i*k + j is sample j of agent i.
    ``disp_steps`` holds the predicted displacements as one
    (t_pred*n_agents*k, 2) tensor in time-major order: row t*n_agents*k + i*k
    + j is step t of sample j of agent i.  ``obs_steps`` is the
    (t_obs*n_agents, 2) constant of observed displacements the encoder read,
    row t*n_agents + i.
    """

    n_agents: int
    k: int
    t_pred: int
    noise: np.ndarray  # (n_agents, k, noise_dim)
    traj: Tensor
    disp_steps: Tensor = None
    obs_steps: Tensor = None

    def trajectories(self):
        """(n_agents, k, t_pred, 2) predicted absolute positions."""
        return self.traj.data.reshape(self.n_agents, self.k, self.t_pred, 2)


def draw_noise(rng, n_agents, k, noise_dim):
    """(n_agents, k, noise_dim) normal draws, sample-major so the first
    samples coincide across different k: one draw of k (n_agents,
    noise_dim) blocks, the values of k draws of one block each."""
    return rng.standard_normal((k, n_agents, noise_dim)).transpose(1, 0, 2)


class Encoding(NamedTuple):
    """A batch's agents as the generator's encoder and pooling see them,
    stacked as rows in batch order."""

    observed: np.ndarray  # (R, t_obs, 2) observed points
    obs_steps: Tensor     # (t_obs*R, 2) time-major observed displacements, a constant
    hidden: Tensor        # (R, hidden_dim) encoder summaries
    pooled: Tensor        # (R, pool_dim) social context


def encode_windows(gen, windows):
    """Encode and pool the agents of one SceneWindow or a sequence of them
    sharing t_obs and t_pred, pooling inside each window.  The result
    depends on the generator's parameters and the windows only, so every
    ``generator_forward`` on the same parameters and batch can share it."""
    batch = _as_batch(windows)
    observed = np.concatenate([w.observed for w in batch])
    obs_steps = _time_major_steps(observed)
    hidden = gen.encoder.encode(obs_steps, T.constant(stacked_onehots(batch)))
    pooled = gen.pooling(hidden, [w.observed[:, -1] for w in batch])
    return Encoding(observed, obs_steps, hidden, pooled)


def generator_forward(gen, windows, k, rng=None, z=None, encoded=None):
    """Encode, pool and decode k noise samples per agent for a batch of
    windows in one pass over all their agents.

    ``windows`` is one SceneWindow or a sequence of them sharing t_obs and
    t_pred; pooling stays inside each window.  ``encoded`` is their
    ``encode_windows`` on the generator's current parameters, which is
    computed here when not given.  ``z`` overrides the noise with a given
    (n_agents, k, noise_dim) array over the stacked agents; otherwise
    ``rng`` supplies it, drawn window by window in batch order.
    """
    cfg = gen.config
    batch = _as_batch(windows)
    if k < 1:
        raise ContractError(f"need k >= 1 samples, got {k}")
    counts = [w.n_agents for w in batch]
    n = sum(counts)
    t_pred = batch[0].t_pred
    if z is None:
        if rng is None:
            raise ContractError("generator_forward needs either rng or z")
        z = np.concatenate([draw_noise(rng, c, k, cfg.noise_dim) for c in counts])
    z = np.asarray(z, dtype=float)
    if z.shape != (n, k, cfg.noise_dim):
        raise ContractError(f"noise shape {z.shape} != {(n, k, cfg.noise_dim)}")

    observed, obs_steps, hidden, pooled = \
        encode_windows(gen, batch) if encoded is None else encoded
    if hidden.shape[0] != n:
        raise ContractError(f"encoding of {hidden.shape[0]} agents for a batch of {n}")

    idx = np.repeat(np.arange(n), k)
    traj, disp_steps = gen.decoder.decode(
        T.take_rows(hidden, idx), T.take_rows(pooled, idx),
        T.constant(z.reshape(n * k, cfg.noise_dim)),
        observed[idx, -1],
        observed[idx, -1] - observed[idx, -2],
        t_pred)
    return PredictionSet(n, k, t_pred, z, traj, disp_steps, obs_steps)


def real_steps(windows):
    """Displacements of every window's true trajectories, agents stacked, as
    one time-major (T*R, 2) constant."""
    return _time_major_steps(np.concatenate([w.points() for w in _as_batch(windows)]))


def fake_steps(preds):
    """Observed steps followed by the steps of each agent's first generated
    sample, as one time-major (T*n_agents, 2) tensor."""
    rows = np.arange(preds.t_pred)[:, None] * (preds.n_agents * preds.k) \
        + np.arange(preds.n_agents) * preds.k
    return T.concat([preds.obs_steps, T.take_rows(preds.disp_steps, rows.reshape(-1))])


def class_embedding_matrix(gen):
    """Embedding of each class one-hot, rows in canonical class order."""
    enc = gen.encoder
    if enc.class_embed is None:
        raise LabelsUnavailableError("model was built without class labels")
    with T.no_grad():
        return enc.class_embed(T.constant(np.eye(N_CLASSES))).data.copy()


# ---------------------------------------------------------------------------
# checkpoints

# version 2 dropped the attention key bias (`*.mha.k.b`), which no output
# depends on; version-1 files load without it
CHECKPOINT_VERSION = 2


def snapshot_params(model):
    """Copies of a model's parameter arrays, keyed like named_parameters()."""
    return {name: p.data.copy() for name, p in model.named_parameters().items()}


def restore_params(model, values, source="snapshot"):
    """Assign ``values`` (shaped like snapshot_params output) into ``model``.

    Parameters are written in place, so arrays that view them stay valid.
    Names and shapes must match the model; ``source`` names the values in
    the CheckpointError raised otherwise.
    """
    named = model.named_parameters()
    mismatched = sorted(set(named) ^ set(values))
    if mismatched:
        raise CheckpointError(f"{source} parameter names do not match the model: "
                              f"{mismatched[:6]}")
    for name, p in named.items():
        arr = np.asarray(values[name], dtype=float)
        if arr.shape != p.data.shape:
            raise CheckpointError(f"{source} shape {arr.shape} for {name!r} does not "
                                  f"match model shape {p.data.shape}")
        p.data[...] = arr


def _json_params(model):
    return {name: {"shape": list(a.shape), "values": a.reshape(-1).tolist()}
            for name, a in snapshot_params(model).items()}


def save_checkpoint(path, gen, disc=None, config_dict=None, meta=None):
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": config_dict or {},
        "meta": meta or {},
        "generator": _json_params(gen),
        "discriminator": _json_params(disc) if disc is not None else None,
    }
    write_atomic(path, json.dumps(payload, sort_keys=True) + "\n")


def load_checkpoint_payload(path):
    with open_text(path, "checkpoint", CheckpointError) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"checkpoint {path} does not hold a JSON object")
    version = payload.get("format_version")
    if type(version) is not int or version not in (1, CHECKPOINT_VERSION):  # not bool, not 1.0
        raise CheckpointError(f"unsupported checkpoint format_version {version!r}; "
                              f"this build reads versions 1 to {CHECKPOINT_VERSION}")
    if version == 1:
        for key in ("generator", "discriminator"):
            if isinstance(payload.get(key), dict):
                payload[key] = {name: rec for name, rec in payload[key].items()
                                if not name.endswith(".mha.k.b")}
    # retired training keys, which neither eval nor analyze reads
    config = payload.get("config")
    if isinstance(config, dict) and isinstance(config.get("train"), dict):
        for key in ("d_steps", "g_steps"):
            config["train"].pop(key, None)
    return payload


def load_models(payload, gen, disc=None):
    """Assign checkpoint values into freshly built models (shape-checked)."""
    source = f"checkpoint (version {payload['format_version']})"
    for model, key in ((gen, "generator"), (disc, "discriminator")):
        if model is None:
            continue
        stored = payload.get(key)
        if not isinstance(stored, dict):
            raise CheckpointError(f"checkpoint holds no {key} parameter object")
        values = {}
        for name, rec in stored.items():
            try:
                values[name] = np.reshape(np.asarray(rec["values"], dtype=float),
                                          rec["shape"])
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(f"{source} {key} parameter {name!r} is malformed: "
                                      f"{type(exc).__name__} {exc}") from exc
            if not np.isfinite(values[name]).all():  # json reads NaN and Infinity
                raise CheckpointError(f"{source} {key} parameter {name!r} is not finite")
        restore_params(model, values, source)
