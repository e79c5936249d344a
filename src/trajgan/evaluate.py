"""Displacement-error metrics, min-of-k evaluation, and embedding analysis.

ADE is the mean over trajectories of the per-trajectory RMSE; FDE is the
root-mean-square over trajectories of the final-point error.  Both operate
on absolute positions in data units.
"""

import warnings

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import ContractError
from .data import CLASS_NAMES, csv_text
from .model import _as_batch, class_embedding_matrix, draw_noise, generator_forward

# Full-scale training results reported by the original study, shipped for
# context in reports.  Not reproduced here: they required hours of GPU
# training on the complete drone dataset.
REFERENCE_RESULTS = (
    ("original SGAN (ReLU)", 23.56, 46.86),
    ("GAN (leakyReLU)", 21.98, 43.53),
    ("GAN + labels", 23.05, 45.73),
    ("GAN + transformer", 23.06, 45.77),
    ("noGAN", 23.02, 46.83),
    ("noGAN + labels", 23.00, 47.19),
    ("noGAN + transformer", 22.73, 46.90),
)
REFERENCE_MARKER = "paper, not reproduced"


# ---------------------------------------------------------------------------
# metrics

def ade_fde(pred, truth):
    """(ADE, FDE) of (n, T, 2) predicted and true trajectories; n, T >= 1."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ContractError(f"prediction shape {pred.shape} != truth {truth.shape}")
    if pred.ndim != 3 or pred.shape[2] != 2 or min(pred.shape) < 1:
        raise ContractError(f"expected (n, T, 2) trajectories, got {pred.shape}")
    sq = ((pred - truth) ** 2).sum(axis=2)
    return float(np.sqrt(sq.mean(axis=1)).mean()), float(np.sqrt(sq[:, -1].mean()))


# ---------------------------------------------------------------------------
# baselines

def constant_velocity_baseline(window):
    """Extrapolate each agent's last observed velocity, (N, t_pred, 2)."""
    if window.t_obs < 2:
        raise ContractError("constant-velocity baseline needs t_obs >= 2")
    v = window.observed[:, -1] - window.observed[:, -2]
    steps = np.arange(1, window.t_pred + 1)
    return window.observed[:, -1][:, None, :] + steps[None, :, None] * v[:, None, :]


def baseline_metrics(windows):
    """(ADE, FDE) of the constant-velocity baseline over the given windows."""
    if not windows:
        raise ContractError("need at least one window")
    pred = np.concatenate([constant_velocity_baseline(w) for w in windows])
    truth = np.concatenate([w.future for w in windows])
    return ade_fde(pred, truth)


# ---------------------------------------------------------------------------
# min-of-k model evaluation

@dataclass
class ClassMetrics:
    ade: float
    fde: float
    n: int


@dataclass
class EvalReport:
    ade: float
    fde: float
    n_trajectories: int
    k: int
    per_class: dict = field(default_factory=dict)
    baseline_ade: float = None
    baseline_fde: float = None

    def to_csv(self):
        rows = [["scope", "ade", "fde", "n", "k"],
                ["model", repr(self.ade), repr(self.fde), self.n_trajectories, self.k]]
        if self.baseline_ade is not None:
            rows.append(["constant_velocity", repr(self.baseline_ade),
                         repr(self.baseline_fde), self.n_trajectories, 1])
        rows += [[f"class:{name}", repr(m.ade), repr(m.fde), m.n, self.k]
                 for name, m in self.per_class.items()]
        return csv_text(rows)

    def to_text(self, model_name="this run"):
        lines = [f"{'model':<28}{'ADE':>9}{'FDE':>9}",
                 f"{model_name:<28}{self.ade:>9.2f}{self.fde:>9.2f}"]
        if self.baseline_ade is not None:
            lines.append(f"{'constant velocity':<28}"
                         f"{self.baseline_ade:>9.2f}{self.baseline_fde:>9.2f}")
        lines.append(f"reference, full-scale training ({REFERENCE_MARKER}):")
        for name, a, f in REFERENCE_RESULTS:
            lines.append(f"{name:<28}{a:>9.2f}{f:>9.2f}")
        lines.append(f"n={self.n_trajectories} trajectories, best of k={self.k}, fde=rms")
        return "\n".join(lines) + "\n"


# Rows one generator pass may hold: the sum over its windows of n_agents *
# (t_obs + k).  agents * t_obs bounds the encoder's per-step blocks and
# agents * k the decoder's rollout rows; a budget on agents * k alone let a
# k=1 call encode 32 16-agent windows in one pass for 10% more peak memory.
# 900 holds two 16-agent windows of 8 observed steps at k=20 and six at k=1.
EVAL_PASS_ROWS = 900


def _passes(windows, k):
    """Consecutive runs of window indices, each as long as its windows'
    rows stay within EVAL_PASS_ROWS; a window over it is a run alone."""
    passes, rows = [], 0
    for i, w in enumerate(windows):
        cost = w.n_agents * (w.t_obs + k)
        if not passes or rows + cost > EVAL_PASS_ROWS:
            passes.append([])
            rows = 0
        passes[-1].append(i)
        rows += cost
    return passes


def eval_min_of_k(gen, windows, k, seed=0, include_baseline=True):
    """Sample k futures per agent, keep the one closest to truth, report metrics.

    Each window draws from its own seeded stream, sample-major, so the noise
    set for a larger k extends the smaller one and min-of-k can only improve.
    Consecutive windows share one generator pass while their rows stay
    within EVAL_PASS_ROWS; pooling stays inside each window.
    """
    if k < 1:
        raise ContractError(f"need k >= 1, got {k}")
    windows = _as_batch(windows)
    noise_dim = gen.config.noise_dim
    picked = []
    for idx in _passes(windows, k):
        block = [windows[i] for i in idx]
        z = np.concatenate([draw_noise(np.random.default_rng([seed, i]),
                                       windows[i].n_agents, k, noise_dim) for i in idx])
        with T.no_grad():
            trajs = generator_forward(gen, block, k=k, z=z).trajectories()
        err = trajs - np.concatenate([w.future for w in block])[:, None]
        best = (err ** 2).sum(axis=(2, 3)).argmin(axis=1)
        picked.append(trajs[np.arange(len(best)), best])

    picked = np.concatenate(picked)
    truth = np.concatenate([w.future for w in windows])
    classes = np.concatenate([w.class_indices for w in windows])
    per_class = {}
    for ci in np.unique(classes):
        sub = classes == ci
        per_class[CLASS_NAMES[ci]] = ClassMetrics(*ade_fde(picked[sub], truth[sub]),
                                                  int(sub.sum()))

    report = EvalReport(*ade_fde(picked, truth), len(picked), k, per_class)
    if include_baseline:
        report.baseline_ade, report.baseline_fde = baseline_metrics(windows)
    return report


# ---------------------------------------------------------------------------
# class-embedding analysis

def pca_project(embeddings):
    """Project rows onto their top-2 principal components.

    Rows are centered first.  Sign convention: the first loading of each
    component with magnitude above 1e-12 is made positive, so the output
    is deterministic.  Zero-variance input projects to all zeros and warns.
    """
    e = np.asarray(embeddings, dtype=float)
    if e.ndim != 2 or e.shape[1] < 2:
        raise ContractError(f"need (n, d>=2) embeddings, got {e.shape}")
    x = e - e.mean(axis=0)
    cov = x.T @ x / x.shape[0]
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    if evals[0] <= 1e-24:
        warnings.warn("embeddings have zero variance; PCA projection degenerate")
        return np.zeros((e.shape[0], 2))
    comps = evecs[:, :2].copy()
    for j in range(2):
        nz = np.nonzero(np.abs(comps[:, j]) > 1e-12)[0]
        if nz.size and comps[nz[0], j] < 0:
            comps[:, j] = -comps[:, j]
    return x @ comps


def embedding_distances(embeddings):
    """Pairwise Euclidean distance matrix between embedding rows."""
    e = np.asarray(embeddings, dtype=float)
    diff = e[:, None, :] - e[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


@dataclass
class EmbeddingAnalysis:
    class_names: tuple
    pca_coords: np.ndarray    # (n_classes, 2)
    distance_table: np.ndarray  # (n_classes, n_classes)
    degenerate: bool = False

    def pca_csv(self):
        return csv_text([["class", "pc1", "pc2"]]
                        + [[name, repr(float(a)), repr(float(b))]
                           for name, (a, b) in zip(self.class_names, self.pca_coords)])

    def distances_csv(self):
        return csv_text([["class", *self.class_names]]
                        + [[name, *(repr(float(v)) for v in row)]
                           for name, row in zip(self.class_names, self.distance_table)])


def analyze_embeddings(gen):
    """PCA projection and distance table of a generator's class embeddings."""
    emb = class_embedding_matrix(gen)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        coords = pca_project(emb)
    return EmbeddingAnalysis(tuple(CLASS_NAMES), coords,
                             embedding_distances(emb), bool(caught))
