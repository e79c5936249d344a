"""Adversarial and variety-loss training loops.

GAN mode alternates one discriminator update on real-vs-generated
trajectories with one generator update on the adversarial score of one
sample plus the variety loss over k samples, both on one tape per batch.
nogan mode runs the same step without a discriminator: the generator and
its variety loss only.
"""

from __future__ import annotations

import math
import time

from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .tensor import ContractError, Tape, no_grad
from .data import DatasetSplit, csv_text
from .optim import Adam, clip_grad_norm, grad_norm
from .evaluate import eval_min_of_k
from .model import (ConfigError, build_discriminator, build_generator, encode_windows,
                    fake_steps, generator_forward, real_steps, snapshot_params,
                    stacked_onehots)

TRAIN_MODES = ("gan", "nogan")


class TrainingDiverged(RuntimeError):
    """Loss or gradient norm left the finite range; the update was not applied."""


@dataclass
class TrainConfig:
    batch_size: int = 48
    lr: float = 1e-3
    epochs: int = 200
    k: int = 20
    mode: str = "gan"
    seed: int = 0
    clip_norm: float = None

    def validate(self):
        if self.mode not in TRAIN_MODES:
            raise ConfigError(f"mode must be one of {TRAIN_MODES}, got {self.mode!r}")
        if self.batch_size < 1 or self.k < 1:
            raise ConfigError("batch_size and k must be >= 1")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if self.clip_norm is not None and not (math.isfinite(self.clip_norm)
                                               and self.clip_norm > 0.0):
            raise ConfigError(f"clip_norm must be positive and finite, got {self.clip_norm}")
        if self.seed < 0:
            raise ConfigError(f"train.seed must be >= 0, got {self.seed}")
        return self


# ---------------------------------------------------------------------------
# losses

def d_loss(logits, rows):
    """Binary cross entropy on the stacked (2*rows, 1) logit column, real
    rows first toward label 1, fake rows toward 0; each half is a mean over
    ``rows``, so the loss is twice the mean over the column."""
    labels = np.repeat([[1.0], [0.0]], rows, axis=0)
    return T.mul_scalar(T.bce_logits(logits, labels), 2.0)


def g_adv_loss(fake_logits):
    """Non-saturating generator objective: fake logits toward label 1."""
    return T.bce_logits(fake_logits, 1.0)


def variety_norms(truth, preds):
    """Per-agent L2 error of the best of the k samples, as an (N, 1) tensor
    and one ``T.min_of_k_norms`` node.

    The argmin is taken outside the graph, so gradient reaches only each
    agent's best sample; the other samples receive exactly zero.
    """
    want = np.asarray(truth, dtype=float).reshape(preds.n_agents, -1)
    if want.shape[1] != 2 * preds.t_pred:
        raise ContractError(f"truth shape {want.shape} does not match "
                            f"t_pred={preds.t_pred}")
    return T.min_of_k_norms(preds.traj, want, preds.k)


def variety_loss(truth, preds):
    """Mean over agents of the min-of-k L2 trajectory error."""
    return T.tmean(variety_norms(truth, preds))


# ---------------------------------------------------------------------------
# logging

@dataclass
class StepRecord:
    step: int
    epoch: int
    d_loss: float
    g_adv: float
    variety: float
    grad_norm_g: float
    grad_norm_d: float
    seconds: float


@dataclass
class EpochRecord:
    epoch: int
    val_ade: float
    val_fde: float


@dataclass
class TrainLog:
    """Per-step loss records plus per-epoch validation scores.

    Everything except the wall-time column is bit-reproducible for a fixed
    (seed, data, config) on one machine.
    """

    steps: list = field(default_factory=list)
    epochs: list = field(default_factory=list)

    def steps_csv(self):
        return csv_text([["step", "epoch", "d_loss", "g_adv", "variety",
                          "grad_norm_g", "grad_norm_d", "seconds"]]
                        + [[r.step, r.epoch, _cell(r.d_loss), _cell(r.g_adv),
                            _cell(r.variety), _cell(r.grad_norm_g),
                            _cell(r.grad_norm_d), _cell(r.seconds)] for r in self.steps])

    def epochs_csv(self):
        return csv_text([["epoch", "val_ade", "val_fde"]]
                        + [[r.epoch, repr(r.val_ade), repr(r.val_fde)] for r in self.epochs])


def _cell(v):
    return "" if v is None else repr(v)


# ---------------------------------------------------------------------------
# single steps

def _update(network, opt, loss, config):
    """Clip or measure the gradient norm of ``opt.params``, then step --
    unless the loss or the norm is not finite, in which case the parameters
    are left untouched."""
    if config.clip_norm is not None:
        norm = clip_grad_norm(opt.params, config.clip_norm)
    else:
        norm = grad_norm(opt.params)
    if not (np.isfinite(loss) and np.isfinite(norm)):
        raise TrainingDiverged(f"{network} loss is {loss}; grad norms: "
                               f"{network}={norm:.6e}")
    opt.step()
    return norm


def _discriminator_loss(batch, gen, disc, rng, encoded=None, taps=None):
    """Discriminator loss on every window's truth against one generated
    sample, drawn without gradient so nothing leaks into the generator;
    ``encoded`` is the batch's ``encode_windows``, computed when not given.
    Real and fake rows share one discriminator pass: real rows first.  A
    ``taps`` list goes to ``Discriminator.score_steps``."""
    with no_grad():
        preds = generator_forward(gen, batch, k=1, rng=rng, encoded=encoded)
    # both sides are constants: interleave them step by step in numpy
    rows = preds.n_agents
    real, fake = (s.data.reshape(-1, rows, 2) for s in (real_steps(batch), fake_steps(preds)))
    steps = T.constant(np.concatenate([real, fake], axis=1).reshape(-1, 2))
    onehots = stacked_onehots(batch)
    logits = disc.score_steps(steps, T.constant(np.concatenate([onehots, onehots])), taps)
    return d_loss(logits, rows)


@contextmanager
def _frozen(params):
    """Stop ``params`` from requiring gradients inside the block, so a pass
    through them leaves their gradients exactly as they were."""
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p in params:
            p.requires_grad = True


def train_step_gan(batch, gen, disc, g_opt, d_opt, config, rng, step=0, epoch=0):
    """One alternating GAN iteration over a batch of windows, on one tape.

    The tape records the batch's encoding once; one discriminator update
    and then one generator update both read it, since the discriminator
    update leaves the generator as it is.  The discriminator pass samples
    fakes without gradient so nothing leaks into the generator; the
    generator pass freezes discriminator parameters so their gradients stay
    exactly zero.  The generator loss is the mean variety loss over every
    agent of the batch at k samples, plus the adversarial loss of sample 0.
    With ``disc=None`` and ``d_opt=None`` it is the noGAN step, with None in
    every adversarial field.
    """
    if not batch:
        raise ContractError("empty batch")
    t0 = time.perf_counter()
    frozen = [] if disc is None else disc.parameters()

    d_val = d_norm = None
    with Tape():
        encoded = encode_windows(gen, batch)
        if disc is not None:
            loss_d = _discriminator_loss(batch, gen, disc, rng, encoded)
            T.backward(loss_d)
            d_val = float(loss_d.data)
            d_norm = _update("discriminator", d_opt, d_val, config)
        with _frozen(frozen):
            preds = generator_forward(gen, batch, k=config.k, rng=rng, encoded=encoded)
            adv = None if disc is None else g_adv_loss(disc.score_steps(
                fake_steps(preds), T.constant(stacked_onehots(batch))))
            var = variety_loss(np.concatenate([w.future for w in batch]), preds)
            loss_g = var if adv is None else T.add(adv, var)
            T.backward(loss_g)
            g_norm = _update("generator", g_opt, float(loss_g.data), config)

    return StepRecord(step, epoch, d_val, None if adv is None else float(adv.data),
                      float(var.data), g_norm, d_norm, time.perf_counter() - t0)


def train_step_nogan(batch, gen, g_opt, config, rng, step=0, epoch=0):
    """One variety-loss-only update: the GAN step without a discriminator."""
    return train_step_gan(batch, gen, None, g_opt, None, config, rng, step, epoch)


# ---------------------------------------------------------------------------
# full loop

def _best(gen, disc, epoch=None, val_ade=None, val_fde=None):
    return {"epoch": epoch, "val_ade": val_ade, "val_fde": val_fde,
            "generator": snapshot_params(gen),
            "discriminator": None if disc is None else snapshot_params(disc)}


def run_training(gen, disc, split, config, start_epoch=0):
    """Shuffled epoch loop with per-epoch min-of-k validation.

    Returns (best, log) where ``best`` holds the epoch, its validation
    ADE/FDE and the snapshot_params of each network at the lowest
    validation ADE seen (the initial state when epochs=0 or there is no
    validation split).  Noise and shuffling streams are derived per epoch
    from (seed, epoch), so a run resumed at an epoch boundary sees the same
    stream as an uninterrupted run; optimizer state is not carried.
    """
    config.validate()
    if not split.train:
        raise ConfigError("training set is empty")
    if config.mode == "gan" and disc is None:
        raise ConfigError("gan mode needs a discriminator")

    step_disc = disc if config.mode == "gan" else None
    g_opt = Adam(gen.parameters(), lr=config.lr)
    d_opt = None if step_disc is None else Adam(step_disc.parameters(), lr=config.lr)
    log = TrainLog()
    best = _best(gen, disc)
    step = 0
    for epoch in range(start_epoch, config.epochs):
        order = np.random.default_rng([config.seed, epoch, 1]) \
            .permutation(len(split.train))
        noise_rng = np.random.default_rng([config.seed, epoch, 0])
        for lo in range(0, len(order), config.batch_size):
            batch = [split.train[i] for i in order[lo:lo + config.batch_size]]
            log.steps.append(train_step_gan(batch, gen, step_disc, g_opt, d_opt,
                                            config, noise_rng, step, epoch))
            step += 1
        if split.val:
            r = eval_min_of_k(gen, split.val, k=config.k, seed=config.seed,
                              include_baseline=False)
            log.epochs.append(EpochRecord(epoch, r.ade, r.fde))
            if best["val_ade"] is None or r.ade < best["val_ade"]:
                best = _best(gen, disc, epoch, r.ade, r.fde)
    return best, log


# ---------------------------------------------------------------------------
# activation ablation harness

@dataclass
class AblationResult:
    activation: str
    log: TrainLog
    hidden_grad_fraction: float


def hidden_grad_fraction(taps):
    """Fraction of nonzero entries across the gradient arrays ``taps``."""
    total = sum(g.size for g in taps)
    nonzero = sum(int(np.count_nonzero(g)) for g in taps)
    if total == 0:
        raise ContractError("no hidden activations to inspect")
    return nonzero / total


def discriminator_hidden_fraction(batch, gen, disc, rng):
    """Run one discriminator pass and measure gradient flow through the
    classifier's hidden nodes.  Inactive nodes contribute exact zeros.

    The taps lie above the encoder, so its parameters are frozen for the
    pass and the backward stops at the classifier.  Each discriminator
    parameter's gradient is put back as it was, so the pass leaves nothing
    for a later update to pick up."""
    params = disc.parameters()
    saved = [p.grad for p in params]
    taps = []
    try:
        with Tape(), _frozen(disc.encoder.named_parameters("encoder").values()):
            T.backward(_discriminator_loss(batch, gen, disc, rng, taps=taps))
    finally:
        for p, g in zip(params, saved):
            p.grad = g
    return hidden_grad_fraction(taps)


def run_activation_ablation(windows, model_config, train_config, steps=200):
    """Twin GAN runs differing only in the MLP activation, each trained by
    ``run_training`` for ``steps`` epochs of one batch of all the windows.
    Afterwards the discriminator's live hidden-gradient fraction is measured
    on one extra scoring pass.  Returns one AblationResult per activation,
    relu first."""
    if not model_config.classifier_mlp_hidden:
        raise ConfigError("the activation ablation compares the classifier's hidden "
                          "activations; classifier_mlp_hidden is empty")
    config = replace(train_config, mode="gan", epochs=steps, batch_size=len(windows))
    results = []
    for act in ("relu", "leaky_relu"):
        mcfg = replace(model_config, activation=act)
        gen = build_generator(mcfg, seed=train_config.seed)
        disc = build_discriminator(mcfg, seed=train_config.seed + 1)
        _, log = run_training(gen, disc, DatasetSplit(train=list(windows)), config)
        frac = discriminator_hidden_fraction(
            windows, gen, disc, np.random.default_rng([train_config.seed, steps]))
        results.append(AblationResult(act, log, frac))
    return results
