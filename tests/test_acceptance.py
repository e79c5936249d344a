"""Acceptance suite: one test per shipped guarantee, ordered.

Each test here states a property the package promises end to end; the unit
suites cover the same ground in finer grain.  Heavier entries (the learning
runs) pin every seed so a pass is reproducible bit for bit on one platform.
"""

import csv
import io
import math
import time

import numpy as np
import pytest

from oracles import ade_ref, fde_ref, jacobi_eigh, relative_error, score_fake, score_real
from trajgan import cli
from trajgan import config as C
from trajgan import tensor as T
from trajgan.data import SceneWindow, split_dataset, synth_scene
from trajgan.evaluate import (REFERENCE_MARKER, REFERENCE_RESULTS, EvalReport, ade_fde,
                              eval_min_of_k)
from trajgan.model import (Discriminator, Generator, ModelConfig,
                           PoolingModule, PredictionSet, build_generator,
                           class_embedding_matrix, draw_noise,
                           generator_forward, load_checkpoint_payload,
                           load_models, restore_params)
from trajgan.optim import Adam
from trajgan.tensor import Tape
from trajgan.train import (TrainConfig, d_loss, g_adv_loss,
                           run_activation_ablation, run_training,
                           train_step_gan, train_step_nogan, variety_loss,
                           variety_norms)

SMALL = dict(embed_dim=8, class_embed_dim=8, hidden_dim=16, noise_dim=4,
             pool_dim=8, gamma_mlp_hidden=(16,), pooling_mlp_hidden=(16,),
             decoder_init_mlp_hidden=(16,), classifier_mlp_hidden=(16,),
             use_labels=True)
THREE_CLASSES = ("pedestrian", "car", "bicyclist")


# ---------------------------------------------------------------------------
# 1. full-scale results ship as marked reference constants, not claims

def test_01_reference_table_is_marked_not_reproduced():
    assert REFERENCE_MARKER == "paper, not reproduced"
    assert len(REFERENCE_RESULTS) == 7
    table = {name: (a, f) for name, a, f in REFERENCE_RESULTS}
    assert table["original SGAN (ReLU)"] == (23.56, 46.86)
    assert table["GAN (leakyReLU)"] == (21.98, 43.53)
    assert min(table.values()) == (21.98, 43.53)
    text = EvalReport(ade=1.0, fde=2.0, n_trajectories=1, k=1).to_text("x")
    assert REFERENCE_MARKER in text
    assert "21.98" in text and "46.86" in text


# ---------------------------------------------------------------------------
# 2. analytic gradients of the full generator and discriminator graphs

def _fd_sweep(params, build_loss, n_coords, seed, h=1e-5):
    """Worst relative error between backward and central differences on
    n_coords randomly chosen parameter coordinates."""
    rng = np.random.default_rng(seed)
    for p in params:
        p.grad = None
    with Tape():
        T.backward(build_loss())
    auto = [p.grad.copy() if p.grad is not None else np.zeros(p.data.shape)
            for p in params]
    worst = 0.0
    for _ in range(n_coords):
        li = int(rng.integers(len(params)))
        flat = params[li].data.reshape(-1)
        i = int(rng.integers(flat.size))
        orig = flat[i]
        flat[i] = orig + h
        fp = float(build_loss().data)
        flat[i] = orig - h
        fm = float(build_loss().data)
        flat[i] = orig
        worst = max(worst, relative_error((fp - fm) / (2.0 * h),
                                          auto[li].reshape(-1)[i]))
    return worst


def test_02_finite_difference_check_on_both_networks():
    t0 = time.perf_counter()
    window = synth_scene("turn", 3, THREE_CLASSES, seed=3, n_windows=1,
                         jitter=0.2)[0]
    mc = ModelConfig(**SMALL)
    gen = Generator(mc, np.random.default_rng(0))
    disc = Discriminator(mc, np.random.default_rng(1))
    z = draw_noise(np.random.default_rng(2), window.n_agents, 2, mc.noise_dim)
    truth = window.future.reshape(window.n_agents, -1)

    def gen_loss():
        return variety_loss(truth, generator_forward(gen, window, k=2, z=z))

    with T.no_grad():
        fixed_preds = generator_forward(gen, window, k=1, z=z[:, :1])

    def disc_loss():
        return d_loss(T.concat([score_real(disc, window),
                                score_fake(disc, window, fixed_preds, sample=0)]),
                      window.n_agents)

    worst_g = _fd_sweep(gen.parameters(), gen_loss, 50, seed=10)
    worst_d = _fd_sweep(disc.parameters(), disc_loss, 50, seed=11)
    elapsed = time.perf_counter() - t0
    assert worst_g < 1e-4, f"generator worst relative error {worst_g}"
    assert worst_d < 1e-4, f"discriminator worst relative error {worst_d}"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3. closed-form anchors of the adversarial losses

def test_03_loss_values_at_uniform_half_scores():
    half = T.constant(np.zeros((5, 1)))  # logit 0: the score 1/2
    assert abs(float(d_loss(T.concat([half, half]), 5).data) - 2.0 * math.log(2.0)) < 1e-9
    assert abs(float(g_adv_loss(half).data) - math.log(2.0)) < 1e-9


# ---------------------------------------------------------------------------
# 4. displacement metrics against a straight-loop reference

def test_04_metrics_match_independent_oracle():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        t = int(rng.integers(1, 16))
        preds = rng.normal(size=(n, t, 2)) * 30.0
        truths = rng.normal(size=(n, t, 2)) * 30.0
        ade, fde = ade_fde(preds, truths)
        assert abs(ade - ade_ref(preds, truths)) < 1e-12
        assert abs(fde - fde_ref(preds, truths)) < 1e-12
    truth = rng.normal(size=(3, 12, 2))
    ade, fde = ade_fde(truth + np.array([3.0, 4.0]), truth)
    assert abs(ade - 5.0) < 1e-12
    assert abs(fde - 5.0) < 1e-12


# ---------------------------------------------------------------------------
# 5. overfit capacity: a fixed batch is memorized to near zero

def unit_scale_batch(n_windows=4, n_agents=3, speed=0.05, box=5.0, seed=0):
    """Constant-velocity windows with coordinates of order one, so the
    absolute loss threshold below means near-exact memorization."""
    rng = np.random.default_rng(seed)
    out = []
    for w in range(n_windows):
        pts = np.empty((n_agents, 20, 2))
        for i in range(n_agents):
            start = rng.uniform(0.0, box, 2)
            heading = rng.uniform(0.0, 2.0 * np.pi)
            v = speed * (1.0 + 0.5 * i)
            t = np.arange(20)
            pts[i, :, 0] = start[0] + v * t * np.cos(heading)
            pts[i, :, 1] = start[1] + v * t * np.sin(heading)
        out.append(SceneWindow(scene_id="unit", start_frame=w * 20,
                               frame_step=12, agent_ids=tuple(range(n_agents)),
                               class_indices=np.array([4, 2, 0][:n_agents]),
                               observed=pts[:, :8], future=pts[:, 8:]))
    return out


def test_05_nogan_overfits_fixed_batch():
    t0 = time.perf_counter()
    windows = unit_scale_batch()
    mc = ModelConfig(**dict(SMALL, hidden_dim=48, input_scale=1.0))
    tc = TrainConfig(mode="nogan", batch_size=4, lr=1e-2, epochs=1, k=5,
                     seed=0, clip_norm=5.0)
    gen = Generator(mc, np.random.default_rng(0))
    opt = Adam(gen.parameters(), lr=tc.lr)
    reached = None
    for s in range(500):
        lr = 1e-2 if s < 150 else (1e-3 if s < 400 else 1e-4)
        opt.lr = lr
        # recreating the rng fixes the noise draws, so the target of the
        # memorization is deterministic
        rec = train_step_nogan(windows, gen, opt, tc,
                               np.random.default_rng(7), step=s)
        if rec.variety < 1e-2:
            reached = s
            break
    elapsed = time.perf_counter() - t0
    assert reached is not None, f"variety still {rec.variety:.4f} after 500 steps"
    assert elapsed < 120.0, f"overfit run took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 6. training beats the constant-velocity oracle where it should

def _trained_vs_baseline(kind, jitter, seed):
    windows = synth_scene(kind, 3, THREE_CLASSES, seed=seed, n_windows=100,
                          jitter=jitter)
    split = split_dataset(windows, seed)
    gen = Generator(ModelConfig(**SMALL), np.random.default_rng(seed))
    tc = TrainConfig(mode="nogan", batch_size=2, lr=3e-3, epochs=20, k=5,
                     seed=seed)
    best, _ = run_training(gen, None, split, tc)
    restore_params(gen, best["generator"])
    rep = eval_min_of_k(gen, split.test, k=5, seed=seed)
    return rep.ade / rep.baseline_ade


def test_06_learning_relative_to_constant_velocity():
    linear = [_trained_vs_baseline("linear", 1.0, s) for s in (0, 1, 2)]
    assert sum(r <= 1.5 for r in linear) >= 2, f"linear ratios {linear}"
    turn = [_trained_vs_baseline("turn", 0.5, s) for s in (0, 1, 2)]
    assert sum(r < 1.0 for r in turn) >= 2, f"turn ratios {turn}"


# ---------------------------------------------------------------------------
# 7. dropping the discriminator makes each step strictly cheaper

def test_07_nogan_step_is_faster_than_gan_step():
    windows = synth_scene("linear", 3, THREE_CLASSES, seed=0, n_windows=6,
                          jitter=0.05)
    mc = ModelConfig(**SMALL)
    gan_cfg = TrainConfig(mode="gan", batch_size=6, lr=1e-3, epochs=1, k=5,
                          seed=0)
    nog_cfg = TrainConfig(mode="nogan", batch_size=6, lr=1e-3, epochs=1, k=5,
                          seed=0)
    gen = Generator(mc, np.random.default_rng(0))
    disc = Discriminator(mc, np.random.default_rng(1))
    g_opt, d_opt = Adam(gen.parameters()), Adam(disc.parameters())
    rng = np.random.default_rng(0)
    gan_times = [train_step_gan(windows, gen, disc, g_opt, d_opt, gan_cfg,
                                rng, step=s).seconds for s in range(6)]
    gen2 = Generator(mc, np.random.default_rng(0))
    g_opt2 = Adam(gen2.parameters())
    rng2 = np.random.default_rng(0)
    nog_times = [train_step_nogan(windows, gen2, g_opt2, nog_cfg, rng2,
                                  step=s).seconds for s in range(6)]
    assert np.median(nog_times) < np.median(gan_times)


# ---------------------------------------------------------------------------
# 8. activation ablation: leaky slope keeps discriminator nodes alive

def test_08_leaky_relu_keeps_more_hidden_gradient_flow(tmp_path):
    windows = synth_scene("turn", 3, THREE_CLASSES, seed=0, n_windows=4,
                          jitter=0.1)
    mc = ModelConfig(**SMALL)
    tc = TrainConfig(mode="gan", batch_size=4, lr=1e-3, epochs=1, k=2, seed=0)
    relu, leaky = run_activation_ablation(windows, mc, tc, steps=200)
    assert relu.activation == "relu" and leaky.activation == "leaky_relu"
    for result in (relu, leaky):
        out = tmp_path / f"ablation_{result.activation}.csv"
        out.write_text(result.log.steps_csv())
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 200
    assert leaky.hidden_grad_fraction > relu.hidden_grad_fraction, (
        f"leaky {leaky.hidden_grad_fraction} vs relu {relu.hidden_grad_fraction}")


# ---------------------------------------------------------------------------
# 9. variety loss: min over samples, gradient only through the argmin

def test_09_variety_min_property_on_random_prediction_sets():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 7))
        t_pred = int(rng.integers(2, 6))
        traj = T.Tensor(rng.normal(size=(n * k, 2 * t_pred)) * 5.0,
                        requires_grad=True)
        truth = rng.normal(size=(n, 2 * t_pred)) * 5.0
        preds = PredictionSet(n_agents=n, k=k, t_pred=t_pred,
                              noise=np.zeros((n, k, 1)), traj=traj)
        with Tape():
            norms = variety_norms(truth, preds)
            T.backward(T.tmean(norms))
        per_sample = np.linalg.norm(
            traj.data.reshape(n, k, -1) - truth[:, None, :], axis=2)
        argmins = per_sample.argmin(axis=1)
        assert np.allclose(norms.data.reshape(n), per_sample.min(axis=1),
                           rtol=0, atol=1e-12)
        grad = traj.grad.reshape(n, k, -1)
        for i in range(n):
            for j in range(k):
                if j != argmins[i]:
                    assert np.all(grad[i, j] == 0.0)


# ---------------------------------------------------------------------------
# 10. pooling is exactly permutation invariant

def test_10_pooling_permutation_invariance_bitwise():
    mc = ModelConfig(**SMALL)
    pool = PoolingModule(mc, np.random.default_rng(0))
    rng = np.random.default_rng(10)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        hidden = rng.normal(size=(n, mc.hidden_dim))
        positions = rng.uniform(0.0, 200.0, size=(n, 2))
        perm = rng.permutation(n)
        base = pool(T.constant(hidden), positions).data
        permuted = pool(T.constant(hidden[perm]), positions[perm]).data
        assert np.array_equal(permuted, base[perm])


# ---------------------------------------------------------------------------
# 11. the four-condition experiment matrix runs end to end

FOUR_CONDITIONS = ("gan_lstm", "gan_lstm_label", "gan_transformer",
                   "gan_transformer_label")


def _read_report(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return {r["scope"]: r for r in rows}


def test_11_four_condition_presets_train_and_report(tmp_path):
    reports = {}
    for name in FOUR_CONDITIONS:
        out = tmp_path / name
        rc = cli.main(["train", "--config", f"presets/{name}.json",
                       "--out", str(out)])
        assert rc == cli.EXIT_OK, name
        rc = cli.main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                       "--split", "test", "--out", str(out / "eval")])
        assert rc == cli.EXIT_OK, name
        reports[name] = _read_report(out / "eval" / "report_k5.csv")
    scope_sets = {name: tuple(sorted(rep)) for name, rep in reports.items()}
    assert len(set(scope_sets.values())) == 1, scope_sets
    for name, rep in reports.items():
        assert "model" in rep and "constant_velocity" in rep
        assert rep["model"]["k"] == "5"
        model_ade = float(rep["model"]["ade"])
        assert np.isfinite(model_ade) and model_ade > 0.0, name


# ---------------------------------------------------------------------------
# 12. embedding analysis matches a brute-force eigendecomposition

def test_12_embedding_analysis_against_jacobi_oracle(tmp_path):
    cfg = C.ExperimentConfig(
        name="accept12", seed=0, out_dir=str(tmp_path / "run"),
        model=ModelConfig(**SMALL),
        train=TrainConfig(mode="nogan", batch_size=4, lr=1e-3, epochs=2, k=2,
                          seed=0),
        data=C.DataConfig(source="synth", scene_kind="linear", n_agents=3,
                          classes=THREE_CLASSES, n_windows=8, jitter=0.2,
                          seed=0))
    cfg_path = tmp_path / "cfg.json"
    C.save_config(cfg_path, cfg)
    assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_OK
    ckpt = tmp_path / "run" / "checkpoint.json"
    an = tmp_path / "analysis"
    assert cli.main(["analyze", "--checkpoint", str(ckpt),
                     "--out", str(an)]) == cli.EXIT_OK

    with open(an / "pca.csv") as fh:
        pca_rows = list(csv.reader(fh))[1:]
    assert len(pca_rows) == 6 and all(len(r) == 3 for r in pca_rows)
    projection = np.array([[float(r[1]), float(r[2])] for r in pca_rows])

    with open(an / "distances.csv") as fh:
        dist_rows = list(csv.reader(fh))[1:]
    dist = np.array([[float(v) for v in r[1:]] for r in dist_rows])
    assert dist.shape == (6, 6)
    assert np.allclose(dist, dist.T, rtol=0, atol=0)
    assert np.all(np.diag(dist) == 0.0)

    payload = load_checkpoint_payload(ckpt)
    saved = C.from_dict(payload["config"])
    gen = build_generator(saved.model, seed=0)
    load_models(payload, gen)
    emb = class_embedding_matrix(gen)
    x = emb - emb.mean(axis=0)
    _, evecs = jacobi_eigh(x.T @ x / x.shape[0])
    comps = evecs[:, :2].copy()
    for j in range(2):
        nz = np.flatnonzero(np.abs(comps[:, j]) > 1e-12)
        if nz.size and comps[nz[0], j] < 0:
            comps[:, j] = -comps[:, j]
    assert np.allclose(projection, x @ comps, rtol=0, atol=1e-9)
