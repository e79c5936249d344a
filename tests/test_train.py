import math

from dataclasses import replace

import numpy as np
import pytest

from trajgan import data as D
from trajgan import model as M
from trajgan import tensor as T
from trajgan import train as TR
from trajgan.optim import Adam
from trajgan.tensor import Tensor, Tape, ContractError, backward

from oracles import (assert_grads_match, d_loss_clamped, d_loss_pair, g_adv_loss_clamped,
                     looped_train_step_gan, looped_train_step_nogan, score_fake, score_real)

LN2 = float(np.log(2.0))


def tiny_config(**kw):
    return M.ModelConfig(embed_dim=3, class_embed_dim=2, hidden_dim=4,
                         noise_dim=2, pool_dim=3, transformer_heads=2,
                         transformer_layers=1, transformer_ff_dim=6,
                         gamma_mlp_hidden=(3,), pooling_mlp_hidden=(3,),
                         decoder_init_mlp_hidden=(3,), classifier_mlp_hidden=(3,),
                         k_samples=2, **kw)


def tiny_train_config(**kw):
    base = dict(batch_size=2, lr=1e-3, epochs=1, k=2, mode="gan", seed=0)
    base.update(kw)
    return TR.TrainConfig(**base)


def built_pair(seed=0, **cfg_kw):
    cfg = tiny_config(**cfg_kw)
    return (M.build_generator(cfg, seed=seed),
            M.build_discriminator(cfg, seed=seed + 1))


def some_windows(n_agents=2, seed=1, n_windows=2, kind="linear"):
    classes = ["pedestrian", "car", "bicyclist", "bus"][:n_agents]
    return D.synth_scene(kind, n_agents, classes, seed=seed, n_windows=n_windows)


def hand_predictions(traj_rows, n_agents, k, t_pred, requires_grad=True):
    traj = Tensor(np.asarray(traj_rows, dtype=float), requires_grad=requires_grad)
    noise = np.zeros((n_agents, k, 2))
    return M.PredictionSet(n_agents, k, t_pred, noise, traj)


def stacked_d_loss(real, fake):
    """``TR.d_loss`` on the real logits stacked above the fake ones."""
    return TR.d_loss(T.concat([real, fake]), real.shape[0])


# ---------------------------------------------------------------------------
# loss anchors

def test_d_loss_at_uniform_half_scores():
    # logit 0 is the score 1/2
    r = Tensor(np.zeros((4, 1)))
    f = Tensor(np.zeros((4, 1)))
    assert abs(float(stacked_d_loss(r, f).data) - 2 * LN2) < 1e-9


def test_d_loss_perfect_discriminator():
    r = Tensor(np.full((3, 1), 40.0))
    f = Tensor(np.full((3, 1), -40.0))
    assert abs(float(stacked_d_loss(r, f).data)) < 1e-12


def test_d_loss_finite_at_worst_scores():
    # confidently wrong logits cost their size, with no overflow
    r = Tensor(np.full((3, 1), -1000.0))
    f = Tensor(np.full((3, 1), 1000.0))
    assert float(stacked_d_loss(r, f).data) == 2000.0


def test_d_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    r = Tensor(rng.uniform(-3.0, 3.0, (3, 1)), requires_grad=True)
    f = Tensor(rng.uniform(-3.0, 3.0, (3, 1)), requires_grad=True)
    assert_grads_match(lambda: stacked_d_loss(r, f), [r, f], rtol=1e-5)


def test_g_adv_loss_anchors():
    assert abs(float(TR.g_adv_loss(Tensor(np.zeros((5, 1)))).data) - LN2) < 1e-9
    assert abs(float(TR.g_adv_loss(Tensor(np.full((5, 1), 40.0))).data)) < 1e-12


def logit_grad(loss, *logits):
    """d(loss)/d(logits) of each (n, 1) logit array."""
    leaves = [Tensor(np.asarray(s, dtype=float), requires_grad=True) for s in logits]
    with Tape():
        backward(loss(*leaves))
    return [leaf.grad for leaf in leaves]


def sigmoid(s):
    return 1.0 / (1.0 + math.exp(-s))


def test_adversarial_gradients_do_not_saturate():
    # a confident discriminator still gives each logit (σ(s) - label)/n,
    # which clamping σ(s) at a floor before the log had zeroed
    n = 4
    (g,) = logit_grad(TR.g_adv_loss, np.full((n, 1), -20.0))
    np.testing.assert_allclose(g, (sigmoid(-20.0) - 1.0) / n, rtol=1e-12, atol=0.0)
    g_real, g_fake = logit_grad(stacked_d_loss, np.full((n, 1), -40.0), np.full((n, 1), 40.0))
    np.testing.assert_allclose(g_real, -1.0 / n, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(g_fake, 1.0 / n, rtol=1e-12, atol=0.0)


def test_losses_equal_clamped_composition_away_from_the_floor():
    # wherever σ(s) and 1 - σ(s) stay above the floor 1e-7 (|s| <= 6.9 here)
    # the clamp is inactive, so both routes compute the same function
    for v in np.linspace(-6.9, 6.9, 139):
        real, fake = np.array([[v]]), np.array([[-v]])
        for loss, ref, args in ((stacked_d_loss, d_loss_clamped, (real, fake)),
                                (TR.g_adv_loss, g_adv_loss_clamped, (fake,))):
            want = float(ref(*map(Tensor, args)).data)
            assert float(loss(*map(Tensor, args)).data) == pytest.approx(want, rel=1e-12)
            for got, exp in zip(logit_grad(loss, *args), logit_grad(ref, *args)):
                np.testing.assert_allclose(got, exp, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("rows", [1, 3, 7, 90])
def test_d_loss_one_node_matches_two_halves(rows):
    # one mean over the stacked column, doubled, against the mean of each
    # half added: 2/(2R) and 1/R are the same double, so the gradients are
    # bit-identical; the values round differently by at most 2 ulp
    rng = np.random.default_rng(rows)
    real, fake = rng.normal(0.0, 4.0, (2, rows, 1))
    real[0], fake[-1] = 40.0, -40.0
    if rows > 2:
        real[-1], fake[0] = -40.0, 40.0
    got = logit_grad(stacked_d_loss, real, fake)
    want = logit_grad(d_loss_pair, real, fake)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    value = float(stacked_d_loss(Tensor(real), Tensor(fake)).data)
    ref = float(d_loss_pair(Tensor(real), Tensor(fake)).data)
    assert abs(value - ref) <= 2 * np.spacing(ref)


def test_g_adv_loss_decreasing_in_each_score():
    base = np.full((4, 1), 0.3)
    v0 = float(TR.g_adv_loss(Tensor(base)).data)
    for i in range(4):
        bumped = base.copy()
        bumped[i, 0] += 0.2
        assert float(TR.g_adv_loss(Tensor(bumped)).data) < v0


# ---------------------------------------------------------------------------
# variety loss

def test_variety_zero_when_one_sample_exact():
    truth = np.arange(8.0).reshape(1, 4, 2)
    rows = np.stack([truth.reshape(-1) + 3.0, truth.reshape(-1),
                     truth.reshape(-1) - 1.0])
    preds = hand_predictions(rows, n_agents=1, k=3, t_pred=4)
    assert float(TR.variety_loss(truth, preds).data) == 0.0


def test_variety_k1_is_plain_l2():
    rng = np.random.default_rng(3)
    truth = rng.normal(size=(3, 4, 2))
    rows = rng.normal(size=(3, 8))
    preds = hand_predictions(rows, n_agents=3, k=1, t_pred=4)
    want = np.mean(np.linalg.norm(rows - truth.reshape(3, 8), axis=1))
    assert abs(float(TR.variety_loss(truth, preds).data) - want) < 1e-12


def test_variety_picks_min_and_routes_gradient_only_there():
    truth = np.zeros((1, 2, 2))
    rows = np.array([[5.0, 0.0, 0.0, 0.0],
                     [0.0, 2.0, 0.0, 0.0],
                     [0.0, 0.0, 7.0, 0.0]])
    preds = hand_predictions(rows, n_agents=1, k=3, t_pred=2)
    with Tape():
        loss = TR.variety_loss(truth, preds)
        backward(loss)
    assert abs(float(loss.data) - 2.0) < 1e-12
    g = preds.traj.grad
    assert np.array_equal(g[0], np.zeros(4))
    assert np.array_equal(g[2], np.zeros(4))
    assert np.count_nonzero(g[1]) > 0


def test_variety_min_property_random_sets():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        t = int(rng.integers(1, 6))
        truth = rng.normal(size=(n, t, 2))
        rows = rng.normal(size=(n * k, 2 * t))
        preds = hand_predictions(rows, n, k, t, requires_grad=False)
        per_sample = np.linalg.norm(
            rows - np.repeat(truth.reshape(n, -1), k, axis=0), axis=1)
        want = per_sample.reshape(n, k).min(axis=1).mean()
        got = float(TR.variety_loss(truth, preds).data)
        assert abs(got - want) < 1e-12
        assert got <= per_sample.reshape(n, k).mean(axis=1).mean() + 1e-12


def test_variety_nonargmin_gradients_exactly_zero():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n, k, t = 2, 4, 3
        truth = rng.normal(size=(n, t, 2))
        rows = rng.normal(size=(n * k, 2 * t))
        preds = hand_predictions(rows, n, k, t)
        with Tape():
            backward(TR.variety_loss(truth, preds))
        err = rows - np.repeat(truth.reshape(n, -1), k, axis=0)
        best = np.linalg.norm(err, axis=1).reshape(n, k).argmin(axis=1)
        for i in range(n):
            for j in range(k):
                row = preds.traj.grad[i * k + j]
                if j == best[i]:
                    assert np.count_nonzero(row) > 0
                else:
                    assert np.array_equal(row, np.zeros(2 * t))


def test_variety_rejects_mismatched_truth():
    preds = hand_predictions(np.zeros((2, 8)), n_agents=1, k=2, t_pred=4)
    with pytest.raises(ContractError):
        TR.variety_loss(np.zeros((1, 3, 2)), preds)


# ---------------------------------------------------------------------------
# step isolation and determinism

def test_discriminator_pass_leaves_generator_untouched():
    gen, disc = built_pair(seed=6)
    w = some_windows(seed=7)[0]
    rng = np.random.default_rng(8)
    with Tape():
        with TR.no_grad():
            preds = M.generator_forward(gen, w, k=1, rng=rng)
        loss = stacked_d_loss(score_real(disc, w), score_fake(disc, w, preds, sample=0))
        backward(loss)
    assert all(p.grad is None for p in gen.parameters())
    assert any(p.grad is not None for p in disc.parameters())


def test_generator_pass_with_frozen_discriminator():
    gen, disc = built_pair(seed=9)
    w = some_windows(seed=10)[0]
    rng = np.random.default_rng(11)
    for p in disc.parameters():
        p.requires_grad = False
    with Tape():
        preds = M.generator_forward(gen, w, k=2, rng=rng)
        loss = TR.g_adv_loss(score_fake(disc, w, preds, sample=0))
        backward(loss)
    assert all(p.grad is None for p in disc.parameters())
    assert any(p.grad is not None for p in gen.parameters())


def test_gan_step_updates_both_networks_and_logs():
    gen, disc = built_pair(seed=12)
    cfg = tiny_train_config()
    g_opt = Adam(gen.parameters(), lr=cfg.lr)
    d_opt = Adam(disc.parameters(), lr=cfg.lr)
    g_before = [p.data.copy() for p in gen.parameters()]
    d_before = [p.data.copy() for p in disc.parameters()]
    rec = TR.train_step_gan(some_windows(seed=13), gen, disc, g_opt, d_opt,
                            cfg, np.random.default_rng(14), step=3, epoch=1)
    assert any(not np.array_equal(a, p.data)
               for a, p in zip(g_before, gen.parameters()))
    assert any(not np.array_equal(a, p.data)
               for a, p in zip(d_before, disc.parameters()))
    assert rec.step == 3 and rec.epoch == 1
    assert all(np.isfinite(v) for v in
               (rec.d_loss, rec.g_adv, rec.variety,
                rec.grad_norm_g, rec.grad_norm_d))
    assert rec.seconds > 0
    # requires_grad restored after the frozen generator pass
    assert all(p.requires_grad for p in disc.parameters())


def test_gan_step_deterministic_given_seed():
    def run():
        gen, disc = built_pair(seed=15)
        cfg = tiny_train_config()
        g_opt = Adam(gen.parameters(), lr=cfg.lr)
        d_opt = Adam(disc.parameters(), lr=cfg.lr)
        recs = []
        rng = np.random.default_rng(16)
        for s in range(3):
            recs.append(TR.train_step_gan(some_windows(seed=17), gen, disc,
                                          g_opt, d_opt, cfg, rng, step=s))
        return recs

    a, b = run(), run()
    for ra, rb in zip(a, b):
        assert (ra.d_loss, ra.g_adv, ra.variety,
                ra.grad_norm_g, ra.grad_norm_d) == \
               (rb.d_loss, rb.g_adv, rb.variety,
                rb.grad_norm_g, rb.grad_norm_d)


def mixed_batch():
    """Windows of 1, 2, 3 and 5 agents, so pooling sees a zero row and
    uneven pair segments."""
    classes = ["pedestrian", "car", "bicyclist", "bus", "skateboarder"]
    return [D.synth_scene("turn", n, classes[:n], seed=70 + n, jitter=0.3)[0]
            for n in (1, 2, 3, 5)]


@pytest.mark.parametrize("mode,encoder,tc_kw", [
    ("gan", "lstm", {}),
    ("gan", "transformer", dict(d_steps=2, clip_norm=0.05)),
    ("nogan", "lstm", dict(g_steps=2)),
    ("nogan", "transformer", {}),
])
def test_packed_step_matches_per_window_oracle(mode, encoder, tc_kw):
    batch = mixed_batch()
    cfg = tiny_train_config(mode=mode, k=3, **tc_kw)

    def run(step_fn):
        gen, disc = built_pair(seed=80, encoder=encoder)
        g_opt = Adam(gen.parameters(), lr=cfg.lr)
        d_opt = Adam(disc.parameters(), lr=cfg.lr)
        rng = np.random.default_rng(81)
        recs = []
        for _ in range(2):
            if mode == "gan":
                recs.append(step_fn(batch, gen, disc, g_opt, d_opt, cfg, rng))
            else:
                recs.append(step_fn(batch, gen, g_opt, cfg, rng))
        params = {f"gen.{n}": p.data.copy() for n, p in gen.named_parameters().items()}
        if mode == "gan":
            params.update({f"disc.{n}": p.data.copy()
                           for n, p in disc.named_parameters().items()})
        return recs, params, rng.bit_generator.state

    packed_step = TR.train_step_gan if mode == "gan" else TR.train_step_nogan
    looped_step = looped_train_step_gan if mode == "gan" else looped_train_step_nogan
    got, got_params, got_state = run(packed_step)
    want, want_params, want_state = run(looped_step)
    assert got_state == want_state
    for rec, ref in zip(got, want):
        for name, value in ref.items():
            if value is None:
                assert getattr(rec, name) is None, name
            else:
                np.testing.assert_allclose(getattr(rec, name), value, rtol=1e-12, atol=0)
    for name, w in want_params.items():
        np.testing.assert_allclose(got_params[name], w, rtol=1e-12, atol=0, err_msg=name)


def test_nogan_step_is_variety_only():
    gen, _ = built_pair(seed=18)
    cfg = tiny_train_config(mode="nogan")
    g_opt = Adam(gen.parameters(), lr=cfg.lr)
    ws = some_windows(seed=19)
    rec = TR.train_step_nogan(ws, gen, g_opt, cfg, np.random.default_rng(20))
    assert rec.d_loss is None and rec.g_adv is None
    assert rec.grad_norm_d is None

    # same noise stream, fresh identical generator: the logged variety must
    # equal the plain variety loss of a forward pass
    gen2, _ = built_pair(seed=18)
    rng = np.random.default_rng(20)
    vals = []
    for w in ws:
        preds = M.generator_forward(gen2, w, k=cfg.k, rng=rng)
        vals.append(TR.variety_norms(w.future, preds).data.reshape(-1))
    assert abs(rec.variety - float(np.mean(np.concatenate(vals)))) < 1e-12


@pytest.mark.parametrize("encoder", ["lstm", "transformer"])
def test_gan_step_without_discriminator_is_the_nogan_step(encoder):
    def run(step):
        gen, _ = built_pair(seed=18, encoder=encoder)
        cfg = tiny_train_config(mode="nogan", g_steps=2)
        g_opt = Adam(gen.parameters(), lr=cfg.lr)
        rng = np.random.default_rng(20)
        rec = step(some_windows(seed=19), gen, g_opt, cfg, rng)
        return rec, [p.data for p in gen.parameters()], rng.bit_generator.state

    got, got_params, got_state = run(
        lambda ws, gen, g_opt, cfg, rng: TR.train_step_gan(ws, gen, None, g_opt, None, cfg, rng))
    want, want_params, want_state = run(TR.train_step_nogan)
    assert replace(got, seconds=0.0) == replace(want, seconds=0.0)
    assert got.d_loss is None and got.g_adv is None and got.grad_norm_d is None
    assert all(np.array_equal(g, w) for g, w in zip(got_params, want_params))
    assert got_state == want_state


@pytest.mark.parametrize("mode", ["gan", "nogan"])
@pytest.mark.parametrize("encoder", ["lstm", "transformer"])
def test_step_on_lone_agent_windows_leaves_pooling_as_a_zero_gradient_does(mode, encoder):
    # every window holds one agent, so the batch has no pooling pair: the
    # pooling parameters are in the graph with a zero gradient, which a
    # fresh Adam turns into no move at all
    gen, disc = built_pair(seed=26, encoder=encoder)
    cfg = tiny_train_config(mode=mode)
    g_opt = Adam(gen.parameters(), lr=cfg.lr)
    before = {n: p.data.copy() for n, p in gen.named_parameters().items()}
    batch, rng = some_windows(n_agents=1, seed=27), np.random.default_rng(28)
    if mode == "gan":
        d_opt = Adam(disc.parameters(), lr=cfg.lr)
        rec = TR.train_step_gan(batch, gen, disc, g_opt, d_opt, cfg, rng)
    else:
        rec = TR.train_step_nogan(batch, gen, g_opt, cfg, rng)
    assert np.isfinite(rec.variety) and np.isfinite(rec.grad_norm_g)
    moved = {n for n, p in gen.named_parameters().items()
             if not np.array_equal(before[n], p.data)}
    assert moved and not any(n.startswith("pooling.") for n in moved)


def test_nan_parameter_behind_relu_aborts_the_step():
    # a NaN bias ahead of a relu gets a zero gradient; relu passes the NaN
    # on, so the loss guard trips instead of the NaN surviving every update
    gen, _ = built_pair(seed=24, activation="relu")
    cfg = tiny_train_config(mode="nogan")
    gen.decoder.gamma.layers[0].b.data[0] = np.nan
    before = [p.data.copy() for p in gen.parameters()]
    with pytest.raises(TR.TrainingDiverged):
        TR.train_step_nogan(some_windows(seed=25), gen, Adam(gen.parameters(), lr=cfg.lr),
                            cfg, np.random.default_rng(26))
    assert all(np.array_equal(p.data, b, equal_nan=True)
               for p, b in zip(gen.parameters(), before))


def test_d_loss_decreases_on_separable_data():
    gen, disc = built_pair(seed=21)
    cfg = tiny_train_config(k=1)
    g_opt = Adam(gen.parameters(), lr=cfg.lr)
    d_opt = Adam(disc.parameters(), lr=cfg.lr)
    ws = some_windows(n_agents=2, seed=22, kind="turn")
    rng = np.random.default_rng(23)
    vals = [TR.train_step_gan(ws, gen, disc, g_opt, d_opt, cfg, rng, step=s).d_loss
            for s in range(100)]
    assert np.mean(vals[-10:]) < np.mean(vals[:10])


def test_nan_loss_aborts_with_grad_norms():
    gen, _ = built_pair(seed=24)
    cfg = tiny_train_config(mode="nogan")
    g_opt = Adam(gen.parameters(), lr=cfg.lr)
    gen.decoder.gamma.layers[-1].b.data[:] = np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(TR.TrainingDiverged) as err:
            TR.train_step_nogan(some_windows(seed=25), gen, g_opt, cfg,
                                np.random.default_rng(26))
    assert "grad norms" in str(err.value)


def test_variety_gradient_is_finite_when_a_sample_matches_the_truth():
    gen, _ = built_pair(seed=43)
    (w,) = some_windows(seed=44, n_windows=1)
    z = np.random.default_rng(45).standard_normal((w.n_agents, 2, 2))
    truth = M.generator_forward(gen, w, k=2, z=z).trajectories()[:, 0]
    with Tape():
        loss = TR.variety_loss(truth, M.generator_forward(gen, w, k=2, z=z))
        backward(loss)
    assert float(loss.data) == 0.0
    assert np.isfinite(TR.grad_norm(gen.parameters()))


@pytest.mark.parametrize("network", ["generator", "discriminator"])
def test_non_finite_gradient_aborts_before_any_update(network):
    gen, disc = built_pair(seed=46)
    cfg = tiny_train_config(mode="gan" if network == "discriminator" else "nogan")
    g_opt, d_opt = Adam(gen.parameters(), lr=cfg.lr), Adam(disc.parameters(), lr=cfg.lr)
    poisoned = (gen if network == "generator" else disc).parameters()[0]
    poisoned.grad = np.full(poisoned.shape, np.nan)
    params = gen.parameters() + disc.parameters()
    before = [p.data.copy() for p in params]
    with pytest.raises(TR.TrainingDiverged, match=network):
        if network == "generator":
            TR.train_step_nogan(some_windows(seed=47), gen, g_opt, cfg,
                                np.random.default_rng(48))
        else:
            TR.train_step_gan(some_windows(seed=47), gen, disc, g_opt, d_opt, cfg,
                              np.random.default_rng(48))
    assert all(np.array_equal(p.data, b) for p, b in zip(params, before))


def test_empty_batch_rejected():
    gen, disc = built_pair(seed=27)
    cfg = tiny_train_config()
    with pytest.raises(ContractError):
        TR.train_step_nogan([], gen, Adam(gen.parameters()), cfg,
                            np.random.default_rng(0))
    with pytest.raises(ContractError):
        TR.train_step_gan([], gen, disc, Adam(gen.parameters()),
                          Adam(disc.parameters()), cfg, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# config validation and the full loop

def test_train_config_validation():
    with pytest.raises(M.ConfigError):
        tiny_train_config(mode="wgan").validate()
    with pytest.raises(M.ConfigError):
        tiny_train_config(batch_size=0).validate()
    with pytest.raises(M.ConfigError):
        tiny_train_config(epochs=-1).validate()
    with pytest.raises(M.ConfigError):
        tiny_train_config(lr=0.0).validate()
    with pytest.raises(M.ConfigError):
        tiny_train_config(clip_norm=-1.0).validate()
    assert tiny_train_config().validate().mode == "gan"


def split_of(windows):
    return D.DatasetSplit(train=windows[:-2], val=windows[-2:-1],
                          test=windows[-1:])


def test_run_training_zero_epochs_returns_initial_params():
    gen, _ = built_pair(seed=28)
    init = {n: p.data.copy() for n, p in gen.named_parameters().items()}
    split = split_of(some_windows(seed=29, n_windows=4))
    best, log = TR.run_training(gen, None, split,
                                tiny_train_config(mode="nogan", epochs=0))
    assert log.steps == [] and log.epochs == []
    assert best["epoch"] is None and best["val_ade"] is None
    assert set(best["generator"]) == set(init)
    assert all(np.array_equal(best["generator"][n], init[n]) for n in init)


def test_run_training_epoch_loop_and_validation():
    gen, disc = built_pair(seed=30)
    split = split_of(some_windows(seed=31, n_windows=6))
    cfg = tiny_train_config(epochs=2, batch_size=3)
    best, log = TR.run_training(gen, disc, split, cfg)
    # 4 train windows in batches of 3 -> 2 steps per epoch
    assert len(log.steps) == 4
    assert [r.step for r in log.steps] == [0, 1, 2, 3]
    assert len(log.epochs) == 2
    assert best["val_ade"] is not None
    assert best["discriminator"] is not None


def test_run_training_requires_train_windows_and_discriminator():
    gen, disc = built_pair(seed=32)
    empty = D.DatasetSplit(train=[], val=[], test=[])
    with pytest.raises(M.ConfigError):
        TR.run_training(gen, disc, empty, tiny_train_config())
    split = split_of(some_windows(seed=33, n_windows=4))
    with pytest.raises(M.ConfigError):
        TR.run_training(gen, None, split, tiny_train_config(mode="gan"))


def test_resumed_runs_are_bit_identical_to_each_other():
    split = split_of(some_windows(seed=34, n_windows=5))
    cfg = tiny_train_config(mode="nogan", epochs=2, batch_size=2)
    gen, _ = built_pair(seed=35)
    TR.run_training(gen, None, split, cfg)
    snap = M.snapshot_params(gen)

    def resume():
        g, _ = built_pair(seed=36)
        M.restore_params(g, snap)
        cont = tiny_train_config(mode="nogan", epochs=4, batch_size=2)
        best, log = TR.run_training(g, None, split, cont, start_epoch=2)
        return g, log

    g1, log1 = resume()
    g2, log2 = resume()
    for a, b in zip(log1.steps, log2.steps):
        assert (a.variety, a.grad_norm_g) == (b.variety, b.grad_norm_g)
    for pa, pb in zip(g1.parameters(), g2.parameters()):
        assert pa.data.tobytes() == pb.data.tobytes()
    assert [r.epoch for r in log1.steps] == [2, 2, 3, 3]


def test_restore_params_shape_and_name_checks():
    gen, _ = built_pair(seed=37)
    snap = M.snapshot_params(gen)
    bad = dict(snap)
    bad.pop(next(iter(bad)))
    with pytest.raises(M.CheckpointError):
        M.restore_params(gen, bad)
    worse = {n: (v.copy() if i else np.zeros((1, 1)))
             for i, (n, v) in enumerate(snap.items())}
    with pytest.raises(M.CheckpointError):
        M.restore_params(gen, worse)


def test_train_log_csv_layout():
    log = TR.TrainLog()
    log.steps.append(TR.StepRecord(0, 0, None, None, 1.5, 0.25, None, 0.01))
    log.steps.append(TR.StepRecord(1, 0, 1.38, 0.69, 1.4, 0.5, 0.75, 0.02))
    log.epochs.append(TR.EpochRecord(0, 12.5, 20.0))
    lines = log.steps_csv().strip().splitlines()
    assert lines[0] == "step,epoch,d_loss,g_adv,variety,grad_norm_g,grad_norm_d,seconds"
    assert lines[1].startswith("0,0,,,1.5,")
    assert lines[2].startswith("1,0,1.38,0.69,")
    elines = log.epochs_csv().strip().splitlines()
    assert elines[0] == "epoch,val_ade,val_fde"
    assert elines[1] == "0,12.5,20.0"


def test_train_log_csv_bytes():
    log = TR.TrainLog()
    log.steps.append(TR.StepRecord(0, 0, None, None, 1.5, 0.25, None, 0.01))  # noGAN
    log.steps.append(TR.StepRecord(1, 0, 1.38, 0.1 + 0.2, 1e-07, 0.5, 0.75, 0.02))  # GAN
    log.epochs.append(TR.EpochRecord(0, 12.5, 20.0))
    log.epochs.append(TR.EpochRecord(1, 0.1 + 0.2, 3.0))
    assert log.steps_csv() == (
        "step,epoch,d_loss,g_adv,variety,grad_norm_g,grad_norm_d,seconds\r\n"
        "0,0,,,1.5,0.25,,0.01\r\n"
        "1,0,1.38,0.30000000000000004,1e-07,0.5,0.75,0.02\r\n")
    assert log.epochs_csv() == ("epoch,val_ade,val_fde\r\n"
                                "0,12.5,20.0\r\n"
                                "1,0.30000000000000004,3.0\r\n")
    assert TR.TrainLog().epochs_csv() == "epoch,val_ade,val_fde\r\n"


# ---------------------------------------------------------------------------
# overfit capacity and the activation harness

def test_nogan_overfit_drives_variety_down():
    gen, _ = built_pair(seed=38)
    cfg = tiny_train_config(mode="nogan", k=2, lr=5e-3)
    g_opt = Adam(gen.parameters(), lr=cfg.lr)
    ws = some_windows(n_agents=2, seed=39, n_windows=1)
    rng = np.random.default_rng(40)
    first = last = None
    for s in range(200):
        rec = TR.train_step_nogan(ws, gen, g_opt, cfg, rng, step=s)
        first = rec.variety if first is None else first
        last = rec.variety
    assert last < 0.2 * first


def test_hidden_grad_fraction_contracts():
    with pytest.raises(ContractError):
        TR.hidden_grad_fraction([])
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        TR.hidden_grad_fraction([t])


def test_discriminator_hidden_fraction_collects_real_and_fake_passes():
    gen, disc = built_pair(seed=49)
    ws = some_windows(seed=50)
    frac = TR.discriminator_hidden_fraction(ws, gen, disc, np.random.default_rng(51))
    assert frac == 1.0  # the per-window passes gave 1.0 on these seeds too
    hidden_layers = len(disc.classifier.layers) - 1
    rows = 2 * sum(w.n_agents for w in ws)  # every real and every fake row
    assert [h.shape[0] for h in disc.classifier.last_hidden] == [rows] * hidden_layers
    assert not disc.classifier.collect_hidden


def test_discriminator_hidden_fraction_leaves_no_parameter_gradient():
    # a caller that trains on after the probe must not add its gradients
    # into the next discriminator update
    gen, disc = built_pair(seed=49)
    frac = TR.discriminator_hidden_fraction(some_windows(seed=50), gen, disc,
                                            np.random.default_rng(51))
    assert frac == 1.0
    params = disc.parameters()
    assert params and all(p.grad is None and p.requires_grad for p in params)
    assert all(p.grad is None for p in gen.parameters())


def test_activation_ablation_runs_and_orders_fractions():
    cfg = tiny_train_config(k=1, seed=41)
    ws = some_windows(n_agents=2, seed=42, n_windows=1)
    relu, leaky = TR.run_activation_ablation(ws, tiny_config(), cfg, steps=15)
    assert relu.activation == "relu" and leaky.activation == "leaky_relu"
    assert len(relu.log.steps) == 15 and len(leaky.log.steps) == 15
    assert 0.0 <= relu.hidden_grad_fraction <= 1.0
    assert leaky.hidden_grad_fraction > relu.hidden_grad_fraction


def test_activation_ablation_trains_through_run_training():
    # the ablation's leaky run logs exactly what run_training logs for the same pair
    cfg = tiny_train_config(k=2, seed=43)
    ws = some_windows(n_agents=2, seed=44, n_windows=3)
    _, leaky = TR.run_activation_ablation(ws, tiny_config(), cfg, steps=4)
    gen, disc = built_pair(seed=cfg.seed, activation="leaky_relu")
    _, log = TR.run_training(gen, disc, D.DatasetSplit(train=list(ws)),
                             replace(cfg, mode="gan", epochs=4, batch_size=len(ws)))
    assert len(log.steps) == 4
    assert ([replace(r, seconds=None) for r in leaky.log.steps]
            == [replace(r, seconds=None) for r in log.steps])
