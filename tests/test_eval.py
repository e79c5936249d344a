import numpy as np
import pytest
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from trajgan import data as D
from trajgan import evaluate as E
from trajgan import model as M
from trajgan.tensor import ContractError

from oracles import ade_ref, fde_ref, jacobi_eigh, looped_eval_report, rmse_trajectory_ref


def rand_pairs(rng, n, t):
    return [(rng.normal(size=(t, 2)), rng.normal(size=(t, 2))) for _ in range(n)]


# ---------------------------------------------------------------------------
# metric anchors

def test_rmse_perfect_is_zero():
    p = np.arange(24.0).reshape(12, 2)
    assert E.ade_fde([p], [p])[0] == 0.0


def test_rmse_three_four_offset_is_exactly_five():
    t = np.zeros((7, 2))
    p = t + np.array([3.0, 4.0])
    assert abs(E.ade_fde([p], [t])[0] - 5.0) < 1e-12


def test_rmse_mixed_offsets_hand_value():
    t = np.zeros((2, 2))
    p = np.array([[3.0, 4.0], [0.0, 0.0]])
    assert abs(E.ade_fde([p], [t])[0] - np.sqrt(12.5)) < 1e-12


def test_rmse_length_mismatch_rejected():
    with pytest.raises(ContractError):
        E.ade_fde([np.zeros((3, 2))], [np.zeros((4, 2))])


def test_ade_is_mean_of_rmse():
    t = np.zeros((5, 2))
    assert abs(E.ade_fde([t, t + np.array([3.0, 4.0])], [t, t])[0] - 2.5) < 1e-12


def test_fde_single_three_four_offset():
    t = np.zeros((5, 2))
    p = t.copy()
    p[-1] = [3.0, 4.0]
    assert abs(E.ade_fde([p], [t])[1] - 5.0) < 1e-12


def test_fde_is_rms_over_trajectories():
    t = np.zeros((5, 2))
    p1 = t.copy()
    p1[-1] = [3.0, 4.0]
    assert abs(E.ade_fde([p1, t], [t, t])[1] - np.sqrt(12.5)) < 1e-12


def test_empty_dataset_rejected():
    with pytest.raises(ContractError):
        E.ade_fde([], [])
    with pytest.raises(ContractError):
        E.ade_fde(np.zeros((0, 5, 2)), np.zeros((0, 5, 2)))


def test_metrics_match_straight_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        t = int(rng.integers(1, 15))
        pairs = rand_pairs(rng, n, t)
        preds = [p for p, _ in pairs]
        truths = [t_ for _, t_ in pairs]
        ade, fde = E.ade_fde(preds, truths)
        assert abs(ade - ade_ref(preds, truths)) < 1e-12
        assert abs(fde - fde_ref(preds, truths)) < 1e-12
        assert abs(E.ade_fde(preds[:1], truths[:1])[0] - rmse_trajectory_ref(*pairs[0])) < 1e-12


def test_metrics_translation_invariant():
    rng = np.random.default_rng(1)
    preds, truths = np.array(rand_pairs(rng, 4, 12)).swapaxes(0, 1)
    shift = np.array([123.4, -56.7])
    for a, b in zip(E.ade_fde(preds, truths), E.ade_fde(preds + shift, truths + shift)):
        assert abs(a - b) < 1e-12


# ---------------------------------------------------------------------------
# constant-velocity baseline

def test_baseline_exact_on_linear_scene():
    w = D.synth_scene("linear", 3, ["pedestrian", "car", "bus"], seed=2)[0]
    pred = E.constant_velocity_baseline(w)
    assert np.allclose(pred, w.future, atol=1e-9)


def test_baseline_stationary_agent_stays_put():
    w = D.synth_scene("linear", 1, ["pedestrian"], seed=3)[0]
    w.observed[0, :] = w.observed[0, :1]
    pred = E.constant_velocity_baseline(w)
    assert np.array_equal(pred[0], np.repeat(w.observed[0, -1:], w.t_pred, axis=0))


def test_baseline_misses_turns():
    w = D.synth_scene("turn", 2, ["car", "bicyclist"], seed=4)[0]
    a, _ = E.baseline_metrics([w])
    assert a > 0.1


# ---------------------------------------------------------------------------
# min-of-k evaluation

def tiny_gen(seed=5, **kw):
    cfg = M.ModelConfig(embed_dim=3, class_embed_dim=2, hidden_dim=4,
                        noise_dim=2, pool_dim=3, transformer_heads=2,
                        transformer_layers=1, transformer_ff_dim=6,
                        gamma_mlp_hidden=(3,), pooling_mlp_hidden=(3,),
                        decoder_init_mlp_hidden=(3,), classifier_mlp_hidden=(3,),
                        **kw)
    return M.build_generator(cfg, seed=seed)


def report_scopes(rep):
    got = {"model": (rep.ade, rep.fde, rep.n_trajectories),
           "constant_velocity": (rep.baseline_ade, rep.baseline_fde, rep.n_trajectories)}
    got.update({f"class:{name}": (m.ade, m.fde, m.n) for name, m in rep.per_class.items()})
    return got


def assert_report_matches_oracle(rep, want):
    got = report_scopes(rep)
    assert list(got) == list(want)
    for scope, (a, f, n) in want.items():
        assert got[scope][2] == n
        np.testing.assert_allclose(got[scope][:2], (a, f), rtol=1e-12, atol=0)


def test_eval_report_shape_and_determinism():
    gen = tiny_gen()
    ws = D.synth_scene("linear", 3, ["pedestrian", "car", "bicyclist"],
                       seed=6, n_windows=2)
    r1 = E.eval_min_of_k(gen, ws, k=3, seed=7)
    r2 = E.eval_min_of_k(gen, ws, k=3, seed=7)
    assert r1.ade == r2.ade and r1.fde == r2.fde
    assert r1.n_trajectories == 6
    assert r1.k == 3
    assert set(r1.per_class) == {"pedestrian", "car", "bicyclist"}
    assert sum(m.n for m in r1.per_class.values()) == 6
    assert r1.baseline_ade is not None


def test_min_of_k_nested_improvement():
    gen = tiny_gen()
    ws = D.synth_scene("turn", 2, ["pedestrian", "car"], seed=8, n_windows=3)
    ades = [E.eval_min_of_k(gen, ws, k=k, seed=9).ade for k in (1, 4, 8)]
    assert ades[1] <= ades[0] + 1e-12
    assert ades[2] <= ades[1] + 1e-12


def test_eval_report_matches_per_agent_loop_oracle():
    gen = tiny_gen(use_labels=True)
    ws = [w for seed, kind in ((13, "turn"), (14, "linear"))
          for w in D.synth_scene(kind, 4, ["pedestrian", "car", "bus", "car"], seed=seed,
                                 n_windows=2, jitter=1.0)]
    assert_report_matches_oracle(E.eval_min_of_k(gen, ws, k=5, seed=15),
                                 looped_eval_report(gen, ws, k=5, seed=15))


def scene_windows(agent_counts, classes, seed):
    """One synthetic window per entry of ``agent_counts``, classes drawn in turn."""
    out, used = [], 0
    for i, n in enumerate(agent_counts):
        names = [classes[(used + a) % len(classes)] for a in range(n)]
        out += D.synth_scene(("linear", "turn")[i % 2], n, names, seed=seed + i, jitter=0.5)
        used += n
    return out


def over_budget_agents(k, t_obs=D.T_OBS):
    """The fewest agents whose window alone exceeds one pass's rows."""
    return E.EVAL_PASS_ROWS // (t_obs + k) + 1


@settings(max_examples=25, deadline=None)
@given(counts=st.lists(st.integers(1, 6), min_size=1, max_size=8),
       classes=st.lists(st.sampled_from(D.CLASS_NAMES), min_size=1, max_size=6),
       k=st.sampled_from([1, 2, 5, 20]), big_at=st.none() | st.integers(0, 8),
       seed=st.integers(0, 1000))
def test_packed_eval_matches_per_window_oracle(counts, classes, k, big_at, seed):
    if big_at is not None:
        counts.insert(big_at, over_budget_agents(k))
    gen = tiny_gen(use_labels=True)
    ws = scene_windows(counts, classes, seed)
    assert_report_matches_oracle(E.eval_min_of_k(gen, ws, k=k, seed=seed),
                                 looped_eval_report(gen, ws, k=k, seed=seed))


@pytest.mark.parametrize("k", [1, 5, 20])
def test_eval_passes_fill_the_row_budget_and_keep_each_windows_noise(monkeypatch, k):
    gen = tiny_gen()
    # at k=1 the first seven windows fill one pass exactly: 100 agents * 9 rows
    ws = scene_windows([16] * 6 + [4] + [5, 1, 3, over_budget_agents(k), 2, 6, 4, 1] * 2,
                       ["car", "pedestrian", "bus"], seed=40)
    passes = []

    def spy(gen, block, k, z):
        passes.append((block, z))
        return M.generator_forward(gen, block, k=k, z=z)

    monkeypatch.setattr(E, "generator_forward", spy)
    E.eval_min_of_k(gen, ws, k=k, seed=41)
    rows = [w.n_agents * (w.t_obs + k) for w in ws]
    assert [w for block, _ in passes for w in block] == ws
    start = 0
    for block, z in passes:
        stop = start + len(block)
        assert len(block) == 1 or sum(rows[start:stop]) <= E.EVAL_PASS_ROWS
        if stop < len(ws):  # the next window would not have fit
            assert sum(rows[start:stop + 1]) > E.EVAL_PASS_ROWS
        want = [M.draw_noise(np.random.default_rng([41, i]), ws[i].n_agents, k,
                             gen.config.noise_dim) for i in range(start, stop)]
        assert z.tobytes() == np.concatenate(want).tobytes()
        start = stop
    assert len(passes) < len(ws)


def test_eval_rejects_mixed_window_lengths_before_any_forward(monkeypatch):
    gen = tiny_gen()
    (w,) = D.synth_scene("linear", 2, ["car", "bus"], seed=42)
    short = D.SceneWindow(w.scene_id, w.start_frame, w.frame_step, w.agent_ids,
                          w.class_indices, w.observed, w.future[:, :6])
    monkeypatch.setattr(E, "generator_forward", lambda *a, **kw: pytest.fail("forward ran"))
    with pytest.raises(ContractError, match=r"\(8, 6\), \(8, 12\)"):
        E.eval_min_of_k(gen, [w, short], k=2)


def test_eval_rejects_bad_inputs():
    gen = tiny_gen()
    ws = D.synth_scene("linear", 1, ["car"], seed=10)
    with pytest.raises(ContractError):
        E.eval_min_of_k(gen, ws, k=0)
    with pytest.raises(ContractError):
        E.eval_min_of_k(gen, [], k=1)


def test_report_csv_and_text():
    gen = tiny_gen()
    ws = D.synth_scene("linear", 2, ["pedestrian", "bus"], seed=11)
    r = E.eval_min_of_k(gen, ws, k=2, seed=12)
    csv_text = r.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "scope,ade,fde,n,k"
    assert lines[1].startswith("model,")
    assert any(l.startswith("constant_velocity,") for l in lines)
    assert any(l.startswith("class:pedestrian,") for l in lines)
    text = r.to_text()
    assert E.REFERENCE_MARKER in text
    assert "21.98" in text and "43.53" in text
    assert "23.56" in text and "46.86" in text


def test_reference_rows_cover_experiment_matrix():
    assert len(E.REFERENCE_RESULTS) == 7
    best = min(E.REFERENCE_RESULTS, key=lambda r: r[1])
    assert best[1:] == (21.98, 43.53)


# ---------------------------------------------------------------------------
# PCA and distances

def test_pca_planar_points_keep_pairwise_distances():
    rng = np.random.default_rng(13)
    flat = rng.normal(size=(6, 2))
    basis, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    emb = flat @ basis[:2, :]
    proj = E.pca_project(emb)
    for i in range(6):
        for j in range(6):
            want = np.linalg.norm(flat[i] - flat[j])
            got = np.linalg.norm(proj[i] - proj[j])
            assert abs(want - got) < 1e-9


def test_pca_collinear_second_component_zero():
    emb = np.zeros((3, 5))
    emb[:, 0] = [1.0, 2.0, 3.0]
    proj = E.pca_project(emb)
    assert np.max(np.abs(proj[:, 1])) < 1e-9


def test_pca_rotation_invariance_of_distances():
    rng = np.random.default_rng(14)
    emb = rng.normal(size=(6, 8))
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    p1, p2 = E.pca_project(emb), E.pca_project(emb @ q)
    d1 = E.embedding_distances(p1)
    d2 = E.embedding_distances(p2)
    assert np.max(np.abs(d1 - d2)) < 1e-9


def test_pca_matches_jacobi_oracle():
    rng = np.random.default_rng(15)
    emb = rng.normal(size=(6, 8))
    x = emb - emb.mean(axis=0)
    evals, evecs = jacobi_eigh(x.T @ x / x.shape[0])
    comps = evecs[:, :2].copy()
    for j in range(2):
        nz = np.nonzero(np.abs(comps[:, j]) > 1e-12)[0]
        if comps[nz[0], j] < 0:
            comps[:, j] = -comps[:, j]
    assert np.max(np.abs(E.pca_project(emb) - x @ comps)) < 1e-9


def test_pca_zero_variance_warns_and_zeros():
    emb = np.ones((6, 4)) * 2.5
    with pytest.warns(UserWarning):
        proj = E.pca_project(emb)
    assert np.array_equal(proj, np.zeros((6, 2)))


def test_pca_rejects_one_dim():
    with pytest.raises(ContractError):
        E.pca_project(np.zeros((6, 1)))


def test_distance_table_axioms():
    rng = np.random.default_rng(16)
    e = rng.normal(size=(6, 5))
    d = E.embedding_distances(e)
    assert np.array_equal(d, d.T)
    assert np.array_equal(np.diag(d), np.zeros(6))
    assert abs(d[0, 1] - np.linalg.norm(e[0] - e[1])) < 1e-12
    for i in range(6):
        for j in range(6):
            for l in range(6):
                assert d[i, j] <= d[i, l] + d[l, j] + 1e-12


def test_report_csv_bytes():
    r = E.EvalReport(1.25, 2.5, 7, 20, per_class={
        "golf cart": E.ClassMetrics(0.1 + 0.2, 4.0, 3),
        "pedestrian": E.ClassMetrics(1.0, 2.0, 4)})
    rows = ("class:golf cart,0.30000000000000004,4.0,3,20\r\n"
            "class:pedestrian,1.0,2.0,4,20\r\n")
    assert r.to_csv() == "scope,ade,fde,n,k\r\nmodel,1.25,2.5,7,20\r\n" + rows
    r.baseline_ade, r.baseline_fde = 3.75, 6.0
    assert r.to_csv() == ("scope,ade,fde,n,k\r\nmodel,1.25,2.5,7,20\r\n"
                          "constant_velocity,3.75,6.0,7,1\r\n" + rows)


def test_distance_known_three_four():
    e = np.array([[0.0, 0.0], [3.0, 4.0]])
    d = E.embedding_distances(e)
    assert abs(d[0, 1] - 5.0) < 1e-12


def test_analyze_embeddings_shapes():
    gen = tiny_gen(seed=17)
    a = E.analyze_embeddings(gen)
    assert a.pca_coords.shape == (6, 2)
    assert a.distance_table.shape == (6, 6)
    assert not a.degenerate
    assert a.pca_csv().splitlines()[0] == "class,pc1,pc2"
    assert len(a.pca_csv().strip().splitlines()) == 7
    first = a.distances_csv().splitlines()[0]
    assert first == "class," + ",".join(D.CLASS_NAMES)


def test_analysis_csv_bytes():
    a = E.EmbeddingAnalysis(("bus", "golf cart", "pedestrian"),
                            np.array([[-1.0, 0.25], [0.5, 1 / 3], [0.1 + 0.2, 0.0]]),
                            np.array([[0.0, 2 / 3, 1.5], [2 / 3, 0.0, 1e-07],
                                      [1.5, 1e-07, 0.0]]))
    assert a.pca_csv() == ("class,pc1,pc2\r\n"
                           "bus,-1.0,0.25\r\n"
                           "golf cart,0.5,0.3333333333333333\r\n"
                           "pedestrian,0.30000000000000004,0.0\r\n")
    assert a.distances_csv() == ("class,bus,golf cart,pedestrian\r\n"
                                 "bus,0.0,0.6666666666666666,1.5\r\n"
                                 "golf cart,0.6666666666666666,0.0,1e-07\r\n"
                                 "pedestrian,1.5,1e-07,0.0\r\n")


def test_analyze_embeddings_flags_degenerate():
    gen = tiny_gen(seed=18)
    gen.encoder.class_embed.W.data[:] = 0.0
    a = E.analyze_embeddings(gen)
    assert a.degenerate
    assert np.array_equal(a.pca_coords, np.zeros((6, 2)))
