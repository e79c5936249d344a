import json

import numpy as np
import pytest

from oracles import (assert_grads_match, looped_attention, looped_decode, looped_pair_indices,
                     score_fake, score_real, sigmoid_ref)
from trajgan import data as D
from trajgan import model as M
from trajgan import tensor as T
from trajgan.tensor import ContractError, Tape, Tensor, backward


def tiny_config(**overrides):
    base = dict(embed_dim=3, class_embed_dim=2, hidden_dim=4, noise_dim=2,
                pool_dim=3, transformer_heads=2, transformer_layers=1,
                transformer_ff_dim=6, gamma_mlp_hidden=(3,),
                pooling_mlp_hidden=(3,), decoder_init_mlp_hidden=(3,),
                classifier_mlp_hidden=(3,), k_samples=3)
    base.update(overrides)
    return M.ModelConfig(**base)


def make_window(seed=0, n_agents=3, jitter=0.5, kind="linear"):
    (w,) = D.synth_scene(kind, n_agents, ["pedestrian", "car", "bicyclist"],
                         seed=seed, jitter=jitter)
    return w


def node_kinds(tape):
    """Op name of every node on a tape, in order."""
    return [node.bwd.__qualname__.split(".", 1)[0] for node in tape.nodes]


# ---------------------------------------------------------------------------
# config

def test_config_validation():
    tiny_config().validate()
    with pytest.raises(M.ConfigError):
        tiny_config(encoder="gru").validate()
    with pytest.raises(M.ConfigError):
        tiny_config(activation="tanh").validate()
    with pytest.raises(M.ConfigError):
        tiny_config(leaky_slope=1.5).validate()
    with pytest.raises(M.ConfigError):
        tiny_config(k_samples=0).validate()
    with pytest.raises(M.ConfigError):
        tiny_config(encoder="transformer", hidden_dim=5).validate()


def test_default_config_matches_training_setup():
    cfg = M.ModelConfig()
    assert (cfg.embed_dim, cfg.class_embed_dim, cfg.hidden_dim, cfg.noise_dim) \
        == (16, 16, 32, 8)
    assert cfg.k_samples == 20
    assert (cfg.transformer_heads, cfg.transformer_layers) == (4, 4)
    assert cfg.activation == "leaky_relu"
    cfg.validate()


# ---------------------------------------------------------------------------
# MLP

@pytest.mark.parametrize("activation", ["relu", "leaky_relu"])
def test_mlp_probe_leaves_carry_the_pre_activation_gradient(activation, monkeypatch):
    rng = np.random.default_rng(8)
    mlp = M.MLP((3, 4, 5, 1), rng, activation)
    for layer in mlp.layers:  # a row whose units are all off would sit on the kink
        layer.b.data[:] = rng.standard_normal(layer.b.shape)
    x = Tensor(rng.standard_normal((6, 3)))
    w = Tensor(rng.standard_normal((6, 1)))
    plain = mlp(x).data
    mlp.collect_hidden = True
    assert np.array_equal(mlp(x).data, plain)
    probes = mlp.last_hidden
    assert [p.shape for p in probes] == [(6, 4), (6, 5)]
    assert all(p.requires_grad and p.node_id is None and not p.data.any() for p in probes)

    # finite differences move the probes, so every call gets the same ones
    supply = []
    monkeypatch.setattr(M, "Tensor", lambda data, requires_grad=False: supply.pop(0))

    def loss():
        supply[:] = probes
        return T.tsum(T.mul(mlp(x), w))

    assert_grads_match(loss, probes)
    if activation == "relu":
        assert not all(p.grad.all() for p in probes)  # relu gates some nodes off


# ---------------------------------------------------------------------------
# LSTM cell

def test_lstm_cell_matches_hand_evaluation():
    # feature-major, with the products the op makes; at H=16, R=18, I=8 a
    # row-major evaluation rounds differently
    for n_in, hd, rows, steps in ((3, 2, 4, 3), (8, 16, 18, 4)):
        rng = np.random.default_rng(0)
        cell = M.LSTMCell(n_in, hd, rng)
        xs = rng.standard_normal((steps, rows, n_in))
        # stored gate blocks (i, f, g, o) as rows in the compute order (i, f, o, g)
        order = np.r_[0:2 * hd, 3 * hd:4 * hd, 2 * hd:3 * hd]
        A_x, A_h = cell.W_x.data.T[order], cell.W_h.data.T[order]
        bias = np.repeat(cell.b.data[order][:, None], rows, axis=1)

        h = c = np.zeros((hd, rows))
        for x in xs:
            gates = A_x @ np.ascontiguousarray(x.T) + A_h @ h + bias
            i = sigmoid_ref(gates[:hd])
            f = sigmoid_ref(gates[hd:2 * hd])
            o = sigmoid_ref(gates[2 * hd:3 * hd])
            g = np.tanh(gates[3 * hd:])
            c = f * c + i * g
            h = o * np.tanh(c)

        out = cell.run(Tensor(xs.reshape(steps * rows, n_in)), rows=rows).data
        assert np.array_equal(out, h.T)


@pytest.mark.parametrize("rows", [1, 4, 9])
def test_lstm_recurrence_records_one_node_per_sequence(rows):
    cell = M.LSTMCell(2, 3, np.random.default_rng(6))
    for length in (1, 5, 12):
        x = Tensor(np.random.default_rng(7).standard_normal((length * rows, 2)),
                   requires_grad=True)
        with Tape() as tape:
            h = cell.run(x, rows)
        assert h.shape == (rows, 3)
        assert node_kinds(tape) == ["lstm_sequence"]


def test_lstm_zero_weights_give_zero_hidden():
    cell = M.LSTMCell(2, 3, np.random.default_rng(1))
    for p in (cell.W_x, cell.W_h, cell.b):
        p.data[:] = 0.0
    h = cell.run(Tensor(np.random.default_rng(2).standard_normal((8 * 5, 2))), rows=5)
    assert np.array_equal(h.data, np.zeros((5, 3)))


def test_lstm_forget_bias_initialized_to_one():
    cell = M.LSTMCell(2, 4, np.random.default_rng(3))
    assert np.array_equal(cell.b.data[4:8], np.ones(4))
    assert np.array_equal(cell.b.data[:4], np.zeros(4))
    assert np.array_equal(cell.b.data[8:], np.zeros(8))


def test_lstm_grads_through_8_steps():
    rng = np.random.default_rng(4)
    cell = M.LSTMCell(2, 3, rng)
    xs = [rng.standard_normal((2, 2)) for _ in range(8)]

    def loss():
        return T.tsum(cell.run(Tensor(np.concatenate(xs)), rows=2))

    assert_grads_match(loss, [cell.W_x, cell.W_h, cell.b])


def gated_cell(in_dim, hidden, output_bias):
    """An ``LSTMCell`` with zero W_h whose gates follow the stored order
    (input, forget, cell, output): the input gate is shut (bias -30) unless
    input feature 0 is 1, which opens it (weight +60); the forget gate is
    open (+30); the cell gate reads tanh(0.5); the output gate has bias
    ``output_bias``.  So the first step with feature 0 set writes
    c = tanh(0.5), and later steps without it keep c."""
    h = hidden
    cell = M.LSTMCell(in_dim, hidden, np.random.default_rng(0))
    cell.W_x.data[:] = 0.0
    cell.W_x.data[0, :h] = 60.0
    cell.W_h.data[:] = 0.0
    cell.b.data[:] = np.repeat([-30.0, 30.0, 0.5, output_bias], h)
    return cell


@pytest.mark.parametrize("output_bias,want", [
    (0.0, 0.5 * np.tanh(np.tanh(0.5))),  # o = 1/2, c kept from the first step
    (-30.0, 0.0),  # the output gate shuts h
])
def test_lstm_sequence_reads_gates_in_storage_order(output_bias, want):
    # a slip in the gate order that the fused op and its oracle shared
    # would pass their comparison; this reads the order from the parameters
    rows, hidden = 3, 4
    cell = gated_cell(2, hidden, output_bias)
    for steps in (1, 2, 7):
        x = np.zeros((steps * rows, 2))
        x[:rows, 0] = 1.0  # the first step only
        h = cell.run(Tensor(x), rows).data
        np.testing.assert_allclose(h, np.full((rows, hidden), want), rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("output_bias,want", [
    (0.0, 0.5 * np.tanh(np.tanh(0.5))),
    (-30.0, 0.0),
])
def test_lstm_rollout_reads_gates_in_storage_order(output_bias, want):
    # the cell's input is the embedded x displacement: 1 at the first step,
    # then gamma's x output, which is zero; gamma's y output is h[0], so
    # the y displacements show h at every step
    rows, hidden, steps = 3, 4, 6
    cell = gated_cell(2, hidden, output_bias)
    W_e, b_e = Tensor(np.eye(2)), Tensor(np.zeros(2))
    W_g = np.zeros((hidden, 2))
    W_g[0, 1] = 1.0
    last_disp = np.zeros((rows, 2))
    last_disp[:, 0] = 1.0
    _, disps = T.lstm_rollout(Tensor(np.zeros((rows, hidden))), (W_e, b_e),
                              (cell.W_x, cell.W_h, cell.b),
                              [(Tensor(W_g), Tensor(np.zeros(2)))], np.zeros((rows, 2)),
                              last_disp, steps, 1.0)
    assert np.array_equal(disps.data[:, 0], np.zeros(steps * rows))
    np.testing.assert_allclose(disps.data[:, 1], np.full(steps * rows, want),
                               rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# embeddings

def test_embed_step_output_width():
    enc_l = M.SequenceEncoder(tiny_config(use_labels=True), np.random.default_rng(5))
    enc_n = M.SequenceEncoder(tiny_config(use_labels=False), np.random.default_rng(5))
    xy = Tensor(np.zeros((4, 2)))
    oh = Tensor(np.eye(6)[[0, 1, 2, 3]])
    assert enc_l.embed_step(xy, oh).shape == (4, 3 + 2)
    assert enc_n.embed_step(xy, oh).shape == (4, 3)


def test_embed_step_zero_weights_zero_output():
    enc = M.SequenceEncoder(tiny_config(), np.random.default_rng(6))
    enc.spatial.W.data[:] = 0.0
    enc.class_embed.W.data[:] = 0.0
    out = enc.embed_step(Tensor(np.ones((2, 2))), Tensor(np.eye(6)[[0, 5]]))
    assert np.array_equal(out.data, np.zeros((2, 5)))


def test_embed_step_distinguishes_classes_at_same_position():
    enc = M.SequenceEncoder(tiny_config(), np.random.default_rng(7))
    xy = Tensor(np.array([[1.0, 2.0], [1.0, 2.0]]))
    oh = Tensor(np.eye(6)[[4, 2]])
    out = enc.embed_step(xy, oh).data
    assert not np.allclose(out[0], out[1])


def test_class_in_spatial_switch_changes_param_shape():
    with_c = M.SequenceEncoder(tiny_config(class_in_spatial=True), np.random.default_rng(8))
    without = M.SequenceEncoder(tiny_config(class_in_spatial=False), np.random.default_rng(8))
    assert with_c.spatial.W.shape == (8, 3)
    assert without.spatial.W.shape == (2, 3)


def test_class_embedding_matrix():
    gen = M.build_generator(tiny_config(), seed=9)
    mat = M.class_embedding_matrix(gen)
    assert mat.shape == (6, 2)
    expected = np.eye(6) @ gen.encoder.class_embed.W.data + gen.encoder.class_embed.b.data
    assert np.allclose(mat, expected, atol=1e-12)
    gen_nolabel = M.build_generator(tiny_config(use_labels=False), seed=9)
    with pytest.raises(M.LabelsUnavailableError):
        M.class_embedding_matrix(gen_nolabel)


# ---------------------------------------------------------------------------
# transformer

def test_single_token_attention_is_identity_weight():
    rng = np.random.default_rng(12)
    mha = M.MultiHeadAttention(4, 2, rng)
    x = Tensor(rng.standard_normal((1, 4)))
    out = mha(x)
    manual = (x.data @ mha.Wv.W.data + mha.Wv.b.data) @ mha.Wo.W.data + mha.Wo.b.data
    assert np.allclose(out.data, manual, atol=1e-12)


def test_transformer_positions_matter():
    cfg = tiny_config(encoder="transformer")
    enc = M.SequenceEncoder(cfg, np.random.default_rng(13))
    rng = np.random.default_rng(14)
    steps = [rng.standard_normal((1, 2)) for _ in range(5)]
    oh = Tensor(np.eye(6)[[3]])
    base = enc.encode(Tensor(np.concatenate(steps)), oh).data.copy()
    swapped = [steps[1], steps[0]] + steps[2:]
    out = enc.encode(Tensor(np.concatenate(swapped)), oh).data
    assert not np.allclose(base, out)


def test_transformer_mean_pool():
    cfg = tiny_config(encoder="transformer", transformer_pool="mean")
    enc = M.SequenceEncoder(cfg, np.random.default_rng(15))
    steps = Tensor(np.random.default_rng(16).standard_normal((4 * 3, 2)))
    out = enc.encode(steps, Tensor(np.eye(6)[[0, 1, 2]]))
    assert out.shape == (3, 4)


def test_transformer_grads():
    cfg = tiny_config(encoder="transformer")
    enc = M.SequenceEncoder(cfg, np.random.default_rng(17))
    rng = np.random.default_rng(18)
    steps = [rng.standard_normal((2, 2)) for _ in range(4)]
    oh = np.eye(6)[[0, 4]]
    params = list(enc.named_parameters("enc").values())

    def loss():
        out = enc.encode(Tensor(np.concatenate(steps)), Tensor(oh))
        return T.tsum(T.mul(out, out))

    assert_grads_match(loss, params, rtol=2e-4)


@pytest.mark.parametrize("rows", [1, 3, 5])
@pytest.mark.parametrize("pool", ["last", "mean"])
def test_packed_transformer_encode_matches_per_agent_calls(pool, rows):
    cfg = tiny_config(encoder="transformer", transformer_pool=pool, transformer_layers=2)
    enc = M.TransformerEncoder(5, cfg, np.random.default_rng(70))
    params = list(enc.named_parameters("enc").values())
    rng = np.random.default_rng(71)
    length = 4
    seq = Tensor(rng.standard_normal((length * rows, 5)), requires_grad=True)
    w = Tensor(rng.standard_normal((rows, cfg.hidden_dim)))

    def run(fn):
        for t in params + [seq]:
            t.grad = None
        with Tape():
            out = fn()
            backward(T.tsum(T.mul(out, w)))
        return out.data, [t.grad for t in params + [seq]]

    got, got_grads = run(lambda: enc.run(seq, rows=rows))
    want, want_grads = run(lambda: T.concat(
        [enc.run(T.take_rows(seq, np.arange(r, length * rows, rows)), rows=1)
         for r in range(rows)], axis=0))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    for g, w_ in zip(got_grads, want_grads):
        np.testing.assert_allclose(g, w_, rtol=1e-10, atol=1e-13)


@pytest.mark.parametrize("encoder", ["lstm", "transformer"])
def test_encoder_tape_nodes_do_not_grow_with_agents(encoder):
    # the whole encoder is one pass over all agents and steps: no per-agent
    # or per-step loop records nodes
    enc = M.SequenceEncoder(tiny_config(encoder=encoder), np.random.default_rng(72))
    rng = np.random.default_rng(73)

    def nodes(rows, length):
        steps = Tensor(rng.standard_normal((length * rows, 2)))
        with Tape() as tape:
            enc.encode(steps, Tensor(np.eye(6)[rng.integers(0, 6, rows)]))
        return node_kinds(tape)

    counts = {(rows, length): nodes(rows, length) for rows in (1, 7) for length in (1, 8, 20)}
    assert len(set(map(tuple, counts.values()))) == 1
    if encoder == "lstm":
        assert counts[(7, 20)].count("lstm_sequence") == 1


def test_decoder_tape_nodes_do_not_grow_with_rows():
    # one rollout node, and the same nodes before it, whatever the rows and steps
    dec = M.Decoder(tiny_config(), np.random.default_rng(74))
    rng = np.random.default_rng(75)

    def nodes(rows, t_pred):
        hidden, pooled, noise = (Tensor(rng.standard_normal((rows, d))) for d in (4, 3, 2))
        with Tape() as tape:
            dec.decode(hidden, pooled, noise, rng.standard_normal((rows, 2)),
                       rng.standard_normal((rows, 2)), t_pred)
        return node_kinds(tape)

    kinds = nodes(1, 1)
    assert kinds[-1] == "lstm_rollout" and kinds.count("lstm_rollout") == 1
    for rows in (1, 7):
        for t_pred in (1, 5, 12):
            assert nodes(rows, t_pred) == kinds


@pytest.mark.parametrize("activation,gamma_hidden", [("leaky_relu", (3,)), ("relu", (3, 2)),
                                                     ("leaky_relu", ())])
def test_decoder_matches_looped_oracle(activation, gamma_hidden):
    cfg = tiny_config(activation=activation, gamma_mlp_hidden=gamma_hidden)
    dec = M.Decoder(cfg, np.random.default_rng(76))
    rng = np.random.default_rng(77)
    params = list(dec.named_parameters("dec").values())
    inputs = [Tensor(rng.standard_normal((5, d)), requires_grad=True) for d in (4, 3, 2)]
    last_pos, last_disp = rng.standard_normal((2, 5, 2)) * 20.0
    weights = [Tensor(rng.standard_normal((5, 12))), Tensor(rng.standard_normal((30, 2)))]

    def looped():
        h0 = dec.init_mlp(T.concat(inputs, axis=1))
        return looped_decode(h0, (dec.embed.W, dec.embed.b),
                             (dec.cell.W_x, dec.cell.W_h, dec.cell.b),
                             [(layer.W, layer.b) for layer in dec.gamma.layers],
                             last_pos, last_disp, 6, cfg.input_scale, activation,
                             cfg.leaky_slope)

    def run(fn):
        for t in params + inputs:
            t.grad = None
        with Tape():
            traj, disp = fn()
            backward(T.add(T.tsum(T.mul(traj, weights[0])), T.tsum(T.mul(disp, weights[1]))))
        return traj.data, disp.data, [t.grad for t in params + inputs]

    got = run(lambda: dec.decode(*inputs, last_pos, last_disp, 6))
    want = run(looped)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    for g, w in zip(got[2], want[2]):
        np.testing.assert_allclose(g, w, rtol=1e-10, atol=1e-13)


def test_attention_key_bias_changes_nothing():
    # the key projection carries no bias: a bias would shift every score of
    # a query by the same amount, which softmax removes
    rng = np.random.default_rng(74)
    mha = M.MultiHeadAttention(6, 3, rng)
    assert list(mha.named_parameters("mha")) == ["mha.q.W", "mha.q.b", "mha.k.W", "mha.v.W",
                                                  "mha.v.b", "mha.o.W", "mha.o.b"]
    x = Tensor(rng.standard_normal((12, 6)))
    bias = Tensor(rng.standard_normal(6) * 3.0)
    for groups in (1, 3, 4):
        got = mha(x, groups=groups).data
        want = mha.Wo(looped_attention(mha.Wq(x), T.add(T.matmul(x, mha.Wk), bias),
                                       mha.Wv(x), 3, groups)).data
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_sinusoidal_positions_shape_and_range():
    pe = M.sinusoidal_positions(20, 32)
    assert pe.shape == (20, 32)
    assert np.all(np.abs(pe) <= 1.0)
    assert not np.allclose(pe[0], pe[19])


# ---------------------------------------------------------------------------
# pooling

def test_pooling_single_agent_is_zero_vector():
    pool = M.PoolingModule(tiny_config(), np.random.default_rng(19))
    out = pool(Tensor(np.random.default_rng(20).standard_normal((1, 4))),
               np.zeros((1, 2)))
    assert np.array_equal(out.data, np.zeros((1, 3)))


def test_pooling_permutation_invariance_bitwise():
    cfg = tiny_config()
    pool = M.PoolingModule(cfg, np.random.default_rng(21))
    rng = np.random.default_rng(22)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        H = rng.standard_normal((n, cfg.hidden_dim))
        pos = rng.uniform(0, 50, (n, 2))
        perm = rng.permutation(n)
        base = pool(Tensor(H), pos).data
        permuted = pool(Tensor(H[perm]), pos[perm]).data
        assert base[perm].tobytes() == permuted.tobytes()


def test_pooling_grads():
    cfg = tiny_config()
    pool = M.PoolingModule(cfg, np.random.default_rng(23))
    rng = np.random.default_rng(24)
    H = Tensor(rng.standard_normal((3, cfg.hidden_dim)), requires_grad=True)
    pos = rng.uniform(0, 10, (3, 2))
    params = [H] + list(pool.named_parameters("pool").values())
    assert_grads_match(lambda: T.tsum(pool(H, pos)), params)


def test_pooling_grads_over_windows_with_a_lone_agent():
    cfg = tiny_config()
    pool = M.PoolingModule(cfg, np.random.default_rng(25))
    rng = np.random.default_rng(26)
    counts = [3, 1, 5, 2]
    H = Tensor(rng.standard_normal((sum(counts), cfg.hidden_dim)), requires_grad=True)
    pos = [rng.uniform(0, 10, (n, 2)) for n in counts]
    w = Tensor(rng.standard_normal((sum(counts), cfg.pool_dim)))
    params = [H] + list(pool.named_parameters("pool").values())
    assert_grads_match(lambda: T.tsum(T.mul(pool(H, pos), w)), params)


def test_pooling_packed_windows_stay_apart_bitwise():
    cfg = tiny_config()
    pool = M.PoolingModule(cfg, np.random.default_rng(67))
    rng = np.random.default_rng(68)
    counts = [3, 1, 5, 2]
    H = rng.standard_normal((sum(counts), cfg.hidden_dim))
    pos = [rng.uniform(0, 50, (n, 2)) for n in counts]
    base = pool(Tensor(H), pos).data
    offsets = np.cumsum([0] + counts)
    assert np.array_equal(base[3], np.zeros(cfg.pool_dim))  # the lone agent
    for w, n in enumerate(counts):
        rows = slice(offsets[w], offsets[w + 1])
        if n > 1:
            # a window pooled alone matches its rows of the pack
            np.testing.assert_allclose(pool(Tensor(H[rows]), pos[w]).data, base[rows],
                                       rtol=1e-12, atol=1e-15)
        # permuting the agents of window w moves only window w's rows
        perm = rng.permutation(n)
        H2, pos2 = H.copy(), list(pos)
        H2[rows] = H[rows][perm]
        pos2[w] = pos[w][perm]
        permuted = pool(Tensor(H2), pos2).data
        want = base.copy()
        want[rows] = base[rows][perm]
        assert permuted.tobytes() == want.tobytes()


@pytest.mark.parametrize("counts", [(1, 3, 16, 2, 1), (1, 1, 1), (5,)])
def test_pair_indices_match_per_window_loop(counts):
    got, want = M._pair_indices(counts), looped_pair_indices(counts)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_pooling_all_single_agent_windows_are_zero():
    pool = M.PoolingModule(tiny_config(), np.random.default_rng(69))
    out = pool(Tensor(np.ones((3, 4))), [np.zeros((1, 2))] * 3)
    assert np.array_equal(out.data, np.zeros((3, 3)))
    with pytest.raises(ContractError):
        pool(Tensor(np.ones((3, 4))), [np.zeros((1, 2))] * 2)


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("encoder", ["lstm", "transformer"])
def test_encode_embeds_every_step_like_embed_step(encoder, frozen):
    # reference: embed_step on each step (LSTM) or each agent (transformer)
    enc = M.SequenceEncoder(tiny_config(encoder=encoder), np.random.default_rng(65))
    params = list(enc.named_parameters("enc").values())
    for p in params:
        p.requires_grad = not frozen
    rng = np.random.default_rng(66)
    steps = [Tensor(s, requires_grad=t >= 2)
             for t, s in enumerate(rng.standard_normal((5, 3, 2)) * 10.0)]
    oh = Tensor(np.eye(6)[[0, 3, 5]])

    def reference():
        if encoder == "lstm":
            return enc.core.run(T.concat([enc.embed_step(s, oh) for s in steps]), 3)
        return T.concat([enc.core.run(enc.embed_step(
            T.concat([T.narrow(s, 0, r, 1) for s in steps], axis=0),
            T.take_rows(oh, [r] * 5)), 1) for r in range(3)], axis=0)

    def run(fn):
        for t in params + steps:
            t.grad = None
        with Tape() as tape:
            out = fn()
            backward(T.tsum(out))
            nodes = len(tape.nodes)
        return out.data, [t.grad for t in params + steps[2:]], nodes

    got, got_grads, got_nodes = run(lambda: enc.encode(T.concat(steps), oh))
    want, want_grads, want_nodes = run(reference)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-14)
    for g, w in zip(got_grads, want_grads):
        assert (g is None and w is None) or np.allclose(g, w, rtol=1e-10, atol=1e-12)
    assert got_nodes <= want_nodes


# ---------------------------------------------------------------------------
# decoder and generator

def test_generator_forward_shapes_and_layout():
    gen = M.build_generator(tiny_config(), seed=25)
    w = make_window(seed=26)
    preds = M.generator_forward(gen, w, k=4, rng=np.random.default_rng(27))
    assert preds.n_agents == 3 and preds.k == 4 and preds.t_pred == 12
    assert preds.traj.shape == (12, 24)
    assert preds.trajectories().shape == (3, 4, 12, 2)
    assert preds.noise.shape == (3, 4, 2)
    # time-major displacements: row t*12 + i*4 + j is step t of sample j of agent i
    assert preds.disp_steps.shape == (12 * 12, 2) and preds.obs_steps.shape == (8 * 3, 2)
    steps = preds.disp_steps.data.reshape(12, 12, 2).transpose(1, 0, 2)
    traj = preds.traj.data.reshape(12, 12, 2)
    np.testing.assert_allclose(traj[:, 1:] - traj[:, :-1], steps[:, 1:], rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(traj[:, 0] - np.repeat(w.observed[:, -1], 4, axis=0), steps[:, 0],
                               rtol=1e-9, atol=1e-9)


def test_generator_deterministic_given_noise():
    gen = M.build_generator(tiny_config(), seed=28)
    w = make_window(seed=29)
    z = np.random.default_rng(30).standard_normal((3, 2, 2))
    a = M.generator_forward(gen, w, k=2, z=z).trajectories()
    b = M.generator_forward(gen, w, k=2, z=z).trajectories()
    assert a.tobytes() == b.tobytes()


def test_identical_noise_collapses_samples():
    gen = M.build_generator(tiny_config(), seed=31)
    w = make_window(seed=32)
    z_one = np.random.default_rng(33).standard_normal((3, 1, 2))
    z = np.repeat(z_one, 5, axis=1)
    trajs = M.generator_forward(gen, w, k=5, z=z).trajectories()
    for j in range(1, 5):
        assert np.array_equal(trajs[:, 0], trajs[:, j])


def test_distinct_noise_gives_distinct_samples():
    gen = M.build_generator(tiny_config(), seed=34)
    w = make_window(seed=35)
    trajs = M.generator_forward(gen, w, k=3,
                                rng=np.random.default_rng(36)).trajectories()
    for j in range(1, 3):
        assert np.max(np.abs(trajs[:, 0] - trajs[:, j])) > 1e-4


def test_generator_never_reads_future():
    gen = M.build_generator(tiny_config(), seed=37)
    w = make_window(seed=38)
    z = np.random.default_rng(39).standard_normal((3, 2, 2))
    a = M.generator_forward(gen, w, k=2, z=z).trajectories()
    other = D.SceneWindow(w.scene_id, w.start_frame, w.frame_step, w.agent_ids,
                          w.class_indices, w.observed, w.future + 100.0)
    b = M.generator_forward(gen, other, k=2, z=z).trajectories()
    assert a.tobytes() == b.tobytes()


def test_noise_prefix_is_nested_across_k():
    z1 = M.draw_noise(np.random.default_rng(40), 3, 1, 2)
    z5 = M.draw_noise(np.random.default_rng(40), 3, 5, 2)
    assert np.array_equal(z1[:, 0], z5[:, 0])


def test_generator_noise_shape_contract():
    gen = M.build_generator(tiny_config(), seed=41)
    w = make_window(seed=42)
    with pytest.raises(ContractError):
        M.generator_forward(gen, w, k=2, z=np.zeros((3, 3, 2)))
    with pytest.raises(ContractError):
        M.generator_forward(gen, w, k=2)


def test_generator_forward_packs_windows_like_separate_calls():
    gen = M.build_generator(tiny_config(), seed=47)
    ws = [make_window(seed=48 + n, n_agents=n) for n in (2, 1, 3)]
    rng = np.random.default_rng(51)
    packed = M.generator_forward(gen, ws, k=2, rng=rng)
    ref_rng = np.random.default_rng(51)
    alone = [M.generator_forward(gen, w, k=2, rng=ref_rng) for w in ws]
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert packed.n_agents == 6
    assert np.array_equal(packed.noise, np.concatenate([p.noise for p in alone]))
    np.testing.assert_allclose(packed.trajectories(),
                               np.concatenate([p.trajectories() for p in alone]),
                               rtol=1e-12, atol=1e-12)
    disc = M.build_discriminator(tiny_config(), seed=52)
    np.testing.assert_allclose(score_fake(disc, ws, packed, sample=1).data,
                               np.concatenate([score_fake(disc, w, p, sample=1).data
                                               for w, p in zip(ws, alone)]),
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(score_real(disc, ws).data,
                               np.concatenate([score_real(disc, w).data for w in ws]),
                               rtol=1e-12, atol=0)


def test_generator_forward_rejects_mixed_window_lengths():
    gen = M.build_generator(tiny_config(), seed=53)
    w = make_window(seed=54)
    short = D.SceneWindow(w.scene_id, w.start_frame, w.frame_step, w.agent_ids,
                          w.class_indices, w.observed, w.future[:, :6])
    late = D.SceneWindow(w.scene_id, w.start_frame, w.frame_step, w.agent_ids,
                         w.class_indices, w.observed[:, 1:], w.future)
    for other in (short, late):
        with pytest.raises(ContractError):
            M.generator_forward(gen, [w, other], k=1, rng=np.random.default_rng(55))
    with pytest.raises(ContractError):
        M.generator_forward(gen, [], k=1, rng=np.random.default_rng(55))


def test_generator_full_graph_grads():
    gen = M.build_generator(tiny_config(), seed=43)
    w = make_window(seed=44, n_agents=2)
    z = np.random.default_rng(45).standard_normal((2, 2, 2))
    params = gen.parameters()

    def loss():
        preds = M.generator_forward(gen, w, k=2, z=z)
        return T.tmean(T.mul(preds.traj, preds.traj))

    rng = np.random.default_rng(46)
    names = list(gen.named_parameters())
    coords = []
    sizes = [p.data.size for p in params]
    for _ in range(60):
        li = int(rng.integers(len(params)))
        coords.append((li, int(rng.integers(sizes[li]))))
    assert_grads_match(loss, params, coords=coords, rtol=2e-4)
    assert len(names) == len(params)


# ---------------------------------------------------------------------------
# discriminator

def test_scores_lie_in_unit_interval():
    # the discriminator returns logits, the classifier's output itself;
    # as probabilities σ(logit) they lie in (0, 1)
    cfg = tiny_config()
    disc = M.build_discriminator(cfg, seed=47)
    w = make_window(seed=48)
    s = score_real(disc, w)
    hidden = disc.encoder.encode(M.real_steps([w]), Tensor(w.onehots()))
    assert s.shape == (3, 1)
    assert np.array_equal(s.data, disc.classifier(hidden).data)
    p = T._sigmoid(s.data)
    assert np.all((p > 0) & (p < 1))


def test_zero_classifier_scores_half():
    # logit 0 exactly, which is the probability 1/2
    disc = M.build_discriminator(tiny_config(), seed=49)
    for p in disc.classifier.named_parameters("c").values():
        p.data[:] = 0.0
    w = make_window(seed=50)
    s = score_real(disc, w).data
    assert np.all(s == 0.0) and np.all(T._sigmoid(s) == 0.5)


def test_score_fake_flows_gradient_to_generator():
    cfg = tiny_config()
    gen = M.build_generator(cfg, seed=52)
    disc = M.build_discriminator(cfg, seed=53)
    w = make_window(seed=54, n_agents=2)
    z = np.random.default_rng(55).standard_normal((2, 2, 2))
    with Tape():
        preds = M.generator_forward(gen, w, k=2, z=z)
        s = score_fake(disc, w, preds, sample=1)
        backward(T.tsum(s))
    some_grads = [p.grad for p in gen.parameters() if p.grad is not None]
    assert len(some_grads) > 0
    assert any(np.any(g != 0) for g in some_grads)


def test_discriminator_grads():
    cfg = tiny_config()
    disc = M.build_discriminator(cfg, seed=56)
    w = make_window(seed=57, n_agents=2)
    params = disc.parameters()
    assert_grads_match(lambda: T.tsum(score_real(disc, w)), params, rtol=2e-4)


def test_label_conditioning_adds_parameters():
    with_l = M.build_generator(tiny_config(use_labels=True), seed=58)
    no_labels = M.build_generator(tiny_config(use_labels=False), seed=58)
    n_with = sum(p.data.size for p in with_l.parameters())
    n_without = sum(p.data.size for p in no_labels.parameters())
    assert n_with > n_without


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_round_trip(tmp_path):
    cfg = tiny_config()
    gen = M.build_generator(cfg, seed=59)
    disc = M.build_discriminator(cfg, seed=60)
    path = tmp_path / "ckpt.json"
    M.save_checkpoint(path, gen, disc, {"model": {"hidden_dim": 4}}, {"epoch": 3})
    payload = M.load_checkpoint_payload(path)
    assert payload["meta"]["epoch"] == 3
    gen2 = M.build_generator(cfg, seed=999)
    disc2 = M.build_discriminator(cfg, seed=999)
    M.load_models(payload, gen2, disc2)
    for name, p in gen.named_parameters().items():
        assert np.array_equal(p.data, gen2.named_parameters()[name].data)
    for name, p in disc.named_parameters().items():
        assert np.array_equal(p.data, disc2.named_parameters()[name].data)


def test_checkpoint_shape_mismatch(tmp_path):
    path = tmp_path / "ckpt.json"
    M.save_checkpoint(path, M.build_generator(tiny_config(), seed=61))
    other = M.build_generator(tiny_config(hidden_dim=8), seed=61)
    with pytest.raises(M.CheckpointError) as exc:
        M.load_models(M.load_checkpoint_payload(path), other)
    assert "version 2" in str(exc.value)


def test_restore_params_assigns_in_place_from_a_copy():
    gen = M.build_generator(tiny_config(), seed=63)
    snap = M.snapshot_params(M.build_generator(tiny_config(), seed=64))
    arrays = {n: p.data for n, p in gen.named_parameters().items()}
    M.restore_params(gen, snap)
    for n, p in gen.named_parameters().items():
        assert p.data is arrays[n]
        assert np.array_equal(p.data, snap[n])
    next(iter(arrays.values()))[...] += 1.0
    assert not np.array_equal(next(iter(arrays.values())), next(iter(snap.values())))


def test_checkpoint_json_layout(tmp_path):
    gen = M.build_generator(tiny_config(), seed=67)
    path = tmp_path / "ckpt.json"
    M.save_checkpoint(path, gen, meta={"epoch": 1})
    text = path.read_text()
    payload = json.loads(text)
    assert payload["format_version"] == 2 and payload["discriminator"] is None
    assert text == json.dumps(payload, sort_keys=True) + "\n"
    for name, p in gen.named_parameters().items():
        assert payload["generator"][name] == {"shape": list(p.shape),
                                              "values": p.data.reshape(-1).tolist()}
    assert [f.name for f in tmp_path.iterdir()] == ["ckpt.json"]


def test_version_1_transformer_checkpoint_loads_without_key_bias(tmp_path):
    cfg = tiny_config(encoder="transformer")
    gen = M.build_generator(cfg, seed=75)
    disc = M.build_discriminator(cfg, seed=76)
    path = tmp_path / "ckpt.json"
    M.save_checkpoint(path, gen, disc)
    # the version-1 layout: the same entries plus a key bias per attention layer
    payload = json.loads(path.read_text())
    payload["format_version"] = 1
    added = 0
    for key in ("generator", "discriminator"):
        for name in list(payload[key]):
            if name.endswith(".mha.k.W"):
                payload[key][name[:-1] + "b"] = {"shape": [cfg.hidden_dim],
                                                 "values": [0.5] * cfg.hidden_dim}
                added += 1
    assert added == 2
    path.write_text(json.dumps(payload))
    gen2 = M.build_generator(cfg, seed=77)
    disc2 = M.build_discriminator(cfg, seed=78)
    M.load_models(M.load_checkpoint_payload(path), gen2, disc2)
    for a, b in ((gen, gen2), (disc, disc2)):
        for name, p in a.named_parameters().items():
            assert np.array_equal(p.data, b.named_parameters()[name].data), name


def test_checkpoint_version_check(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text('{"format_version": 99}')
    with pytest.raises(M.CheckpointError):
        M.load_checkpoint_payload(path)


def test_build_is_deterministic():
    a = M.build_generator(tiny_config(), seed=62)
    b = M.build_generator(tiny_config(), seed=62)
    for (na, pa), (nb, pb) in zip(sorted(a.named_parameters().items()),
                                  sorted(b.named_parameters().items())):
        assert na == nb and pa.data.tobytes() == pb.data.tobytes()
