import ast
import decimal
import gc
import inspect
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (assert_grads_match, composed_layer_norm, composed_min_of_k_norms,
                     composed_mlp, finite_diff, looped_attention, looped_decode,
                     looped_lstm_sequence, looped_lstm_step, lstm_cell, segment_max_ref,
                     sigmoid_ref, unfused_decode, unstacked_lstm_sequence)
from trajgan import tensor as T
from trajgan.optim import Adam, clip_grad_norm, grad_norm
from trajgan.tensor import ContractError, ShapeError, Tape, Tensor, backward, no_grad


def leaf(arr):
    return Tensor(np.asarray(arr, dtype=float), requires_grad=True)


def rand_leaf(rng, shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


# ---------------------------------------------------------------------------
# forward values

def test_matmul_known_product():
    a = leaf([[1.0, 2.0], [3.0, 4.0]])
    b = leaf([[5.0, 6.0], [7.0, 8.0]])
    out = T.matmul(a, b)
    assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    a = leaf(np.zeros((2, 3)))
    b = leaf(np.zeros((4, 5)))
    with pytest.raises(ShapeError) as exc:
        T.matmul(a, b)
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_matmul_rejects_non_2d():
    with pytest.raises(ShapeError):
        T.matmul(leaf([1.0, 2.0]), leaf([[1.0], [2.0]]))


def test_activation_point_values():
    x = leaf([[-1.0, 0.0, 2.0]])
    assert np.array_equal(T.relu(x).data, [[0.0, 0.0, 2.0]])
    assert np.allclose(T.leaky_relu(x, 0.2).data, [[-0.2, 0.0, 2.0]])
    assert T.tanh(leaf([0.0])).data[0] == 0.0
    assert T.sigmoid(leaf([0.0])).data[0] == 0.5


def test_leaky_relu_slope_limits_exact():
    rng = np.random.default_rng(0)
    x = leaf(rng.standard_normal((5, 7)))
    assert np.array_equal(T.leaky_relu(x, 1.0).data, x.data)
    assert np.array_equal(T.leaky_relu(x, 0.0).data, T.relu(x).data)


@pytest.mark.parametrize("slope", [-0.5, 0.0, 0.2, 1.0, 3.0])
def test_leaky_relu_selects_as_np_where_bit_for_bit(slope):
    # signed zeros and NaN of both signs among values on either side of 0,
    # compared as bits: -0.0 differs from 0.0, and equal NaNs are equal
    x = np.concatenate([[0.0, -0.0, np.nan, -np.nan, 1e-300, -1e-300],
                        np.random.default_rng(2).standard_normal(200)])
    want = np.where(x >= 0.0, x, slope * x).view(np.int64)
    for got in (T._activate(x, "leaky_relu", slope), T.leaky_relu(Tensor(x), slope).data,
                T._activate(x, "leaky_relu", slope, np.full_like(x, 7.0))):
        assert np.array_equal(got.view(np.int64), want)


def test_relu_passes_nan_and_selects_as_np_where_bit_for_bit():
    # a NaN pre-activation stays NaN, so the loss guard of a training step
    # sees it; every other value, signed zeros included, is selected as before
    x = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 1e-300, -1e-300],
                        np.random.default_rng(3).standard_normal(200)])
    want = np.where(x >= 0.0, x, 0.0).view(np.int64)
    for got in (T._activate(x, "relu", 0.0), T.relu(Tensor(x)).data,
                T._activate(x, "relu", 0.0, np.full_like(x, 7.0))):
        assert np.array_equal(got.view(np.int64), want)
    assert np.isnan(T.relu(Tensor(np.array([np.nan, -np.nan]))).data).all()


def sigmoid_inputs():
    """Edge values (signed zeros, infinities, NaN, subnormals, the ends of
    exp's range) and a wide random spread, each also as a 2-D or strided
    array."""
    rng = np.random.default_rng(1)
    tiny = np.finfo(float).tiny
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, tiny / 8, -tiny / 8,
                      5e-324, -5e-324, 746.0, -746.0, 745.0, -745.0, 36.7, -36.7, 1e-300])
    spread = rng.standard_normal((300, 40)) * 10.0 ** rng.uniform(-8, 3, (300, 40))
    return edges, edges.reshape(3, 6), spread, spread[:, ::3]


def test_sigmoid_equals_oracle_composition():
    for x in sigmoid_inputs():
        assert np.array_equal(T._sigmoid(x), sigmoid_ref(x), equal_nan=True)


def decimal_sigmoid(x):
    """1/(1 + exp(-x)) of a float to 50 significant digits."""
    ctx = decimal.Context(prec=50)
    return ctx.divide(1, ctx.add(1, ctx.exp(decimal.Decimal(-x))))


def test_sigmoid_matches_decimal_reference():
    # exp(-x), 1 + exp(-x) and its reciprocal each round once, by about
    # half an ulp of relative error, which can add up to 3 ulp of the
    # result; 2.42 is the most seen, near x = -36.7, where exp(-x) passes
    # 2**53 and adding 1 rounds by a whole unit.  Below the smallest normal
    # number the result is a subnormal, or 0 where exp(-x) overflows.
    rng = np.random.default_rng(5)
    x = np.concatenate([np.linspace(-745.0, 40.0, 10000), np.linspace(-40.0, -30.0, 5000),
                        rng.standard_normal(5000) * 10.0 ** rng.uniform(-8, 2.5, 5000)])
    tiny = decimal.Decimal(np.finfo(float).tiny)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = T._sigmoid(x)
        edges = T._sigmoid(np.array([-746.0, -1e308, -np.inf, np.inf, np.nan]))
    worst_ulp = worst_abs = 0.0
    for g, v in zip(got.tolist(), x.tolist()):
        want = decimal_sigmoid(v)
        err = abs(decimal.Decimal(g) - want)
        if want >= tiny:
            worst_ulp = max(worst_ulp, float(err) / math.ulp(float(want)))
        else:
            worst_abs = max(worst_abs, float(err))
    assert worst_ulp <= 3.0 and worst_abs <= 2.3e-308
    assert edges[:4].tolist() == [0.0, 0.0, 0.0, 1.0] and np.isnan(edges[4])


def test_sigmoid_into_given_output_and_in_place():
    for x in sigmoid_inputs():
        fresh, out, y = T._sigmoid(x), np.full(x.shape, 7.0), x.copy()
        assert T._sigmoid(x, out) is out and T._sigmoid(y, y) is y
        assert np.array_equal(out, fresh, equal_nan=True)
        assert np.array_equal(y, fresh, equal_nan=True)


def test_activation_dispatcher_rejects_unknown():
    # tanh and sigmoid are ops of their own, not kinds an MLP can select
    for kind in ("gelu", "tanh", "sigmoid"):
        with pytest.raises(ValueError, match="unknown activation kind"):
            T.activation(leaf([1.0]), kind)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = leaf(rng.standard_normal((4, 6)) * 5.0)
        s = T.softmax_rows(x).data
        assert np.allclose(s.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(s > 0.0)


def test_softmax_uniform_row():
    s = T.softmax_rows(leaf([[3.0, 3.0, 3.0, 3.0]])).data
    assert np.allclose(s, 0.25, atol=1e-15)


def test_concat_and_narrow_round_trip():
    a = leaf([[1.0, 2.0], [3.0, 4.0]])
    b = leaf([[5.0, 6.0]])
    c = T.concat([a, b], axis=0)
    assert np.array_equal(c.data, [[1, 2], [3, 4], [5, 6]])
    back = T.narrow(c, 0, 0, 2)
    assert np.array_equal(back.data, a.data)
    with pytest.raises(ShapeError):
        T.concat([a, leaf([[1.0, 2.0, 3.0]])], axis=0)
    with pytest.raises(ShapeError):
        T.narrow(a, 0, 1, 5)


def test_take_rows_and_blockwise_max_forward():
    x = leaf([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    assert np.array_equal(T.take_rows(x, [2, 0, 2]).data, [[4, 5], [0, 1], [4, 5]])
    y = leaf([[1.0, 9.0], [5.0, 2.0], [0.0, 0.0], [3.0, 4.0]])
    m = T.blockwise_max(y, 2)
    assert np.array_equal(m.data, [[5.0, 9.0], [3.0, 4.0]])
    with pytest.raises(ShapeError):
        T.blockwise_max(y, 3)


def test_broadcast_rules():
    a = leaf(np.ones((3, 4)))
    assert T.add(a, leaf(np.ones(4))).data.shape == (3, 4)
    assert T.add(a, leaf(np.ones((3, 1)))).data.shape == (3, 4)
    assert T.mul(a, leaf(2.0)).data.shape == (3, 4)
    with pytest.raises(ShapeError):
        T.add(leaf(np.ones((1, 4))), leaf(np.ones((3, 1))))


# ---------------------------------------------------------------------------
# gradients against central finite differences

def test_matmul_grads():
    rng = np.random.default_rng(2)
    a, b = rand_leaf(rng, (3, 4)), rand_leaf(rng, (4, 2))
    assert_grads_match(lambda: T.tsum(T.matmul(a, b)), [a, b])


def test_elementwise_and_broadcast_grads():
    rng = np.random.default_rng(3)
    a, b = rand_leaf(rng, (4, 3)), rand_leaf(rng, (4, 3))
    bias = rand_leaf(rng, (3,))
    col = rand_leaf(rng, (4, 1))

    def loss():
        out = T.mul(T.add(a, bias), T.sub(b, col))
        return T.tsum(T.add_scalar(T.mul_scalar(out, 0.5), 1.0))

    assert_grads_match(loss, [a, b, bias, col])


@pytest.mark.parametrize("fn", [
    T.relu,
    lambda x: T.leaky_relu(x, 0.2),
    T.tanh,
    T.sigmoid,
    T.exp,
    lambda x: T.clamp_min(x, 0.1),
    T.neg,
    lambda x: T.add_scalar(x, 1.5),
    lambda x: T.mul_scalar(x, -0.5),
    lambda x: T.tsum(x, axis=0),
])
def test_unary_grads(fn):
    rng = np.random.default_rng(4)
    # keep values away from kinks so finite differences are clean
    x = Tensor(rng.uniform(0.3, 2.0, (3, 5)) * rng.choice([-1.0, 1.0], (3, 5)),
               requires_grad=True)
    assert_grads_match(lambda: T.tsum(fn(x)), [x])


@pytest.mark.parametrize("target", [0.0, 1.0, 0.3, pytest.param(
    np.array([[1.0], [0.0], [0.3], [1.0]]), id="label_column")])
def test_bce_logits_grads(target):
    rng = np.random.default_rng(11)
    s = Tensor(rng.uniform(-6.0, 6.0, (4, 3)), requires_grad=True)
    assert_grads_match(lambda: T.bce_logits(s, target), [s], rtol=1e-6)


@pytest.mark.parametrize("logit", [40.0, -40.0, 800.0, -800.0])
@pytest.mark.parametrize("label", [0.0, 1.0])
def test_bce_logits_at_extreme_logits(logit, label):
    # far in the tails, where exp(-|s|) underflows at ±800 and σ(s) is 0 or
    # 1 exactly: the loss stays finite and the gradient is (σ(s) - label)/n
    s = Tensor(np.full((2, 3), logit), requires_grad=True)
    with Tape():
        loss = T.bce_logits(s, label)
        backward(loss)
    want = max(logit, 0.0) - logit * label + math.log1p(math.exp(-abs(logit)))
    assert math.isfinite(float(loss.data))
    assert float(loss.data) == pytest.approx(want, rel=1e-15, abs=0.0)
    e = math.exp(-abs(logit))
    sig = 1.0 / (1.0 + e) if logit >= 0 else e / (1.0 + e)
    np.testing.assert_allclose(s.grad, np.full((2, 3), (sig - label) / 6), rtol=1e-15, atol=0)
    assert_grads_match(lambda: T.bce_logits(s, label), [s], rtol=1e-6)


@settings(max_examples=300, deadline=None)
@given(s=st.floats(-700.0, 700.0))
def test_bce_logits_matches_independent_softplus_forms(s):
    # -log σ(s) = log(1 + exp(-s)) and -log(1 - σ(s)) = log(1 + exp(s))
    x = Tensor(np.array([[s]]))
    for target, want in ((1.0, math.log1p(math.exp(-s))), (0.0, math.log1p(math.exp(s)))):
        assert float(T.bce_logits(x, target).data) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_positive_domain_grads():
    rng = np.random.default_rng(5)
    x = Tensor(rng.uniform(0.5, 3.0, (4, 4)), requires_grad=True)
    assert_grads_match(lambda: T.tsum(T.log(x)), [x])
    assert_grads_match(lambda: T.tsum(T.sqrt(x)), [x])
    assert_grads_match(lambda: T.tsum(T.powf(x, -0.5)), [x])


def test_softmax_grads_tight():
    rng = np.random.default_rng(6)
    x = rand_leaf(rng, (3, 5))
    w = Tensor(rng.standard_normal((3, 5)), requires_grad=False)
    worst = assert_grads_match(
        lambda: T.tsum(T.mul(T.softmax_rows(x), w)), [x], rtol=1e-5)
    assert worst < 1e-5


def test_slice_gather_grads():
    rng = np.random.default_rng(7)
    x = rand_leaf(rng, (6, 3))

    def loss():
        picked = T.take_rows(x, [0, 0, 4, 2])
        left = T.narrow(picked, 1, 0, 2)
        return T.tsum(T.mul(left, left))

    assert_grads_match(loss, [x])


def test_blockwise_max_grads():
    rng = np.random.default_rng(8)
    x = rand_leaf(rng, (8, 3))
    assert_grads_match(lambda: T.tsum(T.blockwise_max(x, 4)), [x])


def test_segment_max_grads_uneven_and_one_row_segments():
    rng = np.random.default_rng(9)
    x = rand_leaf(rng, (9, 3))
    w = Tensor(rng.standard_normal((4, 3)))
    assert_grads_match(lambda: T.tsum(T.mul(T.segment_max(x, [1, 3, 1, 4]), w)), [x])


def test_segment_max_ties_route_gradient_to_first_row():
    x = leaf([[2.0, 1.0], [2.0, 5.0], [7.0, 5.0], [3.0, 3.0], [3.0, 3.0]])
    with Tape():
        out = T.segment_max(x, [3, 2])
        backward(T.tsum(T.mul(out, Tensor([[1.0, 2.0], [3.0, 4.0]]))))
    assert np.array_equal(out.data, [[7.0, 5.0], [3.0, 3.0]])
    assert np.array_equal(x.grad, [[0.0, 0.0], [0.0, 2.0], [1.0, 0.0],
                                   [3.0, 4.0], [0.0, 0.0]])


def test_blockwise_max_is_segment_max_over_equal_blocks():
    rng = np.random.default_rng(10)
    data = rng.integers(0, 3, (12, 4)).astype(float)  # many ties
    seed = rng.standard_normal((4, 4))
    results = []
    for op in (lambda a: T.blockwise_max(a, 3),
               lambda a: T.segment_max(a, [3, 3, 3, 3])):
        x = leaf(data.copy())
        with Tape():
            out = op(x)
            backward(T.tsum(T.mul(out, Tensor(seed))))
        results.append((out.data, x.grad))
    (va, ga), (vb, gb) = results
    assert va.tobytes() == vb.tobytes() and ga.tobytes() == gb.tobytes()
    # reference: per-block argmax, which picks the first maximal row
    blocks = data.reshape(4, 3, 4)
    first = blocks.argmax(axis=1)
    want = np.zeros((4, 3, 4))
    for b in range(4):
        for c in range(4):
            want[b, first[b, c], c] = seed[b, c]
    assert np.array_equal(va, blocks.max(axis=1))
    assert np.array_equal(ga, want.reshape(12, 4))


@pytest.mark.parametrize("lengths", [[], [5], [7], [3, -1, 4], [2, 2, 1], [[6]]])
def test_segment_max_rejects_bad_lengths(lengths):
    with pytest.raises(ShapeError):
        T.segment_max(leaf(np.zeros((6, 2))), lengths)


def segment_max_values_and_grad(data, lengths, seed):
    """Output and input gradient of ``T.segment_max`` under the loss
    sum(out * seed)."""
    x = leaf(data)
    with Tape():
        out = T.segment_max(x, lengths)
        backward(T.tsum(T.mul(out, Tensor(seed))))
    return out.data, x.grad


@pytest.mark.parametrize("lengths", [[0, 2, 3], [2, 0, 3], [2, 3, 0], [0, 0, 2, 0, 3, 0]])
def test_segment_max_empty_segments_give_zero_rows_and_route_nothing(lengths):
    rng = np.random.default_rng(11)
    data = rng.standard_normal((5, 3))
    full = [n > 0 for n in lengths]
    seed = rng.standard_normal((len(lengths), 3))
    out, grad = segment_max_values_and_grad(data, lengths, seed)
    assert np.array_equal(out[np.logical_not(full)], np.zeros((len(lengths) - 2, 3)))
    # the non-empty segments give what they give without the empty ones
    want_out, want_grad = segment_max_values_and_grad(data, [2, 3], seed[full])
    assert out[full].tobytes() == want_out.tobytes()
    assert grad.tobytes() == want_grad.tobytes()


def test_segment_max_all_empty_over_no_rows():
    out, grad = segment_max_values_and_grad(np.zeros((0, 3)), [0, 0, 0], np.ones((3, 3)))
    assert np.array_equal(out, np.zeros((3, 3)))
    assert grad.shape == (0, 3)


def test_segment_max_grads_with_empty_segments():
    rng = np.random.default_rng(12)
    x = rand_leaf(rng, (6, 3))
    w = Tensor(rng.standard_normal((5, 3)))
    assert_grads_match(lambda: T.tsum(T.mul(T.segment_max(x, [2, 0, 3, 1, 0]), w)), [x])


@settings(max_examples=200, deadline=None)
@given(lengths=st.lists(st.integers(0, 4), min_size=1, max_size=6),
       cols=st.integers(1, 3), seed=st.integers(0, 10_000))
def test_segment_max_matches_looped_oracle_bit_for_bit(lengths, cols, seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(-2, 3, (sum(lengths), cols)).astype(float)  # many ties
    g = rng.standard_normal((len(lengths), cols))
    out, grad = segment_max_values_and_grad(data, lengths, g)
    want_out, want_grad = segment_max_ref(data, lengths, g)
    assert out.tobytes() == want_out.tobytes()
    assert grad.tobytes() == want_grad.tobytes()


def attention_values_and_grads(op, groups, length, heads, head_dim, seed, q_steps=None):
    """Output and q/k/v gradients of ``op`` under a random linear loss, with
    queries of ``q_steps`` steps, by default ``length``."""
    rng = np.random.default_rng(seed)
    n, d = groups * length, heads * head_dim
    m = groups * (length if q_steps is None else q_steps)
    qkv = [rand_leaf(rng, (rows, d)) for rows in (m, n, n)]
    w = Tensor(rng.standard_normal((m, d)))
    with Tape():
        out = op(*qkv, heads, groups)
        backward(T.tsum(T.mul(out, w)))
    return out.data, [x.grad for x in qkv]


def assert_attention_matches_oracle(groups, length, heads, head_dim, seed, q_steps=None):
    shape = (groups, length, heads, head_dim, seed, q_steps)
    got, got_grads = attention_values_and_grads(T.grouped_attention, *shape)
    want, want_grads = attention_values_and_grads(looped_attention, *shape)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_allclose(g, w, rtol=1e-10, atol=1e-13)


@pytest.mark.parametrize("groups,length,heads,head_dim", [
    (3, 4, 2, 3), (1, 5, 2, 2), (4, 1, 2, 2), (1, 1, 1, 1), (5, 3, 4, 1)])
def test_grouped_attention_matches_per_sequence_per_head_oracle(groups, length, heads,
                                                                head_dim):
    assert_attention_matches_oracle(groups, length, heads, head_dim, seed=11)


@settings(max_examples=30, deadline=None)
@given(groups=st.integers(1, 4), length=st.integers(1, 5), heads=st.integers(1, 3),
       head_dim=st.integers(1, 3), seed=st.integers(0, 10_000),
       q_steps=st.none() | st.integers(1, 5))
def test_grouped_attention_oracle_property(groups, length, heads, head_dim, seed, q_steps):
    assert_attention_matches_oracle(groups, length, heads, head_dim, seed, q_steps)


@pytest.mark.parametrize("groups,length,q_steps,heads,head_dim", [
    (3, 4, 1, 2, 3), (1, 5, 2, 2, 2), (24, 8, 1, 4, 4), (4, 1, 1, 2, 2), (2, 3, 5, 1, 2)])
def test_grouped_attention_with_other_query_steps_matches_oracle(groups, length, q_steps,
                                                                 heads, head_dim):
    assert_attention_matches_oracle(groups, length, heads, head_dim, 31, q_steps)


@pytest.mark.parametrize("groups,length", [(24, 8), (2, 20), (5, 3)])
def test_grouped_attention_of_the_last_step_is_every_steps_last_rows(groups, length):
    # the encoders' head size, 4: the last step's queries alone give the
    # output rows, and the key and value gradients, of every step's queries
    # under a loss on the last step's rows, bit for bit
    rng = np.random.default_rng(32)
    n, m = groups * length, groups
    q, k, v = (rand_leaf(rng, (n, 16)) for _ in range(3))
    w = rng.standard_normal((m, 16))
    runs = []
    for query in (q, leaf(q.data[n - m:])):
        k.grad = v.grad = None
        with Tape():
            out = T.grouped_attention(query, k, v, 4, groups)
            if out.shape[0] > m:
                out = T.narrow(out, 0, n - m, m)
            backward(T.tsum(T.mul(out, Tensor(w))))
        runs.append((out.data, k.grad, v.grad))
    for got, want in zip(runs[1], runs[0]):
        assert np.array_equal(got, want)


def test_grouped_attention_grads():
    rng = np.random.default_rng(12)
    q, k, v = (rand_leaf(rng, (6, 4)) for _ in range(3))
    w = Tensor(rng.standard_normal((6, 4)))
    worst = assert_grads_match(
        lambda: T.tsum(T.mul(T.grouped_attention(q, k, v, 2, 3), w)), [q, k, v], rtol=1e-6)
    assert worst < 1e-6


def test_grouped_attention_weights_and_layout():
    rng = np.random.default_rng(13)
    q, k, v = (rand_leaf(rng, (6, 4)) for _ in range(3))
    out = T.grouped_attention(q, k, v, 2, 3)
    assert out.shape == (6, 4)
    # step t of sequence g is row t*3 + g; head h owns columns 2h, 2h+1
    g, h = 1, 1
    qh, kh, vh = (a.data[[g, 3 + g], 2 * h:2 * h + 2] for a in (q, k, v))
    scores = np.exp(qh @ kh.T / np.sqrt(2.0))
    attn = scores / scores.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(out.data[[g, 3 + g], 2:4], attn @ vh, rtol=1e-12)


@pytest.mark.parametrize("shapes,heads,groups", [
    (((6, 4), (6, 4), (6, 3)), 2, 3),  # v differs
    (((6, 4), (5, 4), (6, 4)), 2, 3),  # k differs
    (((4,), (4,), (4,)), 2, 1),  # not 2-D
    (((6, 4),) * 3, 3, 3),  # heads do not divide 4 columns
    (((6, 4),) * 3, 2, 4),  # groups do not divide 6 rows
    (((6, 4),) * 3, 0, 3),
    (((6, 4),) * 3, 2, 0),
    (((6, 2), (6, 4), (6, 4)), 2, 3),  # q narrower than k
    (((5, 4), (6, 4), (6, 4)), 2, 3),  # groups do not divide the query rows
])
def test_grouped_attention_rejects_bad_shapes(shapes, heads, groups):
    q, k, v = (leaf(np.zeros(s)) for s in shapes)
    with pytest.raises(ShapeError):
        T.grouped_attention(q, k, v, heads, groups)


# the reference LSTM step in oracles.py against the composed ops: the fused
# sequence ops below are checked through it

def weighted_sum(outs, weights):
    """sum(output * weight) over one output or a tuple of them."""
    outs = outs if isinstance(outs, tuple) else (outs,)
    loss = T.tsum(T.mul(outs[0], weights[0]))
    for o, w in zip(outs[1:], weights[1:]):
        loss = T.add(loss, T.tsum(T.mul(o, w)))
    return loss


def values_and_grads(fn, leaves, weights):
    for x in leaves:
        x.grad = None
    with Tape():
        outs = fn()
        backward(weighted_sum(outs, weights))
    outs = outs if isinstance(outs, tuple) else (outs,)
    return [o.data for o in outs], [x.grad for x in leaves]


def assert_fused_matches_looped(fused, looped, leaves, weights):
    """Forward values bit for bit, gradients of every leaf to rtol 1e-10."""
    got, got_grads = values_and_grads(fused, leaves, weights)
    want, want_grads = values_and_grads(looped, leaves, weights)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    for g, w in zip(got_grads, want_grads):
        if w is None:
            assert g is None
        else:
            np.testing.assert_allclose(g, w, rtol=1e-10, atol=1e-13)


def lstm_leaves(rng, rows, in_dim, hidden, trainable=(True,) * 5):
    """The feature-major x and [h; c], then W_x, W_h and b for one LSTM
    step; ``trainable`` says which of them require a gradient."""
    shapes = ((in_dim, rows), (2 * hidden, rows), (in_dim, 4 * hidden),
              (hidden, 4 * hidden), (4 * hidden,))
    return [Tensor(rng.standard_normal(s) * 2.0, requires_grad=flag)
            for s, flag in zip(shapes, trainable)]


def assert_lstm_matches_oracle(rows, in_dim, hidden, seed, trainable=(True,) * 5):
    rng = np.random.default_rng(seed)
    leaves = lstm_leaves(rng, rows, in_dim, hidden, trainable)
    w = [Tensor(rng.standard_normal((2 * hidden, rows)))]
    assert_fused_matches_looped(lambda: lstm_cell(*leaves), lambda: looped_lstm_step(*leaves),
                                leaves, w)


@pytest.mark.parametrize("rows,in_dim,hidden", [(3, 4, 5), (1, 1, 1), (6, 2, 3), (2, 7, 1)])
def test_lstm_cell_matches_composed_oracle(rows, in_dim, hidden):
    assert_lstm_matches_oracle(rows, in_dim, hidden, seed=14)


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(1, 5), in_dim=st.integers(1, 4), hidden=st.integers(1, 4),
       trainable=st.tuples(*[st.booleans()] * 5).filter(any), seed=st.integers(0, 10_000))
def test_lstm_cell_oracle_property(rows, in_dim, hidden, trainable, seed):
    assert_lstm_matches_oracle(rows, in_dim, hidden, seed, trainable)


def test_lstm_cell_grads():
    rng = np.random.default_rng(15)
    leaves = lstm_leaves(rng, 3, 2, 3)
    for x in leaves:
        x.data *= 0.5  # keep the gates off saturation, where differences lose digits
    w = Tensor(rng.standard_normal((6, 3)))
    worst = assert_grads_match(lambda: T.tsum(T.mul(lstm_cell(*leaves), w)), leaves,
                               rtol=1e-6)
    assert worst < 1e-6


@pytest.mark.parametrize("shapes", [
    ((2, 3), (5, 3), (2, 12), (3, 12), (12,)),  # hc not 2H tall
    ((2, 3), (6, 2), (2, 12), (3, 12), (12,)),  # hc columns differ from x
    ((2, 3), (6, 3), (4, 12), (3, 12), (12,)),  # W_x rows differ from input dim
    ((2, 3), (6, 3), (2, 12), (3, 9), (12,)),  # W_h not (H, 4H)
    ((2, 3), (6, 3), (2, 12), (3, 12), (9,)),  # b not 4H long
    ((2,), (6, 3), (2, 12), (3, 12), (12,)),  # x not 2-D
])
def test_lstm_cell_rejects_bad_shapes(shapes):
    with pytest.raises(ShapeError):
        lstm_cell(*(leaf(np.zeros(s)) for s in shapes))


# ---------------------------------------------------------------------------
# fused LSTM ops against their looped references

def sequence_leaves(rng, rows, length, in_dim, hidden, trainable=(True,) * 4):
    """x, W_x, W_h and b of an LSTM over ``rows`` sequences of ``length``."""
    shapes = ((length * rows, in_dim), (in_dim, 4 * hidden), (hidden, 4 * hidden),
              (4 * hidden,))
    return [Tensor(rng.standard_normal(s) * 1.5, requires_grad=flag)
            for s, flag in zip(shapes, trainable)]


def assert_sequence_matches_oracle(rows, length, in_dim, hidden, seed,
                                   trainable=(True,) * 4):
    rng = np.random.default_rng(seed)
    leaves = sequence_leaves(rng, rows, length, in_dim, hidden, trainable)
    w = [Tensor(rng.standard_normal((rows, hidden)))]
    assert_fused_matches_looped(lambda: T.lstm_sequence(*leaves, rows),
                                lambda: looped_lstm_sequence(*leaves, rows), leaves, w)


@pytest.mark.parametrize("rows,length,in_dim,hidden",
                         [(3, 4, 2, 5), (1, 1, 1, 1), (6, 8, 3, 2), (2, 20, 5, 4),
                          (36, 20, 8, 16)])  # gan_lstm's discriminator in training
def test_lstm_sequence_matches_looped_oracle(rows, length, in_dim, hidden):
    assert_sequence_matches_oracle(rows, length, in_dim, hidden, seed=16)


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(1, 5), length=st.integers(1, 6), in_dim=st.integers(1, 4),
       hidden=st.integers(1, 4), trainable=st.tuples(*[st.booleans()] * 4).filter(any),
       seed=st.integers(0, 10_000))
def test_lstm_sequence_oracle_property(rows, length, in_dim, hidden, trainable, seed):
    assert_sequence_matches_oracle(rows, length, in_dim, hidden, seed, trainable)


@pytest.mark.parametrize("rows,length,in_dim,hidden",
                         [(3, 4, 2, 5), (6, 8, 3, 2), (36, 20, 8, 16), (320, 8, 16, 16)])
def test_lstm_sequence_matches_separate_products(rows, length, in_dim, hidden):
    # the gates as (A_x x + A_h h) + b, one lstm_cell node a step: one
    # stacked product a step changes only the rounding.  At small shapes,
    # at gan_lstm's discriminator in training and at an evaluation pass
    rng = np.random.default_rng(30)
    leaves = sequence_leaves(rng, rows, length, in_dim, hidden)
    w = [Tensor(rng.standard_normal((rows, hidden)))]
    (got,), got_grads = values_and_grads(lambda: T.lstm_sequence(*leaves, rows), leaves, w)
    (want,), want_grads = values_and_grads(lambda: unstacked_lstm_sequence(*leaves, rows),
                                           leaves, w)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    for g, w_ in zip(got_grads, want_grads):
        np.testing.assert_allclose(g, w_, rtol=1e-10, atol=1e-13)


def test_lstm_sequence_grads():
    rng = np.random.default_rng(17)
    leaves = sequence_leaves(rng, 3, 4, 2, 3)
    for x in leaves:
        x.data *= 0.4  # keep the gates off saturation, where differences lose digits
    w = Tensor(rng.standard_normal((3, 3)))
    worst = assert_grads_match(lambda: T.tsum(T.mul(T.lstm_sequence(*leaves, 3), w)), leaves,
                               rtol=1e-6)
    assert worst < 1e-6


def test_lstm_sequence_computes_no_gradient_for_frozen_weights():
    rng = np.random.default_rng(18)
    leaves = sequence_leaves(rng, 3, 5, 2, 4)
    w = Tensor(rng.standard_normal((3, 4)))
    _, (want_dx, *_) = values_and_grads(lambda: T.lstm_sequence(*leaves, 3), leaves, [w])
    for p in leaves[1:]:
        p.requires_grad = False
    _, (dx, *weight_grads) = values_and_grads(lambda: T.lstm_sequence(*leaves, 3), leaves, [w])
    assert all(g is None for g in weight_grads)
    assert dx.tobytes() == want_dx.tobytes()
    with Tape() as tape:
        T.lstm_sequence(*leaves, 3)
    assert all(g is None for g in tape.nodes[0].bwd(w.data)[1:])


@pytest.mark.parametrize("shapes,rows", [
    (((6, 2), (2, 12), (3, 12), (12,)), 4),  # rows do not divide x
    (((6, 2), (2, 12), (3, 12), (12,)), 0),
    (((2, 2), (2, 12), (3, 12), (12,)), 3),  # not one whole step
    (((6, 3), (2, 12), (3, 12), (12,)), 3),  # W_x rows differ from input dim
    (((6, 2), (2, 12), (3, 9), (12,)), 3),  # W_h not (H, 4H)
    (((6, 2), (2, 12), (3, 12), (9,)), 3),  # b not 4H long
    (((6,), (2, 12), (3, 12), (12,)), 3),  # x not 2-D
])
def test_lstm_sequence_rejects_bad_shapes(shapes, rows):
    with pytest.raises(ShapeError):
        T.lstm_sequence(*(leaf(np.zeros(s)) for s in shapes), rows)


def rollout_leaves(rng, rows, embed_dim, hidden, gamma_hidden, trainable=None, scale=0.7):
    """h0, the embedding's W and b, the cell's W_x, W_h and b, then W and b
    of each gamma layer."""
    widths = (hidden, *gamma_hidden, 2)
    shapes = [(rows, hidden), (2, embed_dim), (embed_dim,), (embed_dim, 4 * hidden),
              (hidden, 4 * hidden), (4 * hidden,)]
    for n, m in zip(widths, widths[1:]):
        shapes += [(n, m), (m,)]
    trainable = trainable or (True,) * len(shapes)
    return [Tensor(rng.standard_normal(s) * scale, requires_grad=flag)
            for s, flag in zip(shapes, trainable)]


def rollout_call(op, leaves, last, t_pred, scale, activation, slope=0.2):
    h0, W_e, b_e, W_x, W_h, b, *gamma = leaves
    return lambda: op(h0, (W_e, b_e), (W_x, W_h, b), list(zip(gamma[::2], gamma[1::2])),
                      last[0], last[1], t_pred, scale, activation, slope)


def rollout_weights(rng, rows, t_pred):
    return [Tensor(rng.standard_normal((rows, 2 * t_pred))),
            Tensor(rng.standard_normal((t_pred * rows, 2)))]


def assert_rollout_matches_oracle(rng, leaves, t_pred, activation, scale=0.02):
    rows = leaves[0].shape[0]
    last = rng.standard_normal((2, rows, 2)) * 5.0
    assert_fused_matches_looped(
        rollout_call(T.lstm_rollout, leaves, last, t_pred, scale, activation),
        rollout_call(looped_decode, leaves, last, t_pred, scale, activation),
        leaves, rollout_weights(rng, rows, t_pred))


@pytest.mark.parametrize("rows,hidden,gamma_hidden,t_pred,activation", [
    (3, 4, (5,), 6, "leaky_relu"), (1, 1, (), 1, "relu"), (4, 3, (2, 3), 4, "leaky_relu"),
    (2, 2, (1,), 12, "relu")])
def test_lstm_rollout_matches_looped_oracle(rows, hidden, gamma_hidden, t_pred, activation):
    rng = np.random.default_rng(18)
    leaves = rollout_leaves(rng, rows, 3, hidden, gamma_hidden)
    assert_rollout_matches_oracle(rng, leaves, t_pred, activation)


def test_lstm_rollout_matches_looped_oracle_at_the_training_shape():
    # the k-sample rollout of the gan_lstm preset in training: 90 rows,
    # embedding 8, hidden 16, one gamma layer of 16, 12 steps
    rng = np.random.default_rng(18)
    leaves = rollout_leaves(rng, 90, 8, 16, (16,))
    assert_rollout_matches_oracle(rng, leaves, 12, "leaky_relu")


@pytest.mark.parametrize("rows", [90, 640])
def test_lstm_rollout_matches_the_unfolded_chain(rows):
    # the model's decoder as it is defined, scaling, embedding and cell
    # apart: folding the first two into the cell's product changes only the
    # rounding.  At the training shape of the gan_lstm preset and at an
    # evaluation pass of 2 windows of 16 agents at k = 20.  Each array is
    # compared at the scale of its largest entry: a position is a running
    # sum that may cancel to far below its steps, and an entry's own
    # relative difference then grows to 1e-11 forward and 1e-9 in the
    # gradients on these inputs, while every entry stays within 2e-12 of
    # its array's largest
    rng = np.random.default_rng(29)
    leaves = rollout_leaves(rng, rows, 8, 16, (16,))
    last = rng.standard_normal((2, rows, 2)) * 5.0
    weights = rollout_weights(rng, rows, 12)
    got, got_grads = values_and_grads(
        rollout_call(T.lstm_rollout, leaves, last, 12, 0.02, "leaky_relu"), leaves, weights)
    want, want_grads = values_and_grads(
        rollout_call(unfused_decode, leaves, last, 12, 0.02, "leaky_relu"), leaves, weights)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_allclose(g, w, rtol=1e-10, atol=1e-10 * np.abs(w).max())


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(1, 4), hidden=st.integers(1, 4),
       gamma_hidden=st.lists(st.integers(1, 3), max_size=2),
       activation=st.sampled_from(T.ACTIVATIONS), t_pred=st.integers(1, 5),
       trainable=st.lists(st.booleans(), min_size=10, max_size=10).filter(any),
       seed=st.integers(0, 10_000))
def test_lstm_rollout_oracle_property(rows, hidden, gamma_hidden, activation, t_pred,
                                      trainable, seed):
    rng = np.random.default_rng(seed)
    # the ten flags cover h0, the embedding, the cell and two gamma layers;
    # deeper gamma layers follow the last flag
    flags = trainable + [trainable[-1]] * (2 * len(gamma_hidden))
    leaves = rollout_leaves(rng, rows, 2, hidden, gamma_hidden, flags)
    assert_rollout_matches_oracle(rng, leaves, t_pred, activation)


@pytest.mark.parametrize("gamma_hidden,activation", [
    ((3,), "leaky_relu"), ((), "leaky_relu"), ((2, 3), "relu"), ((3,), "relu")])
def test_lstm_rollout_grads(gamma_hidden, activation):
    rng = np.random.default_rng(19)
    leaves = rollout_leaves(rng, 2, 2, 3, gamma_hidden, scale=0.5)
    last = rng.standard_normal((2, 2, 2))
    w = rollout_weights(rng, 2, 3)
    loss = rollout_call(T.lstm_rollout, leaves, last, 3, 0.3, activation)
    # a step of 1e-4: at 1e-5 cancellation noise reaches 2e-6 on the
    # smallest gradients, and the truncation error is still far below 1e-6
    worst = assert_grads_match(lambda: weighted_sum(loss(), w), leaves, rtol=1e-6, h=1e-4)
    assert worst < 1e-6


@pytest.mark.parametrize("activation", ["relu", "leaky_relu"])
def test_lstm_rollout_grads_at_the_kink(activation):
    # gamma's first hidden unit has zero weights and bias, so its
    # pre-activation is exactly 0 at every step and every perturbation of
    # another input: the op takes the positive branch there, as the
    # composed ops do, and finite differences agree on every input except
    # the unit's own weights, where they average the two one-sided slopes
    rng = np.random.default_rng(20)
    leaves = rollout_leaves(rng, 2, 2, 3, (3,), scale=0.5)
    W1, b1 = leaves[6], leaves[7]
    W1.data[:, 0] = 0.0
    b1.data[0] = 0.0
    last = rng.standard_normal((2, 2, 2))
    w = rollout_weights(rng, 2, 4)
    loss = rollout_call(T.lstm_rollout, leaves, last, 4, 0.3, activation)
    kinked = {(6, i) for i in range(0, W1.size, 3)} | {(7, 0)}
    coords = [(li, i) for li, x in enumerate(leaves) for i in range(x.size)
              if (li, i) not in kinked]
    worst = assert_grads_match(lambda: weighted_sum(loss(), w), leaves, rtol=1e-6,
                               h=1e-4, coords=coords)
    assert worst < 1e-6
    assert_rollout_matches_oracle(rng, leaves, 4, activation, scale=0.3)


@pytest.mark.parametrize("activation", ["tanh", "sigmoid", "gelu"])
def test_lstm_rollout_rejects_a_kind_no_mlp_can_select(activation):
    rng = np.random.default_rng(21)
    leaves = rollout_leaves(rng, 2, 2, 3, (3,))
    with pytest.raises(ValueError, match="unknown activation kind"):
        rollout_call(T.lstm_rollout, leaves, rng.standard_normal((2, 2, 2)), 3, 0.3,
                     activation)()


@pytest.mark.parametrize("change", ["h0", "embed", "cell", "gamma_width", "gamma_out",
                                    "last_pos", "t_pred", "no_gamma"])
def test_lstm_rollout_rejects_bad_shapes(change):
    leaves = rollout_leaves(np.random.default_rng(21), 3, 2, 4, (5,))
    h0, W_e, b_e, W_x, W_h, b, W1, b1, W2, b2 = leaves
    args = dict(h0=h0, embed=(W_e, b_e), cell=(W_x, W_h, b), gamma=[(W1, b1), (W2, b2)],
                last_pos=np.zeros((3, 2)), last_disp=np.zeros((3, 2)), t_pred=4)
    bad = {"h0": dict(h0=leaf(np.zeros((3, 5)))),
           "embed": dict(embed=(leaf(np.zeros((3, 2))), b_e)),
           "cell": dict(cell=(W_x, leaf(np.zeros((4, 12))), b)),
           "gamma_width": dict(gamma=[(W1, b1), (leaf(np.zeros((4, 2))), b2)]),
           "gamma_out": dict(gamma=[(W1, b1), (leaf(np.zeros((5, 3))), leaf(np.zeros(3)))]),
           "last_pos": dict(last_pos=np.zeros((2, 2))),
           "t_pred": dict(t_pred=0),
           "no_gamma": dict(gamma=[])}
    args.update(bad[change])
    with pytest.raises(ShapeError):
        T.lstm_rollout(scale=0.5, **args)


def test_lstm_rollout_keeps_no_activations_under_no_grad():
    # 200 steps: a recording call holds every step's activations, many
    # times the size of its outputs; a call under no_grad holds none
    rng = np.random.default_rng(22)
    rows, steps = 32, 200
    run = rollout_call(T.lstm_rollout, rollout_leaves(rng, rows, 8, 16, (16,)),
                       np.zeros((2, rows, 2)), steps, 0.02, "leaky_relu")

    def peak_bytes():
        tracemalloc.start()
        try:
            outs = run()
            return tracemalloc.get_traced_memory()[1], outs
        finally:
            tracemalloc.stop()

    with Tape() as tape:
        with no_grad():
            quiet, outs = peak_bytes()
        assert len(tape.nodes) == 0 and not any(o.requires_grad for o in outs)
        recorded, outs = peak_bytes()
        assert len(tape.nodes) == 1 and all(o.requires_grad for o in outs)
    assert quiet * 5 < recorded


def lstm_op_calls(rng, rows, hidden):
    """A ``lstm_sequence`` and a ``lstm_rollout`` call on trainable leaves of
    ``rows`` rows and hidden size ``hidden``, each with its leaves; a call
    returns a tuple of outputs."""
    seq = sequence_leaves(rng, rows, 6, 3, hidden)
    roll = rollout_leaves(rng, rows, 4, hidden, (5,))
    return [(lambda: (T.lstm_sequence(*seq, rows),), seq),
            (rollout_call(T.lstm_rollout, roll, rng.standard_normal((2, rows, 2)), 5, 0.02,
                          "leaky_relu"), roll)]


def test_no_grad_lstm_ops_share_no_memory_between_calls():
    # interleave row counts and hidden sizes, and hold every output across
    # the calls that follow it: no later call may write into it
    rng = np.random.default_rng(23)
    held = []
    for rows in (320, 16, 320):
        for hidden in (16, 5):
            for call, _ in lstm_op_calls(rng, rows, hidden):
                with Tape():
                    want = [o.data.copy() for o in call()]
                with no_grad():
                    got = call()
                assert all(np.array_equal(g.data, w) for g, w in zip(got, want))
                held += zip(got, want)
    assert all(np.array_equal(g.data, w) for g, w in held)


@pytest.mark.parametrize("hidden", [1, 16])
@pytest.mark.parametrize("rows", [1, 2, 18, 320, 640])
def test_recording_and_no_grad_lstm_calls_compute_the_same_values(rows, hidden):
    # a recording rollout keeps each step's activations and stacked input
    # in blocks of its own, and one that does not record overwrites one
    # block every step and overlaps its stacked inputs; both run the same
    # arithmetic, matrix-vector products at one row included
    rng = np.random.default_rng(26)
    for call, _ in lstm_op_calls(rng, rows, hidden):
        with Tape() as tape:
            want = [o.data.copy() for o in call()]
        assert len(tape.nodes) == 1
        with no_grad():
            got = call()
        assert all(np.array_equal(g.data, w) for g, w in zip(got, want))


@pytest.mark.parametrize("op", [0, 1], ids=["sequence", "rollout"])
def test_lstm_ops_leave_the_cell_parameters_unchanged(op):
    # the steps read the sigmoid gates' rows negated: the negation goes into
    # the op's own copies, never into W_x, W_h or b, forward or backward
    rng = np.random.default_rng(28)
    call, leaves = lstm_op_calls(rng, 18, 16)[op]
    cell = leaves[1:4] if op == 0 else leaves[3:6]
    before = [p.data.copy() for p in cell]
    for recording in (False, True):
        with Tape():
            if recording:
                outs = call()
                backward(weighted_sum(outs, [Tensor(np.cos(o.data)) for o in outs]))
            else:
                with no_grad():
                    call()
        assert all(np.array_equal(p.data, b) for p, b in zip(cell, before))


def test_recorded_lstm_steps_survive_calls_before_backward():
    # the step blocks a recording call keeps for its backward are its own:
    # a call of the same hidden size between forward and backward, recording
    # or not, leaves the gradients unchanged
    rng = np.random.default_rng(25)
    (seq, seq_leaves), (roll, roll_leaves) = lstm_op_calls(rng, 16, 5)
    others = [call for call, _ in lstm_op_calls(rng, 320, 5)]
    for call, leaves in ((seq, seq_leaves), (roll, roll_leaves)):
        grads = []
        for between in ([], others):
            for x in leaves:
                x.grad = None
            with Tape():
                outs = call()
                with no_grad():
                    for other in between:
                        other()
                for other in between:
                    other()
                backward(weighted_sum(outs, [Tensor(np.cos(o.data)) for o in outs]))
            grads.append([x.grad.copy() for x in leaves])
        assert all(np.array_equal(a, b) for a, b in zip(*grads))


@pytest.mark.parametrize("op", [0, 1], ids=["sequence", "rollout"])
def test_second_backward_of_one_recording_doubles_the_gradients(op):
    # the backward reads the step blocks and buffers of the recording and
    # writes only arrays of its own, so a second pass sees the same inputs
    rng = np.random.default_rng(27)
    call, leaves = lstm_op_calls(rng, 18, 16)[op]
    with Tape():
        outs = call()
        loss = weighted_sum(outs, [Tensor(np.cos(o.data)) for o in outs])
        backward(loss)
        once = [x.grad.copy() for x in leaves]
        backward(loss)
    assert all(np.array_equal(x.grad, 2.0 * g) for x, g in zip(leaves, once))


def minor_faults_per_call(setup, call, calls=10):
    """Minor page faults per run of the statements ``call`` in a fresh
    interpreter, after the statements ``setup`` and one warm-up run.  The
    interpreter has ``src`` on its path and glibc's default heap settings:
    no ``MALLOC_*`` variable in its environment."""
    script = "\n".join(["import resource", textwrap.dedent(setup), "def call():",
                        textwrap.indent(textwrap.dedent(call), "    "), "call()",
                        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
                        f"for _ in range({calls}):", "    call()",
                        "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
                        f"print((after - before) / {calls})"])
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    return float(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                capture_output=True, text=True, timeout=60).stdout)


GLIBC = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap trimming")


@GLIBC
def test_importing_tensor_keeps_freed_heap_memory_in_the_process():
    # 4 MB of 10 kB arrays freed and allocated again faults its pages back
    # in unless the heap top is kept
    churn = """
        arrays = [np.ones(1250) for _ in range(400)]
        del arrays
    """
    plain = minor_faults_per_call("import numpy as np", churn)
    kept = minor_faults_per_call("import numpy as np\nimport trajgan.tensor", churn)
    assert kept < 10 < plain, (kept, plain)


@GLIBC
@pytest.mark.parametrize("op", ["sequence", "rollout"])
def test_warm_no_grad_lstm_ops_allocate_no_gate_array(op):
    # eval's shapes: a pass of 640 rows (2 windows of 16 agents at k = 20)
    # and one window's 320, hidden size 16, 8 observed and 12 predicted
    # steps.  Every call allocates and frees its step blocks, which stay in
    # the process: a warm call takes the freed blocks of the call before, so
    # no gate array comes to it as fresh pages from the OS
    call = {"sequence": "T.lstm_sequence(x, *cell, rows)",
            "rollout": "T.lstm_rollout(h0, embed, cell, gamma, last, last, 12, 0.5)"}[op]
    for rows in (320, 640):
        setup = f"""
            import numpy as np
            from trajgan import tensor as T
            rng = np.random.default_rng(24)
            rows, hd = {rows}, 16
            def leaf(*shape):
                return T.Tensor(rng.standard_normal(shape) * 0.5)
            cell = (leaf(16, 4 * hd), leaf(hd, 4 * hd), leaf(4 * hd))
            x, h0, embed = leaf(8 * rows, 16), leaf(rows, hd), (leaf(2, 16), leaf(16))
            gamma = [(leaf(hd, 32), leaf(32)), (leaf(32, 2), leaf(2))]
            last = rng.standard_normal((rows, 2))
        """
        assert minor_faults_per_call(setup, f"with T.no_grad():\n    {call}") < 10, rows


# ---------------------------------------------------------------------------
# every recording op has a finite-difference gradcheck

def recording_ops():
    """The public functions of trajgan.tensor that record tape nodes."""
    return {name for name, fn in inspect.getmembers(T, inspect.isfunction)
            if not name.startswith("_") and fn.__module__ == T.__name__
            and "_make" in fn.__code__.co_names}


def gradchecked_ops():
    """Every ``T.<name>`` referred to by a test of this file that calls
    ``assert_grads_match`` or ``finite_diff`` itself, in its body, its
    lambdas or its parametrize decorators."""
    tree = ast.parse(pathlib.Path(__file__).read_text())
    covered = set()
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("test_")):
            continue
        nodes = list(ast.walk(fn))
        if {"assert_grads_match", "finite_diff"} & {n.id for n in nodes
                                                    if isinstance(n, ast.Name)}:
            covered |= {n.attr for n in nodes if isinstance(n, ast.Attribute)
                        and isinstance(n.value, ast.Name) and n.value.id == "T"}
    return covered


def test_every_recording_op_has_a_finite_difference_gradcheck():
    assert recording_ops() - gradchecked_ops() == set()


def test_tape_graph_freed_without_cycle_collector():
    x = leaf(np.arange(6.0).reshape(2, 3))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with Tape():
            hidden = T.tanh(x)
            ref = weakref.ref(hidden)
            loss = T.tsum(T.mul(hidden, hidden))
            backward(loss)
        del hidden
        assert ref() is None, "the step's graph outlived its tape block"
        assert loss.tape is None
        with pytest.raises(ContractError):
            backward(loss)
    finally:
        if was_enabled:
            gc.enable()


def test_reduction_grads():
    rng = np.random.default_rng(9)
    x = rand_leaf(rng, (4, 5))
    assert_grads_match(lambda: T.tsum(x), [x])
    assert_grads_match(lambda: T.tmean(x), [x])
    assert_grads_match(lambda: T.tsum(T.tsum(x, axis=0)), [x])
    assert_grads_match(lambda: T.tsum(T.tmean(x, axis=1, keepdims=True)), [x])


def test_concat_transpose_grads():
    rng = np.random.default_rng(10)
    a, b = rand_leaf(rng, (2, 3)), rand_leaf(rng, (2, 3))

    def loss():
        c = T.concat([a, b], axis=1)
        return T.tsum(T.matmul(c, T.transpose(c)))

    assert_grads_match(loss, [a, b])


def test_mlp_chain_grads():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((5, 4)), requires_grad=False)
    w1, b1 = rand_leaf(rng, (4, 8)), rand_leaf(rng, (8,))
    w2, b2 = rand_leaf(rng, (8, 3)), rand_leaf(rng, (3,))

    def loss():
        h = T.leaky_relu(T.add(T.matmul(x, w1), b1), 0.2)
        out = T.softmax_rows(T.add(T.matmul(h, w2), b2))
        return T.tmean(out)

    assert_grads_match(loss, [w1, b1, w2, b2])


# ---------------------------------------------------------------------------
# model parts as one node: T.mlp, T.layer_norm and T.min_of_k_norms

def mlp_leaves(rng, widths, rows=5):
    """x and the (W, b) layers of an MLP through ``widths``."""
    x = rand_leaf(rng, (rows, widths[0]))
    layers = [(rand_leaf(rng, (n, m)), rand_leaf(rng, (m,)))
              for n, m in zip(widths, widths[1:])]
    return x, layers


@pytest.mark.parametrize("widths", [(3, 2), (3, 4, 2), (2, 5, 4, 3)])
@pytest.mark.parametrize("activation", ["relu", "leaky_relu"])
def test_mlp_grads(widths, activation):
    rng = np.random.default_rng(31)
    x, layers = mlp_leaves(rng, widths)
    w = Tensor(rng.standard_normal((5, widths[-1])))
    params = [p for layer in layers for p in layer]
    worst = assert_grads_match(
        lambda: T.tsum(T.mul(T.mlp(x, layers, activation, 0.3), w)),
        [x, *params], rtol=1e-6)
    assert worst < 1e-6


@pytest.mark.parametrize("activation", ["relu", "leaky_relu"])
def test_mlp_grads_at_the_kink(activation):
    # the first hidden unit has zero weights and bias, so its pre-activation
    # is exactly 0 on every row under every perturbation of another input:
    # central differences agree there.  On the unit's own weights and bias
    # they would average the two one-sided slopes; the op takes the positive
    # branch's, which a forward difference gives, since on positive inputs
    # it moves every row's pre-activation above 0
    rng = np.random.default_rng(33)
    x, layers = mlp_leaves(rng, (3, 4, 2))
    x.data[...] = np.abs(x.data) + 0.5
    (W1, b1), (W2, b2) = layers
    W1.data[:, 0] = 0.0
    b1.data[0] = 0.0
    w = Tensor(rng.standard_normal((5, 2)))
    leaves = [x, W1, b1, W2, b2]

    def loss():
        return T.tsum(T.mul(T.mlp(x, layers, activation, 0.3), w))

    kinked = [(1, i) for i in range(0, W1.size, 4)] + [(2, 0)]
    coords = [(li, i) for li, t in enumerate(leaves) for i in range(t.size)
              if (li, i) not in kinked]
    assert assert_grads_match(loss, leaves, rtol=1e-6, coords=coords) < 1e-6
    base, h = float(loss().data), 1e-5
    for li, i in kinked:
        flat = leaves[li].data.reshape(-1)
        flat[i] = h
        slope = (float(loss().data) - base) / h
        flat[i] = 0.0
        assert leaves[li].grad.reshape(-1)[i] == pytest.approx(slope, rel=1e-6)
        assert abs(slope) > 1e-3


def test_leaky_relu_gradient_keeps_the_bits_of_the_product_form():
    # np.where(x >= 0, g, g * slope) against g * np.where(x >= 0, 1, slope),
    # on signed zeros, infinities and NaN in x and g, and with the scalar
    # g = 1.0 that the rollout's backward passes
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.5, 5e-324, -5e-324])
    x = np.repeat(special, special.size)
    g = np.tile(special, special.size)
    for slope in (0.2, 0.3, 1.0):
        for grad in (g, 1.0):
            got = T._activate_grad(grad, x, "leaky_relu", slope)
            want = grad * np.where(x >= 0.0, 1.0, slope)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("widths", [(3, 2), (3, 4, 1), (2, 5, 4, 3)])
@pytest.mark.parametrize("activation", ["relu", "leaky_relu"])
@pytest.mark.parametrize("with_taps", [False, True])
@pytest.mark.parametrize("x_grad", [False, True])
def test_mlp_matches_composed_ops_bit_for_bit(widths, activation, with_taps, x_grad):
    # the taps are the gradients of zero probe leaves added to the composed
    # ops' hidden pre-activations
    rng = np.random.default_rng(32)
    x, layers = mlp_leaves(rng, widths, rows=7)
    x.requires_grad = x_grad
    probes = [leaf(np.zeros((7, m))) for m in widths[1:-1]] if with_taps else []
    taps = [] if with_taps else None
    leaves = [x, *(p for layer in layers for p in layer)]
    w = [Tensor(rng.standard_normal((7, widths[-1])))]
    got, got_grads = values_and_grads(lambda: T.mlp(x, layers, activation, 0.2, taps),
                                      leaves, w)
    want, want_grads = values_and_grads(
        lambda: composed_mlp(x, layers, activation, 0.2, probes), leaves + probes, w)
    assert got[0].tobytes() == want[0].tobytes()
    assert len(want_grads) == len(got_grads) + len(probes)
    for g, v in zip(got_grads, want_grads):
        assert (g is None and v is None) or g.tobytes() == v.tobytes()
    assert (x.grad is None) == (not x_grad)
    if with_taps:
        assert [t.tobytes() for t in taps[::-1]] == [p.grad.tobytes() for p in probes]


def test_mlp_computes_no_gradient_nothing_needs():
    rng = np.random.default_rng(33)
    x, layers = mlp_leaves(rng, (3, 4, 2))
    x.requires_grad = False
    layers[1][0].requires_grad = False
    with Tape() as tape:
        T.mlp(x, layers)
    dx, dW1, db1, dW2, db2 = tape.nodes[0].bwd(np.ones((5, 2)))
    assert dx is None and dW2 is None
    assert all(d is not None for d in (dW1, db1, db2))


@pytest.mark.parametrize("change", ["x_1d", "inner", "bias", "no_layers"])
def test_mlp_rejects_bad_shapes(change):
    x, layers = mlp_leaves(np.random.default_rng(34), (3, 4, 2))
    if change == "x_1d":
        x = leaf(np.zeros(3))
    elif change == "inner":
        layers[1] = (leaf(np.zeros((3, 2))), layers[1][1])
    elif change == "bias":
        layers[0] = (layers[0][0], leaf(np.zeros((1, 4))))
    else:
        layers = []
    with pytest.raises(ShapeError):
        T.mlp(x, layers, "relu", 0.0)


def test_mlp_rejects_an_unknown_activation():
    x, layers = mlp_leaves(np.random.default_rng(35), (3, 4, 2))
    with pytest.raises(ValueError, match="tanh"):
        T.mlp(x, layers, "tanh")


def layer_norm_leaves(rng, rows=4, dim=5):
    """x with a constant last row (variance 0), gamma and beta."""
    x = rand_leaf(rng, (rows, dim))
    x.data[-1] = 0.75
    return x, rand_leaf(rng, (dim,)), rand_leaf(rng, (dim,))


def test_layer_norm_grads_with_a_constant_row():
    rng = np.random.default_rng(36)
    x, gamma, beta = layer_norm_leaves(rng)
    w = Tensor(rng.standard_normal(x.shape))
    worst = assert_grads_match(
        lambda: T.tsum(T.mul(T.layer_norm(x, gamma, beta, 1e-5), w)), [x, gamma, beta],
        rtol=1e-6)
    assert worst < 1e-6


@pytest.mark.parametrize("rows,dim,eps", [(4, 5, 1e-5), (1, 1, 1e-5), (9, 16, 1e-3)])
def test_layer_norm_matches_composed_ops(rows, dim, eps):
    """Values bit for bit; gamma and beta gradients too, since they take
    the same sums; dx, analytic, to rtol 1e-10."""
    rng = np.random.default_rng(37)
    x, gamma, beta = layer_norm_leaves(rng, rows, dim)
    w = [Tensor(rng.standard_normal((rows, dim)))]
    got, got_grads = values_and_grads(lambda: T.layer_norm(x, gamma, beta, eps),
                                      [x, gamma, beta], w)
    want, want_grads = values_and_grads(lambda: composed_layer_norm(x, gamma, beta, eps),
                                        [x, gamma, beta], w)
    assert got[0].tobytes() == want[0].tobytes()
    assert got_grads[1].tobytes() == want_grads[1].tobytes()
    assert got_grads[2].tobytes() == want_grads[2].tobytes()
    np.testing.assert_allclose(got_grads[0], want_grads[0], rtol=1e-10, atol=1e-13)


@pytest.mark.parametrize("shapes", [((5,), (5,), (5,)), ((4, 5), (4,), (5,)),
                                    ((4, 5), (5,), (1, 5)), ((4, 0), (0,), (0,))])
def test_layer_norm_rejects_bad_shapes(shapes):
    x, gamma, beta = (leaf(np.zeros(s)) for s in shapes)
    with pytest.raises(ShapeError):
        T.layer_norm(x, gamma, beta)


def min_of_k_inputs(rng, n, k, cols):
    """k candidate rows for each of n target rows; target row 0 equals its
    last candidate exactly (norm 0)."""
    a = rand_leaf(rng, (n * k, cols))
    target = rng.standard_normal((n, cols))
    target[0] = a.data[k - 1]
    return a, target


def test_min_of_k_norms_grads_with_an_exact_match():
    rng = np.random.default_rng(38)
    a, target = min_of_k_inputs(rng, 3, 4, 6)
    w = Tensor(rng.standard_normal((3, 1)))
    assert T.min_of_k_norms(a, target, 4).data[0, 0] == 0.0
    assert_grads_match(lambda: T.tsum(T.mul(T.min_of_k_norms(a, target, 4), w)), [a])
    assert not a.grad[:4].any()  # the exact match has zero subgradient
    assert np.count_nonzero(a.grad.any(axis=1)) == 2  # one row each of the others


@pytest.mark.parametrize("n,k,cols", [(3, 4, 6), (2, 1, 2), (5, 2, 24)])
def test_min_of_k_norms_matches_composed_ops(n, k, cols):
    """Values and gradients equal, the picked rows' gradients bit for bit;
    of two equally near rows the first is picked."""
    rng = np.random.default_rng(39)
    a, target = min_of_k_inputs(rng, n, k, cols)
    a.data[2 * k - 1] = a.data[k]
    target[1] = a.data[k] + 0.01 * rng.standard_normal(cols)
    w = [Tensor(rng.standard_normal((n, 1)))]
    got, (got_grad,) = values_and_grads(lambda: T.min_of_k_norms(a, target, k), [a], w)
    want, (want_grad,) = values_and_grads(lambda: composed_min_of_k_norms(a, target, k),
                                          [a], w)
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got_grad, want_grad)
    picked = want_grad.any(axis=1)
    assert got_grad[picked].tobytes() == want_grad[picked].tobytes()
    assert picked[k] and (k == 1 or not picked[2 * k - 1])


@pytest.mark.parametrize("a_shape,target_shape,k", [
    ((12, 6), (3, 6), 3), ((12, 6), (3, 5), 4), ((12,), (3,), 4), ((12, 6), (3, 6), 0)])
def test_min_of_k_norms_rejects_bad_shapes(a_shape, target_shape, k):
    with pytest.raises(ShapeError):
        T.min_of_k_norms(leaf(np.zeros(a_shape)), np.zeros(target_shape), k)


# ---------------------------------------------------------------------------
# backward semantics

def test_reuse_sums_both_paths():
    w = leaf([1.0, 2.0, 3.0])
    with Tape():
        loss = T.add(T.tsum(w), T.tsum(w))
        backward(loss)
    assert np.array_equal(w.grad, [2.0, 2.0, 2.0])


def test_repeated_backward_accumulates():
    w = leaf([[1.0, -2.0]])
    with Tape():
        loss = T.tsum(T.mul(w, w))
        backward(loss)
        first = w.grad.copy()
        backward(loss)
    assert np.array_equal(w.grad, 2.0 * first)


def test_backward_rejects_non_scalar():
    w = leaf([[1.0, 2.0]])
    with Tape():
        out = T.mul(w, w)
        with pytest.raises(ContractError):
            backward(out)


def test_backward_keeps_gradients_on_leaves_only():
    rng = np.random.default_rng(23)
    leaves = rollout_leaves(rng, 2, 2, 3, (3,), scale=0.5)
    last = rng.standard_normal((2, 2, 2))
    with Tape() as tape:
        outs = rollout_call(T.lstm_rollout, leaves, last, 3, 0.3, "leaky_relu")()
        backward(T.tanh(weighted_sum(outs, rollout_weights(rng, 2, 3))))
    assert tape.nodes[0].out is outs
    produced = [out for node in tape.nodes
                for out in (node.out if type(node.out) is tuple else (node.out,))]
    assert all(t.grad is None for t in produced)
    assert all(x.grad is not None for x in leaves)


def test_backward_visits_each_node_once():
    rng = np.random.default_rng(12)
    w = rand_leaf(rng, (3, 3))
    with Tape() as tape:
        a = T.tanh(w)
        b = T.add(a, a)        # diamond: a used twice
        loss = T.tsum(T.mul(b, a))
    calls = [0] * len(tape.nodes)

    def counted(i, fn):
        def wrapper(g):
            calls[i] += 1
            return fn(g)
        return wrapper

    for i, node in enumerate(tape.nodes):
        node.bwd = counted(i, node.bwd)
    backward(loss)
    assert calls == [1] * len(tape.nodes)


def test_tape_is_topologically_ordered():
    rng = np.random.default_rng(13)
    w = rand_leaf(rng, (2, 2))
    with Tape() as tape:
        out = T.sigmoid(T.matmul(w, T.tanh(w)))
        T.tsum(out)
    for i, node in enumerate(tape.nodes):
        assert node.out.node_id == i
        for inp in node.inputs:
            if inp.tape is tape and inp.node_id is not None:
                assert inp.node_id < i


def test_no_grad_produces_constants():
    w = leaf([1.0])
    with Tape() as tape:
        with no_grad():
            out = T.tanh(w)
        assert not out.requires_grad
        assert len(tape.nodes) == 0


def test_ops_without_tape_do_not_record():
    w = leaf([1.0, 2.0])
    out = T.mul(w, w)
    assert out.tape is None and not out.requires_grad


def test_forward_is_deterministic():
    def run():
        rng = np.random.default_rng(99)
        x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        with Tape():
            loss = T.tmean(T.sigmoid(T.matmul(T.tanh(x), w)))
        return loss.data.copy()

    assert run().tobytes() == run().tobytes()


def test_float64_everywhere():
    x = Tensor([[1, 2], [3, 4]])
    assert x.data.dtype == np.float64
    assert T.relu(x).data.dtype == np.float64


# ---------------------------------------------------------------------------
# Adam

def test_adam_first_step_equals_lr():
    w = leaf([0.0])
    w.grad = np.array([1.0])
    Adam([w], lr=0.001).step()
    assert abs(w.data[0] - (-0.001)) < 1e-9
    assert w.grad is None


def test_adam_zero_grad_leaves_param_unchanged():
    w = leaf([5.0, -3.0])
    w.grad = np.zeros(2)
    Adam([w], lr=0.1).step()
    assert np.array_equal(w.data, [5.0, -3.0])


def test_adam_missing_grad_is_contract_error():
    # the check comes before any update: the parameter that has a gradient
    # keeps its value and its gradient, and the step count does not move
    a, b = leaf([1.0]), leaf([2.0])
    a.grad = np.array([0.5])
    opt = Adam([a, b], lr=0.1)
    with pytest.raises(ContractError):
        opt.step()
    assert np.array_equal(a.data, [1.0]) and np.array_equal(a.grad, [0.5])
    assert np.array_equal(b.data, [2.0]) and opt.t == 0


def test_adam_converges_on_quadratic():
    w = leaf([0.0])
    opt = Adam([w], lr=0.1)
    for _ in range(200):
        with Tape():
            diff = T.add_scalar(w, -3.0)
            loss = T.tsum(T.mul(diff, diff))
            backward(loss)
        opt.step()
    assert abs(w.data[0] - 3.0) < 1e-2


def test_grad_norm_and_clip():
    a, b = leaf([3.0]), leaf([4.0])
    a.grad, b.grad = np.array([3.0]), np.array([4.0])
    assert abs(grad_norm([a, b]) - 5.0) < 1e-12
    clip_grad_norm([a, b], 1.0)
    assert abs(grad_norm([a, b]) - 1.0) < 1e-12


def test_finite_diff_oracle_sanity():
    # the oracle itself: d/dx of x^2 at 3 is 6
    x = leaf([3.0])
    (g,) = finite_diff(lambda: float(x.data[0] ** 2), [x])
    assert abs(g[0] - 6.0) < 1e-6
