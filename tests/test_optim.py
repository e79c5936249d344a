import numpy as np
import pytest

from oracles import LoopedAdam, grad_norm_ref
from trajgan import model as M
from trajgan.optim import Adam, clip_grad_norm, grad_norm
from trajgan.tensor import ContractError, Tensor

# odd sizes and single elements
SHAPES = [(1,), (3,), (5, 7), (2, 3, 3), (13,), (1, 1), (8,), (4, 9)]


def leaves(shapes=SHAPES, seed=0):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]


def tiny_generator(seed=0):
    cfg = M.ModelConfig(embed_dim=3, class_embed_dim=2, hidden_dim=4, noise_dim=2,
                        pool_dim=3, transformer_heads=2, transformer_layers=1,
                        transformer_ff_dim=6, gamma_mlp_hidden=(3,),
                        pooling_mlp_hidden=(3,), decoder_init_mlp_hidden=(3,),
                        classifier_mlp_hidden=(3,))
    return M.build_generator(cfg, seed)


def test_packed_adam_is_bitwise_equal_to_per_tensor_loop():
    packed, looped = leaves(), leaves()
    opt, ref = Adam(packed, lr=0.01), LoopedAdam(looped, lr=0.01)
    rng = np.random.default_rng(1)
    for _ in range(50):
        for a, b in zip(packed, looped):
            # wide magnitudes, and some exact zeros, exercise sqrt and epsilon
            g = rng.normal(size=a.shape) * 10.0 ** rng.integers(-6, 3, size=a.shape)
            g[rng.random(a.shape) < 0.1] = 0.0
            a.grad, b.grad = g, g.copy()
        opt.step()
        ref.step()
        for a, b in zip(packed, looped):
            assert a.data.tobytes() == b.data.tobytes()
            assert a.grad is None
    assert opt.t == ref.t == 50


def test_packing_keeps_values_and_gives_aligned_contiguous_views():
    rng = np.random.default_rng(2)
    special = np.array([-0.0, 5e-324, np.inf, -np.inf, 1.0 / 3.0])
    sources = [special, rng.normal(size=(4, 6)).T, rng.normal(size=(3, 5))[:, ::2],
               rng.normal(size=(1,))]
    params = [Tensor(s, requires_grad=True) for s in sources]
    before = [p.data.copy() for p in params]
    opt = Adam(params)
    for p, old in zip(params, before):
        assert p.data.tobytes() == np.ascontiguousarray(old).tobytes()
        assert p.data.shape == old.shape and p.data.dtype == np.float64
        assert p.data.flags.c_contiguous
        assert np.shares_memory(p.data, opt.vec)
    assert np.count_nonzero(opt.vec) == sum(np.count_nonzero(p.data) for p in params)


@pytest.mark.parametrize("other", [
    lambda ps, extra: list(ps),
    lambda ps, extra: ps[:3],
    lambda ps, extra: ps[::-1],
    lambda ps, extra: [extra] + ps,
    lambda ps, extra: [ps[0]] + leaves(seed=4),
], ids=["same_list", "prefix", "reordered", "unpacked_then_packed",
        "packed_then_unpacked"])
def test_newest_adam_owns_its_parameters(other):
    params = leaves()
    first = Adam(params, lr=0.1)
    extra = Tensor(np.ones(3), requires_grad=True)
    newer = other(params, extra)
    before = [p.data.copy() for p in params + newer]
    second = Adam(newer, lr=0.1)
    # the newest optimizer packs afresh and keeps every value
    for p, old in zip(params + newer, before):
        assert p.data.tobytes() == old.tobytes()
    assert all(np.shares_memory(p.data, second.vec) for p in newer)
    # the older one now finds a parameter rebound and changes nothing
    packed = first.vec.copy()
    for p in params:
        p.grad = np.ones(p.shape)
    with pytest.raises(ContractError):
        first.step()
    assert first.t == 0 and not first.m.any() and not first.v.any()
    assert np.array_equal(first.vec, packed)
    for p, old in zip(params + newer, before):
        assert p.data.tobytes() == old.tobytes()


def test_same_parameter_twice_is_contract_error():
    (p,) = leaves([(3,)])
    with pytest.raises(ContractError):
        Adam([p, p])


@pytest.mark.parametrize("param_shape, grad_shape", [((3,), (1, 3)), ((2, 2), (2,))])
def test_adam_gradient_of_wrong_shape_changes_nothing(param_shape, grad_shape):
    # the bad gradient comes last: the check precedes every update
    a, b = leaves([(4,), param_shape])
    a.grad, b.grad = np.full(4, 0.5), np.ones(grad_shape)
    opt = Adam([a, b], lr=0.1)
    data = [a.data.copy(), b.data.copy()]
    with pytest.raises(ContractError):
        opt.step()
    assert np.array_equal(a.data, data[0]) and np.array_equal(b.data, data[1])
    assert np.array_equal(a.grad, np.full(4, 0.5)) and b.grad.shape == grad_shape
    assert opt.t == 0 and not opt.m.any() and not opt.v.any()


def test_rebound_parameter_is_contract_error():
    params = leaves()
    opt = Adam(params)
    params[1].data = params[1].data.copy()
    for p in params:
        p.grad = np.ones(p.shape)
    with pytest.raises(ContractError):
        opt.step()
    assert opt.t == 0


def test_restore_and_load_after_adam_write_through_to_the_vector(tmp_path):
    gen, donor = tiny_generator(0), tiny_generator(7)
    opt = Adam(gen.parameters())
    views = [p.data for p in opt.params]
    M.restore_params(gen, M.snapshot_params(donor))
    assert all(p.data is v for p, v in zip(opt.params, views))
    for p, q in zip(opt.params, donor.parameters()):
        assert p.data.tobytes() == q.data.tobytes()
        assert np.shares_memory(p.data, opt.vec)
    path = tmp_path / "ckpt.json"
    M.save_checkpoint(path, tiny_generator(3))
    M.load_models(M.load_checkpoint_payload(path), gen)
    assert all(p.data is v for p, v in zip(opt.params, views))
    for p, q in zip(opt.params, tiny_generator(3).parameters()):
        assert p.data.tobytes() == q.data.tobytes()
    # and the optimizer steps from the loaded values
    ref = LoopedAdam(tiny_generator(3).parameters())
    for p, q in zip(opt.params, ref.params):
        p.grad = np.full(p.shape, 0.25)
        q.grad = np.full(q.shape, 0.25)
    opt.step()
    ref.step()
    assert all(p.data.tobytes() == q.data.tobytes() for p, q in zip(opt.params, ref.params))


def test_grad_norm_and_clip_match_per_tensor_oracle():
    params = leaves(seed=5)
    rng = np.random.default_rng(6)
    for p in params:
        p.grad = rng.normal(size=p.shape) * 3.0
    params[2].grad = None  # a missing gradient counts as 0
    Adam(params)  # packing must not change the norm's inputs
    expected = grad_norm_ref(params)
    assert grad_norm(params) == pytest.approx(expected, rel=1e-12)
    before = [None if p.grad is None else p.grad.copy() for p in params]
    assert clip_grad_norm(params, 1.0) == pytest.approx(expected, rel=1e-12)
    for p, g in zip(params, before):
        if g is None:
            assert p.grad is None
        else:
            np.testing.assert_allclose(p.grad, g * (1.0 / expected), rtol=1e-12, atol=0)
    assert grad_norm(params) == pytest.approx(1.0, rel=1e-12)
    # below the bound nothing is scaled
    kept = [None if p.grad is None else p.grad.copy() for p in params]
    clip_grad_norm(params, 10.0)
    assert all(g is None or np.array_equal(p.grad, g) for p, g in zip(params, kept))
    assert grad_norm([]) == 0.0
