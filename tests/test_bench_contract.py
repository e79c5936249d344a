"""Every name the benchmark under perfbench/ wraps or calls still exists.

The traced benchmark substitutes wrappers for module attributes by name, so
deleting or renaming one of them would only surface there; this test makes
it fail in the unit suite instead.
"""

import importlib.util
import pathlib

import numpy as np

from test_tensor import recording_ops
from trajgan import config, data, evaluate, model, optim, train
from trajgan import tensor as T

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# tape-recording ops the benchmark's op pass does not wrap yet: their time
# counts as the calling layer's self time and their nodes as tensor.nodes.other
KNOWN_UNTRACED = {"segment_max", "grouped_attention", "lstm_sequence", "lstm_rollout",
                  "bce_logits"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_tensor_op_exists():
    tracing = load_tracing()
    missing = [name for name in tracing.TENSOR_OPS if not callable(getattr(T, name, None))]
    assert not missing


def test_every_recording_op_is_traced_or_known_untraced():
    recording = recording_ops()
    traced = set(load_tracing().TENSOR_OPS)
    assert recording - traced - KNOWN_UNTRACED == set()
    # the known set stays exact: no stale names, none the tracer already wraps
    assert KNOWN_UNTRACED <= recording - traced


def test_layer_and_op_patches_resolve():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    patches = tracing.layer_patches(tracer, T, train, evaluate, data) \
        + tracing.op_patches(tracer, T, train)
    for mod, name, _ in patches:
        assert hasattr(mod, name), f"{mod.__name__}.{name}"


def test_workload_entry_points_exist():
    for mod, names in ((model, ("build_generator", "build_discriminator", "save_checkpoint",
                                "load_checkpoint_payload", "load_models")),
                       (train, ("train_step_gan", "train_step_nogan")),
                       (evaluate, ("eval_min_of_k", "baseline_metrics")),
                       (optim, ("Adam",)),
                       (config, ("from_dict", "to_dict")),
                       (data, ("load_annotation_dataset", "write_windows_csv",
                               "read_windows_csv", "SceneWindow", "class_index"))):
        for name in names:
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
    cfg = model.ModelConfig(embed_dim=2, class_embed_dim=2, hidden_dim=4, noise_dim=2,
                            pool_dim=2, transformer_heads=2)
    gen = model.build_generator(cfg, seed=0)
    disc = model.build_discriminator(cfg, seed=1)
    assert callable(gen.encoder.encode) and callable(gen.pooling)
    assert callable(gen.decoder.decode) and callable(disc.score_steps)
    # the worker counts an optimizer's params and wraps its step per instance
    params = disc.parameters()
    opt = optim.Adam(params, lr=1e-3)
    assert [id(p) for p in opt.params] == [id(p) for p in params]
    calls, step = [], opt.step
    opt.step = lambda: calls.append(step())
    for p in params:
        p.grad = np.zeros(p.shape)
    opt.step()
    assert calls == [None] and all(p.grad is None for p in params)
