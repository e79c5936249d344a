"""Every name the benchmark under perfbench/ wraps or calls still exists,
and its model workloads still set up and run.

The traced benchmark substitutes wrappers for module attributes by name, so
deleting or renaming one of them would only surface there; this test makes
it fail in the unit suite instead.
"""

import importlib.util
import pathlib
import sys
import types

import numpy as np
import pytest

from test_tensor import recording_ops
from trajgan import config, data, evaluate, model, optim, train
from trajgan import tensor as T

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# the trajgan modules, as the benchmark's workloads take them
PROGRAM = types.SimpleNamespace(config=config, data=data, evaluate=evaluate, model=model,
                                optim=optim, tensor=T, train=train)

# tape-recording ops the benchmark's op pass does not wrap yet: their time
# counts as the calling layer's self time and their nodes as tensor.nodes.other
KNOWN_UNTRACED = {"segment_max", "grouped_attention", "lstm_sequence", "lstm_rollout",
                  "bce_logits", "mlp", "layer_norm", "min_of_k_norms"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def load_workloads(monkeypatch):
    """perfbench/workloads.py, which imports its siblings by their bare
    names; the monkeypatch takes all three out of sys.modules again."""
    for name in ("inputs", "tracing", "workloads"):
        spec = importlib.util.spec_from_file_location(name, TRACING.with_name(f"{name}.py"))
        mod = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, mod)  # dataclasses look their module up
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


@pytest.mark.parametrize("mode", ["gan", "nogan"])
def test_train_step_never_nests_tapes(monkeypatch, mode):
    # the benchmark's counting tape tracks one open tape at a time, so a
    # step that opened a tape inside another would misattribute its nodes;
    # a step records on exactly one tape
    entered, depth = [], [0]

    class WatchedTape(T.Tape):
        def __enter__(self):
            assert depth[0] == 0, "a tape was opened inside another"
            assert self not in entered, "a tape was entered twice"
            entered.append(self)
            depth[0] += 1
            return super().__enter__()

        def __exit__(self, *exc):
            depth[0] -= 1
            return super().__exit__(*exc)

    monkeypatch.setattr(train, "Tape", WatchedTape)
    cfg = model.ModelConfig(embed_dim=2, class_embed_dim=2, hidden_dim=4, noise_dim=2,
                            pool_dim=2, transformer_heads=2)
    gen = model.build_generator(cfg, seed=0)
    disc = model.build_discriminator(cfg, seed=1) if mode == "gan" else None
    config = train.TrainConfig(batch_size=2, k=2, mode=mode)
    windows = data.synth_scene("turn", 2, ["pedestrian", "car"], seed=3, n_windows=2)
    train.train_step_gan(windows, gen, disc, optim.Adam(gen.parameters()),
                         None if disc is None else optim.Adam(disc.parameters()),
                         config, np.random.default_rng(4))
    assert depth[0] == 0 and len(entered) == 1


@pytest.mark.parametrize("name", ["train_gan_lstm", "train_nogan_transformer_crowded",
                                  "eval_crowded_k20"])
def test_model_workloads_set_up_and_run_an_op(monkeypatch, tmp_path, name):
    # the workloads build their configs from their own dicts and save and
    # load a checkpoint, so a config-schema or checkpoint change that the
    # benchmark cannot load fails here
    wl = load_workloads(monkeypatch).build(PROGRAM)[name]
    st = wl.setup(seed=1, workdir=str(tmp_path))
    assert st.get("round_trip", True)
    assert wl.check_op(st, 0, wl.run_op(st, 0)) > 0


# each workload's output fingerprint (output_error_px), which the benchmark
# holds to a relative bound of 1e-9 against the parent commit; it is computed
# on reference inputs, so it reads the same at every workload seed
FINGERPRINTS = {"train_gan_lstm": 194.39821107488552,
                "train_nogan_transformer_crowded": 107.08605119178162,
                "eval_crowded_k20": 74.39064275952748,
                "parse_annotations": 3.5194401452812554}


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_workload_fingerprints_hold(monkeypatch, tmp_path, name):
    wl = load_workloads(monkeypatch).build(PROGRAM)[name]
    st = wl.setup(seed=1, workdir=str(tmp_path))
    error_px, failed = wl.fingerprint(st, [wl.run_op(st, i) for i in range(wl.fixed_ops)])
    assert failed == []
    assert error_px == pytest.approx(FINGERPRINTS[name], rel=1e-9, abs=0.0)
