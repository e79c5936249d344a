"""The benchmark's workloads: what each sets up, runs and checks.

Each workload is a closed loop with one caller: an operation is issued only
after the previous one returned.  An operation is one train step, one
``eval_min_of_k`` call on a chunk of windows, or one parse -> windows ->
CSV write -> CSV read pass over one annotation root.
"""

from __future__ import annotations

import hashlib
import math
import os
import time

import numpy as np

import inputs
from tracing import LayerProxy

# model and train sections of the presets the workloads follow, copied so
# that editing a preset does not silently change the benchmark
_SMALL_DIMS = {
    "embed_dim": 8, "class_embed_dim": 8, "hidden_dim": 16, "noise_dim": 4,
    "pool_dim": 8, "input_scale": 0.02, "activation": "leaky_relu",
    "leaky_slope": 0.2, "k_samples": 5, "class_in_spatial": True,
    "transformer_heads": 4, "transformer_layers": 2, "transformer_ff_dim": 32,
    "transformer_pool": "last", "gamma_mlp_hidden": [16],
    "pooling_mlp_hidden": [16], "decoder_init_mlp_hidden": [16],
    "classifier_mlp_hidden": [16],
}
GAN_LSTM = dict(_SMALL_DIMS, encoder="lstm", use_labels=False)
GAN_LSTM_LABEL = dict(_SMALL_DIMS, encoder="lstm", use_labels=True)
GAN_TRANSFORMER = dict(_SMALL_DIMS, encoder="transformer", use_labels=False)
# Model initialisation does not follow the workload seed: the benchmark's
# model is fixed and only its inputs vary.
MODEL_SEED = 0
# The output fingerprint is computed on reference inputs made from this seed,
# whatever the run's seed, so it reads the same in every run of the same code.
REFERENCE_SEED = 0


class CheckFailed(Exception):
    """An output check found a wrong result."""


def _finite(*values):
    return all(v is None or math.isfinite(v) for v in values)


class Workload:
    name = ""
    unit = ""            # what throughput counts
    fixed_ops = 0        # leading ops whose outputs the fingerprint uses
    tail_pct = 90        # op_ms_tail's percentile
    min_timed_ops = 100  # so that the tail has at least 10 samples beyond it
    warmup = 3           # leading ops left out of the timings
    trace_ops = 24       # ops per pass in a traced run
    setup_reps = 5
    root_span = ""
    aliases = {}         # workload-specific names of the shared metrics

    def __init__(self, tg):
        self.tg = tg  # namespace of trajgan modules

    def setup(self, seed, workdir):
        raise NotImplementedError

    def run_op(self, st, i):
        raise NotImplementedError

    def check_op(self, st, i, out):
        """Raise CheckFailed on a wrong output; return the items it completed."""
        raise NotImplementedError

    def fingerprint(self, st, outs):
        """(output_error_px on the reference inputs, list of failed whole-run
        checks); 0.0 when it could not be computed, which the failed checks
        then explain."""
        raise NotImplementedError

    def signature(self, out):
        """Values that must match bitwise between traced and untraced passes."""
        raise NotImplementedError

    def install(self, tracer, st):
        """Object-level wrappers for the layer pass."""

    def optimizers(self, st):
        return []


# ---------------------------------------------------------------------------
# training

class TrainWorkload(Workload):
    unit = "windows"
    fixed_ops = 40
    fingerprint_steps = 20
    setup_reps = 11
    root_span = "train.step"
    aliases = {"throughput_per_s": "train_windows_per_s", "op_ms_p50": "step_ms_p50",
               "op_ms_tail": "step_ms_tail", "output_error_px": "train_variety_final"}

    def __init__(self, tg, name, model, train, scenes, classes, n_windows, trace_ops):
        super().__init__(tg)
        self.name = name
        self.trace_ops = trace_ops
        self.model = model
        self.train = train
        self.scenes = scenes
        self.classes = classes
        self.n_windows = n_windows

    def setup(self, seed, workdir):
        tg = self.tg
        windows = self.scenes(tg.data, seed, self.n_windows, self.classes)
        ref_windows = self.scenes(tg.data, REFERENCE_SEED, self.n_windows, self.classes)
        cfg = tg.config.from_dict({"model": self.model,
                                   "train": dict(self.train, seed=seed)}).validate()
        gen = tg.model.build_generator(cfg.model, MODEL_SEED)
        g_opt = tg.optim.Adam(gen.parameters(), lr=cfg.train.lr)
        disc = d_opt = None
        if cfg.train.mode == "gan":
            disc = tg.model.build_discriminator(cfg.model, MODEL_SEED + 1)
            d_opt = tg.optim.Adam(disc.parameters(), lr=cfg.train.lr)
        # the fixed run (the first fixed_ops steps) trains on the reference
        # inputs, the steps after it on the run's own
        streams = {ref: {"seed": s, "windows": w, "order": [],
                         "noise": np.random.default_rng([s, 22])}
                   for ref, s, w in ((True, REFERENCE_SEED, ref_windows),
                                     (False, seed, windows))}
        return {"streams": streams, "cfg": cfg.train, "gen": gen, "disc": disc,
                "g_opt": g_opt, "d_opt": d_opt}

    def _batch(self, st, i):
        """Batch of step i and the noise stream it draws from."""
        ref = i < self.fixed_ops
        stream = st["streams"][ref]
        j = i if ref else i - self.fixed_ops
        size = st["cfg"].batch_size
        windows, order = stream["windows"], stream["order"]
        while len(order) < (j + 1) * size:
            epoch = len(order) // len(windows)
            order.extend(np.random.default_rng([stream["seed"], 21, epoch])
                         .permutation(len(windows)).tolist())
        return [windows[k] for k in order[j * size:(j + 1) * size]], stream["noise"]

    def run_op(self, st, i):
        batch, noise = self._batch(st, i)
        train = self.tg.train
        if st["disc"] is not None:
            return train.train_step_gan(batch, st["gen"], st["disc"], st["g_opt"],
                                        st["d_opt"], st["cfg"], noise, step=i)
        return train.train_step_nogan(batch, st["gen"], st["g_opt"], st["cfg"],
                                      noise, step=i)

    def check_op(self, st, i, rec):
        if not _finite(rec.d_loss, rec.g_adv, rec.variety, rec.grad_norm_g,
                       rec.grad_norm_d) or rec.variety is None or rec.grad_norm_g is None:
            raise CheckFailed(f"step {i}: non-finite loss or grad norm: {rec}")
        return st["cfg"].batch_size

    def fingerprint(self, st, outs):
        tail = outs[self.fixed_ops - self.fingerprint_steps:self.fixed_ops]
        if len(tail) < self.fingerprint_steps or any(r is None for r in tail):
            return 0.0, ["fixed training run incomplete"]
        return float(np.mean([r.variety for r in tail])), []

    def signature(self, rec):
        return (rec.d_loss, rec.g_adv, rec.variety, rec.grad_norm_g, rec.grad_norm_d)

    def install(self, tracer, st):
        install_generator(tracer, st["gen"])
        if st["disc"] is not None:
            st["disc"].score_steps = tracer.wrap("model.disc", st["disc"].score_steps)
        for opt in self.optimizers(st):
            opt.step = tracer.wrap("optim.adam", opt.step)

    def optimizers(self, st):
        return [o for o in (st["g_opt"], st["d_opt"]) if o is not None]


def install_generator(tracer, gen):
    """Proxies for the generator's encoder, pooling and decoder."""
    pooling = gen.pooling

    def pool(hidden, positions):
        n = hidden.shape[0]
        tracer.counts["model.pooling_pairs"] += n * (n - 1)
        return pooling(hidden, positions)

    gen.encoder = LayerProxy(gen.encoder, "encode",
                             tracer.wrap("model.encoder", gen.encoder.encode))
    gen.pooling = LayerProxy(pooling, "__call__", tracer.wrap("model.pooling", pool))
    gen.decoder = LayerProxy(gen.decoder, "decode",
                             tracer.wrap("model.decoder", gen.decoder.decode))


# ---------------------------------------------------------------------------
# evaluation

class EvalWorkload(Workload):
    name = "eval_crowded_k20"
    unit = "agents"
    k = 20
    n_windows = 32
    chunk = 2
    root_span = "evaluate"
    trace_ops = 96
    setup_reps = 11
    aliases = {"throughput_per_s": "eval_agents_per_s", "output_error_px": "eval_ade"}

    def setup(self, seed, workdir):
        tg = self.tg
        classes = [inputs.ALL_CLASSES[i % 6] for i in range(16)]
        windows = inputs.roundabout_windows(tg.data, seed, self.n_windows, classes)
        ref_windows = inputs.roundabout_windows(tg.data, REFERENCE_SEED, self.n_windows,
                                                classes)
        cfg = tg.config.from_dict({"model": GAN_LSTM_LABEL}).validate()
        saved = tg.model.build_generator(cfg.model, MODEL_SEED)
        path = os.path.join(workdir, "checkpoint.json")
        tg.model.save_checkpoint(path, saved, config_dict=tg.config.to_dict(cfg))
        gen = tg.model.build_generator(cfg.model, MODEL_SEED + 1)
        t0 = time.perf_counter()
        tg.model.load_models(tg.model.load_checkpoint_payload(path), gen)
        load_s = time.perf_counter() - t0
        want = saved.named_parameters()
        got = gen.named_parameters()
        round_trip = set(want) == set(got) and all(
            want[n].data.shape == got[n].data.shape
            and np.array_equal(want[n].data, got[n].data) for n in want)
        return {"windows": windows, "ref_windows": ref_windows, "gen": gen, "seed": seed,
                "ckpt_load_s": load_s, "round_trip": round_trip}

    def _chunk(self, st, i):
        lo = (i * self.chunk) % self.n_windows
        return st["windows"][lo:lo + self.chunk]

    def run_op(self, st, i):
        return self.tg.evaluate.eval_min_of_k(st["gen"], self._chunk(st, i),
                                              k=self.k, seed=st["seed"])

    def check_op(self, st, i, rep):
        want = sum(w.n_agents for w in self._chunk(st, i))
        if rep.n_trajectories != want or not _finite(rep.ade, rep.fde):
            raise CheckFailed(f"eval {i}: {rep.n_trajectories} trajectories "
                              f"(planted {want}), ade {rep.ade}")
        return want

    def fingerprint(self, st, outs):
        failed = [] if st["round_trip"] else ["checkpoint round trip not exact"]
        ev = self.tg.evaluate
        full = ev.eval_min_of_k(st["gen"], st["windows"], k=self.k, seed=st["seed"])
        one = ev.eval_min_of_k(st["gen"], st["windows"], k=1, seed=st["seed"])
        planted = sum(w.n_agents for w in st["windows"])
        if full.n_trajectories != planted or one.n_trajectories != planted:
            failed.append("n_trajectories differs from the planted agent count")
        if not full.ade <= one.ade:
            failed.append(f"ADE(k={self.k}) {full.ade} > ADE(k=1) {one.ade}")
        ref = ev.eval_min_of_k(st["gen"], st["ref_windows"], k=self.k, seed=REFERENCE_SEED)
        return ref.ade, failed

    def signature(self, rep):
        return (rep.ade, rep.fde, rep.baseline_ade, rep.baseline_fde)

    def install(self, tracer, st):
        install_generator(tracer, st["gen"])


# ---------------------------------------------------------------------------
# annotation parsing

class ParseWorkload(Workload):
    name = "parse_annotations"
    unit = "lines"
    n_roots = 2
    setup_reps = 7
    tail_pct = 80
    min_timed_ops = 50
    root_span = "data.op"
    trace_ops = 15
    aliases = {"throughput_per_s": "parse_lines_per_s"}

    def setup(self, seed, workdir):
        roots = [inputs.write_annotation_root(os.path.join(workdir, f"root{r:02d}"), seed, r)
                 for r in range(self.n_roots)]
        return {"roots": roots, "workdir": workdir, "lines_done": 0, "windows_done": 0}

    def _load(self, root, csv_path):
        data = self.tg.data
        windows, _ = data.load_annotation_dataset(root.path)
        data.write_windows_csv(windows, csv_path)
        return windows, data.read_windows_csv(csv_path)

    def run_op(self, st, i):
        r = i % self.n_roots
        return self._load(st["roots"][r], os.path.join(st["workdir"], f"windows{r:02d}.csv"))

    def _check(self, root, windows, back, what):
        got = {(w.scene_id, w.start_frame): w for w in windows}
        agents = sum(w.n_agents for w in windows)
        if (len(windows), agents) != (root.n_windows, root.n_agents) \
                or set(got) != set(root.expected):
            raise CheckFailed(f"{what}: {len(windows)} windows of {agents} agents, "
                              f"planted {root.n_windows} of {root.n_agents}")
        class_names = self.tg.data.CLASS_NAMES
        for key, agents in root.expected.items():
            w = got[key]
            ids = sorted(agents)
            if list(w.agent_ids) != ids or any(
                    class_names[c] != agents[t][0] for t, c in zip(ids, w.class_indices)):
                raise CheckFailed(f"{what}: window {key} agents {w.agent_ids} "
                                  f"differ from planted {ids}")
            if not np.array_equal(w.points(), np.stack([agents[t][1] for t in ids])):
                raise CheckFailed(f"{what}: window {key} points differ from planted")
        # frame_step is not compared: the CSV format does not store it
        if len(back) != len(windows) or any(
                (a.scene_id, a.start_frame, a.agent_ids) != (b.scene_id, b.start_frame,
                                                             b.agent_ids)
                or not np.array_equal(a.class_indices, b.class_indices)
                or not np.array_equal(a.points(), b.points())
                for a, b in zip(windows, back)):
            raise CheckFailed(f"{what}: CSV round trip changed the windows")

    def check_op(self, st, i, out):
        windows, back = out
        root = st["roots"][i % self.n_roots]
        self._check(root, windows, back, f"parse {i}")
        st["lines_done"] += root.n_lines
        st["windows_done"] += len(windows)
        return root.n_lines

    def fingerprint(self, st, outs):
        # error of the constant-velocity baseline on the reference root's windows
        path = os.path.join(st["workdir"], "reference")
        root = inputs.write_annotation_root(path, REFERENCE_SEED, 0)
        windows, back = self._load(root, os.path.join(path, "windows.csv"))
        try:
            self._check(root, windows, back, "reference root")
        except CheckFailed as exc:
            return 0.0, [str(exc)]
        return self.tg.evaluate.baseline_metrics(windows)[0], []

    def signature(self, out):
        windows, back = out
        digest = hashlib.sha256()
        for w in back:
            digest.update(repr((w.scene_id, w.start_frame, w.agent_ids)).encode())
            digest.update(w.points().tobytes())
        return (len(windows), digest.hexdigest())


def build(tg):
    """All workloads by name, in the order the benchmark lists them."""
    mixed = [inputs.ALL_CLASSES[i % 6] for i in range(12)]
    out = [
        TrainWorkload(tg, "train_gan_lstm", GAN_LSTM,
                      {"batch_size": 6, "k": 5, "mode": "gan", "lr": 1e-3},
                      inputs.turn_windows, ("pedestrian", "car", "bicyclist"), 48, 24),
        TrainWorkload(tg, "train_nogan_transformer_crowded", GAN_TRANSFORMER,
                      {"batch_size": 2, "k": 5, "mode": "nogan", "lr": 1e-3},
                      inputs.roundabout_windows, tuple(mixed), 24, 60),
        EvalWorkload(tg),
        ParseWorkload(tg),
    ]
    return {w.name: w for w in out}
