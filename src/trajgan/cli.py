"""Command-line surface: parse, train, eval, analyze.

Every command is deterministic given (config, seed, inputs) and leaves a
manifest recording the resolved config hash, the seed, and checksums of its
file inputs; ``parse`` adds the checksum of the window CSV it wrote and its
line, track and window counts.  Exit codes: 0 ok, 2 config problems, 3 data
problems, 4 numeric failures, 5 output directory already locked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys

import numpy as np

from . import config as C
from . import data as D
from . import evaluate as E
from . import plots
from . import train as TR
from .model import (CheckpointError, ConfigError, LabelsUnavailableError,
                    build_discriminator, build_generator, load_checkpoint_payload,
                    load_models, restore_params, save_checkpoint)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_LOCK = 5

LOCK_NAME = "run.lock"
LAYOUT_HINT = "expected layout: <root>/<scene>/<video>/annotations.txt"


class OutputLocked(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# shared plumbing

def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir, cfg_hash, seed, input_paths, **extra):
    manifest = {
        "config_hash": cfg_hash,
        "seed": seed,
        "inputs": {str(p): _sha256_file(p) for p in sorted(input_paths)
                   if os.path.isfile(p)},
        "python": platform.python_version(),
        "numpy": np.__version__,
        **extra,
    }
    path = os.path.join(out_dir, "manifest.json")
    D.write_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _make_out_dir(path):
    """Create the output directory ``path`` and its parents; a file in the
    way, or any other reason it cannot be made, is a ConfigError naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {path}: {err.strerror}") from err
    return path


def _acquire_lock(out_dir):
    path = os.path.join(out_dir, LOCK_NAME)
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise OutputLocked(f"{path} exists; another run owns this directory "
                           f"(remove the file if it is stale)")
    os.write(fd, f"{os.getpid()}\n".encode())
    os.close(fd)
    return path


def _load_experiment(args):
    cfg = C.load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
        cfg.train.seed = args.seed
        cfg.data.seed = args.seed
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    return cfg.validate()


def _data_input_paths(data_config):
    if data_config.source == "windows_csv":
        return [data_config.resolved_root()]
    if data_config.source == "annotations":
        return list(D.scan_annotation_dirs(data_config.resolved_root()).values())
    return []


def _rebuild_from_checkpoint(path):
    payload = load_checkpoint_payload(path)
    cfg = C.from_dict(payload.get("config") or {}).validate()
    gen = build_generator(cfg.model, seed=cfg.seed)
    load_models(payload, gen)
    return cfg, gen


# ---------------------------------------------------------------------------
# commands

def cmd_parse(args):
    if args.stride < 1:
        raise ConfigError(f"--stride must be at least 1, got {args.stride}")
    root = args.input_dir
    if not os.path.isdir(root):
        raise D.DataError(f"not a directory: {root}; {LAYOUT_HINT}")
    files = D.scan_annotation_dirs(root)
    windows, counts, lines = D.load_annotation_files(files, stride=args.stride)
    _make_out_dir(args.out)
    csv_path = os.path.join(args.out, "windows.csv")
    D.write_windows_csv(windows, csv_path)

    hist = D.class_histogram(counts)
    total = sum(counts.values())
    print(f"{total} tracks -> {len(windows)} windows "
          f"(stride {args.stride}, t_obs {D.T_OBS}, t_pred {D.T_PRED})")
    for name in D.CLASS_NAMES:
        print(f"  {name:<14}{hist[name]:6.2f}%  ({counts[name]} tracks)")
    print(f"wrote {csv_path}")
    _write_manifest(args.out, "", 0, files.values(),
                    outputs={"windows.csv": _sha256_file(csv_path)},
                    counts={"lines": lines, "tracks": total, "windows": len(windows)})
    return EXIT_OK


def cmd_train(args):
    cfg = _load_experiment(args)
    windows = C.load_windows(cfg.data)
    split = D.split_dataset(windows, seed=cfg.seed)

    _make_out_dir(cfg.out_dir)
    lock = _acquire_lock(cfg.out_dir)
    try:
        gen = build_generator(cfg.model, seed=cfg.seed)
        disc = build_discriminator(cfg.model, seed=cfg.seed + 1) \
            if cfg.train.mode == "gan" else None
        best, log = TR.run_training(gen, disc, split, cfg.train)
        restore_params(gen, best["generator"])
        if disc is not None:
            restore_params(disc, best["discriminator"])

        ckpt = os.path.join(cfg.out_dir, "checkpoint.json")
        save_checkpoint(ckpt, gen, disc, config_dict=C.to_dict(cfg),
                        meta={"best_epoch": best["epoch"],
                              "val_ade": best["val_ade"],
                              "val_fde": best["val_fde"],
                              "n_train_windows": len(split.train)})
        D.write_atomic(os.path.join(cfg.out_dir, "train_log.csv"), log.steps_csv())
        D.write_atomic(os.path.join(cfg.out_dir, "val_log.csv"), log.epochs_csv())
        C.save_config(os.path.join(cfg.out_dir, "resolved_config.json"), cfg)
        _write_manifest(cfg.out_dir, C.config_hash(cfg), cfg.seed,
                        [args.config] + _data_input_paths(cfg.data))
    finally:
        os.unlink(lock)

    sys.stdout.write(C.to_json(cfg))
    if best["val_ade"] is not None:
        print(f"best epoch {best['epoch']}: "
              f"val ADE {best['val_ade']:.4f}, FDE {best['val_fde']:.4f}")
    print(f"wrote {ckpt}")
    return EXIT_OK


def cmd_eval(args):
    cfg, gen = _rebuild_from_checkpoint(args.checkpoint)
    # the split is the checkpoint's; --seed reseeds only the sampling noise
    seed = cfg.seed if args.seed is None else args.seed
    k = cfg.train.k if args.k is None else args.k
    if k < 1:
        raise ConfigError(f"--k must be at least 1, got {k}")
    if seed < 0:
        raise ConfigError(f"--seed must be at least 0, got {seed}")
    windows = C.load_windows(cfg.data)
    split = D.split_dataset(windows, seed=cfg.seed)  # no part is empty
    chosen = getattr(split, args.split)

    out = _make_out_dir(args.out or os.path.join(os.path.dirname(args.checkpoint) or ".",
                                                 "eval"))
    report_k = E.eval_min_of_k(gen, chosen, k=k, seed=seed)
    report_1 = E.eval_min_of_k(gen, chosen, k=1, seed=seed)
    D.write_atomic(os.path.join(out, f"report_k{k}.csv"), report_k.to_csv())
    D.write_atomic(os.path.join(out, "report_k1.csv"), report_1.to_csv())
    text = (f"split {args.split}, best of k={k}\n"
            + report_k.to_text(cfg.name)
            + f"\nsplit {args.split}, k=1\n" + report_1.to_text(cfg.name))
    D.write_atomic(os.path.join(out, "report.txt"), text)
    _write_manifest(out, C.config_hash(cfg), seed,
                    [args.checkpoint] + _data_input_paths(cfg.data))
    sys.stdout.write(text)
    return EXIT_OK


def cmd_analyze(args):
    cfg, gen = _rebuild_from_checkpoint(args.checkpoint)
    analysis = E.analyze_embeddings(gen)  # main maps a label-free model to exit 2
    out = _make_out_dir(args.out or os.path.join(os.path.dirname(args.checkpoint) or ".",
                                                 "analysis"))
    D.write_atomic(os.path.join(out, "pca.csv"), analysis.pca_csv())
    D.write_atomic(os.path.join(out, "distances.csv"), analysis.distances_csv())
    D.write_atomic(os.path.join(out, "pca.svg"),
                   plots.scatter_svg(analysis.pca_coords, analysis.class_names,
                                     title="class embeddings, top-2 PCA"))
    ped = analysis.class_names.index("pedestrian")
    others = [i for i in range(len(analysis.class_names)) if i != ped]
    D.write_atomic(os.path.join(out, "distances.svg"),
                   plots.bar_svg([analysis.distance_table[ped, i] for i in others],
                                 [analysis.class_names[i] for i in others],
                                 title="embedding distance from pedestrian"))
    _write_manifest(out, C.config_hash(cfg), cfg.seed, [args.checkpoint])
    if analysis.degenerate:
        print("warning: embeddings are degenerate; PCA projected to zeros")
    print(f"wrote pca.csv, distances.csv and SVG plots under {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def build_parser():
    p = argparse.ArgumentParser(
        prog="trajgan",
        description="class-conditioned multi-agent trajectory prediction")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="annotation tree -> window CSV + summary")
    sp.add_argument("input_dir")
    sp.add_argument("--out", default="parsed")
    sp.add_argument("--stride", type=int, default=D.SUBSAMPLE_STRIDE)
    sp.set_defaults(func=cmd_parse)

    st = sub.add_parser("train", help="train from an experiment config")
    st.add_argument("--config", required=True)
    st.add_argument("--seed", type=int, default=None,
                    help="override every seed in the config")
    st.add_argument("--out", default=None, help="override the output directory")
    st.set_defaults(func=cmd_train)

    se = sub.add_parser("eval", help="min-of-k metrics for a checkpoint")
    se.add_argument("--checkpoint", required=True)
    se.add_argument("--split", choices=("train", "val", "test"), default="test")
    se.add_argument("--k", type=int, default=None)
    se.add_argument("--seed", type=int, default=None,
                    help="reseed the sampling noise; the split stays the checkpoint's")
    se.add_argument("--out", default=None)
    se.set_defaults(func=cmd_eval)

    sa = sub.add_parser("analyze", help="class-embedding PCA and distances")
    sa.add_argument("--checkpoint", required=True)
    sa.add_argument("--out", default=None)
    sa.set_defaults(func=cmd_analyze)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OutputLocked as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_LOCK
    except LabelsUnavailableError:
        print("error: model trained without class embeddings", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, CheckpointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except D.DataError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except TR.TrainingDiverged as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
