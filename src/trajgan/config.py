"""One JSON document describing a full experiment: model, training, data.

Loading is strict: unknown keys are rejected with the offending name, so a
typo cannot silently fall back to a default, and a retired model key loads
only at its one remaining value (``RETIRED_MODEL_KEYS``), which is dropped.
load(save(config)) round-trips to an equal config.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from dataclasses import MISSING, asdict, dataclass, field, fields

from . import data as D
from .model import ConfigError, ModelConfig
from .train import TrainConfig

DATA_SOURCES = ("synth", "windows_csv", "annotations")
DATA_ROOT_ENV = "TRAJGAN_DATA_ROOT"
# model options no config varied: the values a file may still hold, described and tested
RETIRED_MODEL_KEYS = {"class_in_spatial": ("true", lambda v: v is True),
                      "k_samples": ("an integer", lambda v: type(v) is int),
                      "transformer_pool": ('"last"', lambda v: v == "last")}


@dataclass
class DataConfig:
    source: str = "synth"
    # synth scenes
    scene_kind: str = "linear"
    n_agents: int = 3
    classes: tuple = ("pedestrian", "car", "bicyclist")
    n_windows: int = 12
    jitter: float = 0.05
    seed: int = 0
    # annotation tree or window CSV location; TRAJGAN_DATA_ROOT overrides
    root: str = ""
    stride: int = D.SUBSAMPLE_STRIDE
    t_obs: int = D.T_OBS
    t_pred: int = D.T_PRED

    def __post_init__(self):
        self.classes = tuple(self.classes)

    def validate(self):
        if self.source not in DATA_SOURCES:
            raise ConfigError(f"data source must be one of {DATA_SOURCES}, "
                              f"got {self.source!r}")
        if self.t_obs < 2 or self.t_pred < 1:
            raise ConfigError("need t_obs >= 2 and t_pred >= 1")
        if self.source == "synth":
            if self.scene_kind not in D.SYNTH_KINDS:
                raise ConfigError(f"scene_kind must be one of {D.SYNTH_KINDS}")
            if self.n_agents < 1 or self.n_windows < 1:
                raise ConfigError("n_agents and n_windows must be >= 1")
            if len(self.classes) != self.n_agents:
                raise ConfigError(f"{self.n_agents} agents need {self.n_agents} "
                                  f"classes, got {len(self.classes)}")
            for c in self.classes:
                D.class_index(c)
            if not (math.isfinite(self.jitter) and self.jitter >= 0):
                raise ConfigError(f"jitter must be finite and >= 0, got {self.jitter}")
        elif self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if self.seed < 0:
            raise ConfigError(f"data.seed must be >= 0, got {self.seed}")
        return self

    def resolved_root(self):
        return os.environ.get(DATA_ROOT_ENV) or self.root


@dataclass
class ExperimentConfig:
    name: str = "experiment"
    seed: int = 0
    out_dir: str = "runs/experiment"
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)

    def validate(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        self.model.validate()
        self.train.validate()
        self.data.validate()
        return self


def _fits(value, default):
    """Whether a JSON value has the type of a field's default: an int fits a
    float, a number or null a None default, a list of items that fit its
    first item a tuple, and a bool only a bool."""
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_fits(v, default[0]) for v in value)
    kinds = {float: (int, float), type(None): (int, float, type(None))}.get(type(default),
                                                                          type(default))
    return isinstance(value, kinds) and isinstance(value, bool) == isinstance(default, bool)


def _finite(value):
    """Whether a JSON value holds no NaN or infinity, which ``json`` reads
    from the bare words NaN, Infinity and -Infinity."""
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _build_section(cls, values, section):
    """``cls(**values)`` once every key names a field and every value is
    finite and fits its field's default; a field with a default factory is
    a section."""
    if not isinstance(values, dict):
        raise ConfigError(f"{section or 'config'} must be a JSON object, "
                          f"got {type(values).__name__}")
    known = {f.name: f for f in fields(cls)}
    kwargs = dict(values)
    for key, value in sorted(values.items()):
        name = key if section is None else f"{section}.{key}"
        if key not in known:
            raise ConfigError(f"unknown config key {name!r}")
        if known[key].default_factory is not MISSING:
            kwargs[key] = _build_section(known[key].default_factory, value, name)
        elif not _finite(value):
            raise ConfigError(f"{name} is {json.dumps(value)}; config numbers must be finite")
        elif not _fits(value, known[key].default):
            raise ConfigError(f"{name} is {json.dumps(value)}, which does not fit "
                              f"its default {json.dumps(known[key].default)}")
    return cls(**kwargs)


def from_dict(d):
    if isinstance(d, dict) and isinstance(d.get("model"), dict):
        d = {**d, "model": dict(d["model"])}  # the caller's document stays as it is
        for key, (only, fits) in RETIRED_MODEL_KEYS.items():
            if key in d["model"] and not fits(d["model"].pop(key)):
                raise ConfigError(f"model.{key} is retired; only {only} is supported")
    return _build_section(ExperimentConfig, d, None)


def to_dict(config):
    """Nested plain dict of ``config``; tuples stay tuples, which JSON writes as lists."""
    return asdict(config)


def to_json(config):
    return json.dumps(to_dict(config), indent=2, sort_keys=True) + "\n"


def from_json(text):
    try:
        d = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    return from_dict(d)


def load_config(path):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return from_json(fh.read())
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"config {path} is not UTF-8 text: {err}") from err


def save_config(path, config):
    D.write_atomic(path, to_json(config))


def config_hash(config):
    """Stable hash of the fully resolved config, for run manifests."""
    canon = json.dumps(to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def load_windows(data_config):
    """Materialize the scene windows a DataConfig points at."""
    data_config.validate()
    if data_config.source == "synth":
        return D.synth_scene(data_config.scene_kind, data_config.n_agents,
                             list(data_config.classes), data_config.seed,
                             n_windows=data_config.n_windows,
                             jitter=data_config.jitter,
                             t_obs=data_config.t_obs, t_pred=data_config.t_pred)
    root = data_config.resolved_root()
    if not root:
        raise ConfigError(f"data source {data_config.source!r} needs root "
                          f"(or ${DATA_ROOT_ENV})")
    if data_config.source == "windows_csv":
        if not os.path.isfile(root):
            raise D.DataError(f"window CSV not found: {root}")
        windows = D.read_windows_csv(root)
        want = (data_config.t_obs, data_config.t_pred)
        for w in windows:
            if (w.t_obs, w.t_pred) != want:
                raise D.DataError(f"window {w.window_id!r} in {root} has t_obs {w.t_obs}, "
                                  f"t_pred {w.t_pred}; data config says {want[0]}, {want[1]}")
        return windows
    if not os.path.isdir(root):
        raise D.DataError(f"annotation root not found: {root}")
    windows, _ = D.load_annotation_dataset(root, stride=data_config.stride,
                                           t_obs=data_config.t_obs,
                                           t_pred=data_config.t_pred)
    return windows
