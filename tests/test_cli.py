import ast
import errno
import hashlib
import json
import math
import os
import pathlib
import platform
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from trajgan import cli
from trajgan import config as C
from trajgan import data as D
from trajgan import plots
from trajgan.model import (ConfigError, ModelConfig, build_generator,
                           load_checkpoint_payload, save_checkpoint)
from trajgan.train import TrainConfig


# ---------------------------------------------------------------------------
# config round trip and strictness

def small_experiment(tmp_path, **train_kw):
    train = dict(mode="nogan", epochs=2, batch_size=2, k=2, lr=1e-3, seed=0)
    train.update(train_kw)
    return C.ExperimentConfig(
        name="unit", seed=0, out_dir=str(tmp_path / "run"),
        model=ModelConfig(embed_dim=3, class_embed_dim=2, hidden_dim=4,
                          noise_dim=2, pool_dim=3, transformer_heads=2,
                          transformer_layers=1, transformer_ff_dim=6,
                          gamma_mlp_hidden=(3,), pooling_mlp_hidden=(3,),
                          decoder_init_mlp_hidden=(3,), classifier_mlp_hidden=(3,)),
        train=TrainConfig(**train),
        data=C.DataConfig(source="synth", scene_kind="linear", n_agents=2,
                          classes=("pedestrian", "car"), n_windows=6,
                          jitter=0.1, seed=0))


def test_config_round_trip_identity(tmp_path):
    cfg = small_experiment(tmp_path)
    path = tmp_path / "cfg.json"
    C.save_config(path, cfg)
    assert C.load_config(path) == cfg


def test_config_defaults_fill_missing_sections():
    cfg = C.from_dict({"name": "bare"})
    assert cfg.model == ModelConfig()
    assert cfg.train == TrainConfig()
    assert cfg.data == C.DataConfig()


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="typo_key"):
        C.from_dict({"typo_key": 1})
    with pytest.raises(ConfigError, match="hiden_dim"):
        C.from_dict({"model": {"hiden_dim": 4}})
    with pytest.raises(ConfigError, match="lr_decay"):
        C.from_dict({"train": {"lr_decay": 0.5}})
    with pytest.raises(ConfigError, match="sceen_kind"):
        C.from_dict({"data": {"sceen_kind": "turn"}})


@pytest.mark.parametrize("doc, named", [
    ({"seed": 1.5}, "seed"),
    ({"seed": "3"}, "seed"),
    ({"seed": True}, "seed"),
    ({"name": 7}, "name"),
    ({"train": {"seed": 2.0}}, "train.seed"),
    ({"train": {"clip_norm": True}}, "train.clip_norm"),
    ({"train": {"lr": "0.1"}}, "train.lr"),
    ({"model": {"use_labels": 1}}, "model.use_labels"),
    ({"model": {"hidden_dim": False}}, "model.hidden_dim"),
    ({"model": {"gamma_mlp_hidden": [16.5]}}, "model.gamma_mlp_hidden"),
    ({"model": {"pooling_mlp_hidden": 16}}, "model.pooling_mlp_hidden"),
    ({"data": {"classes": "car"}}, "data.classes"),
    ({"data": {"classes": ["car", 3]}}, "data.classes"),
    ({"data": {"jitter": None}}, "data.jitter"),
])
def test_config_rejects_values_of_the_wrong_type(doc, named):
    with pytest.raises(ConfigError, match=f"^{named} is "):
        C.from_dict(doc)


@pytest.mark.parametrize("text, named", [
    ('{"data": {"jitter": NaN}}', "data.jitter"),
    ('{"train": {"lr": Infinity}}', "train.lr"),
    ('{"model": {"input_scale": Infinity}}', "model.input_scale"),
    ('{"model": {"leaky_slope": -Infinity}}', "model.leaky_slope"),
    ('{"train": {"clip_norm": NaN}}', "train.clip_norm"),
    ('{"train": {"epochs": NaN}}', "train.epochs"),
    ('{"model": {"gamma_mlp_hidden": [16, Infinity]}}', "model.gamma_mlp_hidden"),
])
def test_config_rejects_non_finite_numbers(text, named):
    # json reads the bare words NaN and Infinity as floats
    with pytest.raises(ConfigError, match=f"^{named} is "):
        C.from_json(text)


@pytest.mark.parametrize("section, named", [
    (TrainConfig(lr=math.inf), "lr"),
    (TrainConfig(clip_norm=math.inf), "clip_norm"),
    (ModelConfig(input_scale=math.inf), "input_scale"),
    (C.DataConfig(jitter=math.nan), "jitter"),
])
def test_validate_rejects_non_finite_values(section, named):
    # a config built in code skips the JSON loader's finiteness check
    with pytest.raises(ConfigError, match=f"^{named} must be "):
        section.validate()


RETIRED_AT_SHIPPED_VALUES = {"class_in_spatial": True, "k_samples": 5,
                             "transformer_pool": "last"}


def test_retired_model_keys_at_their_fixed_values_load_as_absent():
    for k_samples in (5, 20):
        doc = {"model": dict(RETIRED_AT_SHIPPED_VALUES, k_samples=k_samples, hidden_dim=8)}
        assert C.from_dict(doc).model == ModelConfig(hidden_dim=8)
        # the caller's document is left as it was
        assert doc["model"]["k_samples"] == k_samples and len(doc["model"]) == 4


@pytest.mark.parametrize("key, value", [("transformer_pool", "mean"),
                                        ("class_in_spatial", False),
                                        ("k_samples", 2.5), ("k_samples", True)])
def test_retired_model_keys_at_any_other_value_are_rejected_by_name(key, value):
    with pytest.raises(ConfigError, match=f"^model.{key} is retired; only "):
        C.from_dict({"model": {key: value}})


def test_config_accepts_an_int_for_a_float_and_null_for_clip_norm():
    cfg = C.from_dict({"train": {"lr": 1, "clip_norm": None},
                       "data": {"jitter": 0, "classes": ["car", "bus", "car"]}})
    assert (cfg.train.lr, cfg.train.clip_norm, cfg.data.jitter) == (1, None, 0)
    assert C.from_dict({"train": {"clip_norm": 2}}).train.clip_norm == 2
    assert C.from_dict({"model": {"gamma_mlp_hidden": []}}).model.gamma_mlp_hidden == ()


@pytest.mark.parametrize("doc, named", [
    ({"seed": -1}, "seed"),
    ({"train": {"seed": -1}}, "train.seed"),
    ({"data": {"seed": -2}}, "data.seed"),
])
def test_config_rejects_negative_seeds(doc, named):
    with pytest.raises(ConfigError, match=f"^{named} must be >= 0"):
        C.from_dict(doc).validate()


def test_config_rejects_malformed_documents():
    with pytest.raises(ConfigError):
        C.from_json("not json {")
    with pytest.raises(ConfigError):
        C.from_dict(["a", "list"])
    with pytest.raises(ConfigError):
        C.from_dict({"model": "not an object"})


def test_config_hash_stable_and_sensitive(tmp_path):
    a = small_experiment(tmp_path)
    b = small_experiment(tmp_path)
    assert C.config_hash(a) == C.config_hash(b)
    b.train.k = 7
    assert C.config_hash(a) != C.config_hash(b)


PRESET_DIR = pathlib.Path(__file__).resolve().parents[1] / "presets"


def test_preset_config_json_and_hash_bytes():
    # every preset is its own resolved config byte for byte, so a preset
    # that keeps a retired key or misses a field fails here
    presets = sorted(PRESET_DIR.glob("*.json"))
    assert len(presets) == 8
    for preset in presets:
        assert C.to_json(C.load_config(preset)) == preset.read_text(), preset.name
    cfg = C.load_config(PRESET_DIR / "gan_lstm_label.json")
    assert C.config_hash(cfg) == \
        "e1a947d3698aac3f7ac882a74dd3fa1652a4d53e757ed17f32ab5a7c2e644f5a"


def test_data_validation_errors(tmp_path):
    bad = small_experiment(tmp_path)
    bad.data.source = "database"
    with pytest.raises(ConfigError):
        bad.data.validate()
    bad = small_experiment(tmp_path)
    bad.data.classes = ("pedestrian",)
    with pytest.raises(ConfigError):
        bad.data.validate()


def test_load_windows_synth_and_env_override(tmp_path, monkeypatch):
    cfg = small_experiment(tmp_path)
    ws, paths = C.load_windows(cfg.data)
    assert len(ws) == 6 and paths == []
    assert all(w.n_agents == 2 for w in ws)

    csv_path = tmp_path / "w.csv"
    D.write_windows_csv(ws, csv_path)
    dc = C.DataConfig(source="windows_csv", root="does/not/exist")
    monkeypatch.setenv(C.DATA_ROOT_ENV, str(csv_path))
    back, paths = C.load_windows(dc)
    assert len(back) == 6 and paths == [str(csv_path)]
    monkeypatch.delenv(C.DATA_ROOT_ENV)
    with pytest.raises(D.DataError):
        C.load_windows(dc)


# ---------------------------------------------------------------------------
# SVG plots

def test_scatter_svg_well_formed():
    svg = plots.scatter_svg([(0, 0), (1, 2), (-1, 3)], ["a", "b", "c"],
                            title="demo")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert svg.count("<circle") == 3
    assert "demo" in svg
    assert svg == plots.scatter_svg([(0, 0), (1, 2), (-1, 3)], ["a", "b", "c"],
                                    title="demo")


def test_scatter_svg_degenerate_range():
    svg = plots.scatter_svg([(2, 2), (2, 2)], ["a", "b"])
    ET.fromstring(svg)


def test_bar_svg_well_formed():
    svg = plots.bar_svg([1.0, 2.5, 0.0], ["x", "y", "z"], title="bars")
    ET.fromstring(svg)
    assert svg.count("<rect") == 4  # background + one per bar
    with pytest.raises(ValueError):
        plots.bar_svg([-1.0], ["neg"])
    with pytest.raises(ValueError):
        plots.bar_svg([1.0], ["a", "b"])


def test_svg_text_escapes_what_xml_text_needs():
    assert plots.escape('a & b < c > d "e" \'f\'') == 'a &amp; b &lt; c &gt; d "e" \'f\''
    svg = plots.bar_svg([1.0], ["<&>"], title="x < y & z")
    assert ET.fromstring(svg).findall(".//{http://www.w3.org/2000/svg}text")[0].text \
        == "x < y & z"


def test_importing_the_cli_leaves_the_http_client_out():
    # xml.sax.saxutils would pull in urllib.request and http.client, about
    # 30 ms of every start of the command line
    script = ("import sys, trajgan.cli; print(sorted({'http.client', 'urllib.request', "
              "'xml.sax.saxutils'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# fixture annotation tree and cmd_parse

def write_fixture_dataset(root):
    video = root / "plaza" / "video0"
    video.mkdir(parents=True)
    lines = []
    for f in range(288):
        lines.append(f'1 {f} 0 {f + 10} 20 {f} 0 0 0 "Pedestrian"')
        lines.append(f'2 {2 * f} 20 {2 * f + 10} 40 {f} 0 1 0 "Biker"')
    (video / "annotations.txt").write_text("\n".join(lines) + "\n")
    return root


def test_cmd_parse_golden_windows(tmp_path, capsys):
    data_root = write_fixture_dataset(tmp_path / "ds")
    out = tmp_path / "parsed"
    rc = cli.main(["parse", str(data_root), "--out", str(out)])
    assert rc == cli.EXIT_OK

    text = (out / "windows.csv").read_text()
    lines = text.strip().splitlines()
    # 288 frames at stride 12 -> 24 steps -> 5 windows of 20 steps, 2 agents
    assert lines[0] == ",".join(D.WINDOW_CSV_HEADER)
    assert len(lines) == 1 + 5 * 2 * 20
    # track 1 center x = frame + 5, y = 10; first window starts at frame 0
    assert lines[1] == "plaza/video0,plaza/video0:0,1,4,0,5.0,10.0,0,12"
    # t=8 is the first future step: frame 96 -> x = 101
    assert lines[9] == "plaza/video0,plaza/video0:0,1,4,8,101.0,10.0,1,12"
    # track 2 (biker -> bicyclist, index 0) center x = 2*frame + 5, y = 30
    assert lines[21] == "plaza/video0,plaza/video0:0,2,0,0,5.0,30.0,0,12"

    summary = capsys.readouterr().out
    assert "pedestrian" in summary and "50.00%" in summary
    assert (out / "manifest.json").exists()

    back = D.read_windows_csv(out / "windows.csv")
    assert len(back) == 5
    assert all(w.n_agents == 2 for w in back)


def test_cmd_parse_manifest_records_output_and_counts(tmp_path, capsys):
    data_root = write_fixture_dataset(tmp_path / "ds")
    out = tmp_path / "parsed"
    assert cli.main(["parse", str(data_root), "--out", str(out)]) == cli.EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    digest = hashlib.sha256((out / "windows.csv").read_bytes()).hexdigest()
    assert manifest["outputs"] == {"windows.csv": digest}
    assert manifest["counts"] == {"lines": 576, "tracks": 2, "windows": 5}
    # a second parse of the same tree writes the same manifest
    again = tmp_path / "again"
    assert cli.main(["parse", str(data_root), "--out", str(again)]) == cli.EXIT_OK
    assert (again / "manifest.json").read_text() == (out / "manifest.json").read_text()


def test_cmd_parse_reads_each_annotation_file_as_text_once(tmp_path, monkeypatch):
    # the parse read also counts the manifest's lines; the manifest's
    # digest reads the file's bytes
    data_root = write_fixture_dataset(tmp_path / "ds")
    opened, real_open = [], open

    def recording_open(path, mode="r", *args, **kwargs):
        opened.append((os.path.basename(path), "b" in mode))
        return real_open(path, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", recording_open)
    assert cli.main(["parse", str(data_root), "--out", str(tmp_path / "parsed")]) == \
        cli.EXIT_OK
    assert opened.count(("annotations.txt", False)) == 1


@pytest.mark.parametrize("stride", ["0", "-3"])
def test_cmd_parse_rejects_stride_below_one(tmp_path, capsys, stride):
    data_root = write_fixture_dataset(tmp_path / "ds")
    out = tmp_path / "parsed"
    assert cli.main(["parse", str(data_root), "--out", str(out), "--stride", stride]) \
        == cli.EXIT_CONFIG
    assert f"--stride must be at least 1, got {stride}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# train / eval / analyze round trip

def write_config(tmp_path, cfg):
    path = tmp_path / f"{cfg.name}.json"
    C.save_config(path, cfg)
    return path


def data_argv(tmp_path, command, path, source="annotations"):
    """Arguments of ``parse`` on the tree ``path``, or of ``train`` on a
    config whose data ``source`` is ``path``; both write under tmp_path/run."""
    if command == "parse":
        return ["parse", str(path), "--out", str(tmp_path / "run")]
    cfg = small_experiment(tmp_path)
    cfg.data = C.DataConfig(source=source, root=str(path))
    return ["train", "--config", str(write_config(tmp_path, cfg))]


def test_cmd_train_eval_analyze_pipeline(tmp_path, capsys):
    cfg = small_experiment(tmp_path)
    cfg_path = write_config(tmp_path, cfg)
    rc = cli.main(["train", "--config", str(cfg_path)])
    assert rc == cli.EXIT_OK
    out = tmp_path / "run"
    for name in ("checkpoint.json", "train_log.csv", "val_log.csv",
                 "resolved_config.json", "manifest.json"):
        assert (out / name).exists(), name
    assert not (out / cli.LOCK_NAME).exists()
    echoed = capsys.readouterr().out
    assert '"epochs": 2' in echoed

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_hash"] == C.config_hash(C.load_config(cfg_path))
    assert manifest["seed"] == 0
    assert str(cfg_path) in manifest["inputs"]
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__

    ckpt = out / "checkpoint.json"
    payload = load_checkpoint_payload(ckpt)
    assert payload["discriminator"] is None  # nogan run
    assert payload["meta"]["best_epoch"] is not None

    rc = cli.main(["eval", "--checkpoint", str(ckpt), "--split", "test",
                   "--k", "3", "--out", str(tmp_path / "ev")])
    assert rc == cli.EXIT_OK
    report = (tmp_path / "ev" / "report.txt").read_text()
    assert "best of k=3" in report and "paper, not reproduced" in report
    assert (tmp_path / "ev" / "report_k3.csv").exists()
    assert (tmp_path / "ev" / "report_k1.csv").exists()

    rc = cli.main(["analyze", "--checkpoint", str(ckpt),
                   "--out", str(tmp_path / "an")])
    assert rc == cli.EXIT_OK
    pca = (tmp_path / "an" / "pca.csv").read_text().strip().splitlines()
    assert len(pca) == 7
    dist = (tmp_path / "an" / "distances.csv").read_text().strip().splitlines()
    assert len(dist) == 7
    ET.fromstring((tmp_path / "an" / "pca.svg").read_text())
    ET.fromstring((tmp_path / "an" / "distances.svg").read_text())


def test_cmd_train_checkpoint_bytes_deterministic(tmp_path):
    # same config, same seed, same output dir: rerunning must reproduce the
    # checkpoint byte for byte (the embedded config includes out_dir, so the
    # comparison has to reuse the directory)
    cfg = small_experiment(tmp_path)
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_OK
    first = (out / "checkpoint.json").read_bytes()
    assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_OK
    assert (out / "checkpoint.json").read_bytes() == first


def test_cmd_train_seed_flag_overrides_everything(tmp_path):
    cfg = small_experiment(tmp_path)
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["train", "--config", str(cfg_path), "--seed", "9",
                     "--out", str(tmp_path / "s9")]) == cli.EXIT_OK
    resolved = C.load_config(tmp_path / "s9" / "resolved_config.json")
    assert (resolved.seed, resolved.train.seed, resolved.data.seed) == (9, 9, 9)
    a = (tmp_path / "s9" / "checkpoint.json").read_bytes()
    assert cli.main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "s0")]) == cli.EXIT_OK
    assert a != (tmp_path / "s0" / "checkpoint.json").read_bytes()


def test_cmd_train_lock_file_blocks_second_run(tmp_path, capsys):
    cfg = small_experiment(tmp_path)
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    out.mkdir()
    (out / cli.LOCK_NAME).write_text("12345\n")
    rc = cli.main(["train", "--config", str(cfg_path)])
    assert rc == cli.EXIT_LOCK
    assert "another run" in capsys.readouterr().err
    assert (out / cli.LOCK_NAME).exists()  # stale lock left for the owner


def test_cmd_train_exit_codes(tmp_path, capsys):
    rc = cli.main(["train", "--config", str(tmp_path / "missing.json")])
    assert rc == cli.EXIT_CONFIG

    bad = tmp_path / "bad.json"
    bad.write_text('{"train": {"mode": "wgan"}}\n')
    assert cli.main(["train", "--config", str(bad)]) == cli.EXIT_CONFIG

    typo = tmp_path / "typo.json"
    typo.write_text('{"train": {"epoch": 5}}\n')
    assert cli.main(["train", "--config", str(typo)]) == cli.EXIT_CONFIG
    assert "epoch" in capsys.readouterr().err

    cfg = small_experiment(tmp_path)
    cfg.data.source = "windows_csv"
    cfg.data.root = str(tmp_path / "absent.csv")
    missing_data = write_config(tmp_path, cfg)
    assert cli.main(["train", "--config", str(missing_data)]) == cli.EXIT_DATA


@pytest.mark.parametrize("section, key, word", [("data", "jitter", "NaN"),
                                               ("train", "lr", "Infinity"),
                                               ("model", "input_scale", "Infinity")])
def test_cmd_train_rejects_a_non_finite_number_before_writing(tmp_path, capsys, section,
                                                              key, word):
    doc = C.to_dict(small_experiment(tmp_path))
    doc[section][key] = "@"
    path = tmp_path / "preset.json"
    path.write_text(json.dumps(doc).replace('"@"', word))
    assert cli.main(["train", "--config", str(path)]) == cli.EXIT_CONFIG
    assert f"error: {section}.{key} is {word}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
def test_cmd_train_rejects_a_preset_seed_of_the_wrong_kind(tmp_path, capsys, seed):
    doc = C.to_dict(small_experiment(tmp_path))
    doc["seed"] = seed
    path = tmp_path / "preset.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["train", "--config", str(path)]) == cli.EXIT_CONFIG
    assert "error: seed " in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key", ["d_steps", "g_steps"])
def test_cmd_train_rejects_a_retired_step_count_key(tmp_path, capsys, key):
    doc = C.to_dict(small_experiment(tmp_path))
    doc["train"][key] = 1
    path = tmp_path / "retired.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["train", "--config", str(path)]) == cli.EXIT_CONFIG
    assert f"unknown config key 'train.{key}'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("field", ["gamma_mlp_hidden", "pooling_mlp_hidden",
                                   "decoder_init_mlp_hidden", "classifier_mlp_hidden"])
@pytest.mark.parametrize("width", [0, -3])
def test_cmd_train_rejects_a_non_positive_mlp_width(tmp_path, capsys, field, width):
    doc = json.loads((PRESET_DIR / "gan_lstm.json").read_text())
    doc["out_dir"] = str(tmp_path / "run")
    doc["model"][field] = [16, width]
    path = tmp_path / "width.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["train", "--config", str(path)]) == cli.EXIT_CONFIG
    assert f"error: {field} widths must be positive" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cmd_train_rejects_a_negative_seed_flag(tmp_path, capsys):
    cfg_path = write_config(tmp_path, small_experiment(tmp_path))
    assert cli.main(["train", "--config", str(cfg_path), "--seed", "-1"]) == cli.EXIT_CONFIG
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cmd_train_malformed_window_csv_exit(tmp_path, capsys):
    windows, _ = C.load_windows(small_experiment(tmp_path).data)
    csv_path = tmp_path / "w.csv"
    D.write_windows_csv(windows, csv_path)
    header, *rows = csv_path.read_text().splitlines()
    csv_path.write_text("\n".join([header] + rows[:-1]) + "\n")  # last agent loses a step
    cfg = small_experiment(tmp_path)
    cfg.data.source = "windows_csv"
    cfg.data.root = str(csv_path)
    rc = cli.main(["train", "--config", str(write_config(tmp_path, cfg))])
    assert rc == cli.EXIT_DATA
    assert f"line {len(rows)}:" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["gan", "nogan"])
def test_cmd_train_on_lone_agent_windows_exits_0(tmp_path, mode):
    # no window has a pooling pair, so no batch does either
    cfg = small_experiment(tmp_path, mode=mode)
    cfg.data.n_agents, cfg.data.classes = 1, ("pedestrian",)
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg))]) == cli.EXIT_OK


def window_csv_experiment(tmp_path, windows):
    csv_path = tmp_path / "w.csv"
    D.write_windows_csv(windows, csv_path)
    cfg = small_experiment(tmp_path)
    cfg.data.source, cfg.data.root = "windows_csv", str(csv_path)
    return cfg


def test_cmd_train_window_csv_off_the_data_config_lengths_exits_3(tmp_path, capsys):
    kw = dict(seed=0, n_windows=12, jitter=0.1)
    windows = (D.synth_scene("linear", 2, ["pedestrian", "car"], **kw)
               + D.synth_scene("linear", 2, ["pedestrian", "car"], t_obs=6, scene_id="other", **kw))
    cfg = window_csv_experiment(tmp_path, windows)
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg))]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "window 'other:0'" in err and "has t_obs 6, t_pred 12; data config says 8, 12" in err
    assert not (tmp_path / "run").exists()


def test_cmd_train_window_csv_with_its_lengths_in_the_data_config(tmp_path):
    windows = D.synth_scene("linear", 2, ["pedestrian", "car"], seed=0, n_windows=6,
                            jitter=0.1, t_obs=6)
    cfg = window_csv_experiment(tmp_path, windows)
    cfg.data.t_obs = 6
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg))]) == cli.EXIT_OK


def test_cmd_train_numeric_failure_exit(tmp_path, monkeypatch):
    cfg = small_experiment(tmp_path)
    cfg_path = write_config(tmp_path, cfg)
    from trajgan import train as TR

    def blow_up(*a, **kw):
        raise TR.TrainingDiverged("variety loss is nan; grad norms: fake")
    monkeypatch.setattr(TR, "run_training", blow_up)
    monkeypatch.setattr(cli.TR, "run_training", blow_up)
    rc = cli.main(["train", "--config", str(cfg_path)])
    assert rc == cli.EXIT_NUMERIC
    assert not (tmp_path / "run" / cli.LOCK_NAME).exists()


def test_cmd_eval_missing_checkpoint_and_bad_split(tmp_path, capsys):
    assert cli.main(["eval", "--checkpoint", str(tmp_path / "no.json")]) \
        == cli.EXIT_CONFIG
    # argparse rejects a split name before any file is read
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["eval", "--checkpoint", str(tmp_path / "no.json"), "--split", "holdout"])
    assert exit_info.value.code == cli.EXIT_CONFIG
    assert "invalid choice: 'holdout'" in capsys.readouterr().err


@pytest.mark.parametrize("k", [0, -1])
def test_cmd_eval_rejects_k_below_one(tmp_path, capsys, k):
    cfg = small_experiment(tmp_path)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, build_generator(cfg.model, seed=cfg.seed),
                    config_dict=C.to_dict(cfg))
    out = tmp_path / "eval"
    assert cli.main(["eval", "--checkpoint", str(path), "--out", str(out), "--k", str(k)]) \
        == cli.EXIT_CONFIG
    assert f"--k must be at least 1, got {k}" in capsys.readouterr().err
    assert not out.exists()


def test_cmd_eval_rejects_a_negative_seed_before_writing(tmp_path, capsys):
    cfg = small_experiment(tmp_path)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, build_generator(cfg.model, seed=cfg.seed),
                    config_dict=C.to_dict(cfg))
    out = tmp_path / "eval"
    assert cli.main(["eval", "--checkpoint", str(path), "--out", str(out), "--seed", "-1"]) \
        == cli.EXIT_CONFIG
    assert "--seed must be at least 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_cmd_eval_seed_reseeds_sampling_not_the_split(tmp_path):
    cfg = small_experiment(tmp_path)
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg))]) == cli.EXIT_OK
    ckpt = str(tmp_path / "run" / "checkpoint.json")
    rows = {}
    for name, flags in (("own", []), ("reseeded", ["--seed", "1"])):
        out = tmp_path / name
        assert cli.main(["eval", "--checkpoint", ckpt, "--out", str(out)] + flags) \
            == cli.EXIT_OK
        # the constant-velocity row depends on the scored windows only
        rows[name] = [line for line in (out / "report_k2.csv").read_text().splitlines()
                      if line.startswith("constant_velocity,")]
        assert json.loads((out / "manifest.json").read_text())["seed"] == (1 if flags else 0)
    assert len(rows["own"]) == 1 and rows["own"] == rows["reseeded"]


def test_checkpoint_with_retired_step_counts_evaluates_to_the_same_bytes(tmp_path):
    # checkpoints written while the config had d_steps and g_steps still
    # load, whatever those keys held, and report exactly what they did
    cfg = small_experiment(tmp_path)
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg))]) == cli.EXIT_OK
    ckpt = tmp_path / "run" / "checkpoint.json"
    payload = json.loads(ckpt.read_text())
    reports = {}
    for steps in (None, 1, 3):
        if steps is not None:
            payload["config"]["train"].update(d_steps=steps, g_steps=steps)
        path = tmp_path / f"ckpt_{steps}.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / f"eval_{steps}"
        assert cli.main(["eval", "--checkpoint", str(path), "--out", str(out)]) == cli.EXIT_OK
        an = tmp_path / f"analysis_{steps}"
        assert cli.main(["analyze", "--checkpoint", str(path), "--out", str(an)]) == cli.EXIT_OK
        reports[steps] = {p.name: p.read_bytes() for d in (out, an) for p in sorted(d.iterdir())
                          if p.name != "manifest.json"}
    assert sorted(reports[None]) == ["distances.csv", "distances.svg", "pca.csv", "pca.svg",
                                     "report.txt", "report_k1.csv", "report_k2.csv"]
    assert reports[1] == reports[None] and reports[3] == reports[None]


@pytest.mark.parametrize("encoder", ["lstm", "transformer"])
def test_checkpoint_with_retired_model_keys_evaluates_to_the_same_bytes(tmp_path, encoder):
    # checkpoints written while the model config had class_in_spatial,
    # k_samples and transformer_pool load at the values every preset held,
    # and report exactly what they did without them
    cfg = small_experiment(tmp_path)
    cfg.model.encoder = encoder
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg))]) == cli.EXIT_OK
    payload = json.loads((tmp_path / "run" / "checkpoint.json").read_text())
    reports = {}
    for k_samples in (None, 5, 20):
        if k_samples is not None:
            payload["config"]["model"].update(RETIRED_AT_SHIPPED_VALUES, k_samples=k_samples)
        path = tmp_path / f"ckpt_{k_samples}.json"
        path.write_text(json.dumps(payload))
        out, an = tmp_path / f"eval_{k_samples}", tmp_path / f"analysis_{k_samples}"
        assert cli.main(["eval", "--checkpoint", str(path), "--out", str(out)]) == cli.EXIT_OK
        assert cli.main(["analyze", "--checkpoint", str(path), "--out", str(an)]) == cli.EXIT_OK
        reports[k_samples] = {p.name: p.read_bytes() for d in (out, an)
                              for p in sorted(d.iterdir()) if p.name != "manifest.json"}
    assert sorted(reports[None]) == ["distances.csv", "distances.svg", "pca.csv", "pca.svg",
                                     "report.txt", "report_k1.csv", "report_k2.csv"]
    assert reports[5] == reports[None] and reports[20] == reports[None]


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("key, value", [("transformer_pool", "mean"),
                                        ("class_in_spatial", False)])
def test_retired_model_key_at_another_value_exits_2_before_writing(tmp_path, capsys, key,
                                                                   value, command):
    cfg = small_experiment(tmp_path)
    doc = C.to_dict(cfg)
    doc["model"][key] = value
    if command == "train":
        path = tmp_path / "config.json"
        argv = ["train", "--config", str(path)]
        path.write_text(json.dumps(doc))
    else:
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, build_generator(cfg.model, seed=cfg.seed), config_dict=doc)
        argv = ["eval", "--checkpoint", str(path), "--out", str(tmp_path / "run")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"model.{key} is retired" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["eval", "analyze"])
@pytest.mark.parametrize("word", ["NaN", "Infinity", "-Infinity"])
def test_checkpoint_with_a_non_finite_parameter_exits_2_before_writing(tmp_path, capsys,
                                                                       word, command):
    # json reads the bare words, which training never writes
    cfg = small_experiment(tmp_path)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, build_generator(cfg.model, seed=cfg.seed),
                    config_dict=C.to_dict(cfg))
    payload = json.loads(path.read_text())
    name = sorted(payload["generator"])[3]
    payload["generator"][name]["values"][-1] = float(word)
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert cli.main([command, "--checkpoint", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"generator parameter {name!r} is not finite" in capsys.readouterr().err
    assert not out.exists()


def _drop_values(payload):
    rec = next(iter(payload["generator"].values()))
    del rec["values"]
    return payload


def _short_values(payload):
    rec = next(iter(payload["generator"].values()))
    rec["values"] = rec["values"][:-1]
    return payload


@pytest.mark.parametrize("corrupt, named", [
    (lambda payload: [1, 2], "checkpoint.json"),
    (lambda payload: {**payload, "generator": [1, 2]}, "generator"),
    (lambda payload: {**payload, "format_version": 1, "generator": [1, 2]}, "generator"),
    (_drop_values, "parameter"),
    (_short_values, "parameter"),
], ids=["not_an_object", "parameters_not_an_object", "v1_parameters_not_an_object",
        "no_values", "values_do_not_fit_shape"])
def test_cmd_eval_malformed_checkpoint_exits_2(tmp_path, capsys, corrupt, named):
    cfg = small_experiment(tmp_path)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, build_generator(cfg.model, seed=cfg.seed),
                    config_dict=C.to_dict(cfg))
    path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    assert cli.main(["eval", "--checkpoint", str(path)]) == cli.EXIT_CONFIG
    assert named in capsys.readouterr().err


def not_utf8_input(tmp_path, command):
    """Arguments of ``command`` whose input file holds the byte 0xff, and that file."""
    if command == "parse":
        root = write_fixture_dataset(tmp_path / "ds")
        path = root / "plaza" / "video0" / "annotations.txt"
        path.write_bytes(path.read_bytes() + b'3 0 0 2 2 0 0 0 0 "Caf\xff"\n')
        return ["parse", str(root), "--out", str(tmp_path / "parsed")], path
    path = tmp_path / "input.json"
    path.write_bytes(b'{"name": "caf\xff"}\n')
    return [command, "--checkpoint" if command == "eval" else "--config", str(path)], path


@pytest.mark.parametrize("command,code", [("train", cli.EXIT_CONFIG), ("eval", cli.EXIT_CONFIG),
                                          ("parse", cli.EXIT_DATA)])
def test_input_that_is_not_utf8_exits_with_its_kind_of_error(tmp_path, capsys, command, code):
    argv, path = not_utf8_input(tmp_path, command)
    assert cli.main(argv) == code
    assert f"{path} is not UTF-8 text" in capsys.readouterr().err


INPUT_KINDS = pytest.mark.parametrize("kind", ["config", "checkpoint", "annotation file",
                                               "window CSV"],
                                      ids=["config", "checkpoint", "annotation_file",
                                           "window_csv"])


def one_input_run(tmp_path, kind):
    """Arguments of a command that reads an input file of ``kind``, that file,
    and the command's output directory."""
    out = tmp_path / "out"
    if kind == "annotation file":
        root = write_fixture_dataset(tmp_path / "ds")
        return (["parse", str(root), "--out", str(out)],
                root / "plaza" / "video0" / "annotations.txt", out)
    cfg = small_experiment(tmp_path)
    if kind == "checkpoint":
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, build_generator(cfg.model, seed=cfg.seed),
                        config_dict=C.to_dict(cfg))
        return ["eval", "--checkpoint", str(path), "--out", str(out)], path, out
    if kind == "window CSV":
        path = tmp_path / "windows.csv"
        D.write_windows_csv(C.load_windows(cfg.data)[0], path)
        cfg.data = C.DataConfig(source="windows_csv", root=str(path))
    cfg_path = write_config(tmp_path, cfg)
    return (["train", "--config", str(cfg_path), "--out", str(out)],
            cfg_path if kind == "config" else path, out)


@INPUT_KINDS
def test_input_that_starts_with_a_bom_gives_the_same_output(tmp_path, kind):
    argv, path, out = one_input_run(tmp_path, kind)
    plain = path.read_bytes()
    runs = []
    for mark in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(mark + plain)
        assert cli.main(argv) == cli.EXIT_OK
        # every output but the step times; the manifest less the input's checksum
        files = {p.name: p.read_bytes() for p in out.iterdir()
                 if p.name not in ("manifest.json", "train_log.csv")}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest.pop("inputs")[str(path)] == hashlib.sha256(mark + plain).hexdigest()
        runs.append((files, manifest))
    assert runs[1] == runs[0]
    assert {"checkpoint.json", "report.txt", "windows.csv"} & set(runs[0][0])
    if kind == "annotation file":
        assert runs[0][1]["counts"] == {"lines": 576, "tracks": 2, "windows": 5}


@INPUT_KINDS
def test_input_that_cannot_be_read_exits_with_its_kind_of_error(tmp_path, capsys,
                                                                monkeypatch, kind):
    argv, path, out = one_input_run(tmp_path, kind)
    real_open = open

    def refuse(file, *args, **kwargs):
        if str(file) == str(path):
            raise PermissionError(errno.EACCES, "Permission denied", str(path))
        return real_open(file, *args, **kwargs)
    monkeypatch.setattr("builtins.open", refuse)
    code = cli.EXIT_CONFIG if kind in ("config", "checkpoint") else cli.EXIT_DATA
    assert cli.main(argv) == code
    assert capsys.readouterr().err == f"error: cannot read {kind} {path}: Permission denied\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["parse", "train"])
def test_scene_directory_that_cannot_be_listed_exits_3(tmp_path, capsys, monkeypatch,
                                                       command):
    root = write_fixture_dataset(tmp_path / "ds")
    argv = data_argv(tmp_path, command, root)
    scene = str(root / "plaza")
    real_listdir = os.listdir

    def refuse(path="."):
        if os.fspath(path) == scene:
            raise PermissionError(errno.EACCES, "Permission denied", scene)
        return real_listdir(path)
    monkeypatch.setattr(os, "listdir", refuse)
    assert cli.main(argv) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"error: cannot read directory {scene}: Permission denied\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command,source", [
    ("parse", "annotations"), ("train", "annotations"), ("train", "windows_csv")],
    ids=["parse", "train_annotations", "train_windows_csv"])
@pytest.mark.parametrize("fault", ["missing", "wrong_kind"])
def test_data_input_that_cannot_be_read_has_one_wording_at_every_entry(tmp_path, capsys,
                                                                      command, source, fault):
    kind = "window CSV" if source == "windows_csv" else "directory"
    if fault == "missing":
        path, code = tmp_path / "missing", errno.ENOENT
    elif kind == "directory":
        path, code = tmp_path / "afile", errno.ENOTDIR
        path.write_text("not a tree\n")
    else:
        path, code = tmp_path / "adir", errno.EISDIR
        path.mkdir()
    assert cli.main(data_argv(tmp_path, command, path, source)) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"error: cannot read {kind} {path}: {os.strerror(code)}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["parse", "train"])
def test_tree_without_annotation_files_exits_3_naming_the_layout(tmp_path, capsys, command):
    root = tmp_path / "ds"
    (root / "plaza" / "video0").mkdir(parents=True)
    assert cli.main(data_argv(tmp_path, command, root)) == cli.EXIT_DATA
    assert capsys.readouterr().err == (f"error: no annotation files under {root}; expected "
                                       "layout: <root>/<scene>/<video>/annotations.txt\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["parse", "train"])
def test_annotation_link_to_a_missing_file_exits_3(tmp_path, capsys, command):
    root = write_fixture_dataset(tmp_path / "ds")
    path = root / "plaza" / "video1" / "annotations.txt"
    path.parent.mkdir()
    path.symlink_to(tmp_path / "missing")
    assert cli.main(data_argv(tmp_path, command, root)) == cli.EXIT_DATA
    assert capsys.readouterr().err == (f"error: cannot read annotation file {path}: "
                                       "No such file or directory\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("cell", ["1_0", "١"])
def test_window_csv_step_that_numpy_does_not_read_exits_3(tmp_path, capsys, cell):
    path = tmp_path / "windows.csv"
    D.write_windows_csv(D.synth_scene("linear", 2, ["car", "bus"], seed=0), path)
    header, first, second, *rest = path.read_text().splitlines()
    cells = second.split(",")
    cells[D.WINDOW_CSV_HEADER.index("t")] = cell
    path.write_text("\n".join([header, first, ",".join(cells), *rest]) + "\n")
    assert cli.main(data_argv(tmp_path, "train", path, "windows_csv")) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"error: line 3: t {cell!r} is not a valid number\n"


@pytest.mark.parametrize("command", ["parse", "train"])
def test_commands_load_a_tree_through_load_annotation_dataset(tmp_path, monkeypatch, command):
    # the parse benchmark times load_annotation_dataset: it must be what the commands run
    calls, real = [], D.load_annotation_dataset

    def spy(root, *args, **kwargs):
        calls.append(root)
        return real(root, *args, **kwargs)
    monkeypatch.setattr(D, "load_annotation_dataset", spy)
    root = write_fixture_dataset(tmp_path / "ds")
    assert cli.main(data_argv(tmp_path, command, root)) == cli.EXIT_OK
    assert calls == [str(root)]


def test_track_ids_beyond_int64_go_from_parse_to_train(tmp_path):
    root = write_fixture_dataset(tmp_path / "ds")
    path = root / "plaza" / "video0" / "annotations.txt"
    lines = path.read_text().splitlines()
    path.write_text("".join(f"{2**70 if line[0] == '1' else 3}{line[1:]}\n" for line in lines))
    assert cli.main(data_argv(tmp_path, "parse", root)) == cli.EXIT_OK
    csv_path = tmp_path / "run" / "windows.csv"
    assert {w.agent_ids for w in D.read_windows_csv(csv_path)} == {(3, 2**70)}
    assert cli.main(data_argv(tmp_path, "train", csv_path, "windows_csv")
                    + ["--out", str(tmp_path / "trained")]) == cli.EXIT_OK


@pytest.mark.parametrize("source", ["preset", "windows_csv", "annotations"])
def test_train_and_eval_manifests_list_the_data_files_read(tmp_path, source):
    if source == "preset":
        cfg, data_files = C.load_config(PRESET_DIR / "nogan_lstm.json"), []
        cfg.out_dir = str(tmp_path / "run")
    else:
        cfg = small_experiment(tmp_path)
        root = write_fixture_dataset(tmp_path / "ds")
        (root / "plaza" / "video1").mkdir()  # a second video, for more windows
        (root / "plaza" / "video1" / "annotations.txt").write_bytes(
            (root / "plaza" / "video0" / "annotations.txt").read_bytes())
        data_files = sorted(root.glob("*/*/annotations.txt"))
        if source == "windows_csv":
            parsed = tmp_path / "parsed"
            assert cli.main(["parse", str(root), "--out", str(parsed)]) == cli.EXIT_OK
            root = parsed / "windows.csv"
            data_files = [root]
        cfg.data = C.DataConfig(source=source, root=str(root))
    cfg_path = write_config(tmp_path, cfg)
    ckpt = tmp_path / "run" / "checkpoint.json"
    assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_OK
    assert cli.main(["eval", "--checkpoint", str(ckpt)]) == cli.EXIT_OK

    def manifest(first_input):
        inputs = {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in [first_input] + data_files}
        return json.dumps({"config_hash": C.config_hash(cfg), "seed": cfg.seed,
                           "inputs": inputs, "python": platform.python_version(),
                           "numpy": np.__version__}, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "run" / "manifest.json").read_text() == manifest(cfg_path)
    assert (tmp_path / "run" / "eval" / "manifest.json").read_text() == manifest(ckpt)


@pytest.mark.parametrize("command", ["parse", "train"])
@pytest.mark.parametrize("fault,message", [
    ("1 2 3", "line 50: expected 10 fields, got 3"),
    ('1 nan 10 20 20 1 0 0 0 "Pedestrian"', "line 50: bbox not finite: (nan, 10.0, 20.0, 20.0)")],
    ids=["short_line", "nan"])
def test_annotation_errors_name_the_file_and_the_line(tmp_path, capsys, command, fault,
                                                      message):
    root = write_fixture_dataset(tmp_path / "ds")
    lines = (root / "plaza" / "video0" / "annotations.txt").read_text().splitlines()
    lines[49] = fault
    second = root / "plaza" / "video1" / "annotations.txt"
    second.parent.mkdir()
    second.write_text("\n".join(lines) + "\n")
    assert cli.main(data_argv(tmp_path, command, root)) == cli.EXIT_DATA
    assert f"error: annotation file {second}: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["parse", "train"])
def test_directory_name_that_is_not_utf8_exits_3_before_writing(tmp_path, capsys, command):
    # the name is made through a bytes path: as str it would hold a surrogate
    video = os.path.join(os.fsencode(tmp_path / "ds"), b"pl\xffza", b"video0")
    os.makedirs(video)
    with open(os.path.join(video, b"annotations.txt"), "wb") as fh:
        fh.write(b'1 0 0 2 2 0 0 0 0 "Car"\n')
    assert cli.main(data_argv(tmp_path, command, tmp_path / "ds")) == cli.EXIT_DATA
    assert "pl\\xffza" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["parse", "train", "eval", "analyze"])
def test_out_that_names_an_existing_file_exits_2_before_writing(tmp_path, capsys, command):
    afile = tmp_path / "afile"
    afile.write_bytes(b"keep me\n")
    if command == "parse":
        argv = ["parse", str(write_fixture_dataset(tmp_path / "ds"))]
    elif command == "train":
        argv = ["train", "--config", str(write_config(tmp_path, small_experiment(tmp_path)))]
    else:
        cfg = small_experiment(tmp_path)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, build_generator(cfg.model, seed=cfg.seed),
                        config_dict=C.to_dict(cfg))
        argv = [command, "--checkpoint", str(path)]
    assert cli.main(argv + ["--out", str(afile)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"cannot create output directory {afile}" in err and "Traceback" not in err
    assert afile.read_bytes() == b"keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir() if p.suffix != ".json") \
        == ["afile"] + (["ds"] if command == "parse" else [])


def test_cli_creates_directories_only_through_its_helper():
    # every output directory goes through _make_out_dir, which maps an
    # OSError to exit 2; a direct os.makedirs would end in a traceback
    def is_makedirs(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "makedirs")

    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    owners = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
              for node in ast.walk(fn) if is_makedirs(node)]
    assert owners == ["_make_out_dir"] and sum(map(is_makedirs, ast.walk(tree))) == 1


@pytest.mark.parametrize("version", [True, 1.0, 2.0, "2", None])
def test_cmd_eval_rejects_a_format_version_that_is_not_an_integer(tmp_path, capsys, version):
    # JSON true equals 1 and 2.0 equals 2 in Python; neither is a version
    cfg = small_experiment(tmp_path)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, build_generator(cfg.model, seed=cfg.seed),
                    config_dict=C.to_dict(cfg))
    path.write_text(json.dumps({**json.loads(path.read_text()), "format_version": version}))
    out = tmp_path / "eval"
    assert cli.main(["eval", "--checkpoint", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"unsupported checkpoint format_version {version!r}" in capsys.readouterr().err
    assert not out.exists()


def test_cmd_analyze_rejects_label_free_checkpoint(tmp_path, capsys):
    cfg = small_experiment(tmp_path)
    cfg.model.use_labels = False
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_OK
    rc = cli.main(["analyze",
                   "--checkpoint", str(tmp_path / "run" / "checkpoint.json")])
    assert rc == cli.EXIT_CONFIG
    assert "model trained without class embeddings" in capsys.readouterr().err


def test_cmd_analyze_rejects_a_one_dim_class_embedding(tmp_path, capsys):
    # such a model trains and evaluates, but has no top-2 PCA
    cfg = small_experiment(tmp_path)
    cfg.model.class_embed_dim = 1
    ckpt = str(tmp_path / "run" / "checkpoint.json")
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg))]) == cli.EXIT_OK
    assert cli.main(["eval", "--checkpoint", ckpt]) == cli.EXIT_OK
    out = tmp_path / "analysis"
    assert cli.main(["analyze", "--checkpoint", ckpt, "--out", str(out)]) == cli.EXIT_CONFIG
    assert "model.class_embed_dim is 1" in capsys.readouterr().err
    assert not out.exists()


def test_gan_mode_checkpoint_carries_discriminator(tmp_path):
    cfg = small_experiment(tmp_path, mode="gan", epochs=1, k=1)
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["train", "--config", str(cfg_path)]) == cli.EXIT_OK
    payload = load_checkpoint_payload(tmp_path / "run" / "checkpoint.json")
    assert payload["discriminator"] is not None
    assert payload["meta"]["n_train_windows"] == 4
