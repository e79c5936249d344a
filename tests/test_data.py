import ast
import dataclasses
import gc
import hashlib
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (RawAnnotation, columns, csv_writer_windows_text, looped_build_tracks,
                     looped_build_windows, parse_annotations_ref, records,
                     serialize_annotations)
from trajgan import cli
from trajgan import data as D

ROOT = pathlib.Path(__file__).resolve().parents[1]


SAMPLE = '3 10 20 30 40 0 0 0 0 "Pedestrian"\n'


def make_track(tid, frames, cls="pedestrian", rng=None):
    frames = np.asarray(frames, dtype=np.int64)
    rng = rng or np.random.default_rng(tid)
    return D.AgentTrack(tid, cls, frames, rng.uniform(0, 100, (frames.size, 2)))


# ---------------------------------------------------------------------------
# parsing

def parse_records(source):
    return records(D.parse_annotations(source))


def test_parse_single_line():
    (a,) = parse_records(SAMPLE)
    assert a.track_id == 3
    assert a.frame == 0
    assert a.label == "pedestrian"
    assert a.bbox == (10.0, 20.0, 30.0, 40.0)
    (track,) = D.build_tracks(columns([a]))
    assert track.xy.tolist() == [[20.0, 30.0]]  # the box centre


def test_parse_drops_lost_keeps_occluded():
    text = ('1 0 0 2 2 0 1 0 0 "Pedestrian"\n'   # lost
            '1 0 0 2 2 1 0 1 0 "Pedestrian"\n')  # occluded
    annos = parse_records(text)
    assert len(annos) == 1
    assert annos[0].occluded


def test_label_normalization():
    text = ('1 0 0 2 2 0 0 0 0 "Biker"\n'
            '2 0 0 2 2 0 0 0 0 "Cart"\n'
            '3 0 0 2 2 0 0 0 0 "SKATER"\n'
            '4 0 0 2 2 0 0 0 0 "golf cart"\n')
    labels = [a.label for a in parse_records(text)]
    assert labels == ["bicyclist", "golf cart", "skateboarder", "golf cart"]


def test_unknown_label_reports_line():
    text = SAMPLE + '4 0 0 2 2 0 0 0 0 "Unicycle"\n'
    with pytest.raises(D.UnknownLabelError) as exc:
        D.parse_annotations(text)
    assert "Unicycle" in str(exc.value) and "line 2" in str(exc.value)


def test_malformed_line_reports_line():
    with pytest.raises(D.AnnotationParseError) as exc:
        D.parse_annotations("1 2 3\n")
    assert exc.value.line_number == 1
    with pytest.raises(D.AnnotationParseError):
        D.parse_annotations('1 9 9 0 0 0 0 0 0 "Car"\n')  # bbox not ordered


def test_parse_serialize_round_trip():
    text = ('1 10 20 30 40 0 0 0 0 "Biker"\n'
            '1 11 21 31 41 1 0 1 0 "Biker"\n'
            '2 5.5 6.5 7.5 8.5 0 0 0 1 "Bus"\n')
    once = parse_records(text)
    again = parse_records(serialize_annotations(once))
    assert once == again


@st.composite
def raw_annotations(draw):
    # finite float64 coordinates, signed zeros included, ordered per axis
    coord = st.floats(allow_nan=False, allow_infinity=False)
    (xmin, xmax), (ymin, ymax) = (sorted(draw(st.tuples(coord, coord))) for _ in range(2))
    ints = st.integers(-2 ** 70, 2 ** 70)
    return RawAnnotation(draw(ints), (xmin, ymin, xmax, ymax), draw(ints),
                         draw(st.booleans()), draw(st.booleans()),
                         draw(st.sampled_from(D.CLASS_NAMES)))


@settings(max_examples=400, deadline=None)
@given(records=st.lists(raw_annotations(), max_size=12))
def test_serialized_annotations_parse_back_field_for_field(records):
    def fields(a):
        return (a.track_id, tuple(map(repr, a.bbox)), a.frame, a.occluded, a.generated,
                a.label)

    back = parse_records(serialize_annotations(records))
    assert [fields(a) for a in back] == [fields(a) for a in records]


def record(tid, bbox, frame, occluded=False, generated=False, label="car"):
    return (tid, tuple(float(v) for v in bbox), frame, occluded, generated, label)


PARSE_TOLERANCE = {
    "crlf line ends": ('1 0 0 2 2 0 0 0 0 "Car"\r\n2 0 0 4 4 1 0 1 0 "Bus"\r\n',
                       [record(1, (0, 0, 2, 2), 0),
                        record(2, (0, 0, 4, 4), 1, occluded=True, label="bus")]),
    "tabs": ('1\t0\t0\t2\t2\t5\t0\t0\t1\t"Car"\n',
             [record(1, (0, 0, 2, 2), 5, generated=True)]),
    "leading and trailing whitespace": ('  \t1 0.5 0 2 2 0 0 0 0 "Car" \t \n',
                                        [record(1, (0.5, 0, 2, 2), 0)]),
    "blank and whitespace-only lines": ('\n \t \n1 0 0 2 2 3 0 0 0 "Car"\n\n   \n',
                                        [record(1, (0, 0, 2, 2), 3)]),
    "golf cart": ('1 0 0 2 2 0 0 0 0 "golf cart"\n2 0 0 2 2 0 0 0 0 "Golf Cart"\n',
                  [record(1, (0, 0, 2, 2), 0, label="golf cart"),
                   record(2, (0, 0, 2, 2), 0, label="golf cart")]),
    "aliased and upper-case labels": (
        '1 0 0 2 2 0 0 0 0 "Cart"\n2 0 0 2 2 0 0 0 0 "BIKER"\n'
        '3 0 0 2 2 0 0 0 0 "Skater"\n4 0 0 2 2 0 0 0 0 "PEDESTRIAN"\n'
        '5 0 0 2 2 0 0 0 0 "Cart"\n',
        [record(1, (0, 0, 2, 2), 0, label="golf cart"),
         record(2, (0, 0, 2, 2), 0, label="bicyclist"),
         record(3, (0, 0, 2, 2), 0, label="skateboarder"),
         record(4, (0, 0, 2, 2), 0, label="pedestrian"),
         record(5, (0, 0, 2, 2), 0, label="golf cart")]),
    # errors: (class, line, message); a line's first fault is reported, checked
    # in the order field count, fields in turn, bbox finite, bbox order, label
    "repeated unknown label": ('1 0 0 2 2 0 0 0 0 "Car"\n\n3 0 0 2 2 0 0 0 0 "Unicycle"\n'
                               '4 0 0 2 2 0 0 0 0 "Unicycle"\n',
                               (D.UnknownLabelError, 3, "unknown class label 'Unicycle'")),
    "unknown label on a lost line": ('1 0 0 2 2 0 1 0 0 "Unicycle"\n',
                                     (D.UnknownLabelError, 1, "unknown class label 'Unicycle'")),
    "repeated lost unknown label": ('1 0 0 2 2 0 1 0 0 "Unicycle"\n' * 2,
                                    (D.UnknownLabelError, 1, "unknown class label 'Unicycle'")),
    "bad number after a seen label": ('1 0 0 2 2 0 0 0 0 "Car"\n1 0 x 2 2 1 0 0 0 "Car"\n',
                                      (D.AnnotationParseError, 2,
                                       "could not convert string to float: 'x'")),
    "unordered bbox after a seen label": ('1 0 0 2 2 0 0 0 0 "Car"\n1 3 0 2 2 1 0 0 0 "Car"\n',
                                          (D.AnnotationParseError, 2,
                                           "bbox not ordered: (3.0, 0.0, 2.0, 2.0)")),
    "bad flag": ('1 0 0 2 2 0 0 0 0 "Car"\n1 0 0 2 2 1 0 y 0 "Car"\n',
                 (D.AnnotationParseError, 2, "invalid literal for int() with base 10: 'y'")),
    "field count before any number": ("x 0 0 2 2 0 0 0\n",
                                      (D.AnnotationParseError, 1, "expected 10 fields, got 8")),
    "bbox order before the label": ('1 3 0 2 2 0 0 0 0 "Unicycle"\n',
                                    (D.AnnotationParseError, 1,
                                     "bbox not ordered: (3.0, 0.0, 2.0, 2.0)")),
    "flags before bbox order": ('1 3 0 2 2 0 0 y 0 "Car"\n',
                                (D.AnnotationParseError, 1,
                                 "invalid literal for int() with base 10: 'y'")),
    "nan coordinate": ('1 nan 10 20 20 1 0 0 0 "Pedestrian"\n',
                       (D.AnnotationParseError, 1, "bbox not finite: (nan, 10.0, 20.0, 20.0)")),
    "infinite coordinate after a seen label": (
        '1 0 0 2 2 0 0 0 0 "Car"\n1 0 -inf 2 2 1 0 0 0 "Car"\n',
        (D.AnnotationParseError, 2, "bbox not finite: (0.0, -inf, 2.0, 2.0)")),
    "non-finite coordinate on a lost line": ('1 0 0 inf 2 0 1 0 0 "Car"\n',
                                             (D.AnnotationParseError, 1,
                                              "bbox not finite: (0.0, 0.0, inf, 2.0)")),
    "non-finite before bbox order": ('1 3 0 2 nan 0 0 0 0 "Unicycle"\n',
                                     (D.AnnotationParseError, 1,
                                      "bbox not finite: (3.0, 0.0, 2.0, nan)")),
    "flags before non-finite": ('1 nan 0 2 2 0 0 y 0 "Car"\n',
                                (D.AnnotationParseError, 1,
                                 "invalid literal for int() with base 10: 'y'")),
}


@pytest.mark.parametrize("case", list(PARSE_TOLERANCE))
def test_parser_tolerance(case):
    text, want = PARSE_TOLERANCE[case]
    for source in (text, text.splitlines(keepends=True)):
        if isinstance(want, tuple):
            error, line, message = want
            with pytest.raises(D.AnnotationParseError) as exc:
                D.parse_annotations(source)
            assert (type(exc.value), exc.value.line_number, str(exc.value)) == \
                (error, line, f"line {line}: {message}")
        else:
            got = parse_records(source)
            assert [(a.track_id, a.bbox, a.frame, a.occluded, a.generated, a.label)
                    for a in got] == want
            assert all(type(a.occluded) is bool and type(a.generated) is bool for a in got)


def parse_outcome(parse, source):
    """The records ``parse`` gives, or the class, line and message it raises,
    as a repr so that NaN coordinates compare equal."""
    try:
        records = parse(source)
    except D.AnnotationParseError as e:
        return repr((type(e), e.line_number, str(e)))
    assert all(type(a) is RawAnnotation for a in records)
    return repr(records)


# valid spellings of each of the ten fields, then spellings that break it;
# few flag and label spellings, so that line tails repeat
GOOD_FIELDS = (["1", "7", "-3", "+2", "1_0"],
               ["0", "1.5", "-2"], ["0", "-0.5", "1e1"], ["2", "3.5"], ["2", "1e3"],
               ["0", "5", "-1"],
               ["0", "0", "1"], ["0", "1"], ["0", "1", "2"],
               ['"Car"', '"Biker"', '"CART"', '"Golf Cart"', "Skater", '"bus"'])
BAD_FIELDS = (["x", "1.5", "0x1"],
              ["5", "nan", "x"], ["9", "nan", "1,0"], ["-inf", "nan", "x", "inf"], ["-5", "y"],
              ["3.0", "y"],
              ["y", "-0", "0.0"], ["y", "1e1"], ["z"],
              ['"Unicycle"', '""', '"car" 1', '"golf  cart"'])


@st.composite
def annotation_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        shape = draw(st.sampled_from(["good"] * 5 + ["bad", "bad", "short", "long", "blank"]))
        if shape == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        fields = [draw(st.sampled_from(options)) for options in GOOD_FIELDS]
        if shape == "bad":
            j = draw(st.integers(0, 9))
            fields[j] = draw(st.sampled_from(BAD_FIELDS[j]))
        elif shape == "short":
            fields = fields[:draw(st.integers(1, 9))]
        elif shape == "long":
            fields.insert(draw(st.integers(0, 9)), "0")
        # whitespace that str.splitlines also breaks lines at, but a text-mode
        # file does not
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t", "\x0b", " \x1c", "\u2028"]))
        lines.append(draw(st.sampled_from(["", " ", "\x0c"])) + sep.join(fields)
                     + draw(st.sampled_from(["", " ", "\t", "\x85"])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=400, deadline=None)
@given(text=annotation_texts())
def test_parser_matches_two_pass_reference(text):
    for source in (text, text.splitlines(keepends=True)):
        assert parse_outcome(parse_records, source) == \
            parse_outcome(parse_annotations_ref, source)


def file_outcome(tmp_path, text):
    """``parse_outcome`` of the text written to a file and read back in
    text mode."""
    path = tmp_path / "annotations.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        return parse_outcome(parse_records, fh)


def test_string_source_splits_lines_as_a_text_mode_file(tmp_path):
    golf = '1 0 0 2 2 0 0 0 0 "Golf\x0bCart"\n'
    with pytest.raises(D.UnknownLabelError) as exc:
        D.parse_annotations(golf)
    assert (exc.value.line_number, str(exc.value)) == \
        (1, "line 1: unknown class label 'Golf\\x0bCart'")
    # \x0c, \x85 and U+2028 are whitespace inside a line, \r ends one
    mixed = (SAMPLE + '1 0 0 2\x0c2 0 0\x850 0 "Car"\u2028\r'
             '4 0 0 2 2 0 0 0 0 "Unicycle"\r\n')
    for text in (golf, mixed, mixed.replace("Unicycle", "Bus")):
        assert parse_outcome(parse_records, text) == file_outcome(tmp_path, text)
    assert "line 3: unknown class label 'Unicycle'" in parse_outcome(parse_records, mixed)


@pytest.fixture
def bench_inputs(monkeypatch):
    """perfbench's input generator, loaded from its file."""
    path = ROOT / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)  # its dataclasses look it up
    spec.loader.exec_module(inputs)
    return inputs


def test_parser_matches_reference_on_benchmark_traffic(tmp_path, bench_inputs):
    for seed in (1, 2):
        root = bench_inputs.write_annotation_root(str(tmp_path / f"seed{seed}"), seed, 0)
        with open(tmp_path / f"seed{seed}" / "scene0" / "video0" / "annotations.txt") as fh:
            lines = fh.readlines()
        assert len(lines) == root.n_lines == 22_798
        parsed = D.parse_annotations(lines)
        got = records(parsed)
        assert got == parse_annotations_ref(lines)
        assert parsed.n_lines == len(lines)
        assert 0 < len(got) < len(lines)  # lost records are dropped
        assert {a.label for a in got} == set(D.CLASS_NAMES)


def test_parse_gives_columns_of_the_kept_lines():
    text = '\n' + SAMPLE + '5 1 2 3 4 7 1 0 0 "Car"\n' + f'{2**70} 1 2 3 4.5 -9 0 1 1 "Cart"\n'
    parsed = D.parse_annotations(text)
    assert parsed == D.AnnotationColumns(
        [3, 2**70], [0, -9], [10.0, 20.0, 30.0, 40.0, 1.0, 2.0, 3.0, 4.5],
        [(False, False, "pedestrian"), (True, True, "golf cart")], n_lines=4)
    assert len(parsed) == 2  # kept lines, not fields
    assert all(type(v) is int for v in parsed.track_ids + parsed.frames)
    assert all(type(v) is float for v in parsed.boxes)
    assert columns(records(parsed)) == dataclasses.replace(parsed, n_lines=2)
    assert len(D.parse_annotations("")) == D.parse_annotations("").n_lines == 0


def test_parse_keeps_no_per_line_containers():
    # a line's values are ints, floats and a shared tail tuple, none of which
    # the cyclic garbage collector tracks per line
    text = "".join(f'{i % 13} {i} 0 {i + 9} 2 {i} {int(i % 97 == 0)} 0 0 "Car"\n'
                   for i in range(5000))
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        parsed = D.parse_annotations(text)
        grown = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    assert len(parsed) == 5000 - 52 and grown < 50


def test_class_ordering_is_alphabetical():
    assert D.CLASS_NAMES == tuple(sorted(D.CLASS_NAMES))
    assert D.class_index("Biker") == 0
    assert D.class_index("pedestrian") == 4


# ---------------------------------------------------------------------------
# tracks and subsampling

def test_build_tracks_splits_at_gaps():
    text = "".join(f'7 0 0 2 2 {f} 0 0 0 "Car"\n' for f in [0, 1, 2, 10, 11])
    tracks = D.build_tracks(D.parse_annotations(text))
    assert [t.frames.tolist() for t in tracks] == [[0, 1, 2], [10, 11]]
    assert all(t.track_id == 7 for t in tracks)


def test_build_tracks_dedupes_frames():
    text = ('1 0 0 2 2 0 0 0 0 "Car"\n'
            '1 4 4 6 6 0 0 0 0 "Car"\n'
            '1 0 0 2 2 1 0 0 0 "Car"\n')
    (track,) = D.build_tracks(D.parse_annotations(text))
    assert track.frames.tolist() == [0, 1]
    assert track.xy[0].tolist() == [1.0, 1.0]  # first record wins


def test_build_tracks_takes_any_int_id_and_rejects_frames_beyond_int64():
    big = 2**70
    text = f'{big} 0 0 2 2 0 0 0 0 "Car"\n{-big} 0 0 2 2 0 0 0 0 "Bus"\n'
    tracks = D.build_tracks(D.parse_annotations(text))
    assert [(t.track_id, t.class_name) for t in tracks] == [(-big, "bus"), (big, "car")]
    with pytest.raises(D.DataError, match="int64"):
        D.build_tracks(D.parse_annotations(f'1 0 0 2 2 {2**63} 0 0 0 "Car"\n'))


def assert_same_tracks(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.track_id, a.class_name) == (b.track_id, b.class_name)
        assert type(a.track_id) is type(b.track_id)
        assert a.frames.tolist() == b.frames.tolist()
        assert a.xy.dtype == b.xy.dtype and a.xy.tobytes() == b.xy.tobytes()


coords = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def annotation_lists(draw):
    """Records of a few tracks in any order: ids may repeat with another
    label, frames may repeat (duplicates) or skip (gaps), and a track may
    have a single frame."""
    out = []
    for _ in range(draw(st.integers(1, 5))):
        tid = draw(st.integers(0, 4))
        label = draw(st.sampled_from(("car", "bus", "pedestrian")))
        for frame in draw(st.lists(st.integers(0, 30), min_size=1, max_size=25)):
            bbox = tuple(draw(coords) for _ in range(4))
            out.append(RawAnnotation(tid, bbox, frame, False, False, label))
    return draw(st.permutations(out))


@settings(max_examples=150, deadline=None)
@given(annotations=annotation_lists())
def test_build_tracks_matches_looped_reference(annotations):
    assert_same_tracks(D.build_tracks(columns(annotations)), looped_build_tracks(annotations))


def test_subsample_keeps_aligned_frames():
    track = make_track(1, range(30))
    sub = D.subsample(track, 12)
    assert sub.frames.tolist() == [0, 12, 24]


def test_subsample_offset():
    track = make_track(1, range(5, 40))
    sub = D.subsample(track, 12, offset=5)
    assert sub.frames.tolist() == [5, 17, 29]


@settings(max_examples=50, deadline=None)
@given(start=st.integers(0, 50), length=st.integers(1, 200), stride=st.integers(1, 15))
def test_subsample_gaps_all_equal(start, length, stride):
    track = make_track(1, range(start, start + length))
    sub = D.subsample(track, stride)
    if len(sub) > 1:
        assert set(np.diff(sub.frames).tolist()) == {stride}


def test_subsample_rejects_gappy_track():
    track = make_track(1, [0, 1, 2, 50, 51, 52, 53, 54, 60, 72])
    with pytest.raises(D.DataError):
        D.subsample(track, 12)


def test_track_requires_increasing_frames():
    with pytest.raises(D.DataError):
        D.AgentTrack(1, "car", np.array([3, 2, 1]), np.zeros((3, 2)))


@pytest.mark.parametrize("name", ["unicycle", "Car", "biker"])
def test_track_rejects_a_class_name_outside_the_vocabulary(name):
    # aliases and other spellings are normalized by the parser, not by tracks
    with pytest.raises(D.DataError, match=rf"^track 7: unknown class name {name!r}"):
        D.AgentTrack(7, name, [0, 1], np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# windows

def test_two_agents_overlapping_25_frames_give_6_shared_windows():
    a = make_track(1, range(25), "pedestrian")
    b = make_track(2, range(25), "car")
    windows = D.build_windows({"scene": [a, b]})
    shared = [w for w in windows if w.n_agents == 2]
    assert len(windows) == 6
    assert len(shared) == 6
    assert all(w.agent_ids == (1, 2) for w in shared)
    assert [w.start_frame for w in shared] == [0, 1, 2, 3, 4, 5]


def test_window_includes_only_full_coverage_agents():
    a = make_track(1, range(0, 40), "pedestrian")
    b = make_track(2, range(15, 40), "car")  # covers starts 15..20 only
    windows = D.build_windows({"scene": [a, b]})
    for w in windows:
        if w.start_frame >= 15 and w.start_frame + 19 < 40:
            assert w.agent_ids == (1, 2)
        else:
            assert w.agent_ids == (1,)


def test_window_shapes_and_points():
    (w,) = D.build_windows({"s": [make_track(1, range(20))]})
    assert w.observed.shape == (1, 8, 2)
    assert w.future.shape == (1, 12, 2)
    assert w.points().shape == (1, 20, 2)
    assert w.window_id == "s:0"


def test_windows_respect_subsampled_step():
    track = D.subsample(make_track(1, range(0, 12 * 25)), 12)
    windows = D.build_windows({"s": [track]})
    assert len(windows) == len(track) - 19
    assert all(w.frame_step == 12 for w in windows)


def test_short_tracks_give_no_windows():
    assert D.build_windows({"s": [make_track(1, range(19))]}) == []


def test_tracks_with_no_frames_give_no_windows():
    empty = D.AgentTrack(1, "car", [], np.zeros((0, 2)))
    full = make_track(2, range(25), "pedestrian")
    assert D.build_windows({"s": [empty]}) == []
    assert_same_windows(D.build_windows({"s": [empty, full], "t": [empty]}),
                        D.build_windows({"s": [full]}))


def assert_same_windows(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.scene_id, a.start_frame, a.frame_step, a.agent_ids) \
            == (b.scene_id, b.start_frame, b.frame_step, b.agent_ids)
        assert [type(v) for v in (a.start_frame, a.frame_step, *a.agent_ids)] \
            == [type(v) for v in (b.start_frame, b.frame_step, *b.agent_ids)]
        for name in ("class_indices", "observed", "future"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@st.composite
def scene_tracks(draw):
    """Scenes of gap-free tracks at one step, each starting at its own frame
    (so tracks need not share a clock); ids may repeat, tracks may have one
    frame, and now and then a track has a gap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scenes = {}
    for scene in draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=2, unique=True)):
        step = draw(st.integers(1, 4))
        tracks = []
        for _ in range(draw(st.integers(0, 6))):
            frames = draw(st.integers(0, 12)) + step * np.arange(draw(st.integers(1, 30)))
            if draw(st.integers(0, 9)) == 0:
                frames[frames.size // 2:] += 1  # a gap: the scene's steps disagree
            tracks.append(D.AgentTrack(draw(st.integers(0, 5)), draw(st.sampled_from(D.CLASS_NAMES)),
                                       frames, rng.uniform(-500, 500, (frames.size, 2))))
        scenes[scene] = tracks
    return scenes


@settings(max_examples=150, deadline=None)
@given(tracks_by_scene=scene_tracks(), t_obs=st.integers(1, 8), t_pred=st.integers(0, 12))
def test_build_windows_matches_looped_reference(tracks_by_scene, t_obs, t_pred):
    try:
        want = looped_build_windows(tracks_by_scene, t_obs, t_pred)
    except D.DataError as exc:
        with pytest.raises(D.DataError, match=re.escape(str(exc))):
            D.build_windows(tracks_by_scene, t_obs, t_pred)
        return
    assert_same_windows(D.build_windows(tracks_by_scene, t_obs, t_pred), want)


def test_build_windows_checks_the_points_of_its_windows():
    # a track's points are checked when it is made; ones changed later are
    # checked when they fall in a window
    track = make_track(1, range(25))
    track.xy[22, 1] = np.inf
    with pytest.raises(D.DataError, match="^non-finite coordinates in window$"):
        D.build_windows({"s": [track]})
    short = make_track(2, range(19))
    short.xy[3, 0] = np.nan
    assert D.build_windows({"s": [short]}) == []


def assert_windows_own_their_arrays(windows):
    arrays = [a for w in windows for a in (w.class_indices, w.observed, w.future)]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
    for w in windows:
        for a in (w.observed, w.future):
            assert a.flags.c_contiguous and a.flags.writeable


def test_loaded_windows_own_their_arrays(tmp_path):
    tracks = [make_track(1, range(0, 26)), make_track(2, range(3, 30), "car"),
              make_track(3, range(5, 27), "bus")]
    windows = D.build_windows({"s": tracks, "t": [make_track(4, range(21))]})
    assert len(windows) == 11 + 2 and {w.n_agents for w in windows} == {1, 2, 3}
    assert_windows_own_their_arrays(windows)
    path = tmp_path / "windows.csv"
    D.write_windows_csv(windows, path)
    assert_windows_own_their_arrays(D.read_windows_csv(path))


def test_cmd_parse_output_on_benchmark_traffic_is_pinned(tmp_path, bench_inputs, capsys):
    # a root of the parse benchmark: 22,798 lines at 30 Hz with label
    # aliases and lost records that split tracks
    root = bench_inputs.write_annotation_root(str(tmp_path / "root"), seed=1, index=0)
    out = tmp_path / "parsed"
    assert cli.main(["parse", root.path, "--out", str(out)]) == cli.EXIT_OK
    digest = hashlib.sha256((out / "windows.csv").read_bytes()).hexdigest()
    assert digest == "7cbee599f9a6d665fd1b50293f8261c0edb2e35e42d0ca3334a24f0332397c98"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == {"windows.csv": digest}
    assert manifest["counts"] == {"lines": 22_798, "tracks": 58, "windows": 423}


def test_benchmark_roots_window_and_round_trip_exactly(tmp_path, bench_inputs):
    for seed in (1, 2):
        root = bench_inputs.write_annotation_root(str(tmp_path / f"seed{seed}"), seed, 0)
        tracks_by_scene = {}
        for scene_id, path in D.scan_annotation_dirs(root.path).items():
            with open(path, encoding="utf-8") as fh:
                tracks = D.build_tracks(D.parse_annotations(fh.readlines()))
            tracks_by_scene[scene_id] = [t for t in (D.subsample(t, D.SUBSAMPLE_STRIDE)
                                                     for t in tracks) if len(t) > 0]
        windows = D.build_windows(tracks_by_scene)
        assert len(windows) == root.n_windows
        assert_same_windows(windows, looped_build_windows(tracks_by_scene, D.T_OBS, D.T_PRED))
        path = tmp_path / f"windows{seed}.csv"
        D.write_windows_csv(windows, path)
        with open(path, newline="") as fh:
            assert fh.read() == csv_writer_windows_text(windows)
        assert_same_windows(D.read_windows_csv(path), windows)


def test_window_csv_that_starts_with_a_bom_reads_as_the_plain_file(tmp_path):
    windows = D.build_windows({"s": [make_track(1, range(24)), make_track(2, range(2, 25))]})
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    D.write_windows_csv(windows, plain)
    text = plain.read_bytes()
    assert not text.startswith(b"\xef\xbb\xbf")  # written without one
    bom.write_bytes(b"\xef\xbb\xbf" + text)
    assert_same_windows(D.read_windows_csv(bom), D.read_windows_csv(plain))
    # an error found on re-reading names the same line
    for path in (plain, bom):
        path.write_bytes(path.read_bytes().replace(b",1,4,3,", b",1,4,x,", 1))
    with pytest.raises(D.DataError) as want:
        D.read_windows_csv(plain)
    with pytest.raises(D.DataError, match=f"^{re.escape(str(want.value))}$"):
        D.read_windows_csv(bom)


# ---------------------------------------------------------------------------
# splits

def test_split_sizes_10():
    windows = D.synth_scene("linear", 1, ["car"], seed=0, n_windows=10)
    split = D.split_dataset(windows, seed=1)
    assert (len(split.train), len(split.val), len(split.test)) == (8, 1, 1)


@pytest.mark.parametrize("n", [3, 10, 47, 100])
def test_split_is_partition_within_one_of_targets(n):
    windows = D.synth_scene("linear", 1, ["car"], seed=0, n_windows=n)
    split = D.split_dataset(windows, seed=7)
    parts = [split.train, split.val, split.test]
    assert sum(len(p) for p in parts) == n
    ids = [id(w) for p in parts for w in p]
    assert len(set(ids)) == n
    for part, frac in zip(parts, (0.8, 0.1, 0.1)):
        assert abs(len(part) - round(frac * n)) <= 1


def test_split_gives_every_part_a_window():
    # so a chosen part is never empty, whatever the split name
    for n in range(3, 61):
        split = D.split_dataset(list(range(n)), seed=n)
        assert min(len(split.train), len(split.val), len(split.test)) >= 1, n


def test_split_deterministic_and_seed_sensitive():
    windows = D.synth_scene("linear", 1, ["car"], seed=0, n_windows=40)
    a = D.split_dataset(windows, seed=3)
    b = D.split_dataset(windows, seed=3)
    c = D.split_dataset(windows, seed=4)
    assert [w.start_frame for w in a.train] == [w.start_frame for w in b.train]
    assert [w.start_frame for w in a.train] != [w.start_frame for w in c.train]


def test_split_needs_three_windows():
    windows = D.synth_scene("linear", 1, ["car"], seed=0, n_windows=2)
    with pytest.raises(D.SplitError):
        D.split_dataset(windows, seed=0)


# ---------------------------------------------------------------------------
# relative representation

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 5), t=st.integers(2, 30))
def test_relative_round_trip(seed, n, t):
    pts = np.random.default_rng(seed).uniform(-1e3, 1e3, (n, t, 2))
    back = pts[:, :1] + np.cumsum(D.displacements(pts), axis=1)
    assert np.max(np.abs(back - pts)) < 1e-9


def test_relative_of_window():
    (w,) = D.synth_scene("linear", 2, ["car", "bus"], seed=5)
    d = D.displacements(w.points())
    assert d.shape == (2, 20, 2)
    assert np.all(d[:, 0] == 0.0)
    assert np.array_equal(d[:, 1:], np.diff(w.points(), axis=1))
    assert np.allclose(w.points()[:, :1] + np.cumsum(d, axis=1), w.points(), atol=1e-9)


# ---------------------------------------------------------------------------
# synthetic scenes

def test_synth_linear_extends_heading_exactly():
    (w,) = D.synth_scene("linear", 3, ["pedestrian", "car"], seed=9, jitter=0.0)
    pts = w.points()
    deltas = np.diff(pts, axis=1)
    assert np.allclose(deltas, deltas[:, :1, :], atol=1e-9)


def test_synth_speeds_are_class_dependent():
    (w,) = D.synth_scene("linear", 2, ["pedestrian", "car"], seed=3, jitter=0.0)
    speeds = np.linalg.norm(np.diff(w.points(), axis=1), axis=2).mean(axis=1)
    assert speeds[1] / speeds[0] == pytest.approx(4.5, rel=1e-9)


def test_synth_turn_has_constant_turn_rate():
    (w,) = D.synth_scene("turn", 1, ["bicyclist"], seed=4, jitter=0.0, turn_rate=0.12)
    d = np.diff(w.points()[0], axis=0)
    angles = np.arctan2(d[:, 1], d[:, 0])
    turns = np.diff(np.unwrap(angles))
    assert np.allclose(turns, 0.12, atol=1e-9)


def test_synth_roundabout_constant_curvature():
    # central-difference curvature kappa = |x'y'' - y'x''| / speed^3 must be
    # constant and equal to 1/radius for circular motion
    (w,) = D.synth_scene("roundabout", 1, ["bicyclist"], seed=11, jitter=0.0)
    p = w.points()[0]
    d1 = (p[2:] - p[:-2]) / 2.0
    d2 = p[2:] - 2.0 * p[1:-1] + p[:-2]
    speed = np.linalg.norm(d1, axis=1)
    kappa = np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / speed ** 3
    assert kappa.std() / kappa.mean() < 1e-3
    radius = 1.0 / kappa.mean()
    assert 20.0 <= radius <= 61.0


def test_synth_deterministic_and_seeded():
    a = D.synth_scene("turn", 2, ["car"], seed=8, jitter=0.5, n_windows=3)
    b = D.synth_scene("turn", 2, ["car"], seed=8, jitter=0.5, n_windows=3)
    c = D.synth_scene("turn", 2, ["car"], seed=9, jitter=0.5, n_windows=3)
    for wa, wb in zip(a, b):
        assert wa.points().tobytes() == wb.points().tobytes()
    assert a[0].points().tobytes() != c[0].points().tobytes()


def test_synth_rejects_unknown_kind_and_class():
    with pytest.raises(D.DataError):
        D.synth_scene("zigzag", 1, ["car"], seed=0)
    with pytest.raises(D.DataError):
        D.synth_scene("linear", 1, ["dragon"], seed=0)


# ---------------------------------------------------------------------------
# CSV and dataset loading

def test_window_csv_round_trip(tmp_path):
    windows = D.synth_scene("turn", 3, ["pedestrian", "bus"], seed=2, n_windows=2,
                            jitter=0.4)
    path = tmp_path / "windows.csv"
    D.write_windows_csv(windows, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(D.WINDOW_CSV_HEADER)
    back = D.read_windows_csv(path)
    assert len(back) == len(windows)
    for w0, w1 in zip(windows, back):
        assert w0.scene_id == w1.scene_id
        assert w0.agent_ids == w1.agent_ids
        assert np.array_equal(w0.class_indices, w1.class_indices)
        assert np.array_equal(w0.observed, w1.observed)
        assert np.array_equal(w0.future, w1.future)


@st.composite
def csv_windows(draw):
    """Windows with distinct ids: scene ids the CSV must quote, any start
    frame, frame step and finite coordinate, sorted agent ids, t_pred from 0."""
    scene_ids = draw(st.lists(st.text(st.sampled_from(',":\r\n é路\u2028ab') | st.characters(
        blacklist_categories=("Cs",)), max_size=6), min_size=1, max_size=3, unique=True))
    windows = []
    for scene_id in scene_ids:
        for start in draw(st.lists(st.integers(-5, 10**12), min_size=1, max_size=2, unique=True)):
            ids = sorted(draw(st.lists(st.integers(0, 10**9), min_size=1, max_size=3,
                                       unique=True)))
            t_obs, t_pred = draw(st.integers(1, 3)), draw(st.integers(0, 2))
            size = len(ids) * (t_obs + t_pred) * 2
            pts = np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                         min_size=size, max_size=size)),
                           dtype=np.float64).reshape(len(ids), t_obs + t_pred, 2)
            classes = draw(st.lists(st.integers(0, D.N_CLASSES - 1), min_size=len(ids),
                                    max_size=len(ids)))
            windows.append(D.SceneWindow(scene_id, start, draw(st.integers(1, 30)), tuple(ids),
                                         classes, pts[:, :t_obs], pts[:, t_obs:]))
    return windows


@settings(max_examples=400, deadline=None)
@given(windows=csv_windows())
def test_window_csv_round_trip_property(windows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "windows.csv")
        D.write_windows_csv(windows, path)
        assert_same_windows(D.read_windows_csv(path), windows)


def test_window_csv_text_matches_csv_writer(tmp_path):
    windows = []
    for k, scene_id in enumerate(("plaza, north", 'say "hi"', " padded scene ", "two\nlines",
                                  "cam:2")):
        windows += D.synth_scene("turn", 2, ["car", "bus"], seed=k, n_windows=2, jitter=0.3,
                                 scene_id=scene_id)
    windows[-1] = dataclasses.replace(windows[-1], start_frame=-3)  # window id "cam:2:-3"
    w = windows[0]
    pts = w.points()
    pts[0, :4] = [(-0.0, 1e-300), (1e20, 0.1 + 0.2), (5e-324, -123456789.125), (1.0, -1e-7)]
    windows[0] = D.SceneWindow(w.scene_id, 7, 12, (3, 11), w.class_indices,
                               pts[:, :w.t_obs], pts[:, w.t_obs:])
    path = tmp_path / "windows.csv"
    D.write_windows_csv(windows, path)
    with open(path, newline="") as fh:
        assert fh.read() == csv_writer_windows_text(windows)
    assert_same_windows(D.read_windows_csv(path), windows)


def test_window_csv_row_order_is_free(tmp_path):
    windows = D.synth_scene("turn", 3, ["car", "bus"], seed=4, n_windows=3, jitter=0.2)
    path = tmp_path / "windows.csv"
    D.write_windows_csv(windows, path)
    header, *rows = path.read_text().splitlines()
    np.random.default_rng(0).shuffle(rows)
    path.write_text("\n".join([header] + rows) + "\n")
    back = {w.window_id: w for w in D.read_windows_csv(path)}
    assert_same_windows([back[w.window_id] for w in windows], windows)


def window_csv_rows():
    """Window s:0 of agents 1 and 2 over steps 0..2, two of them observed;
    the header is line 1, agent 1 lines 2-4 and agent 2 lines 5-7."""
    return [f"s,s:0,{aid},4,{t},{t}.5,{aid}.0,{int(t >= 2)},1"
            for aid in (1, 2) for t in range(3)]


def replaced(rows, i, **cells):
    cols = rows[i].split(",")
    for name, value in cells.items():
        cols[D.WINDOW_CSV_HEADER.index(name)] = value
    return rows[:i] + [",".join(cols)] + rows[i + 1:]


MALFORMED_WINDOW_CSV = {
    "short row": (lambda r: r[:3] + ["s,s:0,2,4,0,0.5"] + r[4:], 5, "expected 9 cells"),
    "non-numeric cell": (lambda r: replaced(r, 1, x="abc"), 3, "x 'abc'"),
    "agent missing its last step": (lambda r: r[:5], 6, "has 2 steps"),
    "no observed step": (lambda r: [replaced(r, i, is_future="1")[i] for i in range(6)], 4,
                         "no observed step"),
    "duplicate row": (lambda r: r[:2] + [r[1]] + r[2:], 4, "duplicate row for step 1"),
    "steps not 0..T-1": (lambda r: r[:3] + [replaced(r, i, t=str(i - 2))[i] for i in (3, 4, 5)],
                         5, "found step 1 in place of step 0"),
    "is_future not 0s then 1s": (lambda r: replaced(replaced(r, 1, is_future="1"), 2,
                                                    is_future="0"),
                                 4, "is_future goes from 1 back to 0"),
    "window id without a start frame": (
        lambda r: r[:3] + [replaced(r, i, window_id="s:y")[i] for i in (3, 4, 5)],
        5, "window id 's:y' is not <scene_id>:<start frame>"),
    "window id of another scene": (
        lambda r: [replaced(r, i, window_id="t:7")[i] for i in range(6)], 2, "'t:7'"),
    "window id with a padded frame": (
        lambda r: [replaced(r, i, window_id="s:07")[i] for i in range(6)], 2, "'s:07'"),
    "nan x": (lambda r: replaced(r, 1, x="nan"), 3,
              "window 's:0' agent 1: non-finite coordinates (nan, 1.0)"),
    "-inf y": (lambda r: replaced(r, 4, y="-inf"), 6,
               "window 's:0' agent 2: non-finite coordinates (1.5, -inf)"),
    "class 6": (lambda r: r[:3] + [replaced(r, i, class_index="6")[i] for i in (3, 4, 5)],
                5, "window 's:0' agent 2: class index 6 out of range 0..5"),
    "class -1": (lambda r: [replaced(r, i, class_index="-1")[i] for i in range(3)] + r[3:],
                 2, "window 's:0' agent 1: class index -1 out of range"),
    "the first bad row in file order": (
        lambda r: replaced(replaced(r, 1, x="nan"), 4, y="inf")[::-1], 3,
        "agent 2: non-finite coordinates (1.5, inf)"),
    "the window id before its bad rows": (
        lambda r: replaced([replaced(r, i, window_id="s:07")[i] for i in range(6)], 3,
                           x="nan"), 2, "'s:07'"),
}


@pytest.mark.parametrize("case", list(MALFORMED_WINDOW_CSV))
def test_malformed_window_csv_names_its_line(tmp_path, case):
    edit, line, message = MALFORMED_WINDOW_CSV[case]
    path = tmp_path / "windows.csv"
    path.write_text("\n".join([",".join(D.WINDOW_CSV_HEADER)] + edit(window_csv_rows())) + "\n")
    with pytest.raises(D.DataError, match=rf"^line {line}: .*{re.escape(message)}"):
        D.read_windows_csv(path)


def test_valid_window_csv_rows_read_back(tmp_path):
    path = tmp_path / "windows.csv"
    path.write_text("\n".join([",".join(D.WINDOW_CSV_HEADER)] + window_csv_rows()) + "\n")
    (w,) = D.read_windows_csv(path)
    assert (w.window_id, w.agent_ids, w.frame_step) == ("s:0", (1, 2), 1)
    assert w.observed.shape == (2, 2, 2) and w.future.shape == (2, 1, 2)
    assert w.points()[1, :, 0].tolist() == [0.5, 1.5, 2.5]


def write_fixture_dataset(root):
    rng = np.random.default_rng(0)
    scene = root / "plaza" / "video0"
    scene.mkdir(parents=True)
    lines = []
    for tid, label in [(1, "Pedestrian"), (2, "Biker")]:
        x, y = rng.uniform(50, 100, 2)
        vx, vy = rng.uniform(0.5, 1.5, 2)
        for f in range(0, 12 * 24):
            cx, cy = x + vx * f, y + vy * f
            lines.append(f'{tid} {cx - 5:.1f} {cy - 5:.1f} {cx + 5:.1f} {cy + 5:.1f} '
                         f'{f} 0 0 0 "{label}"')
    (scene / "annotations.txt").write_text("\n".join(lines) + "\n")
    return root


def test_a_fault_in_an_annotation_file_names_the_file(tmp_path):
    root = write_fixture_dataset(tmp_path)
    second = root / "plaza" / "video1" / "annotations.txt"
    second.parent.mkdir()
    second.write_text('1 0 0 2 2 0 0 0 0 "Car"\n\n3 0 0 2 2 0 0 0 0 "Unicycle"\n')
    with pytest.raises(D.UnknownLabelError) as exc:
        D.load_annotation_files(D.scan_annotation_dirs(root))
    assert exc.value.line_number == 3
    assert str(exc.value) == f"annotation file {second}: line 3: unknown class label 'Unicycle'"


def test_load_annotation_dataset(tmp_path):
    root = write_fixture_dataset(tmp_path)
    windows, counts = D.load_annotation_dataset(root, stride=12)
    assert len(windows) > 0
    assert counts["pedestrian"] == 1 and counts["bicyclist"] == 1
    assert all(w.scene_id == "plaza/video0" for w in windows)
    assert all(w.n_agents == 2 for w in windows)
    hist = D.class_histogram(counts)
    assert sum(hist.values()) == pytest.approx(100.0, abs=0.01)


def test_load_annotation_files_counts_the_lines_of_its_files(tmp_path):
    # as many lines as iterating each file in text mode gives: blank lines
    # count, a last line without its newline too; \r and \r\n end lines
    files = D.scan_annotation_dirs(write_fixture_dataset(tmp_path / "ds"))
    extra = tmp_path / "ds" / "plaza" / "video1" / "annotations.txt"
    extra.parent.mkdir()
    extra.write_bytes(b'1 0 0 2 2 0 0 0 0 "Car"\r\n\n2 0 0 2 2 0 0 0 0 "Car"\r'
                      b'3 0 0 2 2 0 0 0 0 "Car"')
    files["plaza/video1"] = str(extra)
    windows, counts, lines = D.load_annotation_files(files, stride=12)
    assert lines == 576 + 4
    assert len(windows) == 5 and counts["car"] == 3


def test_window_csv_keeps_frame_step_of_parsed_windows(tmp_path):
    windows, _ = D.load_annotation_dataset(write_fixture_dataset(tmp_path / "ds"),
                                           stride=12)
    assert windows and all(w.frame_step == 12 for w in windows)
    path = tmp_path / "windows.csv"
    D.write_windows_csv(windows, path)
    back = D.read_windows_csv(path)
    assert [(w.window_id, w.start_frame, w.frame_step, w.agent_ids) for w in back] \
        == [(w.window_id, w.start_frame, w.frame_step, w.agent_ids) for w in windows]
    assert all(np.array_equal(a.points(), b.points()) for a, b in zip(windows, back))


def test_window_csv_without_frame_step_is_rejected(tmp_path):
    path = tmp_path / "old.csv"
    path.write_text("scene_id,window_id,agent_id,class_index,t,x,y,is_future\n"
                    "s,s:0,0,4,0,1.0,2.0,0\n")
    with pytest.raises(D.DataError, match="frame_step"):
        D.read_windows_csv(path)


ASCII_LOCALE_ROUND_TRIP = textwrap.dedent("""
    import locale, sys
    from trajgan import data as D
    print(locale.getpreferredencoding(False))
    windows = D.synth_scene("linear", 2, ["car", "bus"], seed=3, scene_id="plaza/\\u8def")
    D.write_windows_csv(windows, sys.argv[1])
    print(ascii(D.read_windows_csv(sys.argv[1])[0].scene_id))
""")


def test_window_csv_is_utf8_under_an_ascii_locale(tmp_path):
    # with the C locale, no locale coercion and UTF-8 mode off, text-mode
    # files default to ASCII; the window CSV must still round trip
    path = tmp_path / "windows.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONCOERCECLOCALE="0", LC_ALL="C")
    env.pop("PYTHONUTF8", None)
    proc = subprocess.run([sys.executable, "-X", "utf8=0", "-c", ASCII_LOCALE_ROUND_TRIP,
                           str(path)], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    encoding, scene_id = proc.stdout.split()
    if encoding.lower().replace("-", "") == "utf8":
        pytest.skip("this platform gives the C locale UTF-8 text files")
    assert scene_id == ascii("plaza/\u8def")
    windows = D.synth_scene("linear", 2, ["car", "bus"], seed=3, scene_id="plaza/\u8def")
    assert_same_windows(D.read_windows_csv(path), windows)
    assert "plaza/\u8def".encode("utf-8") in path.read_bytes()


def test_text_that_is_not_utf8_is_a_data_error(tmp_path):
    files = D.scan_annotation_dirs(write_fixture_dataset(tmp_path / "ds"))
    annotations = pathlib.Path(files["plaza/video0"])
    annotations.write_bytes(annotations.read_bytes() + b'3 0 0 2 2 0 0 0 0 "Caf\xff"\n')
    with pytest.raises(D.DataError, match=f"annotation file {re.escape(str(annotations))} "
                                          "is not UTF-8 text"):
        D.load_annotation_files(files)
    path = tmp_path / "windows.csv"
    path.write_bytes(",".join(D.WINDOW_CSV_HEADER).encode() + b"\n\xff,s:0\n")
    with pytest.raises(D.DataError, match=f"window CSV {re.escape(str(path))} is not UTF-8"):
        D.read_windows_csv(path)


def test_every_text_mode_open_names_its_encoding():
    # a text file opened without encoding= is read in the locale's encoding
    missing = []
    for source in sorted((ROOT / "src" / "trajgan").glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            binary = isinstance(mode, ast.Constant) and "b" in str(mode.value)
            if not binary and not any(k.arg == "encoding" for k in node.keywords):
                missing.append(f"{source.name}:{node.lineno}")
    assert missing == []


def test_interrupted_csv_write_keeps_the_old_file(tmp_path):
    windows = D.synth_scene("linear", 2, ["car", "bus"], seed=3, n_windows=3)
    path = tmp_path / "windows.csv"
    D.write_windows_csv(windows, path)
    old = path.read_bytes()
    # the last window's id cannot be encoded, so the write fails partway
    bad = windows[:2] + [dataclasses.replace(windows[2], scene_id="bad\ud800")]
    with pytest.raises(UnicodeEncodeError):
        D.write_windows_csv(bad, path)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["windows.csv"]


def test_write_atomic_failed_replace_leaves_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "manifest.json"
    D.write_atomic(path, "old\n")

    def refuse(src, dst):
        raise OSError("disk full")
    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        D.write_atomic(path, "new\n")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["manifest.json"]


def test_scan_missing_root():
    with pytest.raises(D.DataError):
        D.scan_annotation_dirs("/nonexistent/path")
