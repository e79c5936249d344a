"""Trajectory data pipeline: annotation parsing, windowing, splits, synthesis.

Annotations follow the drone-footage format, one box per line:

    track_id xmin ymin xmax ymax frame lost occluded generated "label"

Kept lines are parsed into columns (AnnotationColumns), not one record per
line.  Trajectories are bounding-box centers in pixels.  Tracks are cut into
fixed-length scene windows (8 observed + 12 future positions by default) in
which every included agent is present at all 20 frames.
"""

from __future__ import annotations

import csv
import io
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from math import inf, isfinite
from typing import NamedTuple

import numpy as np

CLASS_NAMES = ("bicyclist", "bus", "car", "golf cart", "pedestrian", "skateboarder")
N_CLASSES = len(CLASS_NAMES)

# SceneWindow.onehots indexes rows of this; fancy indexing returns a writable copy
_ONEHOT_ROWS = np.eye(N_CLASSES)
_ONEHOT_ROWS.flags.writeable = False

# dataset label strings normalized to the canonical vocabulary
LABEL_ALIASES = {
    "biker": "bicyclist",
    "cart": "golf cart",
    "skater": "skateboarder",
}

T_OBS = 8
T_PRED = 12
SUBSAMPLE_STRIDE = 12  # 30 fps footage down to 2.5 Hz


class DataError(ValueError):
    pass


class AnnotationParseError(DataError):
    def __init__(self, message, line_number):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class UnknownLabelError(AnnotationParseError):
    pass


class SplitError(DataError):
    pass


def class_index(name):
    key = normalize_label(name)
    if key is None:
        raise DataError(f"unknown class label {name!r}")
    return CLASS_NAMES.index(key)


def normalize_label(name):
    key = name.strip().lower()
    key = LABEL_ALIASES.get(key, key)
    return key if key in CLASS_NAMES else None


_CLASS_NUMBERS = {name: k for k, name in enumerate(CLASS_NAMES)}


@dataclass(eq=False)
class AnnotationColumns:
    """The kept lines of an annotation text as columns, one row per line: no
    object per line is left for the cyclic garbage collector to scan.  The
    id and frame columns are int64, or object arrays of Python ints when one
    of their values lies outside the int64 range."""

    track_ids: np.ndarray  # (n,)
    frames: np.ndarray     # (n,)
    boxes: np.ndarray      # (n, 4) float64: xmin, ymin, xmax, ymax
    occluded: np.ndarray   # (n,) bool
    generated: np.ndarray  # (n,) bool
    classes: np.ndarray    # (n,) int64: indices into CLASS_NAMES
    n_lines: int = 0       # lines read, blank and lost ones included

    def __len__(self):
        return len(self.frames)


def _loadtxt(lines, dtype, delimiter):
    """``lines`` (an open text file or a list of lines) read by np.loadtxt
    into the structured ``dtype``: fields split at ``delimiter`` (None: at
    runs of whitespace), '"' quoting, no comments; no lines read as no rows.
    numpy from 1.23 reads an int64 field that is not an integer (``1.5``,
    ``nan``, one beyond int64) as a float and only warns that this is
    deprecated; that warning is made an error here, so numpy raises the
    ValueError it raises for any other field it does not read."""
    with warnings.catch_warnings():
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(lines, dtype, ndmin=1, delimiter=delimiter, quotechar='"',
                          comments=None)


# an annotation line as np.loadtxt reads it; the box is four number fields
_ANNOTATION_DTYPE = np.dtype([
    ("track_id", np.int64), ("box", np.float64, (4,)), ("frame", np.int64),
    ("lost", np.int64), ("occluded", np.int64), ("generated", np.int64),
    ("label", object)])


def parse_annotations(source):
    """Parse annotation text into AnnotationColumns, one row per kept line.

    ``source`` is the file content as a string, split into lines as a
    text-mode file is (at LF, CR LF and CR only), an open text file, or any
    iterable of lines.  Labels may be quoted, in any case, or aliased
    (``LABEL_ALIASES``).  Records flagged lost are dropped (out of view);
    occluded boxes are kept.  A malformed line or an unknown label, lost
    lines included, raises AnnotationParseError (UnknownLabelError for the
    label) with the 1-based line number.  The first fault is reported,
    checked in this order: the field count, each field in turn, a non-finite
    bbox coordinate (``nan``, ``inf``), the bbox order, the label.

    The line parser (_parse_lines) defines this grammar.  A string or a
    seekable text file is first read, from where it stands, in one
    np.loadtxt call, and its table is taken where _table_columns shows that
    the line parser gives the same columns, as for files in the dataset's
    shape; any other text, and any other iterable of lines, goes to the line
    parser.
    """
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    if isinstance(source, io.TextIOBase) and source.seekable():
        try:
            start = source.tell()
        except OSError:  # a file read by next() cannot tell where it stands
            return _parse_lines(source)
        try:
            table = _loadtxt(source, _ANNOTATION_DTYPE, None)
        except ValueError:
            table = None
        source.seek(start)
        columns = None if table is None else _table_columns(table, source.read())
        if columns is not None:
            return columns
        source.seek(start)
    return _parse_lines(source)


def _table_columns(table, text):
    """AnnotationColumns of the kept rows of ``table``, np.loadtxt's read of
    ``text``; None unless the line parser would read ``text`` the same way.

    numpy reads a number field as int() or float() do, or not at all
    (``1_0`` and digits of other scripts), and splits fields at the same
    whitespace; the two readers differ in quoting.  numpy opens a quote only
    at the start of a field and keeps a line end inside one, and then reads
    ``"1"`` as 1 and ``"Ca"r`` as ``Car``; the line parser strips '"' from
    the ends of the label alone.  So the table is taken only when every line
    is one row (no blank line, no line end inside quotes), ``text`` holds
    two '"' per row and one at the end of each line, every label names a
    class and every box is finite and ordered.  Then no '"' sits inside a
    field, where numpy keeps it and no number or class reads, so each
    line's last '"' closes a quote that an earlier one opened: every line
    holds exactly two.  The first opens the line's last field, the label,
    and the line parser reads the same label between them.
    """
    n = table.size
    n_lines = text.count("\n") + (text[-1:] not in ("", "\n"))
    if n != n_lines or text.count('"') != 2 * n or \
            text.count('"\n') + text.endswith('"') != n:
        return None
    box = table["box"]
    if not (np.isfinite(box).all() and (box[:, :2] <= box[:, 2:]).all()):
        return None
    labels = table["label"].tolist()
    number = {label: _CLASS_NUMBERS.get(normalize_label(label)) for label in set(labels)}
    if None in number.values():
        return None
    kept = table["lost"] == 0
    classes = np.fromiter(map(number.__getitem__, labels), np.int64, n)
    return AnnotationColumns(table["track_id"][kept], table["frame"][kept], box[kept],
                             table["occluded"][kept] != 0, table["generated"][kept] != 0,
                             classes[kept], n_lines)


def _int_column(values):
    """The Python ints ``values`` as an int64 array, or as an object array
    when one lies outside the int64 range."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _parse_lines(lines):
    """The line parser: AnnotationColumns of the text ``lines``, read line by
    line by int() and float(); the grammar and faults of parse_annotations."""
    # A line's last four fields (lost, occluded, generated, label) take few
    # distinct spellings.  Each is split and converted at its first line and
    # cached as (lost, raw label, tail), label None in the tail when unknown;
    # later lines convert only their first six fields and share that tail.
    tails = {}
    track_ids, frames, boxes, kept_tails = [], [], [], []
    add_id, add_frame, add_tail = track_ids.append, frames.append, kept_tails.append
    ln = 0
    for ln, line in enumerate(lines, start=1):
        parts = line.split(None, 6)
        tail = tails.get(parts[6]) if len(parts) == 7 else None
        if tail is None:
            if not parts:
                continue
            fields = line.split(None, 9)
            if len(fields) != 10:
                raise AnnotationParseError(f"expected 10 fields, got {len(fields)}", ln)
        try:
            track_id = int(parts[0])
            xmin = float(parts[1])
            ymin = float(parts[2])
            xmax = float(parts[3])
            ymax = float(parts[4])
            frame = int(parts[5])
            if tail is None:
                raw_label = fields[9].strip().strip('"')
                tail = tails[parts[6]] = (int(fields[6]) != 0, raw_label, (
                    int(fields[7]) != 0, int(fields[8]) != 0, normalize_label(raw_label)))
        except ValueError as e:
            raise AnnotationParseError(str(e), ln) from None
        if not (-inf < xmin <= xmax < inf and -inf < ymin <= ymax < inf):
            bbox = (xmin, ymin, xmax, ymax)
            fault = "ordered" if all(map(isfinite, bbox)) else "finite"
            raise AnnotationParseError(f"bbox not {fault}: {bbox}", ln)
        lost, raw_label, kept = tail
        if kept[2] is None:
            raise UnknownLabelError(f"unknown class label {raw_label!r}", ln)
        if lost:
            continue
        add_id(track_id)
        add_frame(frame)
        boxes += (xmin, ymin, xmax, ymax)
        add_tail(kept)
    n = len(frames)
    occluded, generated, labels = zip(*kept_tails) if n else ((), (), ())
    return AnnotationColumns(_int_column(track_ids), _int_column(frames),
                             np.array(boxes, dtype=np.float64).reshape(n, 4),
                             np.array(occluded, dtype=bool), np.array(generated, dtype=bool),
                             np.fromiter(map(_CLASS_NUMBERS.__getitem__, labels), np.int64, n),
                             ln)


@dataclass
class AgentTrack:
    """One agent's consecutive positions: frames strictly increasing."""

    track_id: int
    class_name: str
    frames: np.ndarray  # (T,) int64
    xy: np.ndarray      # (T, 2) float64

    def __post_init__(self):
        if self.class_name not in CLASS_NAMES:
            raise DataError(f"track {self.track_id}: unknown class name {self.class_name!r}; "
                            f"expected one of {CLASS_NAMES}")
        self.frames = np.asarray(self.frames, dtype=np.int64)
        self.xy = np.asarray(self.xy, dtype=np.float64)
        if self.xy.shape != (self.frames.size, 2):
            raise DataError(f"track {self.track_id}: {self.frames.size} frames "
                            f"but xy shape {self.xy.shape}")
        if self.frames.size > 1 and not np.all(np.diff(self.frames) > 0):
            raise DataError(f"track {self.track_id}: frames not strictly increasing")
        if not np.all(np.isfinite(self.xy)):
            raise DataError(f"track {self.track_id}: non-finite coordinates")

    @property
    def class_idx(self):
        return CLASS_NAMES.index(self.class_name)

    def __len__(self):
        return self.frames.size


def _checked_track(track_id, class_name, frames, xy):
    """An AgentTrack made without ``__post_init__``: only for build_tracks and
    subsample, whose inputs are checked in bulk."""
    track = object.__new__(AgentTrack)
    track.track_id, track.class_name, track.frames, track.xy = track_id, class_name, frames, xy
    return track


def _ranks(values):
    """Sorted distinct ``values``, and each value's index among them as int64."""
    distinct = sorted(set(values))
    rank = {v: r for r, v in enumerate(distinct)}
    return distinct, np.fromiter(map(rank.__getitem__, values), np.int64, len(values))


def build_tracks(annotations):
    """Group AnnotationColumns into per-agent tracks of bbox centers.

    A track takes its id and class from the columns at its first line.  A
    track is split wherever its annotated frames are not consecutive
    (out-of-view gaps left by dropped lost records), so every returned track
    has unit frame spacing.  Duplicate frames keep the first line.
    """
    n = len(annotations)
    if not n:
        return []
    distinct, ids = np.unique(annotations.track_ids, return_inverse=True)
    try:
        frames = np.asarray(annotations.frames, dtype=np.int64)
    except OverflowError:
        raise DataError("an annotated frame lies outside the int64 range") from None
    # stable: lines of one (track, frame) stay in input order, first one wins
    order = np.lexsort((frames, ids))
    ids, frames = ids[order], frames[order]
    first = np.ones(n, dtype=bool)
    first[1:] = (ids[1:] != ids[:-1]) | (frames[1:] != frames[:-1])
    order, ids, frames = order[first], ids[first], frames[first]
    box = annotations.boxes[order]
    xy = (box[:, :2] + box[:, 2:]) / 2.0
    new_id = np.r_[True, ids[1:] != ids[:-1]]
    starts = np.flatnonzero(new_id | np.r_[True, frames[1:] - frames[:-1] != 1])
    # every piece of a track takes the id and class of the track's first line
    heads = np.maximum.accumulate(np.where(new_id, np.arange(ids.size), 0))[starts]
    names = map(CLASS_NAMES.__getitem__, annotations.classes[order[heads]].tolist())
    bounds = [*starts.tolist(), ids.size]
    return list(map(_checked_track, distinct[ids[starts]].tolist(), names,
                    _split(frames, bounds), _split(xy, bounds)))


def subsample(track, stride, offset=0):
    """Keep frames congruent to ``offset`` modulo ``stride``.

    The shared offset keeps different agents on one scene clock so they can
    share windows.  Requires a gap-free track; the result has consecutive
    frames exactly ``stride`` apart.
    """
    if stride < 1:
        raise DataError(f"stride must be >= 1, got {stride}")
    keep = (track.frames - offset) % stride == 0
    frames = track.frames[keep]
    if frames.size > 1 and not np.all(np.diff(frames) == stride):
        raise DataError(f"track {track.track_id} has frame gaps; split it before subsampling")
    return _checked_track(track.track_id, track.class_name, frames, track.xy[keep])


@dataclass
class SceneWindow:
    """A fixed-length multi-agent snippet: every agent covers all frames."""

    scene_id: str
    start_frame: int
    frame_step: int
    agent_ids: tuple
    class_indices: np.ndarray  # (N,) int
    observed: np.ndarray       # (N, t_obs, 2)
    future: np.ndarray         # (N, t_pred, 2)

    def __post_init__(self):
        self.class_indices = np.asarray(self.class_indices, dtype=np.int64)
        self.observed = np.asarray(self.observed, dtype=np.float64)
        self.future = np.asarray(self.future, dtype=np.float64)
        n = len(self.agent_ids)
        if (self.class_indices.shape != (n,) or self.observed.ndim != 3
                or self.future.ndim != 3 or self.observed.shape[0] != n
                or self.future.shape[0] != n or self.observed.shape[2] != 2
                or self.future.shape[2] != 2):
            raise DataError("inconsistent window shapes")
        if n < 1:
            raise DataError("window must contain at least one agent")
        if not (np.isfinite(self.observed).all() and np.isfinite(self.future).all()):
            raise DataError("non-finite coordinates in window")
        if (self.class_indices < 0).any() or (self.class_indices >= N_CLASSES).any():
            raise DataError("class index out of range")

    @property
    def n_agents(self):
        return len(self.agent_ids)

    @property
    def t_obs(self):
        return self.observed.shape[1]

    @property
    def t_pred(self):
        return self.future.shape[1]

    @property
    def window_id(self):
        return f"{self.scene_id}:{self.start_frame}"

    def onehots(self):
        return _ONEHOT_ROWS[self.class_indices]

    def points(self):
        """(N, t_obs + t_pred, 2) concatenated observed and future."""
        return np.concatenate([self.observed, self.future], axis=1)


def _checked_window(scene_id, start_frame, frame_step, agent_ids, class_indices,
                    observed, future):
    """A SceneWindow made without ``__post_init__``: only for the loaders,
    which check the arrays of all their windows at once."""
    win = object.__new__(SceneWindow)
    win.scene_id, win.start_frame, win.frame_step = scene_id, start_frame, frame_step
    win.agent_ids, win.class_indices = agent_ids, class_indices
    win.observed, win.future = observed, future
    return win


def _split(a, bounds):
    """The slices of ``a`` between consecutive ``bounds``."""
    return [a[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def build_windows(tracks_by_scene, t_obs=T_OBS, t_pred=T_PRED):
    """Slide a (t_obs + t_pred)-frame window over each scene, stride one frame.

    ``tracks_by_scene`` maps scene id to subsampled tracks.  A window is
    emitted for every start frame at which at least one agent covers the full
    span; all covering agents are included, ordered by track id.  A track
    with no frames covers no span and is skipped.

    Each scene is cut in bulk: every track's valid starts become (start,
    track) pairs sorted by start, then by track order, so each window is a
    run of pairs.  One gather from the scene's stacked points gives every
    pair's observed and future steps, checked finite once, and each window's
    arrays are its own slices of these blocks.
    """
    span = t_obs + t_pred
    windows = []
    for scene_id in sorted(tracks_by_scene):
        tracks = sorted((t for t in tracks_by_scene[scene_id] if len(t)),
                        key=lambda t: t.track_id)  # stable
        diffs = [np.diff(t.frames) for t in tracks]
        steps = np.unique(np.concatenate(diffs)).tolist() if diffs else []
        if len(steps) > 1:
            raise DataError(f"scene {scene_id}: inconsistent frame steps {steps}")
        step = steps[0] if steps else 1
        # CLASS_NAMES.index gives each class index, so all are in range
        classes = np.array([t.class_idx for t in tracks], dtype=np.int64)
        # Every track is gap-free at ``step``, so it covers the span that
        # begins at its row k for k = 0 .. len - span, and at no other frame.
        firsts = np.array([t.frames[0] for t in tracks], dtype=np.int64)
        lengths = np.array([len(t) for t in tracks], dtype=np.int64)
        n_starts = np.maximum(lengths - span + 1, 0)
        if not n_starts.any():
            continue
        track = np.repeat(np.arange(len(tracks)), n_starts)
        row = np.arange(track.size) - np.repeat(np.cumsum(n_starts) - n_starts, n_starts)
        start = firsts[track] + row * step
        order = np.argsort(start, kind="stable")  # pairs of one start stay in track order
        track, start = track[order], start[order]
        first_row = (np.cumsum(lengths) - lengths)[track] + row[order]
        xy = np.concatenate([t.xy for t in tracks])
        observed = xy[first_row[:, None] + np.arange(t_obs)]
        future = xy[first_row[:, None] + np.arange(t_obs, span)]
        if not (np.isfinite(observed).all() and np.isfinite(future).all()):
            raise DataError("non-finite coordinates in window")
        track_ids = [t.track_id for t in tracks]
        ids = list(map(track_ids.__getitem__, track.tolist()))
        bounds = np.flatnonzero(np.r_[True, start[1:] != start[:-1], True]).tolist()
        windows += map(_checked_window, repeat(scene_id), start[bounds[:-1]].tolist(),
                       repeat(step), map(tuple, _split(ids, bounds)),
                       _split(classes[track], bounds), _split(observed, bounds),
                       _split(future, bounds))
    return windows


@dataclass
class DatasetSplit:
    train: list = field(default_factory=list)
    val: list = field(default_factory=list)
    test: list = field(default_factory=list)


def split_dataset(windows, seed):
    """Deterministic seeded shuffle into 80/10/10 train/val/test parts."""
    n = len(windows)
    if n < 3:
        raise SplitError(f"need at least 3 windows to split, got {n}")
    n_val = max(1, round(0.1 * n))
    n_test = max(1, round(0.1 * n))
    perm = np.random.default_rng(seed).permutation(n)
    shuffled = [windows[i] for i in perm]
    n_train = n - n_val - n_test
    return DatasetSplit(train=shuffled[:n_train],
                        val=shuffled[n_train:n_train + n_val],
                        test=shuffled[n_train + n_val:])


def displacements(points):
    """Per-step displacements of (N, T, 2) points, zero at the first step."""
    d = np.zeros_like(points)
    d[:, 1:] = np.diff(points, axis=1)
    return d


# ---------------------------------------------------------------------------
# synthetic scenes

SYNTH_SPEEDS = {
    "pedestrian": 1.0,
    "skateboarder": 1.25,
    "bicyclist": 2.0,
    "golf cart": 3.25,
    "bus": 4.0,
    "car": 4.5,
}

SYNTH_KINDS = ("linear", "turn", "roundabout")


def synth_scene(kind, n_agents, classes, seed, *, n_windows=1, jitter=0.0,
                t_obs=T_OBS, t_pred=T_PRED, speed=4.0, turn_rate=0.1,
                scene_id=None):
    """Generate deterministic synthetic windows with class-dependent speeds.

    linear: constant velocity.  turn: constant angular velocity applied to
    the heading.  roundabout: motion on a circle at constant angular
    velocity.  ``jitter`` is the std of Gaussian noise added to every point.
    """
    if kind not in SYNTH_KINDS:
        raise DataError(f"unknown synthetic scene kind {kind!r}; expected {SYNTH_KINDS}")
    if n_agents < 1:
        raise DataError("need at least one agent")
    classes = [normalize_label(c) or c for c in classes]
    for c in classes:
        if c not in CLASS_NAMES:
            raise DataError(f"unknown class {c!r} in synthetic scene")
    rng = np.random.default_rng(seed)
    span = t_obs + t_pred
    sid = scene_id or f"synth-{kind}-{seed}"
    windows = []
    for w in range(n_windows):
        pts = np.empty((n_agents, span, 2))
        cls = np.empty(n_agents, dtype=np.int64)
        for i in range(n_agents):
            cname = classes[i % len(classes)]
            cls[i] = CLASS_NAMES.index(cname)
            v = SYNTH_SPEEDS[cname] * speed
            start = rng.uniform(0.0, 200.0, 2)
            heading = rng.uniform(0.0, 2.0 * np.pi)
            t = np.arange(span)
            if kind == "linear":
                pts[i, :, 0] = start[0] + v * t * np.cos(heading)
                pts[i, :, 1] = start[1] + v * t * np.sin(heading)
            elif kind == "turn":
                angles = heading + turn_rate * np.arange(span - 1)
                steps = v * np.stack([np.cos(angles), np.sin(angles)], axis=1)
                pts[i, 0] = start
                pts[i, 1:] = start + np.cumsum(steps, axis=0)
            else:  # roundabout: circle through start, angular velocity v / r
                radius = rng.uniform(20.0, 60.0)
                center = start + radius * np.array([np.cos(heading), np.sin(heading)])
                phi0 = np.arctan2(start[1] - center[1], start[0] - center[0])
                omega = v / radius
                phi = phi0 + omega * t
                pts[i, :, 0] = center[0] + radius * np.cos(phi)
                pts[i, :, 1] = center[1] + radius * np.sin(phi)
        if jitter > 0.0:
            pts += rng.normal(0.0, jitter, pts.shape)
        windows.append(SceneWindow(sid, w * span, 1, tuple(range(n_agents)),
                                   cls, pts[:, :t_obs], pts[:, t_obs:]))
    return windows


# ---------------------------------------------------------------------------
# serialization and dataset scanning

# the window CSV's columns as read_windows_csv reads them: the ids as text
# (an agent id need not fit in int64), the other cells as numbers
_WINDOW_CSV_DTYPE = np.dtype([
    ("scene_id", object), ("window_id", object), ("agent_id", object),
    ("class_index", np.int64), ("t", np.int64), ("x", np.float64), ("y", np.float64),
    ("is_future", np.int64), ("frame_step", np.int64)])
WINDOW_CSV_HEADER = list(_WINDOW_CSV_DTYPE.names)


def write_atomic(path, text):
    """Replace ``path`` with ``text`` in one step.

    The text goes to a temporary file in the same directory, is flushed to
    disk, and then replaces ``path``; an interrupted write leaves the old
    file (or none) and no temporary file.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@contextmanager
def open_text(path, what, error, newline=None):
    """``path`` open for reading as UTF-8 text, a leading byte-order mark skipped.
    An OSError or UnicodeDecodeError, also one raised in the ``with`` body,
    becomes ``error`` naming ``what`` and ``path``."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except OSError as err:
        raise error(f"cannot read {what} {path}: {err.strerror}") from err
    except UnicodeDecodeError as err:
        raise error(f"{what} {path} is not UTF-8 text: {err}") from err


def csv_text(rows):
    """``rows`` as csv.writer writes them: each row's cells joined by commas,
    quoted where needed, and ended by "\r\n"."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _csv_cells(fields):
    """One csv_text row of ``fields``, without its line end."""
    return csv_text([fields])[:-2]  # the "\r\n" line end decides what needs quotes


def write_windows_csv(windows, path):
    """Write one row per agent per step, with the text csv_text would give.

    Only ``scene_id`` and ``window_id`` can need quoting; they go through
    csv_text once per window.  Each coordinate is written as the ``repr`` of
    its float, which reads back exactly: one ``repr`` per distinct value,
    told apart by its bits so that ``-0.0`` keeps its sign.  Each agent's
    rows are one template, made once per (t_obs, span, frame_step), filled
    with its coordinates and then its leading cells.

    A window list that read_windows_csv would not give back is refused with
    a DataError naming the window, and the old file is kept: two windows
    with the same ``scene_id``, start frame and ``frame_step`` (their rows
    would read as one window), a window with no observed step, or one that
    lists an agent id twice.
    """
    points = [win.points().view(np.uint64) for win in windows]
    bits = np.unique(np.concatenate([np.empty(0, np.uint64), *map(np.ravel, points)]))
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    lines = [_csv_cells(WINDOW_CSV_HEADER) + "\r\n"]
    keys, templates = set(), {}
    for win, pts in zip(windows, points):
        window_id = win.window_id
        key = (win.scene_id, window_id, win.frame_step)  # read_windows_csv's window key
        if key in keys:
            raise DataError(f"window {window_id!r} comes twice with frame step "
                            f"{win.frame_step}; its rows would read back as one window")
        if win.t_obs == 0:
            raise DataError(f"window {window_id!r} has no observed step")
        if len(set(win.agent_ids)) < win.n_agents:
            aid = next(a for i, a in enumerate(win.agent_ids) if a in win.agent_ids[:i])
            raise DataError(f"window {window_id!r} agent {aid} comes twice")
        keys.add(key)
        n, span = pts.shape[:2]
        form = (win.t_obs, span, win.frame_step)
        if form not in templates:  # "\0" stands for the agent's leading cells
            is_future = [0] * win.t_obs + [1] * (span - win.t_obs)
            templates[form] = "".join(map("\0,{},%s,%s,{},{}\r\n".format, range(span),
                                          is_future, repeat(win.frame_step)))
        template = templates[form]
        ids = _csv_cells((win.scene_id, window_id))
        xy = texts[np.searchsorted(bits, pts.reshape(n, -1))].tolist()
        lines += [(template % tuple(cells)).replace("\0", f"{ids},{aid},{cls}")
                  for aid, cls, cells in zip(win.agent_ids, win.class_indices.tolist(), xy)]
    write_atomic(path, "".join(lines))


def _window_csv_error(path, row, message):
    """DataError naming the 1-based line that ends data row ``row`` of a window
    CSV, counting rows as np.loadtxt does: empty lines are no rows."""
    with open_text(path, "window CSV", DataError, newline="") as fh:
        reader = csv.reader(fh)
        rows = filter(None, reader)
        for _ in range(row + 2):  # the header and rows 0..row
            next(rows)
        return DataError(f"line {reader.line_num}: {message}")


def _rows_read(lines, rows):
    """Whether _loadtxt reads the window CSV ``lines``, the text of
    the nine-cell ``rows``, and int() each row's agent id."""
    try:
        _loadtxt(lines, _WINDOW_CSV_DTYPE, ",")
        for row in rows:
            int(row[2])
    except ValueError:
        return False
    return True


def _window_csv_fault(path, cause):
    """DataError for the first data row of a window CSV, in file order, that
    has other than nine cells or a cell _rows_read rejects; the table
    reader's ``cause`` if there is none."""
    width = len(WINDOW_CSV_HEADER)
    with open_text(path, "window CSV", DataError, newline="") as fh:
        lines = fh.readlines()
    reader = csv.reader(lines)
    next(reader)  # the header, checked before
    ends = [reader.line_num]  # row i is lines[ends[i]:ends[i + 1]], with empty lines
    rows, fault = [], DataError(f"window CSV {path}: {cause}")
    try:
        for row in filter(None, reader):  # np.loadtxt skips empty lines
            if len(row) != width:
                fault = DataError(f"line {reader.line_num}: expected {width} cells, "
                                  f"got {len(row)}")
                break
            rows.append(row)
            ends.append(reader.line_num)
    except csv.Error as e:
        fault = DataError(f"line {reader.line_num}: {e}")
    if not rows or _rows_read(lines[ends[0]:ends[-1]], rows):
        return fault
    i = next(i for i, row in enumerate(rows)
             if not _rows_read(lines[ends[i]:ends[i + 1]], [row]))
    row = rows[i]
    # its first bad cell: the first k at which its cells 0..k, "0" after them, fail
    prefixes = (row[:k + 1] + ["0"] * (width - k - 1) for k in range(width))
    k = next(k for k, cells in enumerate(prefixes) if not _rows_read([_csv_cells(cells)],
                                                                     [cells]))
    return DataError(f"line {ends[i + 1]}: {WINDOW_CSV_HEADER[k]} {row[k]!r} "
                     "is not a valid number")


def read_windows_csv(path):
    """Rebuild SceneWindows from a window CSV such as write_windows_csv writes.

    The header is read with csv.reader and the rows in one np.loadtxt call,
    which skips empty lines and reads numbers by its own rule: ASCII digits
    with an optional sign and surrounding whitespace, no underscores, and
    int64 cells whole numbers within int64 (_loadtxt).  ``agent_id``
    is read by int() and may be any integer.

    Rows may come in any order.  The rows that share ``scene_id``,
    ``window_id`` and ``frame_step`` make one window; windows come in the
    order of their first rows, agents by id and steps by ``t``.  Each agent
    of a window has exactly one row for each step ``0..T-1`` (a duplicate row
    is rejected), the same ``class_index`` on all of them, and ``is_future``
    0 on its first steps and 1 on the rest.  All agents of a window have the
    same ``T`` and the same number of observed steps, at least one.  A row
    that breaks this, or that has other than nine cells, a numeric cell that
    does not read, a non-finite ``x`` or ``y`` or a ``class_index`` outside
    0..5, raises DataError naming its 1-based line; a window id other than
    ``<scene_id>:<start frame>``, the window's first line.  The last three
    faults are looked for window by window: a window's id first, then its
    first bad row in file order.  When the table reader rejects the file,
    _window_csv_fault reads it again to name the first faulty row.

    Coordinates and classes are checked as stacked columns, once per file,
    so the windows are made without checking each one again.
    """
    with open_text(path, "window CSV", DataError, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as e:
            raise DataError(f"line {reader.line_num}: {e}") from None
        if header != WINDOW_CSV_HEADER:
            missing = [c for c in WINDOW_CSV_HEADER if c not in (header or [])]
            raise DataError(f"unexpected window CSV header {header}; "
                            f"missing columns: {missing}")
        try:
            table = _loadtxt(fh, _WINDOW_CSV_DTYPE, ",")
        except ValueError as e:
            raise _window_csv_fault(path, e) from None
    n = table.size
    if n == 0:
        return []
    scene_ids, window_ids, steps = table["scene_id"], table["window_id"], table["frame_step"]
    cells = table["agent_id"].tolist()
    try:
        id_of = {cell: int(cell) for cell in set(cells)}
    except ValueError as e:
        raise _window_csv_fault(path, e) from None
    # an agent id need not fit in int64; agents sort by its rank
    agent_ids, agent = _ranks(list(map(id_of.__getitem__, cells)))
    del cells
    cls, t, is_future = table["class_index"], table["t"], table["is_future"]
    xy = np.stack((table["x"], table["y"]), axis=1)
    # (scene_id, window_id, frame_step) -> window number, in order of first
    # row, looked up for the first row of each run of rows with one key
    runs = np.flatnonzero(np.r_[True, (scene_ids[1:] != scene_ids[:-1])
                                | (window_ids[1:] != window_ids[:-1])
                                | (steps[1:] != steps[:-1])])
    run_keys = list(zip(scene_ids[runs].tolist(), window_ids[runs].tolist(),
                        steps[runs].tolist()))
    keys = dict.fromkeys(run_keys)
    for number, key in enumerate(keys):
        keys[key] = number
    window = np.repeat(np.fromiter(map(keys.__getitem__, run_keys), np.int64, runs.size),
                       np.diff(np.append(runs, n)))

    order = np.lexsort((t, agent, window))  # stable: duplicates keep file order
    window, agent, t, is_future, cls = (a[order] for a in (window, agent, t, is_future, cls))
    same_agent = np.zeros(n, dtype=bool)  # sorted row i continues row i-1's agent
    same_agent[1:] = (window[1:] == window[:-1]) & (agent[1:] == agent[:-1])
    starts = np.flatnonzero(~same_agent)  # each agent's first sorted row
    lengths = np.diff(np.append(starts, n))
    position = np.arange(n) - np.repeat(starts, lengths)

    def error(j, message):
        return _window_csv_error(path, order[j], f"window {window_ids[order[j]]!r} "
                                                 f"agent {agent_ids[agent[j]]}: {message}")

    row_checks = (
        (same_agent & (t == np.r_[0, t[:-1]]), "duplicate row for step {t}"),
        (t != position, "steps must run 0..T-1; found step {t} in place of step {i}"),
        ((is_future != 0) & (is_future != 1), "is_future must be 0 or 1"),
        (same_agent & (is_future < np.r_[0, is_future[:-1]]),
         "is_future goes from 1 back to 0 at step {t}"),
        (same_agent & (cls != np.r_[0, cls[:-1]]), "class_index changes at step {t}"),
    )
    for bad, message in row_checks:
        if bad.any():
            j = np.flatnonzero(bad)
            j = j[np.argmin(order[j])]  # the offending row that comes first in the file
            raise error(j, message.format(t=t[j], i=position[j]))

    observed = lengths - np.add.reduceat(is_future, starts)
    window_of = window[starts]
    first = np.flatnonzero(np.r_[True, window_of[1:] != window_of[:-1]])  # per window
    n_agents = np.diff(np.append(first, starts.size))
    longest = np.repeat(np.maximum.reduceat(lengths, first), n_agents)
    observed0 = np.repeat(observed[first], n_agents)
    agent_checks = (
        (lengths != longest, "has {L} steps where another agent of its window has {L0}"),
        (observed == 0, "has no observed step"),
        (observed != observed0,
         "has {obs} observed steps where another agent of its window has {obs0}"),
    )
    for bad, message in agent_checks:
        if bad.any():
            k = np.flatnonzero(bad)[0]
            raise error(starts[k] + lengths[k] - 1, message.format(
                L=lengths[k], L0=longest[k], obs=observed[k], obs0=observed0[k]))

    xy = xy[order]
    bad_xy = ~np.isfinite(xy).all(axis=1)
    bad_row = bad_xy | (cls < 0) | (cls >= N_CLASSES)
    first_bad = int(window[bad_row].min()) if bad_row.any() else -1
    ids, agent_cls = list(map(agent_ids.__getitem__, agent[starts].tolist())), cls[starts]
    starts, lengths, observed = starts.tolist(), lengths.tolist(), observed.tolist()
    windows = []
    for number, ((scene_id, window_id, frame_step), a0, count) in enumerate(
            zip(keys, first.tolist(), n_agents.tolist())):
        a1 = a0 + count
        span, n_obs = lengths[a0], observed[a0]
        pts = xy[starts[a0]:starts[a0] + count * span].reshape(count, span, 2)
        try:
            start = int(window_id[len(scene_id) + 1:])
        except ValueError:
            start = -1  # fails the check: int() reads "-1", not the id's tail
        if window_id != f"{scene_id}:{start}":
            raise _window_csv_error(path, int(order[window == number].min()), f"window "
                                    f"id {window_id!r} is not <scene_id>:<start frame>")
        if number == first_bad:  # checked after the window's id
            j = np.flatnonzero(bad_row & (window == number))
            j = j[np.argmin(order[j])]
            raise error(j, f"non-finite coordinates ({xy[j, 0]}, {xy[j, 1]})" if bad_xy[j]
                        else f"class index {cls[j]} out of range 0..{N_CLASSES - 1}")
        windows.append(_checked_window(scene_id, start, frame_step, tuple(ids[a0:a1]),
                                       agent_cls[a0:a1], pts[:, :n_obs].copy(),
                                       pts[:, n_obs:].copy()))
    return windows


def scan_annotation_dirs(root):
    """Find the <root>/<scene>/<video>/annotations.txt files of a dataset tree.

    Returns a sorted dict of scene id ("scene/video") to file path, for each
    video directory holding an entry of that name: a broken or looping link
    is listed too, so that reading it reports the fault.  A root or directory
    that cannot be listed, a scene or video directory name that is not
    UTF-8, or a tree without such files raises DataError.
    """
    found = {}
    try:
        for scene in sorted(os.listdir(root)):
            scene_dir = os.path.join(root, scene)
            if not os.path.isdir(scene_dir):
                continue
            for video in sorted(os.listdir(scene_dir)):
                path = os.path.join(scene_dir, video, "annotations.txt")
                if os.path.lexists(path):
                    scene_id = f"{scene}/{video}"
                    try:
                        scene_id.encode("utf-8")
                    except UnicodeEncodeError:
                        raise DataError(f"directory name is not UTF-8: "
                                        f"{os.fsencode(os.path.dirname(path))!r}") from None
                    found[scene_id] = path
    except OSError as err:  # from os.listdir, which names the directory
        raise DataError(f"cannot read directory {err.filename}: {err.strerror}") from err
    if not found:
        raise DataError(f"no annotation files under {root}; "
                        "expected layout: <root>/<scene>/<video>/annotations.txt")
    return found


class AnnotationTree(NamedTuple):
    """What load_annotation_dataset read besides the windows."""
    files: dict         # scene id -> annotation file path, as scan_annotation_dirs gives
    track_counts: dict  # class name -> tracks of that class, a gap-split track once a piece
    lines: int          # lines the files hold, blank and lost ones included
    agents: dict        # class name -> agents of that class: distinct (scene id, track id)
                        # pairs with a kept line


def load_annotation_dataset(root, stride=SUBSAMPLE_STRIDE, t_obs=T_OBS, t_pred=T_PRED):
    """Scene windows and an AnnotationTree from the tree under ``root``; a DataError
    from parsing a file or making its tracks starts ``annotation file <path>: ``.
    An agent counts under the class of its tracks, which all take it from the
    agent's first line."""
    files = scan_annotation_dirs(root)
    tracks_by_scene = {}
    track_counts = dict.fromkeys(CLASS_NAMES, 0)
    agents = dict.fromkeys(CLASS_NAMES, 0)
    lines = 0
    for scene_id, path in files.items():
        with open_text(path, "annotation file", DataError) as fh:
            try:
                annotations = parse_annotations(fh)
                tracks = build_tracks(annotations)
                tracks_by_scene[scene_id] = [subsample(t, stride) for t in tracks]
            except DataError as e:
                e.args = (f"annotation file {path}: {e}",)
                raise
        lines += annotations.n_lines
        for t in tracks:
            track_counts[t.class_name] += 1
        for name in {t.track_id: t.class_name for t in tracks}.values():
            agents[name] += 1
    return (build_windows(tracks_by_scene, t_obs, t_pred),
            AnnotationTree(files, track_counts, lines, agents))


def class_histogram(counts):
    """Percentage per class; sums to 100 when any counts are present."""
    total = sum(counts.values())
    if total == 0:
        return dict.fromkeys(counts, 0.0)
    return {k: 100.0 * v / total for k, v in counts.items()}
