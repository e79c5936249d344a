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
from dataclasses import dataclass, field
from itertools import chain, repeat
from math import inf, isfinite
from operator import ne

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


@dataclass
class AnnotationColumns:
    """The kept lines of an annotation text as columns, one entry per line:
    no object per line is left for the cyclic garbage collector to scan."""

    track_ids: list = field(default_factory=list)  # Python ints: may exceed int64
    frames: list = field(default_factory=list)     # Python ints: may exceed int64
    boxes: list = field(default_factory=list)      # floats: xmin, ymin, xmax, ymax per line
    tails: list = field(default_factory=list)      # (occluded, generated, label) per line
    n_lines: int = 0  # lines read, blank and lost ones included

    def __len__(self):
        return len(self.frames)


def parse_annotations(source):
    """Parse annotation text into AnnotationColumns, one entry per kept line.

    ``source`` is the file content as a string, split into lines as a
    text-mode file is (at LF, CR LF and CR only), or any iterable of lines.
    Labels may be quoted, in any case, or aliased (``LABEL_ALIASES``).
    Records flagged lost are dropped (out of view); occluded boxes are kept.
    A malformed line or an unknown label, lost lines included, raises
    AnnotationParseError (UnknownLabelError for the label) with the 1-based
    line number.  The first fault is reported, checked in this order: the
    field count, each field in turn, a non-finite bbox coordinate (``nan``,
    ``inf``), the bbox order, the label.
    """
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else source
    # A line's last four fields (lost, occluded, generated, label) take few
    # distinct spellings.  Each is split and converted at its first line and
    # cached as (lost, raw label, tail), label None in the tail when unknown;
    # later lines convert only their first six fields and share that tail.
    tails = {}
    out = AnnotationColumns()
    add_id, add_frame, add_tail = out.track_ids.append, out.frames.append, out.tails.append
    boxes = out.boxes
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
    out.n_lines = ln
    return out


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


def build_tracks(annotations):
    """Group AnnotationColumns into per-agent tracks of bbox centers.

    The frame and box columns become arrays in one pass each; a track takes
    its id and label from the columns at its first line.  A track is split
    wherever its annotated frames are not consecutive (out-of-view gaps left
    by dropped lost records), so every returned track has unit frame
    spacing.  Duplicate frames keep the first line.
    """
    n = len(annotations)
    if not n:
        return []
    track_ids = annotations.track_ids
    # ids sort by rank, so an id need not fit in int64
    rank = {tid: r for r, tid in enumerate(sorted(set(track_ids)))}
    ids = np.fromiter(map(rank.__getitem__, track_ids), np.int64, n)
    try:
        frames = np.fromiter(annotations.frames, np.int64, n)
    except OverflowError:
        raise DataError("an annotated frame lies outside the int64 range") from None
    boxes = np.fromiter(annotations.boxes, np.float64, 4 * n).reshape(n, 4)
    # stable: lines of one (track, frame) stay in input order, first one wins
    order = np.lexsort((frames, ids))
    ids, frames = ids[order], frames[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (ids[1:] != ids[:-1]) | (frames[1:] != frames[:-1])
    order, ids, frames = order[first], ids[first], frames[first]
    box = boxes[order]
    xy = np.empty((order.size, 2))
    xy[:, 0] = (box[:, 0] + box[:, 2]) / 2.0
    xy[:, 1] = (box[:, 1] + box[:, 3]) / 2.0
    new_id = ids[1:] != ids[:-1]
    cuts = np.flatnonzero(new_id | (frames[1:] - frames[:-1] != 1)) + 1
    bounds = [0, *cuts.tolist(), order.size]
    tracks = []
    for start, end in zip(bounds[:-1], bounds[1:]):
        if start == 0 or new_id[start - 1]:
            # every piece of a track takes the label of its first line
            i = order[start]
            track_id, label = track_ids[i], annotations.tails[i][2]
        tracks.append(AgentTrack(track_id, label, frames[start:end], xy[start:end]))
    return tracks


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
    return AgentTrack(track.track_id, track.class_name, frames, track.xy[keep])


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

WINDOW_CSV_HEADER = ["scene_id", "window_id", "agent_id", "class_index",
                     "t", "x", "y", "is_future", "frame_step"]


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
    csv_text once per window, and the numeric cells are formatted directly
    (``repr`` of each coordinate, which reads back exactly).
    """
    lines = [_csv_cells(WINDOW_CSV_HEADER) + "\r\n"]
    append = lines.append
    for win in windows:
        quoted_ids = _csv_cells((win.scene_id, win.window_id))
        t_obs, step = win.t_obs, win.frame_step
        for aid, cls, agent in zip(win.agent_ids, win.class_indices.tolist(),
                                   win.points().tolist()):
            head = f"{quoted_ids},{aid},{cls}"
            for t, (x, y) in enumerate(agent):
                append(f"{head},{t},{x!r},{y!r},{int(t >= t_obs)},{step}\r\n")
    write_atomic(path, "".join(lines))


_WINDOW_CSV_INTS = ("agent_id", "class_index", "t", "is_future", "frame_step")


def _window_csv_error(path, row, message):
    """DataError naming the 1-based line that ends data row ``row`` of a window CSV."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        for _ in range(row + 2):  # the header and rows 0..row
            next(reader)
        return DataError(f"line {reader.line_num}: {message}")


def _changes(cells):
    """Whether each cell differs from the one before it (the first does);
    comparing neighbours is cheaper than hashing every cell."""
    return np.r_[True, np.fromiter(map(ne, cells[1:], cells[:-1]), bool, len(cells) - 1)]


def _int_column(cells):
    """int64 array of integer cells, converting each distinct cell once (ids,
    steps and flags take few values)."""
    values = {cell: int(cell) for cell in set(cells)}
    return np.fromiter(map(values.__getitem__, cells), np.int64, len(cells))


def _first_bad_cell(cells):
    """(row, message) for the first numeric cell of the flattened rows that is
    not a number of its column's kind, or an integer that int64 cannot hold."""
    width = len(WINDOW_CSV_HEADER)
    for k, cell in enumerate(cells):
        name = WINDOW_CSV_HEADER[k % width]
        try:
            if name in _WINDOW_CSV_INTS:
                np.int64(int(cell))
            elif name in ("x", "y"):
                float(cell)
        except (ValueError, OverflowError):
            return k // width, f"{name} {cell!r} is not a valid number"
    raise AssertionError("every numeric cell converts")


def read_windows_csv(path):
    """Rebuild SceneWindows from a window CSV such as write_windows_csv writes.

    Rows may come in any order.  The rows that share ``scene_id``,
    ``window_id`` and ``frame_step`` make one window; windows come in the
    order of their first rows, agents by id and steps by ``t``.  Each agent
    of a window has exactly one row for each step ``0..T-1`` (a duplicate row
    is rejected), the same ``class_index`` on all of them, and ``is_future``
    0 on its first steps and 1 on the rest.  All agents of a window have the
    same ``T`` and the same number of observed steps, at least one.  A row
    that breaks this, or that has other than nine cells, a numeric cell that
    does not parse, a non-finite ``x`` or ``y`` or a ``class_index`` outside
    0..5, raises DataError naming its 1-based line; a window id other than
    ``<scene_id>:<start frame>``, the window's first line.  The last three
    faults are looked for window by window: a window's id first, then its
    first bad row in file order.

    Coordinates and classes are checked as stacked columns, once per file,
    so the windows are made without checking each one again.
    """
    width = len(WINDOW_CSV_HEADER)
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)

        def full_row(row):
            if len(row) != width:
                raise DataError(f"line {reader.line_num}: expected {width} cells, "
                                f"got {len(row)}")
            return row

        try:
            header = next(reader, None)
            if header != WINDOW_CSV_HEADER:
                missing = [c for c in WINDOW_CSV_HEADER if c not in (header or [])]
                raise DataError(f"unexpected window CSV header {header}; "
                                f"missing columns: {missing}")
            # flattened as they are read: keeping every row's list alive would
            # set off the cyclic garbage collector again and again
            cells = list(chain.from_iterable(map(full_row, reader)))
        except csv.Error as e:
            raise DataError(f"line {reader.line_num}: {e}") from None
        except UnicodeDecodeError as e:
            raise DataError(f"window CSV {path} is not UTF-8 text: {e}") from None
    n = len(cells) // width
    if n == 0:
        return []
    scene_ids, window_ids = cells[0::width], cells[1::width]
    try:
        agent, cls, t, is_future, steps = (_int_column(cells[col::width])
                                           for col in (2, 3, 4, 7, 8))
        xy = np.empty((n, 2))
        xy[:, 0] = np.fromiter(map(float, cells[5::width]), np.float64, n)
        xy[:, 1] = np.fromiter(map(float, cells[6::width]), np.float64, n)
    except (ValueError, OverflowError):
        raise _window_csv_error(path, *_first_bad_cell(cells)) from None
    del cells
    # (scene_id, window_id, frame_step) -> window number, in order of first
    # row, looked up for the first row of each run of rows with one key
    runs = np.flatnonzero(_changes(scene_ids) | _changes(window_ids)
                          | np.r_[True, steps[1:] != steps[:-1]])
    heads = runs.tolist()
    run_keys = list(zip(map(scene_ids.__getitem__, heads), map(window_ids.__getitem__, heads),
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
                                                 f"agent {agent[j]}: {message}")

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
    ids, agent_cls = agent[starts].tolist(), cls[starts]
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
    """Find scene_name/video_id/annotations.txt files under a dataset root.

    Returns a sorted dict of scene id ("scene/video") to file path; a scene
    or video directory name that is not UTF-8 raises DataError.
    """
    found = {}
    if not os.path.isdir(root):
        raise DataError(f"dataset root {root!r} is not a directory")
    for scene in sorted(os.listdir(root)):
        scene_dir = os.path.join(root, scene)
        if not os.path.isdir(scene_dir):
            continue
        for video in sorted(os.listdir(scene_dir)):
            path = os.path.join(scene_dir, video, "annotations.txt")
            if os.path.isfile(path):
                scene_id = f"{scene}/{video}"
                try:
                    scene_id.encode("utf-8")
                except UnicodeEncodeError:
                    raise DataError(f"directory name is not UTF-8: "
                                    f"{os.fsencode(os.path.dirname(path))!r}") from None
                found[scene_id] = path
    if not found:
        raise DataError(f"no scene_name/video_id/annotations.txt files under {root!r}")
    return found


def load_annotation_dataset(root, stride=SUBSAMPLE_STRIDE, t_obs=T_OBS, t_pred=T_PRED):
    """Parse a dataset directory into scene windows plus per-class track counts."""
    windows, track_counts, _ = load_annotation_files(scan_annotation_dirs(root), stride,
                                                     t_obs, t_pred)
    return windows, track_counts


def load_annotation_files(files, stride=SUBSAMPLE_STRIDE, t_obs=T_OBS, t_pred=T_PRED):
    """load_annotation_dataset on the files scan_annotation_dirs found; also
    returns the number of lines the files hold.  A DataError raised while a
    file loads starts ``annotation file <path>: `` and keeps its class."""
    tracks_by_scene = {}
    track_counts = dict.fromkeys(CLASS_NAMES, 0)
    lines = 0
    for scene_id, path in files.items():
        try:
            with open(path, encoding="utf-8-sig") as fh:
                annotations = parse_annotations(fh)
            lines += annotations.n_lines
            tracks = build_tracks(annotations)
            tracks_by_scene[scene_id] = [subsample(t, stride) for t in tracks]
        except UnicodeDecodeError as e:
            raise DataError(f"annotation file {path} is not UTF-8 text: {e}") from None
        except DataError as e:
            e.args = (f"annotation file {path}: {e}",)
            raise
        for t in tracks:
            track_counts[t.class_name] += 1
    return build_windows(tracks_by_scene, t_obs, t_pred), track_counts, lines


def class_histogram(counts):
    """Percentage per class; sums to 100 when any counts are present."""
    total = sum(counts.values())
    if total == 0:
        return dict.fromkeys(counts, 0.0)
    return {k: 100.0 * v / total for k, v in counts.items()}
