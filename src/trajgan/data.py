"""Trajectory data pipeline: annotation parsing, windowing, splits, synthesis.

Annotations follow the drone-footage format, one box per line:

    track_id xmin ymin xmax ymax frame lost occluded generated "label"

Trajectories are bounding-box centers in pixels.  Tracks are cut into
fixed-length scene windows (8 observed + 12 future positions by default) in
which every included agent is present at all 20 frames.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field

import numpy as np

CLASS_NAMES = ("bicyclist", "bus", "car", "golf cart", "pedestrian", "skateboarder")
N_CLASSES = len(CLASS_NAMES)

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


def normalize_label(name, class_vocab=CLASS_NAMES):
    key = name.strip().lower()
    key = LABEL_ALIASES.get(key, key)
    if key not in class_vocab:
        return None
    return key


def one_hot(idx, n=N_CLASSES):
    v = np.zeros(n)
    v[idx] = 1.0
    return v


@dataclass(frozen=True)
class RawAnnotation:
    track_id: int
    bbox: tuple  # (xmin, ymin, xmax, ymax)
    frame: int
    occluded: bool
    generated: bool
    label: str  # canonical class name


def parse_annotations(source, class_vocab=CLASS_NAMES):
    """Parse annotation text into RawAnnotations.

    ``source`` is the file content as a string or any iterable of lines.
    Records flagged lost are dropped (out of view); occluded boxes are kept.
    Malformed lines and unknown labels raise with the 1-based line number.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    out = []
    for ln, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(None, 9)
        if len(parts) != 10:
            raise AnnotationParseError(f"expected 10 fields, got {len(parts)}", ln)
        try:
            track_id = int(parts[0])
            bbox = tuple(float(p) for p in parts[1:5])
            frame = int(parts[5])
            lost, occluded, generated = (bool(int(p)) for p in parts[6:9])
        except ValueError as e:
            raise AnnotationParseError(str(e), ln) from None
        if bbox[0] > bbox[2] or bbox[1] > bbox[3]:
            raise AnnotationParseError(f"bbox not ordered: {bbox}", ln)
        raw_label = parts[9].strip().strip('"')
        label = normalize_label(raw_label, class_vocab)
        if label is None:
            raise UnknownLabelError(f"unknown class label {raw_label!r}", ln)
        if lost:
            continue
        out.append(RawAnnotation(track_id, bbox, frame, occluded, generated, label))
    return out


def serialize_annotations(annotations):
    """Inverse of parse_annotations on well-formed records, written as not lost."""
    lines = []
    for a in annotations:
        bbox = " ".join(repr(float(v)) for v in a.bbox)
        lines.append(f'{a.track_id} {bbox} {a.frame} 0 '
                     f'{int(a.occluded)} {int(a.generated)} "{a.label}"')
    return "\n".join(lines) + ("\n" if lines else "")


def bbox_center(bbox):
    xmin, ymin, xmax, ymax = bbox
    return ((xmin + xmax) / 2.0, (ymin + ymax) / 2.0)


@dataclass
class AgentTrack:
    """One agent's consecutive positions: frames strictly increasing."""

    track_id: int
    class_name: str
    frames: np.ndarray  # (T,) int64
    xy: np.ndarray      # (T, 2) float64

    def __post_init__(self):
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
    """Group annotations into per-agent tracks of bbox centers.

    A track is split wherever its annotated frames are not consecutive
    (out-of-view gaps left by dropped lost records), so every returned track
    has unit frame spacing.  Duplicate frames keep the first record.
    """
    by_id = {}
    for a in annotations:
        by_id.setdefault(a.track_id, []).append(a)
    tracks = []
    for tid in sorted(by_id):
        rows = sorted(by_id[tid], key=lambda a: a.frame)
        seen = set()
        frames, pts = [], []
        label = rows[0].label
        for a in rows:
            if a.frame in seen:
                continue
            seen.add(a.frame)
            frames.append(a.frame)
            pts.append(bbox_center(a.bbox))
        frames = np.asarray(frames, dtype=np.int64)
        pts = np.asarray(pts)
        cuts = np.flatnonzero(np.diff(frames) != 1)
        start = 0
        for cut in list(cuts) + [frames.size - 1]:
            end = cut + 1
            tracks.append(AgentTrack(tid, label, frames[start:end], pts[start:end]))
            start = end
    return [t for t in tracks if len(t) > 0]


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
        if not (np.all(np.isfinite(self.observed)) and np.all(np.isfinite(self.future))):
            raise DataError("non-finite coordinates in window")
        if np.any(self.class_indices < 0) or np.any(self.class_indices >= N_CLASSES):
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
        return np.eye(N_CLASSES)[self.class_indices]

    def points(self):
        """(N, t_obs + t_pred, 2) concatenated observed and future."""
        return np.concatenate([self.observed, self.future], axis=1)


def build_windows(tracks_by_scene, t_obs=T_OBS, t_pred=T_PRED):
    """Slide a (t_obs + t_pred)-frame window over each scene, stride one frame.

    ``tracks_by_scene`` maps scene id to subsampled tracks.  A window is
    emitted for every start frame at which at least one agent covers the full
    span; all covering agents are included, ordered by track id.
    """
    span = t_obs + t_pred
    windows = []
    for scene_id in sorted(tracks_by_scene):
        tracks = tracks_by_scene[scene_id]
        steps = {int(d) for t in tracks for d in np.diff(t.frames)}
        if len(steps) > 1:
            raise DataError(f"scene {scene_id}: inconsistent frame steps {sorted(steps)}")
        step = steps.pop() if steps else 1
        frame_to_row = [dict(zip(t.frames.tolist(), range(len(t)))) for t in tracks]
        all_frames = sorted({int(f) for t in tracks for f in t.frames})
        for start in all_frames:
            span_frames = [start + i * step for i in range(span)]
            members = []
            for ti, t in enumerate(tracks):
                rows = frame_to_row[ti]
                if all(f in rows for f in span_frames):
                    members.append((t.track_id, ti, rows[start]))
            if not members:
                continue
            members.sort()
            ids, cls, obs, fut = [], [], [], []
            for tid, ti, row0 in members:
                t = tracks[ti]
                pts = t.xy[row0:row0 + span]
                ids.append(tid)
                cls.append(t.class_idx)
                obs.append(pts[:t_obs])
                fut.append(pts[t_obs:])
            windows.append(SceneWindow(scene_id, start, step, tuple(ids),
                                       np.array(cls), np.array(obs), np.array(fut)))
    return windows


@dataclass
class DatasetSplit:
    train: list = field(default_factory=list)
    val: list = field(default_factory=list)
    test: list = field(default_factory=list)

    def __iter__(self):
        return iter((self.train, self.val, self.test))


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
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_windows_csv(windows, path):
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(WINDOW_CSV_HEADER)
    for win in windows:
        pts = win.points()
        for ai, aid in enumerate(win.agent_ids):
            for t in range(pts.shape[1]):
                w.writerow([win.scene_id, win.window_id, aid,
                            int(win.class_indices[ai]), t,
                            repr(float(pts[ai, t, 0])), repr(float(pts[ai, t, 1])),
                            int(t >= win.t_obs), win.frame_step])
    write_atomic(path, out.getvalue())


def read_windows_csv(path):
    """Rebuild SceneWindows from the CSV produced by write_windows_csv."""
    groups = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != WINDOW_CSV_HEADER:
            missing = [c for c in WINDOW_CSV_HEADER if c not in (header or [])]
            raise DataError(f"unexpected window CSV header {header}; "
                            f"missing columns: {missing}")
        for row in reader:
            key = (row[0], row[1], int(row[8]))
            agent = groups.setdefault(key, {}).setdefault(
                int(row[2]), {"class": int(row[3]), "pts": {}})
            agent["pts"][int(row[4])] = (float(row[5]), float(row[6]), int(row[7]))
    windows = []
    for (scene_id, window_id, frame_step), agents in groups.items():
        ids = sorted(agents)
        cls, obs, fut = [], [], []
        for aid in ids:
            rec = agents[aid]
            ts = sorted(rec["pts"])
            pts = np.array([[rec["pts"][t][0], rec["pts"][t][1]] for t in ts])
            n_obs = sum(1 for t in ts if rec["pts"][t][2] == 0)
            cls.append(rec["class"])
            obs.append(pts[:n_obs])
            fut.append(pts[n_obs:])
        try:
            start = int(window_id.rsplit(":", 1)[1])
        except (IndexError, ValueError):
            start = 0
        windows.append(SceneWindow(scene_id, start, frame_step, tuple(ids), np.array(cls),
                                   np.array(obs), np.array(fut)))
    return windows


def scan_annotation_dirs(root):
    """Find scene_name/video_id/annotations.txt files under a dataset root.

    Returns a sorted dict of scene id ("scene/video") to file path.
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
                found[f"{scene}/{video}"] = path
    if not found:
        raise DataError(f"no scene_name/video_id/annotations.txt files under {root!r}")
    return found


def load_annotation_dataset(root, stride=SUBSAMPLE_STRIDE, t_obs=T_OBS, t_pred=T_PRED,
                            class_vocab=CLASS_NAMES):
    """Parse a dataset directory into scene windows plus per-class track counts."""
    return load_annotation_files(scan_annotation_dirs(root), stride, t_obs, t_pred,
                                 class_vocab)


def load_annotation_files(files, stride=SUBSAMPLE_STRIDE, t_obs=T_OBS, t_pred=T_PRED,
                          class_vocab=CLASS_NAMES):
    """load_annotation_dataset on the files scan_annotation_dirs found."""
    tracks_by_scene = {}
    track_counts = dict.fromkeys(CLASS_NAMES, 0)
    for scene_id, path in files.items():
        with open(path) as fh:
            annotations = parse_annotations(fh, class_vocab)
        tracks = build_tracks(annotations)
        for t in tracks:
            track_counts[t.class_name] += 1
        subs = [subsample(t, stride) for t in tracks]
        tracks_by_scene[scene_id] = [t for t in subs if len(t) > 0]
    return build_windows(tracks_by_scene, t_obs, t_pred), track_counts


def class_histogram(counts):
    """Percentage per class; sums to 100 when any counts are present."""
    total = sum(counts.values())
    if total == 0:
        return dict.fromkeys(counts, 0.0)
    return {k: 100.0 * v / total for k, v in counts.items()}
