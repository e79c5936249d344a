"""Seeded benchmark inputs, generated here and not by the program under test.

Scene windows are built from numpy arrays and handed to the program as
``trajgan.data.SceneWindow`` objects.  The annotation tree is written as
drone-format text; alongside it this module computes, independently of the
program's parser, the windows and agents the parser must recover from it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

T_OBS = 8
T_PRED = 12
SPAN = T_OBS + T_PRED

# displacement per 2.5 Hz step, in pixels
SPEEDS = {
    "pedestrian": 4.0,
    "skateboarder": 5.0,
    "bicyclist": 8.0,
    "golf cart": 13.0,
    "bus": 16.0,
    "car": 18.0,
}
ALL_CLASSES = ("pedestrian", "bicyclist", "skateboarder", "golf cart", "car", "bus")


def _windows(data, scene_id, points, classes):
    """Wrap (n_windows, n_agents, SPAN, 2) points as SceneWindows."""
    cls = np.array([data.class_index(c) for c in classes])
    return [data.SceneWindow(scene_id, w * SPAN, 1, tuple(range(len(classes))), cls,
                             pts[:, :T_OBS], pts[:, T_OBS:])
            for w, pts in enumerate(points)]


def turn_windows(data, seed, n_windows, classes, jitter=0.05):
    """Agents on independent constant-turn-rate arcs with class speeds."""
    rng = np.random.default_rng([seed, 11])
    n = len(classes)
    pts = np.empty((n_windows, n, SPAN, 2))
    for w in range(n_windows):
        for i, c in enumerate(classes):
            v = SPEEDS[c] * rng.uniform(0.8, 1.2)
            heading = rng.uniform(0.0, 2.0 * np.pi)
            rate = rng.uniform(-0.15, 0.15)
            angles = heading + rate * np.arange(SPAN - 1)
            steps = v * np.stack([np.cos(angles), np.sin(angles)], axis=1)
            start = rng.uniform(0.0, 200.0, 2)
            pts[w, i, 0] = start
            pts[w, i, 1:] = start + np.cumsum(steps, axis=0)
    pts += rng.normal(0.0, jitter, pts.shape)
    return _windows(data, f"turn-{seed}", pts, classes)


def roundabout_windows(data, seed, n_windows, classes, jitter=0.05):
    """Agents circling one shared centre per window, each on its own lane radius."""
    rng = np.random.default_rng([seed, 12])
    n = len(classes)
    t = np.arange(SPAN)
    pts = np.empty((n_windows, n, SPAN, 2))
    for w in range(n_windows):
        centre = rng.uniform(100.0, 300.0, 2)
        for i, c in enumerate(classes):
            radius = rng.uniform(20.0, 60.0)
            omega = SPEEDS[c] * rng.uniform(0.8, 1.2) / radius
            phi = rng.uniform(0.0, 2.0 * np.pi) + omega * t
            pts[w, i, :, 0] = centre[0] + radius * np.cos(phi)
            pts[w, i, :, 1] = centre[1] + radius * np.sin(phi)
    pts += rng.normal(0.0, jitter, pts.shape)
    return _windows(data, f"roundabout-{seed}", pts, classes)


# ---------------------------------------------------------------------------
# drone-format annotation tree
#
# One video is VIDEO_FRAMES long.  Its tracks are agents crossing a square
# view of VIEW_PX on chords of 700-1400 px at their class speed, so a track
# lasts as long as that crossing takes (525-4200 frames, 18-140 s) and is
# annotated on every frame of it.  Tracks are added until IN_VIEW agents are
# in view per frame on average.  Both the per-line parse cost and the
# per-line cost of window building (start frames x tracks of the video) and
# of the window CSV (each sub-sampled point lands in up to 20 windows)
# follow from these lengths.

FRAME_RATE_STRIDE = 12          # 30 Hz annotations, 2.5 Hz windows
WINDOW_FRAMES = (SPAN - 1) * FRAME_RATE_STRIDE
VIDEO_FRAMES = 7200             # four minutes at 30 Hz
VIEW_PX = 1400
CHORDS_PX = (1400, 700, 1200, 900, 1050)
IN_VIEW = 3
LOST_SHARE = 0.002
# label spellings as they appear in the dataset; the parser maps aliases
LABEL_SPELLINGS = {
    "pedestrian": ("Pedestrian", "pedestrian"),
    "bicyclist": ("Biker", "bicyclist"),
    "skateboarder": ("Skater", "Skateboarder"),
    "golf cart": ("Cart", "Golf Cart"),
    "car": ("Car",),
    "bus": ("Bus",),
}
BOX_SIZE = {"pedestrian": 18, "skateboarder": 20, "bicyclist": 24,
            "golf cart": 40, "car": 46, "bus": 90}


def video_plan():
    """(class, frames) of every track of a video.  The plan does not depend on
    the seed, so every video has the same number of lines and the same mix."""
    plan, lines = [], 0
    while lines < IN_VIEW * VIDEO_FRAMES:
        j = len(plan)
        cls = ALL_CLASSES[j % len(ALL_CLASSES)]
        length = round(CHORDS_PX[j % len(CHORDS_PX)] * FRAME_RATE_STRIDE / SPEEDS[cls])
        plan.append((cls, length))
        lines += length
    return plan


@dataclass
class AnnotationRoot:
    """One dataset root (``<root>/<scene>/<video>/annotations.txt``) and what
    the parser must recover from it."""

    path: str
    n_lines: int
    # (scene_id, start_frame) -> {track_id: (class name, (SPAN, 2) points)}
    expected: dict = field(default_factory=dict)

    @property
    def n_windows(self):
        return len(self.expected)

    @property
    def n_agents(self):
        return sum(len(v) for v in self.expected.values())


def _track_lines(rng, tid, cls, start, length, lost, label):
    """Lines for one track crossing the view, plus the exact bbox centre of
    every frame."""
    v = SPEEDS[cls] / FRAME_RATE_STRIDE
    heading = rng.uniform(0.0, 2.0 * np.pi) \
        + np.cumsum(rng.normal(0.0, 0.002, length))
    entry = VIEW_PX / 2 - v * length / 2 * np.array([np.cos(heading[0]), np.sin(heading[0])])
    xy = entry + rng.uniform(-100.0, 100.0, 2) \
        + np.cumsum(v * np.stack([np.cos(heading), np.sin(heading)], axis=1), axis=0)
    size = BOX_SIZE[cls]
    lo = np.rint(xy).astype(np.int64) - size // 2
    hi = lo + size
    centres = (lo + hi) / 2.0
    occluded = rng.random(length) < 0.05
    generated = rng.random(length) < 0.3
    lines = [f'{tid} {lo[i, 0]} {lo[i, 1]} {hi[i, 0]} {hi[i, 1]} {start + i} '
             f'{int(i in lost)} {int(occluded[i])} {int(generated[i])} "{label}"'
             for i in range(length)]
    return lines, centres


def _expected_windows(expected, scene_id, tid, cls, start, length, lost, centres):
    """Windows a track fills: lost records cut it into gap-free pieces, and a
    piece covers a window when it holds all 20 subsampled frames of it."""
    lo = 0
    for hi in sorted(lost) + [length]:
        # piece spans frame offsets [lo, hi)
        first = start + lo
        s = first + (-first) % FRAME_RATE_STRIDE
        while s + WINDOW_FRAMES <= start + hi - 1:
            rows = np.arange(s - start, s - start + WINDOW_FRAMES + 1, FRAME_RATE_STRIDE)
            expected.setdefault((scene_id, s), {})[tid] = (cls, centres[rows])
            s += FRAME_RATE_STRIDE
        lo = hi + 1


def write_annotation_root(path, seed, index):
    """Write dataset root ``index`` of ``seed``: one video of ``video_plan()``
    tracks.

    Tracks start at seeded frames and positions; ``LOST_SHARE`` of all lines,
    drawn strictly inside tracks, are flagged lost and split their tracks.
    """
    rng = np.random.default_rng([seed, 13, index])
    root = AnnotationRoot(path, 0)
    scene, video = "scene0", "video0"
    scene_id = f"{scene}/{video}"
    plan = video_plan()
    n_lines = sum(length for _, length in plan)
    inner = [(tid, i) for tid, (_, length) in enumerate(plan) for i in range(1, length - 1)]
    lost = {}
    for j in rng.choice(len(inner), size=round(LOST_SHARE * n_lines), replace=False):
        tid, i = inner[j]
        lost.setdefault(tid, set()).add(i)
    text = []
    for tid, (cls, length) in enumerate(plan):
        start = int(rng.integers(0, VIDEO_FRAMES - length + 1))
        spellings = LABEL_SPELLINGS[cls]
        label = spellings[rng.integers(len(spellings))]
        cuts = lost.get(tid, set())
        lines, centres = _track_lines(rng, tid, cls, start, length, cuts, label)
        text.extend(lines)
        _expected_windows(root.expected, scene_id, tid, cls, start, length, cuts, centres)
    folder = os.path.join(path, scene, video)
    os.makedirs(folder)
    with open(os.path.join(folder, "annotations.txt"), "w") as fh:
        fh.write("\n".join(text) + "\n")
    root.n_lines = n_lines
    return root
