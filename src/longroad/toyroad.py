"""Procedural driving-like clip generator and dataset persistence.

Scenes are flat-shaded: sky over ground, a road band with dashed center line
and solid edge lines, rectangular vehicles in two lanes. Ego motion scrolls
the dash pattern downward by exactly `ego_speed` base-resolution pixels per
frame; left/right commands drift every road feature laterally. The scene is a
function of normalized coordinates, so the same spec rendered at two
resolutions depicts the same picture (renders integrate over pixel footprints
via supersampling).

Clip file layout (little-endian): magic "TOYR", u16 version=1, u16 H, u16 W,
u16 L, u8 C, u8 fps, u32 caption length + UTF-8 caption, L command bytes
(0=straight, 1=left, 2=right), then L*C*H*W raw pixel bytes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, DataError
from .fileio import atomic_write, input_errors, output_errors, read_binary, write_json
from .seeding import rng_for

MAGIC = b"TOYR"
VERSION = 1
# largest value each header field can hold (H, W and L are u16, C and fps u8)
HEADER_LIMITS = {"height": 0xFFFF, "width": 0xFFFF, "frames": 0xFFFF, "channels": 0xFF,
                 "fps": 0xFF}
CHANNELS = 3

STRAIGHT, LEFT, RIGHT = 0, 1, 2
COMMAND_NAMES = {STRAIGHT: "straight", LEFT: "left", RIGHT: "right"}

PALETTES = {
    "day": dict(sky=(0.53, 0.80, 0.92), ground=(0.42, 0.55, 0.35),
                road=(0.33, 0.33, 0.36), dash=(0.95, 0.95, 0.88), edge=(0.85, 0.85, 0.88)),
    "dusk": dict(sky=(0.88, 0.52, 0.34), ground=(0.30, 0.27, 0.24),
                 road=(0.28, 0.27, 0.31), dash=(0.93, 0.88, 0.68), edge=(0.78, 0.73, 0.68)),
    "night": dict(sky=(0.05, 0.06, 0.12), ground=(0.08, 0.09, 0.08),
                  road=(0.13, 0.13, 0.16), dash=(0.97, 0.94, 0.78), edge=(0.66, 0.66, 0.72)),
}

VEHICLE_COLORS = [(0.85, 0.15, 0.15), (0.15, 0.25, 0.85), (0.90, 0.90, 0.92),
                  (0.95, 0.75, 0.10)]

_HORIZON = 0.38
_ROAD_HALF = 0.22
_DASH_HALF = 0.012
_EDGE_HALF = 0.010
_DASH_PERIOD_PX = 8.0   # base-resolution pixels
_DASH_DUTY = 0.5
_TURN_PX_PER_FRAME = 1.0
_VEHICLE_W = 0.085
_VEHICLE_H = 0.075


@dataclass(frozen=True)
class Vehicle:
    lane: int          # -1 left lane, +1 right lane
    speed: float       # base-res pixels/frame along the road, relative scale
    color: int         # index into VEHICLE_COLORS
    spawn_frame: int


@dataclass(frozen=True)
class SceneSpec:
    """Everything the renderer needs; rendering is deterministic in
    (spec, h, w, l, fps)."""

    seed: int
    road_curvature: float                  # signed bend coefficient
    ego_speed: float                       # base-res pixels/frame
    vehicles: tuple[Vehicle, ...]
    palette: str
    command_track: np.ndarray              # per-frame command codes

    def __post_init__(self):
        if self.palette not in PALETTES:
            raise ContractError(f"unknown palette {self.palette!r}")
        object.__setattr__(self, "command_track",
                           np.asarray(self.command_track, dtype=np.uint8))


@dataclass
class ClipRecord:
    frames: np.ndarray   # uint8 (L, C, H, W)
    fps: int
    caption: str
    commands: np.ndarray  # uint8 (L,)


def random_scene(rng: np.random.Generator, track_len: int) -> SceneSpec:
    palette = ["day", "dusk", "night"][int(rng.integers(0, 3))]
    ego_speed = float(rng.integers(1, 4))
    curvature = float(rng.uniform(-0.12, 0.12))
    n_veh = int(rng.integers(0, 4))
    vehicles = tuple(
        Vehicle(lane=int(rng.choice([-1, 1])),
                speed=float(rng.uniform(0.0, ego_speed * 0.8)),
                color=int(rng.integers(0, len(VEHICLE_COLORS))),
                spawn_frame=int(rng.integers(0, max(1, track_len // 2))))
        for _ in range(n_veh)
    )
    # command track: runs of 8-24 frames, mostly straight
    track = np.zeros(track_len, dtype=np.uint8)
    pos = 0
    while pos < track_len:
        run = int(rng.integers(8, 25))
        cmd = int(rng.choice([STRAIGHT, STRAIGHT, STRAIGHT, LEFT, RIGHT]))
        track[pos:pos + run] = cmd
        pos += run
    seed = int(rng.integers(0, 2**31 - 1))
    return SceneSpec(seed=seed, road_curvature=curvature, ego_speed=ego_speed,
                     vehicles=vehicles, palette=palette, command_track=track)


def _lateral_offsets(spec: SceneSpec, l: int) -> np.ndarray:
    """Cumulative lateral drift in base-res pixels; left commands move scene
    features rightward in image space."""
    track = spec.command_track[:l].astype(np.int64)
    step = np.where(track == LEFT, 1.0, np.where(track == RIGHT, -1.0, 0.0))
    drift = np.concatenate([[0.0], np.cumsum(step)[:-1]]) * _TURN_PX_PER_FRAME
    return drift


def render_clip(spec: SceneSpec, h: int, w: int, l: int, fps: int,
                base_h: int | None = None, supersample: int = 4) -> ClipRecord:
    """Render `l` frames at (h, w). `base_h` anchors motion amounts in
    base-resolution pixels (defaults to h).

    Each frame is painted as a label map over the supersampled grid (one
    palette or vehicle colour index per sample, in painter's order) and
    box-filtered down by `_box_mean`."""
    if min(h, w, l, fps) <= 0:
        raise ContractError("render dims, frame count and fps must be positive")
    if supersample < 1 or (base_h is not None and base_h < 1):
        raise ContractError(f"supersample ({supersample}) and base_h ({base_h}) "
                            f"must be at least 1")
    if l > spec.command_track.shape[0]:
        raise DataError(
            f"scene command track has {spec.command_track.shape[0]} frames, need {l}"
        )
    base_h = base_h or h
    pal = PALETTES[spec.palette]
    colors = np.array([pal[k] for k in ("ground", "sky", "road", "edge", "dash")]
                      + VEHICLE_COLORS)
    ground, sky, road, edge, dash, first_vehicle = range(6)
    ss = supersample
    # pixel-center sample grid in normalized scene coordinates
    us = (np.arange(w * ss) + 0.5) / (w * ss)
    vs = (np.arange(h * ss) + 0.5) / (h * ss)
    u = us[None, :]
    top = int(np.searchsorted(vs, _HORIZON))  # rows from `top` on lie below it
    v = vs[top:, None]
    bend = spec.road_curvature * (v - _HORIZON) ** 2
    row_base_px = v * base_h
    lat = _lateral_offsets(spec, l)

    scene = np.empty((h * ss, w * ss), dtype=np.uint8)
    label = np.empty_like(scene)
    frames = np.empty((l, CHANNELS, h, w), dtype=np.uint8)
    for t in range(l):
        if t == 0 or lat[t] != lat[t - 1]:  # road and edges move only laterally
            center = 0.5 + lat[t] / base_h + bend
            scene[:top], scene[top:] = sky, ground
            scene[top:][np.abs(u - center) < _ROAD_HALF] = road
            for side in (-1.0, 1.0):
                scene[top:][np.abs(u - (center + side * _ROAD_HALF)) < _EDGE_HALF] = edge
            strip = np.abs(u - center) < _DASH_HALF
        label[:] = scene
        # dash phase advects down by exactly ego_speed base pixels per frame
        phase = (row_base_px - spec.ego_speed * t) / _DASH_PERIOD_PX
        label[top:][strip & (np.mod(phase, 1.0) < _DASH_DUTY)] = dash

        for veh in spec.vehicles:
            if t < veh.spawn_frame:
                continue
            age = t - veh.spawn_frame
            v_pos = _HORIZON + 0.1 + (spec.ego_speed - veh.speed) * age / base_h
            if v_pos > 1.0 + _VEHICLE_H:
                continue
            u_pos = 0.5 + lat[t] / base_h + veh.lane * _ROAD_HALF * 0.5 \
                + spec.road_curvature * (v_pos - _HORIZON) ** 2
            label[np.ix_(np.abs(vs - v_pos) < _VEHICLE_H / 2,
                         np.abs(us - u_pos) < _VEHICLE_W / 2)] = first_vehicle + veh.color

        coarse = _box_mean(label, colors, ss)
        frames[t] = np.clip(np.round(coarse * 255.0), 0, 255).astype(np.uint8)

    return ClipRecord(frames=frames, fps=fps, caption=generate_caption(spec, l),
                      commands=spec.command_track[:l].copy())


def _box_mean(label: np.ndarray, colors: np.ndarray, ss: int) -> np.ndarray:
    """Channel-first (3, h, w) mean of `colors[label]` over each ss x ss block
    of the (h * ss, w * ss) label map. The ss * ss samples are added one at a
    time in C order and the sum divided once, which must match
    `colors[label].reshape(h, ss, w, ss, 3).mean(axis=(1, 3))` bit for bit;
    like numpy's reduction, the sum starts from +0.0, so -0.0 colours give +0.0."""
    table = np.ascontiguousarray(colors.T)
    acc = 0.0 + np.take(table, label[::ss, ::ss], axis=1)
    for k in range(1, ss * ss):
        acc += np.take(table, label[k // ss::ss, k % ss::ss], axis=1)
    acc /= ss * ss
    return acc


# -- captions -----------------------------------------------------------------------


VOCAB = (
    ["<pad>", "front", "camera.", "day.", "dusk.", "night.", "vehicles.", "ego",
     "then", "straight", "left", "right", "straight.", "left.", "right."]
    + [str(i) for i in range(10)]
)
_TOKEN_IDS = {tok: i for i, tok in enumerate(VOCAB)}


def maneuver_summary(commands: np.ndarray) -> str:
    """Run-length distinct command names joined by 'then', capped at three."""
    names = []
    for c in np.asarray(commands):
        name = COMMAND_NAMES[int(c)]
        if not names or names[-1] != name:
            names.append(name)
        if len(names) == 3:
            break
    return " then ".join(names)


def generate_caption(spec: SceneSpec, l: int) -> str:
    n = min(len(spec.vehicles), 9)
    maneuver = maneuver_summary(spec.command_track[:l])
    return f"front camera. {spec.palette}. {n} vehicles. ego {maneuver}."


def encode_caption(caption: str) -> np.ndarray:
    ids = []
    for tok in caption.split(" "):
        if tok not in _TOKEN_IDS:
            raise DataError(f"caption token {tok!r} outside the closed vocabulary")
        ids.append(_TOKEN_IDS[tok])
    return np.asarray(ids, dtype=np.int64)


# -- persistence -----------------------------------------------------------------------


def _command_fault(commands: np.ndarray) -> tuple[int, str] | None:
    """The first frame of a nonempty command track whose byte is not a
    command (straight, left or right), and a message naming it; else None."""
    if commands.max() <= RIGHT:
        return None
    frame = int(np.argmax(commands > RIGHT))
    return frame, (f"frame {frame} has command byte {commands[frame]}, "
                   "need 0-2 (straight, left, right)")


def write_clip(record: ClipRecord, path) -> None:
    frames = np.asarray(record.frames)
    if frames.ndim != 4 or frames.shape[0] < 1:
        raise ContractError(f"need a (L, C, H, W) clip with L >= 1, got {frames.shape}")
    write_clip_chunks(path, frames.shape[1:], record.fps, record.caption,
                      record.commands, [frames])


def write_clip_chunks(path, frame_shape, fps: int, caption: str, commands,
                      chunks) -> None:
    """Write a clip whose uint8 pixels arrive as (n, C, H, W) chunks, so the
    whole clip never has to sit in memory. The header takes its frame count
    from `commands` (one byte per frame), and the chunks must add up to it.
    The file appears at `path` only once complete."""
    c, h, w = frame_shape
    if min(c, h, w) < 1:
        raise ContractError(f"need frames of at least 1 channel, row and column, got {(c, h, w)}")
    commands = np.asarray(commands, dtype=np.uint8)
    l = commands.shape[0] if commands.ndim == 1 else 0
    if l < 1:
        raise ContractError(f"need one command byte per frame, got {commands.shape}")
    fault = _command_fault(commands)
    if fault:
        raise ContractError(fault[1])
    caption = caption.encode("utf-8")
    if not caption:
        raise ContractError("caption must be nonempty")
    with atomic_write(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<HHHHBB", VERSION, h, w, l, c, fps))
        f.write(struct.pack("<I", len(caption)))
        f.write(caption)
        f.write(commands.tobytes())
        written = 0
        for chunk in chunks:
            chunk = np.ascontiguousarray(chunk)
            if chunk.dtype != np.uint8:
                raise ContractError(f"clip pixels must be uint8, got {chunk.dtype}")
            if chunk.ndim != 4 or chunk.shape[1:] != (c, h, w):
                raise ContractError(f"need (n, {c}, {h}, {w}) frames, got {chunk.shape}")
            written += chunk.shape[0]
            if written > l:
                break
            f.write(chunk.data)
        if written != l:
            raise ContractError(f"need one command byte per frame: {l} commands, "
                                f"{written} frames")


def read_clip(path) -> ClipRecord:
    with read_binary(path, "clip") as r:
        magic = r.take(min(4, r.size), "magic")  # too short for a magic: a bad one
        if magic != MAGIC:
            raise r.error(f"bad clip magic {magic!r}, expected {MAGIC!r}", 0)
        version, h, w, l, c, fps = r.unpack("<HHHHBB", "clip header")
        if version != VERSION:
            raise r.error(f"unsupported clip version {version}", 4)
        for size, name, at in ((h, "rows", 6), (w, "columns", 8), (l, "frames", 10),
                               (c, "channels", 12)):
            if size == 0:
                raise r.error(f"clip has 0 {name}", at)
        (cap_len,) = r.unpack("<I", "caption length")
        try:
            caption = r.take(cap_len, "caption").decode("utf-8")
        except UnicodeDecodeError as e:
            raise r.error("caption is not valid UTF-8", r.pos - cap_len + e.start)
        at = r.pos
        commands = r.array(np.uint8, l, "command track")
        fault = _command_fault(commands)
        if fault:
            raise r.error(fault[1], at + fault[0])
        need = l * c * h * w
        frames = r.array(np.uint8, need, f"pixel payload, need {need} bytes")
    return ClipRecord(frames=frames.reshape(l, c, h, w), fps=fps, caption=caption,
                      commands=commands)


# -- dataset -----------------------------------------------------------------------------


def scene_for_clip(dataset_seed: int, index: int, track_len: int) -> SceneSpec:
    return random_scene(rng_for(dataset_seed, "dataset", index), track_len)


def generate_dataset(out_dir, clips: int, frames: int, height: int, width: int,
                     fps: int, seed: int, extra_manifest: dict | None = None) -> Path:
    out = Path(out_dir)
    with output_errors(out):
        out.mkdir(parents=True, exist_ok=True)
    for i in range(clips):
        spec = scene_for_clip(seed, i, frames)
        record = render_clip(spec, height, width, frames, fps)
        write_clip(record, out / f"clip_{i:04d}.toyr")
    manifest = {
        "clips": clips, "frames": frames, "height": height, "width": width,
        "fps": fps, "channels": CHANNELS, "seed": seed,
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    write_json(out / "manifest.json", manifest)
    return out


def to_model_space(frames_u8: np.ndarray) -> np.ndarray:
    """uint8 pixels -> float32 in [-1, 1], in one new array."""
    out = frames_u8.astype(np.float32)
    out /= 127.5
    out -= 1.0
    return out


def to_pixel_space(frames: np.ndarray) -> np.ndarray:
    """float frames in [-1, 1] -> uint8 pixels."""
    return np.clip(np.round((frames + 1.0) * 127.5), 0, 255).astype(np.uint8)


# manifest keys a dataset reads; all are integers
_MANIFEST_KEYS = ("clips", "frames", "height", "width", "fps", "seed")


def _read_manifest(path: Path) -> dict:
    with input_errors(path, "manifest"):
        raw = path.read_bytes()
    try:
        manifest = json.loads(raw)
    except ValueError as e:  # bad JSON or bad UTF-8
        raise DataError(f"manifest {path} is not valid JSON: {e}") from e
    if not isinstance(manifest, dict):
        raise DataError(f"manifest {path} must be a JSON object")
    for key in _MANIFEST_KEYS:
        if key not in manifest:
            raise DataError(f"manifest {path} lacks key {key!r}")
        value, lowest = manifest[key], 0 if key == "seed" else 1
        if not isinstance(value, int) or isinstance(value, bool) or value < lowest:
            raise DataError(f"manifest {path}: {key!r} must be an integer >= {lowest}, "
                            f"got {value!r}")
    return manifest


class ClipDataset:
    """A directory of .toyr clips plus its manifest; can re-render any clip at
    a scaled resolution straight from the underlying scene."""

    def __init__(self, path):
        self.root = Path(path)
        self.manifest = _read_manifest(self.root / "manifest.json")
        self.paths = sorted(self.root.glob("*.toyr"))
        if len(self.paths) != self.manifest["clips"]:
            raise DataError(
                f"manifest promises {self.manifest['clips']} clips, found {len(self.paths)}"
            )
        self._records: dict[int, ClipRecord] = {}
        self._scaled: dict[tuple[int, int], np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.paths)

    def record(self, i: int) -> ClipRecord:
        """Clip i, whose frames, channels, size and fps must be the manifest's."""
        if i not in self._records:
            rec, m = read_clip(self.paths[i]), self.manifest
            bad = [f"{what} {got}, manifest {want}" for what, got, want in zip(
                ("frames", "channels", "height", "width", "fps"), rec.frames.shape + (rec.fps,),
                (m["frames"], CHANNELS, m["height"], m["width"], m["fps"])) if got != want]
            if bad:
                raise DataError(f"clip {self.paths[i]} does not match the dataset: "
                                + "; ".join(bad))
            self._records[i] = rec
        return self._records[i]

    def scene(self, i: int) -> SceneSpec:
        return scene_for_clip(self.manifest["seed"], i, self.manifest["frames"])

    def pixels_at_scale(self, i: int, alpha: int) -> np.ndarray:
        """Full clip at (base_h * alpha, base_w * alpha), uint8 pixels; cached,
        a quarter of the size of its model-space floats."""
        key = (i, alpha)
        if key not in self._scaled:
            m = self.manifest
            if alpha == 1:
                frames = self.record(i).frames
            else:
                frames = render_clip(self.scene(i), m["height"] * alpha,
                                     m["width"] * alpha, m["frames"], m["fps"],
                                     base_h=m["height"]).frames
            self._scaled[key] = frames
        return self._scaled[key]

    def rendered_at_scale(self, i: int, alpha: int) -> np.ndarray:
        """`pixels_at_scale` in model space, converted on each call."""
        return to_model_space(self.pixels_at_scale(i, alpha))
