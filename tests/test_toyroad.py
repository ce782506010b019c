import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from longroad import metrics as M
from longroad import toyroad as R
from longroad.errors import ContractError, DataError, FormatError


def plain_scene(ego_speed=0.0, commands=None, vehicles=(), palette="day",
                curvature=0.0, track_len=32):
    track = np.zeros(track_len, dtype=np.uint8) if commands is None else np.asarray(commands)
    return R.SceneSpec(seed=7, road_curvature=curvature, ego_speed=ego_speed,
                       vehicles=tuple(vehicles), palette=palette, command_track=track)


class TestRenderer:
    def test_static_scene_identical_frames(self):
        rec = R.render_clip(plain_scene(ego_speed=0.0), 32, 48, 6, 10)
        for t in range(1, 6):
            assert rec.frames[t].tobytes() == rec.frames[0].tobytes()

    def test_dash_advection_matches_ego_speed(self):
        speed = 2
        rec = R.render_clip(plain_scene(ego_speed=float(speed), track_len=16), 32, 48, 8, 10)
        col = rec.frames[:, :, :, 24].astype(np.int64)  # dash column, (L, C, H)
        interior = slice(16, 30)
        for t in range(7):
            # pattern at row y in frame t+1 equals frame t at row y - speed
            errs = []
            for s in range(0, 5):
                shifted = col[t, :, interior.start - s:interior.stop - s]
                errs.append(np.abs(col[t + 1, :, interior] - shifted).sum())
            assert int(np.argmin(errs)) == speed

    def test_left_command_moves_features_rightward(self):
        # detected through the metrics module's block-matching flow
        commands = np.full(16, R.LEFT, dtype=np.uint8)
        rec = R.render_clip(plain_scene(ego_speed=1.0, commands=commands), 32, 48, 10, 10)
        cfg = M.MetricConfig(search_radius=3, block=8)
        road = rec.frames[:, :, 14:30, :]  # below-horizon strip
        us = []
        for t in range(9):
            flow = M.estimate_flow(road[t], road[t + 1], cfg)
            us.append(flow.u[~flow.occlusion].mean())
        assert np.mean(us) > 0.2

    def test_vehicles_render_and_despawn(self):
        veh = R.Vehicle(lane=1, speed=0.0, color=0, spawn_frame=2)
        rec = R.render_clip(plain_scene(ego_speed=2.0, vehicles=[veh], track_len=40), 32, 48, 30, 10)
        assert rec.frames[0].tobytes() != rec.frames[5].tobytes()

    def test_determinism(self):
        spec = R.random_scene(np.random.default_rng(5), 32)
        a = R.render_clip(spec, 32, 48, 8, 10)
        b = R.render_clip(spec, 32, 48, 8, 10)
        assert a.frames.tobytes() == b.frames.tobytes()

    def test_resolution_consistency(self):
        spec = R.random_scene(np.random.default_rng(3), 32)
        lo = R.render_clip(spec, 32, 48, 6, 10).frames.astype(np.float64)
        hi = R.render_clip(spec, 64, 96, 6, 10, base_h=32).frames.astype(np.float64)
        pooled = hi.reshape(6, 3, 32, 2, 48, 2).mean(axis=(3, 5))
        mae = np.abs(pooled - lo).mean() / 255.0
        assert mae <= 4.0 / 255.0

    def test_bad_dims(self):
        with pytest.raises(ContractError):
            R.render_clip(plain_scene(), 0, 48, 4, 10)

    def test_unknown_palette(self):
        with pytest.raises(ContractError, match="unknown palette 'noon'"):
            plain_scene(palette="noon")

    @pytest.mark.parametrize("kwargs", [{"supersample": 0}, {"supersample": -1},
                                        {"base_h": 0}, {"base_h": -32}])
    def test_bad_supersample_or_base_h(self, kwargs):
        # supersample 0 used to give black frames, -1 a bare ValueError and a
        # negative base_h a mirrored scene
        with pytest.raises(ContractError):
            R.render_clip(plain_scene(), 16, 24, 4, 10, **kwargs)

    def test_track_too_short(self):
        with pytest.raises(DataError):
            R.render_clip(plain_scene(track_len=4), 32, 48, 10, 10)


def oracle_render_clip(spec, h, w, l, fps, base_h=None, supersample=4):
    """The renderer that painted float RGB images and box-filtered them with
    `mean`, kept as the reference for the label-map renderer's bytes."""
    base_h = base_h or h
    pal = R.PALETTES[spec.palette]
    ss = supersample
    # pixel-center sample grid in normalized scene coordinates
    us = (np.arange(w * ss) + 0.5) / (w * ss)
    vs = (np.arange(h * ss) + 0.5) / (h * ss)
    u = us[None, :]
    v = vs[:, None]
    lat = R._lateral_offsets(spec, l)

    frames = np.empty((l, R.CHANNELS, h, w), dtype=np.uint8)
    for t in range(l):
        img = np.empty((h * ss, w * ss, 3), dtype=np.float64)
        img[:] = pal["ground"]
        img[vs < R._HORIZON, :] = pal["sky"]

        center = 0.5 + lat[t] / base_h + spec.road_curvature * (v - R._HORIZON) ** 2
        below = v >= R._HORIZON
        road = below & (np.abs(u - center) < R._ROAD_HALF)
        img[road] = pal["road"]

        for side in (-1.0, 1.0):
            edge = below & (np.abs(u - (center + side * R._ROAD_HALF)) < R._EDGE_HALF)
            img[edge] = pal["edge"]

        # dash phase advects down by exactly ego_speed base pixels per frame
        row_base_px = v * base_h
        phase = (row_base_px - spec.ego_speed * t) / R._DASH_PERIOD_PX
        dash_on = np.mod(phase, 1.0) < R._DASH_DUTY
        dash = below & (np.abs(u - center) < R._DASH_HALF) & dash_on
        img[dash] = pal["dash"]

        for veh in spec.vehicles:
            if t < veh.spawn_frame:
                continue
            age = t - veh.spawn_frame
            v_pos = R._HORIZON + 0.1 + (spec.ego_speed - veh.speed) * age / base_h
            if v_pos > 1.0 + R._VEHICLE_H:
                continue
            u_pos = 0.5 + lat[t] / base_h + veh.lane * R._ROAD_HALF * 0.5 \
                + spec.road_curvature * (v_pos - R._HORIZON) ** 2
            box = (np.abs(u - u_pos) < R._VEHICLE_W / 2) & (np.abs(v - v_pos) < R._VEHICLE_H / 2)
            img[box] = R.VEHICLE_COLORS[veh.color]

        coarse = img.reshape(h, ss, w, ss, 3).mean(axis=(1, 3))
        frames[t] = np.clip(np.round(coarse * 255.0), 0, 255).astype(np.uint8).transpose(2, 0, 1)
    return frames


@st.composite
def box_mean_cases(draw):
    """(label map, float64 colour table, ss) with any finite colours."""
    h, w, ss = (draw(st.integers(1, n)) for n in (9, 9, 5))
    colors = draw(hnp.arrays(np.float64, (draw(st.integers(1, 12)), 3),
                             elements=st.floats(allow_nan=False, allow_infinity=False)))
    label = draw(hnp.arrays(np.uint8, (h * ss, w * ss),
                            elements=st.integers(0, len(colors) - 1)))
    return label, colors, ss


class TestRendererBytes:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), h=st.integers(1, 21), w=st.integers(1, 31),
           l=st.integers(1, 12), supersample=st.integers(1, 5),
           base_h=st.one_of(st.none(), st.integers(1, 64)))
    def test_equals_oracle(self, seed, h, w, l, supersample, base_h):
        spec = R.random_scene(np.random.default_rng(seed), 24)
        got = R.render_clip(spec, h, w, l, 10, base_h=base_h, supersample=supersample)
        want = oracle_render_clip(spec, h, w, l, 10, base_h=base_h, supersample=supersample)
        assert got.frames.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(box_mean_cases())
    @example(case=(np.zeros((1, 1), np.uint8), np.array([[-0.0, -0.0, -0.0]]), 1))
    def test_box_mean_equals_numpy_mean(self, case):
        # a numpy change to the reduction order of mean(axis=(1, 3)) fails
        # here; the example pins numpy's +0.0 start on an all -0.0 block
        label, colors, ss = case
        h, w = label.shape[0] // ss, label.shape[1] // ss
        with np.errstate(over="ignore", invalid="ignore"):  # huge colours sum to inf
            want = colors[label].reshape(h, ss, w, ss, 3).mean(axis=(1, 3))
            got = R._box_mean(label, colors, ss)
        assert got.tobytes() == np.ascontiguousarray(want.transpose(2, 0, 1)).tobytes()

    def test_golden_dataset_digest(self, tmp_path):
        # sha256 of the renderer's output before its label-map rewrite
        root = R.generate_dataset(tmp_path / "g", clips=2, frames=16, height=16,
                                  width=24, fps=10, seed=0)
        digest = {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
                  for name in ("clip_0000.toyr", "clip_0001.toyr")}
        assert digest == {
            "clip_0000.toyr": "93229eb7e8bac804d6b2fef96c3fd7398917e27daaa602b608f52f087cc3f246",
            "clip_0001.toyr": "9bc3d47b2f4b391de10341f27eb029f986b2c973091b84c8f08afe785eee6e2c",
        }
        scaled = R.ClipDataset(root).rendered_at_scale(0, 2)
        assert scaled.shape == (16, 3, 32, 48)
        assert hashlib.sha256(scaled.tobytes()).hexdigest() == (
            "e435e33056b6b7a2ed5e9cdaab7575f7be84ddd9752f8de4dd4b82d44ef40bb1")


class TestCaptions:
    def test_template_instantiation(self):
        spec = plain_scene(palette="night")
        assert R.generate_caption(spec, 8) == "front camera. night. 0 vehicles. ego straight."

    def test_deterministic(self):
        spec = R.random_scene(np.random.default_rng(11), 32)
        assert R.generate_caption(spec, 16) == R.generate_caption(spec, 16)

    def test_tokens_fit_vocabulary(self):
        assert len(R.VOCAB) <= 64
        for seed in range(20):
            spec = R.random_scene(np.random.default_rng(seed), 64)
            ids = R.encode_caption(R.generate_caption(spec, 64))
            assert ids.size > 0 and ids.max() < len(R.VOCAB)

    def test_maneuver_summary_cap(self):
        track = np.array([R.LEFT] * 4 + [R.STRAIGHT] * 4 + [R.RIGHT] * 4 + [R.LEFT] * 4)
        assert R.maneuver_summary(track) == "left then straight then right"

    def test_unknown_token_rejected(self):
        with pytest.raises(DataError):
            R.encode_caption("front camera. quasar.")


def oracle_parse_clip(blob, path):
    """The reader that parsed a whole-file blob, kept as the reference for
    error messages and offsets. Every message names the clip's `path`."""
    def bad(message, offset):
        return FormatError(f"clip {path}: {message}", offset=offset)

    if blob[:4] != R.MAGIC:
        raise bad(f"bad clip magic {blob[:4]!r}, expected {R.MAGIC!r}", 0)
    pos = 4
    try:
        version, h, w, l, c, fps = struct.unpack_from("<HHHHBB", blob, pos)
    except struct.error:
        raise bad("truncated clip header", pos)
    pos += 10
    if version != R.VERSION:
        raise bad(f"unsupported clip version {version}", 4)
    for size, name, at in ((h, "rows", 6), (w, "columns", 8), (c, "channels", 12)):
        if size == 0:
            raise bad(f"clip has 0 {name}", at)
    try:
        (cap_len,) = struct.unpack_from("<I", blob, pos)
    except struct.error:
        raise bad("truncated caption length", pos)
    pos += 4
    if pos + cap_len > len(blob):
        raise bad("truncated caption", pos)
    try:
        blob[pos:pos + cap_len].decode("utf-8")
    except UnicodeDecodeError as e:
        raise bad("caption is not valid UTF-8", pos + e.start)
    pos += cap_len
    if pos + l > len(blob):
        raise bad("truncated command track", pos)
    for frame, command in enumerate(blob[pos:pos + l]):
        if command > 2:
            raise bad(f"frame {frame} has command byte {command}, "
                      "need 0-2 (straight, left, right)", pos + frame)
    pos += l
    need = l * c * h * w
    if pos + need > len(blob):
        raise bad(f"truncated pixel payload, need {need} bytes", pos)


class TestClipFormat:
    def _record(self):
        spec = R.random_scene(np.random.default_rng(0), 16)
        return R.render_clip(spec, 16, 24, 8, 10)

    def test_round_trip_bit_exact(self, tmp_path):
        rec = self._record()
        path = tmp_path / "a.toyr"
        R.write_clip(rec, path)
        back = R.read_clip(path)
        assert back.frames.tobytes() == rec.frames.tobytes()
        assert back.caption == rec.caption
        assert back.commands.tobytes() == rec.commands.tobytes()
        assert back.fps == rec.fps

    def test_corrupted_magic(self, tmp_path):
        rec = self._record()
        path = tmp_path / "a.toyr"
        R.write_clip(rec, path)
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as ei:
            R.read_clip(path)
        assert "offset 0" in str(ei.value)

    def test_truncation_names_offset(self, tmp_path):
        rec = self._record()
        path = tmp_path / "a.toyr"
        R.write_clip(rec, path)
        blob = path.read_bytes()[:40]
        path.write_bytes(blob)
        with pytest.raises(FormatError) as ei:
            R.read_clip(path)
        assert ei.value.offset is not None

    def test_read_errors_match_whole_file_reader(self, tmp_path):
        # every truncation and a bad version, caption, magic, frame size
        # (0 rows, columns or channels) or command byte (frames 5 and 6 out
        # of 0-2) fails with the same error, message and offset as the reader
        # that parsed one blob
        path = tmp_path / "a.toyr"
        rec = self._record()
        R.write_clip(rec, path)
        blob = path.read_bytes()
        commands = 18 + len(rec.caption.encode("utf-8"))  # header and caption before them
        cases = [blob[:n] for n in range(len(blob) - 3)]  # last frames truncated
        cases += [blob[:4] + b"\x02" + blob[5:], blob[:18] + b"\xff" + blob[19:],
                  b"TOY", blob[:28] + b"\xc3" + blob[29:],
                  blob[:commands + 5] + b"\x03\xff" + blob[commands + 7:]]
        cases += [blob[:at] + bytes(n) + blob[at + n:] for at, n in ((6, 2), (8, 2), (12, 1))]
        for k, case in enumerate(cases):
            path.write_bytes(case)
            with pytest.raises(FormatError) as got:
                R.read_clip(path)
            with pytest.raises(FormatError) as want:
                oracle_parse_clip(case, path)
            assert (str(got.value), got.value.offset) == (str(want.value), want.value.offset), k

    def test_failed_write_leaves_old_clip(self, tmp_path):
        rec = self._record()
        path = tmp_path / "a.toyr"
        R.write_clip(rec, path)
        old = path.read_bytes()

        def chunks():
            yield rec.frames[:4]
            raise RuntimeError("sampler died")

        with pytest.raises(RuntimeError):
            R.write_clip_chunks(path, rec.frames.shape[1:], 10, rec.caption,
                                rec.commands, chunks())
        with pytest.raises(ContractError):  # one frame short of the header's count
            R.write_clip_chunks(path, rec.frames.shape[1:], 10, rec.caption,
                                rec.commands, [rec.frames[:4], rec.frames[4:-1]])
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.toyr"]

    @pytest.mark.parametrize("frame_shape", [(0, 16, 24), (3, 0, 24), (3, 16, 0)])
    def test_empty_frame_shape_rejected(self, tmp_path, frame_shape):
        path = tmp_path / "a.toyr"
        with pytest.raises(ContractError, match="at least 1"):
            R.write_clip_chunks(path, frame_shape, 10, "road", np.zeros(1, np.uint8),
                                [np.zeros((1, *frame_shape), np.uint8)])
        assert not path.exists()

    def test_chunked_write_equals_whole_write(self, tmp_path):
        rec = self._record()
        R.write_clip(rec, tmp_path / "a.toyr")
        R.write_clip_chunks(tmp_path / "b.toyr", rec.frames.shape[1:], rec.fps, rec.caption,
                            rec.commands, [rec.frames[:3], rec.frames[3:3], rec.frames[3:]])
        assert (tmp_path / "a.toyr").read_bytes() == (tmp_path / "b.toyr").read_bytes()

    @pytest.mark.parametrize("commands, caption, chunk, match", [
        (np.zeros((2, 1), np.uint8), "road", np.zeros((2, 3, 16, 24), np.uint8),
         "one command byte per frame"),
        (np.zeros(2, np.uint8), "", np.zeros((2, 3, 16, 24), np.uint8), "caption"),
        (np.zeros(2, np.uint8), "road", np.zeros((2, 3, 16, 24), np.float32), "uint8"),
        (np.zeros(2, np.uint8), "road", np.zeros((2, 3, 16, 25), np.uint8),
         r"need \(n, 3, 16, 24\) frames"),
        (np.zeros(2, np.uint8), "road", np.zeros((3, 3, 16, 24), np.uint8),
         "2 commands, 3 frames"),
        (np.array([2, 7], np.uint8), "road", np.zeros((2, 3, 16, 24), np.uint8),
         "frame 1 has command byte 7, need 0-2"),
    ], ids=["command_shape", "empty_caption", "float_pixels", "chunk_shape", "extra_frames",
            "command_byte"])
    def test_bad_chunked_write_rejected(self, tmp_path, commands, caption, chunk, match):
        with pytest.raises(ContractError, match=match):
            R.write_clip_chunks(tmp_path / "a.toyr", (3, 16, 24), 10, caption, commands,
                                [chunk])
        assert list(tmp_path.iterdir()) == []

    def test_zero_frame_rejected(self, tmp_path):
        rec = self._record()
        rec.frames = rec.frames[:0]
        rec.commands = rec.commands[:0]
        with pytest.raises(ContractError):
            R.write_clip(rec, tmp_path / "z.toyr")


class TestDataset:
    def test_generate_is_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        R.generate_dataset(a, clips=2, frames=8, height=16, width=24, fps=10, seed=4)
        R.generate_dataset(b, clips=2, frames=8, height=16, width=24, fps=10, seed=4)
        for name in ["clip_0000.toyr", "clip_0001.toyr"]:
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert json.loads((a / "manifest.json").read_text())["seed"] == 4

    def test_dataset_loads_and_rescales(self, tmp_path):
        root = R.generate_dataset(tmp_path / "d", clips=2, frames=8, height=16,
                                  width=24, fps=10, seed=9)
        ds = R.ClipDataset(root)
        assert len(ds) == 2
        base = ds.rendered_at_scale(0, 1)
        assert base.shape == (8, 3, 16, 24)
        assert base.min() >= -1.0 and base.max() <= 1.0
        doubled = ds.rendered_at_scale(0, 2)
        assert doubled.shape == (8, 3, 32, 48)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            R.ClipDataset(tmp_path)

    def test_missing_clip_rejected(self, tmp_path):
        root = R.generate_dataset(tmp_path / "d", clips=2, frames=8, height=16,
                                  width=24, fps=10, seed=9)
        (root / "clip_0001.toyr").unlink()
        with pytest.raises(DataError, match="manifest promises 2 clips, found 1"):
            R.ClipDataset(root)

    def test_manifest_not_an_object(self, tmp_path):
        (tmp_path / "manifest.json").write_text("[2, 8]")
        with pytest.raises(DataError, match="must be a JSON object"):
            R.ClipDataset(tmp_path)

    def test_model_space_equals_float_division_at_every_pixel(self):
        # in-place conversion, the same float32 divide and subtract as
        # `(px.astype(np.float32) / 127.5) - 1.0`, on all 256 values
        px = np.arange(0, 256, dtype=np.uint8)
        want = (px.astype(np.float32) / 127.5) - 1.0
        got = R.to_model_space(px)
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    def test_model_space_round_trip(self):
        px = np.arange(0, 256, dtype=np.uint8).reshape(1, 1, 16, 16)
        back = R.to_pixel_space(R.to_model_space(px))
        np.testing.assert_array_equal(back, px)
