import numpy as np
import pytest

from longroad import curriculum as C
from longroad import toyroad as R
from longroad.errors import ConfigError, DataError


META = C.ClipMeta(fps=10, base_h=16, base_w=24, base_l=32)


class TestDensityDraw:
    def test_frame_count_at_alpha_two(self):
        draw = C.draw_density(np.random.default_rng(0), META, [2], window=128)
        assert draw.l_curr == 32 and draw.alpha == 2

    def test_frame_count_at_alpha_four(self):
        draw = C.draw_density(np.random.default_rng(0), META, [4], window=128)
        assert draw.l_curr == 8

    def test_stride_indices(self):
        # at alpha 2, an 8-frame window with offset 1 retains [1, 5]
        for seed in range(64):
            draw = C.draw_density(np.random.default_rng(seed), META, [2], window=8)
            np.testing.assert_array_equal(draw.indices, draw.offset + 4 * np.arange(2))
            if draw.offset == 1:
                np.testing.assert_array_equal(draw.indices, [1, 5])
                break
        else:
            pytest.fail("offset 1 never drawn in 64 tries")

    def test_information_density_law(self):
        for seed in range(40):
            draw = C.draw_density(np.random.default_rng(seed), META, [1, 2], window=16)
            assert draw.l_curr * draw.alpha**2 == 16
            assert draw.height == META.base_h * draw.alpha
            assert draw.width == META.base_w * draw.alpha
            # covered original-index span is alpha-invariant
            assert draw.indices[-1] - draw.indices[0] == 16 - draw.alpha**2
            assert np.all(draw.indices < 16)
            assert np.all(np.diff(draw.indices) == draw.alpha**2)

    def test_alpha_and_offset_roughly_uniform(self):
        rng = np.random.default_rng(1)
        draws = [C.draw_density(rng, META, [1, 2], window=16) for _ in range(4000)]
        alphas = np.array([d.alpha for d in draws])
        assert abs((alphas == 1).mean() - 0.5) < 0.05
        offsets = np.array([d.offset for d in draws if d.alpha == 2])
        counts = np.bincount(offsets, minlength=4)
        assert counts.min() > 0.15 * offsets.size

    def test_empty_alpha_set(self):
        with pytest.raises(ConfigError):
            C.draw_density(np.random.default_rng(0), META, [], window=16)

    def test_non_divisible_window(self):
        with pytest.raises(ConfigError):
            C.draw_density(np.random.default_rng(0), META, [2], window=6)


class TestMemoryLen:
    def test_identity_scale(self):
        assert C.memory_len(1, 8) == 8

    def test_alpha_two(self):
        assert C.memory_len(2, 8) == 2

    def test_alpha_four(self):
        assert C.memory_len(4, 16) == 1

    def test_duration_law(self):
        for alpha in (1, 2):
            assert C.memory_len(alpha, 8) * alpha**2 == 8

    def test_non_divisible(self):
        with pytest.raises(ConfigError):
            C.memory_len(3, 8)


class TestSchedule:
    def test_full_scale_targets(self):
        phases = C.curriculum_schedule([16, 32, 64, 128], [100] * 4, token_budget=512)
        assert len(phases) == 4 and phases[-1].frames == 128

    def test_single_target(self):
        phases = C.curriculum_schedule([8], [50], token_budget=64)
        assert len(phases) == 1 and phases[0].steps == 50

    def test_batch_halves_as_frames_double(self):
        phases = C.curriculum_schedule([16, 32, 64, 128], [10] * 4, token_budget=512)
        batches = [p.batch for p in phases]
        assert batches == [32, 16, 8, 4]
        assert all(p.frames * p.batch == 512 for p in phases)

    def test_descending_targets_rejected(self):
        with pytest.raises(ConfigError):
            C.curriculum_schedule([32, 16], [10, 10], token_budget=64)

    def test_step_budget_length_mismatch(self):
        with pytest.raises(ConfigError):
            C.curriculum_schedule([8, 16], [5], token_budget=64)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = R.generate_dataset(tmp_path_factory.mktemp("ds"), clips=2, frames=32,
                              height=16, width=24, fps=10, seed=12)
    return R.ClipDataset(root)


class TestNextBatch:
    def test_alpha_one_contiguous_window(self, dataset):
        phase = C.CurriculumPhase(frames=8, batch=1, steps=1)
        ex = C.next_batch(phase, dataset, np.random.default_rng(0), [1], 4)
        assert np.all(np.diff(ex.plan.original_indices) == 1)
        assert ex.clip.shape == (8, 3, 16, 24)

    def test_token_invariant(self, dataset):
        phase = C.CurriculumPhase(frames=16, batch=1, steps=1)
        for seed in range(10):
            ex = C.next_batch(phase, dataset, np.random.default_rng(seed), [1, 2], 4)
            assert ex.clip.shape[0] * ex.draw.alpha**2 == phase.frames
            assert ex.partition.m_memory * ex.draw.alpha**2 == 4
            assert ex.clip.shape[2] == 16 * ex.draw.alpha

    def test_same_seed_identical(self, dataset):
        phase = C.CurriculumPhase(frames=16, batch=1, steps=1)
        a = C.next_batch(phase, dataset, np.random.default_rng(3), [1, 2], 4)
        b = C.next_batch(phase, dataset, np.random.default_rng(3), [1, 2], 4)
        assert a.clip.tobytes() == b.clip.tobytes()
        assert a.clip_index == b.clip_index and a.window_start == b.window_start
        np.testing.assert_array_equal(a.plan.original_indices, b.plan.original_indices)

    def test_condition_matches_window(self, dataset):
        phase = C.CurriculumPhase(frames=8, batch=1, steps=1)
        ex = C.next_batch(phase, dataset, np.random.default_rng(5), [1], 4)
        rec = dataset.record(ex.clip_index)
        expect = rec.commands[ex.window_start + ex.plan.original_indices]
        np.testing.assert_array_equal(ex.cond.command_ids, expect)

    def test_frames_equal_selection_from_float_clip(self, dataset):
        # the cache holds uint8 pixels and converts only the selected frames;
        # the clip must be the bytes of selecting from the whole converted clip
        for frames in (8, 16, 32):
            phase = C.CurriculumPhase(frames=frames, batch=1, steps=1)
            for seed in range(6):
                ex = C.next_batch(phase, dataset, np.random.default_rng(seed), [1, 2], 4)
                full = R.to_model_space(dataset.pixels_at_scale(ex.clip_index, ex.draw.alpha))
                want = np.ascontiguousarray(full[ex.window_start + ex.draw.indices])
                assert ex.clip.dtype == np.float32 and ex.clip.flags.c_contiguous
                assert ex.clip.tobytes() == want.tobytes()

    def test_cache_holds_pixels(self, dataset):
        pixels = dataset.pixels_at_scale(1, 2)
        assert pixels.dtype == np.uint8 and pixels.shape == (32, 3, 32, 48)
        assert dataset.pixels_at_scale(1, 2) is pixels
        assert dataset.pixels_at_scale(1, 1) is dataset.record(1).frames
        assert dataset.rendered_at_scale(1, 2).tobytes() == R.to_model_space(pixels).tobytes()

    def test_clip_too_short(self, dataset):
        phase = C.CurriculumPhase(frames=64, batch=1, steps=1)
        with pytest.raises(DataError):
            C.next_batch(phase, dataset, np.random.default_rng(0), [1], 4)

    def test_memory_span_consumes_window(self, dataset):
        phase = C.CurriculumPhase(frames=8, batch=1, steps=1)
        with pytest.raises(ConfigError):
            C.next_batch(phase, dataset, np.random.default_rng(0), [1], 8)
