"""Error-path coverage for the lithography engine plus the bounded
per-grid caches: every ``LithoError`` raise in ``kernels.py`` /
``simulator.py`` is exercised, LRU eviction is shown to keep results
correct, and the full-grid transfer stacks are shown to be
backend-independent."""

import numpy as np
import pytest

from repro.errors import LithoError, RLError
from repro.geometry import Clip, Grid, Polygon, Rect
from repro.litho import (
    LithoConfig,
    LithographySimulator,
    OpticalKernelSet,
    SourceSpec,
)
from repro.backend import next_fast_len
from repro.rl.env import OPCEnvironment


def tiny_kernel_set(capacity: int = 6, **kw):
    """A small uncached set (8 nm pixels, 4 kernels) with its own LRUs;
    grids from 40 x 40 up hold a usable pupil band."""
    kw.setdefault("fft_backend", "numpy")
    return OpticalKernelSet(
        pixel_nm=8.0,
        defocus_nm=0.0,
        source=SourceSpec(),
        max_kernels=4,
        fft_cache_capacity=capacity,
        **kw,
    )


def cache_key(shape):
    return (shape, "band")


class TestKernelSetErrors:
    def test_non_2d_mask(self):
        with pytest.raises(LithoError):
            tiny_kernel_set().convolve_intensity(np.ones((2, 48, 48)))

    def test_batch_rejects_2d(self):
        with pytest.raises(LithoError, match="3-D"):
            tiny_kernel_set().convolve_intensity_batch(np.ones((48, 48)))

    def test_batch_rejects_4d(self):
        with pytest.raises(LithoError, match="3-D"):
            tiny_kernel_set().convolve_intensity_batch(np.ones((2, 2, 48, 48)))

    def test_batch_rejects_empty(self):
        with pytest.raises(LithoError, match="empty"):
            tiny_kernel_set().convolve_intensity_batch(np.empty((0, 48, 48)))

    def test_batch_rejects_small_masks(self):
        with pytest.raises(LithoError, match="too coarse"):
            tiny_kernel_set().convolve_intensity_batch(np.ones((2, 3, 3)))

    def test_spectra_helper_rejects_2d(self):
        with pytest.raises(LithoError, match="3-D"):
            tiny_kernel_set().intensity_from_mask_ffts(np.ones((48, 48), complex))

    def test_fields_helper_rejects_3d(self):
        with pytest.raises(LithoError, match="2-D"):
            tiny_kernel_set().fields_from_mask_fft(np.ones((2, 48, 48), complex))

    def test_kernel_spectra_rejects_small_grid(self):
        with pytest.raises(LithoError, match="too coarse"):
            tiny_kernel_set().kernel_spectra((3, 3))

    def test_spectra_helper_rejects_small_grid(self):
        with pytest.raises(LithoError, match="too coarse"):
            tiny_kernel_set().intensity_from_mask_ffts(
                np.ones((1, 3, 3), complex)
            )

    def test_fields_helper_rejects_small_grid(self):
        with pytest.raises(LithoError, match="too coarse"):
            tiny_kernel_set().fields_from_mask_fft(np.ones((3, 3), complex))

    def test_bad_cache_capacity(self):
        with pytest.raises(LithoError, match="fft_cache_capacity"):
            tiny_kernel_set(capacity=0)

    def test_source_is_required(self):
        with pytest.raises(TypeError, match="source"):
            OpticalKernelSet(pixel_nm=8.0, defocus_nm=0.0)

    def test_legacy_set_has_no_band_spectra(self, tmp_path):
        """A file of spatial kernels without optics metadata (the old
        spatial provenance) cannot be simulated exactly; loading it must
        say how to rebuild the set."""
        path = str(tmp_path / "spatial-only.npz")
        np.savez(
            path,
            weights=np.array([0.5, 0.3, 0.2]),
            kernels=np.ones((3, 5, 5), dtype=complex),
            pixel_nm=8.0,
            defocus_nm=0.0,
        )
        with pytest.raises(LithoError, match="build_kernel_set"):
            OpticalKernelSet.load(path)


class TestFFTCacheLRU:
    def test_capacity_is_enforced(self):
        kernel_set = tiny_kernel_set(capacity=2)
        for n in (48, 56, 64, 72):
            kernel_set.convolve_intensity(np.ones((n, n)))
        assert len(kernel_set._fft_cache) == 2
        assert list(kernel_set._fft_cache) == [
            cache_key((64, 64)),
            cache_key((72, 72)),
        ]

    def test_recently_used_shape_survives(self):
        kernel_set = tiny_kernel_set(capacity=2)
        kernel_set.convolve_intensity(np.ones((48, 48)))
        kernel_set.convolve_intensity(np.ones((56, 56)))
        kernel_set.convolve_intensity(np.ones((48, 48)))  # refresh (48, 48)
        kernel_set.convolve_intensity(np.ones((64, 64)))  # evicts (56, 56)
        assert list(kernel_set._fft_cache) == [
            cache_key((48, 48)),
            cache_key((64, 64)),
        ]

    def test_eviction_keeps_results_correct(self):
        """Recomputing an evicted shape must reproduce the original
        intensities exactly."""
        kernel_set = tiny_kernel_set(capacity=1)
        rng = np.random.default_rng(3)
        mask_small = rng.random((48, 48))
        mask_large = rng.random((64, 64))
        first = kernel_set.convolve_intensity(mask_small)
        kernel_set.convolve_intensity(mask_large)  # evicts the (48, 48) stack
        assert cache_key((48, 48)) not in kernel_set._fft_cache
        again = kernel_set.convolve_intensity(mask_small)
        assert np.array_equal(first, again)

    def test_batch_and_single_share_cache(self):
        kernel_set = tiny_kernel_set()
        kernel_set.convolve_intensity(np.ones((48, 48)))
        assert list(kernel_set._fft_cache) == [cache_key((48, 48))]
        kernel_set.convolve_intensity_batch(np.ones((4, 48, 48)))
        # no new entry
        assert list(kernel_set._fft_cache) == [cache_key((48, 48))]


class TestFFTCacheBackendKey:
    """The full-grid transfer stacks are scattered band coefficients —
    no transform runs — so their cache key carries no backend."""

    def test_native_band_spectra_are_backend_independent(self):
        from repro.litho import build_kernel_set

        native = build_kernel_set(
            pixel_nm=8.0, period_nm=1024.0, max_kernels=4, fft_backend="numpy"
        )
        stack = native.kernel_spectra((96, 96))
        # Scattered band coefficients involve no transform at all, so the
        # cache key carries the "band" provenance, not a backend.
        assert ((96, 96), "band") in native._fft_cache
        again = native.kernel_spectra((96, 96))
        assert again is stack


class TestSimulatorErrors:
    @pytest.fixture(scope="class")
    def sim(self):
        return LithographySimulator(
            LithoConfig(
                pixel_nm=8.0, period_nm=1024.0, ambit_nm=512.0, max_kernels=4
            )
        )

    def test_bad_mode(self, sim):
        grid = Grid(0, 0, 8.0, 96, 96)
        with pytest.raises(TypeError, match="mode"):
            sim.simulate_batch(np.ones((1, 96, 96)), grid, mode="turbo")

    def test_retired_mode_values_rejected(self, sim):
        """The retired ``mode=`` no-op is gone: its old values are now an
        unknown keyword like any other."""
        grid = Grid(0, 0, 8.0, 96, 96)
        for mode in ("exact", "spectral"):
            with pytest.raises(TypeError, match="mode"):
                sim.simulate_batch(np.ones((1, 96, 96)), grid, mode=mode)

    def test_empty_batch(self, sim):
        grid = Grid(0, 0, 8.0, 96, 96)
        with pytest.raises(LithoError, match="empty"):
            sim.simulate_batch([], grid)

    def test_ragged_batch(self, sim):
        grid = Grid(0, 0, 8.0, 96, 96)
        with pytest.raises(LithoError, match="share one shape"):
            sim.simulate_batch([np.ones((96, 96)), np.ones((80, 80))], grid)

    def test_grid_mismatch(self, sim):
        grid = Grid(0, 0, 8.0, 96, 96)
        with pytest.raises(LithoError, match="grid"):
            sim.simulate_batch(np.ones((1, 80, 80)), grid)

    def test_window_too_small_for_band(self, sim):
        """A 128 nm window holds no usable pupil band: the frequency-
        native build must reject it with a clear message."""
        grid = Grid(0, 0, 8.0, 16, 16)
        with pytest.raises(LithoError, match="too coarse"):
            sim.simulate_batch(np.ones((1, 16, 16)), grid)

    def test_bad_fft_length(self):
        with pytest.raises(LithoError):
            next_fast_len(0)


class TestEnvBatchErrors:
    @pytest.fixture(scope="class")
    def env(self):
        sim = LithographySimulator(
            LithoConfig(
                pixel_nm=8.0, period_nm=1024.0, ambit_nm=512.0, max_kernels=4
            )
        )
        clip = Clip(
            name="err-env",
            bbox=Rect(0, 0, 1280, 1280),
            targets=(Polygon.from_rect(Rect.square(640, 640, 90)),),
            layer="via",
        )
        return OPCEnvironment(clip, sim)

    def test_empty_evaluate_batch(self, env):
        with pytest.raises(RLError, match="at least one"):
            env.evaluate_batch([])

    def test_empty_reset_population(self, env):
        with pytest.raises(RLError, match="at least one"):
            env.reset_population([])

    def test_env_mode_keyword_removed(self, env):
        state = env.reset()
        actions = np.zeros((1, env.n_segments), dtype=int)
        with pytest.raises(TypeError, match="mode"):
            env.step_batch([state], actions, mode="spectral")
        with pytest.raises(TypeError, match="mode"):
            env.evaluate_batch([state.mask], mode="spectral")
        with pytest.raises(TypeError, match="mode"):
            env.score_moves(state, actions, mode="spectral")

    def test_score_moves_rejects_1d(self, env):
        state = env.reset()
        with pytest.raises(RLError, match="matrix"):
            env.score_moves(state, np.zeros(env.n_segments, dtype=int))

    def test_score_moves_rejects_wrong_width(self, env):
        state = env.reset()
        with pytest.raises(RLError, match="actions"):
            env.score_moves(state, np.zeros((2, env.n_segments + 1), dtype=int))

    def test_score_moves_rejects_out_of_range(self, env):
        state = env.reset()
        bad = np.full((1, env.n_segments), env.n_actions)
        with pytest.raises(RLError, match="indices"):
            env.score_moves(state, bad)
