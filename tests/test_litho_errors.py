"""Error-path coverage for the lithography engine plus the bounded
per-grid caches: every ``LithoError`` raise in ``kernels.py`` /
``simulator.py`` is exercised, LRU eviction is shown to keep results
correct, and the FFT-derived cache is shown to key on backend identity
(the cross-backend staleness regression)."""

import numpy as np
import pytest

from repro.errors import LithoError, RLError
from repro.geometry import Clip, Grid, Polygon, Rect
from repro.litho import (
    LithoConfig,
    LithographySimulator,
    OpticalKernelSet,
    scipy_fft_available,
)
from repro.litho.fft import next_fast_len
from repro.rl.env import OPCEnvironment


def tiny_kernel_set(capacity: int = 6, cutoff: float | None = 0.0126, **kw):
    """Legacy spatial-provenance set (explicit weights + kernels)."""
    rng = np.random.default_rng(42)
    kw.setdefault("fft_backend", "numpy")
    return OpticalKernelSet(
        weights=np.array([0.5, 0.3, 0.2]),
        kernels=rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5)),
        pixel_nm=8.0,
        defocus_nm=0.0,
        cutoff_per_nm=cutoff,
        fft_cache_capacity=capacity,
        **kw,
    )


def cache_key(kernel_set, shape):
    backend = kernel_set.fft
    return (shape, *backend.identity)


class TestKernelSetErrors:
    def test_non_2d_mask(self):
        with pytest.raises(LithoError):
            tiny_kernel_set().convolve_intensity(np.ones((2, 16, 16)))

    def test_mask_smaller_than_ambit(self):
        with pytest.raises(LithoError):
            tiny_kernel_set().convolve_intensity(np.ones((3, 3)))

    def test_batch_rejects_2d(self):
        with pytest.raises(LithoError, match="3-D"):
            tiny_kernel_set().convolve_intensity_batch(np.ones((16, 16)))

    def test_batch_rejects_4d(self):
        with pytest.raises(LithoError, match="3-D"):
            tiny_kernel_set().convolve_intensity_batch(np.ones((2, 2, 16, 16)))

    def test_batch_rejects_empty(self):
        with pytest.raises(LithoError, match="empty"):
            tiny_kernel_set().convolve_intensity_batch(np.empty((0, 16, 16)))

    def test_batch_rejects_small_masks(self):
        with pytest.raises(LithoError, match="ambit"):
            tiny_kernel_set().convolve_intensity_batch(np.ones((2, 3, 3)))

    def test_spectra_helper_rejects_2d(self):
        with pytest.raises(LithoError, match="3-D"):
            tiny_kernel_set().intensity_from_mask_ffts(np.ones((16, 16), complex))

    def test_fields_helper_rejects_3d(self):
        with pytest.raises(LithoError, match="2-D"):
            tiny_kernel_set().fields_from_mask_fft(np.ones((2, 16, 16), complex))

    def test_kernel_spectra_rejects_small_grid(self):
        with pytest.raises(LithoError, match="ambit"):
            tiny_kernel_set().kernel_spectra((3, 3))

    def test_spectra_helper_rejects_small_grid(self):
        with pytest.raises(LithoError, match="ambit"):
            tiny_kernel_set().intensity_from_mask_ffts(
                np.ones((1, 3, 3), complex)
            )

    def test_fields_helper_rejects_small_grid(self):
        with pytest.raises(LithoError, match="ambit"):
            tiny_kernel_set().fields_from_mask_fft(np.ones((3, 3), complex))

    def test_bad_cache_capacity(self):
        with pytest.raises(LithoError, match="fft_cache_capacity"):
            tiny_kernel_set(capacity=0)

    def test_bad_kernel_shape(self):
        with pytest.raises(LithoError):
            OpticalKernelSet(
                weights=np.ones(2),
                kernels=np.ones((2, 5, 4), dtype=complex),
                pixel_nm=8.0,
                defocus_nm=0.0,
            )

    def test_weights_kernels_mismatch(self):
        with pytest.raises(LithoError):
            OpticalKernelSet(
                weights=np.ones(3),
                kernels=np.ones((2, 5, 5), dtype=complex),
                pixel_nm=8.0,
                defocus_nm=0.0,
            )

    def test_needs_source_or_kernels(self):
        with pytest.raises(LithoError, match="source"):
            OpticalKernelSet(pixel_nm=8.0, defocus_nm=0.0)

    def test_native_set_has_no_spatial_ambit(self):
        from repro.litho import build_kernel_set

        native = build_kernel_set(pixel_nm=8.0, period_nm=1024.0, max_kernels=4)
        with pytest.raises(LithoError, match="ambit"):
            native.ambit_px
        with pytest.raises(LithoError, match="per-grid"):
            native.count

    def test_legacy_set_has_no_band_spectra(self):
        with pytest.raises(LithoError, match="band spectra"):
            tiny_kernel_set().band_spectra((64, 64))


class TestFFTCacheLRU:
    def test_capacity_is_enforced(self):
        kernel_set = tiny_kernel_set(capacity=2)
        for n in (16, 20, 24, 28):
            kernel_set.convolve_intensity(np.ones((n, n)))
        assert len(kernel_set._fft_cache) == 2
        assert list(kernel_set._fft_cache) == [
            cache_key(kernel_set, (24, 24)),
            cache_key(kernel_set, (28, 28)),
        ]

    def test_recently_used_shape_survives(self):
        kernel_set = tiny_kernel_set(capacity=2)
        kernel_set.convolve_intensity(np.ones((16, 16)))
        kernel_set.convolve_intensity(np.ones((20, 20)))
        kernel_set.convolve_intensity(np.ones((16, 16)))  # refresh (16, 16)
        kernel_set.convolve_intensity(np.ones((24, 24)))  # evicts (20, 20)
        assert list(kernel_set._fft_cache) == [
            cache_key(kernel_set, (16, 16)),
            cache_key(kernel_set, (24, 24)),
        ]

    def test_eviction_keeps_results_correct(self):
        """Recomputing an evicted shape must reproduce the original
        intensities exactly."""
        kernel_set = tiny_kernel_set(capacity=1)
        rng = np.random.default_rng(3)
        mask_small = rng.random((16, 16))
        mask_large = rng.random((24, 24))
        first = kernel_set.convolve_intensity(mask_small)
        kernel_set.convolve_intensity(mask_large)  # evicts the (16, 16) FFTs
        assert cache_key(kernel_set, (16, 16)) not in kernel_set._fft_cache
        again = kernel_set.convolve_intensity(mask_small)
        assert np.array_equal(first, again)

    def test_batch_and_single_share_cache(self):
        kernel_set = tiny_kernel_set()
        kernel_set.convolve_intensity(np.ones((16, 16)))
        assert list(kernel_set._fft_cache) == [cache_key(kernel_set, (16, 16))]
        kernel_set.convolve_intensity_batch(np.ones((4, 16, 16)))
        # no new entry
        assert list(kernel_set._fft_cache) == [cache_key(kernel_set, (16, 16))]


class TestFFTCacheBackendKey:
    """Regression: FFT-derived spectra are keyed by backend identity, so
    swapping the transform backend on a shared kernel set can never serve
    spectra computed by the previous backend."""

    def test_worker_identity_in_key(self):
        kernel_set = tiny_kernel_set(fft_backend="numpy", fft_workers=1)
        kernel_set.kernel_spectra((16, 16))
        kernel_set.fft_workers = 2
        kernel_set.kernel_spectra((16, 16))
        keys = list(kernel_set._fft_cache)
        assert ((16, 16), "numpy", 1, "cpu") in keys
        assert ((16, 16), "numpy", 2, "cpu") in keys

    @pytest.mark.skipif(
        not scipy_fft_available(), reason="scipy not installed"
    )
    def test_backend_swap_recomputes(self):
        kernel_set = tiny_kernel_set(fft_backend="numpy", fft_workers=1)
        numpy_stack = kernel_set.kernel_spectra((16, 16))
        kernel_set.fft_backend = "scipy"
        kernel_set.fft_workers = 2
        scipy_stack = kernel_set.kernel_spectra((16, 16))
        assert scipy_stack is not numpy_stack  # fresh computation
        assert np.allclose(scipy_stack, numpy_stack, atol=1e-9)
        # Both entries stay resident under their own keys.
        assert ((16, 16), "numpy", 1, "cpu") in kernel_set._fft_cache
        assert ((16, 16), "scipy", 2, "cpu") in kernel_set._fft_cache

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
