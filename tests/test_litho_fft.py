"""Tests for the transform side of the array backend behind the
lithography engines."""

import numpy as np
import pytest

from repro.errors import LithoError
from repro.litho import (
    LithoConfig,
    LithographySimulator,
    resolve_backend,
    scipy_fft_available,
)
from repro.backend import ArrayBackend


class TestResolution:
    def test_numpy_backend(self):
        backend = resolve_backend("numpy")
        assert backend.name == "numpy"

    def test_unknown_backend_rejected(self):
        with pytest.raises(LithoError):
            resolve_backend("fftw")

    def test_bad_workers_rejected(self):
        with pytest.raises(LithoError):
            resolve_backend("numpy", workers=0)

    def test_auto_resolves_to_concrete_backend(self):
        backend = resolve_backend("auto")
        assert backend.name in ("numpy", "scipy")

    def test_auto_single_worker_is_numpy(self):
        """With one worker threading cannot help, so auto must pick the
        bit-for-bit reproducible numpy backend."""
        assert resolve_backend("auto", workers=1).name == "numpy"

    def test_scipy_request_degrades_gracefully(self):
        backend = resolve_backend("scipy", workers=2)
        expected = "scipy" if scipy_fft_available() else "numpy"
        assert backend.name == expected

    def test_backends_are_cached(self):
        assert resolve_backend("numpy", 1) is resolve_backend("numpy", 1)


class TestTransforms:
    def test_numpy_backend_matches_np_fft_exactly(self):
        rng = np.random.default_rng(0)
        stack = rng.random((3, 16, 16))
        backend = ArrayBackend(name="numpy", workers=1)
        assert np.array_equal(backend.fft2(stack), np.fft.fft2(stack, axes=(-2, -1)))
        spec = np.fft.fft2(stack, axes=(-2, -1))
        assert np.array_equal(
            backend.ifft2(spec), np.fft.ifft2(spec, axes=(-2, -1))
        )

    @pytest.mark.skipif(
        not scipy_fft_available(), reason="scipy not installed"
    )
    def test_scipy_backend_close_to_numpy(self):
        """scipy and numpy both wrap pocketfft but sum in different SIMD
        orders; they must agree far inside the 1e-9 golden tolerance."""
        rng = np.random.default_rng(1)
        stack = rng.random((2, 64, 64))
        scipy_backend = ArrayBackend(name="scipy", workers=2)
        numpy_backend = ArrayBackend(name="numpy", workers=1)
        delta = np.abs(
            scipy_backend.fft2(stack) - numpy_backend.fft2(stack)
        ).max()
        assert delta < 1e-10


class TestSimulatorIntegration:
    def test_litho_config_validates_backend(self):
        with pytest.raises(LithoError):
            LithoConfig(backend="fftw")

    def test_kernel_set_carries_backend(self):
        sim = LithographySimulator(
            LithoConfig(
                pixel_nm=8.0, period_nm=1024.0, max_kernels=4,
                backend="numpy",
            )
        )
        assert sim.kernel_set(0.0).fft.name == "numpy"

    @pytest.mark.skipif(
        not scipy_fft_available(), reason="scipy not installed"
    )
    def test_scipy_simulation_close_to_numpy(self):
        """Full corner sweep under the scipy backend stays within the
        golden tolerance of the numpy reference, single and batched."""
        from repro.geometry import Grid, Polygon, Rect, rasterize

        grid = Grid(0, 0, 8.0, 128, 128)
        mask = rasterize(
            [Polygon.from_rect(Rect.square(512, 512, 90))], grid
        )
        base = dict(pixel_nm=8.0, period_nm=1024.0, max_kernels=4)
        sim_np = LithographySimulator(LithoConfig(backend="numpy", **base))
        sim_sp = LithographySimulator(
            LithoConfig(backend="scipy", fft_workers=2, **base)
        )
        ref = sim_np.simulate_mask(mask, grid)
        got = sim_sp.simulate_mask(mask, grid)
        assert np.abs(got.aerial - ref.aerial).max() < 1e-9
        # The batched band engine shares the backend: every member is
        # bit-for-bit equal to the others and within round-off of the
        # same-backend single-mask reference.
        batched = sim_sp.simulate_batch(np.stack([mask, mask]), grid)
        assert np.array_equal(batched[0].aerial, batched[1].aerial)
        for result in batched:
            assert np.abs(result.aerial - got.aerial).max() < 1e-9
