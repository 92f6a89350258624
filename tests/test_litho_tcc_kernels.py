"""Tests for TCC construction and SOCS kernel generation."""

import numpy as np
import pytest

from repro.errors import LithoError
from repro.litho.kernels import build_kernel_set
from repro.litho.source import SourceSpec
from repro.litho.tcc import TCCResult, build_tcc, frequency_lattice, socs_kernels

SMALL = dict(period_nm=1024.0)


@pytest.fixture(scope="module")
def tcc():
    return build_tcc(SourceSpec(), **SMALL)


@pytest.fixture(scope="module")
def kernel_set():
    return build_kernel_set(pixel_nm=8.0, period_nm=1024.0, fft_backend="numpy")


class TestLattice:
    def test_origin_always_included(self):
        pts = frequency_lattice(3)
        assert [0, 0] in pts.tolist()

    def test_radius_respected(self):
        pts = frequency_lattice(5)
        assert np.all(pts[:, 0] ** 2 + pts[:, 1] ** 2 <= 25)

    def test_count_grows_quadratically(self):
        assert len(frequency_lattice(10)) > 3 * len(frequency_lattice(5))


class TestTCC:
    def test_hermitian(self, tcc):
        assert np.allclose(tcc.matrix, tcc.matrix.conj().T, atol=1e-12)

    def test_positive_semidefinite(self, tcc):
        eigvals = np.linalg.eigvalsh(tcc.matrix)
        assert eigvals.min() > -1e-10

    def test_dc_term_is_unity(self, tcc):
        """TCC(0,0) = 1: every source point passes the pupil unattenuated."""
        origin = np.nonzero(
            (tcc.shift_indices[:, 0] == 0) & (tcc.shift_indices[:, 1] == 0)
        )[0][0]
        assert tcc.matrix[origin, origin].real == pytest.approx(1.0)
        assert tcc.matrix[origin, origin].imag == pytest.approx(0.0, abs=1e-12)

    def test_focus_tcc_is_real(self):
        tcc = build_tcc(SourceSpec(), defocus_nm=0.0, **SMALL)
        assert np.abs(tcc.matrix.imag).max() < 1e-12

    def test_defocus_tcc_is_complex(self):
        tcc = build_tcc(SourceSpec(), defocus_nm=25.0, **SMALL)
        assert np.abs(tcc.matrix.imag).max() > 1e-6

    def test_coarse_lattice_rejected(self):
        with pytest.raises(LithoError):
            build_tcc(SourceSpec(), period_nm=100.0)

    def test_bad_period_rejected(self):
        with pytest.raises(LithoError):
            build_tcc(SourceSpec(), period_nm=-5)


class TestSOCS:
    def test_weights_descending_nonnegative(self, tcc):
        weights, _ = socs_kernels(tcc, pixel_nm=8.0)
        assert np.all(weights >= 0)
        assert np.all(np.diff(weights) <= 1e-12)

    def test_first_kernel_dominates(self, tcc):
        weights, _ = socs_kernels(tcc, pixel_nm=8.0)
        assert weights[0] > 0.5 * weights.sum()

    def test_kernel_count_capped(self, tcc):
        weights, kernels = socs_kernels(tcc, pixel_nm=8.0, max_kernels=3)
        assert len(weights) == len(kernels) == 3

    def test_kernel_centered(self, tcc):
        _, kernels = socs_kernels(tcc, pixel_nm=8.0, max_kernels=1)
        k = np.abs(kernels[0])
        centre = np.unravel_index(np.argmax(k), k.shape)
        assert centre == (k.shape[0] // 2, k.shape[1] // 2)

    def test_bad_energy_fraction(self, tcc):
        with pytest.raises(LithoError):
            socs_kernels(tcc, pixel_nm=8.0, energy_fraction=0.0)


class TestKernelSet:
    def test_open_frame_normalized(self, kernel_set):
        mask = np.ones((192, 192))
        intensity = kernel_set.convolve_intensity(mask)
        assert intensity.mean() == pytest.approx(1.0, rel=1e-6)
        assert intensity.std() < 1e-6

    def test_dark_frame_zero(self, kernel_set):
        mask = np.zeros((192, 192))
        assert kernel_set.convolve_intensity(mask).max() == 0

    def test_intensity_nonnegative(self, kernel_set):
        rng = np.random.default_rng(0)
        mask = (rng.random((192, 192)) > 0.7).astype(float)
        assert kernel_set.convolve_intensity(mask).min() >= 0

    def test_translation_equivariance(self, kernel_set):
        """Shifting the mask shifts the aerial image (circular)."""
        mask = np.zeros((192, 192))
        mask[60:80, 60:80] = 1
        base = kernel_set.convolve_intensity(mask)
        rolled = kernel_set.convolve_intensity(np.roll(mask, (7, 11), axis=(0, 1)))
        assert np.allclose(np.roll(base, (7, 11), axis=(0, 1)), rolled, atol=1e-9)

    def test_window_too_small_rejected(self, kernel_set):
        """A 128 nm window holds no usable pupil band."""
        with pytest.raises(LithoError, match="too coarse"):
            kernel_set.convolve_intensity(np.ones((16, 16)))

    def test_non_2d_rejected(self, kernel_set):
        with pytest.raises(LithoError):
            kernel_set.convolve_intensity(np.ones((4, 192, 192)))

    def test_save_load_roundtrip(self, kernel_set, tmp_path):
        """Native sets persist their optics and reload frequency-native:
        the reloaded set must simulate identically."""
        path = str(tmp_path / "kernels.npz")
        kernel_set.save(path)
        # The transform backend is an execution choice and is never
        # persisted; requesting the original backend restores bit-for-bit
        # equality with the pre-save set.
        loaded = type(kernel_set).load(path, fft_backend="numpy")
        assert loaded.source == kernel_set.source
        assert loaded.pixel_nm == kernel_set.pixel_nm
        weights, kernels = kernel_set.spatial_kernels()
        loaded_weights, loaded_kernels = loaded.spatial_kernels()
        assert np.allclose(loaded_weights, weights)
        assert np.allclose(loaded_kernels, kernels)
        mask = np.zeros((128, 128))
        mask[50:70, 50:70] = 1.0
        assert np.array_equal(
            loaded.convolve_intensity(mask),
            kernel_set.convolve_intensity(mask),
        )

    def test_load_save_load_roundtrip_scipy(self, kernel_set, tmp_path):
        """A loaded set saves the same optics metadata it was loaded
        from: load -> save -> load under the scipy backend preserves the
        spatial arrays bit for bit, both generations simulate
        identically, and they stay inside the golden tolerance of the
        numpy backend."""
        original = str(tmp_path / "kernels.npz")
        kernel_set.save(original)
        first = type(kernel_set).load(original, fft_backend="scipy")
        assert first.fft.name in ("scipy", "numpy")  # numpy if scipy absent

        resaved = str(tmp_path / "resaved.npz")
        first.save(resaved)
        second = type(kernel_set).load(resaved, fft_backend="scipy")
        for got, want in zip(second.spatial_kernels(), first.spatial_kernels()):
            assert np.array_equal(got, want)
        assert second.pixel_nm == first.pixel_nm
        assert second.defocus_nm == first.defocus_nm

        mask = np.zeros((128, 128))
        mask[50:70, 50:70] = 1.0
        assert np.array_equal(
            second.convolve_intensity(mask), first.convolve_intensity(mask)
        )
        reference = kernel_set.convolve_intensity(mask)
        assert np.allclose(second.convolve_intensity(mask), reference, atol=1e-9)

    def test_cache_reuse(self):
        a = build_kernel_set(pixel_nm=8.0, period_nm=1024.0)
        b = build_kernel_set(pixel_nm=8.0, period_nm=1024.0)
        assert a is b
