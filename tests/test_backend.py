"""Tests for the array/device backend (``repro.backend``).

Four contracts pinned here:

* **Resolution semantics** — ``"auto"`` only ever picks a host backend;
  ``"torch"`` raises when torch is absent (never degrades silently);
  unknown names (the retired ``"cupy"`` seam among them) are rejected;
  host backends reject device strings.
* **Dtype policy** — every transform-derived artifact on the sparse and
  surrogate GEMM paths is float64/complex128 under the numpy backend,
  and the torch adapter pins the same dtypes so the process-global
  ``torch.set_default_dtype`` (float32 out of the box) can never
  degrade parity.
* **Cache identity** — caches of transform-derived artifacts key on
  backend identity + device: numpy and scipy share one host copy
  (same ``array_identity``), a device backend always gets its own
  entry, and a backend swap can never serve wrong-residency arrays.
* **Torch parity** — the torch CPU backend agrees with numpy to <= 1e-9
  nm EPE on the sparse screening path (skipped when torch is not
  installed).
"""

import warnings

import numpy as np
import pytest

from repro.backend import (
    BACKEND_NAMES,
    ArrayBackend,
    resolve_backend,
    scipy_fft_available,
    torch_available,
)
from repro.errors import LithoError
from repro.geometry import Grid, Polygon, Rect, rasterize
from repro.geometry.segmentation import fragment_clip
from repro.litho.kernels import (
    _BAND_DFT_CACHE,
    _band_column_resample,
    _band_dft_matrices,
    band_limited_mask_subgrid_direct,
    band_values_at_pixels,
    gather_band_rfft,
)
from repro.litho.simulator import LithoConfig, LithographySimulator
from repro.metrology.epe import measure_epe_grouped_sparse, measure_stencil_plan
from repro.service.sharding import FINGERPRINT_EXCLUDED_LITHO_FIELDS

requires_torch = pytest.mark.skipif(
    not torch_available(), reason="torch not installed"
)

EPE_TOLERANCE_NM = 1e-9


@pytest.fixture(scope="module")
def numpy_sim():
    return LithographySimulator(LithoConfig(
        pixel_nm=8.0, period_nm=1024.0, max_kernels=4, backend="numpy",
    ))


@pytest.fixture(scope="module")
def band_geometry(numpy_sim):
    """A compact pupil band plus its kernel set, shared across tests."""
    kset = numpy_sim.kernel_set(0.0)
    return kset.band_spectra((160, 160)), kset


def small_mask_stack(count=2, n=160, seed=3):
    grid = Grid(0, 0, 8.0, n, n)
    rng = np.random.default_rng(seed)
    masks = []
    for _ in range(count):
        cx = float(rng.integers(300, n * 8 - 300))
        cy = float(rng.integers(300, n * 8 - 300))
        masks.append(rasterize(
            [Polygon.from_rect(Rect.square(cx, cy, 90))], grid
        ))
    return np.stack(masks)


class TestResolution:
    def test_backend_names_are_the_public_contract(self):
        assert BACKEND_NAMES == ("auto", "numpy", "scipy", "torch")

    @pytest.mark.parametrize("workers", [1, 4])
    def test_auto_never_picks_a_device_backend(self, workers):
        """Device execution is explicit opt-in: whatever is installed,
        ``auto`` resolves to a host backend."""
        assert resolve_backend("auto", workers).name in ("numpy", "scipy")

    def test_cupy_is_not_a_backend_name(self):
        """The adapter-less cupy seam is gone: the name is unknown like
        any other."""
        with pytest.raises(LithoError, match="unknown array backend 'cupy'"):
            resolve_backend("cupy")

    @pytest.mark.skipif(torch_available(), reason="torch is installed")
    def test_torch_raises_when_absent(self):
        """A device request must never degrade silently to host."""
        with pytest.raises(LithoError, match="torch"):
            resolve_backend("torch")

    @requires_torch
    def test_torch_cpu_resolves(self):
        backend = resolve_backend("torch", device="cpu")
        assert backend.name == "torch"
        assert backend.device == "cpu"
        assert not backend.is_numpy

    def test_host_backends_reject_device_strings(self):
        with pytest.raises(LithoError, match="host-only"):
            resolve_backend("numpy", device="cuda")

    def test_identity_vs_array_identity(self):
        """numpy and scipy differ in transform identity but share the
        array representation (host numpy) — residency-only caches key
        on ``array_identity`` so the two share one copy."""
        np1 = resolve_backend("numpy", 1)
        np2 = resolve_backend("numpy", 2)
        assert np1.identity != np2.identity
        assert np1.array_identity == np2.array_identity == ("numpy", "cpu")
        if scipy_fft_available():
            sp = resolve_backend("scipy", 2)
            assert sp.identity != np1.identity
            assert sp.array_identity == ("numpy", "cpu")
        # array_identity is a pure function of (name, device): true for
        # the torch spelling whether or not torch is importable.
        torch_cuda = ArrayBackend(name="torch", workers=1, device="cuda:1")
        assert torch_cuda.array_identity == ("torch", "cuda:1")


class TestDeprecatedConfigKnob:
    def test_fft_backend_keyword_is_rejected(self):
        """The ``fft_backend=`` alias of ``backend=`` is removed: it is
        an unknown keyword."""
        with pytest.raises(TypeError, match="fft_backend"):
            LithoConfig(pixel_nm=8.0, fft_backend="numpy")

    def test_fft_backend_next_to_backend_is_rejected(self):
        """With the alias gone there is no precedence rule left:
        ``fft_backend=`` is rejected even beside an explicit
        ``backend=``."""
        with pytest.raises(TypeError, match="fft_backend"):
            LithoConfig(pixel_nm=8.0, backend="numpy", fft_backend="scipy")

    def test_new_spelling_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = LithoConfig(pixel_nm=8.0, backend="numpy")
        assert cfg.backend == "numpy"

    def test_bad_backend_rejected_at_config_time(self):
        with pytest.raises(LithoError):
            LithoConfig(pixel_nm=8.0, backend="fftw")


class TestFingerprintExclusion:
    def test_backend_and_device_are_deployment_knobs(self):
        """Journals written under one backend must resume under any
        other: backend/device never enter the engine fingerprint."""
        for field in ("backend", "device", "fft_workers"):
            assert field in FINGERPRINT_EXCLUDED_LITHO_FIELDS


class TestDtypePolicy:
    def test_band_column_resample_is_complex128(self, band_geometry):
        """The resample half that dense and sparse paths share."""
        band, _ = band_geometry
        intensity = np.random.default_rng(4).random((2,) + band.subgrid)
        columns = _band_column_resample(
            intensity, band, resolve_backend("numpy", 1)
        )
        assert columns.shape == (2, 160, 2 * band.band[1] + 1)
        assert columns.dtype == np.complex128

    def test_band_dft_matrices_are_complex128_float64(self, band_geometry):
        band, _ = band_geometry
        left, right_ri = _band_dft_matrices(
            (160, 160), band, resolve_backend("numpy", 1)
        )
        assert left.dtype == np.complex128
        assert right_ri.dtype == np.float64

    def test_band_gather_promotes_to_complex128(self, band_geometry):
        band, kset = band_geometry
        masks = small_mask_stack()
        sub = gather_band_rfft(np.fft.rfft2(masks, axes=(-2, -1)), band)
        assert sub.dtype == np.complex128

    def test_surrogate_gemm_path_is_float64(self, band_geometry):
        band, _ = band_geometry
        features = band_limited_mask_subgrid_direct(small_mask_stack(), band)
        assert features.dtype == np.float64
        from repro.surrogate.model import CFNOLite, pupil_modes

        net = CFNOLite(pupil_modes(band), width=4)
        out = net.forward_fast(features[:, None, :, :])
        assert out.dtype == np.float64

    def test_sparse_values_are_float64(self, band_geometry):
        band, kset = band_geometry
        masks = small_mask_stack()
        rows = np.array([12, 100], dtype=np.int64)
        cols = np.array([30, 88], dtype=np.int64)
        values = kset.intensity_at_pixels(
            kset.fft.fft2(masks, axes=(-2, -1)), rows, cols
        )
        assert isinstance(values, np.ndarray)
        assert values.dtype == np.float64


class TestCacheIdentity:
    def test_band_dft_cache_keys_carry_array_identity(self, band_geometry):
        band, _ = band_geometry
        _band_dft_matrices((160, 160), band, resolve_backend("numpy", 1))
        assert ((160, 160), band.band, ("numpy", "cpu")) in _BAND_DFT_CACHE

    def test_contour_plan_cache_is_backend_independent(self):
        """Stencil plans are pure geometry — no FFT input — so one plan
        deliberately serves every backend (documented invariant)."""
        from repro.metrology.contour import plan_contour_stencils

        grid = Grid(0, 0, 8.0, 64, 64)
        points = np.array([[256.0, 256.0], [300.0, 180.0]])
        normals = np.array([[1.0, 0.0], [0.0, 1.0]])
        first = plan_contour_stencils(grid, points, normals)
        second = plan_contour_stencils(grid, points.copy(), normals.copy())
        assert second is first


@requires_torch
class TestTorchParity:
    """CPU torch vs numpy on the screening stack (CI optional-deps job)."""

    @pytest.fixture(scope="class")
    def torch_sim(self):
        return LithographySimulator(LithoConfig(
            pixel_nm=8.0, period_nm=1024.0, max_kernels=4,
            backend="torch", device="cpu",
        ))

    @pytest.fixture(scope="class")
    def clip(self):
        from repro.data.via_bench import generate_via_clip

        return generate_via_clip("tb1", n_vias=2, seed=41, clip_nm=1280)

    def test_sparse_epe_parity(self, numpy_sim, torch_sim, clip):
        grid = numpy_sim.grid_for(clip)
        mask = rasterize(clip.targets, grid)
        plan = measure_stencil_plan(grid, fragment_clip(clip))
        threshold = numpy_sim.config.threshold
        (ref,) = numpy_sim.simulate_epe_batch(mask[None], grid, plan)
        (got,) = torch_sim.simulate_epe_batch(mask[None], grid, plan)
        assert isinstance(got.values, np.ndarray)  # host at the boundary
        (ref_report,) = measure_epe_grouped_sparse([ref], threshold)
        (got_report,) = measure_epe_grouped_sparse([got], threshold)
        assert got_report.count == ref_report.count > 0
        assert np.abs(
            got_report.values - ref_report.values
        ).max() < EPE_TOLERANCE_NM

    def test_device_masks_accepted_at_the_boundary(self, torch_sim, clip):
        """simulate_epe_batch takes device-resident masks directly and
        still returns host numpy sparse values."""
        import torch

        grid = torch_sim.grid_for(clip)
        mask = rasterize(clip.targets, grid)
        plan = measure_stencil_plan(grid, fragment_clip(clip))
        (host_in,) = torch_sim.simulate_epe_batch(mask[None], grid, plan)
        device_masks = torch.as_tensor(mask[None], device="cpu")
        (dev_in,) = torch_sim.simulate_epe_batch(device_masks, grid, plan)
        assert isinstance(dev_in.values, np.ndarray)
        np.testing.assert_array_equal(dev_in.values, host_in.values)

    def test_dense_aerial_parity(self, numpy_sim, torch_sim):
        masks = small_mask_stack()
        grid = Grid(0, 0, 8.0, 160, 160)
        ref = numpy_sim.simulate_batch(masks, grid)
        got = torch_sim.simulate_batch(masks, grid)
        for r, g in zip(ref, got):
            assert isinstance(g.aerial, np.ndarray)
            assert np.abs(g.aerial - r.aerial).max() < 1e-12

    def test_band_values_at_pixels_parity(self, band_geometry):
        """The sparse resample gather on device vs host: same values to
        float round-off, returned host-side."""
        band, _ = band_geometry
        intensity = np.random.default_rng(6).random((3,) + band.subgrid)
        rows = np.array([0, 17, 80, 159], dtype=np.int64)
        cols = np.array([159, 0, 41, 77], dtype=np.int64)
        host = band_values_at_pixels(
            intensity, band, rows, cols, resolve_backend("numpy", 1)
        )
        backend = resolve_backend("torch", device="cpu")
        device = band_values_at_pixels(
            backend.to_device(intensity), band, rows, cols, backend
        )
        assert isinstance(device, np.ndarray)
        assert device.dtype == np.float64
        assert np.abs(device - host).max() < 1e-12

    def test_surrogate_forward_fast_parity(self, band_geometry):
        from repro.surrogate.model import CFNOLite, pupil_modes

        band, _ = band_geometry
        net = CFNOLite(pupil_modes(band), width=4)
        features = band_limited_mask_subgrid_direct(
            small_mask_stack(), band
        )[:, None, :, :]
        host = net.forward_fast(features)
        backend = resolve_backend("torch", device="cpu")
        device_out = net.forward_fast(features, backend)
        assert np.abs(
            host - backend.to_host(device_out)
        ).max() < 1e-12

    def test_default_dtype_float32_cannot_leak(
        self, numpy_sim, torch_sim, clip
    ):
        """The documented torch dtype policy: with the process-global
        default dtype degraded to float32, every value this package
        computes is still float64 and parity still holds."""
        import torch

        previous = torch.get_default_dtype()
        torch.set_default_dtype(torch.float32)
        try:
            grid = numpy_sim.grid_for(clip)
            mask = rasterize(clip.targets, grid)
            plan = measure_stencil_plan(grid, fragment_clip(clip))
            (ref,) = numpy_sim.simulate_epe_batch(mask[None], grid, plan)
            (got,) = torch_sim.simulate_epe_batch(mask[None], grid, plan)
            assert got.values.dtype == np.float64
            assert np.abs(got.values - ref.values).max() < 1e-12
        finally:
            torch.set_default_dtype(previous)


class TestAdapterSemantics:
    """ArrayBackend method contracts that the numpy family must honor
    bit-for-bit (the torch legs live in TestTorchParity)."""

    def test_host_movement_is_passthrough(self):
        backend = resolve_backend("numpy", 1)
        a = np.arange(6.0).reshape(2, 3)
        assert backend.to_device(a) is a
        assert backend.to_host(a) is a
        assert backend.index(a.astype(np.int64)) is not None
        assert backend.asarray_f64(a) is a  # already float64: no copy

    def test_numpy_ops_match_np_exactly(self):
        backend = resolve_backend("numpy", 1)
        rng = np.random.default_rng(9)
        stack = rng.random((2, 8, 8))
        assert np.array_equal(
            backend.rfft2(stack), np.fft.rfft2(stack, axes=(-2, -1))
        )
        half = np.fft.rfft(stack, axis=-1)
        assert np.array_equal(backend.rfft(stack), half)
        assert np.array_equal(
            backend.fft(half, axis=-2), np.fft.fft(half, axis=-2)
        )
        assert np.array_equal(
            backend.ifft(half, axis=-2), np.fft.ifft(half, axis=-2)
        )
        # Short inputs zero-pad to n, as the pruned resample relies on.
        assert np.array_equal(
            backend.irfft(half[..., :3], n=8),
            np.fft.irfft(half[..., :3], n=8),
        )
        assert np.array_equal(
            backend.concat([stack, stack], axis=0),
            np.concatenate([stack, stack], axis=0),
        )
        assert np.array_equal(
            backend.einsum("bij->b", stack), np.einsum("bij->b", stack)
        )
        assert backend.zeros((2, 2), backend.float64).dtype == np.float64
        assert backend.empty((2, 2), backend.complex128).dtype == np.complex128

    @requires_torch
    def test_torch_adapter_round_trips(self):
        import torch

        backend = resolve_backend("torch", device="cpu")
        a = np.arange(6.0).reshape(2, 3)
        t = backend.to_device(a)
        assert isinstance(t, torch.Tensor) and t.dtype == torch.float64
        np.testing.assert_array_equal(backend.to_host(t), a)
        # Negative strides (views like a[::-1]) must not trip as_tensor.
        flipped = backend.to_device(a[::-1])
        np.testing.assert_array_equal(backend.to_host(flipped), a[::-1])
        assert backend.index(np.array([1, 0])).dtype == torch.int64
