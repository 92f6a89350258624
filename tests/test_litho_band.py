"""Frequency-native engine tests: per-grid TCC lattices, band-limited
SOCS spectra, and the exactness acceptance of the one subgrid engine
(max |dI| <= 1e-9 against the retained spatial reference path, <= 1e-12
on grids the pupil band covers; sparse values from band-pruned spectra
<= 1e-12 against the dense aerials; dense aerials bit-for-bit against a
pinned digest)."""

import hashlib

import numpy as np
import pytest

from repro.errors import LithoError
from repro.geometry import Grid, Polygon, Rect, rasterize
from repro.litho import (
    LithoConfig,
    LithographySimulator,
    build_kernel_set,
    build_tcc_grid,
    scipy_fft_available,
    socs_spectra,
)
from repro.litho.kernels import band_rfft2
from repro.litho.source import SourceSpec
from repro.litho.tcc import build_tcc, elliptic_lattice

MAX_ABS_ERROR = 1e-9
SPARSE_ABS_ERROR = 1e-12

EXACTNESS_GRIDS = [
    Grid(0, 0, 8.0, 160, 160),
    Grid(0, 0, 8.0, 250, 250),
    Grid(0, 0, 8.0, 176, 144),
    Grid(0, 0, 4.0, 320, 320),
    Grid(0, 0, 8.0, 150, 165),
]
EXACTNESS_IDS = [
    "square-160", "square-250", "non-square", "production-4nm", "odd-width",
]

# Pixels coarser than ~36 nm: the pupil band covers the grid, so the
# subgrid is the grid itself and the engine skips the resample.
COVERED_GRIDS = [
    Grid(0, 0, 40.0, 32, 32),
    Grid(0, 0, 40.0, 30, 36),
    Grid(0, 0, 36.0, 48, 40),
    Grid(0, 0, 50.0, 25, 31),
]
COVERED_IDS = ["40nm-32", "40nm-30x36", "36nm-48x40", "50nm-25x31"]

# SHA-256 digests of the dense engine's output for ``pattern_masks`` on
# the 176 x 144 grid (the ``simulator`` fixture's config, numpy 2.4),
# recorded before the sparse gather was rebuilt on the dense resample.
# The subgrid digest covers everything upstream of the resample (SOCS
# eigenbasis, forward transform, subgrid convolution), so a host whose
# LAPACK or FFT build changes those bits skips rather than fails.
PINNED_SUBGRID_SHA256 = (
    "9b117ddfc897fb858566a608268769d56150262ce4004598d4d8f6490f42cd46"
)
PINNED_AERIAL_SHA256 = (
    "eff6be7ac96d29f0760e87e6e7492877d57532daa1075f714d3d29c6dae94578"
)


def _sha256(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class TestGridLattice:
    def test_elliptic_lattice_isotropic_matches_disk(self):
        pts = elliptic_lattice(5, 5, 1.0, 1.0, 5.0)
        assert [0, 0] in pts.tolist()
        assert np.all(pts[:, 0] ** 2 + pts[:, 1] ** 2 <= 25)

    def test_elliptic_lattice_anisotropy(self):
        """Finer row spacing admits more row indices under the cutoff."""
        pts = elliptic_lattice(10, 10, 0.5, 1.0, 5.0)
        assert np.abs(pts[:, 0]).max() == 10
        assert np.abs(pts[:, 1]).max() == 5

    def test_grid_tcc_refines_square_build(self):
        """On a square grid, build_tcc_grid shares the square build's
        lattice spacing and covers at least its lattice (the grid build
        keeps the full physical pupil disk |f| <= cutoff, while the
        legacy square build rounds to an integer index radius)."""
        grid_tcc = build_tcc_grid(SourceSpec(), (128, 128), 8.0)
        square_tcc = build_tcc(SourceSpec(), period_nm=1024.0)
        assert grid_tcc.lattice_spacing == square_tcc.lattice_spacing
        grid_pts = {tuple(p) for p in grid_tcc.shift_indices}
        square_pts = {tuple(p) for p in square_tcc.shift_indices}
        assert square_pts <= grid_pts

    def test_non_square_grid_band(self):
        tcc = build_tcc_grid(SourceSpec(), (176, 144), 8.0)
        b0, b1 = tcc.band_radii
        # Finer row spacing (taller window) admits a wider row band.
        assert b0 > b1 >= 2
        with pytest.raises(LithoError, match="single spacing"):
            tcc.lattice_spacing

    def test_too_small_grid_rejected(self):
        with pytest.raises(LithoError, match="too coarse"):
            build_tcc_grid(SourceSpec(), (16, 16), 8.0)

    def test_socs_spectra_align_with_lattice(self):
        tcc = build_tcc_grid(SourceSpec(), (128, 128), 8.0)
        weights, coefficients = socs_spectra(tcc, max_kernels=4)
        assert coefficients.shape == (len(weights), len(tcc.shift_indices))
        assert np.all(weights >= 0)
        assert np.all(np.diff(weights) <= 1e-12)


@pytest.fixture(scope="module")
def simulator():
    return LithographySimulator(
        LithoConfig(pixel_nm=8.0, max_kernels=8, backend="numpy")
    )


def pattern_masks(grid, count=3):
    rng = np.random.default_rng(7)
    masks = []
    for _ in range(count):
        polys = []
        for _ in range(2):
            cx = float(rng.integers(420, int(grid.cols * grid.pixel_nm) - 420))
            cy = float(rng.integers(420, int(grid.rows * grid.pixel_nm) - 420))
            size = float(rng.integers(60, 130))
            polys.append(Polygon.from_rect(Rect.square(cx, cy, size)))
        masks.append(rasterize(polys, grid))
    return masks


class TestExactness:
    """Acceptance: the unified engine matches the retained spatial
    reference to <= 1e-9 max absolute intensity error."""

    @pytest.mark.parametrize("grid", EXACTNESS_GRIDS, ids=EXACTNESS_IDS)
    def test_band_engine_matches_reference(self, simulator, grid):
        masks = pattern_masks(grid)
        batched = simulator.simulate_batch(np.stack(masks), grid)
        for mask, result in zip(masks, batched):
            reference = simulator.simulate_mask(mask, grid)
            assert (
                np.abs(result.aerial - reference.aerial).max() < MAX_ABS_ERROR
            )
            assert (
                np.abs(result.aerial_defocus - reference.aerial_defocus).max()
                < MAX_ABS_ERROR
            )
            for corner in ("nominal", "inner", "outer"):
                assert np.array_equal(
                    result.printed[corner], reference.printed[corner]
                )

    @pytest.mark.parametrize("grid", COVERED_GRIDS, ids=COVERED_IDS)
    def test_band_engine_matches_reference_when_band_covers_grid(self, grid):
        """The same engine on a grid its pupil band covers: exact against
        the reference to round-off, and the sparse path gathers the
        dense aerial bit for bit."""
        sim = LithographySimulator(LithoConfig(
            pixel_nm=grid.pixel_nm, max_kernels=8, backend="numpy"
        ))
        masks = np.stack(pattern_masks(grid))
        batched = sim.simulate_batch(masks, grid)
        for mask, result in zip(masks, batched):
            reference = sim.simulate_mask(mask, grid)
            assert np.abs(result.aerial - reference.aerial).max() <= (
                SPARSE_ABS_ERROR
            )
            assert np.abs(
                result.aerial_defocus - reference.aerial_defocus
            ).max() <= SPARSE_ABS_ERROR
        rows = np.arange(grid.rows).repeat(2)
        cols = np.resize(np.arange(grid.cols), rows.shape)
        for defocus, attr in ((0.0, "aerial"), (None, "aerial_defocus")):
            if defocus is None:
                defocus = sim.corners()[1].defocus_nm
            kset = sim.kernel_set(defocus)
            band = kset.band_spectra(grid.shape)
            assert not band.compact and band.subgrid == grid.shape
            spectra = band_rfft2(masks, band.band[1] + 1, kset.fft)
            sparse = kset.intensity_at_pixels(spectra, rows, cols, grid.shape)
            gathered = np.stack([getattr(r, attr)[rows, cols] for r in batched])
            assert np.array_equal(sparse, gathered)

    @pytest.mark.skipif(
        not scipy_fft_available(), reason="scipy not installed"
    )
    def test_band_engine_matches_reference_scipy(self):
        sim = LithographySimulator(
            LithoConfig(pixel_nm=8.0, max_kernels=8, backend="scipy",
                        fft_workers=2)
        )
        grid = Grid(0, 0, 8.0, 160, 160)
        masks = pattern_masks(grid)
        batched = sim.simulate_batch(np.stack(masks), grid)
        for mask, result in zip(masks, batched):
            reference = sim.simulate_mask(mask, grid)
            assert (
                np.abs(result.aerial - reference.aerial).max() < MAX_ABS_ERROR
            )

    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    @pytest.mark.parametrize("grid", EXACTNESS_GRIDS, ids=EXACTNESS_IDS)
    def test_sparse_from_pruned_spectra_matches_dense(
        self, simulator, grid, batch_size
    ):
        """The sparse gather fed by band-pruned spectra equals the dense
        aerials of ``simulate_batch`` gathered at the same pixels, for
        both focus corners."""
        masks = np.stack(pattern_masks(grid, count=batch_size))
        dense = simulator.simulate_batch(masks, grid)
        rng = np.random.default_rng(batch_size)
        # Random pixels plus the edges: column 0, column W - 1, row H - 1.
        last_row, last_col = grid.rows - 1, grid.cols - 1
        rows = np.r_[rng.integers(0, grid.rows, 300), 0, last_row, last_row, 9]
        cols = np.r_[rng.integers(0, grid.cols, 300), last_col, 0, last_col, 0]
        for defocus, attr in ((0.0, "aerial"), (None, "aerial_defocus")):
            if defocus is None:
                defocus = simulator.corners()[1].defocus_nm
            kset = simulator.kernel_set(defocus)
            band = kset.band_spectra(grid.shape)
            spectra = band_rfft2(masks, band.band[1] + 1, kset.fft)
            sparse = kset.intensity_at_pixels(spectra, rows, cols, grid.shape)
            gathered = np.stack([getattr(r, attr)[rows, cols] for r in dense])
            assert np.abs(sparse - gathered).max() <= SPARSE_ABS_ERROR

    def test_dense_aerials_bit_identical_to_pinned_output(self, simulator):
        """The dense resample shares its first half with the sparse
        gather; its aerials must not move by a single bit."""
        grid = Grid(0, 0, 8.0, 176, 144)
        masks = np.stack(pattern_masks(grid))
        subgrids = []
        for corner in simulator.corners()[:2]:
            kset = simulator.kernel_set(corner.defocus_nm)
            columns = kset.band_spectra(grid.shape).band[1] + 1
            subgrids.append(kset.subgrid_intensity_from_rfft(
                band_rfft2(masks, columns, kset.fft), grid.shape
            ))
        if _sha256(subgrids) != PINNED_SUBGRID_SHA256:
            pytest.skip("subgrid intensity bits differ on this host's "
                        "LAPACK/FFT build; the pin only guards the resample")
        results = simulator.simulate_batch(masks, grid)
        aerials = [r.aerial for r in results]
        aerials += [r.aerial_defocus for r in results]
        assert _sha256(aerials) == PINNED_AERIAL_SHA256

    @pytest.mark.parametrize("grid", EXACTNESS_GRIDS, ids=EXACTNESS_IDS)
    def test_pruned_forward_is_rfft2_prefix(self, simulator, grid):
        """On the numpy backend the pruned forward runs rfft2's own two
        passes on fewer columns, so it is a bit-for-bit prefix."""
        masks = np.stack(pattern_masks(grid))
        kset = simulator.kernel_set(0.0)
        columns = kset.band_spectra(grid.shape).band[1] + 1
        assert np.array_equal(
            band_rfft2(masks, columns, kset.fft),
            np.fft.rfft2(masks, axes=(-2, -1))[..., :columns],
        )

    def test_spectra_narrower_than_band_rejected(self, simulator):
        grid = Grid(0, 0, 8.0, 160, 160)
        kset = simulator.kernel_set(0.0)
        b1 = kset.band_spectra(grid.shape).band[1]
        masks = np.stack(pattern_masks(grid, count=1))
        narrow = band_rfft2(masks, b1, kset.fft)
        rows, cols = np.array([0, 5]), np.array([3, 7])
        with pytest.raises(LithoError, match=r"needs at least \d+ \(b1 \+ 1\)"):
            kset.intensity_at_pixels(narrow, rows, cols, grid.shape)
        with pytest.raises(LithoError, match=r"b1 \+ 1"):
            kset.subgrid_intensity_from_rfft(narrow, grid.shape)
        with pytest.raises(LithoError, match=r"b1 \+ 1"):
            kset.intensity_from_mask_ffts(narrow, grid.shape)
        # b1 + 1 columns exactly is enough.
        wide_enough = band_rfft2(masks, b1 + 1, kset.fft)
        assert kset.intensity_from_mask_ffts(wide_enough, grid.shape).shape == (
            1, *grid.shape
        )

    def test_open_frame_images_to_unity(self, simulator):
        grid = Grid(0, 0, 8.0, 160, 160)
        result = simulator.simulate_batch(np.ones((1, 160, 160)), grid)[0]
        assert np.abs(result.aerial - 1.0).max() < 1e-12

    def test_per_grid_weights_are_normalized(self, simulator):
        for shape in ((160, 160), (176, 144)):
            band = simulator.kernel_set(0.0).band_spectra(shape)
            dc = band.sub_spectra[:, 0, 0] * (
                shape[0] * shape[1] / (band.subgrid[0] * band.subgrid[1])
            )
            assert np.sum(band.weights * np.abs(dc) ** 2) == pytest.approx(1.0)


class TestBandCaches:
    def test_band_spectra_cached_per_shape(self, simulator):
        kernel_set = simulator.kernel_set(0.0)
        a = kernel_set.band_spectra((160, 160))
        b = kernel_set.band_spectra((160, 160))
        assert a is b

    def test_band_cache_lru_eviction(self):
        kernel_set = build_kernel_set(
            pixel_nm=8.0, period_nm=1024.0, max_kernels=4,
            fft_backend="numpy",
        )
        kernel_set._band_cache.clear()
        capacity = kernel_set.fft_cache_capacity
        shapes = [(96 + 4 * i, 96 + 4 * i) for i in range(capacity + 2)]
        for shape in shapes:
            kernel_set.band_spectra(shape)
        assert len(kernel_set._band_cache) == capacity
        assert shapes[0] not in kernel_set._band_cache
        # Recomputation after eviction reproduces the spectra exactly.
        rebuilt = kernel_set.band_spectra(shapes[0])
        fresh = kernel_set._build_band_spectra(shapes[0])
        assert np.array_equal(rebuilt.sub_spectra, fresh.sub_spectra)
        assert np.array_equal(rebuilt.weights, fresh.weights)


class TestIltBandContract:
    def test_weights_and_spectra_share_shape_decomposition(self, simulator):
        """The pixel-ILT contract: weights_for and kernel_spectra come
        from the same per-grid band decomposition, and the reconstructed
        intensity matches the engine."""
        kernel_set = simulator.kernel_set(0.0)
        grid = Grid(0, 0, 8.0, 160, 160)
        mask = pattern_masks(grid, count=1)[0]
        weights = kernel_set.weights_for(mask.shape)
        mask_fft = kernel_set.fft.fft2(mask)
        fields = kernel_set.fields_from_mask_fft(mask_fft)
        assert len(weights) == len(fields)
        intensity = np.zeros(mask.shape)
        for w, ck in zip(weights, fields):
            intensity += w * (ck.real**2 + ck.imag**2)
        reference = kernel_set.convolve_intensity(mask)
        assert np.abs(intensity - reference).max() < 1e-12
