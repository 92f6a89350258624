"""Sparse contour-point EPE path: stencil planning, band-spectrum
gather, lazy printed images and the scipy ``next_fast_len`` delegation.

The contract under test, end to end: ``simulate_epe_batch`` +
``measure_epe_grouped_sparse`` must reproduce the dense
``simulate_batch`` + ``measure_epe_grouped`` verifier to <= 1e-9 nm per
measure point on a mixed via+metal suite, under both FFT backends — and
each layer of the sparse stack (pixel-set planning, bilinear profile
rebuild, crossing resolution) must match its dense counterpart
*bit-for-bit* given identical inputs, so the only divergence is the
litho engine's <= 1e-12 intensity round-off.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.stdcell import stdcell_metal_clip
from repro.data.via_bench import generate_via_clip
from repro.errors import LithoError, MetrologyError
from repro.geometry import Grid, Polygon, Rect, rasterize
from repro.geometry.raster import bilinear_sample_many, bilinear_sample_stack
from repro.geometry.segmentation import fragment_clip
from repro.litho import OpticalKernelSet, SourceSpec, build_kernel_set
from repro.litho.kernels import band_values_at_pixels, shared_mask_spectra
from repro.backend import (
    _is_5_smooth,
    next_fast_len,
    scipy_fft_available,
    torch_available,
)
from repro.litho.simulator import LithoConfig, LithographySimulator
from repro.metrology.contour import (
    SparseAerial,
    _sample_coordinates,
    contour_offset_along_normal,
    contour_offsets_sparse,
    plan_contour_stencils,
)
from repro.metrology.epe import (
    measure_epe_grouped,
    measure_epe_grouped_sparse,
    measure_epe_sparse,
    measure_stencil_plan,
)

EPE_TOLERANCE_NM = 1e-9
INTENSITY_TOLERANCE = 1e-12

BACKENDS = (
    ["numpy"]
    + (["scipy"] if scipy_fft_available() else [])
    + (["torch"] if torch_available() else [])
)


@pytest.fixture(scope="module", params=BACKENDS)
def sim(request):
    """One simulator per array backend — the parity suite runs under
    every installed backend (numpy always; scipy and CPU/CUDA torch
    when importable)."""
    return LithographySimulator(LithoConfig(
        pixel_nm=8.0, period_nm=1024.0, max_kernels=4,
        backend=request.param,
        fft_workers=2 if request.param == "scipy" else 1,
    ))


@pytest.fixture(scope="module")
def numpy_sim():
    return LithographySimulator(LithoConfig(
        pixel_nm=8.0, period_nm=1024.0, max_kernels=4, backend="numpy",
    ))


@pytest.fixture(scope="module")
def mixed_suite():
    """Mixed via+metal suite spanning two raster grid shapes."""
    return [
        generate_via_clip("ev1", n_vias=2, seed=31, clip_nm=1280),
        generate_via_clip("ev2", n_vias=2, seed=32, clip_nm=1280),
        generate_via_clip("ev3", n_vias=2, seed=33, clip_nm=1024),
        stdcell_metal_clip("em1", 8, seed=5, clip_nm=1280),
    ]


def mask_stack(grid, count, seed=7):
    rng = np.random.default_rng(seed)
    masks = []
    for _ in range(count):
        cx = float(rng.integers(300, int(grid.cols * grid.pixel_nm) - 300))
        cy = float(rng.integers(300, int(grid.rows * grid.pixel_nm) - 300))
        size = float(rng.integers(60, 120))
        masks.append(
            rasterize([Polygon.from_rect(Rect.square(cx, cy, size))], grid)
        )
    return np.stack(masks)


def random_pixel_set(shape, count, seed=11):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, shape[0], size=count)
    cols = rng.integers(0, shape[1], size=count)
    return rows, cols


class TestNextFastLen:
    def test_is_smallest_5_smooth_bound(self):
        """Over 1..4096: the result is 5-smooth, >= n, and nothing
        5-smooth lies between — whether or not scipy (whose own notion
        of "fast" admits factors of 7 and 11) drives the search."""
        for n in range(1, 4097):
            m = next_fast_len(n)
            assert m >= n
            assert _is_5_smooth(m)
            assert not any(_is_5_smooth(k) for k in range(n, m))

    def test_fixed_points(self):
        # 5-smooth inputs are their own answer; 7-smooth ones are not.
        assert next_fast_len(120) == 120
        assert next_fast_len(49) == 50  # 49 = 7^2 is fast for scipy only
        assert next_fast_len(121) == 125  # 121 = 11^2 likewise

    def test_rejects_nonpositive(self):
        with pytest.raises(LithoError, match="positive"):
            next_fast_len(0)


GRID = Grid(0, 0, 8.0, 160, 160)


class TestSparseIntensity:
    def test_matches_dense_gather_on_compact_band(self, sim):
        kset = sim.kernel_set(0.0)
        masks = mask_stack(GRID, 3)
        spectra = kset.fft.fft2(masks, axes=(-2, -1))
        dense = kset.intensity_from_mask_ffts(spectra)
        rows, cols = random_pixel_set(GRID.shape, 200)
        sparse = kset.intensity_at_pixels(spectra, rows, cols)
        assert sparse.shape == (3, 200)
        assert np.abs(sparse - dense[:, rows, cols]).max() < INTENSITY_TOLERANCE

    def test_rfft_entry_matches_full_spectrum_entry(self, sim):
        kset = sim.kernel_set(0.0)
        masks = mask_stack(GRID, 2)
        rows, cols = random_pixel_set(GRID.shape, 150)
        via_fft = kset.intensity_at_pixels(
            kset.fft.fft2(masks, axes=(-2, -1)), rows, cols
        )
        via_rfft = kset.intensity_at_pixels(
            kset.fft.rfft2(masks, axes=(-2, -1)), rows, cols, GRID.shape
        )
        assert np.abs(via_rfft - via_fft).max() < INTENSITY_TOLERANCE

    def test_non_compact_fallback_is_exact(self):
        """When the pupil band spans the grid the subgrid is the grid:
        the sparse path gathers the very intensity the dense engine
        returns — bit-for-bit, not merely close."""
        kset = build_kernel_set(
            pixel_nm=40.0, period_nm=2048.0, max_kernels=4,
            fft_backend="numpy",
        )
        assert not kset.band_spectra((32, 32)).compact
        mask = np.zeros((32, 32))
        mask[10:20, 10:20] = 1.0
        spectra = kset.fft.fft2(mask[None], axes=(-2, -1))
        dense = kset.intensity_from_mask_ffts(spectra)
        rows, cols = random_pixel_set((32, 32), 40)
        sparse = kset.intensity_at_pixels(spectra, rows, cols)
        assert np.array_equal(sparse, dense[:, rows, cols])

    @settings(max_examples=20, deadline=None)
    @given(
        pixel_nm=st.floats(min_value=8.0, max_value=50.0),
        window_nm=st.tuples(st.floats(600.0, 1100.0), st.floats(600.0, 1100.0)),
        seed=st.integers(0, 10_000),
    )
    def test_property_sparse_equals_dense_gather(
        self, pixel_nm, window_nm, seed
    ):
        """Over pixel pitches on both sides of the compact boundary
        (~36 nm at the default optics) and odd/even grids: the sparse
        path equals the dense aerials gathered at the same pixels — bit
        for bit where the band covers the grid (both read one subgrid
        intensity), <= 1e-12 where the last resample step differs
        (``irfft`` along W vs a direct Hermitian sum)."""
        shape = tuple(int(extent // pixel_nm) for extent in window_nm)
        kset = OpticalKernelSet(
            pixel_nm=pixel_nm, defocus_nm=0.0, source=SourceSpec(),
            max_kernels=6, fft_backend="numpy",
        )
        rng = np.random.default_rng(seed)
        masks = (rng.random((2, *shape)) < 0.3).astype(np.float64)
        spectra = shared_mask_spectra(masks, (kset,))
        dense = kset.intensity_from_mask_ffts(spectra, shape)
        rows, cols = random_pixel_set(shape, 60, seed=seed)
        sparse = kset.intensity_at_pixels(spectra, rows, cols, shape)
        if kset.band_spectra(shape).compact:
            assert np.abs(sparse - dense[:, rows, cols]).max() <= (
                INTENSITY_TOLERANCE
            )
        else:
            assert np.array_equal(sparse, dense[:, rows, cols])

    def test_out_of_range_pixels_rejected(self, sim):
        kset = sim.kernel_set(0.0)
        spectra = kset.fft.fft2(mask_stack(GRID, 1), axes=(-2, -1))
        with pytest.raises(LithoError, match="outside"):
            kset.intensity_at_pixels(
                spectra, np.array([0, GRID.rows]), np.array([0, 0])
            )
        with pytest.raises(LithoError, match="1-D"):
            kset.intensity_at_pixels(
                spectra, np.array([0, 1]), np.array([0])
            )

    def test_spectra_not_matching_grid_rejected(self, sim):
        """The sparse entry validates spectra exactly as the dense one:
        all H rows, at most W columns."""
        kset = sim.kernel_set(0.0)
        full = kset.fft.fft2(mask_stack(GRID, 1), axes=(-2, -1))
        pixel = (np.array([0]), np.array([0]))
        for shape in ((GRID.rows + 2, GRID.cols), (GRID.rows, GRID.cols - 2)):
            with pytest.raises(LithoError, match="do not match grid"):
                kset.intensity_at_pixels(full, *pixel, shape)
            with pytest.raises(LithoError, match="do not match grid"):
                kset.intensity_from_mask_ffts(full, shape)

    def test_subgrid_lift_matches_dense_resample(self, sim):
        """The surrogate's prediction lift: ``band_values_at_pixels`` on
        an arbitrary subgrid intensity equals that intensity's
        zero-padded full-grid resample at the same pixels."""
        kset = sim.kernel_set(0.0)
        band = kset.band_spectra(GRID.shape)
        (m0, m1), (height, width) = band.subgrid, GRID.shape
        intensity = np.random.default_rng(19).random((3, m0, m1))
        spectrum = np.fft.fft2(intensity, axes=(-2, -1))
        padded = np.zeros((3, height, width), dtype=np.complex128)
        reach = 2 * band.band[1]  # the intensity band's column radius
        cols_src = np.r_[0 : reach + 1, m1 - reach : m1]
        cols_dst = np.r_[0 : reach + 1, width - reach : width]
        padded[
            :, band.up_rows_dst[:, None], cols_dst[None, :]
        ] = spectrum[:, band.up_rows_src[:, None], cols_src[None, :]]
        dense = np.fft.ifft2(padded, axes=(-2, -1)).real * (
            (height * width) / (m0 * m1)
        )
        rows, cols = random_pixel_set(GRID.shape, 120, seed=23)
        rows = np.r_[rows, 0, height - 1, height - 1]
        cols = np.r_[cols, width - 1, 0, width - 1]
        lifted = band_values_at_pixels(
            kset.fft.to_device(intensity), band, rows, cols, kset.fft
        )
        drift = np.abs(lifted - dense[:, rows, cols]).max()
        assert drift <= INTENSITY_TOLERANCE


class TestStencilPlan:
    @staticmethod
    def _geometry(grid, n=9, seed=3):
        rng = np.random.default_rng(seed)
        span_x = grid.cols * grid.pixel_nm
        span_y = grid.rows * grid.pixel_nm
        points = np.stack([
            rng.uniform(0.15 * span_x, 0.85 * span_x, n),
            rng.uniform(0.15 * span_y, 0.85 * span_y, n),
        ], axis=1)
        angles = rng.uniform(0, 2 * np.pi, n)
        normals = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        return points, normals

    def test_profiles_bit_for_bit_vs_dense_sampler(self):
        grid = Grid(0, 0, 8.0, 64, 64)
        points, normals = self._geometry(grid)
        plan = plan_contour_stencils(grid, points, normals)
        image = np.random.default_rng(5).uniform(0, 1, grid.shape)
        values = image[plan.pixel_rows, plan.pixel_cols]
        xs, ys = _sample_coordinates(points, normals, plan.offsets)
        dense = bilinear_sample_many(image, grid, xs, ys).reshape(
            len(points), len(plan.offsets)
        )
        assert np.array_equal(plan.profiles(values), dense)

    def test_resolve_bit_for_bit_vs_dense_contour(self):
        grid = Grid(0, 0, 8.0, 64, 64)
        points, normals = self._geometry(grid, seed=13)
        plan = plan_contour_stencils(grid, points, normals)
        # A smooth bump so profiles actually cross a mid threshold.
        yy, xx = np.mgrid[0:64, 0:64]
        image = np.exp(-((xx - 32) ** 2 + (yy - 32) ** 2) / 300.0)
        values = image[plan.pixel_rows, plan.pixel_cols]
        dense = contour_offset_along_normal(
            image, grid, points, normals, threshold=0.4
        )
        assert np.array_equal(plan.resolve(values, 0.4), dense)

    def test_border_stencils_match_dense_samplers(self):
        """Out-of-raster search samples: every path must apply the one
        `_bilinear_weights` clamping rule.  Points sit on (and beyond)
        the raster border with outward normals, so most of each search
        window falls off the grid."""
        grid = Grid(0, 0, 8.0, 32, 32)
        span = 32 * 8.0
        points = np.array([
            [0.0, 100.0],          # on the left edge
            [span, 140.0],         # on the right edge
            [120.0, 0.0],          # on the bottom edge
            [-30.0, 50.0],         # fully outside the raster
            [span + 25.0, span],   # outside past the far corner
        ])
        normals = np.array([
            [-1.0, 0.0], [1.0, 0.0], [0.0, -1.0],
            [-0.7071, -0.7071], [0.7071, 0.7071],
        ])
        images = np.random.default_rng(17).uniform(0, 1, (3, 32, 32))
        plan = plan_contour_stencils(grid, points, normals)
        # Every clamped stencil index stays on the raster.
        assert plan.pixel_rows.min() >= 0 and plan.pixel_rows.max() < 32
        assert plan.pixel_cols.min() >= 0 and plan.pixel_cols.max() < 32
        xs, ys = _sample_coordinates(points, normals, plan.offsets)
        stacked = bilinear_sample_stack(images, grid, xs, ys)
        for image, stack_row in zip(images, stacked):
            many = bilinear_sample_many(image, grid, xs, ys)
            assert np.array_equal(stack_row, many)  # stack vs scalar path
            sparse = plan.profiles(image[plan.pixel_rows, plan.pixel_cols])
            assert np.array_equal(
                sparse, many.reshape(len(points), len(plan.offsets))
            )
            # And the resolved offsets agree bit-for-bit too.
            dense_offsets = contour_offset_along_normal(
                image, grid, points, normals, threshold=0.5
            )
            assert np.array_equal(
                plan.resolve(
                    image[plan.pixel_rows, plan.pixel_cols], 0.5
                ),
                dense_offsets,
            )

    def test_plan_cache_returns_same_object(self):
        grid = Grid(0, 0, 8.0, 48, 48)
        points, normals = self._geometry(grid, n=4, seed=29)
        first = plan_contour_stencils(grid, points, normals)
        second = plan_contour_stencils(grid, points.copy(), normals.copy())
        assert second is first
        widened = plan_contour_stencils(grid, points, normals, search_nm=60.0)
        assert widened is not first

    def test_mixed_search_windows_rejected(self):
        grid = Grid(0, 0, 8.0, 48, 48)
        points, normals = self._geometry(grid, n=4, seed=29)
        narrow = plan_contour_stencils(grid, points, normals, search_nm=20.0)
        wide = plan_contour_stencils(grid, points, normals, search_nm=40.0)
        aerials = [
            SparseAerial(plan=plan, values=np.zeros(plan.n_pixels))
            for plan in (narrow, wide)
        ]
        with pytest.raises(MetrologyError, match="search windows"):
            contour_offsets_sparse(aerials, 0.5)


class TestLazyPrinted:
    def test_matches_eager_thresholding_and_caches(self, sim):
        from repro.litho.resist import printed_image

        grid = Grid(0, 0, 8.0, 128, 128)
        result = sim.simulate_batch(mask_stack(grid, 1), grid)[0]
        printed = result.printed
        assert set(printed) == {"nominal", "inner", "outer"}
        assert len(printed) == 3
        nominal, inner, outer = sim.corners()
        expected = {
            "nominal": printed_image(
                result.aerial, sim.config.threshold, nominal.dose
            ),
            "inner": printed_image(
                result.aerial_defocus, sim.config.threshold, inner.dose
            ),
            "outer": printed_image(
                result.aerial_defocus, sim.config.threshold, outer.dose
            ),
        }
        for corner in printed:
            assert np.array_equal(printed[corner], expected[corner])
            assert printed[corner] is printed[corner]  # cached object

    def test_simulate_batch_result_printed_is_lazy(self, sim):
        from repro.litho.simulator import LazyPrinted

        grid = Grid(0, 0, 8.0, 128, 128)
        result = sim.simulate_batch(mask_stack(grid, 1), grid)[0]
        assert isinstance(result.printed, LazyPrinted)
        assert "materialized=[]" in repr(result.printed)
        result.printed["nominal"]
        assert "materialized=['nominal']" in repr(result.printed)


class TestEndToEndParity:
    def test_sparse_matches_dense_verifier_on_mixed_suite(
        self, sim, mixed_suite
    ):
        """The headline gate, under each FFT backend: sparse EPE within
        1e-9 nm of the dense pipeline on every measure point of a mixed
        via+metal suite."""
        threshold = sim.config.threshold
        for clip in mixed_suite:
            grid = sim.grid_for(clip)
            segments = fragment_clip(clip)
            mask = rasterize(clip.targets, grid)
            dense_litho = sim.simulate_batch(mask[None], grid)[0]
            (dense_report,) = measure_epe_grouped(
                dense_litho.aerial[None], [grid], [segments], threshold
            )
            plan = measure_stencil_plan(grid, segments)
            (sparse_aerial,) = sim.simulate_epe_batch(mask[None], grid, plan)
            sparse_report = measure_epe_sparse(sparse_aerial, threshold)
            assert sparse_report.count == dense_report.count > 0
            assert np.abs(
                sparse_report.values - dense_report.values
            ).max() < EPE_TOLERANCE_NM

    def test_grouped_sparse_matches_grouped_dense(self, sim, mixed_suite):
        """Batched shape-bin flush shape: same-raster clips with
        different geometry through one simulate_epe_batch call."""
        threshold = sim.config.threshold
        same_shape = [c for c in mixed_suite if c.name != "ev3"]
        grids = [sim.grid_for(clip) for clip in same_shape]
        segments = [fragment_clip(clip) for clip in same_shape]
        stack = np.stack([
            rasterize(clip.targets, grid)
            for clip, grid in zip(same_shape, grids)
        ])
        dense = sim.simulate_batch(stack, grids[0])
        dense_reports = measure_epe_grouped(
            np.stack([litho.aerial for litho in dense]),
            grids, segments, threshold,
        )
        plans = [
            measure_stencil_plan(grid, segs)
            for grid, segs in zip(grids, segments)
        ]
        sparse = sim.simulate_epe_batch(stack, grids[0], plans)
        sparse_reports = measure_epe_grouped_sparse(sparse, threshold)
        for got, ref in zip(sparse_reports, dense_reports):
            assert got.count == ref.count
            assert np.abs(got.values - ref.values).max() < EPE_TOLERANCE_NM

    def test_with_defocus_gathers_the_defocus_corner(self, sim, mixed_suite):
        clip = mixed_suite[0]
        grid = sim.grid_for(clip)
        mask = rasterize(clip.targets, grid)
        plan = measure_stencil_plan(grid, fragment_clip(clip))
        (aerial,) = sim.simulate_epe_batch(
            mask[None], grid, plan, with_defocus=True
        )
        dense = sim.simulate_batch(mask[None], grid)[0]
        px = (plan.pixel_rows, plan.pixel_cols)
        assert np.abs(
            aerial.values - dense.aerial[px]
        ).max() < INTENSITY_TOLERANCE
        assert np.abs(
            aerial.values_defocus - dense.aerial_defocus[px]
        ).max() < INTENSITY_TOLERANCE
        # Default sweep skips the defocus corner entirely.
        (nominal_only,) = sim.simulate_epe_batch(mask[None], grid, plan)
        assert nominal_only.values_defocus is None

    def test_shared_plan_broadcasts_across_the_batch(self, sim, mixed_suite):
        """Candidate screening shape: one plan, B mask variants."""
        clip = mixed_suite[0]
        grid = sim.grid_for(clip)
        base = rasterize(clip.targets, grid)
        stack = np.stack([base, np.clip(base * 0.8, 0, 1), base])
        plan = measure_stencil_plan(grid, fragment_clip(clip))
        shared = sim.simulate_epe_batch(stack, grid, plan)
        listed = sim.simulate_epe_batch(stack, grid, [plan] * 3)
        for a, b in zip(shared, listed):
            assert a.plan is b.plan is plan
            assert np.array_equal(a.values, b.values)
        # Identical masks in one batch get identical values.
        assert np.array_equal(shared[0].values, shared[2].values)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_vias=st.integers(1, 3),
        clip_nm=st.sampled_from([1024, 1280, 1536]),
        via_nm=st.sampled_from([60.0, 70.0, 80.0]),
    )
    def test_property_sparse_epe_equals_dense_on_via_clips(
        self, numpy_sim, seed, n_vias, clip_nm, via_nm
    ):
        """Metrology property over generated via clips: the sparse
        verifier's EPE equals the dense verifier's within 1e-9 nm at
        every measure point."""
        clip = generate_via_clip(
            "prop", n_vias=n_vias, seed=seed, clip_nm=clip_nm, via_nm=via_nm
        )
        grid = numpy_sim.grid_for(clip)
        segments = fragment_clip(clip)
        mask = rasterize(clip.targets, grid)
        threshold = numpy_sim.config.threshold
        dense = numpy_sim.simulate_batch(mask[None], grid)[0]
        (dense_report,) = measure_epe_grouped(
            dense.aerial[None], [grid], [segments], threshold
        )
        plan = measure_stencil_plan(grid, segments)
        (sparse,) = numpy_sim.simulate_epe_batch(mask[None], grid, plan)
        sparse_report = measure_epe_sparse(sparse, threshold)
        assert sparse_report.count == dense_report.count > 0
        assert np.abs(
            sparse_report.values - dense_report.values
        ).max() < EPE_TOLERANCE_NM

    def test_none_plans_yield_none_and_empty_reports(self, sim, mixed_suite):
        clip = mixed_suite[0]
        grid = sim.grid_for(clip)
        mask = rasterize(clip.targets, grid)
        results = sim.simulate_epe_batch(mask[None], grid, None)
        assert results == [None]
        (report,) = measure_epe_grouped_sparse(results, sim.config.threshold)
        assert report.count == 0 and report.total_abs == 0.0

    def test_plan_grid_shape_mismatch_rejected(self, sim, mixed_suite):
        big = sim.grid_for(mixed_suite[0])    # 160x160
        small = sim.grid_for(mixed_suite[2])  # 128x128
        plan = measure_stencil_plan(small, fragment_clip(mixed_suite[2]))
        mask = rasterize(mixed_suite[0].targets, big)
        with pytest.raises(LithoError, match="does not match"):
            sim.simulate_epe_batch(mask[None], big, plan)


class TestScoreMovesEpe:
    def test_matches_dense_score_moves(self, sim):
        from repro.geometry import Clip
        from repro.rl.env import OPCEnvironment

        clip = Clip(
            name="sparse-env",
            bbox=Rect(0, 0, 1280, 1280),
            targets=(Polygon.from_rect(Rect.square(640, 640, 90)),),
            layer="via",
        )
        env = OPCEnvironment(clip, sim, initial_bias_nm=3.0)
        base = env.reset()
        candidates = env.uniform_move_candidates()
        dense = env.score_moves(base, candidates)
        reports = env.score_moves_epe(base, candidates)
        assert len(reports) == len(dense) == env.n_actions
        for report, (state, _) in zip(reports, dense):
            assert report.total_abs == pytest.approx(
                state.total_epe, abs=EPE_TOLERANCE_NM * max(1, report.count)
            )

    def test_rejects_malformed_candidates(self, sim):
        from repro.geometry import Clip
        from repro.rl.env import OPCEnvironment

        clip = Clip(
            name="sparse-env-bad",
            bbox=Rect(0, 0, 1280, 1280),
            targets=(Polygon.from_rect(Rect.square(640, 640, 90)),),
            layer="via",
        )
        env = OPCEnvironment(clip, sim, initial_bias_nm=3.0)
        base = env.reset()
        with pytest.raises(Exception):
            env.score_moves_epe(base, np.zeros((0, env.n_segments)))
