"""Tests for the benchmark suites (Table 1 / Table 2 dataset shapes)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    metal_test_suite,
    metal_train_suite,
    regular_metal_clip,
    stdcell_metal_clip,
    via_test_suite,
    via_train_suite,
)
from repro.data.metal_bench import METAL_TEST_POINTS
from repro.data.via_bench import VIA_TEST_COUNTS, generate_via_clip
from repro.errors import DataError
from repro.geometry import fragment_clip


class TestViaSuites:
    def test_table1_via_counts(self):
        suite = via_test_suite()
        assert [c.target_count for c in suite] == list(VIA_TEST_COUNTS)
        assert sum(c.target_count for c in suite) == 58  # Table 1 "Sum"
        assert [c.name for c in suite] == [f"V{i}" for i in range(1, 14)]

    def test_train_suite_shape(self):
        suite = via_train_suite()
        assert len(suite) == 11
        assert all(2 <= c.target_count <= 5 for c in suite)

    def test_deterministic(self):
        a = via_test_suite()
        b = via_test_suite()
        for clip_a, clip_b in zip(a, b):
            assert clip_a.targets == clip_b.targets

    def test_srafs_inserted(self):
        suite = via_test_suite()
        assert all(len(c.srafs) > 0 for c in suite)
        bare = via_test_suite(with_srafs=False)
        assert all(len(c.srafs) == 0 for c in bare)

    def test_via_spacing_respected(self):
        for clip in via_test_suite():
            centers = [t.bbox.center for t in clip.targets]
            for i, a in enumerate(centers):
                for b in centers[i + 1 :]:
                    assert np.hypot(a[0] - b[0], a[1] - b[1]) >= 250

    def test_bad_params(self):
        with pytest.raises(DataError):
            generate_via_clip("x", n_vias=0, seed=1)
        with pytest.raises(DataError):
            generate_via_clip("x", n_vias=2, seed=1, clip_nm=500)

    def test_suites_pinned_by_digest(self):
        """The restart rule for stuck placements never fires on the
        Table 1 suites: their geometry is byte-identical to the
        generator's output before the rule existed."""
        digest = hashlib.sha256()
        for clip in via_train_suite() + via_test_suite():
            digest.update(repr((
                clip.name, clip.bbox,
                [p.vertices for p in clip.targets],
                [p.vertices for p in clip.srafs],
            )).encode())
        assert digest.hexdigest() == (
            "2dc00abc883e3ba8eb80de0e15b9c0c10d7bf8d0698946ea9a41756358cf82a2"
        )

    def test_stuck_placement_restarts(self):
        """Two vias in a 1024 nm clip, seed 1: the first via lands where
        it blocks the whole placement square.  The generator restarts
        from empty on the same generator instead of failing."""
        clip = generate_via_clip("stuck", n_vias=2, seed=1, clip_nm=1024)
        assert clip.target_count == 2
        a, b = (t.bbox.center for t in clip.targets)
        assert np.hypot(a[0] - b[0], a[1] - b[1]) >= 250
        again = generate_via_clip("stuck", n_vias=2, seed=1, clip_nm=1024)
        assert again.targets == clip.targets

    def test_unplaceable_clip_still_raises(self):
        with pytest.raises(DataError, match="could not place"):
            generate_via_clip("full", n_vias=5, seed=0, clip_nm=1024)

    @given(
        n=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_generation_valid(self, n, seed):
        clip = generate_via_clip("p", n_vias=n, seed=seed)
        assert clip.target_count == n
        for target in clip.targets:
            assert target.bbox.width == 70
            assert clip.bbox.contains_rect(target.bbox)


class TestMetalSuites:
    def test_table2_point_counts(self):
        suite = metal_test_suite()
        assert [c.name for c in suite] == [f"M{i}" for i in range(1, 11)]
        for clip, wanted in zip(suite, METAL_TEST_POINTS):
            segments = fragment_clip(clip)
            points = sum(1 for s in segments if s.measure_point is not None)
            assert points == wanted, clip.name
        assert sum(METAL_TEST_POINTS) == 886  # Table 2 "Sum" of Point #

    def test_categories(self):
        suite = metal_test_suite()
        by_name = {c.name: c for c in suite}
        assert by_name["M8"].metadata["category"] == "regular"
        assert by_name["M9"].metadata["category"] == "regular"
        assert by_name["M1"].metadata["category"] == "stdcell"

    def test_train_suite_counts_exact(self):
        for clip in metal_train_suite():
            segments = fragment_clip(clip)
            points = sum(1 for s in segments if s.measure_point is not None)
            assert points == clip.metadata["points"]

    def test_wires_inside_window_with_margin(self):
        for clip in metal_test_suite():
            for wire in clip.targets:
                assert clip.bbox.expanded(-100).contains_rect(wire.bbox)

    def test_regular_clip_uniform(self):
        clip = regular_metal_clip("reg", 48)
        widths = {t.bbox.width for t in clip.targets}
        heights = {t.bbox.height for t in clip.targets}
        assert len(widths) == 1 and len(heights) == 1

    def test_odd_points_rejected(self):
        with pytest.raises(DataError):
            stdcell_metal_clip("odd", 25, seed=1)
        with pytest.raises(DataError):
            regular_metal_clip("odd", 25)

    @given(
        points=st.integers(min_value=2, max_value=60).map(lambda v: v * 2),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_stdcell_point_budget_exact(self, points, seed):
        clip = stdcell_metal_clip("p", points, seed=seed)
        segments = fragment_clip(clip)
        measured = sum(1 for s in segments if s.measure_point is not None)
        assert measured == points
