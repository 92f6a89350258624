"""Tests for the disk-persistent kernel-spectra store (litho/store.py)."""

import os
import time

import numpy as np
import pytest

from repro.errors import LithoError
from repro.litho.kernels import OpticalKernelSet
from repro.litho.simulator import LithoConfig, LithographySimulator
from repro.litho.source import SourceSpec
from repro.litho.store import (
    KernelSpectraStore,
    open_store,
    optics_fingerprint,
)

SHAPE = (160, 160)
_SPECTRA_FIELDS = (
    "weights",
    "sub_spectra",
    "rows_src",
    "cols_src",
    "rows_dst",
    "cols_dst",
    "up_rows_src",
    "up_rows_dst",
)


def fresh_set(store=None, defocus_nm=0.0, max_kernels=4):
    """An uncached kernel set (bypasses build_kernel_set's lru_cache), as
    a fresh worker process would construct it."""
    return OpticalKernelSet(
        pixel_nm=8.0,
        defocus_nm=defocus_nm,
        source=SourceSpec(),
        max_kernels=max_kernels,
        spectra_store=store,
    )


def assert_spectra_equal(a, b):
    assert a.shape == b.shape
    assert a.band == b.band
    assert a.subgrid == b.subgrid
    assert a.compact == b.compact
    for name in _SPECTRA_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestStoreRoundTrip:
    def test_warm_load_is_bit_for_bit(self, tmp_path):
        store = KernelSpectraStore(str(tmp_path))
        built = fresh_set(store).band_spectra(SHAPE)
        loaded = fresh_set(store).band_spectra(SHAPE)
        assert_spectra_equal(built, loaded)
        assert store.writes == 1
        assert store.hits == 1

    def test_simulation_unchanged_by_store(self, tmp_path):
        """A store-backed simulator must produce bit-identical images to
        a store-less one, cold and warm."""
        mask = np.zeros(SHAPE)
        mask[60:84, 60:84] = 1.0
        bare = fresh_set().convolve_intensity_batch(mask[None])
        store = KernelSpectraStore(str(tmp_path))
        cold = fresh_set(store).convolve_intensity_batch(mask[None])
        warm = fresh_set(store).convolve_intensity_batch(mask[None])
        assert np.array_equal(bare, cold)
        assert np.array_equal(bare, warm)

    def test_entries_keyed_by_shape_and_optics(self, tmp_path):
        store = KernelSpectraStore(str(tmp_path))
        focus = fresh_set(store)
        focus.band_spectra(SHAPE)
        focus.band_spectra((128, 128))
        fresh_set(store, defocus_nm=25.0).band_spectra(SHAPE)
        assert store.entry_count() == 3

    def test_fingerprint_sensitivity(self):
        base = fresh_set()
        assert optics_fingerprint(base) == optics_fingerprint(fresh_set())
        assert optics_fingerprint(base) != optics_fingerprint(
            fresh_set(defocus_nm=25.0)
        )
        assert optics_fingerprint(base) != optics_fingerprint(
            fresh_set(max_kernels=6)
        )


class TestStoreRobustness:
    def test_corrupt_entry_is_rebuilt(self, tmp_path):
        store = KernelSpectraStore(str(tmp_path))
        warmed = fresh_set(store)
        built = warmed.band_spectra(SHAPE)
        path = store.entry_path(optics_fingerprint(warmed), SHAPE)
        with open(path, "wb") as handle:
            handle.write(b"not a zip archive")
        rebuilt = fresh_set(store).band_spectra(SHAPE)
        assert_spectra_equal(built, rebuilt)
        assert store.writes == 2  # the corrupt entry was overwritten
        # ... and the overwritten entry now loads.
        assert_spectra_equal(built, fresh_set(store).band_spectra(SHAPE))

    def test_truncated_entry_is_rebuilt(self, tmp_path):
        """A crash/copy that cut the entry short reads as a miss."""
        store = KernelSpectraStore(str(tmp_path))
        warmed = fresh_set(store)
        built = warmed.band_spectra(SHAPE)
        path = store.entry_path(optics_fingerprint(warmed), SHAPE)
        payload = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(payload[: len(payload) // 2])
        misses_before = store.misses
        rebuilt = fresh_set(store).band_spectra(SHAPE)
        assert_spectra_equal(built, rebuilt)
        assert store.misses == misses_before + 1
        assert store.writes == 2
        assert_spectra_equal(built, fresh_set(store).band_spectra(SHAPE))

    def test_bit_flipped_entry_is_rebuilt(self, tmp_path):
        """A single flipped payload byte (disk rot: the npz still opens,
        the arrays still parse, only the numbers are wrong) is caught by
        the content checksum and rebuilt — never served."""
        from repro.service.faults import corrupt_file

        store = KernelSpectraStore(str(tmp_path))
        warmed = fresh_set(store)
        built = warmed.band_spectra(SHAPE)
        path = store.entry_path(optics_fingerprint(warmed), SHAPE)
        # npz members are stored uncompressed, so flipping a byte well
        # inside the file body mutates array data while leaving the zip
        # directory (at the end) intact — the stale checksum is the only
        # thing standing between this entry and a wrong simulation.
        corrupt_file(path, offset=os.path.getsize(path) // 2)
        misses_before = store.misses
        rebuilt = fresh_set(store).band_spectra(SHAPE)
        assert_spectra_equal(built, rebuilt)
        assert store.misses == misses_before + 1
        assert store.writes == 2
        assert_spectra_equal(built, fresh_set(store).band_spectra(SHAPE))

    def test_injected_store_corruption_is_contained(self, tmp_path):
        """The fault harness's store.save corrupt rule flips a byte of
        the just-written entry; the next load detects and rebuilds."""
        from repro.service import (
            FaultPlan,
            FaultRule,
            clear_fault_plan,
            install_fault_plan,
        )

        store = KernelSpectraStore(str(tmp_path))
        install_fault_plan(FaultPlan([
            FaultRule(point="store.save", action="corrupt", at=(1,)),
        ]))
        try:
            built = fresh_set(store).band_spectra(SHAPE)
            rebuilt = fresh_set(store).band_spectra(SHAPE)
        finally:
            clear_fault_plan()
        assert_spectra_equal(built, rebuilt)
        assert store.misses >= 1  # the corrupted entry never served
        assert store.writes == 2

    def test_unwritable_store_never_fails_simulation(self, tmp_path):
        """The store is a cache, not a dependency: when its directory
        cannot be created (parent is a regular file), the build still
        succeeds and only warns."""
        blocker = tmp_path / "blocker.txt"
        blocker.write_text("in the way")
        store = KernelSpectraStore(str(blocker / "store"))
        bare = fresh_set().band_spectra(SHAPE)
        with pytest.warns(RuntimeWarning, match="store write failed"):
            built = fresh_set(store).band_spectra(SHAPE)
        assert_spectra_equal(bare, built)
        assert store.writes == 0

    def test_missing_directory_is_created(self, tmp_path):
        store = KernelSpectraStore(str(tmp_path / "nested" / "dir"))
        fresh_set(store).band_spectra(SHAPE)
        assert store.entry_count() == 1

    def test_empty_root_rejected(self):
        with pytest.raises(LithoError, match="directory"):
            KernelSpectraStore("")

    def test_open_store_is_per_root_singleton(self, tmp_path):
        a = open_store(str(tmp_path))
        b = open_store(str(tmp_path))
        assert a is b
        assert a == KernelSpectraStore(str(tmp_path))

    def test_singleton_survives_root_respellings(self, tmp_path):
        """A symlinked root, a trailing slash, and a ~-prefixed path are
        the same directory and must share one store instance — two
        instances over one directory would diverge on stats and race
        each other's views (the regression: keying on abspath only)."""
        real = tmp_path / "store"
        real.mkdir()
        link = tmp_path / "alias"
        link.symlink_to(real, target_is_directory=True)

        direct = open_store(str(real))
        assert open_store(str(link)) is direct
        assert open_store(str(real) + "/") is direct
        assert open_store(str(real) + "/./") is direct
        # One shared stats view, whichever spelling wrote the entry.
        spectra = fresh_set().band_spectra(SHAPE)
        open_store(str(link)).save(
            optics_fingerprint(fresh_set()), spectra
        )
        assert direct.stats()["writes"] == 1

    def test_singleton_expands_user_home(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        tilde = open_store("~/spectra-store")
        plain = open_store(str(tmp_path / "spectra-store"))
        assert tilde is plain

    def test_orphan_tmp_files_swept_and_uncounted(self, tmp_path):
        """Temp files from killed writers must not count as entries and
        must be reclaimed by the next open of their root."""
        import os as os_mod
        import time as time_mod

        root = tmp_path / "orphaned"
        root.mkdir()
        orphan = root / ".tmp-spectra-deadbeef.npz"
        orphan.write_bytes(b"torn half-write")
        old = time_mod.time() - 7200.0
        os_mod.utime(orphan, (old, old))
        fresh_orphan = root / ".tmp-spectra-cafe.npz"
        fresh_orphan.write_bytes(b"in-flight write")

        store = open_store(str(root))
        assert store.entry_count() == 0  # neither tmp file is an entry
        assert not orphan.exists()  # stale orphan swept on open
        assert fresh_orphan.exists()  # in-flight write left alone
        assert store.sweep_orphans(max_age_s=0.0) == 1
        assert not fresh_orphan.exists()


class TestStoreWarmup:
    def test_warm_store_beats_cold_build(self, tmp_path):
        """Acceptance gate: on a fresh 'process' (uncached kernel set), a
        warm store must eliminate TCC-rebuild time — generous > 1.5x
        margin (measured orders of magnitude higher)."""
        store = KernelSpectraStore(str(tmp_path))
        shape = (512, 512)  # production-scale grid: build >> npz read

        start = time.perf_counter()
        built = fresh_set(store, max_kernels=8).band_spectra(shape)
        t_cold = time.perf_counter() - start

        t_warm = float("inf")
        for _ in range(3):
            warm_set = fresh_set(store, max_kernels=8)
            start = time.perf_counter()
            loaded = warm_set.band_spectra(shape)
            t_warm = min(t_warm, time.perf_counter() - start)
        assert_spectra_equal(built, loaded)
        assert t_cold > 1.5 * t_warm, (
            f"cold build {t_cold * 1e3:.1f} ms should dwarf warm load "
            f"{t_warm * 1e3:.1f} ms"
        )


class TestSimulatorIntegration:
    def test_litho_config_wires_store(self, tmp_path):
        config = LithoConfig(
            pixel_nm=8.0, max_kernels=4, spectra_store=str(tmp_path)
        )
        simulator = LithographySimulator(config)
        store = simulator.spectra_store()
        assert store is not None
        assert simulator.kernel_set(0.0).spectra_store is store
        # Focus + defocus sets share the one per-simulator store object.
        assert simulator.kernel_set(25.0).spectra_store is store

    def test_store_disabled_by_default(self):
        simulator = LithographySimulator(LithoConfig(pixel_nm=8.0))
        assert simulator.spectra_store() is None
