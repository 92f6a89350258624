"""Microbenchmark: sparse contour-point EPE vs the dense verify pipeline.

Run from the repo root:

    PYTHONPATH=src python benchmarks/bench_epe_sparse.py          # full
    PYTHONPATH=src python benchmarks/bench_epe_sparse.py --smoke  # CI

The workload is verification-shaped: one shape bin of B=8 realistic via
clips (distinct geometry, shared raster shape — exactly what
``ShapeBinScheduler`` flushes), measured at each clip's official
``fragment_clip`` measure points.  Two pipelines produce the same EPE
reports:

* ``dense``  — one ``simulate_batch`` (full-grid intensity at all three
  process corners, the pre-sparse verifier) + ``measure_epe_grouped``;
* ``sparse`` — ``measure_stencil_plan`` per clip + one
  ``simulate_epe_batch`` (band-pruned forward FFT, pupil-band subgrid
  convolution, the dense resample's ``ifft`` along H on the band
  columns only, then a direct sum over those columns at the ~hundreds
  of pixels the bilinear stencils touch) + ``measure_epe_grouped_sparse``.

Parity is gated unconditionally: every resolved per-point EPE offset
must agree to <= 1e-9 nm (far inside the service's 1e-6 nm drift gate).
The speedup gate (>= 3x by default) is enforced on hosts with >= 4
cores and recorded (but not enforced) on smaller hosts.  Both pipelines
are single-threaded transforms plus elementwise work, so the ratio does
not depend on core count.  A machine-readable record of every run goes
to ``BENCH_epe_sparse.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from bench_common import write_json

from repro.data.via_bench import generate_via_clip
from repro.geometry.raster import rasterize
from repro.geometry.segmentation import fragment_clip
from repro.litho.simulator import LithoConfig, LithographySimulator
from repro.metrology.epe import (
    measure_epe_grouped,
    measure_epe_grouped_sparse,
    measure_stencil_plan,
)

BATCH = 8
SPEEDUP_THRESHOLD = 3.0
PARITY_TOLERANCE_NM = 1e-9
MIN_GATE_CORES = 4
SEARCH_NM = 40.0
DEFAULT_JSON_PATH = "BENCH_epe_sparse.json"


def best_of(fn, repeats: int) -> float:
    fn()  # warm caches (band spectra, stencil plans)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run(
    smoke: bool,
    min_speedup: float = SPEEDUP_THRESHOLD,
    json_path: str = DEFAULT_JSON_PATH,
) -> int:
    if smoke:
        config = LithoConfig(pixel_nm=4.0, max_kernels=6)
        clip_nm, repeats = 1024.0, 3
    else:
        config = LithoConfig(pixel_nm=4.0, max_kernels=8)
        clip_nm, repeats = 1280.0, 5

    simulator = LithographySimulator(config)
    threshold = config.threshold
    clips = [
        generate_via_clip(f"bench-v{i}", n_vias=2 + (i % 2), seed=31 + i,
                          clip_nm=clip_nm)
        for i in range(BATCH)
    ]
    grids = [simulator.grid_for(clip) for clip in clips]
    segments = [fragment_clip(clip) for clip in clips]
    stack = np.stack([
        rasterize(clip.targets, grid) for clip, grid in zip(clips, grids)
    ])
    plans = [
        measure_stencil_plan(grid, segs, search_nm=SEARCH_NM)
        for grid, segs in zip(grids, segments)
    ]
    band = simulator.kernel_set(0.0).band_spectra(grids[0].shape)
    n_points = sum(plan.n_points for plan in plans if plan is not None)
    n_pixels = sum(plan.n_pixels for plan in plans if plan is not None)
    cores = os.cpu_count() or 1
    rows, cols = grids[0].shape

    print(f"bench_epe_sparse: B={BATCH} via clips, grid {rows}x{cols} @ "
          f"{config.pixel_nm} nm, K={band.count} kernels/corner, "
          f"{n_points} measure points -> {n_pixels} stencil pixels "
          f"({n_pixels / (BATCH * rows * cols):.2%} of the bin), "
          f"{cores} cores")

    # -- parity gate before any timing -------------------------------------
    def run_dense():
        results = simulator.simulate_batch(stack, grids[0])
        return measure_epe_grouped(
            np.stack([litho.aerial for litho in results]),
            grids, segments, threshold, search_nm=SEARCH_NM,
        )

    def run_sparse():
        sparse = simulator.simulate_epe_batch(stack, grids[0], plans)
        return measure_epe_grouped_sparse(sparse, threshold)

    dense_reports = run_dense()
    sparse_reports = run_sparse()
    parity = 0.0
    for dense, sparse in zip(dense_reports, sparse_reports):
        if dense.count != sparse.count:
            print("FAIL: sparse path measured a different point count")
            return 1
        if dense.count:
            parity = max(
                parity, float(np.abs(dense.values - sparse.values).max())
            )
    if parity > PARITY_TOLERANCE_NM:
        print(f"FAIL: sparse-vs-dense EPE parity {parity:.2e} nm > "
              f"{PARITY_TOLERANCE_NM} nm")
        return 1

    # -- timing ------------------------------------------------------------
    t_dense = best_of(run_dense, repeats)
    t_sparse = best_of(run_sparse, repeats)
    speedup = t_dense / t_sparse

    print(f"  dense verify (simulate_batch + grouped EPE) : "
          f"{t_dense * 1e3:8.1f} ms  [reference]")
    print(f"  sparse verify (band-spectrum gather)        : "
          f"{t_sparse * 1e3:8.1f} ms -> {speedup:4.2f}x  "
          f"(max |dEPE| = {parity:.1e} nm)")

    gated = cores >= MIN_GATE_CORES
    passed = speedup >= min_speedup or not gated
    write_json(json_path, {
        "bench": "epe_sparse",
        "smoke": smoke,
        "grid": [rows, cols],
        "pixel_nm": config.pixel_nm,
        "kernels_per_corner": band.count,
        "pupil_band": list(band.band),
        "subgrid": list(band.subgrid),
        "batch": BATCH,
        "measure_points": n_points,
        "stencil_pixels": n_pixels,
        "search_nm": SEARCH_NM,
        "fft_backend": simulator.kernel_set(0.0).fft.name,
        "cores": cores,
        "t_dense_s": t_dense,
        "t_sparse_s": t_sparse,
        "speedup": speedup,
        "min_speedup": min_speedup,
        "max_abs_epe_drift_nm": parity,
        "parity_tolerance_nm": PARITY_TOLERANCE_NM,
        "gate_enforced": gated,
        "passed": passed,
    })
    if not gated:
        print(f"PASS (speedup gate not enforced: needs >= {MIN_GATE_CORES} "
              f"cores, host has {cores}) — parity verified, "
              f"{speedup:.2f}x recorded")
        return 0
    if not passed:
        print(f"FAIL: sparse EPE speedup {speedup:.2f}x < {min_speedup}x "
              f"threshold")
        return 1
    print(f"PASS: sparse contour-point EPE reaches {speedup:.2f}x >= "
          f"{min_speedup}x over the dense verify pipeline at B={BATCH}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-grid CI mode (seconds, not minutes)")
    parser.add_argument("--min-speedup", type=float,
                        default=SPEEDUP_THRESHOLD,
                        help="fail below this sparse speedup (enforced on "
                             f">= {MIN_GATE_CORES}-core hosts; use a looser "
                             "value on noisy shared CI runners)")
    parser.add_argument("--json", default=DEFAULT_JSON_PATH, metavar="PATH",
                        help="machine-readable result file ('' disables; "
                             f"default {DEFAULT_JSON_PATH})")
    args = parser.parse_args()
    return run(smoke=args.smoke, min_speedup=args.min_speedup,
               json_path=args.json)


if __name__ == "__main__":
    sys.exit(main())
