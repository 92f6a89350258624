"""Partially-coherent lithography simulation substrate.

The paper evaluates masks with a Calibre-compatible simulator from an
industry partner.  We reproduce the same physics class used by the academic
baselines (ICCAD-2013 contest style): Hopkins imaging decomposed into a sum
of coherent systems (SOCS).  The transmission cross coefficient (TCC) is
built *frequency-natively* — directly on each simulation grid's DFT
frequency lattice — and eigendecomposed into exactly band-limited kernel
spectra, so one pupil-band subgrid engine is exact on every grid (there
is no separate screening mode, spatial-kernel provenance or full-grid
fallback).  A constant-threshold resist model with dose/defocus process
corners yields printed contours and the PV band.
"""

from repro.backend import (
    ArrayBackend,
    next_fast_len,
    resolve_backend,
    scipy_fft_available,
    torch_available,
)
from repro.litho.source import SourceSpec, source_weights
from repro.litho.pupil import pupil_function
from repro.litho.tcc import build_tcc, build_tcc_grid, socs_kernels, socs_spectra
from repro.litho.kernels import (
    GridBandSpectra,
    OpticalKernelSet,
    build_kernel_set,
)
from repro.litho.resist import printed_image
from repro.litho.process import ProcessCorner, nominal_corner, standard_corners
from repro.litho.simulator import LithographySimulator, LithoConfig, LithoResult
from repro.litho.store import KernelSpectraStore, open_store, optics_fingerprint

__all__ = [
    "ArrayBackend",
    "next_fast_len",
    "resolve_backend",
    "scipy_fft_available",
    "torch_available",
    "SourceSpec",
    "source_weights",
    "pupil_function",
    "build_tcc",
    "build_tcc_grid",
    "socs_kernels",
    "socs_spectra",
    "GridBandSpectra",
    "OpticalKernelSet",
    "build_kernel_set",
    "printed_image",
    "ProcessCorner",
    "nominal_corner",
    "standard_corners",
    "LithographySimulator",
    "LithoConfig",
    "LithoResult",
    "KernelSpectraStore",
    "open_store",
    "optics_fingerprint",
]
