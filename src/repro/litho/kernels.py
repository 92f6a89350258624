"""Optical kernel sets: frequency-native, band-limited SOCS spectra.

A :class:`OpticalKernelSet` owns the optics of one process condition
(focus setting).  Its one representation is *per-grid band spectra*
(:class:`GridBandSpectra`): for every raster shape it simulates on, the
TCC is built directly on that grid's DFT frequency lattice
(:func:`repro.litho.tcc.build_tcc_grid`) and eigendecomposed into SOCS
kernel spectra that are exactly zero outside the pupil band.  Because no
spatial crop ever happens, the pupil-band subgrid engine is *exact*.

Convolution entry points:

* :meth:`OpticalKernelSet.convolve_intensity` — the single-mask spatial
  reference path: full-grid per-kernel inverse FFTs over the scattered
  band spectra.  Everything else is tested against it.
* :meth:`OpticalKernelSet.convolve_intensity_batch` /
  :meth:`~OpticalKernelSet.intensity_from_mask_ffts` — the one engine
  for ``(B, H, W)`` stacks, built on band-pruned real-input transforms
  so no step computes a full-grid spectrum it then discards:

  1. *forward* (:func:`band_rfft2`) — ``rfft`` along W, keep columns
     ``0 .. b1``, ``fft`` along H on those ``b1 + 1`` columns only;
  2. *gather* (:func:`gather_band_rfft`) — the negative-column half of
     the pupil band comes from the stored columns by Hermitian symmetry;
  3. *convolution* — the K coherent fields as one inverse transform
     batched over the kernel axis on an alias-free ``m0 x m1`` subgrid
     (``m >= 4b + 1`` so the *squared* field, band radius ``2b``, folds
     nowhere), their powers summed in kernel order;
  4. *resample* — a Hermitian pruned inverse: ``rfft2`` of the subgrid
     intensity, its ``2 b1 + 1`` non-negative band columns scattered
     onto the full-height grid, ``ifft`` along H on those columns, then
     ``irfft`` along W with ``n = W``.

  On the 500 x 500 via grid (``b = 13``, 54 x 54 subgrid) that replaces
  a full complex 500 x 500 ``fft2`` forward and one 500 x 500 ``ifft2``
  per corner with one real 500-row pass plus 14 (forward) or 27
  (resample) column transforms.  Exact to FFT round-off (~1e-15
  absolute intensity) against the reference path.  When the band covers
  the grid (coarse pixels, ``compact=False``) the subgrid *is* the grid:
  steps 1–3 run unchanged and their intensity is the aerial, so step 4
  is skipped.
* :meth:`OpticalKernelSet.intensity_at_pixels` — the sparse (verify and
  screening) path: steps 1–3, then the resample's ``ifft`` along H
  (:func:`_band_column_resample`, shared with the dense engine), and
  instead of the ``irfft`` along W a direct Hermitian sum over the
  ``2 b1 + 1`` band columns at each wanted pixel
  (:func:`band_values_at_pixels`; a grid the band covers is gathered
  directly).  No per-pixel-set matrix is built or cached.

Lower-level helpers (:meth:`~OpticalKernelSet.kernel_spectra`,
:meth:`~OpticalKernelSet.weights_for`,
:meth:`~OpticalKernelSet.fields_from_mask_fft`) expose the cached
full-grid transfer functions to the reference path and the pixel-ILT
gradient loop.  Spatial kernels exist only as a *derived* artifact: the
canonical square-lattice materialization (:meth:`spatial_kernels`) feeds
persistence and visualization.
"""

from __future__ import annotations

import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.constants import NUMERICAL_APERTURE, WAVELENGTH_NM
from repro.errors import LithoError
from repro.backend import ArrayBackend, next_fast_len, resolve_backend
from repro.litho.source import SourceSpec
from repro.litho.tcc import build_tcc, build_tcc_grid, socs_kernels, socs_spectra


def _band_indices(n: int, radius: int) -> np.ndarray:
    """Indices of the centred frequency band of ``radius`` on an n-grid."""
    return np.r_[0 : radius + 1, n - radius : n]


_HOST_BACKEND_ARGS = ("numpy", 1)
"""``resolve_backend`` arguments of the single-threaded host backend the
module-level helpers default to when no backend is passed — numerically
identical to the pre-array-API behavior (bare ``np.*`` calls)."""


def _host_backend() -> ArrayBackend:
    return resolve_backend(*_HOST_BACKEND_ARGS)


def _validate_pixel_set(
    shape: tuple[int, int], rows, cols
) -> tuple[np.ndarray, np.ndarray]:
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    cols = np.ascontiguousarray(cols, dtype=np.int64)
    if rows.ndim != 1 or rows.shape != cols.shape:
        raise LithoError(
            f"pixel rows {rows.shape} and cols {cols.shape} must be "
            "matching 1-D index arrays"
        )
    if len(rows) and (
        rows.min() < 0 or rows.max() >= shape[0]
        or cols.min() < 0 or cols.max() >= shape[1]
    ):
        raise LithoError(f"pixel indices fall outside the {shape} grid")
    return rows, cols


@dataclass(frozen=True)
class GridBandSpectra:
    """Band-limited SOCS spectra bound to one grid shape (source of truth).

    Attributes:
        shape: Full grid shape ``(H, W)`` the spectra convolve on.
        weights: ``(K,)`` kernel weights, rescaled so an open-frame mask
            images to intensity exactly 1.0 on this grid.
        band: Per-axis frequency index radii ``(b0, b1)`` of the pupil
            band; every kernel spectrum is exactly zero outside it.
        subgrid: Alias-free intensity subgrid ``(m0, m1)``
            (5-smooth, ``m >= 4b + 1``); equals ``shape`` when the band
            covers the grid.
        compact: Whether the subgrid is strictly smaller than the grid.
            When it is not, the subgrid intensity is the full-grid
            aerial itself and no resample runs.
        sub_spectra: ``(K, m0, m1)`` kernel spectra scattered onto the
            subgrid, prescaled by ``(m0 * m1) / (H * W)`` so a subgrid
            inverse FFT of ``gathered_mask_fft * sub_spectra[k]`` yields
            the coherent field samples directly.
    """

    shape: tuple[int, int]
    weights: np.ndarray
    band: tuple[int, int]
    subgrid: tuple[int, int]
    compact: bool
    sub_spectra: np.ndarray
    rows_src: np.ndarray
    cols_src: np.ndarray
    rows_dst: np.ndarray
    cols_dst: np.ndarray
    up_rows_src: np.ndarray
    up_rows_dst: np.ndarray

    @property
    def count(self) -> int:
        return len(self.weights)


def band_rfft2(masks, columns: int, backend: ArrayBackend):
    """Band-pruned real-input forward transform of a ``(B, H, W)`` stack.

    ``rfft`` along W, keep columns ``0 .. columns - 1``, then ``fft``
    along H on those columns only: the result equals
    ``rfft2(masks)[..., :columns]`` (bit for bit on the numpy backend,
    whose ``rfft2`` runs the same two passes) at a fraction of the cost
    when ``columns`` is the pupil band's ``b1 + 1``.
    """
    half = backend.rfft(masks, axis=-1)[..., :columns]
    return backend.fft(half, axis=-2)


def shared_mask_spectra(stack, kernel_sets):
    """One forward transform of a validated ``(B, H, W)`` mask stack that
    every set in ``kernel_sets`` can read: :func:`band_rfft2` pruned to
    the widest band's ``b1 + 1`` columns (the Hermitian gather reads
    nothing else)."""
    shape = (int(stack.shape[-2]), int(stack.shape[-1]))
    columns = max(kset.band_spectra(shape).band[1] for kset in kernel_sets)
    return band_rfft2(stack, columns + 1, kernel_sets[0].fft)


def gather_band_rfft(
    mask_rffts,
    band: GridBandSpectra,
    backend: ArrayBackend | None = None,
):
    """Pupil-band gather from half-width spectra onto the subgrid.

    A real mask's spectrum is Hermitian, ``F[r, c] = conj(F[(-r) % H,
    (-c) % W])``, so the negative-column half of the pupil band is
    recovered from the stored positive columns with flipped rows.  Only
    columns ``0 .. b1`` are read, so ``mask_rffts`` may be full ``fft2``
    spectra, half-width ``rfft2`` spectra or :func:`band_rfft2`'s pruned
    ones — anything with all H rows and at least ``b1 + 1`` columns.
    Public module-level entry point: the surrogate's feature pipeline
    shares it with the sparse EPE path.  Runs on whatever arrays
    ``backend`` holds — spectra on a device stay on that device
    (default: host numpy).
    """
    backend = backend or _host_backend()
    idx = backend.index
    rows, _ = band.shape
    b1 = band.band[1]
    m0, m1 = band.subgrid
    rows_src = band.rows_src
    gathered = backend.empty(
        (mask_rffts.shape[0], len(rows_src), len(band.cols_src)),
        backend.complex128,
    )
    gathered[..., : b1 + 1] = mask_rffts[
        :, idx(rows_src[:, None]), idx(np.arange(b1 + 1)[None, :])
    ]
    flipped = (rows - rows_src) % rows
    gathered[..., b1 + 1 :] = mask_rffts[
        :, idx(flipped[:, None]), idx(np.arange(b1, 0, -1)[None, :])
    ].conj()
    sub = backend.zeros(
        (mask_rffts.shape[0], m0, m1), backend.complex128
    )
    sub[:, idx(band.rows_dst[:, None]), idx(band.cols_dst[None, :])] = gathered
    return sub


_BAND_DFT_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_BAND_DFT_CACHE_CAPACITY = 16
_BAND_DFT_LOCK = threading.Lock()
"""LRU of the separable direct-DFT matrices used by
:func:`band_limited_mask_subgrid_direct`; keyed per (grid shape, band,
backend array identity) — matrices are built host-side and cached as
backend-native copies, so a device backend is never served a host
array (or vice versa)."""


def _band_dft_matrices(
    shape: tuple[int, int], band: GridBandSpectra, backend: ArrayBackend
) -> tuple:
    key = (shape, band.band, backend.array_identity)
    with _BAND_DFT_LOCK:
        cached = _BAND_DFT_CACHE.get(key)
        if cached is not None:
            _BAND_DFT_CACHE.move_to_end(key)
            return cached
    height, width = shape
    b0, b1 = band.band
    k_rows = _band_indices(height, b0).astype(np.float64)
    k_cols = _band_indices(width, b1).astype(np.float64)
    left = np.exp(
        (-2j * np.pi / height) * np.outer(k_rows, np.arange(height))
    )
    right = np.exp(
        (-2j * np.pi / width) * np.outer(np.arange(width), k_cols)
    )
    # Stack real/imag parts so the hot path runs real GEMMs only — a
    # complex @ real matmul would promote the whole mask stack to
    # complex128 first, which costs more than the arithmetic.
    right_ri = np.ascontiguousarray(
        np.concatenate([right.real, right.imag], axis=1)
    )
    pair = (backend.to_device(left), backend.to_device(right_ri))
    with _BAND_DFT_LOCK:
        _BAND_DFT_CACHE[key] = pair
        while len(_BAND_DFT_CACHE) > _BAND_DFT_CACHE_CAPACITY:
            _BAND_DFT_CACHE.popitem(last=False)
    return pair


def band_limited_mask_subgrid_direct(
    masks, band: GridBandSpectra, backend: ArrayBackend | None = None
):
    """Band-limited mask raster resampled onto the intensity subgrid.

    ``(B, H, W)`` masks map to real ``(B, m0, m1)`` rasters on the same
    physical 0..1 transmission scale as the full-grid mask — everything
    the projection optics can see of the mask, at the cheapest alias-free
    resolution; the surrogate model's input feature.

    The pupil band holds only ``(2 b0 + 1) x (2 b1 + 1)`` coefficients,
    so for screening-sized batches two small GEMMs against cached
    separable DFT matrices beat a ``(B, H, W)`` forward FFT that computes
    ``H W`` coefficients and discards almost all of them.  Values agree
    with gathering the band from a forward FFT (:func:`gather_band_rfft`)
    to float round-off (same linear map, different summation order).
    Under a device backend the two GEMMs (and the result) live on the
    device.
    """
    backend = backend or _host_backend()
    masks = backend.asarray_f64(masks)
    left, right_ri = _band_dft_matrices(band.shape, band, backend)
    half = right_ri.shape[1] // 2
    mixed = masks @ right_ri
    col_re, col_im = mixed[..., :half], mixed[..., half:]
    coeffs = (left.real @ col_re - left.imag @ col_im) + 1j * (
        left.real @ col_im + left.imag @ col_re
    )
    return band_coeffs_to_subgrid(coeffs, band, backend)


def band_coeffs_to_subgrid(
    coeffs, band: GridBandSpectra, backend: ArrayBackend | None = None
):
    """Real-space subgrid signal of ``(B, 2 b0 + 1, b1 + 1)`` band coefficients.

    ``coeffs`` are full-grid DFT coefficients at the band frequencies (row
    order ``_band_indices``); the subgrid scatter plus a small inverse FFT
    reproduce the full-grid mask's transmission scale (the subgrid
    inverse FFT carries ``1/(m0 m1)`` where the coefficients came from an
    ``(H, W)`` forward transform, so the gain is ``(m0 m1)/(H W)``).  Host
    backends keep the historical ``np.fft`` inverse transform (the
    subgrid is ~30x30 — threading never pays here, and the numpy route
    stays bit-for-bit with the seed history); the torch backend runs the
    inverse transform on its device and returns a device array.
    """
    backend = backend or _host_backend()
    m0, m1 = band.subgrid
    rows, cols = band.shape
    sub = backend.zeros((coeffs.shape[0], m0, m1), backend.complex128)
    idx = backend.index
    sub[:, idx(band.rows_dst[:, None]), idx(band.cols_dst[None, :])] = coeffs
    if backend.is_numpy:
        return np.fft.ifft2(sub, axes=(-2, -1)).real * (
            (m0 * m1) / (rows * cols)
        )
    return backend.ifft2(sub, axes=(-2, -1)).real * ((m0 * m1) / (rows * cols))


def _band_column_resample(
    intensity_sub, band: GridBandSpectra, fft: ArrayBackend
):
    """First half of the Hermitian pruned resample, ``(B, H, 2 b1 + 1)``.

    The ``rfft2`` of the ``(B, m0, m1)`` subgrid intensity supplies the
    ``2 b1 + 1`` non-negative columns of the intensity band; scattered
    onto the full height (scaled by the resample gain) and inverse-
    transformed along H, they are the full-grid aerial's rows *before*
    the final ``irfft`` along W.  The dense engine finishes every pixel
    with that ``irfft``; :func:`band_values_at_pixels` finishes only the
    pixels it needs.
    """
    rows, cols = band.shape
    m0, m1 = band.subgrid
    idx = fft.index
    spectrum = fft.rfft2(intensity_sub, axes=(-2, -1))
    upscale = (rows * cols) / (m0 * m1)
    width = 2 * band.band[1] + 1
    half = fft.zeros((intensity_sub.shape[0], rows, width), fft.complex128)
    half[:, idx(band.up_rows_dst), :] = (
        spectrum[:, idx(band.up_rows_src), :width] * upscale
    )
    return fft.ifft(half, axis=-2)


def band_values_at_pixels(
    intensity_sub,
    band: GridBandSpectra,
    rows: np.ndarray,
    cols: np.ndarray,
    fft: ArrayBackend,
) -> np.ndarray:
    """Full-grid pixel values of a band-limited subgrid intensity.

    ``(B, m0, m1)`` subgrid intensities (exact or surrogate-predicted)
    evaluate at S full-grid pixels by running the dense engine's pruned
    resample (:func:`_band_column_resample`) up to its last step, taking
    each pixel's row, and replacing the ``irfft`` along W with a direct
    sum over the ``2 b1 + 1`` band columns: weight 1 for the DC column
    (and a Nyquist column, were the band ever to reach it), 2 for the
    rest, phases from the integer ``(k c) mod W`` so every angle is
    exact.  Values agree with gathering the dense aerial to float
    round-off (<= 1e-12).  The sparse EPE path and the surrogate's
    prediction lift share this map.  ``intensity_sub`` may be host or
    device resident; the transforms and the sum run wherever the
    backend's arrays live, and the ``(B, S)`` values always come back
    host-side (the metrology boundary).  When the band covers the grid
    (``band.compact`` is false) the subgrid *is* the grid, and the
    pixels are gathered directly.
    """
    if not band.compact:
        return fft.to_host(intensity_sub[:, fft.index(rows), fft.index(cols)])
    columns = _band_column_resample(intensity_sub, band, fft)
    width = band.shape[1]
    k = np.arange(columns.shape[-1])
    # Phases once per distinct pixel column (stencils share columns).
    unique_cols, col_of = np.unique(cols, return_inverse=True)
    angle = (2 * np.pi / width) * ((unique_cols[:, None] * k) % width)
    # irfft counts the DC and Nyquist columns once and drops their
    # imaginary parts; every other column also stands for its mirror.
    single = (k == 0) | (2 * k == width)
    cos_w = np.cos(angle) * (np.where(single, 1.0, 2.0) / width)
    sin_w = np.sin(angle) * (np.where(single, 0.0, 2.0) / width)
    picked = columns[:, fft.index(rows), :]
    values = fft.einsum(
        "bsk,sk->bs", picked.real, fft.to_device(cos_w[col_of])
    ) - fft.einsum("bsk,sk->bs", picked.imag, fft.to_device(sin_w[col_of]))
    return fft.to_host(values)


@dataclass
class OpticalKernelSet:
    """SOCS kernels for one focus condition.

    Band spectra are constructed lazily per grid shape from the optics
    below and are the source of truth; spatial kernels exist only
    through :meth:`spatial_kernels` (persistence / visualization).

    Attributes:
        pixel_nm: Raster pitch the kernels are sampled at.
        defocus_nm: Focus condition this set represents.
        source: Illumination source.
        wavelength_nm / numerical_aperture: Projection optics.
        max_kernels / energy_fraction: SOCS truncation knobs.
        period_nm: Square-lattice period of the canonical spatial
            materialization (persistence/visualization only — simulation
            lattices are per-grid).
        cutoff_per_nm: Coherent pupil cutoff ``NA / lambda`` in
            cycles/nm (informational).
        fft_cache_capacity: Max distinct grid shapes kept resident in
            each bounded LRU (band spectra, full-grid transfer stacks).
        fft_backend / fft_workers / device: Array/transform backend
            selection (see :mod:`repro.backend`) — ``fft_backend``
            accepts every :data:`~repro.backend.BACKEND_NAMES` spelling
            including ``"torch"``, and ``device`` picks the torch device
            (``None`` = CUDA when available).  All entry points share
            the one resolved :class:`~repro.backend.ArrayBackend`;
            cached device copies of the spectra are keyed by backend
            identity (+ device), so swapping the backend can never serve
            wrong-device spectra.  Device execution covers the batched
            engine and the sparse gathers; the single-mask reference
            path and the ILT field helper always run host-side.
        spectra_store: Optional disk-persistent store
            (:class:`repro.litho.store.KernelSpectraStore`) consulted on
            band-spectra misses before building, and written after every
            build — a warm store turns the ~20-50 ms per-shape TCC warmup
            into one ``.npz`` read on fresh processes.  The build is
            FFT-free, so stored entries are backend-independent and
            bit-for-bit equal to an in-process build.
    """

    pixel_nm: float
    defocus_nm: float
    source: SourceSpec
    wavelength_nm: float = WAVELENGTH_NM
    numerical_aperture: float = NUMERICAL_APERTURE
    max_kernels: int = 12
    energy_fraction: float = 0.995
    period_nm: float = 2048.0
    cutoff_per_nm: float | None = None
    fft_cache_capacity: int = 6
    fft_backend: str = "auto"
    fft_workers: int | None = None
    device: str | None = None
    spectra_store: object | None = None
    _band_cache: "OrderedDict[tuple[int, int], GridBandSpectra]" = field(
        default_factory=OrderedDict, repr=False
    )
    _fft_cache: "OrderedDict[tuple, np.ndarray]" = field(
        default_factory=OrderedDict, repr=False
    )
    _canonical: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False
    )
    _fingerprint: str | None = field(default=None, repr=False)
    _cache_lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False
    )
    """Guards the two LRU caches: the service's thread-pooled
    ``map_suite`` drives one shared kernel set from several threads, and
    an unguarded ``move_to_end`` can race another thread's eviction."""

    def __post_init__(self) -> None:
        if self.fft_cache_capacity < 1:
            raise LithoError(
                f"fft_cache_capacity must be >= 1, got {self.fft_cache_capacity}"
            )
        # Resolve eagerly so a bad backend name fails at construction.
        resolve_backend(self.fft_backend, self.fft_workers, self.device)

    # -- backend -------------------------------------------------------------
    @property
    def fft(self) -> ArrayBackend:
        """The resolved array backend shared by every entry point.

        Kept under its historical name — it began as an FFT-only
        backend — but it now carries the full array namespace, device
        policy and dtype policy (:class:`repro.backend.ArrayBackend`).
        """
        return resolve_backend(self.fft_backend, self.fft_workers, self.device)

    def _host_fft(self) -> ArrayBackend:
        """The host-side backend for paths that are host-only by design
        (single-mask reference, ILT field gradients).  Numpy/scipy
        backends pass through; a device backend degrades to
        single-threaded numpy."""
        fft = self.fft
        return fft if fft.is_numpy else resolve_backend("numpy", 1)

    # -- per-grid band spectra (the source of truth) -------------------------
    def band_spectra(self, shape: tuple[int, int]) -> GridBandSpectra:
        """Band-limited SOCS spectra for one grid shape (built once, LRU)."""
        key = (int(shape[0]), int(shape[1]))
        with self._cache_lock:
            cached = self._band_cache.get(key)
            if cached is not None:
                self._band_cache.move_to_end(key)
                return cached
            built = None
            store = self.spectra_store
            if store is not None:
                built = store.load(self._optics_fingerprint(), key)
            if built is None:
                built = self._build_band_spectra(key)
                if store is not None:
                    try:
                        store.save(self._optics_fingerprint(), built)
                    except OSError as exc:
                        # Persistence is a cache, not a dependency: an
                        # unwritable store directory must never fail a
                        # simulation whose spectra were just built.
                        warnings.warn(
                            f"kernel-spectra store write failed "
                            f"({store.root}): {exc}",
                            RuntimeWarning,
                            stacklevel=2,
                        )
            self._band_cache[key] = built
            while len(self._band_cache) > self.fft_cache_capacity:
                self._band_cache.popitem(last=False)
            return built

    def _optics_fingerprint(self) -> str:
        """Cached store key covering every input of the spectra build."""
        if self._fingerprint is None:
            from repro.litho.store import optics_fingerprint

            self._fingerprint = optics_fingerprint(self)
        return self._fingerprint

    def _build_band_spectra(self, shape: tuple[int, int]) -> GridBandSpectra:
        rows, cols = shape
        tcc = build_tcc_grid(
            self.source,
            shape,
            self.pixel_nm,
            defocus_nm=self.defocus_nm,
            wavelength_nm=self.wavelength_nm,
            numerical_aperture=self.numerical_aperture,
        )
        weights, coefficients = socs_spectra(
            tcc, max_kernels=self.max_kernels,
            energy_fraction=self.energy_fraction,
        )
        # Open-frame normalization: a clear mask has spectrum H*W at DC
        # only, so its intensity is sum_k w_k |coeff_k(0, 0)|^2.
        origin = np.nonzero(
            (tcc.shift_indices[:, 0] == 0) & (tcc.shift_indices[:, 1] == 0)
        )[0][0]
        open_frame = float(
            np.sum(weights * np.abs(coefficients[:, origin]) ** 2)
        )
        if open_frame <= 0:
            raise LithoError("kernel set images an open frame to zero intensity")
        weights = weights / open_frame

        b0, b1 = tcc.band_radii
        m0 = next_fast_len(4 * b0 + 1)
        m1 = next_fast_len(4 * b1 + 1)
        compact = m0 < rows and m1 < cols
        if not compact:
            m0, m1 = rows, cols
        scale = (m0 * m1) / (rows * cols)
        sub_spectra = np.zeros(
            (len(weights), m0, m1), dtype=np.complex128
        )
        sub_rows = tcc.shift_indices[:, 0] % m0
        sub_cols = tcc.shift_indices[:, 1] % m1
        sub_spectra[:, sub_rows, sub_cols] = coefficients * scale
        return GridBandSpectra(
            shape=shape,
            weights=weights,
            band=(b0, b1),
            subgrid=(m0, m1),
            compact=compact,
            sub_spectra=sub_spectra,
            rows_src=_band_indices(rows, b0),
            cols_src=_band_indices(cols, b1),
            rows_dst=_band_indices(m0, b0),
            cols_dst=_band_indices(m1, b1),
            up_rows_src=_band_indices(m0, 2 * b0),
            up_rows_dst=_band_indices(rows, 2 * b0),
        )

    def weights_for(self, shape: tuple[int, int]) -> np.ndarray:
        """Kernel weights matching :meth:`kernel_spectra` for one shape."""
        return self.band_spectra((int(shape[0]), int(shape[1]))).weights

    # -- full-grid transfer functions ---------------------------------------
    def kernel_spectra(self, shape: tuple[int, int]) -> np.ndarray:
        """Cached ``(K, H, W)`` full-grid kernel spectra (read-only).

        The band coefficients scattered onto the full grid: exactly zero
        outside the pupil band, and backend-independent (no transform
        runs).
        """
        key = (int(shape[0]), int(shape[1]))
        self._validate_grid(key)
        cache_key = (key, "band")
        with self._cache_lock:
            cached = self._fft_cache.get(cache_key)
            if cached is not None:
                self._fft_cache.move_to_end(cache_key)
                return cached
            band = self.band_spectra(key)
            m0, m1 = band.subgrid
            scale = (key[0] * key[1]) / (m0 * m1)
            stack = np.zeros((band.count, *key), dtype=np.complex128)
            stack[
                :, band.rows_src[:, None], band.cols_src[None, :]
            ] = band.sub_spectra[
                :, band.rows_dst[:, None], band.cols_dst[None, :]
            ] * scale
            self._fft_cache[cache_key] = stack
            while len(self._fft_cache) > self.fft_cache_capacity:
                self._fft_cache.popitem(last=False)
            return stack

    # -- validation ----------------------------------------------------------
    def _validate_grid(self, shape: tuple[int, int]) -> None:
        if len(shape) != 2:
            raise LithoError(f"grid shape must be 2-D, got {shape}")
        # Raises "frequency lattice too coarse" for unusably small grids.
        self.band_spectra(shape)

    def validate_mask_batch(self, masks):
        """Check and coerce a ``(B, H, W)`` stack of rasterized masks.

        Returns the stack as the backend's native float64 array: a host
        numpy array under numpy/scipy (no-copy for float64 input, bit
        for bit as before), a device tensor under torch — host masks are
        moved to the device here, device masks stay put.
        """
        backend = self.fft
        stack = backend.asarray_f64(masks)
        if stack.ndim != 3:
            raise LithoError(
                f"mask batch must be 3-D (B, H, W), got shape "
                f"{tuple(stack.shape)}"
            )
        if stack.shape[0] == 0:
            raise LithoError("mask batch is empty")
        self._validate_grid(tuple(stack.shape[1:]))
        return stack

    # -- convolution ---------------------------------------------------------
    def convolve_intensity(self, mask: np.ndarray) -> np.ndarray:
        """Aerial intensity ``sum_k w_k |h_k * mask|^2`` (circular conv).

        This is the retained *spatial reference path*: one full-grid
        inverse FFT per kernel over the scattered spectra.  ``mask`` is a
        2-D real array (binary or graytone).  Always runs host-side —
        it is the numerical reference the device paths are tested
        against, so it must not depend on the device library.
        """
        mask = self.fft.to_host(mask)
        if mask.ndim != 2:
            raise LithoError(f"mask must be 2-D, got shape {mask.shape}")
        self._validate_grid(mask.shape)
        kernel_ffts = self.kernel_spectra(mask.shape)
        weights = self.weights_for(mask.shape)
        fft = self._host_fft()
        mask_fft = fft.fft2(mask.astype(np.float64), axes=(-2, -1))
        intensity = np.zeros(mask.shape, dtype=np.float64)
        for weight, kernel_fft in zip(weights, kernel_ffts):
            field_k = fft.ifft2(mask_fft * kernel_fft, axes=(-2, -1))
            intensity += weight * (field_k.real**2 + field_k.imag**2)
        return intensity

    def convolve_intensity_batch(self, masks: np.ndarray) -> np.ndarray:
        """Aerial intensities of a ``(B, H, W)`` mask stack (batched engine).

        One band-pruned forward transform over the batch axis (see
        :func:`shared_mask_spectra`) feeds the band-limited subgrid
        engine, which is exact: the spectra carry no energy outside the
        gathered band.  Per-mask results are bit-for-bit independent of
        the batch size.
        """
        stack = self.validate_mask_batch(masks)
        spectra = shared_mask_spectra(stack, (self,))
        return self.intensity_from_mask_ffts(spectra, tuple(stack.shape[1:]))

    def intensity_from_mask_ffts(
        self, mask_ffts, shape: tuple[int, int] | None = None
    ) -> np.ndarray:
        """Intensities from precomputed mask spectra.

        Lets callers share one forward transform across several kernel
        sets (the simulator's focus + defocus corner sweep).
        ``mask_ffts`` holds all H rows of each mask's spectrum and at
        least the pupil band's ``b1 + 1`` leading columns: full ``fft2``
        spectra, ``rfft2`` spectra or :func:`band_rfft2` output.
        ``shape`` is the grid ``(H, W)``; it defaults to the spectra's
        own trailing dimensions, which is right for full spectra only.
        """
        band = self._spectra_band(mask_ffts, shape)
        return self._band_intensity(mask_ffts, band)

    def _spectra_band(self, mask_ffts, shape) -> GridBandSpectra:
        """Validate mask spectra against a grid (default: their own
        trailing dimensions); returns the pupil band they feed."""
        if mask_ffts.ndim != 3:
            raise LithoError(
                f"mask spectra must be 3-D (B, H, W), got shape {mask_ffts.shape}"
            )
        if shape is None:
            shape = tuple(mask_ffts.shape[-2:])
        shape = (int(shape[0]), int(shape[1]))
        self._validate_grid(shape)
        if mask_ffts.shape[-2] != shape[0] or mask_ffts.shape[-1] > shape[1]:
            raise LithoError(
                f"mask spectra {tuple(mask_ffts.shape[-2:])} do not match "
                f"grid {shape}"
            )
        band = self.band_spectra(shape)
        needed = band.band[1] + 1
        if mask_ffts.shape[-1] < needed:
            raise LithoError(
                f"mask spectra hold {mask_ffts.shape[-1]} columns; the "
                f"pupil band of the {band.shape} grid needs at least "
                f"{needed} (b1 + 1)"
            )
        return band

    def _device_band_arrays(self, band: GridBandSpectra):
        """``(weights, sub_spectra)`` resident where the backend computes.

        Host backends return the band's own arrays (no copy); the torch
        backend lazily materializes device copies, cached in the
        bounded ``_fft_cache`` under the backend's array identity so a
        backend/device swap can never serve wrong-residency spectra.
        This is what "GridBandSpectra held device-side" means: the
        frozen dataclass stays host-canonical (it is what the spectra
        store persists), and the per-device views hang off the kernel
        set that owns them.
        """
        backend = self.fft
        if backend.is_numpy:
            return band.weights, band.sub_spectra
        cache_key = (band.shape, "device-spectra", backend.array_identity)
        with self._cache_lock:
            cached = self._fft_cache.get(cache_key)
            if cached is not None:
                self._fft_cache.move_to_end(cache_key)
                return cached
        pair = (
            backend.to_device(band.weights),
            backend.to_device(band.sub_spectra),
        )
        with self._cache_lock:
            self._fft_cache[cache_key] = pair
            while len(self._fft_cache) > self.fft_cache_capacity:
                self._fft_cache.popitem(last=False)
        return pair

    def _subgrid_intensity(
        self, sub, band: GridBandSpectra
    ):
        """Per-kernel subgrid convolution summed into one intensity.

        The K coherent fields come from one inverse transform batched
        over the kernel axis (at subgrid sizes a transform call costs
        more than its arithmetic); their powers are accumulated in kernel
        order, so the sum is bit-for-bit the per-kernel loop's.  Runs
        wherever ``sub`` lives: host numpy under numpy/scipy, on-device
        under torch (with device-resident kernel spectra from
        :meth:`_device_band_arrays`).
        """
        fft = self.fft
        weights, sub_spectra = self._device_band_arrays(band)
        fields = fft.ifft2(sub[:, None] * sub_spectra[None], axes=(-2, -1))
        power = fields.real**2 + fields.imag**2
        intensity = fft.zeros(sub.shape, fft.float64)
        for k in range(len(weights)):
            intensity += weights[k] * power[:, k]
        return intensity

    def _band_intensity(
        self, mask_ffts, band: GridBandSpectra
    ) -> np.ndarray:
        """Exact subgrid engine: gather band, convolve, resample intensity.

        The resample is a Hermitian pruned inverse: the subgrid
        intensity's ``rfft2`` supplies the ``2 b1 + 1`` non-negative
        columns of the intensity band, an ``ifft`` along H runs on those
        columns only, and an ``irfft`` along W (zero-padded to ``n=W``)
        finishes the full-grid aerial — the same linear map as a
        zero-padded full-grid ``ifft2``, without transforming the empty
        columns.  When the band covers the grid the subgrid is the grid,
        so the subgrid intensity is already the aerial and the resample
        is skipped.  Everything runs backend-native; the dense aerial is
        the host/device boundary, so the returned array is always host
        numpy.
        """
        sub = gather_band_rfft(mask_ffts, band, self.fft)
        intensity = self._subgrid_intensity(sub, band)
        if not band.compact:
            return self.fft.to_host(intensity)
        columns = _band_column_resample(intensity, band, self.fft)
        return self.fft.to_host(
            self.fft.irfft(columns, n=band.shape[1], axis=-1)
        )

    def intensity_at_pixels(
        self,
        mask_ffts,
        rows: np.ndarray,
        cols: np.ndarray,
        shape: tuple[int, int] | None = None,
    ) -> np.ndarray:
        """Aerial intensity of ``(B, H, W)`` mask spectra at S pixels.

        The sparse companion of :meth:`intensity_from_mask_ffts`, taking
        the same spectra and ``shape``: callers forward-transform their
        mask stack once (:func:`shared_mask_spectra`) and share it across
        the focus and defocus kernel sets.  Returns ``(B, S)`` values
        mathematically identical to ``intensity_from_mask_ffts(mask_ffts,
        shape)[:, rows, cols]`` (<= 1e-12 absolute — the last resample
        step, ``irfft`` along W, becomes a direct sum over the band
        columns at each pixel; bit for bit when the band covers the
        grid).  The full-grid aerial never exists: after the subgrid
        convolution, cost is the ``2 b1 + 1``-column ``ifft`` along H the
        dense engine also runs, plus ``S x (2 b1 + 1)`` multiply-adds
        (:func:`band_values_at_pixels`).
        """
        band = self._spectra_band(mask_ffts, shape)
        rows, cols = _validate_pixel_set(band.shape, rows, cols)
        sub = gather_band_rfft(mask_ffts, band, self.fft)
        intensity = self._subgrid_intensity(sub, band)
        return band_values_at_pixels(intensity, band, rows, cols, self.fft)

    def subgrid_intensity_from_rfft(
        self, mask_rffts: np.ndarray, shape: tuple[int, int]
    ) -> np.ndarray:
        """Exact aerial intensity on the pupil-band subgrid, ``(B, m0, m1)``.

        The band-limited intensity is fully determined by its subgrid
        samples (``m >= 4b + 1`` per axis), so this is the cheapest exact
        representation of the aerial image — the surrogate trainer uses it
        as ground-truth labels, and :func:`band_values_at_pixels` lifts
        either these or surrogate predictions to full-grid pixels.
        Takes the same spectra as :meth:`intensity_at_pixels`.
        """
        band = self._spectra_band(mask_rffts, shape)
        sub = gather_band_rfft(mask_rffts, band, self.fft)
        return self.fft.to_host(self._subgrid_intensity(sub, band))

    def fields_from_mask_fft(self, mask_fft: np.ndarray) -> np.ndarray:
        """Per-kernel coherent fields ``(K, H, W)`` for one mask spectrum.

        Used by gradient-based optimizers (pixel ILT) that need the
        fields themselves, not just the summed intensity; pair with
        :meth:`weights_for` on the same shape.  Host-side always (the
        pixel-ILT gradient loop is numpy-native).
        """
        mask_fft = self.fft.to_host(mask_fft)
        if mask_fft.ndim != 2:
            raise LithoError(
                f"mask spectrum must be 2-D, got shape {mask_fft.shape}"
            )
        kernel_ffts = self.kernel_spectra(mask_fft.shape)
        return self._host_fft().ifft2(mask_fft[None] * kernel_ffts, axes=(-2, -1))

    # -- spatial materialization (persistence / visualization) ---------------
    def spatial_kernels(self) -> tuple[np.ndarray, np.ndarray]:
        """Canonical spatial ``(weights, kernels)`` for saving / plotting.

        Materializes the square ``period_nm`` lattice once (uncropped —
        the full periodic kernel) and normalizes so an open frame images
        to 1.0.
        """
        if self._canonical is None:
            tcc = build_tcc(
                self.source,
                period_nm=self.period_nm,
                defocus_nm=self.defocus_nm,
                wavelength_nm=self.wavelength_nm,
                numerical_aperture=self.numerical_aperture,
            )
            weights, kernels = socs_kernels(
                tcc,
                self.pixel_nm,
                max_kernels=self.max_kernels,
                energy_fraction=self.energy_fraction,
            )
            sums = kernels.sum(axis=(1, 2))
            open_frame = float(np.sum(weights * np.abs(sums) ** 2))
            if open_frame <= 0:
                raise LithoError(
                    "kernel set images an open frame to zero intensity"
                )
            self._canonical = (weights / open_frame, kernels)
        return self._canonical

    # -- persistence ---------------------------------------------------------
    def save(self, path: str) -> None:
        """Persist the set: spatial kernels plus the optics metadata
        :meth:`load` rebuilds it from."""
        weights, kernels = self.spatial_kernels()
        extras: dict[str, object] = {}
        if self.cutoff_per_nm is not None:
            extras["cutoff_per_nm"] = self.cutoff_per_nm
        np.savez_compressed(
            path,
            weights=weights,
            kernels=kernels,
            pixel_nm=self.pixel_nm,
            defocus_nm=self.defocus_nm,
            source_shape=self.source.shape,
            source_sigma=self.source.sigma,
            source_sigma_in=self.source.sigma_in,
            source_sigma_out=self.source.sigma_out,
            wavelength_nm=self.wavelength_nm,
            numerical_aperture=self.numerical_aperture,
            max_kernels=self.max_kernels,
            energy_fraction=self.energy_fraction,
            period_nm=self.period_nm,
            **extras,
        )

    @classmethod
    def load(
        cls,
        path: str,
        fft_backend: str = "auto",
        fft_workers: int | None = None,
        device: str | None = None,
    ) -> "OpticalKernelSet":
        """Reload a saved set from its optics metadata.

        The transform backend is an execution choice, not physics, so it
        is never persisted; pass ``fft_backend="numpy"`` explicitly when
        bit-for-bit reproducibility with a pre-save numpy-backend set is
        required (the ``"auto"`` default may resolve to threaded scipy
        on multi-core hosts, ~1e-12 from numpy).  A file with spatial
        kernels only (no optics metadata) raises :class:`LithoError`:
        a cropped spatial kernel is not band-limited, so the set has to
        be rebuilt from its optics.
        """
        with np.load(path) as data:
            if "source_shape" not in data:
                raise LithoError(
                    f"{path} holds spatial kernels without optics "
                    "metadata; rebuild the set with build_kernel_set"
                )
            cutoff = (
                float(data["cutoff_per_nm"]) if "cutoff_per_nm" in data else None
            )
            source = SourceSpec(
                shape=str(data["source_shape"]),
                sigma=float(data["source_sigma"]),
                sigma_in=float(data["source_sigma_in"]),
                sigma_out=float(data["source_sigma_out"]),
            )
            return cls(
                pixel_nm=float(data["pixel_nm"]),
                defocus_nm=float(data["defocus_nm"]),
                source=source,
                wavelength_nm=float(data["wavelength_nm"]),
                numerical_aperture=float(data["numerical_aperture"]),
                max_kernels=int(data["max_kernels"]),
                energy_fraction=float(data["energy_fraction"]),
                period_nm=float(data["period_nm"]),
                cutoff_per_nm=cutoff,
                fft_backend=fft_backend,
                fft_workers=fft_workers,
                device=device,
            )


@lru_cache(maxsize=8)
def build_kernel_set(
    pixel_nm: float = 4.0,
    defocus_nm: float = 0.0,
    source: SourceSpec = SourceSpec(),
    period_nm: float = 2048.0,
    max_kernels: int = 12,
    energy_fraction: float = 0.995,
    wavelength_nm: float = WAVELENGTH_NM,
    numerical_aperture: float = NUMERICAL_APERTURE,
    fft_backend: str = "auto",
    fft_workers: int | None = None,
    device: str | None = None,
    spectra_store: object | None = None,
) -> OpticalKernelSet:
    """Build (and cache) a frequency-native :class:`OpticalKernelSet`.

    Construction is lazy: per-grid band spectra are built on first use
    for each simulated shape.  ``period_nm`` only sizes the canonical
    square-lattice spatial materialization used for persistence and
    visualization — there is no ambit crop anywhere, which is what makes
    the compact band engine exact.  ``spectra_store`` (a
    :class:`repro.litho.store.KernelSpectraStore`, which hashes by its
    root directory) persists finished band spectra across processes.
    """
    return OpticalKernelSet(
        pixel_nm=pixel_nm,
        defocus_nm=defocus_nm,
        source=source,
        wavelength_nm=wavelength_nm,
        numerical_aperture=numerical_aperture,
        max_kernels=max_kernels,
        energy_fraction=energy_fraction,
        period_nm=period_nm,
        cutoff_per_nm=numerical_aperture / wavelength_nm,
        fft_backend=fft_backend,
        fft_workers=fft_workers,
        device=device,
        spectra_store=spectra_store,
    )
