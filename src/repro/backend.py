"""One array/device backend for the whole numerical core.

Every hot-path array operation in the litho engine, the sparse EPE
pipeline and the CFNO-lite surrogate routes through a single
:class:`ArrayBackend` — the array namespace (``xp``), the FFT entry
points (2-D, plus the 1-D passes the litho engine's band-pruned
transforms are built from), host/device movement, and the dtype policy
all live here, so the entire screening/verification stack switches
execution substrate behind one knob:

* ``"numpy"`` — ``np.fft`` + host BLAS; single-threaded, bit-for-bit
  reproducible, and the backend the committed golden images were
  generated with.
* ``"scipy"`` — numpy arrays with ``scipy.fft`` transforms under
  ``workers=`` threading; agrees with numpy to ~1e-12 (both wrap
  pocketfft, different SIMD summation order), far inside the 1e-9
  golden tolerance but *not* bit-for-bit.
* ``"torch"`` — arrays live as ``torch.Tensor`` on ``device`` (CPU
  always; CUDA when available).  All work runs in explicit
  float64/complex128 — ``torch.set_default_dtype`` can never leak in —
  so CPU parity with numpy is ~1e-12 (EPE parity gated at <= 1e-9 nm by
  ``benchmarks/bench_backend.py``).  Requested explicitly only; never
  chosen by ``"auto"``.
* ``"auto"`` — scipy with threads when scipy is importable *and* more
  than one core is available, numpy otherwise.  ``auto`` never picks a
  device backend: device execution is an explicit opt-in.

Backends are resolved once per ``(name, workers, device)`` triple and
shared.  Cached transform-derived artifacts downstream (band DFT
matrices, surrogate DFT GEMMs, device kernel spectra) key on
:attr:`ArrayBackend.array_identity`, so swapping the backend can never
serve arrays resident on the wrong device.

Dtype policy
------------

All real arrays are float64 and all spectra are complex128, explicitly,
on every backend.  The numpy backend inherits this from the engine's
literal dtypes; the torch adapter pins ``dtype=torch.float64`` /
``torch.complex128`` at every tensor creation and conversion, so the
process-global ``torch.set_default_dtype`` (float32 out of the box) has
no effect on any value this package computes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import LithoError

try:  # scipy is optional; everything falls back to np.fft without it.
    import scipy.fft as _scipy_fft
except ImportError:  # pragma: no cover - depends on the environment
    _scipy_fft = None

try:  # torch is optional; the torch backend resolves only when importable.
    import torch as _torch
except ImportError:  # pragma: no cover - depends on the environment
    _torch = None

BACKEND_NAMES = ("auto", "numpy", "scipy", "torch")


def _is_5_smooth(n: int) -> bool:
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= ``n`` (fast FFT length).

    When scipy is importable its C implementation drives the search;
    scipy's notion of "fast" admits factors of 7 and 11, so its answer is
    a *lower bound* that we re-check and advance past until it lands on a
    5-smooth value (subgrid sizes are part of the numerical contract —
    the chosen length must not depend on whether scipy is installed).
    The pure-python upward scan is the fallback and the reference.
    """
    if n < 1:
        raise LithoError(f"FFT length must be positive, got {n}")
    best = n
    while True:
        if _scipy_fft is not None:
            # next_fast_len(m) == m for any 7/11-smooth m, so each miss
            # strictly advances `best` and the loop terminates at the
            # first 5-smooth value, identical to the naive scan.
            best = _scipy_fft.next_fast_len(best)
        if _is_5_smooth(best):
            return best
        best += 1


def scipy_fft_available() -> bool:
    """Whether the scipy backend can actually be constructed."""
    return _scipy_fft is not None


def torch_available() -> bool:
    """Whether the torch backend can actually be constructed."""
    return _torch is not None


@dataclass(frozen=True)
class ArrayBackend:
    """Array namespace + FFT entry points + device policy, as one value.

    ``workers`` is the thread count handed to ``scipy.fft`` (ignored by
    the numpy and torch backends).  ``device`` is ``"cpu"`` for the host
    backends and ``"cpu"``/``"cuda"``/``"cuda:N"`` for torch.

    The numpy and scipy backends share numpy's array namespace — scipy
    only swaps the transform library — so code running under either
    executes literally the same numpy operations outside the FFT calls.
    """

    name: str
    workers: int
    device: str = "cpu"

    # -- identity ------------------------------------------------------------
    @property
    def identity(self) -> tuple:
        """Full cache identity: transform library + threading + device.

        Key FFT-*derived* caches with this — two backends differing in
        any component may produce (slightly) different transform output
        or arrays resident in different memory.
        """
        return (self.name, self.workers, self.device)

    @property
    def array_identity(self) -> tuple:
        """Identity of the array *representation* only.

        Host-built constants (band DFT matrices) are
        identical under numpy and scipy — both hold numpy arrays — and
        only need re-materializing per array namespace + device.  Keying
        residency caches with this instead of :attr:`identity` lets the
        numpy and scipy backends share one host copy.
        """
        if self.is_numpy:
            return ("numpy", "cpu")
        return (self.name, self.device)

    @property
    def is_numpy(self) -> bool:
        """True when arrays are host numpy (numpy and scipy backends)."""
        return self.name in ("numpy", "scipy")

    @property
    def xp(self):
        """The array namespace module (``numpy`` or ``torch``)."""
        return _torch if self.name == "torch" else np

    # -- dtype policy (explicit everywhere; see module docstring) ------------
    @property
    def float64(self):
        return _torch.float64 if self.name == "torch" else np.float64

    @property
    def complex128(self):
        return _torch.complex128 if self.name == "torch" else np.complex128

    @property
    def int64(self):
        return _torch.int64 if self.name == "torch" else np.int64

    # -- host/device movement ------------------------------------------------
    def to_device(self, a):
        """Move an array to this backend's native representation.

        Numpy/scipy: a passthrough for ndarrays (same object, same
        bits).  Torch: ``torch.Tensor`` on :attr:`device`, preserving
        the numpy dtype (float64 -> torch.float64, complex128 ->
        torch.complex128).
        """
        if self.name == "torch":
            if isinstance(a, _torch.Tensor):
                return a if str(a.device) == self.device else a.to(self.device)
            return _torch.as_tensor(
                np.ascontiguousarray(a), device=self.device
            )
        if isinstance(a, np.ndarray):
            return a
        return np.asarray(self.to_host(a))

    def to_host(self, a):
        """The host-numpy view/copy of an array (ndarray passthrough)."""
        if isinstance(a, np.ndarray):
            return a
        if _torch is not None and isinstance(a, _torch.Tensor):
            return a.detach().cpu().numpy()
        return np.asarray(a)

    def index(self, a: np.ndarray):
        """An integer index array usable for advanced indexing here.

        Numpy/scipy: the array itself.  Torch: an int64 index tensor on
        :attr:`device` (CUDA tensors cannot be fancy-indexed with host
        arrays).
        """
        if self.name == "torch":
            return _torch.as_tensor(
                np.ascontiguousarray(a), dtype=_torch.int64,
                device=self.device,
            )
        return a

    def asarray_f64(self, a):
        """``a`` as this backend's native float64 array (no-copy when
        already native float64)."""
        if self.name == "torch":
            t = self.to_device(a)
            return t if t.dtype == _torch.float64 else t.to(_torch.float64)
        return np.asarray(self.to_host(a), dtype=np.float64)

    # -- construction / namespace ops ---------------------------------------
    def zeros(self, shape, dtype):
        if self.name == "torch":
            return _torch.zeros(tuple(shape), dtype=dtype, device=self.device)
        return np.zeros(shape, dtype)

    def empty(self, shape, dtype):
        if self.name == "torch":
            return _torch.empty(tuple(shape), dtype=dtype, device=self.device)
        return np.empty(shape, dtype)

    def concat(self, arrays, axis: int = 0):
        if self.name == "torch":
            return _torch.cat(list(arrays), dim=axis)
        return np.concatenate(arrays, axis=axis)

    def einsum(self, subscripts: str, *operands):
        if self.name == "torch":
            return _torch.einsum(subscripts, *operands)
        return np.einsum(subscripts, *operands)

    def ascontiguous(self, a):
        if self.name == "torch":
            return a.contiguous()
        return np.ascontiguousarray(a)

    # -- FFT entry points ----------------------------------------------------
    def fft2(self, a, axes: tuple[int, int] = (-2, -1)):
        if self.name == "scipy":
            return _scipy_fft.fft2(a, axes=axes, workers=self.workers)
        if self.name == "torch":
            return _torch.fft.fft2(self.to_device(a), dim=axes)
        return np.fft.fft2(a, axes=axes)

    def ifft2(self, a, axes: tuple[int, int] = (-2, -1)):
        if self.name == "scipy":
            return _scipy_fft.ifft2(a, axes=axes, workers=self.workers)
        if self.name == "torch":
            return _torch.fft.ifft2(self.to_device(a), dim=axes)
        return np.fft.ifft2(a, axes=axes)

    def rfft2(self, a, axes: tuple[int, int] = (-2, -1)):
        """Real-input forward transform (half-width spectrum along the
        last axis): the litho engine's subgrid-intensity resample and
        the surrogate's spectral layers."""
        if self.name == "scipy":
            return _scipy_fft.rfft2(a, axes=axes, workers=self.workers)
        if self.name == "torch":
            return _torch.fft.rfft2(
                self.asarray_f64(a), dim=axes
            )
        return np.fft.rfft2(a, axes=axes)

    # -- 1-D transforms (band-pruned 2-D transforms are built from these) ----
    def fft(self, a, axis: int = -1):
        if self.name == "scipy":
            return _scipy_fft.fft(a, axis=axis, workers=self.workers)
        if self.name == "torch":
            return _torch.fft.fft(self.to_device(a), dim=axis)
        return np.fft.fft(a, axis=axis)

    def ifft(self, a, axis: int = -1):
        if self.name == "scipy":
            return _scipy_fft.ifft(a, axis=axis, workers=self.workers)
        if self.name == "torch":
            return _torch.fft.ifft(self.to_device(a), dim=axis)
        return np.fft.ifft(a, axis=axis)

    def rfft(self, a, axis: int = -1):
        if self.name == "scipy":
            return _scipy_fft.rfft(a, axis=axis, workers=self.workers)
        if self.name == "torch":
            return _torch.fft.rfft(self.asarray_f64(a), dim=axis)
        return np.fft.rfft(a, axis=axis)

    def irfft(self, a, n: int, axis: int = -1):
        """Inverse of :meth:`rfft` to length ``n``; an input holding fewer
        than ``n // 2 + 1`` columns is zero-padded, which is what lets a
        band-limited half spectrum skip its empty high columns."""
        if self.name == "scipy":
            return _scipy_fft.irfft(a, n=n, axis=axis, workers=self.workers)
        if self.name == "torch":
            return _torch.fft.irfft(self.to_device(a), n=n, dim=axis)
        return np.fft.irfft(a, n=n, axis=axis)


@lru_cache(maxsize=16)
def resolve_backend(
    name: str = "auto",
    workers: int | None = None,
    device: str | None = None,
) -> ArrayBackend:
    """Build (and cache) the array backend for a configuration name.

    Args:
        name: One of :data:`BACKEND_NAMES`.  ``"scipy"`` falls back to
            numpy when scipy is not importable (matching the historical
            "use scipy when available" contract); ``"torch"`` raises
            when torch is absent — a device request degrading silently
            to host would invalidate the caller's throughput
            assumptions.
        workers: Thread count for scipy transforms; ``None`` = all cores.
        device: Torch device string (``"cpu"``, ``"cuda"``,
            ``"cuda:1"``); ``None`` picks CUDA when available, else CPU.
            Host backends accept only ``None``/``"cpu"``.
    """
    if name not in BACKEND_NAMES:
        raise LithoError(
            f"unknown array backend {name!r}; choose one of {BACKEND_NAMES}"
        )
    cores = os.cpu_count() or 1
    resolved_workers = cores if workers is None else int(workers)
    if resolved_workers < 1:
        raise LithoError(f"fft workers must be >= 1, got {workers}")
    if name == "auto":
        name = (
            "scipy"
            if scipy_fft_available() and resolved_workers > 1 and cores > 1
            else "numpy"
        )
    elif name == "scipy" and not scipy_fft_available():
        name = "numpy"
    if name == "torch":
        if _torch is None:
            raise LithoError(
                "backend 'torch' requested but torch is not importable; "
                "install CPU torch or choose a host backend"
            )
        if device is None:
            device = "cuda" if _torch.cuda.is_available() else "cpu"
        if device.startswith("cuda") and not _torch.cuda.is_available():
            raise LithoError(
                f"torch device {device!r} requested but CUDA is not available"
            )
        return ArrayBackend(
            name="torch", workers=resolved_workers, device=device
        )
    if device not in (None, "cpu"):
        raise LithoError(
            f"backend {name!r} is host-only; device={device!r} is not valid"
        )
    return ArrayBackend(name=name, workers=resolved_workers, device="cpu")

