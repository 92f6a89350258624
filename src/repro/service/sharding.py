"""Process-sharded suite execution over the work-stealing pool.

:class:`~repro.service.service.MaskOptService.map_suite` thread-pools
*across* engines, but one engine's sweep over a benchmark suite is still
a single-core sequential loop — the litho FFTs release the GIL under the
scipy backend, yet the surrounding python (policy forwards, geometry,
metrology) serializes.  :class:`ShardedSuiteRunner` breaks that limit by
fanning one engine's clip list out to N worker *processes* of a
:class:`~repro.service.workqueue.WorkStealingPool`:

* **Spawn-safe by construction.**  Workers are started with the
  ``spawn`` method (the only start method that is safe everywhere and
  identical across platforms), so nothing inherited matters: each worker
  rebuilds its engine from a picklable :class:`EngineSpec` — litho
  config + registry name (or factory callable) + overrides + seed —
  never from a forked copy of live state.
* **Shared warmup, not shared memory.**  The spec's
  :class:`~repro.litho.simulator.LithoConfig` carries ``spectra_store=``
  (the CLI wires ``$REPRO_SPECTRA_STORE`` into it), so all workers read
  and atomically write one on-disk kernel-spectra store: the first
  worker to meet a grid shape persists its band spectra and every other
  worker's build becomes one ``.npz`` read (:mod:`repro.litho.store`).
* **Streaming results.**  Each finished clip is flattened into a
  picklable :class:`OptOutcome` (reported numbers + the rasterized final
  mask) and handed to ``on_outcome`` *immediately*, so the parent can
  verify full shape bins while workers are still optimizing
  (:meth:`~repro.service.scheduler.ShapeBinScheduler.flush_ready`).
* **Numbers never change.**  Sharding reorders *work*, not computation:
  each ``optimize(clip)`` runs against a freshly built engine/simulator
  pair that is bit-for-bit deterministic from the spec, and the mask is
  rasterized on the same per-clip grid the parent would use — so *which*
  worker runs a clip is irrelevant (``tests/test_service_sharding.py``).
  (This requires engines whose ``optimize`` is per-clip deterministic
  and stateless across calls — true of every registry engine.)
* **One consumer policy, fail-fast.**  Retries, revivals, deadlines and
  dedup are the pool's (:func:`~repro.service.workqueue.drive`, shared
  with the daemon); :meth:`ShardedSuiteRunner.run` only collects
  outcomes and raises the first failed clip's typed error, with sibling
  workers torn down before the raise.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import ServiceError
from repro.geometry.layout import Clip
from repro.litho.simulator import LithoConfig, LithographySimulator
from repro.service.registry import (
    build_engine,
    engine_epe_search_nm,
    overrides_key,
    spec_label,
)
from repro.service.scheduler import final_mask_image
from repro.service.workqueue import (
    CRASH_GRACE_S,
    RETRY_BACKOFF_S,
    Task,
    WorkStealingPool,
    check_delivery,
)

FINGERPRINT_EXCLUDED_LITHO_FIELDS = (
    "backend", "device", "fft_workers", "spectra_store",
)
"""Deployment knobs that change *where/how fast* the numbers are
computed, never the numbers themselves (to far inside every acceptance
tolerance) — two specs differing only here produce equivalent results
and must share a fingerprint, so a journal written on a numpy host
resumes on a scipy-threaded or torch-device one and vice versa."""


@dataclass(frozen=True)
class OptOutcome:
    """Engine-agnostic, picklable outcome of one ``optimize(clip)`` call.

    This is the payload shard workers stream back over the result queue:
    the engine's reported numbers, the contour search range its own
    metrology used (so the parent can bin verification without the
    engine object), and the final mask rasterized on the clip's grid
    (``final_mask_image`` recovers it, exactly as it would from the raw
    outcome).  It quacks like the raw outcome everywhere the service
    needs one — ``epe_total``, ``pvband``, ``runtime_s``, ``steps``,
    ``early_exited``, ``mask_image``.
    """

    clip_name: str
    epe_total: float
    pvband: float
    runtime_s: float
    steps: int
    early_exited: bool
    epe_search_nm: float
    mask_image: np.ndarray | None = field(repr=False, default=None)
    epe_curve: tuple[float, ...] = ()
    worker: int = 0

    @classmethod
    def from_raw(
        cls, raw, clip: Clip, simulator: LithographySimulator,
        epe_search_nm: float, worker: int = 0, capture_mask: bool = True,
    ) -> "OptOutcome":
        """Flatten any engine's outcome object for the wire.

        ``capture_mask=False`` skips the rasterization and ships no mask
        — the right call when the parent runs with verification off and
        would only discard the (multi-MB at large grids) array.
        """
        return cls(
            clip_name=clip.name,
            epe_total=float(raw.epe_total),
            pvband=float(raw.pvband),
            runtime_s=float(raw.runtime_s),
            steps=int(raw.steps),
            early_exited=bool(raw.early_exited),
            epe_search_nm=float(epe_search_nm),
            mask_image=(
                final_mask_image(raw, simulator.grid_for(clip))
                if capture_mask else None
            ),
            epe_curve=tuple(
                float(v) for v in getattr(raw, "epe_curve", ()) or ()
            ),
            worker=worker,
        )


@dataclass(frozen=True)
class EngineSpec:
    """Everything a worker needs to rebuild its engine, picklably.

    ``engine`` is a registry name or a factory callable
    ``(simulator, overrides) -> engine`` (picklable by qualified name —
    a module-level function, not a lambda or a bound method); engine
    *instances* are rejected here, eagerly, instead of dying later
    inside ``Process.start`` with an opaque pickling error.  ``seed``,
    when set, seeds numpy's global RNG before the build+sweep, exactly
    once per worker — in each spawned worker, and on the inline
    ``workers=1`` path under a save/restore so the caller's process-wide
    RNG state is left untouched.  (Engines that draw from the global RNG
    *during* ``optimize`` still see different streams at different
    worker counts — per-clip determinism, which all registry engines
    have via config-seeded private RNGs, is what the bit-for-bit
    contract rests on.)
    """

    engine: str | Callable
    litho: LithoConfig
    overrides: tuple[tuple[str, Any], ...] = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.engine, str) and not callable(self.engine):
            raise ServiceError(
                "EngineSpec.engine must be a registry name or a factory "
                f"callable, got a {type(self.engine).__name__} instance; "
                "engines cannot cross a process boundary — pass the spec "
                "that builds them"
            )
        if not isinstance(self.litho, LithoConfig):
            raise ServiceError(
                f"EngineSpec.litho must be a LithoConfig, got "
                f"{type(self.litho).__name__}"
            )

    @property
    def label(self) -> str:
        return spec_label(self.engine)

    def fingerprint(self) -> str:
        """Stable 16-hex-digit identity of the *numbers* this spec
        produces: engine label + overrides + litho physics + seed.

        This is the key the outcome journal stamps on every record, so
        ``resume`` can refuse to merge results computed under a different
        spec.  Deployment knobs that cannot change a result
        (:data:`FINGERPRINT_EXCLUDED_LITHO_FIELDS`) are excluded —
        moving a journal between hosts with different FFT backends or
        store paths must not orphan it.
        """
        parts = [f"engine={self.label}", f"seed={self.seed!r}"]
        parts.extend(
            f"opt.{name}={value!r}" for name, value in
            overrides_key(dict(self.overrides))
        )
        parts.extend(
            f"litho.{field_.name}={getattr(self.litho, field_.name)!r}"
            for field_ in dataclasses.fields(self.litho)
            if field_.name not in FINGERPRINT_EXCLUDED_LITHO_FIELDS
        )
        digest = hashlib.sha256("|".join(parts).encode("utf-8"))
        return digest.hexdigest()[:16]

    def build(self) -> tuple[Any, LithographySimulator]:
        """Construct the (engine, simulator) pair this spec describes
        (pure: seeding, when requested, is applied by the worker entry
        point, not here)."""
        simulator = LithographySimulator(self.litho)
        return build_engine(self.engine, simulator, dict(self.overrides)), \
            simulator


class ShardedSuiteRunner:
    """Fan one engine's clip sweep out to N worker processes.

    With the default ``dispatch="steal"`` every worker pulls its next
    clip from one shared queue the moment it frees up, so load balances
    even when clip costs are skewed; ``dispatch="static"`` deals clips
    round-robin (worker ``w`` takes ``clips[w::N]``) as a
    pinned-placement baseline.  :meth:`run` streams every finished clip
    through the ``on_outcome`` callback as it arrives (arrival order is
    nondeterministic) and returns the full outcome list in suite order
    (which is not) — either dispatch mode yields bit-for-bit identical
    outcomes, because *which* worker runs a clip never enters the
    computation.
    """

    def __init__(
        self,
        spec: EngineSpec,
        workers: int,
        dispatch: str = "steal",
        retries: int = 0,
        deadline_s: float | None = None,
        stall_timeout_s: float | None = None,
        grace_s: float = CRASH_GRACE_S,
        retry_backoff_s: float = RETRY_BACKOFF_S,
        fault_plan=None,
    ) -> None:
        if not isinstance(spec, EngineSpec):
            raise ServiceError(
                f"ShardedSuiteRunner needs an EngineSpec, got "
                f"{type(spec).__name__}"
            )
        check_delivery(workers, dispatch, retries, deadline_s, stall_timeout_s)
        self.spec = spec
        self.workers = int(workers)
        self.dispatch = dispatch
        self.retries = int(retries)
        self.deadline_s = deadline_s
        self.stall_timeout_s = stall_timeout_s
        self.grace_s = float(grace_s)
        self.retry_backoff_s = float(retry_backoff_s)
        self.fault_plan = fault_plan
        self.last_pool_stats: dict[str, Any] | None = None

    # -- in-process fallback -------------------------------------------------
    def _run_inline(
        self,
        clips: list[Clip],
        optimize_kwargs: dict,
        on_outcome,
        capture_masks: bool,
    ) -> list[OptOutcome]:
        """One worker and no delivery limits: same spec-built engine and
        payloads, no processes (also the zero-overhead baseline the shard
        benchmark times).  ``spec.seed`` is honored exactly as a single
        spawned worker would honor it, but under save/restore — reseeding
        numpy's global RNG in the caller's process as a lasting side
        effect would corrupt unrelated code."""
        saved_rng_state = None
        if self.spec.seed is not None:
            saved_rng_state = np.random.get_state()
            np.random.seed(self.spec.seed)
        try:
            engine, simulator = self.spec.build()
            search_nm = engine_epe_search_nm(engine)
            outcomes = []
            for index, clip in enumerate(clips):
                payload = OptOutcome.from_raw(
                    engine.optimize(clip, **optimize_kwargs),
                    clip, simulator, search_nm, worker=0,
                    capture_mask=capture_masks,
                )
                outcomes.append(payload)
                if on_outcome is not None:
                    on_outcome(index, payload)
            return outcomes
        finally:
            if saved_rng_state is not None:
                np.random.set_state(saved_rng_state)

    # -- the sharded path ----------------------------------------------------
    def run(
        self,
        clips: Sequence[Clip],
        optimize_kwargs: dict | None = None,
        on_outcome: Callable[[int, OptOutcome], None] | None = None,
        capture_masks: bool = True,
    ) -> list[OptOutcome]:
        """Sweep ``clips``; returns outcomes in clip order.

        ``on_outcome(index, outcome)`` fires in the parent as each clip
        finishes — this is where the service hooks streaming
        verification.  ``capture_masks=False`` tells workers not to
        rasterize/ship final masks (for verification-free sweeps the
        parent would discard them).  Raises the first failed clip's
        :class:`ServiceError` (``RetriesExhausted`` / ``DeadlineExceeded``
        when typed); sibling workers are terminated before the raise, so
        the caller never inherits a half-alive fleet.

        A one-worker sweep runs inline unless a deadline, stall timeout
        or fault plan is set: those need a worker process that can be
        killed.
        """
        clip_list = list(clips)
        if not clip_list:
            raise ServiceError("sharded run needs at least one clip")
        kwargs = dict(optimize_kwargs or {})
        self.last_pool_stats = None
        workers = min(self.workers, len(clip_list))
        if workers == 1 and self.deadline_s is None \
                and self.stall_timeout_s is None and self.fault_plan is None:
            return self._run_inline(
                clip_list, kwargs, on_outcome, capture_masks
            )

        pool = WorkStealingPool(
            self.spec, workers, dispatch=self.dispatch,
            grace_s=self.grace_s, fault_plan=self.fault_plan,
            stall_timeout_s=self.stall_timeout_s,
            retry_backoff_s=self.retry_backoff_s,
        )
        outcomes: list[OptOutcome | None] = [None] * len(clip_list)
        pending = len(clip_list)
        try:
            pool.start()
            for index, clip in enumerate(clip_list):
                pool.submit(Task(
                    task_id=index, clip=clip, optimize_kwargs=kwargs,
                    capture_mask=capture_masks,
                    retries=self.retries, deadline_s=self.deadline_s,
                ))
            while pending > 0:
                for resolution in pool.poll():
                    if resolution.error is not None:
                        raise resolution.error
                    index = resolution.task.task_id
                    outcomes[index] = resolution.outcome
                    pending -= 1
                    if on_outcome is not None:
                        on_outcome(index, resolution.outcome)
        finally:
            self.last_pool_stats = pool.stats()
            pool.shutdown(graceful=pending == 0)
        return outcomes  # type: ignore[return-value]
