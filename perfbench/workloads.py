"""The benchmark's workloads: clip streams and the three drivers that
push them through the service front door.

A driver sets up (recording ``Run.setup_s``) and runs timed phases, each
returned as a :class:`Phase`; ``harness.py`` turns those into metrics.
A phase runs whole suite cycles (13 via clips with Table 1's via counts,
or 10 metal clips with Table 2's measure-point counts), so every run
measures the same mix of clip sizes.  The first cycle is the paper's own
suite; every later clip is generated fresh from the workload seed, and
no clip geometry repeats within a run.  See ``README.md`` for why each
workload exists.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.data.stdcell import regular_metal_clip, stdcell_metal_clip
from repro.data.metal_bench import METAL_TEST_POINTS, metal_test_suite
from repro.data.via_bench import (
    VIA_TEST_COUNTS,
    generate_via_clip,
    via_test_suite,
)
from repro.geometry.layout import Clip
from repro.litho.simulator import LithoConfig, LithographySimulator
from repro.service import MaskOptDaemon, MaskOptService, OptRequest, OptResult
from repro.service.journal import OutcomeJournal
from repro.service.sharding import ShardedSuiteRunner

import measure
from spans import Patches

METAL_REGULAR = (False,) * 7 + (True, True) + (False,)
"""Table 2's split: M8 and M9 are regular gratings, the rest routed."""

REGULAR_WIDTHS_NM = tuple(range(60, 81))
"""Regular gratings are fixed by their point count; the wire width is
drawn from this range so that repeated counts give new geometry."""

METAL_UPDATES = 3
"""Fixed CAMO update budget of ``metal-camo`` (early exit off)."""

VIA_UPDATES = 10
"""MB-OPC's default update budget, run in full on the via workloads."""

CYCLE = {"via": len(VIA_TEST_COUNTS), "metal": len(METAL_TEST_POINTS)}
"""Clips per suite cycle: Table 1's 13 via clips, Table 2's 10 metal."""

MIN_CYCLES = {"via": 3, "metal": 2}
"""Suite cycles every timed phase runs at least, whatever ``--seconds``
says: the quality panel and seeded cycles.  A via cycle takes about a
third of a metal one; three of them make ``cpu_s_per_clip`` the median
of three cycles, and at the usual ``--seconds`` every via phase runs
exactly this many, so the mix of panel and seeded cycles is fixed."""

POOL_WORKERS = 2
SERVED_CLIENTS = 2
SETUP_REPEATS = 5
"""Cold set-ups per run; ``setup_s`` is their median.  The first of a
process is slower (first-call costs), so the median is mostly of the
later ones."""

DRIFT_TOLERANCE_NM = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    family: str          # "via" | "metal"
    mode: str            # "sequential" | "sharded" | "served"
    engine: str
    overrides: tuple = ()
    updates: int = VIA_UPDATES

    @property
    def cycle(self) -> int:
        return CYCLE[self.family]

    def request(self, clip: Clip) -> OptRequest:
        return OptRequest(
            clip=clip, engine=self.engine,
            engine_overrides=dict(self.overrides),
            optimize_kwargs={"early_exit": False},
        )


WORKLOADS = {w.name: w for w in (
    Workload("via-mbopc", "via", "sequential", "mbopc"),
    Workload("metal-camo", "metal", "sequential", "camo",
             overrides=(("candidate_lookahead", True),
                        ("initial_bias_nm", 0.0),
                        ("max_updates", METAL_UPDATES)),
             updates=METAL_UPDATES),
    Workload("via-mbopc-sharded", "via", "sharded", "mbopc"),
    Workload("via-mbopc-served", "via", "served", "mbopc"),
)}


# -- clips --------------------------------------------------------------------

def geometry_digest(clip: Clip) -> str:
    """Hash of a clip's window and every polygon's vertices (not its
    name)."""
    digest = hashlib.sha256(repr(clip.bbox).encode())
    for group in (clip.targets, clip.srafs):
        for polygon in group:
            digest.update(repr(polygon.vertices).encode())
        digest.update(b"|")
    return digest.hexdigest()


class ClipStream:
    """Deterministic clip sequence for one family, seed and purpose.

    A ``"run"`` stream opens with the paper's own test suite (V1-V13 or
    M1-M10), the quality panel: the same clips for every seed, so the
    quality sums and the memory sampled after them are exact pins that
    do not move with the seed.  Every later clip is fresh: sizes follow
    the suite cycle in a seeded order per cycle, and placement comes
    from per-clip seeds drawn from the same generator.  A geometry
    already in ``seen`` is skipped, so no two clips that share a
    ``seen`` set are identical.
    """

    TAGS = {"via": 1, "metal": 2}
    PURPOSES = {"run": 0, "warmup": 1}

    def __init__(self, family: str, seed: int, purpose: str = "run",
                 seen: set | None = None) -> None:
        self.family = family
        self._rng = np.random.default_rng(
            [int(seed), self.TAGS[family], self.PURPOSES[purpose]]
        )
        self._prefix = {"run": "", "warmup": "warm-"}[purpose] + \
            ("V" if family == "via" else "M")
        self.seen = set() if seen is None else seen
        self._sizes: list[int] = []
        self._panel: list[Clip] = []
        if purpose == "run":
            self._panel = via_test_suite() if family == "via" \
                else metal_test_suite()
        self.index = 0

    def _size(self) -> int:
        if not self._sizes:
            self._sizes = [
                int(k) for k in self._rng.permutation(CYCLE[self.family])
            ]
        return self._sizes.pop(0)

    def _make(self, name: str, slot: int) -> Clip:
        clip_seed = int(self._rng.integers(2**31))
        if self.family == "via":
            return generate_via_clip(name, VIA_TEST_COUNTS[slot], clip_seed)
        points = METAL_TEST_POINTS[slot]
        if METAL_REGULAR[slot]:
            width = float(self._rng.choice(REGULAR_WIDTHS_NM))
            return regular_metal_clip(name, points, clip_seed, width=width)
        return stdcell_metal_clip(name, points, clip_seed)

    def next(self) -> Clip:
        if self._panel:
            clip = self._panel.pop(0)
            self.seen.add(geometry_digest(clip))
            return clip
        slot = self._size()
        name = f"{self._prefix}{self.index:04d}"
        for _ in range(1000):
            clip = self._make(name, slot)
            digest = geometry_digest(clip)
            if digest not in self.seen:
                self.seen.add(digest)
                self.index += 1
                return clip
        raise RuntimeError(f"no new {self.family} geometry for {name}")

    def take(self, count: int) -> list[Clip]:
        return [self.next() for _ in range(count)]


# -- phases -------------------------------------------------------------------

@dataclass
class Phase:
    """One timed phase: every clip attempted, its result or failure."""

    started: float = 0.0
    wall_s: float = 0.0
    steal_ticks: int = 0
    peak_rss_mb: float = 0.0
    clips: list[Clip] = field(default_factory=list)
    results: dict[str, OptResult] = field(default_factory=dict)
    latency_s: dict[str, float] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)
    pool: dict[str, int] = field(default_factory=dict)
    marks: list[tuple[float, float, int]] = field(default_factory=list)
    """``(wall, cpu, clips finished)`` at the start and after each suite
    cycle."""

    @property
    def finished(self) -> int:
        return len(self.results) + len(self.failures)

    def fail(self, clip: Clip, reason: str) -> None:
        self.failures.setdefault(clip.name, reason)

    def check(self, workload: Workload) -> None:
        """Every clip verified within the drift gate, at its full update
        budget."""
        for clip in self.clips:
            result = self.results.get(clip.name)
            if result is None:
                self.fail(clip, "no result")
            elif result.outcome != "verified":
                self.fail(clip, f"outcome {result.outcome}")
            elif abs(result.verified_epe_nm - result.epe_nm) > \
                    DRIFT_TOLERANCE_NM:
                self.fail(clip, "verification drift")
            elif result.steps != workload.updates:
                self.fail(clip, f"{result.steps} steps, not {workload.updates}")


class Clock:
    """Wall, CPU and steal counters over one phase, with a mark per
    suite cycle."""

    def __init__(self, phase: Phase, cpu: Callable[[], float]) -> None:
        self.phase = phase
        self._cpu = cpu
        self._start_steal = measure.steal_ticks()
        phase.started = time.perf_counter()
        phase.marks.append((phase.started, cpu(), 0))

    def elapsed(self) -> float:
        return time.perf_counter() - self.phase.started

    def mark(self) -> None:
        """Close a suite cycle.  Peak RSS is sampled after the first, so
        it covers set-up plus a fixed amount of work."""
        phase = self.phase
        phase.marks.append((time.perf_counter(), self._cpu(), phase.finished))
        if len(phase.marks) == 2:
            phase.peak_rss_mb = measure.peak_rss_mb()

    def stop(self) -> None:
        self.phase.wall_s = self.elapsed()
        self.phase.steal_ticks = measure.steal_ticks() - self._start_steal


def _parent_and_reaped_cpu() -> float:
    return measure.process_cpu_s() + measure.reaped_children_cpu_s()


def _parent_and_live_cpu() -> float:
    return measure.process_cpu_s() + measure.live_children_cpu_s()


def warm_litho(simulator: LithographySimulator, clip: Clip) -> None:
    """Build (or load from the store) the focus and defocus band spectra
    for the clip's grid: what the first simulation of the clip needs."""
    shape = simulator.grid_for(clip).shape
    nominal, inner, _ = simulator.corners()
    for corner in (nominal, inner):
        simulator.kernel_set(corner.defocus_nm).band_spectra(shape)


def run_sequential_batch(service: MaskOptService, workload: Workload,
                         clips: list[Clip], phase: Phase) -> None:
    """The ``via-mbopc`` / ``metal-camo`` path: submit a suite, drain it
    with ``run_all``.  Latency is the engine's own ``runtime_s``."""
    for clip in clips:
        service.submit(workload.request(clip))
    try:
        results = service.run_all()
    except Exception as exc:  # a failed suite fails each of its clips
        for clip in clips:
            phase.fail(clip, f"{type(exc).__name__}: {exc}")
        return
    for clip, result in zip(clips, results):
        phase.results[clip.name] = result
        phase.latency_s[clip.name] = result.runtime_s


class Run:
    """State shared by one benchmark run of one workload."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 workdir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.seen: set = set()
        self.stream = ClipStream(workload.family, seed, "run", self.seen)
        self.warmups = ClipStream(workload.family, seed, "warmup", self.seen)
        self.setup_s: list[float] = []

    def fresh_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.workdir)

    def litho_config(self) -> LithoConfig:
        """Default optics, persisted to a fresh, empty spectra store."""
        return LithoConfig(spectra_store=self.fresh_dir("store-"))

    def more(self, clock: Clock, started: int) -> bool:
        """Start another suite cycle?  Until ``MIN_CYCLES`` have started
        and ``seconds`` have passed."""
        cycles = started // self.workload.cycle
        return cycles < MIN_CYCLES[self.workload.family] or \
            clock.elapsed() < self.seconds


# -- sequential: via-mbopc, metal-camo ---------------------------------------

class Sequential:
    def __init__(self, run: Run) -> None:
        self.run = run
        self.service: MaskOptService | None = None

    def setup(self) -> None:
        run = self.run
        probe = run.warmups.next()
        start = time.perf_counter()
        service = MaskOptService(litho_config=run.litho_config())
        if run.workload.mode == "sequential":  # sharded builds in workers
            service.engine_for(run.workload.request(probe))
        warm_litho(service.simulator, probe)
        run.setup_s.append(time.perf_counter() - start)
        self.service = service

    def phase(self) -> Phase:
        run, phase = self.run, Phase()
        clock = Clock(phase, measure.process_cpu_s)
        while run.more(clock, len(phase.clips)):
            batch = run.stream.take(run.workload.cycle)
            phase.clips += batch
            run_sequential_batch(self.service, run.workload, batch, phase)
            clock.mark()
        clock.stop()
        phase.check(run.workload)
        return phase

    def close(self) -> None:
        pass


# -- sharded: via-mbopc-sharded ----------------------------------------------

class Sharded(Sequential):
    """``run_suite_sharded`` per suite cycle, 2 workers, journal on.  The
    call spawns its pool, so worker spawn is paid inside the timed
    phase.  A clip's latency runs from the call to the journal record
    of its verified result."""

    def phase(self) -> Phase:
        run, phase = self.run, Phase()
        journal = os.path.join(run.fresh_dir("journal-"), "sharded.journal")
        logged: dict[int, float] = {}
        log_result = OutcomeJournal.log_result
        runner_run = ShardedSuiteRunner.run

        def logged_result(journal_self, ticket, result, fingerprint):
            log_result(journal_self, ticket, result, fingerprint)
            logged[int(ticket)] = time.perf_counter()

        def counted_run(runner, *args, **kwargs):
            try:
                return runner_run(runner, *args, **kwargs)
            finally:
                _add_counts(phase.pool, runner.last_pool_stats or {})

        patches = Patches()
        patches.replace(OutcomeJournal, "log_result", logged_result)
        patches.replace(ShardedSuiteRunner, "run", counted_run)
        try:
            clock = Clock(phase, _parent_and_reaped_cpu)
            while run.more(clock, len(phase.clips)):
                batch = run.stream.take(run.workload.cycle)
                phase.clips += batch
                submitted = time.perf_counter()
                try:
                    results = self.service.run_suite_sharded(
                        run.workload.engine, batch, workers=POOL_WORKERS,
                        engine_overrides=dict(run.workload.overrides),
                        journal=journal, early_exit=False,
                    )
                except Exception as exc:
                    for clip in batch:
                        phase.fail(clip, f"{type(exc).__name__}: {exc}")
                    continue
                for clip, result in zip(batch, results):
                    phase.results[clip.name] = result
                    phase.latency_s[clip.name] = \
                        logged[result.request_id] - submitted
                clock.mark()
            clock.stop()
        finally:
            patches.uninstall()
        phase.check(run.workload)
        return phase


# -- served: via-mbopc-served ------------------------------------------------

class Served:
    """``MaskOptDaemon`` with 2 warm workers and the journal on, driven
    by a closed loop of 2 clients in one asyncio loop: each client sends
    its next request when the previous reply arrives.  Set-up ends when
    every pool worker reports ready."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.daemon: MaskOptDaemon | None = None
        self.loop = asyncio.new_event_loop()

    async def _setup(self) -> None:
        run = self.run
        if self.daemon is not None:
            await self.daemon.shutdown()
            self.daemon = None
        probe = run.warmups.next()
        start = time.perf_counter()
        daemon = MaskOptDaemon(
            litho_config=run.litho_config(), workers=POOL_WORKERS,
            journal=os.path.join(run.fresh_dir("journal-"), "served.journal"),
        )
        warm_litho(daemon.service.simulator, probe)
        await daemon.start()
        self.daemon = daemon
        ticket = await daemon.submit(run.workload.request(probe))
        while not self._ready(daemon):
            await asyncio.sleep(0.005)
        run.setup_s.append(time.perf_counter() - start)
        warm = await daemon.result(ticket)
        if warm.outcome != "verified":
            raise RuntimeError(f"warm-up clip came back {warm.outcome}")

    @staticmethod
    def _ready(daemon: MaskOptDaemon) -> bool:
        pools = daemon.stats()["pools"]
        return bool(pools) and all(
            pool["workers_ready"] == pool["workers"] for pool in pools
        )

    def setup(self) -> None:
        self.loop.run_until_complete(self._setup())

    async def _phase(self) -> Phase:
        run, phase, daemon = self.run, Phase(), self.daemon
        before = daemon.stats()
        clock = Clock(phase, _parent_and_live_cpu)

        def next_clip() -> Clip | None:
            started = len(phase.clips)
            if started % run.workload.cycle == 0 and \
                    not run.more(clock, started):
                return None
            clip = run.stream.next()
            phase.clips.append(clip)
            return clip

        async def client() -> None:
            while (clip := next_clip()) is not None:
                sent = time.perf_counter()
                try:
                    ticket = await daemon.submit(run.workload.request(clip))
                    result = await daemon.result(ticket)
                except Exception as exc:
                    phase.fail(clip, f"{type(exc).__name__}: {exc}")
                else:
                    phase.latency_s[clip.name] = time.perf_counter() - sent
                    phase.results[clip.name] = result
                if phase.finished % run.workload.cycle == 0:
                    clock.mark()

        await asyncio.gather(*(client() for _ in range(SERVED_CLIENTS)))
        clock.stop()
        after = daemon.stats()
        phase.pool = _pool_delta(before, after)
        phase.check(run.workload)
        return phase

    def phase(self) -> Phase:
        return self.loop.run_until_complete(self._phase())

    def close(self) -> None:
        if self.daemon is not None:
            self.loop.run_until_complete(self.daemon.shutdown())
        self.loop.close()


def _add_counts(totals: dict[str, int], pool_stats: dict) -> None:
    """Add a pool's integer counters (retried, revived...) to ``totals``."""
    for key, value in pool_stats.items():
        if isinstance(value, int):
            totals[key] = totals.get(key, 0) + value


def _pool_delta(before: dict, after: dict) -> dict[str, int]:
    start: dict[str, int] = {}
    end: dict[str, int] = {}
    for totals, stats in ((start, before), (end, after)):
        for pool in stats["pools"]:
            _add_counts(totals, pool)
    return {key: end[key] - start.get(key, 0) for key in end}


DRIVERS = {"sequential": Sequential, "sharded": Sharded, "served": Served}


def reference_mismatches(run: Run, phase: Phase) -> list[str]:
    """Re-run three clips of a pooled phase (the first of the panel, the
    first seeded one and the last) through the ``via-mbopc`` path in this
    process; name every clip whose reported EPE or PV band differs in any
    bit."""
    if run.workload.mode == "sequential":
        return []
    via = WORKLOADS["via-mbopc"]
    picks = {clip.name: clip for clip in (
        phase.clips[0], phase.clips[run.workload.cycle], phase.clips[-1])}
    clips = [clip for name, clip in picks.items() if name in phase.results]
    reference = Phase(clips=clips)
    service = MaskOptService(litho_config=run.litho_config())
    run_sequential_batch(service, via, clips, reference)
    mismatched = []
    for clip in clips:
        ours, theirs = phase.results[clip.name], reference.results.get(clip.name)
        if theirs is None or (ours.epe_nm, ours.pvband_nm2) != \
                (theirs.epe_nm, theirs.pvband_nm2):
            mismatched.append(clip.name)
    return mismatched
