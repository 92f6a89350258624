"""Runs one workload and turns its phases into metrics and a record.

End-to-end metrics come from the untraced phase.  Per-layer metrics come
from the traced phase that follows it in a ``--trace 1`` run, except
``litho.kernel_set.build_s``, which is the traced set-up's spectra build
per set-up.
"""

from __future__ import annotations

import json
from pathlib import Path

import measure
import spans
import workloads
from repro.backend import resolve_backend
from repro.litho.simulator import LithoConfig

END_TO_END = (
    ("cpu_s_per_clip", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("epe_sum_nm", "nm"),
    ("pvband_sum_nm2", "nm2"),
)
"""The gated end-to-end metrics: the ``--trace 0`` JSON and
``BENCHMARK.json``."""

WALL_CLOCK = (
    ("clips_per_s", "1/s"),
    ("clip_latency_p50_s", "s"),
)
"""Printed with every run but not gated: under CPU steal on a shared
2-vCPU host their spread over ten seeds reached 0.3-0.5 of the median,
beyond any allowed bound, while CPU per clip stayed within 0.06."""

PER_LAYER = (
    ("geometry.rasterize.calls", "count"),
    ("geometry.rasterize.s", "s"),
    ("litho.simulate_batch.calls", "count"),
    ("litho.simulate_batch.masks", "count"),
    ("litho.simulate_batch.s", "s"),
    ("litho.band_intensity.s", "s"),
    ("litho.fft.s", "s"),
    ("litho.simulate_epe_batch.calls", "count"),
    ("litho.simulate_epe_batch.masks", "count"),
    ("litho.simulate_epe_batch.s", "s"),
    ("litho.kernel_set.build_s", "s"),
    ("metrology.epe.calls", "count"),
    ("metrology.epe.points", "count"),
    ("metrology.epe.s", "s"),
    ("metrology.pvband.s", "s"),
    ("squish.encode.calls", "count"),
    ("squish.encode.segments", "count"),
    ("squish.encode.s", "s"),
    ("graphs.build.s", "s"),
    ("core.policy_forward.calls", "count"),
    ("core.policy_forward.s", "s"),
    ("core.modulate.s", "s"),
    ("rl.score_moves.calls", "count"),
    ("rl.score_moves.candidates", "count"),
    ("rl.score_moves.s", "s"),
    ("rl.score_moves.accept_ratio", "ratio"),
    ("service.verify.calls", "count"),
    ("service.verify.masks", "count"),
    ("service.verify.s", "s"),
    ("service.journal.appends", "count"),
    ("service.journal.s", "s"),
    ("service.engine_s", "s"),
    ("service.overhead_s", "s"),
    ("service.retried", "count"),
    ("service.revived", "count"),
    ("service.duplicates_dropped", "count"),
    ("trace.overhead_wall_pct", "%"),
    ("trace.overhead_cpu_pct", "%"),
    ("trace.unattributed_pct", "%"),
)

POOL_COUNTERS = {
    "service.retried": "tasks_retried",
    "service.revived": "workers_revived",
    "service.duplicates_dropped": "duplicates_dropped",
}


def cycle_rates(phase) -> tuple[float, float]:
    """Clips per wall second, the median over suite cycles, and CPU
    seconds per clip over the whole phase.  CPU is summed over every
    cycle: on the served workload it varies from cycle to cycle more
    than from run to run, so a median of three cycles is the noisier
    figure."""
    rates = [(n1 - n0) / (t1 - t0) for (t0, _, n0), (t1, _, n1)
             in zip(phase.marks, phase.marks[1:]) if n1 > n0]
    (_, cpu0, done0), (_, cpu1, done1) = phase.marks[0], phase.marks[-1]
    if not rates:  # no cycle finished: every clip failed
        return 0.0, 0.0
    return measure.median(rates), (cpu1 - cpu0) / (done1 - done0)


def end_to_end(run, phase) -> dict:
    ok = [clip.name for clip in phase.clips
          if clip.name in phase.results and clip.name not in phase.failures]
    panel = [clip.name for clip in phase.clips[:run.workload.cycle]]
    latencies = [phase.latency_s[name] for name in ok]
    clips_per_s, cpu_s_per_clip = cycle_rates(phase)
    return {
        "clips_per_s": clips_per_s,
        "cpu_s_per_clip": cpu_s_per_clip,
        "clip_latency_p50_s": measure.median(latencies) if latencies else 0.0,
        "clip_latency_p90_s": measure.p90_or_none(latencies),
        "latency_samples": len(latencies),
        "setup_s": measure.median(run.setup_s),
        "peak_rss_mb": phase.peak_rss_mb,
        "epe_sum_nm": sum(phase.results[n].epe_nm for n in panel
                          if n in phase.results),
        "pvband_sum_nm2": sum(phase.results[n].pvband_nm2 for n in panel
                              if n in phase.results),
    }


def per_layer(run, setup_spans, untraced, traced, phase_spans,
              accepted: int) -> dict:
    totals = spans.layer_totals(phase_spans)
    setup_totals = spans.layer_totals(setup_spans)
    values: dict[str, float] = {}
    for name, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        entry = totals.get(layer)
        if entry is not None and field in ("calls", "appends"):
            values[name] = entry["calls"]
        elif entry is not None and field == "s":
            values[name] = entry["s"]
        elif entry is not None and field in ("masks", "points", "segments",
                                             "candidates"):
            values[name] = entry["items"]
        else:
            values[name] = 0
    values["litho.kernel_set.build_s"] = (
        setup_totals.get("litho.kernel_set", {}).get("s", 0.0)
        / max(len(run.setup_s), 1)
    )
    candidates = values["rl.score_moves.candidates"]
    values["rl.score_moves.accept_ratio"] = \
        accepted / candidates if candidates else 0.0
    engine = [result.runtime_s for result in traced.results.values()]
    values["service.engine_s"] = measure.median(engine)
    if run.workload.mode == "sequential":
        # Latency is the engine's own runtime here, so the service's share
        # is the wall time per clip that no engine call covers.
        values["service.overhead_s"] = \
            (traced.wall_s - sum(engine)) / len(engine)
    else:
        values["service.overhead_s"] = measure.median(
            [traced.latency_s[name] - result.runtime_s
             for name, result in traced.results.items()])
    for name, key in POOL_COUNTERS.items():
        values[name] = traced.pool.get(key, 0)
    plain = end_to_end(run, untraced)
    with_spans = end_to_end(run, traced)
    values["trace.overhead_wall_pct"] = 100.0 * (
        plain["clips_per_s"] / with_spans["clips_per_s"] - 1.0)
    values["trace.overhead_cpu_pct"] = 100.0 * (
        with_spans["cpu_s_per_clip"] / plain["cpu_s_per_clip"] - 1.0)
    layer_intervals = [(s.start, s.end) for s in phase_spans
                       if s.name != "engine.optimize"]
    covered = spans.covered_length(
        layer_intervals, traced.started, traced.started + traced.wall_s)
    values["trace.unattributed_pct"] = \
        100.0 * (1.0 - covered / traced.wall_s)
    return values


def measure_run(args, workdir: str, out: Path) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    run = workloads.Run(workload, args.seed, args.seconds, workdir)
    driver = workloads.DRIVERS[workload.mode](run)
    tracer = spans.Tracer()
    setup_spans, phase_spans, accepted, traced = [], [], 0, None

    def traced_call(fn):
        patches = spans.install(tracer)
        tracer.active = True
        try:
            return fn()
        finally:
            tracer.active = False
            patches.uninstall()

    try:
        for _ in range(workloads.SETUP_REPEATS):
            if args.trace:
                traced_call(driver.setup)
            else:
                driver.setup()
        setup_spans, _ = tracer.take()
        untraced = driver.phase()
        if args.trace:
            traced = traced_call(driver.phase)
            phase_spans, accepted = tracer.take()
    finally:
        driver.close()
    phases = [untraced] + ([traced] if traced else [])
    mismatched = workloads.reference_mismatches(run, untraced)
    for name in mismatched:
        untraced.failures.setdefault(name, "differs from the via-mbopc path")

    attempted = sum(len(phase.clips) for phase in phases)
    failed = sum(len(phase.failures) for phase in phases)
    config = LithoConfig()
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": {k: v for p in phases for k, v in p.failures.items()},
        "host": measure.host_record(
            resolve_backend(config.backend, config.fft_workers,
                            config.device).name),
        "steal_ticks": [phase.steal_ticks for phase in phases],
        "phase_wall_s": [phase.wall_s for phase in phases],
        "setup_runs_s": run.setup_s,
        "cycle_marks": [phase.marks for phase in phases],
        "end_to_end": end_to_end(run, untraced),
        "clips": {clip.name: {
            "digest": workloads.geometry_digest(clip),
            **({"epe_nm": phase.results[clip.name].epe_nm,
                "pvband_nm2": phase.results[clip.name].pvband_nm2,
                "runtime_s": phase.results[clip.name].runtime_s,
                "latency_s": phase.latency_s.get(clip.name)}
               if clip.name in phase.results else {}),
        } for phase in phases for clip in phase.clips},
    }
    if traced is not None:
        record["per_layer"] = per_layer(
            run, setup_spans, untraced, traced, phase_spans, accepted)
        record["end_to_end_traced"] = end_to_end(run, traced)
        spans.write_jsonl(
            setup_spans + phase_spans,
            str(out / f"trace-{workload.name}-seed{args.seed}.jsonl"))
    return record


def report(record: dict) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    e2e = record["end_to_end"]
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={record['trace']}")
    print("host " + json.dumps(record["host"], sort_keys=True))
    print(f"steal_ticks {record['steal_ticks']} over timed phases of "
          f"{[round(w, 2) for w in record['phase_wall_s']]} s")
    print(f"clips attempted {record['attempted']} failed {record['failed']}")
    for name, reason in record["failures"].items():
        print(f"  FAILED {name}: {reason}")
    for name, unit in END_TO_END + WALL_CLOCK:
        print(f"{name} {e2e[name]:.6g} {unit}")
    if e2e["clip_latency_p90_s"] is None:
        print(f"clip_latency_p90_s omitted: {e2e['latency_samples']} "
              "samples, fewer than 10 beyond the 90th percentile")
    else:
        print(f"clip_latency_p90_s {e2e['clip_latency_p90_s']:.6g} s "
              f"({e2e['latency_samples']} samples)")
    if record["trace"]:
        units = dict(PER_LAYER)
        for name, value in record["per_layer"].items():
            print(f"{name} {value:.6g} {units[name]}")
        metrics = {name: {"value": record["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


