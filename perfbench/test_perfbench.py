"""Tests of the benchmark's own code: seeded clip streams, span
self-time arithmetic, the wrapper install, and the p90 rule."""

import json
import threading
import time
from pathlib import Path

import pytest

import harness
import measure
import spans
import workloads


CYCLE = {"via": workloads.WORKLOADS["via-mbopc"].cycle,
         "metal": workloads.WORKLOADS["metal-camo"].cycle}


def _digests(clips):
    return [workloads.geometry_digest(clip) for clip in clips]


def _seeded(family, seed, count):
    """The first ``count`` seeded clips, after the quality panel."""
    return workloads.ClipStream(family, seed).take(CYCLE[family] + count)[
        CYCLE[family]:]


@pytest.mark.parametrize("family", ["via", "metal"])
def test_same_seed_gives_identical_geometry(family):
    first = workloads.ClipStream(family, 5).take(CYCLE[family] + 6)
    second = workloads.ClipStream(family, 5).take(CYCLE[family] + 6)
    assert [repr(clip) for clip in first] == [repr(clip) for clip in second]


@pytest.mark.parametrize("family", ["via", "metal"])
def test_different_seed_gives_different_geometry(family):
    assert not set(_digests(_seeded(family, 5, 6))) & \
        set(_digests(_seeded(family, 6, 6)))


@pytest.mark.parametrize("family", ["via", "metal"])
def test_every_seed_opens_with_the_paper_suite(family):
    from repro.data.metal_bench import metal_test_suite
    from repro.data.via_bench import via_test_suite

    suite = via_test_suite() if family == "via" else metal_test_suite()
    for seed in (5, 6):
        panel = workloads.ClipStream(family, seed).take(CYCLE[family])
        assert _digests(panel) == _digests(suite)


@pytest.mark.parametrize("family", ["via", "metal"])
def test_no_geometry_repeats_within_a_run(family):
    digests = _digests(workloads.ClipStream(family, 3).take(4 * CYCLE[family]))
    assert len(set(digests)) == len(digests)


def test_stream_skips_geometry_already_seen():
    first = workloads.ClipStream("metal", 9, "warmup").next()
    seen = {workloads.geometry_digest(first)}
    again = workloads.ClipStream("metal", 9, "warmup", seen=seen).next()
    assert workloads.geometry_digest(again) != workloads.geometry_digest(first)


def test_each_seeded_cycle_has_the_paper_suite_sizes():
    from repro.data.via_bench import VIA_TEST_COUNTS

    clips = _seeded("via", 1, 2 * CYCLE["via"])
    for start in (0, CYCLE["via"]):
        counts = [len(clip.targets) for clip in clips[start:start + CYCLE["via"]]]
        assert sorted(counts) == sorted(VIA_TEST_COUNTS)


def _span(sid, start, end, parent=None, name="layer"):
    return spans.Span(sid, name, start, end, parent, None, 0, 0)


def test_self_time_subtracts_the_union_of_children():
    # Children overlap each other and one runs past the parent's end:
    # covered = [1, 5] + [8, 10] = 6 of the parent's 10.
    tree = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),
        _span(3, 8.0, 12.0, parent=0),
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(4.0)
    assert own[1] == pytest.approx(2.0)
    assert own[3] == pytest.approx(4.0)


def test_covered_length_ignores_intervals_outside_the_window():
    assert spans.covered_length([(-5.0, -1.0), (11.0, 12.0)], 0.0, 10.0) == 0
    assert spans.covered_length([(0.0, 4.0), (4.0, 6.0)], 0.0, 10.0) == 6.0


def test_layer_totals_sum_self_time_calls_and_items():
    tree = [
        _span(0, 0.0, 4.0, name="outer"),
        spans.Span(1, "inner", 1.0, 2.0, 0, None, 3, 0),
        spans.Span(2, "inner", 2.5, 3.0, 0, None, 2, 0),
    ]
    totals = spans.layer_totals(tree)
    assert totals["outer"]["s"] == pytest.approx(2.5)
    assert totals["inner"] == {"calls": 2, "items": 5,
                               "s": pytest.approx(1.5)}


def test_tracer_keeps_one_span_stack_per_thread():
    tracer = spans.Tracer()
    barrier = threading.Barrier(2)

    def work(label):
        outer = tracer.begin(f"outer-{label}")
        barrier.wait(timeout=10)
        inner = tracer.begin(f"inner-{label}")
        time.sleep(0.01)
        tracer.end(inner)
        barrier.wait(timeout=10)
        tracer.end(outer)

    threads = [threading.Thread(target=work, args=(n,)) for n in "ab"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    recorded, _ = tracer.take()
    by_name = {span.name: span for span in recorded}
    for label in "ab":
        assert by_name[f"inner-{label}"].parent == by_name[f"outer-{label}"].sid
        assert by_name[f"outer-{label}"].parent is None
    own = spans.self_times(recorded)
    for label in "ab":
        outer = by_name[f"outer-{label}"]
        inner = by_name[f"inner-{label}"]
        assert own[outer.sid] == pytest.approx(
            (outer.end - outer.start) - (inner.end - inner.start))


def test_install_wraps_the_name_callers_use_and_uninstall_restores():
    import repro.rl.env as env
    from repro.geometry.raster import Grid, rasterize
    from repro.geometry.rect import Rect

    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        assert env.rasterize is not rasterize
        tracer.active = True
        env.rasterize([], Grid.for_window(Rect(0, 0, 40, 40), 4.0))
    finally:
        tracer.active = False
        patches.uninstall()
    assert env.rasterize is rasterize
    recorded, _ = tracer.take()
    assert [span.name for span in recorded] == ["geometry.rasterize"]


def test_p90_is_reported_only_with_ten_samples_beyond_it():
    assert measure.p90_or_none([float(v) for v in range(100)]) is not None
    assert measure.p90_or_none([float(v) for v in range(90)]) is None
    assert measure.p90_or_none([1.0] * 200) is None  # nothing lies beyond


def test_benchmark_json_names_what_the_harness_prints():
    bench = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for key, printed in (("end_to_end", harness.END_TO_END),
                         ("per_layer", harness.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in bench[key]] == list(printed)
