"""Micro-benchmarks of the substrates: litho imaging, squish encoding,
policy forward/backward, segment EPE metrology.

These are the per-iteration costs that dominate every OPC engine's
runtime column in Tables 1 and 2.
"""

import numpy as np
import pytest

from repro.core.config import CamoConfig
from repro.core.policy import CamoPolicy
from repro.data.via_bench import generate_via_clip
from repro.geometry import MaskState, fragment_clip, rasterize
from repro.graphs import build_segment_graph, snake_order
from repro.litho import LithoConfig, LithographySimulator
from repro.metrology import segment_epe
from repro.nn.sage import mean_adjacency
from repro.rl.reinforce import select_log_probs
from repro.squish import NodeFeatureEncoder


@pytest.fixture(scope="module")
def setup():
    simulator = LithographySimulator(LithoConfig(pixel_nm=4.0, max_kernels=8))
    clip = generate_via_clip("micro", n_vias=4, seed=3)
    segments = fragment_clip(clip)
    state = MaskState.initial(clip, segments, bias_nm=3.0)
    grid = simulator.grid_for(clip)
    mask = rasterize(state.mask_polygons(), grid)
    simulator.aerial(mask)  # warm the kernel-FFT cache
    return simulator, clip, segments, state, grid, mask


def test_bench_aerial_reference(setup, benchmark):
    simulator, _, _, _, _, mask = setup
    aerial = benchmark(simulator.aerial, mask)
    assert aerial.shape == mask.shape


def test_bench_full_corner_sweep(setup, benchmark):
    simulator, _, _, _, grid, mask = setup
    result = benchmark(simulator.simulate_mask, mask, grid)
    assert result.nominal.shape == mask.shape


def test_bench_rasterize(setup, benchmark):
    _, _, _, state, grid, _ = setup
    image = benchmark(rasterize, state.mask_polygons(), grid)
    assert image.sum() > 0


def test_bench_node_feature_encoding(setup, benchmark):
    _, _, _, state, _, _ = setup
    encoder = NodeFeatureEncoder(window_nm=500, out_size=32, channels=6)
    features = benchmark(encoder.encode_all, state)
    assert features.shape[0] == state.n_segments


def test_bench_segment_epe(setup, benchmark):
    simulator, _, segments, _, grid, mask = setup
    aerial = simulator.aerial(mask)
    values = benchmark(
        segment_epe, aerial, grid, segments, simulator.config.threshold
    )
    assert len(values) == len(segments)


def test_bench_policy_forward(setup, benchmark):
    _, _, segments, state, _, _ = setup
    config = CamoConfig(encode_size=32)
    policy = CamoPolicy(config)
    encoder = NodeFeatureEncoder(window_nm=500, out_size=32, channels=6)
    features = encoder.encode_all(state)
    graph = build_segment_graph(segments)
    adjacency = mean_adjacency(graph)
    order = snake_order(graph)
    logits = benchmark(policy, features, adjacency, order)
    assert logits.shape == (len(segments), 5)


def test_bench_policy_backward(setup, benchmark):
    _, _, segments, state, _, _ = setup
    config = CamoConfig(encode_size=32)
    policy = CamoPolicy(config)
    encoder = NodeFeatureEncoder(window_nm=500, out_size=32, channels=6)
    features = encoder.encode_all(state)
    graph = build_segment_graph(segments)
    adjacency = mean_adjacency(graph)
    order = snake_order(graph)
    actions = np.zeros(len(segments), dtype=int)

    def step():
        policy.zero_grad()
        log_prob = select_log_probs(policy(features, adjacency, order), actions)
        log_prob.backward()
        return log_prob

    result = benchmark(step)
    assert result.size == 1
