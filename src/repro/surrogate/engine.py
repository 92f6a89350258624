"""The ``surrogate`` service engine: learned screening, exact reporting.

The engine runs the same damped-feedback loop as the model-based
baseline, but each iteration proposes a *panel* of candidate move vectors
(the five uniform moves plus EPE-feedback corrections at two gains) and
lets the CFNO-lite surrogate rank them — only the predicted-best
candidate pays for an exact evaluation, via the screener opt-in of
:meth:`~repro.rl.env.OPCEnvironment.score_moves`.  Every state the
trajectory visits therefore carries exact metrology; surrogate numbers
never leave the ranking step, so the service's 1e-6 nm verification
drift gate holds trivially (the final mask re-verifies bit-for-bit).

A checkpoint trained offline (``train-surrogate`` CLI) is the fast path;
without one the engine self-calibrates on each clip's own perturbation
neighbourhood.  Calibration is per clip, never cached across calls, so
an engine reused for a later clip (a warm pool worker) returns exactly
what a fresh engine would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.constants import MOVE_SET_NM
from repro.core.agent import OptimizeResult
from repro.errors import ConfigError
from repro.geometry.layout import Clip
from repro.litho.simulator import LithographySimulator
from repro.rl.env import EnvState, OPCEnvironment
from repro.rl.imitation import quantize_to_move_set
from repro.rl.trajectory import Trajectory, TrajectoryStep
from repro.surrogate.data import SurrogateDataset, exact_subgrid_labels, perturbed_masks
from repro.surrogate.model import SurrogateModel
from repro.surrogate.train import SurrogateTrainConfig, load_surrogate, train_surrogate


class SurrogateScreener:
    """Adapter: a trained surrogate as a ``score_moves`` screener.

    ``score_candidates`` returns the predicted summed-|EPE| per candidate
    (lower is better).  Clips without measure points degenerate to
    zeros — every candidate ties, and the stable argsort keeps the first.
    """

    def __init__(self, model: SurrogateModel) -> None:
        self.model = model

    def score_candidates(
        self, env: OPCEnvironment, state: EnvState, candidates: np.ndarray
    ) -> np.ndarray:
        plan = env.measure_plan()
        if plan is None or not plan.n_points:
            return np.zeros(len(candidates))
        move_set = np.asarray(MOVE_SET_NM, dtype=np.float64)
        polygon_sets = [
            state.mask.moved(move_set[row]).mask_polygons()
            for row in candidates
        ]
        return self.model.predict_epe_totals_from_polygons(
            polygon_sets, env.simulator, env.grid, plan,
            env.simulator.config.threshold,
        )


@dataclass(frozen=True)
class SurrogateConfig:
    """Settings for the surrogate screening engine."""

    checkpoint: str | None = None
    width: int = 24
    calibrate_samples: int = 24
    calibrate_steps: int = 160
    seed: int = 0
    max_updates: int = 10
    gain: float = 0.5
    gain_decay: float = 0.15
    deadband_nm: float = 1.2
    max_step_nm: float = 2.0
    early_exit_threshold: float = 4.0
    early_exit_mode: str = "per_target"
    initial_bias_nm: float = 0.0
    epe_search_nm: float = 40.0
    screen_keep: int = 1

    def __post_init__(self) -> None:
        if self.gain <= 0:
            raise ConfigError(f"gain must be positive, got {self.gain}")
        if self.gain_decay < 0 or self.deadband_nm < 0:
            raise ConfigError("gain_decay and deadband_nm must be non-negative")
        if self.early_exit_mode not in ("per_target", "per_point"):
            raise ConfigError(f"unknown early_exit_mode {self.early_exit_mode!r}")
        if self.screen_keep < 1:
            raise ConfigError(f"screen_keep must be >= 1, got {self.screen_keep}")
        if self.calibrate_samples < 2 or self.calibrate_steps < 1:
            raise ConfigError(
                "calibrate_samples must be >= 2 and calibrate_steps >= 1"
            )


class SurrogateOPC:
    """Surrogate-screened feedback OPC with exact final metrology."""

    name = "surrogate"

    def __init__(
        self, config: SurrogateConfig, simulator: LithographySimulator
    ) -> None:
        self.config = config
        self.simulator = simulator
        self._checkpoint_model: SurrogateModel | None = None

    # -- model acquisition ---------------------------------------------------
    def _model_for(self, clip: Clip) -> SurrogateModel:
        if self.config.checkpoint:
            if self._checkpoint_model is None:
                self._checkpoint_model = load_surrogate(self.config.checkpoint)
            return self._checkpoint_model
        return self._calibrate(clip)

    def _calibrate(self, clip: Clip) -> SurrogateModel:
        """Self-calibrate on the clip's own perturbation neighbourhood.

        Deterministic (seeded) and per clip: a model fitted to another
        clip's neighbourhood ranks this clip's candidates wrongly, so
        nothing is reused across calls.
        """
        rng = np.random.default_rng(self.config.seed)
        masks, grid = perturbed_masks(
            [clip], self.simulator, rng, self.config.calibrate_samples
        )
        labels = exact_subgrid_labels(masks, self.simulator, grid)
        dataset = SurrogateDataset(masks=masks, labels=labels, grid=grid)
        train_config = SurrogateTrainConfig(
            width=self.config.width,
            steps=self.config.calibrate_steps,
            seed=self.config.seed,
            selftrain_rounds=0,
        )
        model, _ = train_surrogate(
            self.simulator, train_config, dataset=dataset
        )
        return model

    # -- optimization loop ---------------------------------------------------
    def optimize(
        self,
        clip: Clip,
        max_updates: int | None = None,
        early_exit: bool = True,
    ) -> OptimizeResult:
        start = time.perf_counter()
        env = OPCEnvironment(
            clip,
            self.simulator,
            initial_bias_nm=self.config.initial_bias_nm,
            epe_search_nm=self.config.epe_search_nm,
        )
        screener = SurrogateScreener(self._model_for(clip))
        limit = max_updates if max_updates is not None else self.config.max_updates
        state = env.reset()
        trajectory = Trajectory(epe_initial=state.total_epe)
        exited = False
        steps = 0
        for _ in range(limit):
            if early_exit and self._early_exit(clip, state):
                exited = True
                break
            candidates = self._candidates(env, state, steps)
            scored = env.score_moves(
                state, candidates,
                screener=screener, screen_keep=self.config.screen_keep,
            )
            best_index, best = max(
                (
                    (index, pair)
                    for index, pair in enumerate(scored)
                    if pair is not None
                ),
                key=lambda item: item[1][1],
            )
            state, reward = best
            steps += 1
            trajectory.append(
                TrajectoryStep(
                    actions=candidates[best_index],
                    reward=reward,
                    epe_after=state.total_epe,
                    pvband_after=state.pvband,
                )
            )
        return OptimizeResult(
            clip_name=clip.name,
            final_state=state,
            trajectory=trajectory,
            steps=steps,
            runtime_s=time.perf_counter() - start,
            early_exited=exited,
        )

    def _candidates(
        self, env: OPCEnvironment, state: EnvState, step: int
    ) -> np.ndarray:
        """The per-step panel: uniform moves + two damped feedback rows."""
        rows = [env.uniform_move_candidates()]
        for gain_scale in (1.0, 0.5):
            gain = (
                self.config.gain * gain_scale
                / (1.0 + self.config.gain_decay * step)
            )
            moves = np.clip(
                np.round(-gain * state.seg_epe),
                -self.config.max_step_nm,
                self.config.max_step_nm,
            )
            moves[np.abs(state.seg_epe) < self.config.deadband_nm] = 0.0
            rows.append(quantize_to_move_set(moves)[None, :])
        return np.concatenate(rows, axis=0)

    def _early_exit(self, clip: Clip, state: EnvState) -> bool:
        if self.config.early_exit_mode == "per_target":
            return (
                state.total_epe / clip.target_count
                < self.config.early_exit_threshold
            )
        return state.mean_epe < self.config.early_exit_threshold
