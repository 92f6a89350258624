"""Tests for the ``surrogate`` service engine: registry wiring,
checkpoint override, the screener opt-in on ``OPCEnvironment.score_moves``,
exact-verified service results, and the unverifiable fallback."""

import numpy as np
import pytest

from repro.data.via_bench import generate_via_clip
from repro.errors import ConfigError, RLError, ServiceError
from repro.litho.simulator import LithoConfig, LithographySimulator
from repro.rl.env import OPCEnvironment
from repro.service import (
    MaskOptService,
    OptRequest,
    available_engines,
    create_engine,
)
from repro.surrogate import (
    SurrogateConfig,
    SurrogateOPC,
    SurrogateScreener,
    SurrogateTrainConfig,
    save_surrogate,
    train_surrogate,
)


@pytest.fixture(scope="module")
def sim():
    return LithographySimulator(
        LithoConfig(pixel_nm=8.0, period_nm=1024.0, max_kernels=4)
    )


@pytest.fixture(scope="module")
def checkpoint(sim, tmp_path_factory):
    """A quick-trained checkpoint good enough for mechanics tests."""
    model, _ = train_surrogate(sim, SurrogateTrainConfig(
        width=16, n_clips=2, samples_per_clip=8, steps=250,
        selftrain_rounds=0, seed=3,
    ))
    path = str(tmp_path_factory.mktemp("ckpt") / "surrogate.npz")
    save_surrogate(path, model)
    return path


@pytest.fixture(scope="module")
def clip():
    return generate_via_clip("se1", n_vias=2, seed=31, clip_nm=1024.0)


class TestRegistry:
    def test_available_engines_lists_surrogate(self):
        assert "surrogate" in available_engines()

    def test_create_engine_builds_surrogate(self, sim):
        engine = create_engine("surrogate", sim)
        assert isinstance(engine, SurrogateOPC)
        assert engine.name == "surrogate"
        assert engine.config.checkpoint is None

    def test_create_engine_honors_checkpoint_override(self, sim, checkpoint):
        engine = create_engine("surrogate", sim,
                               {"checkpoint": checkpoint, "max_updates": 3})
        assert engine.config.checkpoint == checkpoint
        assert engine.config.max_updates == 3

    def test_unknown_override_fails_loudly(self, sim):
        with pytest.raises(ServiceError, match="bad overrides"):
            create_engine("surrogate", sim, {"no_such_knob": 1})

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="screen_keep"):
            SurrogateConfig(screen_keep=0)
        with pytest.raises(ConfigError, match="early_exit_mode"):
            SurrogateConfig(early_exit_mode="bogus")
        with pytest.raises(ConfigError, match="calibrate"):
            SurrogateConfig(calibrate_samples=1)


class TestScreenerOptIn:
    """score_moves(screener=...) semantics: exact survivors, None for
    screened-out candidates, exact numbers only."""

    def _screener(self, sim, checkpoint):
        from repro.surrogate import load_surrogate
        return SurrogateScreener(load_surrogate(checkpoint))

    def test_survivors_match_unscreened_evaluation(self, sim, clip,
                                                   checkpoint):
        env = OPCEnvironment(clip, sim)
        state = env.reset()
        candidates = env.uniform_move_candidates()
        screener = self._screener(sim, checkpoint)
        screened = env.score_moves(state, candidates, screener=screener,
                                   screen_keep=2)
        full = env.score_moves(state, candidates)
        kept = [i for i, pair in enumerate(screened) if pair is not None]
        assert len(kept) == 2
        assert len(screened) == len(candidates)
        for index in kept:
            exact_state, exact_reward = full[index]
            got_state, got_reward = screened[index]
            assert got_reward == exact_reward
            assert got_state.total_epe == exact_state.total_epe
            np.testing.assert_array_equal(
                got_state.seg_epe, exact_state.seg_epe
            )

    def test_keep_one_returns_single_survivor(self, sim, clip, checkpoint):
        env = OPCEnvironment(clip, sim)
        state = env.reset()
        candidates = env.uniform_move_candidates()
        screened = env.score_moves(
            state, candidates,
            screener=self._screener(sim, checkpoint), screen_keep=1,
        )
        assert sum(pair is not None for pair in screened) == 1

    def test_keep_beyond_panel_keeps_all(self, sim, clip, checkpoint):
        env = OPCEnvironment(clip, sim)
        state = env.reset()
        candidates = env.uniform_move_candidates()
        screened = env.score_moves(
            state, candidates,
            screener=self._screener(sim, checkpoint), screen_keep=99,
        )
        assert all(pair is not None for pair in screened)

    def test_bad_keep_rejected(self, sim, clip, checkpoint):
        env = OPCEnvironment(clip, sim)
        state = env.reset()
        with pytest.raises(RLError, match="screen_keep"):
            env.score_moves(
                state, env.uniform_move_candidates(),
                screener=self._screener(sim, checkpoint), screen_keep=0,
            )


class TestEngine:
    def test_optimize_with_checkpoint(self, sim, clip, checkpoint):
        engine = SurrogateOPC(
            SurrogateConfig(checkpoint=checkpoint, max_updates=4), sim
        )
        result = engine.optimize(clip)
        assert result.final_state is not None
        assert result.steps <= 4
        assert len(result.trajectory.steps) == result.steps
        # Every trajectory state came from exact evaluation; the final
        # EPE must match re-measuring the final state exactly.
        assert result.final_state.total_epe <= result.trajectory.epe_initial

    def test_deterministic_across_runs(self, sim, clip, checkpoint):
        config = SurrogateConfig(checkpoint=checkpoint, max_updates=3)
        a = SurrogateOPC(config, sim).optimize(clip)
        b = SurrogateOPC(config, sim).optimize(clip)
        assert a.final_state.total_epe == b.final_state.total_epe
        np.testing.assert_array_equal(
            a.final_state.mask.offsets, b.final_state.mask.offsets
        )

    def test_self_calibration_without_checkpoint(self, sim, clip):
        config = SurrogateConfig(max_updates=2, calibrate_samples=6,
                                 calibrate_steps=40, width=8)
        engine = SurrogateOPC(config, sim)
        result = engine.optimize(clip)
        assert result.final_state is not None
        # Calibration is per clip: a second clip of the same grid shape
        # on the reused engine must match a fresh engine exactly, not be
        # screened by the first clip's model.
        clip2 = generate_via_clip("se2", n_vias=2, seed=39, clip_nm=1024.0)
        reused = engine.optimize(clip2)
        fresh = SurrogateOPC(config, sim).optimize(clip2)
        assert reused.final_state.total_epe == fresh.final_state.total_epe
        np.testing.assert_array_equal(
            reused.final_state.mask.offsets, fresh.final_state.mask.offsets
        )


class TestService:
    def test_service_result_is_exactly_verified(self, sim, clip, checkpoint):
        """The reported metrology comes from exact evaluation — the
        surrogate only ranked candidates — so the verifier's independent
        re-simulation agrees to the same <= 1e-9 nm round-off pin every
        exact engine meets (far inside the 1e-6 nm drift gate)."""
        service = MaskOptService(simulator=sim)
        service.submit(OptRequest(
            clip=clip, engine="surrogate",
            engine_overrides={"checkpoint": checkpoint, "max_updates": 3},
        ))
        (result,) = service.run_all()
        assert result.outcome == "verified"
        assert abs(result.verified_epe_nm - result.epe_nm) <= 1e-9

    def test_unverifiable_surrogate_result(self, sim, clip, checkpoint):
        """A surrogate outcome whose final mask cannot be recovered must
        surface as outcome="unverifiable", never as silently trusted."""

        class MasklessSurrogate(SurrogateOPC):
            def optimize(self, clip, max_updates=None, early_exit=True):
                full = super().optimize(clip, max_updates, early_exit)

                class Opaque:
                    epe_total = float(full.final_state.total_epe)
                    pvband = float(full.final_state.pvband)
                    runtime_s = full.runtime_s
                    steps = full.steps
                    early_exited = full.early_exited

                return Opaque()

        engine = MasklessSurrogate(
            SurrogateConfig(checkpoint=checkpoint, max_updates=2), sim
        )
        service = MaskOptService(simulator=sim)
        service.submit(OptRequest(clip=clip, engine=engine))
        (result,) = service.run_all()
        assert result.outcome == "unverifiable"
        assert result.verified_epe_nm is None


class TestCLIWiring:
    def test_train_surrogate_parser_defaults(self):
        from repro.__main__ import build_parser
        args = build_parser().parse_args(
            ["train-surrogate", "--out", "/tmp/x.npz"]
        )
        assert args.func.__name__ == "cmd_train_surrogate"
        assert args.width == 24
        assert args.selftrain_rounds == 2

    def test_optimize_accepts_surrogate_engine(self):
        from repro.__main__ import build_parser
        args = build_parser().parse_args([
            "optimize", "--engine", "surrogate",
            "--opt", "checkpoint=/tmp/x.npz",
        ])
        assert args.engine == "surrogate"
        assert dict(args.opt)["checkpoint"] == "/tmp/x.npz"
