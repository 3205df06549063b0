"""Closed-loop contracts of the proposal-space axis.

Determinism contracts pinned here:

* ``proposal_space="full"`` (explicit or default) is bitwise identical to
  the pre-subspace code path — serial q=1, synchronous q=4 batches, and
  the async refill scheduler under a :class:`FakeClock`;
* the line and trust-region spaces obey the same seeded-replay contract
  as everything else: async-thread and async-process runs under a
  ``FakeClock`` are bitwise identical;
* trust-region adaptive state (length, success/failure streaks) travels
  through ``Study.checkpoint()``/``resume()`` — the resumed run continues
  on the exact trace of the uninterrupted one;
* resuming a checkpoint under a *different* proposal space is an error,
  not a silent trace fork.
"""

import numpy as np
import pytest

from repro.acquisition.spaces import SubspaceMaximizer, TrustRegionSpace
from repro.bo.config import AcquisitionConfig, SchedulerConfig
from repro.bo.loop import SurrogateBO, run_study
from repro.bo.scheduler import FakeClock
from repro.bo.study import Study, StudyError
from repro.benchfns import toy_constrained_quadratic

# shared helpers: the GP factory and the picklable problem
from test_scheduler import gp_factory, make_picklable_problem

SPACES = ("line", "trust-region")


def make_bo(
    proposal_space=None, problem=None, max_evaluations=10, seed=11, **scheduler
):
    """The shared GP run; ``scheduler`` kwargs are SchedulerConfig fields."""
    acquisition = (
        AcquisitionConfig()
        if proposal_space is None
        else AcquisitionConfig(proposal_space=proposal_space)
    )
    return SurrogateBO(
        problem or toy_constrained_quadratic(2),
        gp_factory,
        n_initial=5,
        max_evaluations=max_evaluations,
        acquisition_config=acquisition,
        scheduler_config=SchedulerConfig(**scheduler),
        seed=seed,
    )


def make_study(proposal_space):
    """The shared GP run's configuration as an ask/tell study."""
    return Study(
        toy_constrained_quadratic(2),
        surrogate_factory=gp_factory,
        n_initial=5,
        max_evaluations=10,
        acquisition=AcquisitionConfig(proposal_space=proposal_space),
        seed=11,
    )


def assert_traces_equal(a, b):
    np.testing.assert_array_equal(a.x_matrix, b.x_matrix)
    np.testing.assert_array_equal(a.objectives, b.objectives)


class TestFullSpaceIsBitwiseDefault:
    """`proposal_space="full"` must not perturb any pinned trace."""

    def test_serial_q1(self):
        assert_traces_equal(make_bo("full").run(), make_bo().run())

    def test_sync_batch_q4(self):
        kwargs = dict(max_evaluations=13, q=4, seed=7)
        assert_traces_equal(
            make_bo("full", **kwargs).run(), make_bo(**kwargs).run()
        )

    def test_async_fake_clock(self):
        def run(space):
            return make_bo(
                space,
                problem=make_picklable_problem(),
                max_evaluations=13,
                executor="async-thread",
                n_eval_workers=3,
                clock=FakeClock(),
                seed=2024,
            ).run()

        reference, explicit = run(None), run("full")
        assert_traces_equal(explicit, reference)
        assert explicit.ledger.completion_order == reference.ledger.completion_order

    def test_full_space_leaves_maximizer_unwrapped(self):
        study = make_study("full")
        assert study.proposal_space is None
        assert not isinstance(study._proposer.maximizer, SubspaceMaximizer)

    def test_subspace_wraps_maximizer(self):
        for space in SPACES:
            study = make_study(space)
            assert study.proposal_space is not None
            assert isinstance(study._proposer.maximizer, SubspaceMaximizer)


@pytest.mark.parametrize("space", SPACES)
class TestSubspaceDeterminism:
    def _run(self, space, executor):
        return make_bo(
            space,
            problem=make_picklable_problem(),
            max_evaluations=13,
            executor=executor,
            n_eval_workers=3,
            clock=FakeClock(),
            seed=2024,
        ).run()

    def test_bitwise_across_async_executors(self, space):
        """Same seed + same virtual completion order => identical trace,
        whatever subspace the proposals searched."""
        reference = self._run(space, "async-thread")
        other = self._run(space, "async-process")
        assert_traces_equal(other, reference)
        assert other.ledger.completion_order == reference.ledger.completion_order
        assert [
            (r.proposal_id, r.pending_at_proposal) for r in other.records
        ] == [
            (r.proposal_id, r.pending_at_proposal) for r in reference.records
        ]

    def test_serial_replay_is_bitwise_stable(self, space):
        assert_traces_equal(make_bo(space).run(), make_bo(space).run())

    def test_sync_batch_runs_to_budget(self, space):
        result = make_bo(space, max_evaluations=13, q=4, seed=3).run()
        assert result.n_evaluations == 13


def drive(study, until=None):
    for trial in study.start_initial():
        study.tell(trial, study.problem.evaluate_unit(trial.u))
    while not study.done:
        if until is not None and study.result.n_evaluations >= until:
            return study
        trial = study.ask()[0]
        study.tell(trial, study.problem.evaluate_unit(trial.u))
    return study


class TestTrustRegionCheckpointResume:
    ACQ = dict(proposal_space="trust-region")

    def make_study(self):
        return Study(
            toy_constrained_quadratic(2),
            surrogate_factory=gp_factory,
            acquisition=AcquisitionConfig(**self.ACQ),
            n_initial=5,
            max_evaluations=14,
            seed=11,
        )

    def test_resume_continues_exact_trace(self, tmp_path):
        uninterrupted = drive(self.make_study())
        half = drive(self.make_study(), until=9)
        path = half.checkpoint(tmp_path / "tr.json")
        resumed = Study.resume(
            path,
            toy_constrained_quadratic(2),
            surrogate_factory=gp_factory,
            acquisition=AcquisitionConfig(**self.ACQ),
        )
        # the adaptive region state survived verbatim
        assert (
            resumed.proposal_space.state_to_dict()
            == half.proposal_space.state_to_dict()
        )
        drive(resumed)
        assert_traces_equal(resumed.result, uninterrupted.result)
        assert (
            resumed.proposal_space.state_to_dict()
            == uninterrupted.proposal_space.state_to_dict()
        )

    def test_observe_feeds_the_region(self):
        study = drive(self.make_study())
        space = study.proposal_space
        assert isinstance(space, TrustRegionSpace)
        # 9 search landings were observed: the streak counters moved
        state = space.state_to_dict()
        assert (
            state["n_success"] + state["n_failure"]
            + state["n_expansions"] + state["n_shrinks"]
        ) > 0

    def test_resume_under_different_space_raises(self, tmp_path):
        half = drive(self.make_study(), until=8)
        path = half.checkpoint(tmp_path / "tr.json")
        with pytest.raises(StudyError, match="proposal_space"):
            Study.resume(
                path,
                toy_constrained_quadratic(2),
                surrogate_factory=gp_factory,
            )

    def test_full_checkpoint_rejects_subspace_resume(self, tmp_path):
        plain = Study(
            toy_constrained_quadratic(2),
            surrogate_factory=gp_factory,
            n_initial=5,
            max_evaluations=14,
            seed=11,
        )
        drive(plain, until=8)
        path = plain.checkpoint(tmp_path / "plain.json")
        with pytest.raises(StudyError, match="proposal_space"):
            Study.resume(
                path,
                toy_constrained_quadratic(2),
                surrogate_factory=gp_factory,
                acquisition=AcquisitionConfig(**self.ACQ),
            )


class TestLineStudy:
    def test_streaming_ask_uses_incumbent(self):
        """The streaming (async refill) proposal path sets the incumbent
        before maximizing, so line proposals pass through the best-known
        design rather than yesterday's stale centre."""
        study = Study(
            toy_constrained_quadratic(2),
            surrogate_factory=gp_factory,
            acquisition=AcquisitionConfig(proposal_space="line"),
            scheduler=SchedulerConfig(
                executor="async-thread", n_eval_workers=2, clock=FakeClock()
            ),
            n_initial=5,
            max_evaluations=12,
            seed=5,
        )
        run_study(study)
        assert study.result.n_evaluations == 12
        # replay is stable through the streaming path too
        study2 = Study(
            toy_constrained_quadratic(2),
            surrogate_factory=gp_factory,
            acquisition=AcquisitionConfig(proposal_space="line"),
            scheduler=SchedulerConfig(
                executor="async-thread", n_eval_workers=2, clock=FakeClock()
            ),
            n_initial=5,
            max_evaluations=12,
            seed=5,
        )
        run_study(study2)
        assert_traces_equal(study2.result, study.result)
