"""Speculative-trial semantics at the Study/ledger layer.

Speculation rides entirely on existing machinery — ``ask(1,
speculative=True)``, ``retract``, the proposal ledger — so these tests
pin the thin layer the farm added: the provenance flag, its guards, its
checkpoint round-trip, and the sharpened commit-after-retract refusal.
"""

import numpy as np
import pytest

from repro.bo.scheduler import ProposalLedger
from repro.bo.study import Study, StudyError
from farm_helpers import gp_factory, make_picklable_problem


def make_study(**kwargs):
    defaults = dict(
        surrogate_factory=gp_factory, n_initial=3, max_evaluations=10, seed=4
    )
    defaults.update(kwargs)
    return Study(make_picklable_problem(), **defaults)


def drain_initial(study):
    for trial in study.ask(study.n_initial):
        study.tell(trial, study.problem.evaluate(trial.x))


class TestSpeculativeAsk:
    def test_flag_reaches_trial_and_ledger(self):
        study = make_study()
        drain_initial(study)
        regular = study.ask(1)[0]
        speculative = study.ask(1, speculative=True)[0]
        assert not regular.speculative
        assert speculative.speculative
        assert not study.ledger.entry(regular.proposal_id).speculative
        assert study.ledger.entry(speculative.proposal_id).speculative

    def test_speculative_ask_must_be_single(self):
        study = make_study()
        drain_initial(study)
        with pytest.raises(StudyError, match="n=1"):
            study.ask(2, speculative=True)

    def test_speculative_ask_rejected_during_initial_design(self):
        study = make_study()
        with pytest.raises(StudyError, match="initial"):
            study.ask(1, speculative=True)

    def test_speculative_trial_counts_against_budget(self):
        study = make_study(max_evaluations=5)
        drain_initial(study)
        assert study.remaining_capacity == 2
        study.ask(1, speculative=True)
        assert study.remaining_capacity == 1


class TestCheckpointRoundTrip:
    def test_abandoned_speculative_trial_survives_resume(self, tmp_path):
        """The satellite pin: retracted speculation round-trips intact."""
        study = make_study()
        drain_initial(study)
        keep = study.ask(1)[0]
        spec = study.ask(1, speculative=True)[0]
        study.retract(spec)  # abandoned before landing
        path = tmp_path / "study.json"
        study.checkpoint(path)

        resumed = Study.resume(
            path,
            make_picklable_problem(),
            surrogate_factory=gp_factory,
            seed=4,
        )
        entry = resumed.ledger.entry(spec.proposal_id)
        assert entry.speculative and entry.retracted
        kept_entry = resumed.ledger.entry(keep.proposal_id)
        assert not kept_entry.speculative and not kept_entry.retracted
        # the pending regular trial is re-adopted; the retracted
        # speculative one is gone and its budget slot is free again
        assert [t.id for t in resumed.pending_trials()] == [keep.id]
        assert resumed.remaining_capacity == study.remaining_capacity

    def test_pending_speculative_trial_survives_resume(self, tmp_path):
        study = make_study()
        drain_initial(study)
        spec = study.ask(1, speculative=True)[0]
        path = tmp_path / "study.json"
        study.checkpoint(path)
        resumed = Study.resume(
            path,
            make_picklable_problem(),
            surrogate_factory=gp_factory,
            seed=4,
        )
        pending = resumed.pending_trials()
        assert [t.id for t in pending] == [spec.id]
        assert pending[0].speculative
        # it can still land after the resume
        record = resumed.tell(pending[0], resumed.problem.evaluate(pending[0].x))
        assert record.index == resumed.n_evaluations - 1


class TestRetractedCommitMessage:
    """Regression: the refusal names the proposal id and strategy."""

    def test_message_names_id_and_strategy(self):
        ledger = ProposalLedger()
        entry = ledger.open(
            np.array([0.5, 0.5]), pending=(), strategy="penalize"
        )
        ledger.retract(entry.proposal_id)
        with pytest.raises(ValueError) as excinfo:
            ledger.commit(entry.proposal_id, record_index=0)
        message = str(excinfo.value)
        assert f"proposal {entry.proposal_id}" in message
        assert "strategy='penalize'" in message

    def test_speculative_retraction_is_called_out(self):
        ledger = ProposalLedger()
        entry = ledger.open(
            np.array([0.2, 0.8]), pending=(), strategy="fantasy",
            speculative=True,
        )
        ledger.retract(entry.proposal_id)
        with pytest.raises(ValueError, match="speculative proposal"):
            ledger.commit(entry.proposal_id, record_index=0)
