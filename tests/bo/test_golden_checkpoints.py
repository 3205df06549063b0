"""Golden ``repro.study/v1`` checkpoints: old files resume to old traces.

The files under ``tests/fixtures/checkpoints/`` were written by an earlier
version of the library, together with the trace its resumed study went
on to produce.  Resuming them with today's code must continue on exactly
that trace: a refactor of the proposal machinery or of the checkpoint
writer that changed the format, the warm-state restore or the numerics
fails here even when live checkpoint/resume round trips still agree
with each other.

Two cases:

* ``nnbo_fantasy_only`` — the paper's surrogate (tiny) under
  ``async_refit="fantasy-only"``, checkpointed mid-flight with two
  pending trials and a ``warm_surrogate`` (bank weights, sanitized
  targets);
* ``gp_factory`` — a per-target GP ``surrogate_factory`` study under the
  trust-region proposal space, checkpointed at a landing with one trial
  pending (no warm state travels; the region's state does).

Regenerate (only when a format change is intended) with::

    PYTHONPATH=src python tests/bo/test_golden_checkpoints.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bo.config import AcquisitionConfig, SchedulerConfig, SurrogateConfig
from repro.bo.study import Study
from repro.benchfns import toy_constrained_quadratic
from repro.gp import GPRegression

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "checkpoints"


def gp_factory(rng):
    return GPRegression(n_restarts=1, seed=rng)


def _sources(case: str) -> dict:
    """The non-serializable construction arguments of each case."""
    if case == "nnbo_fantasy_only":
        return dict(
            surrogate=SurrogateConfig(
                n_ensemble=2, hidden_dims=(10, 10), n_features=6, epochs=20
            ),
            scheduler=SchedulerConfig(
                n_eval_workers=3,
                async_refit="fantasy-only",
                async_full_refit_every=3,
            ),
        )
    return dict(
        surrogate_factory=gp_factory,
        acquisition=AcquisitionConfig(proposal_space="trust-region"),
    )


CASES = ("nnbo_fantasy_only", "gp_factory")
IN_FLIGHT = {"nnbo_fantasy_only": 3, "gp_factory": 2}


def _step(study: Study, in_flight: int) -> None:
    """One deterministic streaming move: refill, else tell the oldest."""
    if study.n_pending < in_flight and study.remaining_capacity > 0:
        study.ask(1)
        return
    trial = study.pending_trials()[0]
    study.tell(trial, study.problem.evaluate_unit(trial.u))


def _checkpointed_study(case: str, path: Path) -> Study:
    """Drive a fresh study into mid-flight and checkpoint it at ``path``."""
    study = Study(
        toy_constrained_quadratic(2),
        n_initial=5,
        max_evaluations=12,
        seed=7,
        **_sources(case),
    )
    for trial in study.start_initial():
        study.tell(trial, study.problem.evaluate_unit(trial.u))
    # fill the in-flight set, land two, refill: pending trials, absorbed
    # landings and (fantasy-only) a live warm bank at checkpoint time
    for _ in range(IN_FLIGHT[case] + 3):
        _step(study, IN_FLIGHT[case])
    study.checkpoint(path)
    return study


def _finish(study: Study, in_flight: int) -> dict:
    while not study.done:
        _step(study, in_flight)
    return {
        "x_matrix": study.result.x_matrix.tolist(),
        "objectives": study.result.objectives.tolist(),
    }


def _resume(case: str, path: Path) -> Study:
    return Study.resume(path, toy_constrained_quadratic(2), **_sources(case))


@pytest.mark.parametrize("case", CASES)
def test_golden_checkpoint_resumes_to_recorded_trace(case):
    path = FIXTURES / f"{case}.json"
    payload = json.loads(path.read_text())
    assert payload["format"] == "repro.study/v1"
    assert payload["pending"], "the fixture must be taken mid-flight"
    assert ("warm_surrogate" in payload) == (case == "nnbo_fantasy_only")
    expected = json.loads((FIXTURES / f"{case}.expected.json").read_text())

    trace = _finish(_resume(case, path), IN_FLIGHT[case])

    np.testing.assert_array_equal(
        np.asarray(trace["x_matrix"]), np.asarray(expected["x_matrix"])
    )
    np.testing.assert_array_equal(
        np.asarray(trace["objectives"]), np.asarray(expected["objectives"])
    )


def _regenerate() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        path = FIXTURES / f"{case}.json"
        live = _checkpointed_study(case, path)
        uninterrupted = _finish(live, IN_FLIGHT[case])
        resumed = _finish(_resume(case, path), IN_FLIGHT[case])
        if resumed != uninterrupted:
            raise SystemExit(f"{case}: resume diverged from the live run")
        (FIXTURES / f"{case}.expected.json").write_text(
            json.dumps(resumed, indent=1) + "\n"
        )
        print(f"wrote {path.name} and {case}.expected.json")


if __name__ == "__main__":
    sys.exit(_regenerate())
