"""Golden ``StudyStore`` root: an old store directory resumes to its old trace.

``tests/fixtures/store/`` holds the two files an earlier version of the
service wrote for one study (``golden.meta.json`` and
``golden.study.json``), taken mid-flight with trials pending, together
with the trace the study went on to produce and the config digests it
reported.  Opening a store on a copy of that directory with today's code
must continue on exactly that trace.  The meta file carries the full
resolved :class:`~repro.bo.config.SurrogateConfig` payload (every field,
``backend``/``device``/``linalg_threads`` included), so a config field
that disappears, or a default that changes what a stored payload means,
fails here even when fresh create/resume round trips agree.

Regenerate (only when a format change is intended) with::

    PYTHONPATH=src python tests/service/test_golden_store.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np

from repro.benchfns import toy_constrained_quadratic
from repro.bo.config import SurrogateConfig
from repro.service.store import StudyStore

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "store"
NAME = "golden"
TINY = {"n_ensemble": 2, "hidden_dims": [10, 10], "n_features": 6, "epochs": 20}
PROBLEM = toy_constrained_quadratic(2)


def _tell(store: StudyStore, trial) -> None:
    store.tell(NAME, trial.id, PROBLEM.evaluate(trial.x))


def _finish(store: StudyStore) -> dict:
    """Land the pending trials oldest first, then ask/tell to the budget."""
    for trial in store.status(NAME)[1]:
        _tell(store, trial)
    while not store.status(NAME)[0]["done"]:
        for trial, _lease in store.ask(NAME, 1):
            _tell(store, trial)
    with store._entry(NAME) as entry:
        result = entry.study.result
    return {
        "config_digests": store.status(NAME)[0]["config_digests"],
        "x_matrix": result.x_matrix.tolist(),
        "objectives": result.objectives.tolist(),
    }


def test_golden_store_resumes_to_recorded_trace(tmp_path):
    root = tmp_path / "store"
    root.mkdir()
    for suffix in (".meta.json", ".study.json"):
        shutil.copy(FIXTURES / f"{NAME}{suffix}", root)
    meta = json.loads((root / f"{NAME}.meta.json").read_text())
    assert set(meta["surrogate"]) == {f.name for f in fields(SurrogateConfig)}
    assert json.loads((root / f"{NAME}.study.json").read_text())["pending"]
    expected = json.loads((FIXTURES / f"{NAME}.expected.json").read_text())

    store = StudyStore(root)
    assert store.study_names() == [NAME]
    trace = _finish(store)

    assert trace["config_digests"] == expected["config_digests"]
    np.testing.assert_array_equal(
        np.asarray(trace["x_matrix"]), np.asarray(expected["x_matrix"])
    )
    np.testing.assert_array_equal(
        np.asarray(trace["objectives"]), np.asarray(expected["objectives"])
    )


def _regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        live = StudyStore(Path(tmp) / "live")
        live.create(
            NAME,
            "toy_constrained_quadratic",
            n_initial=4,
            max_evaluations=10,
            seed=11,
            surrogate=TINY,
        )
        for trial, _lease in live.ask(NAME, 4):
            _tell(live, trial)
        # two proposals in flight, the older one landed: the files the
        # store wrote after that tell are the fixture
        first, _second = (trial for trial, _lease in live.ask(NAME, 2))
        _tell(live, first)
        FIXTURES.mkdir(parents=True, exist_ok=True)
        for suffix in (".meta.json", ".study.json"):
            shutil.copy(live.root / f"{NAME}{suffix}", FIXTURES)
        copy = Path(tmp) / "copy"
        shutil.copytree(live.root, copy)
        uninterrupted = _finish(live)
        resumed = _finish(StudyStore(copy))
    if resumed != uninterrupted:
        raise SystemExit("resume of the recorded store diverged from the live run")
    (FIXTURES / f"{NAME}.expected.json").write_text(
        json.dumps(resumed, indent=1) + "\n"
    )
    print(f"wrote {NAME}.meta.json, {NAME}.study.json and {NAME}.expected.json")


if __name__ == "__main__":
    sys.exit(_regenerate())
