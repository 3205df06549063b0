"""Wire-protocol unit tests: typed messages, versioning, error envelope.

The protocol is API: field names, required-ness, the ``protocol_version``
handshake and the stable error codes are all pinned here so a server
change that would break deployed clients fails this suite first.
"""

import json

import numpy as np
import pytest

from repro.backend import BackendNotAvailable
from repro.bo.history import EvaluationRecord
from repro.bo.problem import Evaluation
from repro.bo.study import (
    BudgetExhausted,
    CheckpointMismatch,
    StudyError,
    Trial,
    UnknownTrial,
)
from repro.service.errors import (
    BadRequest,
    ProtocolMismatch,
    ServiceBusy,
    ServiceError,
    StudyExists,
    StudyIncomplete,
    UnknownProblem,
    UnknownStudy,
    error_envelope,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    AskRequest,
    CreateStudyRequest,
    TellRequest,
    WireRecord,
    WireTrial,
    check_protocol_version,
)


class TestWireMessages:
    def test_round_trip_preserves_floats_bitwise(self):
        trial = Trial(
            id=3,
            u=np.array([0.1234567890123456789, 1 / 3]),
            x=np.array([np.pi, np.e]),
            phase="search",
            iteration=2,
            pending=(1, 2),
            proposal_id=5,
            pending_at_proposal=(1,),
        )
        wire = WireTrial.from_trial(trial, lease_expires_s=30.0)
        # through actual JSON text, as on the real wire
        parsed = WireTrial.from_wire(json.loads(json.dumps(wire.to_wire())))
        back = parsed.to_trial()
        np.testing.assert_array_equal(back.u, trial.u)
        np.testing.assert_array_equal(back.x, trial.x)
        assert back.id == trial.id
        assert back.phase == trial.phase
        assert back.pending == trial.pending
        assert back.proposal_id == trial.proposal_id
        assert back.pending_at_proposal == trial.pending_at_proposal
        assert parsed.lease_expires_s == 30.0

    def test_record_round_trip(self):
        record = EvaluationRecord(
            index=4,
            x=np.array([1.5, -2.25]),
            evaluation=Evaluation(
                objective=0.125,
                constraints=np.array([-1.0, 0.5]),
                metrics={"gain": 61.5, "note": "corner", "nested": {"drop": 1}},
            ),
            phase="search",
            iteration=3,
            batch_index=1,
        )
        wire = WireRecord.from_record(record)
        back = WireRecord.from_wire(json.loads(json.dumps(wire.to_wire()))).to_record()
        assert back.index == 4
        np.testing.assert_array_equal(back.x, record.x)
        assert back.evaluation.objective == 0.125
        np.testing.assert_array_equal(
            back.evaluation.constraints, record.evaluation.constraints
        )
        # only scalar metrics survive the wire, as in run serialization
        assert back.evaluation.metrics == {"gain": 61.5, "note": "corner"}
        assert back.iteration == 3 and back.batch_index == 1

    def test_unknown_field_is_bad_request_naming_it(self):
        with pytest.raises(BadRequest, match="oops") as err:
            AskRequest.from_wire({"n": 1, "oops": 2})
        assert err.value.code == "bad-request"
        assert err.value.detail["unknown"] == ["oops"]

    def test_missing_required_field_is_bad_request_naming_it(self):
        with pytest.raises(BadRequest, match="trial_id") as err:
            TellRequest.from_wire({"objective": 1.0})
        assert err.value.detail["missing"] == ["trial_id"]

    def test_non_object_body_rejected(self):
        with pytest.raises(BadRequest, match="JSON object"):
            CreateStudyRequest.from_wire([1, 2, 3])

    def test_protocol_version_field_is_tolerated_not_stored(self):
        request = AskRequest.from_wire({"n": 2, "protocol_version": PROTOCOL_VERSION})
        assert request.n == 2

    def test_tell_request_builds_evaluation(self):
        request = TellRequest.from_wire(
            {"trial_id": 0, "objective": 2.5, "constraints": [-1.0]}
        )
        evaluation = request.to_evaluation()
        assert evaluation.objective == 2.5
        np.testing.assert_array_equal(evaluation.constraints, [-1.0])


class TestProtocolVersion:
    def test_matching_and_absent_versions_pass(self):
        check_protocol_version({})
        check_protocol_version({"protocol_version": PROTOCOL_VERSION})

    def test_mismatch_rejected_with_both_versions(self):
        with pytest.raises(ProtocolMismatch, match="99") as err:
            check_protocol_version({"protocol_version": 99})
        assert err.value.code == "protocol-mismatch"
        assert err.value.detail == {"client": 99, "server": PROTOCOL_VERSION}


class TestErrorEnvelope:
    @pytest.mark.parametrize(
        "exc, code, status",
        [
            (StudyError("x"), "study-error", 409),
            (BudgetExhausted("x"), "budget-exhausted", 409),
            (UnknownTrial("x"), "unknown-trial", 404),
            (CheckpointMismatch("x"), "checkpoint-mismatch", 409),
            (BadRequest("x"), "bad-request", 400),
            (UnknownStudy("x"), "unknown-study", 404),
            (StudyExists("x"), "study-exists", 409),
            (UnknownProblem("x"), "unknown-problem", 400),
            (ServiceBusy("x"), "service-busy", 503),
            (ProtocolMismatch("x"), "protocol-mismatch", 400),
            (BackendNotAvailable("torch", "torch"), "backend-not-available", 400),
            (ValueError("x"), "bad-request", 400),
            (RuntimeError("x"), "internal-error", 500),
            (StudyIncomplete("x"), "study-incomplete", 409),
        ],
    )
    def test_stable_codes_and_statuses(self, exc, code, status):
        got_status, envelope = error_envelope(exc)
        assert got_status == status
        assert envelope["code"] == code
        assert set(envelope) == {"code", "message", "detail"}
        json.dumps(envelope)  # must always be wire-safe

    def test_checkpoint_mismatch_detail_carries_triple(self):
        exc = CheckpointMismatch(
            "field 'n_initial' differs", field="n_initial", expected=5, actual=7
        )
        _, envelope = error_envelope(exc)
        assert envelope["detail"]["field"] == "n_initial"
        assert envelope["detail"]["expected"] == 5
        assert envelope["detail"]["actual"] == 7

    def test_service_error_detail_travels(self):
        _, envelope = error_envelope(ServiceError("x", detail={"k": "v"}))
        assert envelope["detail"] == {"k": "v"}
