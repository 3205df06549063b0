"""Error taxonomy of the BO service and its wire envelope.

Every error a handler can produce maps to a stable kebab-case ``code``
carried verbatim in the wire envelope ``{"code", "message", "detail"}``
and to an HTTP status.  The study-level taxonomy
(:class:`~repro.bo.study.StudyError` and subclasses) already carries its
own codes — the service forwards those unchanged, so a remote client sees
exactly the error an in-process driver would catch.

:class:`ServiceError` covers the conditions that only exist at the
service layer (unknown study names, admission-control rejections, wire
protocol violations); :func:`error_envelope` is the single choke point
turning any exception into ``(http_status, envelope_dict)``.
"""

from __future__ import annotations

from repro.backend import BackendNotAvailable
from repro.bo.study import CheckpointMismatch, StudyError


class ServiceError(Exception):
    """A service-layer failure with a stable wire ``code``.

    ``detail`` is an optional JSON-safe dict with machine-readable
    context (offending field names, allowed values, ...); it travels in
    the error envelope next to ``code`` and ``message``.
    """

    #: stable error code (wire-safe kebab-case identifier)
    code = "service-error"
    #: HTTP status the server responds with
    http_status = 500

    def __init__(self, message: str, *, detail: dict | None = None):
        super().__init__(message)
        self.detail = dict(detail) if detail else {}


class BadRequest(ServiceError):
    """The request body or parameters could not be interpreted."""

    code = "bad-request"
    http_status = 400


class ProtocolMismatch(ServiceError):
    """Client and server speak different protocol versions."""

    code = "protocol-mismatch"
    http_status = 400


class UnknownStudy(ServiceError):
    """No study with the requested name exists in the store."""

    code = "unknown-study"
    http_status = 404


class StudyExists(ServiceError):
    """A study with the requested name already exists."""

    code = "study-exists"
    http_status = 409


class StudyIncomplete(ServiceError):
    """A study's files are incomplete, so it cannot be loaded.

    Its meta file exists but its checkpoint does not (a ``create`` that
    was killed between the two writes).  ``detail["missing"]`` names the
    missing file; deleting the study frees the name.
    """

    code = "study-incomplete"
    http_status = 409


class UnknownProblem(ServiceError):
    """The problem spec names no registered problem."""

    code = "unknown-problem"
    http_status = 400


class ServiceBusy(ServiceError):
    """Admission control: no resident-study slot could be freed.

    Every resident study is mid-request and the store is at
    ``max_resident`` capacity; the client should retry after a short
    backoff (the condition clears as soon as any in-flight request
    finishes).
    """

    code = "service-busy"
    http_status = 503


#: HTTP status for the study-level error codes the service forwards.
#: Unknown-trial is a lookup failure (404); the remaining study errors
#: are conflicts with the study's current state (409).
_STUDY_ERROR_STATUS = {
    "unknown-trial": 404,
    "budget-exhausted": 409,
    "checkpoint-mismatch": 409,
    "study-error": 409,
}

#: all service-layer error classes, for code -> class lookup (client side)
SERVICE_ERROR_CLASSES = (
    BadRequest,
    ProtocolMismatch,
    UnknownStudy,
    StudyExists,
    StudyIncomplete,
    UnknownProblem,
    ServiceBusy,
    ServiceError,
)


def error_envelope(exc: Exception) -> tuple[int, dict]:
    """``(http_status, {"code", "message", "detail"})`` for any exception.

    Service errors use their declared code/status; study errors forward
    their stable ``code`` (404 for unknown trials, 409 for state
    conflicts) with the exception type name in ``detail`` —
    :class:`~repro.bo.study.CheckpointMismatch` additionally carries its
    ``field``/``expected``/``actual`` triple.  Anything else is an
    ``internal-error`` (500) so a crashing handler still answers with a
    well-formed envelope.
    """
    if isinstance(exc, ServiceError):
        return exc.http_status, {
            "code": exc.code,
            "message": str(exc),
            "detail": exc.detail,
        }
    if isinstance(exc, StudyError):
        detail: dict = {"error_type": type(exc).__name__}
        if isinstance(exc, CheckpointMismatch):
            detail["field"] = exc.field
            detail["expected"] = _wire_safe(exc.expected)
            detail["actual"] = _wire_safe(exc.actual)
        status = _STUDY_ERROR_STATUS.get(exc.code, 409)
        return status, {"code": exc.code, "message": str(exc), "detail": detail}
    if isinstance(exc, BackendNotAvailable):
        return 400, {
            "code": exc.code,
            "message": str(exc),
            "detail": {"backend": exc.backend, "package": exc.package},
        }
    if isinstance(exc, (TypeError, ValueError, KeyError)):
        # malformed payloads surface as bad requests, not server faults
        return 400, {
            "code": "bad-request",
            "message": str(exc) or type(exc).__name__,
            "detail": {"error_type": type(exc).__name__},
        }
    return 500, {
        "code": "internal-error",
        "message": f"{type(exc).__name__}: {exc}",
        "detail": {"error_type": type(exc).__name__},
    }


def _wire_safe(value):
    """Clamp arbitrary detail values to JSON-safe scalars."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


__all__ = [
    "BadRequest",
    "ProtocolMismatch",
    "SERVICE_ERROR_CLASSES",
    "ServiceBusy",
    "ServiceError",
    "StudyExists",
    "StudyIncomplete",
    "UnknownProblem",
    "UnknownStudy",
    "error_envelope",
]
