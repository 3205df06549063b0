"""BO-as-a-service: a multi-study server over :class:`~repro.bo.study.Study`.

The package splits along the wire::

    server side                      shared                     client side
    -----------                      ------                     -----------
    StudyServer   (server.py)        protocol.py (wire types)   StudyClient (client.py)
    StudyStore    (store.py)         errors.py   (taxonomy)     list_studies/health/...
    build_problem (problems.py)

:class:`StudyStore` owns named, durably-checkpointed studies behind
per-study locks; :class:`StudyServer` fronts one store with a versioned
JSON-over-HTTP protocol (stdlib :mod:`http.server`), and
:class:`StudyClient` mirrors the ``Study`` ask/tell API one-for-one —
same methods, same exception types, bitwise-identical traces.  See the
README's "BO-as-a-service" section for the endpoint and error-code
tables.
"""

from repro.service.client import (
    ServiceConnection,
    StudyClient,
    delete_study,
    health,
    list_studies,
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
from repro.service.problems import (
    PROBLEM_REGISTRY,
    ExternalProblem,
    build_problem,
    registered_problems,
)
from repro.service.protocol import PROTOCOL_VERSION, URL_PREFIX
from repro.service.server import StudyServer
from repro.service.store import StudyStore

__all__ = [
    "BadRequest",
    "ExternalProblem",
    "PROBLEM_REGISTRY",
    "PROTOCOL_VERSION",
    "ProtocolMismatch",
    "ServiceBusy",
    "ServiceConnection",
    "ServiceError",
    "StudyClient",
    "StudyExists",
    "StudyIncomplete",
    "StudyServer",
    "StudyStore",
    "URL_PREFIX",
    "UnknownProblem",
    "UnknownStudy",
    "build_problem",
    "delete_study",
    "error_envelope",
    "health",
    "list_studies",
    "registered_problems",
]
