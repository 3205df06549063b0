"""The blessed public surface of the reproduction.

Everything a downstream user needs is importable from here, and only the
names in ``__all__`` are covered by the deprecation policy — internals
(module paths, private helpers, constructor kwargs outside the typed
configs) may change between versions without notice.

Three ways in, from highest- to lowest-level:

* **Closed loop** — :class:`NNBO` / :class:`SurrogateBO`: construct with
  a :class:`Problem` and the typed configs, call ``run()``, read the
  :class:`OptimizationResult`.  These are configuration plus a driver:
  ``run()`` builds a :class:`Study` and hands it to :func:`run_study`,
  which evaluates any study (fresh or resumed) with its own
  :class:`SchedulerConfig`.
* **Ask/tell** — :class:`Study`: the optimizer as a state machine that
  owns its whole state, proposer included; your code owns evaluation
  (external simulator farms, license queues, humans) and feeds results
  back with ``tell``.  ``checkpoint()`` / ``Study.resume()`` persist a
  run across process restarts.
* **As a service** — :class:`StudyServer` / :class:`StudyClient`: a
  multi-study HTTP server over :class:`StudyStore` (durable, leased,
  resumable) whose client mirrors the ``Study`` API one-for-one —
  same methods, same exception types (:class:`StudyError` and
  subclasses cross the wire as stable codes under
  :data:`PROTOCOL_VERSION`), bitwise-identical traces.
* **Shared evaluation** — :class:`EvaluationFarm` /
  :class:`FarmStudyDriver`: one executor pool serving many concurrent
  studies with weighted fair share, backpressure and mid-run resize,
  plus elastic in-flight sizing and speculative runner-up evaluation
  (configured per closed loop via :class:`FarmConfig` /
  :class:`SpeculationConfig` on :class:`SchedulerConfig`).
* **Building blocks** — the testbench problems of the paper's two
  evaluation circuits, the executor factory, the deterministic replay
  clock and run (de)serialization.  The surrogate engine computes with
  numpy only: :func:`available_backends` returns ``("numpy",)``, and
  :func:`get_namespace` is deprecated (it validates its arguments and
  returns :mod:`numpy`; configure ``SurrogateConfig(backend=...,
  device=..., linalg_threads=...)`` instead).
* **Simulator backends** — the pluggable engine layer of
  :mod:`repro.sim`: :class:`SimulatorBackend` implementations
  (:class:`MNABackend`, :class:`NgspiceBackend`) selected by the
  testbenches' ``sim_backend`` knob, :func:`problem_from_netlist` to
  size an existing SPICE deck, and :class:`CornerRobustProblem` for
  worst-case-over-PVT studies.

Example (ask/tell against an external evaluator)::

    from repro.api import Study, SurrogateConfig

    study = Study(problem, surrogate=SurrogateConfig(), seed=0)
    for trial in study.start_initial():
        study.tell(trial, external_simulate(trial.x))
    while not study.done:
        trial = study.ask()[0]
        study.tell(trial, external_simulate(trial.x))
    print(study.best())
"""

from repro.backend import (
    BackendNotAvailable,
    available_backends,
    get_namespace,
)
from repro.baselines import DifferentialEvolution, GASPAD, WEIBO
from repro.bo.config import (
    PROPOSAL_SPACES,
    AcquisitionConfig,
    FarmConfig,
    SchedulerConfig,
    SpeculationConfig,
    SurrogateConfig,
    TrustRegionConfig,
)
from repro.bo.history import EvaluationRecord, OptimizationResult
from repro.bo.loop import SurrogateBO, run_study
from repro.bo.problem import Evaluation, FunctionProblem, Problem
from repro.bo.scheduler import (
    EvaluationExecutor,
    FakeClock,
    ProposalLedger,
    make_evaluator,
)
from repro.bo.study import (
    BudgetExhausted,
    CheckpointMismatch,
    Study,
    StudyError,
    Trial,
    UnknownTrial,
)
from repro.circuits.testbenches import (
    ChargePumpProblem,
    FoldedCascodeOTAProblem,
    TwoStageOpAmpProblem,
)
from repro.core import NNBO
from repro.farm import (
    EvaluationFarm,
    EvaluationTimeout,
    FarmError,
    FarmJob,
    FarmSaturated,
    FarmStudyDriver,
)
from repro.sim import (
    SIM_BACKENDS,
    CornerRobustProblem,
    MNABackend,
    NgspiceBackend,
    SimulatorBackend,
    SimulatorNotAvailable,
    problem_from_netlist,
    resolve_sim_backend,
)
from repro.service import (
    PROTOCOL_VERSION,
    ServiceError,
    StudyClient,
    StudyServer,
    StudyStore,
)
from repro.utils.serialization import (
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)

__all__ = [
    "AcquisitionConfig",
    "BackendNotAvailable",
    "BudgetExhausted",
    "ChargePumpProblem",
    "CheckpointMismatch",
    "CornerRobustProblem",
    "DifferentialEvolution",
    "Evaluation",
    "EvaluationExecutor",
    "EvaluationFarm",
    "EvaluationRecord",
    "EvaluationTimeout",
    "FakeClock",
    "FarmConfig",
    "FarmError",
    "FarmJob",
    "FarmSaturated",
    "FarmStudyDriver",
    "FoldedCascodeOTAProblem",
    "FunctionProblem",
    "GASPAD",
    "MNABackend",
    "NNBO",
    "NgspiceBackend",
    "OptimizationResult",
    "PROPOSAL_SPACES",
    "PROTOCOL_VERSION",
    "Problem",
    "ProposalLedger",
    "SIM_BACKENDS",
    "SchedulerConfig",
    "ServiceError",
    "SimulatorBackend",
    "SimulatorNotAvailable",
    "SpeculationConfig",
    "Study",
    "StudyClient",
    "StudyError",
    "StudyServer",
    "StudyStore",
    "SurrogateBO",
    "SurrogateConfig",
    "Trial",
    "TrustRegionConfig",
    "TwoStageOpAmpProblem",
    "UnknownTrial",
    "WEIBO",
    "available_backends",
    "get_namespace",
    "load_result",
    "make_evaluator",
    "problem_from_netlist",
    "resolve_sim_backend",
    "result_from_dict",
    "result_to_dict",
    "run_study",
    "save_result",
]
