"""Generic constrained surrogate-based Bayesian optimization (Algorithm 1).

The driver is deliberately surrogate-agnostic: the paper's method and the
WEIBO baseline differ *only* in the ``surrogate_factory`` they plug in
(NN-feature-GP ensemble vs. explicit-kernel GP), exactly mirroring the
paper's experimental control.

:class:`SurrogateBO` is configuration plus a closed-loop driver.  It
validates and holds the problem, the surrogate source, the budget and the
typed configs (:mod:`repro.bo.config`: an
:class:`~repro.bo.config.AcquisitionConfig` for the acquisition family and
the lies/penalties of concurrent picks, a
:class:`~repro.bo.config.SchedulerConfig` for batch size, executor, async
refit and farm policy), and one RNG.  ``run()`` builds a
:class:`~repro.bo.study.Study` on that RNG — the study and the
:class:`~repro.bo.proposer.Proposer` it owns do all proposing — and
:func:`run_study` pumps the study's ``ask``/``tell`` cycle through the
configured evaluation executor, so driving a study by hand reproduces
``run()`` bitwise.  Repeated ``run()`` calls continue one RNG stream.

Per iteration (Fig. 2) the study fits the surrogates, proposes ``q``
designs by greedy q-point acquisition, and the driver dispatches them to
the evaluation executor (:mod:`repro.bo.scheduler`), telling the
simulations back as they land.

``q=1`` with the serial executor reproduces the original single-point
loop bitwise (pinned by ``tests/bo/test_scheduler.py``); the
``"async-*"`` executors switch to the refill-on-completion loop of
:class:`~repro.farm.FarmStudyDriver` over a private single-tenant
:class:`~repro.farm.EvaluationFarm` (pinned by
``tests/bo/test_async_scheduler.py`` and ``tests/farm``).
"""

from __future__ import annotations

from repro.acquisition.maximize import AcquisitionMaximizer
from repro.bo.config import AcquisitionConfig, FarmConfig, SchedulerConfig
from repro.bo.history import OptimizationResult
from repro.bo.problem import Problem
from repro.bo.proposer import check_setup
from repro.bo.scheduler import EvaluationScheduler, make_evaluator
from repro.utils.rng import ensure_rng

__all__ = ["SurrogateBO", "run_study"]


class SurrogateBO:
    """Constrained Bayesian optimization with pluggable surrogates.

    Parameters
    ----------
    problem:
        The :class:`~repro.bo.problem.Problem` to minimize.
    surrogate_factory:
        Callable ``(rng) -> model`` returning a fresh surrogate with
        ``fit(x, y)`` and ``predict(x) -> (mean, var)``.  Called once per
        modelled quantity per fit (the per-target path used by the
        WEIBO/GP baselines).
    surrogate_bank_factory:
        Callable ``(rng, n_targets) -> bank`` returning a fresh
        :class:`~repro.core.batched_gp.SurrogateBank`-style object with
        ``fit(x, targets)`` (``targets`` of shape ``(n_targets, N)``) and
        ``target_model(t) -> predict-protocol model``.  When provided it
        replaces the per-target factory loop with ONE batched fit of the
        objective and all constraints together (the paper method's hot
        path); a ``surrogate_factory`` passed alongside is never called.
    n_initial:
        Size of the random initial design (Algorithm 1, line 1).
    max_evaluations:
        Total simulation budget including the initial design.
    initial_design:
        ``"lhs"`` (default), ``"random"`` or ``"sobol"``.
    acq_maximizer:
        Inner-loop engine; ``None`` means
        :class:`~repro.acquisition.maximize.DifferentialEvolutionMaximizer`.
    acquisition_config:
        An :class:`~repro.bo.config.AcquisitionConfig`: acquisition family
        (``"wei"``/``"thompson"``), log-space evaluation, duplicate
        tolerance, the pending-point strategy (fantasy lies, local
        penalization, hallucinated bounds) for concurrent proposals and
        the proposal space.
    scheduler_config:
        A :class:`~repro.bo.config.SchedulerConfig`: proposals per
        iteration ``q``, the evaluation executor (``"serial"`` /
        ``"thread"`` / ``"process"`` / ``"async-thread"`` /
        ``"async-process"`` or an executor instance), worker counts, the
        asynchronous refit policy, the farm policy, and an optional
        :class:`~repro.bo.scheduler.FakeClock` for deterministic replay.
        ``async_refit="fantasy-only"`` absorbs landings posterior-only
        through the surrogate bank, so it requires
        ``surrogate_bank_factory``.
    seed, verbose, callback:
        Reproducibility / reporting hooks.  ``callback(iteration, result)``
        runs after every ingested batch (every landing in async mode).
    """

    algorithm_name = "SurrogateBO"

    def __init__(
        self,
        problem: Problem,
        surrogate_factory=None,
        n_initial: int = 30,
        max_evaluations: int = 100,
        initial_design: str = "lhs",
        acq_maximizer: AcquisitionMaximizer | None = None,
        surrogate_bank_factory=None,
        seed=None,
        verbose: bool = False,
        callback=None,
        name: str | None = None,
        *,
        acquisition_config: AcquisitionConfig | None = None,
        scheduler_config: SchedulerConfig | None = None,
    ):
        scheduler_config = scheduler_config or SchedulerConfig()
        check_setup(
            n_initial, max_evaluations, surrogate_factory,
            surrogate_bank_factory, scheduler_config,
        )
        self.problem = problem
        self.surrogate_factory = surrogate_factory
        self.surrogate_bank_factory = surrogate_bank_factory
        self.n_initial = int(n_initial)
        self.max_evaluations = int(max_evaluations)
        self.initial_design = str(initial_design)
        self.acq_maximizer = acq_maximizer
        self.acquisition_config = acquisition_config or AcquisitionConfig()
        self.scheduler_config = scheduler_config
        #: one stream for every study this optimizer builds
        self.rng = ensure_rng(seed)
        self.verbose = bool(verbose)
        self.callback = callback
        if name is not None:
            self.algorithm_name = name

    def run(self) -> OptimizationResult:
        """Execute Algorithm 1 (batched or asynchronous form); return the trace."""
        # the study builds on this module's siblings; imported here so
        # repro.bo.loop stays importable on its own
        from repro.bo.study import Study

        study = Study(
            self.problem,
            surrogate_factory=self.surrogate_factory,
            surrogate_bank_factory=self.surrogate_bank_factory,
            acquisition=self.acquisition_config,
            scheduler=self.scheduler_config,
            n_initial=self.n_initial,
            max_evaluations=self.max_evaluations,
            initial_design=self.initial_design,
            acq_maximizer=self.acq_maximizer,
            seed=self.rng,
            name=self.algorithm_name,
        )
        return self.run_study(study)

    def run_study(self, study) -> OptimizationResult:
        """:func:`run_study` with this optimizer's ``verbose``/``callback``."""
        return run_study(study, verbose=self.verbose, callback=self.callback)


def run_study(study, *, verbose: bool = False, callback=None) -> OptimizationResult:
    """Drive an ask/tell :class:`~repro.bo.study.Study` to its budget.

    The closed-loop entry point: resolves the executor of the study's
    :class:`~repro.bo.config.SchedulerConfig`, pumps the initial design
    and search proposals through it (synchronous q-point batches behind a
    barrier, or the farm's refill-on-completion loop for ``async-*``
    executors), and returns the study's history.  Accepts a resumed study
    — already-committed evaluations are kept and pending trials are
    re-submitted.  ``callback(iteration, result)`` runs after every
    ingested batch (every landing in async mode); ``verbose`` prints the
    same progress.
    """
    cfg = study.scheduler_config

    def report(unit: str, result: OptimizationResult) -> None:
        iteration = result.records[-1].iteration
        if verbose:
            print(
                f"[{study.algorithm_name}] {unit} {iteration:3d} "
                f"evals {result.n_evaluations:4d} "
                f"best {result.best_objective():.6g}"
            )
        if callback is not None:
            callback(iteration, result)

    # an executor instance + explicit n_eval_workers is contradictory;
    # make_evaluator raises rather than silently ignoring the count
    evaluator = make_evaluator(cfg.executor, cfg.resolve_pool_workers())
    owns_evaluator = evaluator is not cfg.executor
    try:
        if getattr(evaluator, "async_mode", False):
            _drive_farm(study, evaluator, cfg, report)
        else:
            if cfg.farm is not None:
                raise ValueError(
                    "SchedulerConfig.farm requires an asynchronous "
                    f"executor (async-thread/async-process), got "
                    f"{cfg.executor!r}"
                )
            _drive_sync(study, evaluator, cfg.q, report)
    finally:
        if owns_evaluator:
            evaluator.close()
    return study.result


def _drive_sync(study, evaluator, q: int, report) -> None:
    """The synchronous driver: q-point batches behind a barrier."""
    scheduler = EvaluationScheduler(study.problem, evaluator)
    initial = study.start_initial()
    if initial:
        scheduler.run_trials(initial, study)
    # a resumed study may carry in-flight search trials; evaluate them
    # first (in submission order) so the budget completes and the next
    # batch ask sees a clean pending set
    pending = study.pending_trials()
    if pending:
        scheduler.run_trials(pending, study)
    while study.remaining_capacity > 0:
        trials = study.ask(min(q, study.remaining_capacity))
        scheduler.run_trials(trials, study)
        report("iter", study.result)


def _drive_farm(study, evaluator, cfg: SchedulerConfig, report) -> None:
    """The asynchronous driver: the farm's refill-on-completion loop.

    A private single-tenant :class:`~repro.farm.EvaluationFarm` over the
    configured executor, driven by :class:`~repro.farm.FarmStudyDriver`.
    The initial design still evaluates as one deterministic batch;
    afterwards the driver keeps the resolved in-flight count of
    simulations running, asking the study for a replacement per landing.
    Without ``SchedulerConfig.farm`` the default
    :class:`~repro.bo.config.FarmConfig` (fixed in-flight target, no
    speculation) applies; elastic sizing, adaptive q and speculation are
    opted into through the scheduler config.  The report fires per
    landing (the async analogue of per-iteration).
    """
    # the farm package builds on this module; imported here to avoid
    # a cycle
    from repro.farm import EvaluationFarm, FarmStudyDriver

    n_workers = cfg.resolve_in_flight()
    farm_cfg = cfg.farm if cfg.farm is not None else FarmConfig()
    capacity = n_workers
    if farm_cfg.max_in_flight is not None:
        capacity = max(capacity, farm_cfg.max_in_flight)
    if cfg.speculation is not None:
        capacity += cfg.speculation.max_speculative

    def on_commit(trial, evaluation, result):
        report("landing", result)

    with EvaluationFarm(evaluator, capacity=capacity, clock=cfg.clock) as farm:
        tenant = farm.register(
            str(study.problem.name),
            problem=study.problem,
            weight=farm_cfg.weight,
            max_queue=farm_cfg.max_queue,
        )
        driver = FarmStudyDriver(farm, clock=cfg.clock)
        driver.run(
            study,
            tenant,
            target=n_workers,
            config=farm_cfg,
            speculation=cfg.speculation,
            on_commit=on_commit,
        )
