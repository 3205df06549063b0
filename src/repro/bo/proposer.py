"""The proposal half of Algorithm 1: fit, acquire, maximize, absorb.

Each :class:`~repro.bo.study.Study` owns one :class:`Proposer`, which
holds everything that decides *where to simulate next*: the surrogate
source, the acquisition config, the maximizer inside its proposal space
(full box, random line or trust region — the LinEasyBO-style subspaces
of :mod:`repro.acquisition.spaces`), the RNG, and the fitted models with
their refit state.  Per fit (Fig. 2) one fresh surrogate is fitted to the
objective and one per constraint — fresh = newly constructed by the
factory, so hyper-parameters are re-initialized each round as in
Algorithm 1 — or the bank fits all of them as one stacked program.
"""

from __future__ import annotations

import numpy as np

from repro.acquisition.fantasy import FantasyModelSet, fantasy_lies
from repro.acquisition.maximize import DifferentialEvolutionMaximizer
from repro.acquisition.penalization import (
    HallucinatedUCB,
    LocalPenalizer,
    PenalizedAcquisition,
    estimate_lipschitz,
)
from repro.acquisition.spaces import SubspaceMaximizer, incumbent_index
from repro.acquisition.wei import WeightedExpectedImprovement
from repro.bo.history import OptimizationResult
from repro.bo.problem import Evaluation, Problem

__all__ = ["Proposer", "check_setup"]


def check_setup(
    n_initial, max_evaluations, surrogate_factory, surrogate_bank_factory,
    scheduler_config,
) -> None:
    """Reject budgets and surrogate sources no optimizer can run."""
    if n_initial < 2:
        raise ValueError(f"n_initial must be >= 2, got {n_initial}")
    if max_evaluations < n_initial:
        raise ValueError(
            f"max_evaluations ({max_evaluations}) must cover the initial "
            f"design ({n_initial})"
        )
    if surrogate_factory is None and surrogate_bank_factory is None:
        raise ValueError("provide surrogate_factory and/or surrogate_bank_factory")
    if (
        scheduler_config.async_refit == "fantasy-only"
        and surrogate_bank_factory is None
    ):
        raise ValueError(
            "async_refit='fantasy-only' requires surrogate_bank_factory "
            "(posterior-only absorbs go through the bank); per-target "
            "surrogate factories must use async_refit='full'"
        )


class _IterationModels:
    """One fit's surrogates plus their training data.

    ``bank`` is the :class:`~repro.core.batched_gp.SurrogateBank` when the
    batched engine fitted the targets jointly — the per-target models are
    then its target views — and ``None`` on the per-target path, where
    ``models`` lists the objective model then one per constraint.  The
    fantasy machinery needs the raw sanitized targets either way.
    ``lipschitz`` caches the objective posterior's Lipschitz estimate for
    the local-penalization pending strategy (one finite-difference sweep
    per fit, shared by every proposal against these models).
    """

    def __init__(
        self, x, objective_y, constraint_ys, *, bank=None, models=None,
        lipschitz=None,
    ):
        if bank is not None:
            models = [
                bank.target_model(t) for t in range(1 + len(constraint_ys))
            ]
        self.objective = models[0]
        self.constraints = list(models[1:])
        self.bank = bank
        self.x = x
        self.objective_y = objective_y
        self.constraint_ys = constraint_ys
        self.lipschitz = lipschitz

    def fantasy_set(self) -> FantasyModelSet:
        return FantasyModelSet(
            self.x, self.objective, self.objective_y,
            self.constraints, self.constraint_ys,
        )


class Proposer:
    """Chooses the designs a :class:`~repro.bo.study.Study` hands out.

    The surrogate sources are as on :class:`~repro.bo.loop.SurrogateBO`
    (the bank wins when both are given); of the scheduler config only
    the refit policy is read.  ``acq_maximizer`` (default DE) is wrapped
    in a :class:`~repro.acquisition.spaces.SubspaceMaximizer` only when a
    proposal subspace is configured, so the full box leaves the RNG
    stream and numerics untouched.  ``rng`` is the study's generator.
    The study calls :meth:`propose`, :meth:`propose_batch`,
    :meth:`absorb` and :meth:`state_to_dict` / :meth:`restore_state`.
    """

    _MAX_RESAMPLE_TRIES = 32

    def __init__(
        self,
        problem: Problem,
        *,
        surrogate_factory,
        surrogate_bank_factory,
        acquisition_config,
        scheduler_config,
        acq_maximizer,
        rng: np.random.Generator,
    ):
        self.problem = problem
        self.surrogate_factory = surrogate_factory
        self.surrogate_bank_factory = surrogate_bank_factory
        self.config = acquisition_config
        self.log_space = acquisition_config.resolve_log_space(problem.n_constraints)
        self.async_refit = scheduler_config.async_refit
        every = scheduler_config.async_full_refit_every
        self.full_refit_every = (
            max(1, scheduler_config.resolve_in_flight()) if every is None else every
        )
        #: the active :class:`~repro.acquisition.spaces.ProposalSpace`, or
        #: ``None`` for the full box
        self.space = acquisition_config.resolve_proposal_space()
        maximizer = acq_maximizer or DifferentialEvolutionMaximizer()
        self.maximizer = (
            maximizer if self.space is None
            else SubspaceMaximizer(self.space, maximizer)
        )
        self.rng = rng
        self.fitted: _IterationModels | None = None
        self.needs_refit = True
        self.landings_since_fit = 0
        self._fantasy_set: FantasyModelSet | None = None
        self._n_fantasied = 0
        #: process-local counters (never checkpointed, never read by a
        #: decision): proposals that landed on a known design and were
        #: redrawn, and redraws that ran out of tries and kept a duplicate
        self.n_duplicate_resamples = 0
        self.n_duplicate_fallbacks = 0

    @property
    def _penalizes(self) -> bool:
        return (
            self.config.acquisition == "wei"
            and self.config.pending_strategy == "penalize"
        )

    # -- the four operations -------------------------------------------------------

    def propose(
        self, x_unit: np.ndarray, result: OptimizationResult, pending_units=()
    ) -> np.ndarray:
        """One proposal conditioned on ``pending_units`` (the in-flight set).

        The refit policy follows the scheduler config: ``"full"`` fits
        fresh surrogates after every landing, ``"fantasy-only"`` reuses
        the posterior-absorbed models with warm full refits every
        ``async_full_refit_every`` landings.  With nothing pending and
        stale models this is the original single-point loop body.
        """
        pending_units = [np.asarray(u, dtype=float) for u in pending_units]
        if self.fitted is None or self.needs_refit:
            self._refit(x_unit, result)
        fitted = self.fitted
        if self._penalizes:
            acquisition = self._acquisition(fitted, result)
            if pending_units:
                acquisition = self._penalized(fitted, acquisition, pending_units)
        else:
            self._condition_on_pending(pending_units)
            acquisition = self._acquisition(fitted, result)
        self._point_space_at_incumbent(x_unit, result)
        pick = self.maximizer.maximize(acquisition, self.problem.dim, self.rng)
        known = np.vstack([x_unit, *[u[None, :] for u in pending_units]])
        return self._deduplicate(pick, known)

    def propose_batch(
        self, x_unit: np.ndarray, result: OptimizationResult, q: int
    ) -> list[np.ndarray]:
        """Greedy q-point proposal from one fresh fit.

        On the wEI path the pending strategy decides how batch-mates shape
        pick ``j+1``: ``"fantasy"`` and ``"hallucinate"`` condition the
        models on each pick (bank: posterior-only ``fantasize``;
        per-target models: :class:`FantasyModelSet` — hallucination always
        lies the believer mean), while ``"penalize"`` leaves the posterior
        clean and wraps the stage acquisition with local penalties around
        the picks so far.  The Thompson path draws q independent posterior
        functions.  Every pick also passes the duplicate filter against
        both the evaluated data and its own batch-mates.  The batch fit is
        not kept: streaming proposals never reuse it.
        """
        fitted = self._fit(x_unit, result)
        if self._penalizes:
            base = self._acquisition(fitted, result)

            def stage_acquisition(j: int, picks: list[np.ndarray]):
                if not picks:
                    return base
                return self._penalized(fitted, base, picks)

        else:
            wei = self.config.acquisition == "wei"
            fantasy_set = (
                fitted.fantasy_set() if wei and fitted.bank is None else None
            )

            def stage_acquisition(j: int, picks: list[np.ndarray]):
                if j > 0 and wei:
                    self._apply_fantasy(fitted, fantasy_set, picks[-1])
                return self._acquisition(fitted, result)

        def deduplicate(pick: np.ndarray, picks: list[np.ndarray]):
            known = np.vstack([x_unit, *[p[None, :] for p in picks]])
            return self._deduplicate(pick, known)

        self._point_space_at_incumbent(x_unit, result)
        return self.maximizer.maximize_batch(
            stage_acquisition,
            q,
            self.problem.dim,
            self.rng,
            postprocess=deduplicate,
        )

    def absorb(self, u: np.ndarray, evaluation: Evaluation) -> None:
        """Take one landed search evaluation in, per the refit policy."""
        self.landings_since_fit += 1
        if (
            self.async_refit == "full"
            or self.fitted is None
            or self.landings_since_fit >= self.full_refit_every
        ):
            self.needs_refit = True
            return
        # "fantasy-only" implies a bank (check_setup enforces it)
        fitted = self.fitted
        # observe() rebuilds the posterior; the intermediate fantasy-free
        # rebuild would be wasted work on the landing hot path
        fitted.bank.clear_fantasies(update=False)
        u = np.asarray(u, dtype=float)
        obj = _sanitize_new_target(evaluation.objective, fitted.objective_y)
        cons = [
            _sanitize_new_target(c, ys)
            for c, ys in zip(evaluation.constraints, fitted.constraint_ys)
        ]
        fitted.bank.observe(u, np.array([obj, *cons]))
        # the absorb moved the posterior-mean surface: a cached Lipschitz
        # estimate would mis-scale the penalization exclusion balls until
        # the next full refit, so force a fresh sweep on the next use
        fitted.lipschitz = None
        # keep the training-data view consistent for future lies/refits
        fitted.x = np.vstack([fitted.x, u[None, :]])
        fitted.objective_y = np.append(fitted.objective_y, obj)
        fitted.constraint_ys = [
            np.append(ys, c) for ys, c in zip(fitted.constraint_ys, cons)
        ]

    def state_to_dict(self) -> dict:
        """The checkpoint entries this proposer owns.

        ``landings_since_fit`` always; ``proposal_space`` when a subspace
        is active (trust-region length and streaks are live state).  ``needs_refit`` and
        ``warm_surrogate`` whenever the fitted bank is live state: always
        under ``"fantasy-only"`` (absorbs and warm refits read it) and,
        under ``"full"``, while the current fit is still reusable — after
        an ask, before the next landing, the uninterrupted run would serve
        the next proposal from it without touching the RNG.  Fantasies
        are rebuilt per proposal and deliberately dropped.
        """
        from repro.utils import serialization

        payload = {"landings_since_fit": self.landings_since_fit}
        if self.space is not None:
            payload["proposal_space"] = {
                "name": self.space.name,
                "state": self.space.state_to_dict(),
            }
        fitted = self.fitted
        if (
            fitted is not None
            and fitted.bank is not None
            and (self.async_refit == "fantasy-only" or not self.needs_refit)
        ):
            payload["needs_refit"] = bool(self.needs_refit)
            payload["warm_surrogate"] = {
                "bank": serialization.bank_state_to_dict(fitted.bank),
                "objective_y": np.asarray(fitted.objective_y, dtype=float).tolist(),
                "constraint_ys": [
                    np.asarray(ys, dtype=float).tolist()
                    for ys in fitted.constraint_ys
                ],
                "lipschitz": (
                    None if fitted.lipschitz is None else float(fitted.lipschitz)
                ),
            }
        return payload

    def restore_state(self, payload: dict) -> None:
        """Load what :meth:`state_to_dict` wrote.

        The caller has already checked that the checkpoint's proposal
        space matches this proposer's.  The warm bank is rebuilt under a
        throwaway RNG — the study's stream must stay exactly where the
        checkpoint left it — and overwritten with the serialized state.
        Per-target factories carry no warm state: the first proposal
        after the resume refits.
        """
        from repro.utils import serialization

        saved_space = payload.get("proposal_space")
        if saved_space is not None:
            self.space.restore_state(saved_space["state"])
        self.landings_since_fit = int(payload["landings_since_fit"])
        warm = payload.get("warm_surrogate")
        if warm is None or self.surrogate_bank_factory is None:
            self.needs_refit = True
            return
        bank = self.surrogate_bank_factory(
            np.random.default_rng(0), 1 + self.problem.n_constraints
        )
        serialization.restore_bank_state(bank, warm["bank"])
        self.fitted = _IterationModels(
            np.asarray(bank.gp._x_train, dtype=float),
            np.asarray(warm["objective_y"], dtype=float),
            [np.asarray(ys, dtype=float) for ys in warm["constraint_ys"]],
            bank=bank,
            lipschitz=warm.get("lipschitz"),
        )
        self.needs_refit = bool(payload.get("needs_refit", True))

    # -- fitting -------------------------------------------------------------------

    def _fit(
        self, x_unit: np.ndarray, result: OptimizationResult, warm_bank=None
    ) -> _IterationModels:
        """Fit the objective and every constraint on the committed history.

        With a bank the targets are fitted in ONE batched call —
        ``warm_bank`` re-fits a live bank, so training warm-starts from
        its learned weights; the per-target path calls the factory
        ``n_constraints + 1`` times.
        """
        objective = _sanitize_targets(result.objectives)
        constraints = result.constraint_matrix
        constraint_ys = [
            _sanitize_targets(constraints[:, i])
            for i in range(self.problem.n_constraints)
        ]
        targets = [objective, *constraint_ys]
        bank = warm_bank
        if warm_bank is not None:
            warm_bank.clear_fantasies(update=False)  # fit rebuilds anyway
        elif self.surrogate_bank_factory is not None:
            bank = self.surrogate_bank_factory(self.rng, len(targets))
        models = []
        if bank is not None:
            bank.fit(x_unit, np.vstack(targets))
        else:
            for y in targets:
                model = self.surrogate_factory(self.rng)
                model.fit(x_unit, y)
                models.append(model)
        return _IterationModels(
            x_unit, objective, constraint_ys, bank=bank, models=models
        )

    def _refit(self, x_unit: np.ndarray, result: OptimizationResult) -> None:
        """Rebuild the streaming models (warm-starting the bank when allowed)."""
        warm_bank = (
            self.fitted.bank
            if self.async_refit == "fantasy-only" and self.fitted is not None
            else None
        )
        self.fitted = self._fit(x_unit, result, warm_bank)
        self._fantasy_set = None
        self._n_fantasied = 0
        self.landings_since_fit = 0
        self.needs_refit = False

    # -- acquisition ---------------------------------------------------------------

    def _acquisition(self, fitted: _IterationModels, result: OptimizationResult):
        """One acquisition callable over the current posterior.

        The ``"hallucinate"`` pending strategy swaps wEI for the
        optimistic-improvement bound (GP-BUCB criterion) — the hallucinated
        believer updates between picks then act through the variance term.
        """
        if self.config.acquisition == "thompson":
            if fitted.bank is not None:
                from repro.acquisition.thompson import BankThompsonAcquisition

                return BankThompsonAcquisition(fitted.bank, rng=self.rng)
            from repro.acquisition.thompson import ThompsonSamplingAcquisition

            return ThompsonSamplingAcquisition(
                fitted.objective, fitted.constraints, rng=self.rng
            )
        tau = result.best_objective()
        tau = None if not np.isfinite(tau) else tau
        if self.config.pending_strategy == "hallucinate":
            # a "beta-t" schedule re-resolves per proposal: t is the
            # committed-evaluation count, so kappa grows ~ sqrt(log t)
            kappa = self.config.resolve_hallucinate_kappa(
                self.problem.dim, result.n_evaluations
            )
            return HallucinatedUCB(
                fitted.objective,
                fitted.constraints,
                tau=tau,
                kappa=kappa,
                log_space=self.log_space,
            )
        return WeightedExpectedImprovement(
            fitted.objective,
            fitted.constraints,
            tau=tau,
            log_space=self.log_space,
        )

    def _penalized(self, fitted: _IterationModels, base, pending_units):
        """Wrap ``base`` with local penalties around the pending designs.

        The penalizer incumbent is the best *observed objective* over the
        fitted (sanitized) targets — feasibility ignored — exactly
        Gonzalez et al.'s ``M``: the exclusion-ball argument concerns the
        objective surface the surrogate models over the whole box, not
        the constrained incumbent ``tau``.  Substituting the
        best-feasible value was tried and measurably hurts when
        infeasible low-objective valleys exist (it shrinks every radius
        and the concurrent picks cluster; Gardner-problem regret in
        ``benchmarks/bench_pending_strategies.py`` degrades ~0.17).
        """
        pending = np.atleast_2d(np.asarray(pending_units, dtype=float))
        means, variances = fitted.objective.predict(pending)
        finite = fitted.objective_y[np.isfinite(fitted.objective_y)]
        best = float(np.min(finite)) if finite.size else float("nan")
        if fitted.lipschitz is None:
            fitted.lipschitz = (
                fitted.bank.estimate_target_lipschitz(0)
                if fitted.bank is not None
                else estimate_lipschitz(fitted.objective, self.problem.dim)
            )
        penalizer = LocalPenalizer(
            pending, means, variances, best=best, lipschitz=fitted.lipschitz
        )
        return PenalizedAcquisition(base, penalizer, log_space=self.log_space)

    def _condition_on_pending(self, pending_units) -> None:
        """Fantasy-condition the streaming models on the in-flight designs.

        Serves both conditioning strategies: ``"fantasy"`` applies the
        configured lie, ``"hallucinate"`` the believer mean; ``"penalize"``
        never calls this — its posterior stays clean.  Bank path: the
        fantasy stack is rebuilt from scratch each proposal (posterior-only
        updates are cheap), so it always mirrors the exact pending set even
        after landings removed members.  Per-target models mutate in place
        and only support a growing pending set — guaranteed because that
        path always runs ``async_refit="full"``, which refits after every
        landing.
        """
        fitted = self.fitted
        if self.config.acquisition != "wei":
            # Thompson diversifies by posterior sampling, not by lies
            return
        if fitted.bank is not None:
            # with pending lies about to be re-applied, the intermediate
            # fantasy-free posterior would never be read — skip its rebuild
            fitted.bank.clear_fantasies(update=not pending_units)
            for u in pending_units:
                self._apply_fantasy(fitted, None, u)
            return
        if not pending_units:
            return
        if self._fantasy_set is None:
            self._fantasy_set = fitted.fantasy_set()
        for u in pending_units[self._n_fantasied:]:
            self._apply_fantasy(fitted, self._fantasy_set, u)
        self._n_fantasied = len(pending_units)

    def _apply_fantasy(self, fitted: _IterationModels, fantasy_set, pending):
        """Condition the models on one pending pick.

        Under ``pending_strategy="hallucinate"`` the lie is always the
        believer (posterior-mean) value — by definition a hallucinated
        observation leaves the mean surface untouched and only collapses
        variance at the pending point.
        """
        strategy = (
            "believer"
            if self.config.pending_strategy == "hallucinate"
            else self.config.fantasy
        )
        obj_lie, cons_lies = fantasy_lies(
            fitted.objective, fitted.constraints, pending,
            fitted.objective_y, strategy,
        )
        if fitted.bank is not None:
            fitted.bank.fantasize(pending, np.array([obj_lie, *cons_lies]))
        else:
            fantasy_set.add_fantasy(pending, obj_lie, cons_lies)

    # -- maximization ----------------------------------------------------------------

    def _point_space_at_incumbent(
        self, x_unit: np.ndarray, result: OptimizationResult
    ) -> None:
        """Centre the active proposal subspace on the current incumbent.

        A no-op on the full box.  ``x_unit`` rows parallel
        ``result.records`` (both append per committed evaluation), so the
        incumbent record's index addresses its unit design directly.
        """
        if self.space is None:
            return
        idx = incumbent_index(result)
        self.maximizer.set_incumbent(
            None if idx is None or idx >= len(x_unit) else x_unit[idx]
        )

    def _is_duplicate(self, proposal: np.ndarray, known: np.ndarray) -> bool:
        dists = np.max(np.abs(known - proposal[None, :]), axis=1)
        return bool(np.any(dists < self.config.duplicate_tol))

    def _deduplicate(self, pick: np.ndarray, known: np.ndarray) -> np.ndarray:
        """``pick``, or a random non-duplicate replacement for it.

        A pick within ``duplicate_tol`` of a known design would waste a
        simulation on a known point.  A single uniform redraw can land on
        one too (likely with a coarse tolerance or a near-exhausted
        discrete region), so redraw a bounded number of times and keep
        the final draw regardless — counted, so the fallback is never
        silent (``Study.describe()["metrics"]``).
        """
        if not self._is_duplicate(pick, known):
            return pick
        self.n_duplicate_resamples += 1
        for _ in range(self._MAX_RESAMPLE_TRIES):
            pick = self.rng.uniform(0.0, 1.0, size=self.problem.dim)
            if not self._is_duplicate(pick, known):
                return pick
        self.n_duplicate_fallbacks += 1
        return pick


def _sanitize_targets(y: np.ndarray) -> np.ndarray:
    """Make simulation outputs digestible for surrogate fitting.

    Two pathologies appear in circuit data: non-finite values from failed
    simulations (mapped to "much worse than anything seen", preserving the
    ranking) and extreme finite outliers from degenerate designs (a broken
    bias point can measure orders of magnitude off), which wreck target
    normalization.  Outliers are winsorized at ``median +- 10 IQR`` — far
    beyond any informative variation, so ordinary targets pass unchanged.
    """
    y = np.asarray(y, dtype=float).copy()
    bad = ~np.isfinite(y)
    if np.any(bad):
        good = y[~bad]
        if good.size == 0:
            y[...] = 0.0
            return y
        span = float(np.ptp(good))
        worst = float(np.max(good))
        y[bad] = worst + max(span, 1.0)
    q25, q50, q75 = np.percentile(y, [25.0, 50.0, 75.0])
    iqr = q75 - q25
    if iqr > 0.0:
        y = np.clip(y, q50 - 10.0 * iqr, q50 + 10.0 * iqr)
    return y


def _sanitize_new_target(value: float, existing: np.ndarray) -> float:
    """:func:`_sanitize_targets` for a single late-arriving value.

    The ``"fantasy-only"`` policy absorbs landings one at a time; the
    same two pathologies apply (non-finite failed simulations, degenerate
    outliers), judged against the already-sanitized committed targets.
    The periodic full refit re-sanitizes the whole vector, so any drift
    between the incremental and the batch clipping is bounded by one
    refit period.
    """
    existing = np.asarray(existing, dtype=float)
    value = float(value)
    if not np.isfinite(value):
        if existing.size == 0:
            return 0.0
        span = float(np.ptp(existing))
        return float(np.max(existing)) + max(span, 1.0)
    if existing.size:
        q25, q50, q75 = np.percentile(existing, [25.0, 50.0, 75.0])
        iqr = q75 - q25
        if iqr > 0.0:
            value = float(np.clip(value, q50 - 10.0 * iqr, q50 + 10.0 * iqr))
    return value
