"""The three benchmark workloads, driven through the public API only.

Each workload is a closed loop: every caller waits for a reply before it
sends its next request.  One *episode* runs every study of a workload to
its full budget in a fresh process; :mod:`perfbench.worker` times it and
:mod:`perfbench.checks` checks what the callers saw.

* ``opamp_serial`` — Table I shape: the two-stage op-amp (d=10, two
  constraints), the paper's default surrogate, one thread asking,
  simulating and telling.  Fitting does most of the work.
* ``opamp_service`` — the same problem behind ``python -m repro.service``
  in its own process; two client threads each drive one study over HTTP
  with a small surrogate and ``async_refit="fantasy-only"``.  The store
  checkpoints after every ask and tell, so persistence, absorb and the
  wire do work here that ``opamp_serial`` never does.
* ``chargepump_async`` — Table II shape: the charge pump (d=36, five
  constraints) through ``NNBO.run()`` on two async-thread evaluation
  workers with a ``FakeClock``.  Simulation and 36-dimensional
  acquisition do most of the work, contending for the GIL.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

#: per workload: episode shape at full scale, then at the tiny scale the
#: self-tests use.  ``episode_s`` is the nominal length of one episode on
#: the reference host (README); a run measures ``round(seconds /
#: episode_s)`` episodes, at least one.
_TINY_SURROGATE = {"n_ensemble": 2, "hidden_dims": [8, 8], "n_features": 8, "epochs": 10}
SIZES = {
    "opamp_serial": {
        "full": {"n_initial": 30, "budget": 36, "episode_s": 12.5, "surrogate": {}},
        "tiny": {"n_initial": 6, "budget": 8, "episode_s": 2.0,
                 "surrogate": _TINY_SURROGATE},
    },
    "opamp_service": {
        "full": {"n_initial": 10, "budget": 20, "episode_s": 10.0,
                 "surrogate": {"n_ensemble": 3, "hidden_dims": [24, 24],
                               "n_features": 24, "epochs": 60}},
        "tiny": {"n_initial": 4, "budget": 7, "episode_s": 2.0,
                 "surrogate": _TINY_SURROGATE},
    },
    "chargepump_async": {
        "full": {"n_initial": 10, "budget": 34, "episode_s": 30.0,
                 "surrogate": {"n_ensemble": 3, "hidden_dims": [32, 32],
                               "n_features": 32, "epochs": 100}},
        "tiny": {"n_initial": 4, "budget": 7, "episode_s": 2.0,
                 "surrogate": _TINY_SURROGATE},
    },
}

N_SERVICE_CLIENTS = 2
N_EVAL_WORKERS = 2
SERVICE_SCHEDULER = {"async_refit": "fantasy-only", "async_full_refit_every": 10}


def study_seeds(workload: str, seed: int, episode: int, count: int) -> list[int]:
    """The study seeds of one episode: a pure function of the run seed."""
    rng = random.Random(f"{workload}/{seed}/{episode}")
    return [rng.randrange(2**31) for _ in range(count)]


@dataclass
class CallerLog:
    """Everything the caller of one study saw: latencies and check data."""

    budget: int
    asked_ids: list = field(default_factory=list)
    told: list = field(default_factory=list)  # [trial id, proposal id]
    records: list = field(default_factory=list)
    ask_calls: int = 0
    tell_calls: int = 0
    failures: list = field(default_factory=list)
    search_ask_ms: list = field(default_factory=list)
    all_ask_ms: list = field(default_factory=list)
    search_tell_ms: list = field(default_factory=list)
    all_tell_ms: list = field(default_factory=list)

    def ask(self, fn, *args, **kwargs):
        self.ask_calls += 1
        start = time.perf_counter()
        trials = fn(*args, **kwargs)
        ms = 1e3 * (time.perf_counter() - start)
        self.all_ask_ms.append(ms)
        if any(t.phase == "search" for t in trials):
            self.search_ask_ms.append(ms)
        self.asked_ids.extend(int(t.id) for t in trials)
        return trials

    def tell(self, fn, trial, evaluation):
        self.tell_calls += 1
        start = time.perf_counter()
        record = fn(trial, evaluation)
        ms = 1e3 * (time.perf_counter() - start)
        self.all_tell_ms.append(ms)
        if trial.phase == "search":
            self.search_tell_ms.append(ms)
        pid = trial.proposal_id
        self.told.append([int(trial.id), None if pid is None else int(pid)])
        self.records.append(record)
        return record

    def check_data(self) -> dict:
        return {
            "budget": self.budget,
            "asked_ids": self.asked_ids,
            "told": self.told,
            "ask_calls": self.ask_calls,
            "tell_calls": self.tell_calls,
            "asks_returned": len(self.all_ask_ms),
            "failures": len(self.failures),
        }


def closed_loop(log: CallerLog, ask, tell, problem) -> None:
    """ask(1) -> simulate -> tell until the budget is committed.

    A failed call is counted and ends this caller's loop: the short
    budget then fails the run's checks.
    """
    while len(log.told) < log.budget:
        try:
            trial = log.ask(ask, 1)[0]
            evaluation = problem.evaluate_unit(trial.u)
            log.tell(tell, trial, evaluation)
        except Exception as exc:  # counted as a program failure
            log.failures.append(f"{type(exc).__name__}: {exc}")
            return


def record_row(record) -> list:
    """A committed record as plain JSON data (NaN-safe via repr)."""
    ev = record.evaluation
    return [
        int(record.index),
        [repr(float(v)) for v in record.x],
        repr(float(ev.objective)),
        [repr(float(c)) for c in ev.constraints],
        str(record.phase),
        None if record.iteration is None else int(record.iteration),
    ]


def quality(records) -> dict:
    """Best feasible objective (None if nothing is feasible) and min violation."""
    feasible = [
        r.evaluation.objective for r in records
        if r.evaluation.feasible and math.isfinite(r.evaluation.objective)
    ]
    violations = [
        r.evaluation.violation for r in records if math.isfinite(r.evaluation.violation)
    ]
    return {
        "best_objective": min(feasible) if feasible else None,
        "min_violation": min(violations) if violations else None,
    }


# -- opamp_serial ---------------------------------------------------------------


class OpampSerial:
    name = "opamp_serial"
    n_studies = 1
    pool_workers = 0

    def __init__(self, size: dict, seeds: list[int]):
        from repro.api import SchedulerConfig, Study, SurrogateConfig, TwoStageOpAmpProblem

        self.problem = TwoStageOpAmpProblem()
        self.study = Study(
            self.problem,
            surrogate=SurrogateConfig(**size["surrogate"]),
            scheduler=SchedulerConfig(async_refit="full"),
            n_initial=size["n_initial"],
            max_evaluations=size["budget"],
            seed=seeds[0],
        )
        self.log = CallerLog(size["budget"])

    def run(self) -> None:
        closed_loop(self.log, self.study.ask, self.study.tell, self.problem)

    def close(self) -> None:
        pass

    def studies(self) -> list[dict]:
        data = self.log.check_data()
        data["committed"] = self.study.n_evaluations
        data["ledger_order"] = list(self.study.ledger.completion_order)
        return [data]

    def logs(self) -> list[CallerLog]:
        return [self.log]

    def records(self) -> list:
        return [self.study.result.records]

    def cache_hits(self) -> int:
        return self.problem.cache_stats[0]


# -- opamp_service ----------------------------------------------------------------


class OpampService:
    name = "opamp_service"
    n_studies = N_SERVICE_CLIENTS
    pool_workers = 0

    def __init__(self, size: dict, seeds: list[int], *, workdir: str,
                 run_id: str | None):
        self.size = size
        self.root = os.path.join(workdir, "store")
        self.server_out = os.path.join(workdir, "server.json")
        launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve.py")
        traced = ["--run-id", run_id] if run_id else []
        self.server = subprocess.Popen(
            [sys.executable, launcher, *traced,
             "--out", self.server_out, "--", "--root", self.root, "--port", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        self.clients, self.problems, self.logs_ = [], [], []
        self.server_result: dict = {}
        try:
            self._create_studies(seeds)
        except BaseException:
            self.close()
            raise

    def _create_studies(self, seeds: list[int]) -> None:
        from repro.api import StudyClient, TwoStageOpAmpProblem

        line = self.server.stdout.readline()
        if not line:
            raise RuntimeError("the service exited before printing its address")
        bound = json.loads(line)
        self.address = (bound["host"], bound["port"])
        size = self.size
        for i, seed in enumerate(seeds):
            self.clients.append(StudyClient.create(
                self.address, f"bench-{i}",
                problem="two_stage_opamp",
                n_initial=size["n_initial"],
                max_evaluations=size["budget"],
                seed=seed,
                surrogate=size["surrogate"],
                scheduler=SERVICE_SCHEDULER,
            ))
            self.problems.append(TwoStageOpAmpProblem())
            self.logs_.append(CallerLog(size["budget"]))

    def run(self) -> None:
        threads = [
            threading.Thread(target=closed_loop, args=(log, c.ask, c.tell, p))
            for log, c, p in zip(self.logs_, self.clients, self.problems)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.committed = [int(c.describe()["n_evaluations"]) for c in self.clients]

    def close(self) -> None:
        """Stop the server (SIGINT) and read what it wrote on its way out."""
        for client in self.clients:
            client.close()
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGINT)
        try:
            self.server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()
        if os.path.exists(self.server_out):
            with open(self.server_out) as fh:
                self.server_result = json.load(fh)

    def studies(self) -> list[dict]:
        from repro.api import AcquisitionConfig, SchedulerConfig, Study, SurrogateConfig

        out = []
        for i, (log, problem) in enumerate(zip(self.logs_, self.problems)):
            data = log.check_data()
            data["committed"] = self.committed[i]
            data["client_history"] = [record_row(r) for r in log.records]
            resumed = Study.resume(
                os.path.join(self.root, f"bench-{i}.study.json"),
                problem,
                surrogate=SurrogateConfig(**self.size["surrogate"]),
                acquisition=AcquisitionConfig(),
                scheduler=SchedulerConfig(**SERVICE_SCHEDULER),
            )
            data["resumed_history"] = [record_row(r) for r in resumed.result.records]
            data["ledger_order"] = list(resumed.ledger.completion_order)
            out.append(data)
        return out

    def logs(self) -> list[CallerLog]:
        return self.logs_

    def records(self) -> list:
        return [log.records for log in self.logs_]

    def cache_hits(self) -> int:
        return sum(p.cache_stats[0] for p in self.problems)


# -- chargepump_async -------------------------------------------------------------


class ChargepumpAsync:
    name = "chargepump_async"
    n_studies = 1
    pool_workers = N_EVAL_WORKERS

    def __init__(self, size: dict, seeds: list[int]):
        from repro.api import (
            NNBO, ChargePumpProblem, FakeClock, SchedulerConfig, Study, SurrogateConfig,
        )

        self.problem = ChargePumpProblem()
        self.clock = FakeClock()
        self.bo = NNBO(
            self.problem,
            n_initial=size["n_initial"],
            max_evaluations=size["budget"],
            surrogate=SurrogateConfig(**size["surrogate"]),
            scheduler_config=SchedulerConfig(
                executor="async-thread",
                n_eval_workers=N_EVAL_WORKERS,
                async_refit="fantasy-only",
                async_full_refit_every=4,
                clock=self.clock,
            ),
            seed=seeds[0],
        )
        self.log = CallerLog(size["budget"])
        # the scheduler is the caller here: time its ask/tell calls
        self._ask, self._tell = Study.ask, Study.tell
        log = self.log

        def ask(study, n=1, **kwargs):
            return log.ask(lambda: self._ask(study, n, **kwargs))

        def tell(study, trial, evaluation):
            return log.tell(lambda t, e: self._tell(study, t, e), trial, evaluation)

        Study.ask, Study.tell = ask, tell

    def run(self) -> None:
        try:
            self.result = self.bo.run()
        except Exception as exc:  # counted as a program failure
            self.log.failures.append(f"{type(exc).__name__}: {exc}")
            self.result = None

    def close(self) -> None:
        from repro.api import Study

        Study.ask, Study.tell = self._ask, self._tell

    def studies(self) -> list[dict]:
        data = self.log.check_data()
        result = self.result
        data["committed"] = -1 if result is None else result.n_evaluations
        entries = [] if result is None else result.ledger.entries
        data["ledger_order"] = [] if result is None else list(result.ledger.completion_order)
        data["fake_clock"] = [
            [e.n_landed_at_submit, e.virtual_ready, e.committed_at,
             self.clock.duration(e.u)]
            for e in entries
        ]
        return [data]

    def logs(self) -> list[CallerLog]:
        return [self.log]

    def records(self) -> list:
        return [[] if self.result is None else self.result.records]

    def cache_hits(self) -> int:
        return self.problem.cache_stats[0]


WORKLOADS = {cls.name: cls for cls in (OpampSerial, OpampService, ChargepumpAsync)}
