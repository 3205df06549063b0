"""Output checks run on every episode, traced or not.

Each check takes one study's check data (what its caller saw, plus what
the program reported afterwards) and returns a list of problems; an
empty list passes.  They read plain JSON data, so the self-tests can
corrupt a trace and watch the check reject it.
"""

from __future__ import annotations


def budget(study: dict) -> list[str]:
    """The study committed exactly its budget, one tell per commit."""
    problems = []
    if study["committed"] != study["budget"]:
        problems.append(
            f"committed {study['committed']} evaluations, budget {study['budget']}"
        )
    if len(study["told"]) != study["budget"]:
        problems.append(f"{len(study['told'])} tells for a budget of {study['budget']}")
    return problems


def unique_ids(study: dict) -> list[str]:
    """No trial id was handed out twice."""
    ids = study["asked_ids"]
    dupes = sorted({i for i in ids if ids.count(i) > 1})
    return [f"trial ids asked more than once: {dupes}"] if dupes else []


def ledger_order(study: dict) -> list[str]:
    """The ledger's commit order is the order the caller told results."""
    told = [pid for _, pid in study["told"] if pid is not None]
    if study["ledger_order"] != told:
        return [
            f"ledger commit order {study['ledger_order']} != tell order {told}"
        ]
    return []


def attempts_counted(study: dict) -> list[str]:
    """Every ask and tell attempted is either returned or counted as failed.

    ``error_rate`` is failures over attempts, so an attempt that neither
    returned nor was counted would hide an error.
    """
    attempted = study["ask_calls"] + study["tell_calls"]
    accounted = study["asks_returned"] + len(study["told"]) + study["failures"]
    if attempted != accounted:
        return [
            f"{attempted} calls attempted but {study['asks_returned']} asks "
            f"returned, {len(study['told'])} tells returned and "
            f"{study['failures']} failed"
        ]
    return []


def resumed_history(study: dict) -> list[str]:
    """The store's final checkpoint resumes to the history the clients saw."""
    if "resumed_history" not in study:
        return []
    if study["resumed_history"] != study["client_history"]:
        return [
            f"resumed history ({len(study['resumed_history'])} records) differs "
            f"from the {len(study['client_history'])} records the client saw"
        ]
    return []


def fake_clock_order(study: dict) -> list[str]:
    """Search commits follow the FakeClock's virtual ready times.

    Each ledger row is ``[n_landed_at_submit, virtual_ready, committed_at,
    duration]``.  A proposal's ready time is the clock's "now" when it was
    asked (the latest ready time among the commits before it) plus its
    virtual duration, and each commit is the earliest-ready proposal in
    flight at that moment.
    """
    if "fake_clock" not in study:
        return []
    rows = study["fake_clock"]
    problems = []
    by_commit = {row[2]: row for row in rows if row[2] is not None}
    for row in rows:
        landed, ready, _, duration = row
        now = max([0.0] + [by_commit[k][1] for k in range(1, landed + 1)])
        if ready != now + duration:
            problems.append(f"ready time {ready} != now {now} + duration {duration}")
    for k in sorted(by_commit):
        in_flight = [r for r in rows if r[0] < k and (r[2] is None or r[2] >= k)]
        earliest = min(r[1] for r in in_flight)
        if by_commit[k][1] > earliest:
            problems.append(
                f"commit {k} had ready time {by_commit[k][1]}, "
                f"but {earliest} was in flight"
            )
    return problems


CHECKS = {
    "budget": budget,
    "unique_ids": unique_ids,
    "ledger_order": ledger_order,
    "attempts_counted": attempts_counted,
    "resumed_history": resumed_history,
    "fake_clock_order": fake_clock_order,
}


def run_all(studies: list[dict]) -> list[str]:
    """Every check on every study; returns the problems found."""
    return [
        f"study {i}: {name}: {problem}"
        for i, study in enumerate(studies)
        for name, check in CHECKS.items()
        for problem in check(study)
    ]
