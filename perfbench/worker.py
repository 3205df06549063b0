"""One benchmark episode (or set-up probe) in a fresh process.

Usage::

    python perfbench/worker.py --workload NAME --seed N --episode E \
        --trace 0|1 --t0 EPOCH --out FILE [--scale full|tiny] [--probe]

``--t0`` is the parent's ``time.time()`` just before it started this
process, so ``setup_s`` covers interpreter start, imports, problem build,
server start and study creation — up to the moment the first ask is
ready.  ``--probe`` stops there.  Otherwise every study runs to its
budget and the result — timings, what the callers saw, and with
``--trace 1`` the span summary — is written to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import fingerprint, trace, workloads  # noqa: E402


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--episode", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    recorder = None
    if args.trace:
        recorder = trace.SpanRecorder(f"{args.workload}-{args.seed}-{args.episode}")
        trace.install(recorder)
    size = workloads.SIZES[args.workload][args.scale]
    cls = workloads.WORKLOADS[args.workload]
    seeds = workloads.study_seeds(args.workload, args.seed, args.episode, cls.n_studies)
    if cls is workloads.OpampService:
        workdir = os.path.splitext(args.out)[0]
        os.makedirs(workdir, exist_ok=True)
        workload = cls(size, seeds, workdir=workdir,
                       run_id=recorder.run_id if recorder else None)
    else:
        workload = cls(size, seeds)
    setup_s = time.time() - args.t0
    out = {"setup_s": setup_s, "fingerprint": fingerprint.collect()}
    if args.probe:
        workload.close()
        _write(args.out, out)
        return 0

    start = time.perf_counter()
    try:
        workload.run()
        run_s = time.perf_counter() - start
    finally:
        workload.close()
    logs = workload.logs()
    peak_rss = _peak_rss_mib()
    if isinstance(workload, workloads.OpampService):
        peak_rss = workload.server_result.get("peak_rss_mib", 0.0)
    out.update({
        "run_s": run_s,
        "search_ask_ms": [ms for log in logs for ms in log.search_ask_ms],
        "all_ask_ms": [ms for log in logs for ms in log.all_ask_ms],
        "search_tell_ms": [ms for log in logs for ms in log.search_tell_ms],
        "all_tell_ms": [ms for log in logs for ms in log.all_tell_ms],
        "peak_rss_mib": peak_rss,
        "attempted": sum(log.ask_calls + log.tell_calls for log in logs),
        "failed": sum(len(log.failures) for log in logs),
        "failures": [f for log in logs for f in log.failures],
        "quality": [workloads.quality(records) for records in workload.records()],
        "studies": workload.studies(),
        "pool_workers": workload.pool_workers,
        "cache_hits": workload.cache_hits(),
    })
    if recorder is not None:
        recorder.dump(os.path.splitext(args.out)[0] + ".spans.json")
        summaries = [trace.span_summary(recorder.spans)]
        server = getattr(workload, "server_result", {}).get("summary")
        if server:
            summaries.append(server)
        out["service_errors"] = out["failed"] if cls is workloads.OpampService else 0
        out["layers"] = trace.layer_metrics(trace.merge_summaries(*summaries), out)
    _write(args.out, out)
    return 0


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main())
