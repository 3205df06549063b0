"""Start ``python -m repro.service`` with the benchmark's instrumentation.

Usage: ``python perfbench/serve.py [--run-id ID] --out FILE -- <service args>``

With ``--run-id`` the layer wrappers of :mod:`perfbench.trace` are
installed in this (the server) process before
``repro.service.__main__.main`` runs.  SIGINT or SIGTERM stops the server;
on the way out it writes ``{"peak_rss_mib", "summary"}`` to ``--out``
(``summary`` being the span summary when traced) and dumps its raw spans,
under that run id, next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import trace  # noqa: E402


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--run-id", help="trace under this workload run id")
    parser.add_argument("--out", required=True)
    parser.add_argument("service_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    service_args = args.service_args
    if service_args[:1] == ["--"]:
        service_args = service_args[1:]
    recorder = None
    if args.run_id:
        recorder = trace.SpanRecorder(args.run_id)
        trace.install(recorder)
    from repro.service.__main__ import main as service_main

    signal.signal(signal.SIGTERM, _interrupt)
    code = service_main(service_args)
    out = {
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "summary": None,
    }
    if recorder is not None:
        recorder.dump(args.out + ".spans.json")
        out["summary"] = trace.span_summary(recorder.spans)
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
