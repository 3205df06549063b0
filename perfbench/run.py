"""The repository benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload opamp_serial --seed 1 --seconds 40 --trace 0

Every episode and set-up probe runs in a fresh worker process
(:mod:`perfbench.worker`) started without ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS``, so the benchmark measures the
BLAS default users get.  The run measures ``round(seconds / episode_s)``
episodes (at least one) plus enough set-up probes for three ``setup_s``
samples, checks every episode's outputs (:mod:`perfbench.checks`), prints
a report line with every metric, the tail percentiles, the output checks
and the host fingerprint, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs episode
0 untraced and then traced on the same seed, and reports the traced
episode's per-layer metrics and ``trace.overhead_s``, the traced minus
the untraced ``run_s``.  Raw spans land in
``perfbench/out/<workload>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

#: every run reports at least this many set-up samples (probes fill up)
MIN_SETUP_SAMPLES = 3
#: a run must end well inside the 180 s a run may take
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "ask_p50_ms": "ms",
    "ask_tail_ms": "ms",
    "tell_p50_ms": "ms",
    "tell_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}


def tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile with >= 10 samples beyond.

    With ``n`` samples that is the 11th largest, at percentile
    ``100 * (n - 10) / n``; below 11 samples it falls back to the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, episode: int, trace: int, probe: bool, env: dict,
               outdir: str, deadline: float) -> dict:
    tag = f"probe{episode}" if probe else f"ep{episode}-trace{trace}"
    out = os.path.join(outdir, f"{tag}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--episode", str(episode), "--trace", str(trace),
        "--out", out, "--scale", args.scale,
    ]
    if probe:
        cmd.append("--probe")
    t0 = time.time()
    # a session of its own, so a timeout also stops the service the
    # worker may have started
    proc = subprocess.Popen(
        cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed(f"{tag} did not finish before the run's deadline")
    if proc.returncode != 0 or not os.path.exists(out):
        raise WorkerFailed(f"{tag} exited with code {proc.returncode}:\n{stderr[-4000:]}")
    with open(out) as fh:
        return json.load(fh)


def end_to_end(episodes: list[dict], probes: list[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics and the report extras of untraced episodes."""
    asks = [ms for ep in episodes for ms in ep["search_ask_ms"]]
    tells = [ms for ep in episodes for ms in ep["search_tell_ms"]]
    ask_tail, ask_pct = tail(asks)
    tell_tail, tell_pct = tail(tells)
    metrics = {
        "setup_s": statistics.median(ep["setup_s"] for ep in episodes + probes),
        "run_s": statistics.median(ep["run_s"] for ep in episodes),
        "ask_p50_ms": statistics.median(asks),
        "ask_tail_ms": ask_tail,
        "tell_p50_ms": statistics.median(tells),
        "tell_tail_ms": tell_tail,
        "peak_rss_mib": max(ep["peak_rss_mib"] for ep in episodes),
    }
    qualities = [q for ep in episodes for q in ep["quality"]]
    best = [q["best_objective"] for q in qualities if q["best_objective"] is not None]
    violation = [q["min_violation"] for q in qualities if q["min_violation"] is not None]
    attempted = sum(ep["attempted"] for ep in episodes)
    extras = {
        "ask_tail": {"percentile": ask_pct, "samples": len(asks)},
        "tell_tail": {"percentile": tell_pct, "samples": len(tells)},
        "best_objective": {
            "value": statistics.median(best) if best else None,
            "unit": "objective", "feasible_studies": len(best),
            "studies": len(qualities),
        },
        "min_violation": {
            "value": statistics.median(violation) if violation else None,
            "unit": "constraint",
        },
        "error_rate": {
            "value": sum(ep["failed"] for ep in episodes) / attempted if attempted else 0.0,
            "unit": "ratio",
        },
        "setup_samples": len(episodes) + len(probes),
        "episodes": len(episodes),
    }
    return metrics, extras


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny episodes for the benchmark's own tests",
    )
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    from perfbench import checks, fingerprint, trace
    from perfbench.workloads import SIZES

    if args.workload not in SIZES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(SIZES)}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    size = SIZES[args.workload][args.scale]
    n_episodes = max(1, round(args.seconds / size["episode_s"]))
    env = {k: v for k, v in os.environ.items() if k not in fingerprint.THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    outdir = os.path.join(HERE, "out", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)

    def worker(episode, trace_flag=0, probe=False):
        return run_worker(args, episode, trace_flag, probe, env, outdir, deadline)

    try:
        if args.trace:
            untraced, probes = [worker(0)], []
            traced = worker(0, 1)
            episodes = untraced + [traced]
        else:
            untraced = episodes = [worker(e) for e in range(n_episodes)]
            probes = [
                worker(p, probe=True)
                for p in range(max(0, MIN_SETUP_SAMPLES - n_episodes))
            ]
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems = [
        f"episode {i}: {p}"
        for i, ep in enumerate(episodes)
        for p in checks.run_all(ep["studies"])
    ]
    failed = sum(ep["failed"] for ep in episodes)
    metrics, extras = end_to_end(untraced, probes)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        **extras,
        "checks": problems or "all passed",
        "failures": [f for ep in episodes for f in ep["failures"]],
        "fingerprint": untraced[0]["fingerprint"],
    }
    out_metrics = report["end_to_end"]
    if args.trace:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["run_s"] - untraced[0]["run_s"]
        report["per_layer"] = layers
        out_metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in trace.LAYER_METRICS.items()
        }
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": sum(ep["attempted"] for ep in episodes),
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
