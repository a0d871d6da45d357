"""End-to-end and per-layer benchmark of the polyvalue database.

    python3 perfbench/run.py --workload clean-updates --seed 1 --seconds 40 --trace 0

Workloads (see NOTES.md for why each exists and its sizes):

* ``clean-updates``  random updates on 5 simulated sites, failure-free;
* ``indoubt-storm``  the same system under bursts of cross-site
  transfers whose coordinator crashes inside the in-doubt window;
* ``live-http``      a 3-site live cluster behind its HTTP API, driven
  by closed-loop clients.

A run repeats fixed-size episodes until ``--seconds`` have passed; each
sim episode runs in a fresh interpreter.  With ``--trace 0`` every
episode is bare and the run reports the end-to-end metrics; with
``--trace 1`` the episodes alternate between a bare one and a traced
one, and the run reports the per-layer metrics.  Every episode counts
``EventBus.emit`` calls; ``obs.emits`` is the count of the bare ones.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    ABORT_GROUPS,
    ROOT,
    BenchError,
    median,
    median_metrics,
    percentile,
    ratio,
    use_source_tree,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SIM_WORKLOADS = ("clean-updates", "indoubt-storm")
WORKLOADS = SIM_WORKLOADS + ("live-http",)
#: A run must end well inside 180 s even when episodes run slow.
EPISODE_TIMEOUT = 120.0
#: A sim run makes at least this many episodes (episode indexes 0, 1, 2);
#: the exact metrics come from these alone, so they repeat for a seed.
EXACT_EPISODES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("commits_per_s", "txn/s"),
    ("commit_ratio", "1"),
    ("commit_ms_p50", "ms"),
    ("commit_ms_p99", "ms"),
    ("peak_rss_mb", "MiB"),
)

#: Per-layer metrics and their units, in report order.
PER_LAYER = (
    [("sim.events_per_commit", "1"), ("sim.self_s", "s"), ("sim.self_share", "1")]
    + [("net.sends_per_commit", "1"), ("net.dropped_per_commit", "1"),
       ("net.self_s", "s"), ("net.self_share", "1")]
    + [("txn.msgs_per_commit", "1")]
    + [(f"txn.aborts_{group}", "count") for group in ABORT_GROUPS]
    + [("txn.self_s", "s"), ("txn.self_share", "1")]
    + [("core.executions", "count"), ("core.polytxn_ratio", "1"),
       ("core.alternatives_mean", "1"), ("core.alternatives_max", "count"),
       ("core.polyvalues_installed", "count"), ("core.polyvalues_resolved", "count"),
       ("core.poly_items_mean", "items"), ("core.poly_items_peak", "items")]
    + [(f"core.cache_hit_ratio.{name}", "1")
       for name in ("simplify", "substitute", "and", "product")]
    + [("core.cache_fill", "1"), ("core.self_s", "s"), ("core.self_share", "1")]
    + [("db.lock_conflict_ratio", "1"), ("db.store_writes_per_commit", "1"),
       ("db.self_s", "s"), ("db.self_share", "1")]
    + [("runtime.checkpoints_per_commit", "1"), ("runtime.checkpoint_bytes_per_commit", "B"),
       ("runtime.checkpoint_ms_p50", "ms"), ("runtime.sends_per_commit", "1"),
       ("runtime.self_s", "s"), ("runtime.self_share", "1")]
    + [("live.frame_bytes_per_commit", "B"), ("live.http_self_s", "s"),
       ("live.cluster_commit_ms_p50", "ms"), ("live.reply_overhead_ms_p50", "ms"),
       ("live.self_s", "s"), ("live.self_share", "1")]
    + [("obs.emits", "count"), ("workloads.self_s", "s"), ("workloads.self_share", "1"),
       ("trace.overhead_ratio", "1")]
)


class Outcome:
    """What one run found: operations, failures, gate breaches, metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.committed = 0
        self.aborted = {group: 0 for group in ABORT_GROUPS}
        self.undecided = 0
        self.errored = 0
        self.breaches: List[str] = []
        self.metrics: Dict[str, float] = {}

    def count(self, attempted, committed, aborted, undecided, errored=0) -> None:
        self.attempted += attempted
        self.committed += committed
        for group, number in aborted.items():
            self.aborted[group] += number
        self.undecided += undecided
        self.errored += errored


def episode_seed(seed: int, index: int) -> int:
    """Each episode of a run is its own instance of the workload."""
    return seed * 1000 + index


def repeat(seconds: float, modes, episode: Callable[[str, int], Any],
           minimum: int) -> Dict[str, List[Any]]:
    """Run one episode per mode, in order, for episode indexes 0, 1, 2, ...
    as often as fits in *seconds*, but at least *minimum* times: another
    round starts only if a round of the mean length so far would still
    end in time."""
    results: Dict[str, List[Any]] = {mode: [] for mode in modes}
    started = time.perf_counter()
    rounds = 0
    while True:
        for mode in modes:
            results[mode].append(episode(mode, rounds))
        rounds += 1
        elapsed = time.perf_counter() - started
        if rounds >= minimum and elapsed + elapsed / rounds > seconds:
            return results


# ----------------------------------------------------------------------
# Simulated workloads


def sim_episode(workload: str, seed: int, mode: str) -> Dict[str, Any]:
    # The interpreter's string-hash seed is an input too: the simulator's
    # event order depends on it (iteration over sets of strings), so the
    # exact metrics repeat only when it is fixed.
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    command = [sys.executable, os.path.join(HERE, "sim_episode.py"),
               "--workload", workload, "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                              env=env, timeout=EPISODE_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} episode exceeded {EPISODE_TIMEOUT:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} episode failed (exit {proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_sim(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    modes = ("bare", "traced") if trace else ("bare",)
    runs = repeat(seconds, modes, lambda mode, index: sim_episode(
        workload, episode_seed(seed, index), mode), EXACT_EPISODES)
    outcome = Outcome()
    episodes = [episode for mode in modes for episode in runs[mode]]
    for episode in episodes:
        exact = episode["exact"]
        outcome.count(
            episode["attempted"], episode["committed"],
            {group: exact[f"txn.aborts_{group}"] for group in ABORT_GROUPS},
            episode["undecided"],
        )
        outcome.breaches += episode["failures"]
    if not trace:
        first = episodes[:EXACT_EPISODES]
        latencies = [ms for e in first for ms in e["latencies_ms"]]
        outcome.metrics = {
            # The fastest set-up and episode: other tenants of the host only
            # ever slow a measurement down, and for tens of seconds at a
            # time, so even a run's median episode swings by about 20% from
            # run to run.
            "setup_s": min(e["setup_s"] for e in episodes),
            "commits_per_s": max(e["committed"] / e["wall_s"] for e in episodes),
            "commit_ratio": ratio(sum(e["committed"] for e in first),
                                  sum(e["attempted"] for e in first)),
            "commit_ms_p50": percentile(latencies, 50),
            "commit_ms_p99": percentile(latencies, 99),
            "peak_rss_mb": median(e["peak_rss_mb"] for e in episodes),
        }
        return outcome
    for bare, traced in zip(runs["bare"], runs["traced"]):
        differing = sorted(key for key, value in traced["exact"].items()
                           if bare["exact"][key] != value)
        if differing:
            outcome.breaches.append(f"tracing changed the exact metrics {differing}")
            break
    per_layer = dict(PER_LAYER)
    layers = median_metrics([
        {**e["layers"], **{k: v for k, v in e["exact"].items() if k in per_layer}}
        for e in runs["traced"][:EXACT_EPISODES]
    ])
    layers["live.cluster_commit_ms_p50"] = 0.0
    layers["live.reply_overhead_ms_p50"] = 0.0
    layers["obs.emits"] = sum(e["emits"] for e in runs["bare"])
    layers["trace.overhead_ratio"] = median(
        traced["wall_s"] / bare["wall_s"] for bare, traced in zip(runs["bare"], runs["traced"])
    )
    outcome.metrics = layers
    return outcome


# ----------------------------------------------------------------------
# Live workload


def run_live(seed: int, seconds: float, trace: bool) -> Outcome:
    import live

    modes = ("bare", "traced") if trace else ("bare",)
    runs = repeat(seconds, modes, lambda mode, index: live.run_episode(
        episode_seed(seed, index), mode), 1)
    outcome = Outcome()
    episodes = [episode for mode in modes for episode in runs[mode]]
    for episode in episodes:
        statuses = [reply.status for reply in episode.replies]
        outcome.count(
            len(statuses), statuses.count("committed"), live.abort_counts(episode.replies),
            statuses.count("pending"), statuses.count("error"),
        )
        outcome.breaches += episode.failures
    if not outcome.committed:
        raise BenchError("live-http committed nothing")
    if not trace:
        outcome.metrics = {
            "setup_s": min(e.setup_s for e in episodes),
            "commits_per_s": max(e.committed / e.load_s for e in episodes),
            "commit_ratio": ratio(outcome.committed, outcome.attempted),
            # Like the throughput, the median latency of the least disturbed
            # episode; the tail is over the whole run, so that well over ten
            # samples lie beyond it.
            "commit_ms_p50": min(e.latency_ms(50) for e in episodes),
            "commit_ms_p99": percentile([reply.latency_ms for e in episodes
                                         for reply in e.replies
                                         if reply.status == "committed"], 99),
            "peak_rss_mb": median(e.peak_rss_mb for e in episodes),
        }
        return outcome
    traced = runs["traced"][:EXACT_EPISODES]
    per_layer = dict(PER_LAYER)
    layers = median_metrics([
        {**e.summary["layers"], **{k: v for k, v in e.summary["exact"].items() if k in per_layer}}
        for e in traced
    ])
    for key in ("sim.events_per_commit", "net.sends_per_commit", "net.dropped_per_commit"):
        layers[key] = 0.0  # no simulator and no simulated network in a live cluster
    for group, number in live.abort_counts(
        [reply for episode in traced for reply in episode.replies]
    ).items():
        layers[f"txn.aborts_{group}"] = number
    committed = [reply for e in traced for reply in e.replies if reply.status == "committed"]
    layers["live.cluster_commit_ms_p50"] = median(reply.cluster_ms for reply in committed)
    layers["live.reply_overhead_ms_p50"] = median(
        reply.latency_ms - reply.cluster_ms for reply in committed
    )
    layers["obs.emits"] = sum(episode.summary["emits"] for episode in runs["bare"])
    layers["trace.overhead_ratio"] = median(
        ratio(bare.committed / bare.load_s, episode.committed / episode.load_s)
        for bare, episode in zip(runs["bare"], runs["traced"])
    )
    outcome.metrics = layers
    return outcome


# ----------------------------------------------------------------------


def report(workload: str, outcome: Outcome, trace: bool) -> Dict[str, Any]:
    units = dict(PER_LAYER if trace else END_TO_END)
    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    failed = outcome.undecided + outcome.errored
    print(f"{workload}: attempted={outcome.attempted} committed={outcome.committed} "
          f"aborted={outcome.aborted} undecided={outcome.undecided} "
          f"errored={outcome.errored} failed={failed} (aborts are decided outcomes; "
          f"failed = undecided + errored)")
    for breach in outcome.breaches:
        print(f"{workload}: GATE FAILED: {breach}")
    if workload == "live-http":
        print("live-http: the restart gate proves survival of a process kill, "
              "not of power loss (checkpoints are not fsync'ed)")
    return {
        "correct": not outcome.breaches,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": units[name]}
            for name in units
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    # On SIGTERM, unwind so that episode processes and servers are reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        use_source_tree()
        if args.workload == "live-http":
            outcome = run_live(args.seed, args.seconds, trace)
        else:
            outcome = run_sim(args.workload, args.seed, args.seconds, trace)
        result = report(args.workload, outcome, trace)
    except BenchError as exc:
        print(f"run.py: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
