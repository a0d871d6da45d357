"""One simulated-workload episode, run in a fresh interpreter.

    python3 perfbench/sim_episode.py --workload clean-updates --seed 3 --mode bare

Builds the system, times the workload phase, then (untimed) settles and
checks the correctness gates, and prints one JSON object.  The driver
``run.py`` starts one interpreter per episode because the condition
caches are module-level: an episode run after another in the same
process would start with warm caches and run at a different speed.

Modes: ``bare`` measures; ``traced`` installs the span tracer before
anything is built.  Both count ``EventBus.emit`` calls.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    OUT,
    BenchError,
    layer_metrics,
    peak_rss_mb,
    percentile,
    ratio,
    system_metrics,
    use_source_tree,
)
from tracer import Tracer  # noqa: E402

SITES = 5
ITEMS = 500
INITIAL_VALUE = 1000
#: Builds per episode; ``setup_s`` is the fastest.
SETUP_REPEATS = 15

#: clean-updates: the ROADMAP reference shape, failure-free.
CLEAN_SIM_SECONDS = 100.0

#: indoubt-storm: a burst of cross-site transfers every ROUND_SECONDS,
#: its coordinator crashed CRASH_AFTER later, inside the wait window.
STORM_ROUNDS = 25
ROUND_SECONDS = 3.0
BURST_SIZE = 20
CRASH_AFTER = 0.035
DOWN_SECONDS = 1.5
#: Every hop takes 10 ms plus uniform [0, 1 ms) jitter, so a transfer's
#: stage messages land by 33 ms and its readies no earlier than 40 ms:
#: a crash at 35 ms is always inside the window.  Zero jitter would make
#: nearly every commit take exactly 40 ms on every seed.
STORM_JITTER = 0.001
HOT_FRACTION = 0.2

SETTLE_LIMIT = 600.0


def build(workload: str, seed: int) -> Tuple[Any, Any]:
    """The system and its background generator for *workload*."""
    from repro.txn.system import DistributedSystem
    from repro.workloads.generator import (
        RandomUpdateWorkload,
        WorkloadConfig,
        make_item_ids,
    )

    items = {item: INITIAL_VALUE for item in make_item_ids(ITEMS)}
    if workload == "clean-updates":
        system = DistributedSystem.build(sites=SITES, items=items, seed=seed)
        config = WorkloadConfig(update_rate=50.0, dependency_mean=1.0)
    else:
        system = DistributedSystem.build(
            sites=SITES, items=items, seed=seed, jitter=STORM_JITTER
        )
        config = WorkloadConfig(
            update_rate=50.0,
            dependency_mean=2.0,
            hot_fraction=HOT_FRACTION,
            hot_weight=0.7,
        )
    return system, RandomUpdateWorkload(system, config, seed=seed)


def transfer(source: str, target: str, amount: int):
    from repro.txn.transaction import Transaction

    def body(ctx):
        ctx.write(source, ctx.read(source) - amount)
        ctx.write(target, ctx.read(target) + amount)

    return Transaction(body=body, items=(source, target), label="transfer")


def make_burst(system, seed: int) -> Callable[[str], None]:
    """Submit BURST_SIZE transfers between hot items on different sites,
    all coordinated at the given site."""
    from repro.sim.rand import Rng

    rng = Rng(seed).fork("indoubt-storm-bursts")
    hot = sorted(system.catalog.all_items())[: int(ITEMS * HOT_FRACTION)]
    site_of = system.catalog.site_of

    def burst(coordinator: str) -> None:
        for _ in range(BURST_SIZE):
            source = rng.choice(hot)
            target = rng.choice(hot)
            while site_of(target) == site_of(source):
                target = rng.choice(hot)
            system.submit(
                transfer(source, target, rng.randint(1, 9)), at=coordinator
            )

    return burst


def drive(workload: str, system, generator, seed: int, tracer) -> None:
    """The timed phase: run the workload, then let every submitted
    transaction reach its decision."""
    generator.start()
    if workload == "clean-updates":
        system.run_for(CLEAN_SIM_SECONDS)
    else:
        burst = make_burst(system, seed)
        if tracer is not None:
            burst = tracer.wrap(burst, "storm.burst", "workloads")
        sites = sorted(system.sites)
        for round_index in range(STORM_ROUNDS):
            coordinator = sites[round_index % len(sites)]
            burst(coordinator)
            system.run_for(CRASH_AFTER)
            system.crash_site(coordinator)
            system.run_for(DOWN_SECONDS)
            system.recover_site(coordinator)
            system.run_for(ROUND_SECONDS - CRASH_AFTER - DOWN_SECONDS)
    generator.stop()
    while system.pending_handles():
        system.run_for(0.1)


def exact_metrics(system, handles) -> Dict[str, float]:
    """Every metric that repeats bit-for-bit for a fixed seed."""
    from repro.txn.transaction import TxnStatus

    exact = system_metrics(system.metrics, handles, system.sim.now)
    commits = sum(h.status is TxnStatus.COMMITTED for h in handles)
    latencies = [
        h.latency * 1000.0 for h in handles if h.status is TxnStatus.COMMITTED
    ]
    exact.update(
        {
            "commit_ratio": ratio(commits, len(handles)),
            "commit_ms_p50": percentile(latencies, 50),
            "commit_ms_p99": percentile(latencies, 99),
            "sim.events_per_commit": ratio(system.sim.events_processed, commits),
            "net.sends_per_commit": ratio(system.network.stats.sent, commits),
            "net.dropped_per_commit": ratio(system.network.stats.dropped, commits),
        }
    )
    return exact


def check(system, handles) -> List[str]:
    """The correctness gates; returns what failed (empty when all hold)."""
    from repro.workloads.runner import serial_replay

    failures = []
    if not system.settle(max_time=system.sim.now + SETTLE_LIMIT):
        failures.append("system did not converge after settle")
    if system.total_polyvalues():
        failures.append(f"{system.total_polyvalues()} residual polyvalues")
    if system.outcome_bookkeeping_size():
        failures.append(f"{system.outcome_bookkeeping_size()} outcome entries left")
    if system.pending_handles():
        failures.append(f"{len(system.pending_handles())} transactions undecided")
    if system.database_state() != serial_replay(handles, system.initial_values):
        failures.append("final state differs from serial replay of the commits")
    return failures


def run(workload: str, seed: int, mode: str, spans_path: str) -> Dict[str, Any]:
    from repro.txn.transaction import TxnStatus

    import probes

    tracer = None
    emit_counts: Dict[str, int] = {}
    probes.count_emits(emit_counts)
    if mode == "traced":
        tracer = Tracer()
        probes.install(tracer)
        tracer.enabled = False  # set-up is not part of the traced phase
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        system, generator = build(workload, seed)
        setup_times.append(time.perf_counter() - start)
    if tracer is not None:
        tracer.enabled = True

    start = time.perf_counter()
    drive(workload, system, generator, seed, tracer)
    wall = time.perf_counter() - start

    rss = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    handles = list(system.handles)
    exact = exact_metrics(system, handles)
    committed = sum(h.status is TxnStatus.COMMITTED for h in handles)
    result: Dict[str, Any] = {
        "setup_s": min(setup_times),
        "wall_s": wall,
        "peak_rss_mb": rss,
        "attempted": len(handles),
        "committed": committed,
        "latencies_ms": sorted(
            h.latency * 1000.0 for h in handles if h.status is TxnStatus.COMMITTED
        ),
        "exact": exact,
        "emits": emit_counts["emits"],
    }
    failures = check(system, handles)
    result["undecided"] = len(system.pending_handles())
    result["failures"] = failures
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.summary(), committed)
        tracer.write_spans(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("clean-updates", "indoubt-storm"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("bare", "traced"), default="bare")
    args = parser.parse_args(argv)
    try:
        use_source_tree()
        spans = os.path.join(OUT, f"spans-{args.workload}.tsv.gz")
        result = run(args.workload, args.seed, args.mode, spans)
    except BenchError as exc:
        print(f"sim_episode: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
