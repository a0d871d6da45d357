"""Where the tracer hooks into the system, and which layer each hook is charged to.

Call :func:`install` before building a ``DistributedSystem`` or a
``LiveCluster``.  The entry points are the public boundaries of each
``repro`` package; three additions keep the attribution honest:

* ``SimRuntime`` is the simulator's side of the runtime seam, so its
  ``send``/``schedule`` spans are charged to ``sim`` and ``runtime``
  means the wall-clock asyncio runtime only;
* a timer action a site schedules (wait and phase timeouts, outcome
  maintenance) is protocol work, so it runs inside a ``txn`` span
  instead of being charged to the simulator loop that fires it;
* the random-update generator's arrival callback is charged to
  ``workloads``.
"""

from __future__ import annotations

import os
from typing import Any, Dict

from tracer import Tracer


def install(tracer: Tracer) -> None:
    """Patch every traced entry point (idempotence is not needed: one
    fresh interpreter installs once)."""
    from repro.core import polytransaction
    from repro.core.outcome import OutcomeTable
    from repro.core.polyvalue import Polyvalue
    from repro.db.locks import LockManager
    from repro.db.store import ItemStore
    from repro.live import wire
    from repro.net.network import Network
    from repro.runtime.aio import AsyncioRuntime
    from repro.runtime.sim import SimRuntime
    from repro.sim.engine import Simulator
    from repro.txn.site import DatabaseSite
    from repro.txn.system import DistributedSystem
    from repro.workloads.generator import RandomUpdateWorkload

    counters, samples = tracer.counters, tracer.samples

    def lock_result(args, granted, duration) -> None:
        if not granted:
            counters["lock_refusals"] += 1

    def frame_result(args, blob, duration) -> None:
        counters["frame_bytes"] += len(blob) + 4  # 4-byte length prefix

    seen_checkpoints = [0]

    def checkpoint_result(args, result, duration) -> None:
        runtime, site = args[0], args[1]
        if runtime.stats.checkpoints == seen_checkpoints[0]:
            return  # skipped: not durable, site down, or no snapshot yet
        seen_checkpoints[0] = runtime.stats.checkpoints
        samples["checkpoint_ms"].append(duration * 1000.0)
        # The runtime owns the file naming; ask it for the path.
        counters["checkpoint_bytes"] += _file_size(runtime._site_path(site))

    _trace_timer_actions(tracer, SimRuntime)
    _trace_timer_actions(tracer, AsyncioRuntime)
    for owner, attr, layer, hook in (
        (Simulator, "run_until", "sim", None),
        (SimRuntime, "send", "sim", None),
        (SimRuntime, "schedule", "sim", None),
        (Network, "send", "net", None),
        (DistributedSystem, "submit", "txn", None),
        (DatabaseSite, "submit", "txn", None),
        (DatabaseSite, "on_message", "txn", None),
        (polytransaction, "execute", "core", None),
        (OutcomeTable, "resolve", "core", None),
        (Polyvalue, "reduce", "core", None),
        (Polyvalue, "in_doubt", "core", None),
        (LockManager, "try_acquire", "db", lock_result),
        (ItemStore, "write", "db", None),
        (AsyncioRuntime, "send", "runtime", None),
        (AsyncioRuntime, "checkpoint", "runtime", checkpoint_result),
        (wire, "encode_envelope", "live", frame_result),
        (wire, "decode_envelope", "live", None),
        # The generator's own event callback (RNG draws, building the
        # transaction); the submit it makes is a txn span inside it.
        (RandomUpdateWorkload, "_arrive", "workloads", None),
    ):
        tracer.patch(owner, attr, layer, hook)


def _trace_timer_actions(tracer: Tracer, runtime_class: Any) -> None:
    """Run each action a site schedules inside a ``txn`` span."""
    fire = tracer.wrap(lambda action: action(), "timer", "txn")
    original = runtime_class.schedule

    def schedule(self, delay, action, **kwargs):
        return original(self, delay, lambda: fire(action), **kwargs)

    tracer.substitute(runtime_class, "schedule", schedule)


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def count_emits(counts: Dict[str, int]) -> None:
    """Count ``EventBus.emit`` calls into ``counts["emits"]``.  Used on
    untraced runs: instrumented code guards each emit with ``if bus:``,
    so an unobserved run should count zero."""
    from repro.obs.events import EventBus

    original = EventBus.emit
    counts.setdefault("emits", 0)

    def emit(self, *args, **kwargs):
        counts["emits"] += 1
        return original(self, *args, **kwargs)

    EventBus.emit = emit
