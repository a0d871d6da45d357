"""The benchmark's live-cluster server: a LiveCluster behind HttpApi.

    python3 perfbench/server.py --data-dir DIR --seed N [--mode traced] [--summary FILE]

Starts a 3-site polyvalue ``LiveCluster`` holding ACCOUNTS accounts of
INITIAL_BALANCE each (or whatever the checkpoints in DIR say, on a
restart), binds ``HttpApi`` to an ephemeral localhost port and prints
``PORT <n>`` once it serves.  SIGTERM stops it cleanly.  With
``--summary``, SIGUSR1 stops recording and writes a JSON summary (emit
count, cluster counts and, in ``traced`` mode, span totals) there.  The
server exits by itself if the process that started it goes away.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from typing import Any, Dict, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import BenchError, layer_metrics, system_metrics, use_source_tree  # noqa: E402
from tracer import SteppedCoroutine, Tracer  # noqa: E402

SITES = 3
ACCOUNTS = 300
INITIAL_BALANCE = 1000


def account_ids():
    return [f"acct-{index:03d}" for index in range(ACCOUNTS)]


async def serve(args, tracer: Optional[Tracer], emit_counts: Dict[str, int]) -> None:
    from repro.live.cluster import LiveCluster
    from repro.live.httpapi import HttpApi
    from repro.txn.transaction import TxnStatus

    loop = asyncio.get_running_loop()
    cluster = LiveCluster(
        sites=SITES,
        items={account: INITIAL_BALANCE for account in account_ids()},
        protocol="polyvalue",
        seed=args.seed,
        data_dir=args.data_dir,
    )
    await cluster.start()
    api = HttpApi(cluster, host="127.0.0.1", port=0)
    if tracer is not None:
        # The request handler is a coroutine; trace it step by step.
        step = tracer.wrap(lambda fn, *a: fn(*a), "HttpApi.request", "live")
        handle = api._handle
        api._handle = lambda reader, writer: SteppedCoroutine(
            handle(reader, writer), step
        )
    port = await api.start()
    stop = asyncio.Event()

    def dump_summary() -> None:
        if tracer is not None:
            tracer.enabled = False
        committed = sum(h.status is TxnStatus.COMMITTED for h in cluster.handles)
        summary: Dict[str, Any] = {
            "emits": emit_counts["emits"],
            "committed": committed,
            "exact": system_metrics(cluster.metrics, cluster.handles, cluster.runtime.now),
        }
        if tracer is not None:
            summary["layers"] = layer_metrics(tracer.summary(), committed)
            tracer.write_spans(args.spans)
        partial = args.summary + ".tmp"
        with open(partial, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        os.replace(partial, args.summary)

    loop.add_signal_handler(signal.SIGTERM, stop.set)
    loop.add_signal_handler(signal.SIGINT, stop.set)
    if args.summary:
        loop.add_signal_handler(signal.SIGUSR1, dump_summary)
    print(f"PORT {port}", flush=True)
    parent = os.getppid()
    try:
        while not stop.is_set():
            try:
                await asyncio.wait_for(stop.wait(), timeout=1.0)
            except asyncio.TimeoutError:
                if os.getppid() != parent:
                    break  # the benchmark died; do not linger
    finally:
        await api.close()
        await cluster.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("bare", "traced"), default="bare")
    parser.add_argument("--summary", default="", help="summary file, written on SIGUSR1")
    parser.add_argument("--spans", default="", help="span file (traced)")
    args = parser.parse_args(argv)
    try:
        use_source_tree()
    except BenchError as exc:
        print(f"server: {exc}", file=sys.stderr)
        return 2
    import probes

    tracer = None
    emit_counts: Dict[str, int] = {}
    probes.count_emits(emit_counts)
    if args.mode == "traced":
        tracer = Tracer()
        probes.install(tracer)
    asyncio.run(serve(args, tracer, emit_counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
