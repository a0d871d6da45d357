"""Helpers shared by the benchmark driver, its episodes and its server."""

from __future__ import annotations

import math
import os
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The checkout this benchmark lives in; the system is imported from
#: its ``src`` directory, never from an installed copy.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch output (span files, live data dirs); ignored by git.
OUT = os.path.join(ROOT, "perfbench", "_out")


class BenchError(Exception):
    """The benchmark could not run; the message says why."""


def use_source_tree() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` or fail clearly."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchError(f"no repro package under {SRC}; run from a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (*q* in 0..100) of a non-empty sequence."""
    if not values:
        raise BenchError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise BenchError("median of no samples")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of *pid* (default: this process), MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM in {path}")


ABORT_GROUPS = ("lock", "timeout", "site_down", "other")


def abort_group(reason: str) -> str:
    """Group a handle's ``abort_reason`` into one of :data:`ABORT_GROUPS`."""
    if "lock conflict" in reason:
        return "lock"
    if reason.startswith("timeout"):
        return "timeout"
    if "crashed" in reason or "is down" in reason:
        return "site_down"
    return "other"


def count_aborts(reasons: Iterable[str]) -> Dict[str, int]:
    counts = {group: 0 for group in ABORT_GROUPS}
    for reason in reasons:
        counts[abort_group(reason)] += 1
    return counts


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def system_metrics(metrics, handles, now: float) -> Dict[str, float]:
    """Exact counts any system reports (sim or live): the condition
    caches, polyvalue and polytransaction counts, the time-weighted
    mean and peak of P(t) over [0, now], and aborts by reason."""
    from repro.core.conditions import cache_info
    from repro.txn.transaction import TxnStatus

    fanouts = metrics.polytransaction_fanouts
    mean_poly, peak_poly = _poly_items(metrics.polyvalue_count, now)
    exact: Dict[str, float] = {
        "core.polytxn_ratio": ratio(
            sum(h.was_polytransaction for h in handles), len(handles)
        ),
        "core.alternatives_mean": ratio(sum(fanouts), len(fanouts)),
        "core.alternatives_max": max(fanouts, default=0),
        "core.polyvalues_installed": metrics.polyvalues_installed,
        "core.polyvalues_resolved": metrics.polyvalues_resolved,
        "core.poly_items_mean": mean_poly,
        "core.poly_items_peak": peak_poly,
    }
    fill = 0.0
    for name, info in cache_info().items():
        if name in ("simplify", "substitute", "and", "product"):
            exact[f"core.cache_hit_ratio.{name}"] = ratio(
                info.hits, info.hits + info.misses
            )
        if info.maxsize:
            fill = max(fill, info.currsize / info.maxsize)
    exact["core.cache_fill"] = fill
    aborts = count_aborts(
        h.abort_reason for h in handles if h.status is TxnStatus.ABORTED
    )
    for group, count in aborts.items():
        exact[f"txn.aborts_{group}"] = count
    return exact


def _poly_items(series, end: float) -> Tuple[float, float]:
    """Time-weighted mean and peak of P(t) over [0, end]; P is 0 before
    the first observation."""
    area, last_time, current, peak = 0.0, 0.0, 0.0, 0.0
    for point_time, value in series.points:
        if point_time > end:
            break
        area += current * (point_time - last_time)
        current, last_time = value, point_time
        peak = max(peak, value)
    area += current * (end - last_time)
    return ratio(area, end), peak


def layer_metrics(summary: Dict, commits: int) -> Dict[str, float]:
    """Per-layer self time, self-time share and per-commit span counts
    from a :meth:`tracer.Tracer.summary`."""
    self_s = summary["self_s"]
    total = sum(self_s.values())
    calls = summary["calls"]
    counters = summary["counters"]
    metrics: Dict[str, float] = {}
    for layer, seconds in self_s.items():
        metrics[f"{layer}.self_s"] = seconds
        metrics[f"{layer}.self_share"] = ratio(seconds, total)
    acquires = calls.get("LockManager.try_acquire", 0)
    metrics.update(
        {
            "txn.msgs_per_commit": ratio(calls.get("DatabaseSite.on_message", 0), commits),
            "core.executions": calls.get("polytransaction.execute", 0),
            "db.lock_conflict_ratio": ratio(counters.get("lock_refusals", 0), acquires),
            "db.store_writes_per_commit": ratio(calls.get("ItemStore.write", 0), commits),
            "runtime.sends_per_commit": ratio(calls.get("AsyncioRuntime.send", 0), commits),
            "runtime.checkpoints_per_commit": ratio(
                len(summary["samples"].get("checkpoint_ms", [])), commits
            ),
            "runtime.checkpoint_bytes_per_commit": ratio(
                counters.get("checkpoint_bytes", 0), commits
            ),
            "runtime.checkpoint_ms_p50": (
                median(summary["samples"]["checkpoint_ms"])
                if summary["samples"].get("checkpoint_ms")
                else 0.0
            ),
            "live.frame_bytes_per_commit": ratio(counters.get("frame_bytes", 0), commits),
            "live.http_self_s": summary["span_self_s"].get("HttpApi.request", 0.0),
        }
    )
    return metrics


def median_metrics(runs: List[Dict[str, float]]) -> Dict[str, float]:
    """Key-wise median over metric dicts that share their keys."""
    return {key: median(run[key] for run in runs) for key in runs[0]}
