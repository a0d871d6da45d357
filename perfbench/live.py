"""The live-http workload: a closed loop of HTTP clients against a real server.

One episode launches ``server.py`` in its own process on a temporary
data dir, drives CLIENTS closed-loop clients (each sends its next
``POST /txn {"wait": true}`` transfer only after the previous reply)
for LOAD_SECONDS, then checks, untimed:

* every account equals INITIAL_BALANCE plus the acknowledged commits
  into it minus those out of it, and the total is conserved;
* after SIGKILL and a restart on the same data dir, once ``/state``
  shows no polyvalues and nothing pending, every account still does.

That proves survival of a process kill, not of power loss: the runtime's
checkpoint is write-then-rename without ``fsync``.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from common import OUT, BenchError, count_aborts, peak_rss_mb, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
SERVER = os.path.join(HERE, "server.py")
CLIENTS = 2
LOAD_SECONDS = 5.0
WAIT_TIMEOUT = 10.0
START_TIMEOUT = 30.0
CHECK_TIMEOUT = 30.0


@dataclass
class Reply:
    status: str  # committed / aborted / pending / error
    latency_ms: float
    txn: str = ""
    reason: str = ""
    cluster_ms: Optional[float] = None
    transfer: tuple = ()


@dataclass
class EpisodeResult:
    setup_s: float = 0.0
    load_s: float = 0.0
    replies: List[Reply] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    failures: List[str] = field(default_factory=list)
    summary: Optional[Dict[str, Any]] = None

    @property
    def committed(self) -> int:
        return sum(reply.status == "committed" for reply in self.replies)

    def latency_ms(self, q: float) -> float:
        """Percentile *q* of the client latency of the committed requests."""
        return percentile(
            [reply.latency_ms for reply in self.replies if reply.status == "committed"], q
        )


class Server:
    """One server process; always reaped by :meth:`kill` or :meth:`stop`."""

    def __init__(self, data_dir: str, seed: int, mode: str, summary: str = "") -> None:
        from server import account_ids

        self.accounts = account_ids()
        self.summary_path = summary
        self._log = open(os.path.join(data_dir, "server.log"), "ab")
        command = [sys.executable, SERVER, "--data-dir", data_dir, "--seed", str(seed),
                   "--mode", mode]
        if summary:
            command += ["--summary", summary,
                        "--spans", os.path.join(OUT, "spans-live-http.tsv.gz")]
        started = time.perf_counter()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=self._log)
        try:
            port = self._read_port(started + START_TIMEOUT)
            self.base = f"http://127.0.0.1:{port}"
            self._wait_health(started + START_TIMEOUT)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def _read_port(self, deadline: float) -> int:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.perf_counter() < deadline:
                if selector.select(timeout=deadline - time.perf_counter()):
                    line = self.proc.stdout.readline().decode("ascii", "replace")
                    if line.startswith("PORT "):
                        return int(line.split()[1])
                    if not line:
                        break  # the server exited
        raise BenchError(f"server did not announce its port: {self._log_tail()}")

    def _wait_health(self, deadline: float) -> None:
        from repro.live.client import ClientError, request

        while True:
            try:
                request(self.base, "/health", timeout=2.0)
                return
            except ClientError as exc:
                if time.perf_counter() >= deadline or self.proc.poll() is not None:
                    raise BenchError(f"server /health failed: {exc}; {self._log_tail()}")
                time.sleep(0.01)

    def _log_tail(self) -> str:
        self._log.flush()
        try:
            with open(self._log.name, "rb") as fh:
                return fh.read()[-2000:].decode("utf-8", "replace")
        except OSError:
            return ""

    def request_summary(self) -> Dict[str, Any]:
        """SIGUSR1 the server and read the summary it writes."""
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + CHECK_TIMEOUT
        while not os.path.exists(self.summary_path):
            if time.perf_counter() >= deadline or self.proc.poll() is not None:
                raise BenchError(f"server wrote no summary: {self._log_tail()}")
            time.sleep(0.01)
        with open(self.summary_path, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self._reap()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self._reap()

    def _reap(self) -> None:
        self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def _client(base: str, accounts: List[str], rng: random.Random, deadline: float,
            out: List[Reply]) -> None:
    from repro.live.client import ClientError, request, transfer_script

    while time.perf_counter() < deadline:
        source, target = rng.sample(accounts, 2)
        amount = rng.randint(1, 9)
        body = {"script": transfer_script(source, target, amount),
                "wait": True, "timeout": WAIT_TIMEOUT}
        started = time.perf_counter()
        try:
            reply = request(base, "/txn", method="POST", body=body,
                            timeout=WAIT_TIMEOUT + 5.0)
        except (ClientError, OSError, ValueError) as exc:
            # OSError: a socket timeout or reset that urllib does not wrap;
            # ValueError: a reply that is not JSON.
            out.append(Reply("error", (time.perf_counter() - started) * 1000.0,
                             reason=repr(exc), transfer=(source, target, amount)))
            continue
        latency_ms = (time.perf_counter() - started) * 1000.0
        status = reply.get("status", "pending") if reply.get("decided") else "pending"
        cluster_ms = None
        if reply.get("decided_at") is not None:
            cluster_ms = (reply["decided_at"] - reply["submitted_at"]) * 1000.0
        out.append(Reply(status, latency_ms, reply.get("txn", ""), reply.get("reason", ""),
                         cluster_ms, (source, target, amount)))


def _drive(server: Server, seed: int, result: EpisodeResult) -> None:
    deadline = time.perf_counter() + LOAD_SECONDS
    outs: List[List[Reply]] = [[] for _ in range(CLIENTS)]
    threads = [
        threading.Thread(
            target=_client,
            args=(server.base, server.accounts, random.Random(f"{seed}:{index}"),
                  deadline, outs[index]),
            daemon=True,
        )
        for index in range(CLIENTS)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=LOAD_SECONDS + WAIT_TIMEOUT + 30.0)
        if thread.is_alive():
            raise BenchError("a live client did not finish")
    result.load_s = time.perf_counter() - started
    for out in outs:
        result.replies.extend(out)


def _expected(server: Server, replies: List[Reply]) -> Tuple[Dict[str, int], List[str]]:
    """Balances implied by the acknowledged commits, and the requests
    that leave them unknown.  A reply that came back undecided still
    counts as undecided, but its final outcome is looked up so that the
    balances account for it.  An errored request carries no txn id and
    may have committed on the server, so it fails the gate by name."""
    from repro.live.client import poll_txn
    from server import INITIAL_BALANCE

    balances = {account: INITIAL_BALANCE for account in server.accounts}
    errored = [reply.transfer for reply in replies if reply.status == "error"]
    undecided = []
    for reply in replies:
        status = reply.status
        if status == "pending":
            status = poll_txn(server.base, reply.txn, timeout=CHECK_TIMEOUT)["status"]
            if status == "pending":
                undecided.append(reply.txn)
        if status == "committed":
            source, target, amount = reply.transfer
            balances[source] -= amount
            balances[target] += amount
    unknown = []
    if errored:
        unknown.append(f"{len(errored)} unaccounted errored requests (they may have "
                       f"committed), e.g. transfers {errored[:3]}")
    if undecided:
        unknown.append(f"{len(undecided)} transactions still undecided after "
                       f"{CHECK_TIMEOUT:.0f} s, e.g. {undecided[:3]}")
    return balances, unknown


def _mismatches(server: Server, expected: Dict[str, int]) -> List[str]:
    from repro.live.client import request

    wrong = []
    total = 0
    for account, want in expected.items():
        item = request(server.base, f"/item/{account}")
        total += item["value"] if not item["polyvalue"] else 0
        if item["polyvalue"] or item["value"] != want:
            wrong.append(f"{account}={item['value']!r} (want {want})")
    if total != sum(expected.values()):
        wrong.append(f"total {total} != {sum(expected.values())}")
    return wrong


def _check_until(server: Server, expected: Dict[str, int], what: str) -> List[str]:
    """Re-read until the accounts match (commit messages may still be in
    flight when the last reply arrives), or report what is still wrong."""
    deadline = time.perf_counter() + CHECK_TIMEOUT
    while True:
        wrong = _mismatches(server, expected)
        if not wrong or time.perf_counter() >= deadline:
            break
        time.sleep(0.05)
    if wrong:
        return [f"{what}: {len(wrong)} mismatches, e.g. {wrong[:3]}"]
    return []


def _wait_resolved(server: Server) -> List[str]:
    from repro.live.client import request

    deadline = time.perf_counter() + CHECK_TIMEOUT
    while True:
        state = request(server.base, "/state")
        if state["polyvalues"] == 0 and not state["pending"]:
            return []
        if time.perf_counter() >= deadline:
            return [f"after restart: {state['polyvalues']} polyvalues, "
                    f"{len(state['pending'])} pending"]
        time.sleep(0.05)


def run_episode(seed: int, mode: str) -> EpisodeResult:
    """One live episode; raises BenchError when the server misbehaves."""
    from repro.live.client import ClientError

    os.makedirs(OUT, exist_ok=True)
    data_dir = tempfile.mkdtemp(prefix="live-", dir=OUT)
    result = EpisodeResult()
    servers: List[Server] = []
    try:
        server = Server(data_dir, seed, mode, os.path.join(data_dir, "summary.json"))
        servers.append(server)
        result.setup_s = server.setup_s
        _drive(server, seed, result)
        result.summary = server.request_summary()
        result.peak_rss_mb = peak_rss_mb(server.proc.pid)
        try:
            expected, unknown = _expected(server, result.replies)
            result.failures += unknown
            result.failures += _check_until(server, expected, "after load")
            server.kill()
            restarted = Server(data_dir, seed, "bare")
            servers.append(restarted)
            result.failures += _wait_resolved(restarted)
            result.failures += _check_until(restarted, expected, "after SIGKILL and restart")
            restarted.stop()
        except ClientError as exc:
            raise BenchError(f"live-http check could not read the server: {exc}") from None
    finally:
        for server in servers:
            server.kill()
        shutil.rmtree(data_dir, ignore_errors=True)
    return result


def abort_counts(replies: List[Reply]) -> Dict[str, int]:
    return count_aborts(reply.reason for reply in replies if reply.status == "aborted")
