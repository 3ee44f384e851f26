"""Dispatch sweep shards to remote workers over TCP — self-healingly.

A :class:`SocketExecutor` holds a list of worker addresses (each a
``python -m repro.parallel worker`` process).  ``run_shards`` opens
one connection per worker and pulls shards from a shared dispatch
state, so a fast worker naturally takes more shards than a slow one —
load balance never affects results, which the coordinator reassembles
by task index.

Every dispatch ends in one of three verdicts — :data:`OK`,
:data:`TASK_ERROR`, :data:`TRANSPORT_ERROR`, defined below with the
response each one gets; they are the executor's rows of the failure
table in DESIGN.md §15.  A lost connection is re-dialled with bounded
exponential backoff (a supervisor-restarted worker comes back on its
old port), and :data:`REDISPATCH_BUDGET` caps how often one shard
goes back to a peer.

Only a sweep where *zero* workers ever connected — or where every
connection died with shards unfinished — raises
:class:`~repro.core.errors.ExecutorError`; the coordinator answers by
degrading to the local process pool with a one-line warning.
"""

import collections
import pickle
import queue
import socket
import threading
import time
from typing import Iterator, List, Optional, Set, Tuple

from repro.core.errors import ExecutorError
from repro.obs.telemetry import active_bus
from repro.parallel import wire
from repro.parallel.executors import LOCAL_POOL, Executor, ShardOutcome
from repro.parallel.task import SimTask

__all__ = ["SocketExecutor"]

#: Extra dispatches an infrastructure-failed shard may consume before
#: it is surfaced to the coordinator as a failed outcome.
REDISPATCH_BUDGET = 2

#: Seconds to wait for a worker's TCP connect and HELLO handshake.
CONNECT_TIMEOUT_S = 5.0

#: Reconnect attempts per address after a mid-run disconnect.
RECONNECT_ATTEMPTS = 10
RECONNECT_BACKOFF_S = 0.2
RECONNECT_BACKOFF_CAP_S = 2.0

#: Verdicts of one shard dispatch (DESIGN.md §15's failure table).
#: The shard ran; its values are delivered.
OK = "ok"
#: A task raised on the worker (``SHARD_ERR``): delivered once as a
#: failed outcome, never redispatched — the coordinator isolates and
#: retries it under its ``MAX_RETRIES``.
TASK_ERROR = "task_error"
#: Lost connection, CRC/truncated/garbled frame, heartbeat silence,
#: wrong shard id: the connection is dropped and the shard requeued
#: for a peer while ``REDISPATCH_BUDGET`` lasts.
TRANSPORT_ERROR = "transport_error"


class _FleetRun:
    """Shared dispatch state for one ``run_shards`` call.

    Tracks, under one lock, which shards are pending and delivered,
    plus per-shard dispatch counts for the redispatch budget.  Exactly
    one outcome is ever delivered per shard — late duplicates are
    dropped here.
    """

    def __init__(self, shards, max_dispatches: int) -> None:
        self.shards = shards
        self.max_dispatches = max_dispatches
        self.lock = threading.Lock()
        self.pending: "collections.deque" = collections.deque(
            range(len(shards)))
        self.dispatches = [0] * len(shards)
        self.delivered: Set[int] = set()
        self.outcomes: "queue.Queue" = queue.Queue()
        self.aborted = False

    def finished(self) -> bool:
        with self.lock:
            return len(self.delivered) == len(self.shards)

    def claim(self) -> Optional[int]:
        """Next undelivered pending shard id, or ``None``."""
        with self.lock:
            while self.pending:
                shard_id = self.pending.popleft()
                if shard_id in self.delivered:
                    continue
                self.dispatches[shard_id] += 1
                return shard_id
            return None

    def deliver(self, shard_id: int, outcome: ShardOutcome) -> bool:
        """Publish an outcome; False when the shard already delivered."""
        with self.lock:
            if shard_id in self.delivered:
                return False
            self.delivered.add(shard_id)
            self.outcomes.put((shard_id, outcome))
            return True

    def requeue(self, shard_id: int, error: str) -> bool:
        """A dispatch hit a transport error: requeue, or give up.

        Returns True when the shard went back to ``pending`` (budget
        left: a peer will re-run it).  With the budget spent, a failed
        outcome carrying ``error`` is delivered instead — the
        coordinator isolates its tasks locally — and the result is
        False.
        """
        with self.lock:
            if shard_id in self.delivered:
                return False
            if self.dispatches[shard_id] >= self.max_dispatches:
                self.delivered.add(shard_id)
                self.outcomes.put((shard_id, ShardOutcome(error=error)))
                return False
            self.pending.append(shard_id)
            return True


class SocketExecutor(Executor):
    """Run shards on remote worker processes over the wire protocol."""

    name = "socket"

    #: Even a one-shard sweep must cross the wire: running it inline
    #: would silently mask an unreachable or broken fleet.
    inline_when_serial = False

    def __init__(self, addresses: List[Tuple[str, int]]) -> None:
        if not addresses:
            raise ExecutorError("socket executor needs at least one worker")
        self.addresses = list(addresses)

    def shard_count(self, workers: int, nmisses: int) -> int:
        # At least one shard per worker; more when the caller asked
        # for more parallelism than there are workers (shards queue up
        # and drain by worker speed).
        return min(max(workers, len(self.addresses)), nmisses)

    # ------------------------------------------------------------------
    def run_shards(
        self, shards: List[List[SimTask]]
    ) -> Iterator[Tuple[int, ShardOutcome]]:
        state = _FleetRun(shards, 1 + REDISPATCH_BUDGET)
        status: "queue.Queue" = queue.Queue()
        threads = [
            threading.Thread(
                target=self._serve_address,
                args=(address, state, status),
                daemon=True,
            )
            for address in self.addresses
        ]
        for thread in threads:
            thread.start()

        # Fail loudly if the whole fleet is unreachable: every address
        # reports its first handshake outcome exactly once.
        connected = 0
        connect_errors = []
        for _ in self.addresses:
            ok, address, error = status.get()
            if ok:
                connected += 1
            else:
                connect_errors.append(f"{address[0]}:{address[1]}: {error}")
        if not connected:
            state.aborted = True
            raise ExecutorError(
                "no socket worker reachable — start workers with "
                "'python -m repro.parallel worker --listen HOST:PORT' "
                "(" + "; ".join(connect_errors) + ")"
            )

        delivered = 0
        try:
            while delivered < len(shards):
                try:
                    shard_index, outcome = state.outcomes.get(timeout=0.2)
                except queue.Empty:
                    if any(thread.is_alive() for thread in threads):
                        continue
                    # Every connection died with work unfinished.
                    # Raising (rather than yielding failed outcomes)
                    # lets the coordinator degrade the *rest of the
                    # sweep* to the local pool in one step instead of
                    # isolating tasks one by one against a fleet that
                    # is gone.
                    raise ExecutorError(
                        f"socket fleet lost mid-sweep: every worker "
                        f"connection died with {len(shards) - delivered} "
                        f"shard(s) unfinished"
                    )
                delivered += 1
                yield shard_index, outcome
        finally:
            # Finished, lost, or abandoned by a caller that stopped
            # reading: either way no dispatch thread claims another shard.
            state.aborted = True

    def run_one(self, task):
        """Isolation re-runs happen *locally*, in a one-task pool.

        The remote path just failed for this task's shard; retrying it
        over the same wire would conflate worker health with task
        health.  The local pool gives crash containment, matching the
        ``process`` backend.
        """
        return LOCAL_POOL.run_one(task)

    # ------------------------------------------------------------------
    def _serve_address(self, address, state: _FleetRun, status) -> None:
        """One worker's dispatch loop: connect, claim, dispatch, heal."""
        worker_id = f"{address[0]}:{address[1]}"
        bus = active_bus()
        conn: Optional[socket.socket] = None
        reported = False
        reconnects = 0

        def report(ok: bool, error: Optional[str]) -> None:
            """First handshake outcome, exactly once per address."""
            nonlocal reported
            if not reported:
                status.put((ok, address, error))
                reported = True

        try:
            while not state.finished() and not state.aborted:
                if conn is None:
                    try:
                        conn = wire.dial(address, CONNECT_TIMEOUT_S,
                                         who="worker")
                    except (OSError, wire.WireError) as exc:
                        if not reported:
                            # First connect failed: report and give up
                            # this address — run_shards fast-fails a
                            # fully unreachable fleet off these reports.
                            report(False, str(exc))
                            return
                        reconnects += 1
                        if reconnects >= RECONNECT_ATTEMPTS:
                            return  # address is gone for good
                        time.sleep(min(
                            RECONNECT_BACKOFF_S * (2 ** (reconnects - 1)),
                            RECONNECT_BACKOFF_CAP_S,
                        ))
                        continue
                    report(True, None)
                shard_id = state.claim()
                if shard_id is None:
                    if state.finished():
                        break
                    time.sleep(0.02)  # stragglers in flight elsewhere
                    continue
                outcome, verdict = self._dispatch(
                    conn, shard_id, state.shards[shard_id], worker_id)
                if verdict in (OK, TASK_ERROR):
                    state.deliver(shard_id, outcome)
                    continue
                # Connection is unusable from here on.
                wire.close_quietly(conn)
                conn = None
                requeued = state.requeue(shard_id,
                                         outcome.error or "worker failed")
                if requeued and bus is not None:
                    bus.count("executor.redispatches")
            if conn is not None:
                try:
                    wire.send_frame(conn, wire.MSG_SHUTDOWN)
                except OSError:
                    pass
        finally:
            report(False, "dispatch thread exited")
            if conn is not None:
                wire.close_quietly(conn)

    def _dispatch(self, conn, shard_index, shard,
                  worker_id: str) -> Tuple[ShardOutcome, str]:
        """Send one shard and await its outcome.

        Returns ``(outcome, verdict)`` with the verdict one of
        :data:`OK`, :data:`TASK_ERROR` or :data:`TRANSPORT_ERROR`
        (infrastructure: a healthy peer may well succeed); the
        connection stays usable after the first two only.  Heartbeats
        keep the per-frame recv deadline alive.  STATS heartbeat
        payloads are forwarded to the telemetry bus when the plane is
        on — purely observational, never part of the outcome.
        """
        bus = active_bus()
        try:
            wire.send_pickle(conn, wire.MSG_SHARD, (shard_index, shard))
            while True:
                msg_type, payload = wire.recv_frame(
                    conn, timeout_s=wire.HEARTBEAT_TIMEOUT_S)
                if msg_type == wire.MSG_HEARTBEAT:
                    if bus is not None and payload:
                        try:
                            stats = wire.recv_json(payload)
                        except wire.WireError:
                            continue  # legacy/corrupt beat: liveness only
                        bus.publish_worker(worker_id, stats)
                    continue
                if msg_type == wire.MSG_RESULT:
                    try:
                        result_id, values = pickle.loads(payload)
                    except Exception as exc:
                        # A garbled payload under an intact header can
                        # raise nearly anything from pickle.loads —
                        # all of it means "cannot trust this connection".
                        return ShardOutcome(
                            error=f"undecodable RESULT frame: {exc}"
                        ), TRANSPORT_ERROR
                    if result_id != shard_index:
                        return ShardOutcome(error=(
                            f"worker answered shard {result_id}, "
                            f"expected {shard_index}"
                        )), TRANSPORT_ERROR
                    return ShardOutcome(values=values), OK
                if msg_type == wire.MSG_SHARD_ERR:
                    body = wire.recv_json(payload)
                    return ShardOutcome(
                        error=str(body.get("error", "unknown worker error"))
                    ), TASK_ERROR
                if msg_type == wire.MSG_REFUSED:
                    return ShardOutcome(
                        error=f"worker refused shard: "
                              f"{wire.recv_json(payload).get('error')}"
                    ), TRANSPORT_ERROR
                return ShardOutcome(
                    error=f"unexpected message {msg_type} from worker"
                ), TRANSPORT_ERROR
        except (OSError, wire.WireError, pickle.PickleError) as exc:
            return ShardOutcome(
                error=f"socket worker failed mid-shard: {exc}"
            ), TRANSPORT_ERROR
