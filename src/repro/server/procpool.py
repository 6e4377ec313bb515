"""Process workers: engine replicas in forked children.

Thread workers share one interpreter; for pure-Python structures whose
lookups never release the GIL, :class:`ProcessWorkerPool` runs each
replica in its own forked process instead.  The protocol is built on
*snapshot shipping*: a worker never shares memory with the committed
structure — it holds its own rebuild from the last shipped FIB
snapshot (``(bits, length, hop)`` triples), compiles its own plan, and
serves address batches over a bounded per-worker task queue.  With
``ship_deltas`` (the default), committed batches ship only their net
*delta* — sequence-chained wire ops a worker applies to its local
mirror and absorbs via the engine's plan-patching path — and full
snapshots remain the resync mechanism for restarted or lagging
workers.

Consistency matches the thread pool exactly, enforced at the dispatch
side:

* batches are dispatched inside the :class:`~repro.server.pool.CommitGate`
  read section and tagged with the serving epoch;
* a commit (gate write side held by the server) waits for every
  in-flight batch to come back, ships the new snapshot to every
  worker, and waits for their acks — per-worker queues are FIFO, so a
  worker can never serve a post-commit batch from a pre-commit table.

Fault tolerance (new in the supervision layer):

* a **liveness monitor** thread watches the children; a worker that
  dies (chaos kill, OOM, a real crash) has its in-flight batches
  popped and handed — still unscattered — to the ``on_worker_exit``
  callback, so the supervisor can re-queue them on surviving workers
  and :meth:`restart_worker` the dead one.  A restarted worker forks
  fresh from the **latest shipped snapshot**, so it re-joins already
  in sync with the serving epoch;
* a worker that fails to **ack a snapshot** within ``ack_timeout_s``
  (a delayed/dropped ack, the hardest commit-window fault) is killed
  and reported the same way instead of stalling every commit forever
  — the restart rebuilds it from the very snapshot it failed to ack;
* :meth:`close` is idempotent and safe against concurrent
  ``submit``/``close`` calls.

Requires the ``fork`` start method (no pickling of factories; the
child inherits the code image).  On platforms without it the
constructor raises :class:`~repro.server.coalescer.ServerError` and
callers fall back to threads.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import queue as queue_mod
import threading
from typing import Callable, Dict, List, Optional, Tuple

from ..obs.clock import MonotonicClock
from .coalescer import CoalescedBatch, PendingLookup, ServerError
from .pool import CommitGate

__all__ = ["ProcessWorkerPool", "WorkerDeath", "fib_snapshot"]

#: ``(bits, length, hop)`` triples — the wire format of a FIB snapshot.
Snapshot = List[Tuple[int, int, int]]

#: ``(bits, length, hop-or-None)`` triples — the wire format of a
#: commit delta (``None`` withdraws the prefix); the net effect of a
#: batch, from :meth:`~repro.control.FibDelta.wire_ops`.
WireDelta = List[Tuple[int, int, Optional[int]]]

#: Exit code a chaos-killed child dies with (visible in ``exitcode``).
CHAOS_EXIT = 23

#: How often the liveness monitor polls the children, seconds.
_MONITOR_POLL_S = 0.02


class WorkerDeath(ServerError):
    """A forked worker process died with batches in flight."""


def fib_snapshot(fib) -> Snapshot:
    """Serialise a :class:`~repro.prefix.Fib` into plain triples."""
    return [(prefix.bits, prefix.length, hop) for prefix, hop in fib]


def _snapshot_fib(width: int, snapshot: Snapshot):
    from ..prefix.prefix import Prefix
    from ..prefix.trie import Fib

    fib = Fib(width)
    for bits, length, hop in snapshot:
        fib.insert(Prefix.from_bits(bits, length, width), hop)
    return fib


def _build_engine(width: int, factory, snapshot: Snapshot,
                  backend: str, cache_size: int):
    from ..engine.engine import BatchEngine

    fib = _snapshot_fib(width, snapshot)
    return BatchEngine(factory(fib), backend=backend,
                       cache_size=cache_size), fib


def _apply_wire(fib, wire: WireDelta, width: int):
    """Apply net wire ops to a local FIB mirror; the resulting
    :class:`~repro.control.FibDelta` carries the prev hops."""
    from ..control.churn import ANNOUNCE, WITHDRAW
    from ..control.delta import DeltaOp, FibDelta
    from ..prefix.prefix import Prefix

    ops = []
    for bits, length, hop in wire:
        prefix = Prefix.from_bits(bits, length, width)
        prev = fib.get(prefix)
        if hop is None:
            if prev is not None:
                fib.delete(prefix)
            ops.append(DeltaOp(WITHDRAW, prefix, prev_hop=prev))
        else:
            fib.insert(prefix, hop)
            ops.append(DeltaOp(ANNOUNCE, prefix,
                               next_hop=hop, prev_hop=prev))
    return FibDelta(ops)


def _artifact_engine(width: int, factory, path: str, resync: WireDelta,
                     backend: str, cache_size: int):
    """Child-side warm start: mmap the catalog snapshot instead of
    rebuilding from pickled triples, then land the resync delta (the
    commits shipped since the artifact was written) on the loaded base.
    Raises a typed :class:`~repro.artifact.ArtifactError` on any
    tamper/corruption — the caller converts that into the worker-death
    path rather than ever serving off a bad file."""
    from ..artifact.catalog import ArtifactCatalog
    from ..artifact.errors import ArtifactDigestMismatch
    from ..engine.engine import BatchEngine

    loaded = ArtifactCatalog.load_path(path)
    if loaded.width != width:
        raise ArtifactDigestMismatch(
            f"{path!r}: artifact width {loaded.width} != pool width {width}")
    fib = loaded.fib()
    algo = loaded.algorithm(factory=factory)
    if resync:
        delta = _apply_wire(fib, resync, width)
        if algo.supports_delta:
            algo.apply_delta(delta)
        else:
            algo = factory(fib.copy())
    return BatchEngine(algo, backend=backend, cache_size=cache_size), fib


def _worker_main(worker_idx: int, width: int, factory, snapshot: Snapshot,
                 backend: str, cache_size: int, task_q, result_q,
                 chaos=None, batch_seq0: int = 0, commit_seq0: int = 0,
                 ship_seq0: int = 0, artifact=None) -> None:
    """Child body: rebuild from snapshots, answer address batches.

    ``chaos`` is a duck-typed dataplane fault plan
    (:class:`~repro.chaos.ChaosPlan`): ``batch_action(worker, seq)``
    may ask the child to hard-crash (``os._exit``) or raise inside a
    batch, ``ack_action(worker, seq)`` may delay or drop a
    snapshot-ack.  Sequence numbers continue across restarts
    (``batch_seq0``/``commit_seq0``), so a fault schedule is a pure
    function of the seed — replays are deterministic.

    ``ship_seq0`` anchors the commit-delta chain: each ``delta``
    message must carry exactly the next ship sequence number.  A gap
    means this worker missed a commit (it can never serve from that
    state) — it refuses to apply *and to ack*, so the parent's ack
    timeout converts it into the ordinary kill/restart path, and the
    restart re-syncs it from the latest full snapshot.

    ``artifact`` (``(path, resync_wire)``) warm-starts the child from
    an mmapped catalog snapshot instead of ``snapshot`` triples.  A
    failing artifact — corrupt, missing, tampered — is reported as
    ``artifact_fail`` and the child exits: the parent then poisons the
    artifact path so the supervisor's restart falls back to a plain
    snapshot fork, instead of crash-looping on a bad file.
    """
    from ..engine.engine import BatchEngine

    if artifact is not None:
        try:
            engine, fib = _artifact_engine(width, factory, artifact[0],
                                           artifact[1], backend, cache_size)
        except Exception as exc:  # noqa: BLE001 — report, fall back
            result_q.put(("artifact_fail", worker_idx, repr(exc)))
            return
    else:
        engine, fib = _build_engine(width, factory, snapshot, backend,
                                    cache_size)
    batch_seq, commit_seq = batch_seq0, commit_seq0
    ship_seq = ship_seq0
    # The child's own clock: parent and child monotonic clocks are not
    # comparable, so only the execute *duration* is shipped back (a
    # compact span record riding alongside the answers).
    clock = MonotonicClock()

    def maybe_ack() -> None:
        """Ack a ship, honouring chaos delay/drop; returns via the
        enclosing ``continue`` either way."""
        if action is not None:
            delay_s, drop = action
            if drop:
                # Simulate a hung worker: never ack.  The parent's
                # ack timeout kills and restarts us.
                return
            if delay_s:
                clock.sleep(delay_s)
        result_q.put(("ack", worker_idx))

    while True:
        message = task_q.get()
        kind = message[0]
        if kind == "stop":
            result_q.put(("bye", worker_idx))
            return
        if kind == "snapshot":
            action = (chaos.ack_action(worker_idx, commit_seq)
                      if chaos is not None else None)
            commit_seq += 1
            engine, fib = _build_engine(width, factory, message[2],
                                        backend, cache_size)
            ship_seq = message[1]
            maybe_ack()
            continue
        if kind == "reload":
            # Blue/green: become the new catalog version wholesale.
            # Like "snapshot", a reload is a full resync — it resets
            # the ship chain rather than extending it.
            action = (chaos.ack_action(worker_idx, commit_seq)
                      if chaos is not None else None)
            commit_seq += 1
            try:
                engine, fib = _artifact_engine(width, factory, message[2],
                                               [], backend, cache_size)
            except Exception as exc:  # noqa: BLE001 — report, don't ack
                result_q.put(("artifact_fail", worker_idx, repr(exc)))
                return
            ship_seq = message[1]
            maybe_ack()
            continue
        if kind == "delta":
            action = (chaos.ack_action(worker_idx, commit_seq)
                      if chaos is not None else None)
            commit_seq += 1
            seq, wire = message[1], message[2]
            if seq != ship_seq + 1:
                # Broken chain: a commit never reached this worker.
                # Applying would serve a wrong table; never ack.
                continue
            ship_seq = seq
            delta = _apply_wire(fib, wire, width)
            try:
                algo = engine.algo
                if algo.supports_delta:
                    algo.apply_delta(delta)
                    engine.refresh(algo, delta.prefixes(), delta=delta)
                else:
                    engine = BatchEngine(factory(fib.copy()),
                                         backend=backend,
                                         cache_size=cache_size)
            except Exception:  # noqa: BLE001 — resync, don't diverge
                # Any delta-apply failure: rebuild from the (already
                # updated) local FIB mirror — correct by construction.
                engine = BatchEngine(factory(fib.copy()),
                                     backend=backend, cache_size=cache_size)
            maybe_ack()
            continue
        _kind, batch_id, addresses = message
        action = (chaos.batch_action(worker_idx, batch_seq)
                  if chaos is not None else None)
        batch_seq += 1
        try:
            if action == "crash":
                # A hard worker death: no cleanup, no reply — the
                # parent's liveness monitor must notice on its own.
                os._exit(CHAOS_EXIT)
            if action == "raise":
                raise ServerError(
                    f"[chaos] injected batch exception on worker "
                    f"{worker_idx} (batch seq {batch_seq - 1})")
            t0 = clock.now()
            hops = engine.lookup_batch(addresses)
            execute_s = clock.now() - t0
        except Exception as exc:  # noqa: BLE001 — report, don't die
            result_q.put(("error", batch_id, repr(exc)))
        else:
            result_q.put(("hops", batch_id, hops, execute_s))


class ProcessWorkerPool:
    """Round-robin dispatch over N forked engine replicas."""

    def __init__(
        self,
        width: int,
        factory: Callable,
        snapshot: Snapshot,
        *,
        workers: int = 2,
        queue_depth: int = 32,
        overload: str = "block",
        gate: Optional[CommitGate] = None,
        epoch_of: Optional[Callable[[], int]] = None,
        on_done: Optional[Callable[[CoalescedBatch,
                                    List[PendingLookup]], None]] = None,
        on_depth: Optional[Callable[[int], None]] = None,
        on_error: Optional[Callable[[Optional[CoalescedBatch],
                                     BaseException], None]] = None,
        on_worker_exit: Optional[Callable[[int, BaseException,
                                           List[CoalescedBatch]],
                                          None]] = None,
        backend: str = "plan",
        cache_size: int = 0,
        ack_timeout_s: float = 60.0,
        chaos=None,
        clock=None,
        ship_deltas: bool = True,
        on_ship: Optional[Callable[[str, int], None]] = None,
        artifact: Optional[str] = None,
    ):
        if workers < 1:
            raise ValueError("need at least one worker")
        if overload not in ("block", "shed"):
            raise ValueError(f"unknown overload policy {overload!r}")
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX
            raise ServerError(
                "process workers need the fork start method") from exc
        self.gate = gate if gate is not None else CommitGate()
        self.overload = overload
        self._epoch_of = epoch_of or (lambda: 0)
        self._on_done = on_done
        self._on_depth = on_depth
        self._on_error = on_error
        self._on_worker_exit = on_worker_exit
        self._ack_timeout_s = ack_timeout_s
        self._chaos = chaos
        #: Optional clock for parent-side span phase marks.
        self._clock = clock
        self._width = width
        self._factory = factory
        self._backend = backend
        self._cache_size = cache_size
        self._queue_depth = queue_depth
        self._snapshot: Snapshot = snapshot
        #: Whether commits ship per-batch deltas (with full-snapshot
        #: resync for restarted workers) instead of whole snapshots.
        self.ship_deltas = ship_deltas
        #: ``on_ship(kind, nbytes)`` — observer for shipped payload
        #: sizes (``kind`` is ``"snapshot"`` or ``"delta"``).
        self._on_ship = on_ship
        #: Parent-side FIB mirror: kept current across shipped deltas
        #: so a restarted worker can always fork from a full, fresh
        #: snapshot even when commits only shipped deltas.
        self._table: Dict[Tuple[int, int], int] = {
            (bits, length): hop for bits, length, hop in snapshot}
        self._snapshot_dirty = False
        #: Catalog snapshot children warm-start from (mmap) instead of
        #: unpickling ``snapshot``; its FIB must equal ``snapshot`` at
        #: construction.  Forks after commits carry a resync delta —
        #: the diff from the artifact's base to the current mirror.
        #: Poisoned (set to None) if a child ever fails to load it.
        self._artifact_path = artifact
        self._artifact_base: Dict[Tuple[int, int], int] = (
            dict(self._table) if artifact else {})
        #: Ship-sequence chain: every shipped snapshot or delta bumps
        #: it; children verify the chain per delta message.
        self._ship_seq = 0
        self._n = workers
        self._task_qs: List = [self._ctx.Queue(queue_depth)
                               for _ in range(workers)]
        self._result_q = self._ctx.Queue()
        self._procs: List[Optional[multiprocessing.Process]] = [
            None] * workers
        # Per-worker (batch, commit) sequence counters, carried across
        # restarts so chaos schedules stay a pure function of the seed.
        self._batch_seqs = [0] * workers
        self._commit_seqs = [0] * workers
        self._collector: Optional[threading.Thread] = None
        self._monitor: Optional[threading.Thread] = None
        self._monitor_stop = threading.Event()
        self._ids = itertools.count()
        self._rr = 0
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        #: batch_id -> (batch, epoch, worker)
        self._inflight: Dict[int, Tuple[CoalescedBatch, int, int]] = {}
        self._acked: set = set()
        self._started = False
        self._closed = False
        self._lifecycle = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        return self._n

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._inflight)

    def alive(self) -> bool:
        return any(p is not None and p.is_alive() for p in self._procs)

    def alive_workers(self) -> int:
        return sum(1 for p in self._procs if p is not None and p.is_alive())

    def worker_alive(self, worker: int) -> bool:
        proc = self._procs[worker]
        return proc is not None and proc.is_alive()

    # ------------------------------------------------------------------
    def start(self) -> None:
        with self._lifecycle:
            if self._started:
                return
            self._started = True
            for i in range(self._n):
                self._spawn(i)
            self._collector = threading.Thread(
                target=self._collect, name="repro-serve-collector",
                daemon=True)
            self._collector.start()
            self._monitor = threading.Thread(
                target=self._watch, name="repro-serve-monitor", daemon=True)
            self._monitor.start()

    def _current_snapshot(self) -> Snapshot:
        """The latest full snapshot, re-materialised from the parent
        mirror when deltas have been shipped since the last one (caller
        holds ``_lifecycle``)."""
        if self._snapshot_dirty:
            self._snapshot = sorted(
                (bits, length, hop)
                for (bits, length), hop in self._table.items())
            self._snapshot_dirty = False
        return self._snapshot

    def _artifact_resync(self) -> WireDelta:
        """Net wire ops from the artifact's base table to the current
        mirror (caller holds ``_lifecycle``): what a warm-started fork
        must land on the loaded base to reach the serving epoch."""
        wire: WireDelta = []
        for key in self._artifact_base:
            if key not in self._table:
                wire.append((key[0], key[1], None))
        for key, hop in self._table.items():
            if self._artifact_base.get(key) != hop:
                wire.append((key[0], key[1], hop))
        wire.sort(key=lambda triple: (triple[0], triple[1]))
        return wire

    def _spawn(self, worker: int) -> None:
        """Fork worker ``worker`` from the latest snapshot (caller
        holds ``_lifecycle`` or runs before any concurrency).  The
        fresh fork is in sync by construction: it carries the current
        ship sequence and the table every shipped delta summed to.
        With an artifact attached, the child mmaps the catalog
        snapshot and applies the resync delta instead of unpickling
        the whole table."""
        if self._artifact_path is not None:
            snapshot: Snapshot = []
            artifact = (self._artifact_path, self._artifact_resync())
        else:
            snapshot = self._current_snapshot()
            artifact = None
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker, self._width, self._factory, snapshot,
                  self._backend, self._cache_size,
                  self._task_qs[worker], self._result_q,
                  self._chaos, self._batch_seqs[worker],
                  self._commit_seqs[worker], self._ship_seq, artifact),
            name=f"repro-serve-p{worker}", daemon=True)
        self._procs[worker] = proc
        proc.start()

    def restart_worker(self, worker: int) -> bool:
        """Fork a replacement for a dead worker from the latest
        shipped snapshot (epoch re-sync is free: the snapshot *is* the
        serving epoch's table).  ``False`` if it is still alive or the
        pool is closed."""
        with self._lifecycle:
            if self._closed or not self._started:
                return False
            if not 0 <= worker < self._n:
                return False
            if self.worker_alive(worker):
                return False
            # A fresh task queue: messages queued to the dead child
            # (including its stop sentinel, if any) must not leak into
            # the replacement.
            self._task_qs[worker] = self._ctx.Queue(self._queue_depth)
            self._spawn(worker)
            return True

    def kill_worker(self, worker: int) -> bool:
        """Hard-kill a child (chaos/benchmarks): SIGTERM, no cleanup.

        The liveness monitor notices the death, reports the orphaned
        batches, and the supervisor restarts the worker — exactly the
        path a real crash takes.
        """
        proc = self._procs[worker]
        if proc is None or not proc.is_alive():
            return False
        proc.terminate()
        return True

    # ------------------------------------------------------------------
    def submit(self, batch: CoalescedBatch) -> bool:
        """Dispatch a batch to the next live worker (inside the gate)."""
        if not self._started or self._closed:
            raise ServerError("worker pool is not running")
        clock = self._clock
        meta = batch.meta
        if clock is not None:
            meta["gate_wait_from"] = clock.now()
        with self.gate.read():
            epoch = self._epoch_of()
            if clock is not None:
                meta["gate_at"] = clock.now()
            with self._lock:
                worker = self._next_live_worker()
                if worker is None:
                    # Total outage: every child is down (restarts
                    # pending).  Refuse rather than queue into a void.
                    return False
                batch_id = next(self._ids)
                self._inflight[batch_id] = (batch, epoch, worker)
            if clock is not None:
                meta["worker"] = worker
            message = ("batch", batch_id, batch.addresses)
            task_q = self._task_qs[worker]
            if self.overload == "shed":
                try:
                    task_q.put_nowait(message)
                except queue_mod.Full:
                    with self._lock:
                        self._inflight.pop(batch_id, None)
                        self._idle.notify_all()
                    return False
            else:
                task_q.put(message)
            if clock is not None:
                meta["dispatched_at"] = clock.now()
            with self._lock:
                self._batch_seqs[worker] += 1
        self._note_depth()
        return True

    def _next_live_worker(self) -> Optional[int]:
        """Round-robin over live workers (caller holds ``_lock``)."""
        for _ in range(self._n):
            worker = self._rr
            self._rr = (self._rr + 1) % self._n
            if self.worker_alive(worker):
                return worker
        return None

    def requeue(self, batch: CoalescedBatch) -> bool:
        """Re-dispatch an orphaned batch from a dead worker.

        Goes through the normal gated dispatch (so it executes under —
        and is tagged with — the *current* epoch: the original worker
        never scattered anything, so a single delivery at the newer
        epoch is still exactly-once and consistent).  Fails the batch
        instead of dropping it when no dispatch is possible.
        """
        batch.meta["retries"] = batch.meta.get("retries", 0) + 1
        try:
            if not self.submit(batch):
                batch.fail(ServerError(
                    "worker died and no live worker could take its batch"))
                return False
        except ServerError as exc:
            batch.fail(exc)
            return False
        return True

    # ------------------------------------------------------------------
    def on_commit(self, outcome: str, algo, touched,
                  snapshot: Optional[Snapshot] = None,
                  delta=None) -> None:
        """Ship the commit to every worker and wait for their acks.
        Must run with the gate's write side held, so no new batch can
        be dispatched while the fleet re-synchronises.

        With ``ship_deltas`` and a committed
        :class:`~repro.control.FibDelta`, only the batch's net wire
        ops ship — tagged with the next ship-sequence number so a
        worker that ever misses a commit refuses the broken chain (and
        its ack), falling into the kill/restart path below.  Restarts,
        and commits without a delta (rebuilds), ship a full snapshot,
        re-materialised from the parent's own FIB mirror.

        A worker that does not ack within ``ack_timeout_s`` (hung, or
        a chaos-dropped ack) is killed: the liveness monitor reports
        it and the supervisor's restart rebuilds it from the latest
        snapshot, so the fleet still converges instead of stalling
        every future commit.
        """
        if snapshot is None and delta is None:
            raise ServerError("process workers need a FIB snapshot or "
                              "commit delta to refresh from (serve over "
                              "a ManagedFib)")
        self._wait_idle()
        # _lifecycle serialises the snapshot swap against
        # restart_worker: a restart either finishes its fork first
        # (the worker is alive here, lands in ``live`` and is shipped
        # the new snapshot) or starts after the swap (and forks from
        # it) — a replacement can never come up serving a stale table
        # at the new epoch.
        with self._lifecycle:
            self._ship_seq += 1
            if delta is not None and self.ship_deltas:
                wire = delta.wire_ops()
                for bits, length, hop in wire:
                    if hop is None:
                        self._table.pop((bits, length), None)
                    else:
                        self._table[(bits, length)] = hop
                self._snapshot_dirty = True
                message = ("delta", self._ship_seq, wire)
            else:
                if snapshot is not None:
                    self._snapshot = snapshot
                    self._table = {(bits, length): hop
                                   for bits, length, hop in snapshot}
                    self._snapshot_dirty = False
                message = ("snapshot", self._ship_seq,
                           self._current_snapshot())
            live = self._ship(message)
        self._await_acks(live)

    def reload_artifact(self, path: str, snapshot: Snapshot) -> None:
        """Blue/green flip: every worker becomes the catalog snapshot
        at ``path`` (whose FIB is ``snapshot``).  Must run with the
        gate's write side held, exactly like :meth:`on_commit`.

        The parent swaps its artifact reference, FIB mirror and full
        snapshot *before* shipping the reload, so a worker that dies
        mid-reload is restarted from the new catalog version — there
        is no window in which a restart forks the old table.  Workers
        that hang on the reload ack are killed into that same path.
        """
        self._wait_idle()
        with self._lifecycle:
            self._ship_seq += 1
            self._artifact_path = path
            self._artifact_base = {(bits, length): hop
                                   for bits, length, hop in snapshot}
            self._table = dict(self._artifact_base)
            self._snapshot = sorted(snapshot)
            self._snapshot_dirty = False
            live = self._ship(("reload", self._ship_seq, path))
        self._await_acks(live)

    def _ship(self, message) -> List[int]:
        """Queue ``message`` to every live worker and return them
        (caller holds ``_lifecycle``)."""
        if self._on_ship is not None:
            self._on_ship(message[0], len(pickle.dumps(message)))
        with self._lock:
            self._acked = set()
            live = [i for i in range(self._n) if self.worker_alive(i)]
            for worker in live:
                self._commit_seqs[worker] += 1
        for worker in live:
            self._task_qs[worker].put(message)
        return live

    def _await_acks(self, live: List[int]) -> None:
        """Wait up to ``ack_timeout_s`` for the shipped workers' acks,
        then kill the laggards."""
        with self._idle:
            self._idle.wait_for(
                lambda: self._acked >= set(
                    w for w in live if self.worker_alive(w)),
                timeout=self._ack_timeout_s)
            laggards = [w for w in live
                        if w not in self._acked and self.worker_alive(w)]
        for worker in laggards:
            # Killing it converts "hung on ack" into the ordinary
            # worker-death path: monitor -> on_worker_exit -> restart
            # from the snapshot (or artifact) it failed to ack.
            self.kill_worker(worker)

    def _wait_idle(self) -> None:
        with self._idle:
            if not self._idle.wait_for(lambda: not self._inflight,
                                       timeout=self._ack_timeout_s):
                raise ServerError("in-flight batches failed to drain")

    # ------------------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        with self._lifecycle:
            if not self._started or self._closed:
                self._closed = True
                return
            self._closed = True
        if drain:
            try:
                self._wait_idle()
            except ServerError:  # pragma: no cover - crashed mid-drain
                pass
        self._monitor_stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=10)
        for worker in range(self._n):
            if self.worker_alive(worker):
                self._task_qs[worker].put(("stop",))
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
        self._result_q.put(("collector-stop",))
        if self._collector is not None:
            self._collector.join(timeout=10)
        with self._lock:
            leftovers = [batch for batch, _, _ in self._inflight.values()]
            self._inflight.clear()
        error = ServerError("server closed before serving")
        for batch in leftovers:
            batch.fail(error)
        self._note_depth()

    # ------------------------------------------------------------------
    def _note_depth(self) -> None:
        if self._on_depth is not None:
            self._on_depth(self.queue_depth())

    def _watch(self) -> None:
        """Liveness monitor: turn silent child deaths into supervised
        worker-exit events with their orphaned batches attached."""
        while not self._monitor_stop.wait(_MONITOR_POLL_S):
            for worker in range(self._n):
                proc = self._procs[worker]
                if proc is None or proc.is_alive():
                    continue
                if self._closed:
                    # Closing: no restarts, but the dead worker's
                    # in-flight batches must still be swept and failed
                    # or close()'s drain waits out its whole timeout
                    # on entries nobody will ever complete.
                    self._fail_worker_inflight(worker)
                    continue
                exitcode = proc.exitcode
                # Mark handled before callbacks: restart_worker will
                # install a fresh process (or leave it down if the
                # budget is spent).
                self._procs[worker] = None
                with self._lock:
                    orphan_ids = [bid for bid, (_b, _e, w)
                                  in self._inflight.items() if w == worker]
                    orphans = [self._inflight.pop(bid)[0]
                               for bid in orphan_ids]
                    if not self._inflight:
                        self._idle.notify_all()
                    self._acked.add(worker)  # never block a commit on it
                    self._idle.notify_all()
                exc = WorkerDeath(
                    f"worker {worker} died (exit code {exitcode}) with "
                    f"{len(orphans)} batch(es) in flight")
                # Hand the death to a short-lived reaper thread: the
                # supervisor's requeue re-enters submit(), which blocks
                # on gate.read() while a commit holds the write side —
                # if that happened *on this thread*, the monitor would
                # stop sweeping and a second dead worker's in-flight
                # batches would never drain, wedging the commit's
                # _wait_idle until its timeout.
                threading.Thread(
                    target=self._report_exit, args=(worker, exc, orphans),
                    name=f"repro-serve-reaper-{worker}", daemon=True,
                ).start()

    def _fail_worker_inflight(self, worker: int) -> None:
        """Sweep a dead worker's in-flight batches during close: mark
        the slot handled, fail the batches (no requeue, no restart)."""
        self._procs[worker] = None
        with self._lock:
            orphan_ids = [bid for bid, (_b, _e, w)
                          in self._inflight.items() if w == worker]
            orphans = [self._inflight.pop(bid)[0] for bid in orphan_ids]
            self._acked.add(worker)
            self._idle.notify_all()
        error = ServerError("server closed before serving")
        for batch in orphans:
            batch.fail(error)

    def _report_exit(self, worker: int, exc: BaseException,
                     orphans: List[CoalescedBatch]) -> None:
        """Deliver a worker death to the callbacks (off-monitor)."""
        if self._on_error is not None:
            self._on_error(orphans[0] if orphans else None, exc)
        if self._on_worker_exit is not None:
            self._on_worker_exit(worker, exc, orphans)
        else:
            for batch in orphans:
                batch.fail(exc)
        self._note_depth()

    def _collect(self) -> None:
        """Parent-side result loop: scatter answers, count acks."""
        while True:
            message = self._result_q.get()
            kind = message[0]
            if kind == "collector-stop":
                return
            if kind == "bye":
                continue
            if kind == "ack":
                with self._idle:
                    self._acked.add(message[1])
                    self._idle.notify_all()
                continue
            if kind == "artifact_fail":
                # A child could not materialise the catalog snapshot
                # (corrupt file, digest mismatch, ...).  Poison the
                # artifact so the supervisor's restart falls back to a
                # plain snapshot fork instead of crash-looping on the
                # same broken file; the dead child itself is handled
                # by the ordinary monitor -> restart path.
                self._artifact_path = None
                if self._on_error is not None:
                    self._on_error(None, ServerError(
                        f"worker {message[1]} artifact load failed: "
                        f"{message[2]}"))
                continue
            batch_id, payload = message[1], message[2]
            with self._lock:
                entry = self._inflight.pop(batch_id, None)
                if not self._inflight:
                    self._idle.notify_all()
            if entry is None:  # pragma: no cover - late result after close
                continue
            batch, epoch, _worker = entry
            if kind == "error":
                batch.fail(ServerError(f"worker failed: {payload}"))
                if self._on_error is not None:
                    self._on_error(batch, ServerError(payload))
            else:
                clock = self._clock
                if clock is not None:
                    batch.meta["done_at"] = clock.now()
                    if len(message) > 3:
                        # The child's compact span record: its own
                        # execute duration, shipped with the answers.
                        batch.meta["execute_s"] = message[3]
                finished = batch.complete(payload, epoch)
                if clock is not None:
                    batch.meta["scattered_at"] = clock.now()
                if self._on_done is not None:
                    self._on_done(batch, finished)
            self._note_depth()
