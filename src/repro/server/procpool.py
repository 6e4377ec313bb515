"""Forked replicas: the worker pool's engine slot, filled by a child process.

Thread workers share one interpreter; for pure-Python structures whose
lookups never release the GIL, a :class:`ForkedReplica` runs the
engine in its own forked process instead.  It is *not* a second pool:
it sits in :class:`~repro.server.pool.ThreadWorkerPool`'s engine slot
like a :class:`~repro.engine.BatchEngine` does, so dispatch, the
commit gate, orphan re-queue, restarts and shutdown are the pool's one
implementation.  What the replica adds is the transport:

* ``lookup_batch`` is a blocking round trip over a
  ``multiprocessing.Pipe`` — the worker thread holds the gate's read
  section across it (so a commit still waits out every in-flight
  batch) and the GIL is released while the child works;
* ``on_commit`` ships the commit — sequence-chained net *delta* wire
  ops when the runtime applied in place (``ship_deltas``), a full FIB
  snapshot (``(bits, length, hop)`` triples) otherwise, a ``reload``
  naming the catalog snapshot on a blue/green flip — and returns the
  ack wait, so the pool ships to every child before awaiting any and
  N children apply one commit in parallel;
* a dead or hung child surfaces as
  :class:`~repro.server.coalescer.WorkerCrash` out of ``lookup_batch``
  with the batch unscattered — exactly what a crashing in-thread
  engine raises — so the pool's orphan → ``on_worker_exit`` →
  ``requeue`` → ``restart_worker`` path handles it.  A child that dies
  *idle* costs the next batch it is handed one retry;
* a child that fails to **ack a commit** within ``ack_timeout_s`` (a
  delayed/dropped ack, a broken delta chain) is killed instead of
  stalling every later commit; the restart re-forks it from the very
  table it failed to ack.

:class:`ReplicaSource` is the parent-side state all replicas of one
server fork from: the FIB mirror every shipped commit summed to, the
catalog artifact (plus the resync delta from its base to the mirror)
children mmap instead of unpickling triples, and the ship-sequence
chain.  The pool's ``_lifecycle`` lock orders re-forks against commit
shipping, so a replacement can never come up serving a stale table at
the new epoch.

Requires the ``fork`` start method (no pickling of factories; the
child inherits the code image).  On platforms without it the source's
constructor raises :class:`~repro.server.coalescer.ServerError`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from typing import Callable, Dict, List, Optional, Tuple

from ..obs.clock import MonotonicClock
from .coalescer import ServerError, WorkerCrash

__all__ = ["ForkedReplica", "ReplicaSource", "fib_snapshot"]

#: ``(bits, length, hop)`` triples — the wire format of a FIB snapshot.
Snapshot = List[Tuple[int, int, int]]

#: ``(bits, length, hop-or-None)`` triples — the wire format of a
#: commit delta (``None`` withdraws the prefix); the net effect of a
#: batch, from :meth:`~repro.control.FibDelta.wire_ops`.
WireDelta = List[Tuple[int, int, Optional[int]]]

#: Exit code a chaos-killed child dies with (visible in ``exitcode``).
CHAOS_EXIT = 23

#: How long :meth:`ForkedReplica.close` waits for a child to exit on
#: ``stop`` before terminating it, seconds.
_STOP_TIMEOUT_S = 10.0


def fib_snapshot(fib) -> Snapshot:
    """Serialise a :class:`~repro.prefix.Fib` into plain triples."""
    return [(prefix.bits, prefix.length, hop) for prefix, hop in fib]


def _build_engine(width: int, factory, snapshot: Snapshot,
                  cache_size: int):
    from ..engine.engine import BatchEngine
    from ..prefix.prefix import Prefix
    from ..prefix.trie import Fib

    fib = Fib(width)
    for bits, length, hop in snapshot:
        fib.insert(Prefix.from_bits(bits, length, width), hop)
    return BatchEngine(factory(fib), cache_size=cache_size), fib


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
                     cache_size: int):
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
    return BatchEngine(algo, cache_size=cache_size), fib


def _replica_main(conn, worker_idx: int, width: int, factory,
                  snapshot: Snapshot, cache_size: int,
                  ship_seq0: int = 0, artifact=None, chaos=None,
                  batch_seq0: int = 0, commit_seq0: int = 0) -> None:
    """Child body: rebuild from snapshots, answer address batches.

    ``chaos`` is a duck-typed dataplane fault plan
    (:class:`~repro.chaos.ChaosPlan`): ``batch_action(worker, seq)``
    may ask the child to hard-crash (``os._exit``) or raise inside a
    batch, ``ack_action(worker, seq)`` may delay or drop a
    commit ack.  Sequence numbers continue across restarts
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

    Replies: ``ready`` (once, with the engine's ``active_backend``:
    ``"vector"`` unless its plan did not lower), then per message
    ``hops`` with the child's own execute duration (parent and child
    monotonic clocks are not comparable, so only the duration ships)
    or ``error`` for a batch, ``ack`` for a commit.
    """
    from ..engine.engine import BatchEngine

    if artifact is not None:
        try:
            engine, fib = _artifact_engine(width, factory, artifact[0],
                                           artifact[1], cache_size)
        except Exception as exc:  # noqa: BLE001 — report, fall back
            conn.send(("artifact_fail", repr(exc)))
            return
    else:
        engine, fib = _build_engine(width, factory, snapshot, cache_size)
    conn.send(("ready", engine.active_backend))
    batch_seq, commit_seq = batch_seq0, commit_seq0
    ship_seq = ship_seq0
    clock = MonotonicClock()

    while True:
        try:
            message = conn.recv()
        except EOFError:  # the parent is gone
            return
        kind = message[0]
        if kind == "stop":
            return
        if kind == "batch":
            action = (chaos.batch_action(worker_idx, batch_seq)
                      if chaos is not None else None)
            batch_seq += 1
            try:
                if action == "crash":
                    # A hard worker death: no cleanup, no reply — the
                    # parent sees the pipe close under its round trip.
                    os._exit(CHAOS_EXIT)
                if action == "raise":
                    raise ServerError(
                        f"[chaos] injected batch exception on worker "
                        f"{worker_idx} (batch seq {batch_seq - 1})")
                t0 = clock.now()
                hops = engine.lookup_batch(message[1])
                execute_s = clock.now() - t0
            except Exception as exc:  # noqa: BLE001 — report, don't die
                conn.send(("error", repr(exc)))
            else:
                conn.send(("hops", hops, execute_s))
            continue
        # A commit: ("snapshot" | "reload" | "delta", seq, payload).
        action = (chaos.ack_action(worker_idx, commit_seq)
                  if chaos is not None else None)
        commit_seq += 1
        seq, payload = message[1], message[2]
        if kind == "snapshot":
            engine, fib = _build_engine(width, factory, payload, cache_size)
        elif kind == "reload":
            # Blue/green: become the new catalog version wholesale.
            # Like "snapshot", a reload is a full resync — it resets
            # the ship chain rather than extending it.
            try:
                engine, fib = _artifact_engine(width, factory, payload,
                                               [], cache_size)
            except Exception as exc:  # noqa: BLE001 — report, don't ack
                conn.send(("artifact_fail", repr(exc)))
                return
        else:
            if seq != ship_seq + 1:
                # Broken chain: a commit never reached this worker.
                # Applying would serve a wrong table; never ack.
                continue
            delta = _apply_wire(fib, payload, width)
            try:
                algo = engine.algo
                if algo.supports_delta:
                    algo.apply_delta(delta)
                    engine.refresh(algo, delta.prefixes(), delta=delta)
                else:
                    engine = BatchEngine(factory(fib.copy()),
                                         cache_size=cache_size)
            except Exception:  # noqa: BLE001 — resync, don't diverge
                # Any delta-apply failure: rebuild from the (already
                # updated) local FIB mirror — correct by construction.
                engine = BatchEngine(factory(fib.copy()),
                                     cache_size=cache_size)
        ship_seq = seq
        if action is not None:
            delay_s, drop = action
            if drop:
                # Simulate a hung worker: never ack.  The parent's
                # ack timeout kills and restarts us.
                continue
            if delay_s:
                clock.sleep(delay_s)
        conn.send(("ack",))


class ReplicaSource:
    """What the forked replicas of one server are (re)created from.

    ``committed()`` returns ``(fib, artifact_path)`` — the table the
    server has committed and the catalog snapshot it was last flipped
    onto; it is called under the commit gate, when a commit has no
    delta to ship (a rebuild, ``ship_deltas=False``, a reload).
    ``ack_timeout_s`` bounds every wait on a child: a batch reply as
    much as a commit ack.
    """

    def __init__(
        self,
        fib,
        factory: Callable,
        *,
        cache_size: int = 0,
        artifact: Optional[str] = None,
        committed: Optional[Callable[[], Tuple]] = None,
        ship_deltas: bool = True,
        ack_timeout_s: float = 60.0,
        chaos=None,
        on_ship: Optional[Callable[[str, int], None]] = None,
        on_error: Optional[Callable[[None, BaseException], None]] = None,
    ):
        try:
            self.ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX
            raise ServerError(
                "process workers need the fork start method") from exc
        self.clock = MonotonicClock()  # real seconds: it times pipe waits
        self.ack_timeout_s = ack_timeout_s
        self.chaos = chaos
        #: Whether commits ship per-batch deltas (with full-snapshot
        #: resync for restarted workers) instead of whole snapshots.
        self.ship_deltas = ship_deltas
        self._width = fib.width
        self._factory = factory
        self._cache_size = cache_size
        self._committed = committed or (lambda: (None, None))
        #: ``on_ship(kind, nbytes)`` — observer for shipped payload
        #: sizes (``kind`` is ``"snapshot"``, ``"delta"`` or
        #: ``"reload"``), called after the mirror moved and before any
        #: child is sent the payload.
        self._on_ship = on_ship
        self._on_error = on_error
        #: Parent-side FIB mirror: kept current across shipped deltas
        #: so a restarted worker can always fork from a full, fresh
        #: snapshot even when commits only shipped deltas.
        self._table = self._mirror(fib_snapshot(fib))
        #: Catalog snapshot children warm-start from (mmap) instead of
        #: unpickling the mirror; its FIB must equal ``fib`` at
        #: construction.  Forks after commits carry a resync delta —
        #: the diff from the artifact's base to the current mirror.
        #: Poisoned (set to None) if a child ever fails to load it.
        self._artifact_path = artifact
        self._artifact_base: Dict[Tuple[int, int], int] = (
            dict(self._table) if artifact else {})
        #: Ship-sequence chain: every shipped commit bumps it;
        #: children verify the chain per delta message.
        self.seq = 0
        self._payload = b""

    @staticmethod
    def _mirror(snapshot: Snapshot) -> Dict[Tuple[int, int], int]:
        return {(bits, length): hop for bits, length, hop in snapshot}

    def _artifact_resync(self) -> WireDelta:
        """Net wire ops from the artifact's base table to the current
        mirror: what a warm-started fork must land on the loaded base
        to reach the serving epoch."""
        wire: WireDelta = []
        for key in self._artifact_base:
            if key not in self._table:
                wire.append((key[0], key[1], None))
        for key, hop in self._table.items():
            if self._artifact_base.get(key) != hop:
                wire.append((key[0], key[1], hop))
        wire.sort(key=lambda triple: (triple[0], triple[1]))
        return wire

    def fork_args(self) -> Tuple:
        """The table arguments of :func:`_replica_main` for a child
        forked now.  The fresh fork is in sync by construction: it
        carries the current ship sequence and the table every shipped
        commit summed to.  With an artifact attached, the child mmaps
        the catalog snapshot and applies the resync delta instead of
        unpickling the whole table."""
        if self._artifact_path is not None:
            snapshot: Snapshot = []
            artifact = (self._artifact_path, self._artifact_resync())
        else:
            snapshot = sorted((bits, length, hop) for (bits, length), hop
                              in self._table.items())
            artifact = None
        return (self._width, self._factory, snapshot, self._cache_size,
                self.seq, artifact)

    def step(self, seq: int, outcome: str, delta) -> bytes:
        """The pickled message taking a replica from ship sequence
        ``seq`` to ``seq + 1``.  The first replica to step off the
        current sequence stages the commit — moves the mirror, bumps
        the chain, pickles once — and its siblings reuse the payload.

        With ``ship_deltas`` and a committed
        :class:`~repro.control.FibDelta`, only the batch's net wire
        ops ship — tagged with the next ship-sequence number so a
        worker that ever misses a commit refuses the broken chain (and
        its ack).  Commits without a delta (rebuilds) ship a full
        snapshot of the committed FIB; a ``reload`` swaps the artifact
        reference and the mirror *before* anything ships, so a worker
        that dies mid-reload is restarted from the new catalog version
        — there is no window in which a restart forks the old table.
        """
        if seq != self.seq:
            return self._payload
        if delta is not None and self.ship_deltas:
            wire = delta.wire_ops()
            for bits, length, hop in wire:
                if hop is None:
                    self._table.pop((bits, length), None)
                else:
                    self._table[(bits, length)] = hop
            message = ("delta", seq + 1, wire)
        else:
            fib, artifact = self._committed()
            if fib is None:
                raise ServerError(
                    "process workers need a committed FIB or a commit "
                    "delta to refresh from (serve over a ManagedFib)")
            snapshot = fib_snapshot(fib)
            self._table = self._mirror(snapshot)
            if outcome == "reload":
                self._artifact_path = artifact
                self._artifact_base = dict(self._table)
                message = ("reload", seq + 1, artifact)
            else:
                message = ("snapshot", seq + 1, snapshot)
        self.seq = seq + 1
        self._payload = pickle.dumps(message)
        if self._on_ship is not None:
            self._on_ship(message[0], len(self._payload))
        return self._payload

    def artifact_failed(self, worker: int, detail: str) -> None:
        """A child could not materialise the catalog snapshot (corrupt
        file, digest mismatch, ...).  Poison the artifact so the
        supervisor's restart falls back to a plain snapshot fork
        instead of crash-looping on the same broken file."""
        self._artifact_path = None
        if self._on_error is not None:
            self._on_error(None, ServerError(
                f"worker {worker} artifact load failed: {detail}"))


class ForkedReplica:
    """One forked engine replica behind a pipe (see the module doc)."""

    def __init__(self, source: ReplicaSource, worker: int,
                 name: Optional[str] = None):
        self.source = source
        self.worker = worker
        self.name = name if name is not None else f"replica-{worker}"
        #: What the child's vector plan runs on (``"vector"`` or
        #: ``"plan"``), as its ``ready`` said (``None`` until a round
        #: trip has read one).
        self.active_backend: Optional[str] = None
        #: The child's own execute duration for the last batch it
        #: answered, seconds (its clock, so a duration only).
        self.last_execute_s: Optional[float] = None
        self._proc = None
        self._conn = None
        # One user of the pipe at a time: the worker thread's round
        # trips, the committer's ship and ack wait, restart and close.
        self._io = threading.Lock()
        self._seq = source.seq
        self._ack_deadline = 0.0
        # Batch/commit counters, carried across restarts so chaos
        # schedules stay a pure function of the seed.
        self._batch_seq = 0
        self._commit_seq = 0

    @property
    def alive(self) -> bool:
        return self._conn is not None and self._proc.is_alive()

    # -- the pool's optional hooks ---------------------------------------
    def restart(self) -> None:
        """(Re)fork the child from the source's current table.  The
        pool calls this under its ``_lifecycle`` lock, which also
        covers commit shipping: the fork either precedes a commit (and
        is shipped it) or follows the mirror's move (and forks from
        it)."""
        with self._io:
            self._reap()
            source = self.source
            conn, child_conn = source.ctx.Pipe()
            proc = source.ctx.Process(
                target=_replica_main,
                args=(child_conn, self.worker, *source.fork_args(),
                      source.chaos, self._batch_seq, self._commit_seq),
                name=f"repro-serve-p{self.worker}", daemon=True)
            proc.start()
            child_conn.close()  # ours would mask the child's EOF
            self._proc, self._conn = proc, conn
            self._seq = source.seq

    def close(self) -> None:
        """Stop the child and reap it (idempotent)."""
        with self._io:
            if self.alive:
                try:
                    self._conn.send(("stop",))
                except OSError:
                    pass
                self._proc.join(timeout=_STOP_TIMEOUT_S)
            self._reap()

    def kill(self) -> bool:
        """Hard-kill the child (chaos/tests): SIGTERM, no cleanup.
        Nothing watches idle children — the next round trip finds the
        pipe closed and takes the worker-death path a real crash
        takes."""
        if not self.alive:
            return False
        self._proc.terminate()
        return True

    def _reap(self) -> None:
        """Make sure the current child is gone and forget it (caller
        holds ``_io``)."""
        proc, conn = self._proc, self._conn
        self._proc = self._conn = None
        if conn is not None:
            conn.close()
        if proc is not None:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=_STOP_TIMEOUT_S)

    # -- the engine slot -------------------------------------------------
    def lookup_batch(self, addresses) -> List[Optional[int]]:
        with self._io:
            self._send(pickle.dumps(("batch", addresses)))
            self._batch_seq += 1
            reply = self._recv(self.source.ack_timeout_s)
        if reply[0] == "error":
            raise ServerError(f"worker failed: {reply[1]}")
        self.last_execute_s = reply[2]
        return reply[1]

    def on_commit(self, outcome: str, algo, touched, delta=None):
        """Ship the commit to the child; returns the ack wait (``None``
        when there is no live child to ship to — its restart forks
        from the mirror this commit already moved).  Must run with the
        gate's write side held, so no batch is mid round trip."""
        source = self.source
        payload = source.step(self._seq, outcome, delta)
        self._seq += 1
        with self._io:
            if not self.alive:
                return None
            try:
                self._send(payload)
            except WorkerCrash:
                return None
            self._commit_seq += 1
            self._ack_deadline = source.clock.now() + source.ack_timeout_s
        return self._await_ack

    def _await_ack(self) -> None:
        """Wait out the shipped commit's ack; a laggard (hung, a
        chaos-dropped ack, a refused delta chain) is killed, so the
        fleet converges instead of stalling every future commit — the
        next batch it is handed finds it dead and the restart rebuilds
        it from the table it failed to ack."""
        with self._io:
            try:
                self._recv(max(0.0, self._ack_deadline
                               - self.source.clock.now()))
            except WorkerCrash:
                pass

    # -- pipe I/O (caller holds ``_io``) -----------------------------------
    def _send(self, payload: bytes) -> None:
        conn = self._conn
        try:
            if conn is None:
                raise OSError("no child")
            conn.send_bytes(payload)
        except OSError as exc:
            self._crash(f"is gone ({exc})")

    def _recv(self, timeout: float):
        """The child's next reply (its ``ready`` is absorbed on the
        way); :class:`WorkerCrash` if it died, sent nothing for
        ``timeout`` seconds, or could not load its artifact."""
        conn = self._conn
        while True:
            try:
                if not conn.poll(timeout):
                    self._crash(f"sent nothing for {timeout:.3g}s")
                message = conn.recv()
            except (EOFError, OSError):
                self._crash("died")
            if message[0] == "artifact_fail":
                self.source.artifact_failed(self.worker, message[1])
                self._crash("could not load its artifact")
            if message[0] != "ready":
                return message
            self.active_backend = message[1]

    def _crash(self, what: str) -> None:
        """Cut the child off — it must never answer again, whatever it
        does with the SIGTERM — and raise the death for the pool to
        supervise."""
        proc, conn = self._proc, self._conn
        self._conn = None
        if conn is not None:
            conn.close()
        if proc is not None and proc.is_alive():
            proc.terminate()
        raise WorkerCrash(f"worker {self.worker} {what}")
