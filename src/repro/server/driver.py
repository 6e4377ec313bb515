"""Drive a workload through a :class:`LookupServer` and audit the answers.

:class:`EpochAudit` is the one per-epoch oracle check (``repro serve``,
the chaos soak and the stress suite all use it); :func:`serve_workload`
is the serving loop behind ``repro serve``: producer threads submit
requests while the calling thread lands churn commits, then every
answer is audited.  Nothing here prints — callers format the report.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .coalescer import PendingLookup, ServerError

__all__ = ["EpochAudit", "serve_workload"]


class EpochAudit:
    """Oracle snapshots keyed by serving epoch, and the check against them.

    Construct it *after* the server: its commit listener then runs after
    the server's own, so the epoch is already bumped when the snapshot
    is taken and the keys match the epochs workers tag onto batches.
    """

    def __init__(self, server, managed):
        self.server = server
        self._managed = managed
        self.snapshots = {server.epoch: managed.oracle.copy()}
        self.checked = self.mismatches = self.straddled = 0
        self._position = 0
        managed.add_commit_listener(self._on_commit)

    def _on_commit(self, outcome, algo, touched) -> None:
        self.record()

    def record(self) -> None:
        """Snapshot the oracle under the server's current epoch (commits
        do this themselves; ``reload_artifact`` fires no listener)."""
        self.snapshots[self.server.epoch] = self._managed.oracle.copy()

    def close(self) -> None:
        self._managed.remove_commit_listener(self._on_commit)

    def check(self, handle: PendingLookup, hops: Sequence[Optional[int]],
              every: int = 1) -> Optional[List[Tuple]]:
        """Audit one answered request against its epoch's oracle.

        Every ``every``-th address (counted across calls; 0: none) is
        compared; returns the ``(epoch, address, served, expected)``
        mismatches, or ``None`` for a request split across a commit —
        each part was served under its own epoch but the handle keeps
        only the span, so it is counted as straddled and skipped.
        """
        start = self._position
        self._position += len(handle.addresses)
        lo, hi = handle.epoch_span
        if lo != hi:
            self.straddled += 1
            return None
        oracle = self.snapshots[hi]
        bad = []
        for i, (address, hop) in enumerate(zip(handle.addresses, hops), start):
            if every and i % every == 0:
                self.checked += 1
                expected = oracle.lookup(address)
                if hop != expected:
                    bad.append((hi, address, hop, expected))
        self.mismatches += len(bad)
        return bad


@contextmanager
def _signals_interrupt():
    """SIGINT/SIGTERM raise ``KeyboardInterrupt`` in the main thread, so
    the ``with server`` unwind closes with ``drain=True``."""
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    old = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            old[signum] = signal.signal(signum, interrupt)
        except ValueError:  # not the main thread: nothing to install
            pass
    try:
        yield
    finally:
        for signum, handler in old.items():
            signal.signal(signum, handler)


def serve_workload(server, managed, requests: Sequence[Sequence[int]], *,
                   churn: Iterable[list] = (), check_every: int = 1) -> Dict:
    """Serve ``requests`` through the (unstarted) ``server`` under churn.

    Up to four producer threads submit the requests; the calling thread
    applies the ``churn`` batches to ``managed`` for as long as traffic
    is still being produced.  The server is started and closed here; a
    ``KeyboardInterrupt`` (SIGINT/SIGTERM included) stops producers and
    churn, and the close still answers everything already accepted.
    Every ``check_every``-th answered address is audited against the
    oracle snapshot of the epoch it was served under.
    """
    registry = server.registry
    audit = EpochAudit(server, managed)
    producers = min(4, server.workers)
    handles: List[Optional[PendingLookup]] = [None] * len(requests)

    def produce(lane: int) -> None:
        try:
            for idx in range(lane, len(requests), producers):
                handles[idx] = server.submit(requests[idx])
        except ServerError:
            return  # server closing (interrupt drain): stop submitting

    threads = [threading.Thread(target=produce, args=(lane,),
                                name=f"serve-client-{lane}")
               for lane in range(producers)]
    pacing = threading.Event()  # never set: .wait() is a pure sleep
    interrupted = False
    landed = 0
    try:
        with _signals_interrupt(), server, \
                registry.timer("repro_serve_batch"):
            for thread in threads:
                thread.start()
            for batch in churn:
                if not any(t.is_alive() for t in threads):
                    break
                landed += managed.apply_batch(batch) != "batch_rolled_back"
                pacing.wait(0.001)
            for thread in threads:
                thread.join()
            server.flush()
    except KeyboardInterrupt:
        interrupted = True  # the context manager has drained and closed
        for thread in threads:
            if thread.ident is not None:  # it can precede the start
                thread.join()  # submit now raises: producers stop
    finally:
        audit.close()

    shed = 0
    with registry.timer("repro_serve_check"):
        for handle in handles:
            if handle is None:  # never submitted (interrupt drain)
                continue
            try:
                hops = handle.result(timeout=120)
            except ServerError:
                shed += 1
                continue
            audit.check(handle, hops, every=check_every)
    return {
        "interrupted": interrupted,
        "requests": len(requests),
        "submitted": sum(h is not None for h in handles),
        "shed": shed,
        "straddled": audit.straddled,
        "checked": audit.checked,
        "mismatches": audit.mismatches,
        "commits": landed,
        "epoch": server.epoch,
        "serve_s": registry.timings_snapshot().get(
            "repro_serve_batch", {}).get("total_s", 0.0),
    }
