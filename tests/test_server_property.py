"""Property-based tests (hypothesis) on the request coalescer.

Invariants exercised, over arbitrary interleavings of submit / flush /
deadline-advance / commit (epoch bump) / batch completion / shutdown:

  * a cut batch never exceeds ``max_batch`` addresses;
  * dispatch preserves global FIFO order — the concatenation of the
    dispatched batches is exactly the concatenation of the accepted
    requests, in submission order;
  * every accepted request is satisfied exactly once: its results come
    back in its own submission order (even when split across batches),
    or it fails exactly once with ``RequestShed``/``ServerClosed``;
  * the epoch recorded on a handle stays within the window of epochs
    its batches executed under;
  * the deadline trigger (driven through ``FakeClock.advance``, never
    the wall clock) flushes a non-empty open batch after ``max_wait``;
  * with an idle-worker predicate that flips at random, all of the
    above still hold, and no batch is cut for ``"idle"`` while the
    predicate says every worker is busy.

The driver is single-threaded on purpose: hypothesis explores the
*interleaving space* deterministically and shrinks failures; the
threaded soak lives in ``test_server_stress.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.obs import FakeClock
from repro.server import RequestCoalescer, RequestShed, ServerClosed

MAX_WAIT_S = 1.0


@st.composite
def scripts(draw):
    """An interleaving of coalescer operations."""
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("submit"), st.integers(0, 9)),
            st.tuples(st.just("flush"), st.just(0)),
            st.tuples(st.just("advance"), st.integers(1, 4)),
            st.tuples(st.just("commit"), st.just(0)),
            st.tuples(st.just("complete"), st.just(0)),
        ),
        min_size=1, max_size=30,
    ))
    return ops


@st.composite
def idle_scripts(draw):
    """An interleaving that also flips the idle-worker predicate and
    tells the coalescer a worker went idle."""
    return draw(st.lists(
        st.one_of(
            st.tuples(st.just("submit"), st.integers(0, 4)),
            st.tuples(st.just("flush"), st.just(0)),
            st.tuples(st.just("advance"), st.integers(1, 4)),
            st.tuples(st.just("tick"), st.integers(1, 4)),
            st.tuples(st.just("flip"), st.just(0)),
            st.tuples(st.just("worker_idle"), st.just(0)),
            st.tuples(st.just("complete"), st.just(0)),
        ),
        min_size=1, max_size=40,
    ))


class Driver:
    """Runs a script against a coalescer with a recording sink.

    ``idle`` (a bool) turns on the idle trigger, over a predicate that
    reads :attr:`idle` and that ``flip`` ops toggle."""

    def __init__(self, max_batch, accept=None, idle=None):
        self.clock = FakeClock()
        self.accept = accept  # None: accept all; else per-batch pattern
        self.dispatched = []
        self.refused = []
        self.completed = 0
        self.epoch = 0
        #: epoch window each dispatched batch was completed under
        self.batch_epochs = []
        self.idle = idle
        self.idle_cuts_while_busy = 0
        self.box = RequestCoalescer(
            self._sink, max_batch=max_batch, max_wait_s=MAX_WAIT_S,
            clock=self.clock,
            idle=None if idle is None else lambda: self.idle)
        self.handles = []
        self.submitted = []  # addresses in accepted submission order
        self._next_address = 0

    def _sink(self, batch):
        if batch.reason == "idle" and not self.idle:
            self.idle_cuts_while_busy += 1
        index = len(self.dispatched) + len(self.refused)
        ok = True if self.accept is None else self.accept(index)
        if ok:
            self.dispatched.append(batch)
        else:
            self.refused.append(batch)
        return ok

    def run(self, ops):
        for op, arg in ops:
            if op == "submit" and not self.box.closed:
                addresses = [self._next_address + i for i in range(arg)]
                self._next_address += arg
                handle = self.box.submit(addresses)
                self.handles.append(handle)
                self.submitted.extend(addresses)
            elif op == "flush":
                self.box.flush()
            elif op == "advance":
                self.clock.advance(arg * MAX_WAIT_S / 2)
            elif op == "tick":
                self.clock.advance(arg * MAX_WAIT_S / 8)
            elif op == "flip":
                self.idle = not self.idle
            elif op == "worker_idle":
                self.box.worker_idle()
            elif op == "commit":
                self.epoch += 1
            elif op == "complete":
                self.complete_next()

    def complete_next(self):
        if self.completed < len(self.dispatched):
            batch = self.dispatched[self.completed]
            batch.complete(list(batch.addresses), epoch=self.epoch)
            self.batch_epochs.append(self.epoch)
            self.completed += 1

    def finish(self):
        """Drain: close, then complete everything still in flight."""
        self.box.close(drain=True)
        while self.completed < len(self.dispatched):
            self.complete_next()


class TestCoalescerProperties:
    @given(scripts(), st.integers(1, 8))
    @settings(max_examples=120, deadline=None)
    def test_batches_bounded_fifo_and_exactly_once(self, ops, max_batch):
        driver = Driver(max_batch)
        driver.run(ops)
        driver.finish()

        # Bounded batches with sensible flush reasons.
        for batch in driver.dispatched:
            assert 0 < len(batch.addresses) <= max_batch
            assert batch.reason in ("size", "deadline", "idle", "manual",
                                    "drain")

        # Global FIFO: dispatched order == accepted submission order.
        flat = [a for b in driver.dispatched for a in b.addresses]
        assert flat == driver.submitted

        # Exactly once, in the request's own order (identity sink).
        for handle in driver.handles:
            assert handle.done()
            assert handle.result(0) == handle.addresses

    # Batches up to 64 wide: a batch reads sparse only when it misses
    # FILL_MARGIN times more addresses than arrive before its deadline.
    @given(idle_scripts(), st.integers(1, 64), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_a_flipping_idle_predicate_keeps_fifo_exactly_once(
            self, ops, max_batch, idle):
        driver = Driver(max_batch, idle=idle)
        driver.run(ops)
        driver.finish()

        for batch in driver.dispatched:
            assert 0 < len(batch.addresses) <= max_batch
        assert driver.idle_cuts_while_busy == 0
        flat = [a for b in driver.dispatched for a in b.addresses]
        assert flat == driver.submitted
        for handle in driver.handles:
            assert handle.done()
            assert handle.result(0) == handle.addresses
        # Exactly once: one delivery per part of every dispatched batch.
        assert sum(handle.deliveries for handle in driver.handles) == \
            sum(len(batch.parts) for batch in driver.dispatched)

    @given(scripts(), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_epoch_window_covers_every_handle(self, ops, max_batch):
        driver = Driver(max_batch)
        driver.run(ops)
        driver.finish()
        for handle in driver.handles:
            if not handle.addresses:
                continue
            lo, hi = handle.epoch_span
            assert lo is not None and hi is not None
            assert 0 <= lo <= hi <= driver.epoch

    @given(st.integers(1, 9), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_deadline_flushes_after_max_wait(self, size, max_batch):
        driver = Driver(max_batch)
        handle = driver.box.submit(list(range(size)))
        driver.clock.advance(MAX_WAIT_S * 0.99)
        open_before = driver.box.pending_addresses
        driver.clock.advance(MAX_WAIT_S)
        assert driver.box.pending_addresses == 0
        if open_before:
            assert driver.dispatched[-1].reason == "deadline"
        driver.finish()
        assert handle.result(0) == handle.addresses

    @given(scripts(), st.integers(1, 8), st.sets(st.integers(0, 40)))
    @settings(max_examples=80, deadline=None)
    def test_shed_interleavings_resolve_every_request(self, ops, max_batch,
                                                      refuse):
        driver = Driver(max_batch, accept=lambda i: i not in refuse)
        driver.run(ops)
        driver.finish()
        for handle in driver.handles:
            assert handle.done()
            try:
                result = handle.result(0)
            except (RequestShed, ServerClosed):
                continue  # failed exactly once, caller saw the error
            # A handle with no refused part must carry its own answers.
            assert result == handle.addresses

    @given(scripts())
    @settings(max_examples=40, deadline=None)
    def test_submit_after_close_raises_and_leaves_state_clean(self, ops):
        driver = Driver(4)
        driver.run(ops)
        driver.box.close(drain=False)
        with pytest.raises(ServerClosed):
            driver.box.submit([1])
        while driver.completed < len(driver.dispatched):
            driver.complete_next()
        # Non-draining close: every handle resolved — served or failed.
        for handle in driver.handles:
            assert handle.done()
