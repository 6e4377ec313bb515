"""The correctness check: every hop against the trie oracle, off the clock.

The oracle is a plain :class:`~repro.prefix.trie.Fib` advanced through
the same seeded churn batches the server committed.  A handle answered
in epoch ``e`` (the number of commits landed before its batch ran) must
equal the oracle after ``e`` commits; a request whose parts straddled a
commit may match either epoch of its ``epoch_span``, hop by hop.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict

from repro.control import ANNOUNCE
from repro.prefix.trie import Fib


class Oracle:
    def __init__(self, fib, addresses):
        """``addresses``: every address the run will ever ask about."""
        self.fib = Fib(fib.width, list(fib))
        self.epoch = 0
        self._memo = {}
        self._known = sorted(set(addresses))

    def commit(self, ops):
        """Advance one epoch through a churn batch that landed.

        Only answers under a prefix the batch touched can change, so
        only those leave the memo: in address order they are one slice.
        """
        memo, width, known = self._memo, self.fib.width, self._known
        for op in ops:
            prefix = op.prefix
            if op.action == ANNOUNCE:
                self.fib.insert(prefix, op.next_hop)
            else:
                self.fib.delete(prefix)
            first = bisect_left(known, prefix.value)
            last = bisect_left(known,
                               prefix.value + (1 << (width - prefix.length)))
            for address in known[first:last]:
                memo.pop(address, None)
        self.epoch += 1

    def hops(self, addresses):
        """The current epoch's answers, memoised per (epoch, address)."""
        memo = self._memo
        out = []
        for address in addresses:
            hop = memo.get(address, memo)
            if hop is memo:
                hop = memo[address] = self.fib.lookup(address)
            out.append(hop)
        return out


def _mismatch(index, request, epoch, got, want):
    for address, g, w in zip(request, got, want):
        if g != w:
            return {"request": index, "address": address, "epoch": epoch,
                    "got": g, "want": w}
    return {"request": index, "epoch": epoch, "got": len(got),
            "want": len(want)}


def verify(oracle, rnd, landed, corrupt=False):
    """Check one round; returns one record per failed request.

    ``landed`` holds the churn batches committed during the round, in
    order; the oracle enters at the round's first epoch and leaves at
    its last.  ``corrupt`` flips one returned hop first (the test hook
    that proves a wrong answer fails the run).
    """
    failures = []
    by_first_epoch = defaultdict(list)
    for i, handle in enumerate(rnd.handles):
        try:
            hops = handle.result(0)
        except Exception as error:  # raised, shed, timed out: all failed
            failures.append({"request": i, "error": repr(error)})
            continue
        first, last = handle.epoch_span
        if corrupt:
            hops[0] = (hops[0] or 0) + 1
            corrupt = False
        by_first_epoch[first].append((i, last, hops))

    straddlers = []     # (index, last epoch, hops, per-hop matched flags)
    final = oracle.epoch + len(landed)
    for ops in [None] + list(landed):
        if ops is not None:
            oracle.commit(ops)
        epoch = oracle.epoch
        pending = []
        for i, last, hops, matched in straddlers:
            want = oracle.hops(rnd.requests[i])
            matched = [m or g == w for m, g, w in zip(matched, hops, want)]
            if last > epoch:
                pending.append((i, last, hops, matched))
            elif not all(matched):
                failures.append(
                    _mismatch(i, rnd.requests[i], epoch, hops, want))
        straddlers = pending
        for i, last, hops in by_first_epoch.pop(epoch, ()):
            want = oracle.hops(rnd.requests[i])
            if hops == want:
                continue
            if last is not None and epoch < last <= final:
                straddlers.append(
                    (i, last, hops, [g == w for g, w in zip(hops, want)]))
            else:
                failures.append(
                    _mismatch(i, rnd.requests[i], epoch, hops, want))
    for epoch, group in by_first_epoch.items():
        for i, _last, _hops in group:
            failures.append({"request": i, "epoch": epoch,
                             "error": "answered in an epoch outside the round"})
    return failures
