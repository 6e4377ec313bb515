"""The chaos soak: fault-injected serving checked against the oracle.

``run_chaos_soak`` drives a full serving stack — coalescer, worker
pool (thread or process), supervisor, managed churn with rollbacks —
under a seeded :class:`~repro.chaos.ChaosPlan`, and proves the
robustness invariants the fault model promises:

* **nothing lost** — every submitted request resolves: answered, or
  failed with a *typed* serving error (shed, timeout, crash);
* **nothing duplicated** — every answered request saw exactly one
  delivery;
* **nothing stale** — every answer equals the trie oracle's answer at
  the serving epoch the request executed under (the stress suite's
  :class:`~repro.server.EpochAudit`);
* **supervision works** — every worker the chaos plan killed is
  restarted within the budget: the pool ends the soak with its full
  worker complement alive;
* **deadlines hold** — with a request deadline armed, no future is
  left unresolved after the run.

The report dict is JSON-serialisable (the ``repro chaos-soak`` CLI
writes it as the ``chaos_soak.json`` sidecar).  Invariant violations
raise :class:`SoakFailure` — the harness *fails loudly*, it never
files a bad run as statistics.
"""

from __future__ import annotations

import random
import threading
from typing import Dict, Optional, Sequence

from ..control import ChurnGenerator, ManagedFib, RuntimePolicy
from ..obs import MetricsRegistry
from ..prefix.prefix import Prefix
from ..prefix.trie import Fib
from ..server import EpochAudit, LookupServer, RestartPolicy, ServerError
from .plan import ChaosPlan

__all__ = ["SoakFailure", "run_chaos_soak", "DEFAULT_CHAOS"]

#: The background-chaos set the soak (and ``--chaos all``) defaults to.
DEFAULT_CHAOS = ("worker_kill", "batch_exception", "commit_stall")

_WIDTH = 8  # a 30-route table: the per-epoch oracle copies are cheap

#: Rounds of ``requests`` the soak may send for its scripted kills.
_MAX_ROUNDS = 20


class SoakFailure(AssertionError):
    """A robustness invariant did not survive the chaos soak."""


def _build_fib(seed: int, size: int = 30) -> Fib:
    rng = random.Random(f"chaos-fib:{seed}")
    fib = Fib(_WIDTH)
    while len(fib) < size:
        length = rng.randint(1, _WIDTH)
        fib.insert(
            Prefix.from_bits(rng.getrandbits(length), length, _WIDTH),
            rng.randint(1, 99))
    return fib


def run_chaos_soak(
    *,
    mode: str = "thread",
    workers: int = 3,
    requests: int = 300,
    request_size: int = 8,
    max_batch: int = 64,
    churn_every: int = 25,
    churn_ops: int = 4,
    seed: int = 0,
    chaos: Optional[Sequence[str]] = None,
    rate: Optional[float] = None,
    script: Sequence = (),
    deadline_s: Optional[float] = 30.0,
    factory=None,
    registry: Optional[MetricsRegistry] = None,
) -> Dict:
    """Run one seeded chaos soak; returns the report dict.

    ``chaos`` names injectors from :data:`repro.chaos.ALL_CHAOS`
    (default :data:`DEFAULT_CHAOS`); ``script`` adds exact
    ``(kind, worker, seq)`` triggers.  ``request_size`` must divide
    ``max_batch`` so no request spans batches (single-delivery and
    single-epoch assertions stay exact).

    The soak sends ``requests`` requests, and with scripted kills more
    rounds of as many (at most ``_MAX_ROUNDS`` in all) until each kill
    has landed; the report's ``requests`` counts what was sent.
    """
    if max_batch % request_size:
        raise ValueError("request_size must divide max_batch")
    if factory is None:
        from ..algorithms.hibst import HiBst
        factory = HiBst
    names = list(DEFAULT_CHAOS if chaos is None else chaos)
    plan = ChaosPlan.build(names, seed, rate=rate, script=tuple(script))

    base = _build_fib(seed)
    managed = ManagedFib(lambda fib: factory(fib), base,
                         policy=RuntimePolicy(check_every=4),
                         registry=registry)
    # Fast, effectively unbounded restarts: the soak asserts recovery,
    # the budget path is exercised by the unit tests.
    restart_policy = RestartPolicy(
        base_backoff_s=0.005, max_backoff_s=0.02,
        budget=10 * requests, window_s=3600.0, seed=seed)
    server = LookupServer(
        managed=managed, workers=workers, mode=mode,
        max_batch=max_batch, max_wait_s=0.001,
        request_deadline_s=deadline_s, chaos=plan,
        restart_policy=restart_policy,
        ack_timeout_s=2.0 if any(n.startswith("ack") for n in names)
        or any(k.startswith("ack") for k, *_ in script) else 60.0)
    audit = EpochAudit(server, managed)

    rng = random.Random(f"chaos-traffic:{seed}")
    generator = ChurnGenerator(base, seed=seed + 1)
    scripted_kills = sum(1 for kind, *_ in script if kind == "kill")
    submitted = []
    landed = rolled_back = 0
    with server:
        # A kill at a worker's batch K lands only once that worker has
        # taken K batches, which depends on how the traffic happened to
        # be cut and shared out.  So the soak sends rounds of it, each
        # resolved before the next, until every scripted kill is a
        # death — or ``_MAX_ROUNDS`` rounds have gone out.
        for _round in range(_MAX_ROUNDS):
            first = len(submitted)
            for i in range(first, first + requests):
                addresses = [rng.randrange(1 << _WIDTH)
                             for _ in range(request_size)]
                submitted.append(server.submit(addresses))
                if churn_every and (i + 1) % churn_every == 0:
                    server.flush()
                    outcome = managed.apply_batch(
                        list(generator.ops(churn_ops)))
                    if outcome == "batch_rolled_back":
                        rolled_back += 1
                    else:
                        landed += 1
            server.flush()
            if not scripted_kills:
                break
            # Once the round has resolved, every death it caused is
            # counted: the supervisor counts a death before it requeues
            # the dead worker's batch.
            for handle in submitted[first:]:
                handle.wait(timeout=60)
            if server.supervisor.deaths >= scripted_kills:
                break

        answered = shed = timeouts = crash_failures = 0
        errors: Dict[str, int] = {}
        stale = lost = duplicated = 0
        for handle in submitted:
            try:
                hops = handle.result(timeout=60)
            except ServerError as exc:
                kind = type(exc).__name__
                errors[kind] = errors.get(kind, 0) + 1
                if kind == "RequestShed":
                    shed += 1
                elif kind == "RequestTimeout":
                    timeouts += 1
                else:
                    crash_failures += 1
                continue
            except TimeoutError:
                lost += 1
                continue
            answered += 1
            if handle.deliveries != 1:
                duplicated += 1
                continue
            # None: the request spanned a commit, which cannot happen
            # here (request_size divides max_batch).
            if audit.check(handle, hops) != []:
                stale += 1

        # Recovery: every killed worker must come back.  Give the
        # supervisor's (tiny) backoffs a bounded window to land.
        recovered = threading.Event()
        for _ in range(2000):
            # Counter parity matters too: restart_worker can have
            # spawned the replacement (alive_workers is full) while
            # the supervisor's restarts counter increment is still a
            # step behind on the timer thread — reading the report in
            # that window shows deaths > restarts + giveups.
            caught_up = (server.supervisor.restarts
                         + server.supervisor.giveups
                         >= server.supervisor.deaths)
            if caught_up and server.pool.alive_workers() == workers:
                break
            recovered.wait(0.005)
        final_alive = server.pool.alive_workers()
        unresolved = sum(1 for h in submitted if not h.done())

    request_window = server.slo.report()["phases"].get("request", {})
    samples = request_window.get("window_n", 0)
    supervisor = server.supervisor
    report = {
        "mode": mode,
        "seed": seed,
        "workers": workers,
        "chaos": names,
        "script": [list(event) for event in script],
        "requests": len(submitted),
        "answered": answered,
        "shed": shed,
        "deadline_timeouts": timeouts,
        "failed_typed": crash_failures,
        "errors": errors,
        "lost": lost,
        "duplicated": duplicated,
        "stale": stale,
        "unresolved_after_close": unresolved,
        "commits_landed": landed,
        "commits_rolled_back": rolled_back,
        "worker_deaths": supervisor.deaths,
        "worker_restarts": supervisor.restarts,
        "restart_giveups": supervisor.giveups,
        "requeued_batches": supervisor.requeued_batches,
        "simulated_backoff_s": round(supervisor.simulated_backoff_s, 6),
        "health_transitions": server.health.transitions,
        "final_health": str(server.health_state),
        "final_alive_workers": final_alive,
        "slo_breaches": server.slo.breaches,
        # A nearest-rank quantile q over fewer than 1/(1-q) samples is
        # just the maximum, so it is published only past that count.
        "latency": {
            "samples": samples,
            **{f"request_{q}_s": (request_window.get(f"{q}_s")
                                  if samples >= need else None)
               for q, need in (("p50", 2), ("p99", 100), ("p999", 1000))},
        },
        "ok": True,
    }

    failures = []
    if lost:
        failures.append(f"{lost} request(s) lost (never resolved)")
    if duplicated:
        failures.append(f"{duplicated} request(s) double-delivered")
    if stale:
        failures.append(f"{stale} stale read(s) vs the per-epoch oracle")
    if unresolved:
        failures.append(
            f"{unresolved} future(s) unresolved after close")
    if final_alive != workers and not supervisor.giveups:
        failures.append(
            f"only {final_alive}/{workers} workers alive after recovery "
            f"window with no budget give-ups")
    if supervisor.deaths < scripted_kills:
        failures.append(f"{scripted_kills} scripted kill(s) but only "
                        f"{supervisor.deaths} worker death(s)")
    if answered == 0:
        failures.append("chaos starved the soak: nothing was answered")
    if failures:
        report["ok"] = False
        report["failures"] = failures
        raise SoakFailure("; ".join(failures), report)
    return report
