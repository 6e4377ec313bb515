"""Command-line interface.

Exposes the package's main workflows without writing Python:

.. code-block:: console

    $ python -m repro synthesize v4 --scale 0.01 --out fib.txt
    $ python -m repro lookup --fib fib.txt --algorithm resail 10.1.2.3
    $ python -m repro metrics --fib fib.txt --algorithm resail bsic mashup
    $ python -m repro codegen --fib fib.txt --algorithm resail --out resail.p4
    $ python -m repro growth --year 2033

Algorithms are referenced by the lower-case names in
:data:`ALGORITHM_FACTORIES`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from .algorithms import (
    Bsic,
    Dxr,
    HiBst,
    LogicalTcam,
    Mashup,
    MultibitTrie,
    Poptrie,
    Resail,
    Sail,
)
from .analysis import chip_mapping_table, cram_metrics_table, select_best
from .chip import map_to_drmt, map_to_ideal_rmt, map_to_tofino2
from .core.codegen import estimate_p4_effort, generate_p4_sketch
from .datasets import (
    ipv4_table_size,
    ipv6_table_size,
    synthesize_as65000,
    synthesize_as131072,
)
from .datasets.io import load_fib, save_fib
from .prefix import format_address, parse_ipv4_address, parse_ipv6_address
from .prefix.trie import Fib

ALGORITHM_FACTORIES: Dict[str, Callable[[Fib], object]] = {
    "resail": lambda fib: Resail(fib),
    "sail": lambda fib: Sail(fib),
    "bsic": lambda fib: Bsic(fib),
    "dxr": lambda fib: Dxr(fib, k=16),
    "multibit": lambda fib: MultibitTrie(
        fib, [16, 4, 4, 8] if fib.width == 32 else [20, 12, 16, 16]
    ),
    "mashup": lambda fib: Mashup(fib),
    "poptrie": lambda fib: Poptrie(fib, dp_bits=16),
    "hibst": lambda fib: HiBst(fib),
    "ltcam": lambda fib: LogicalTcam(fib),
}


def _build(name: str, fib: Fib):
    try:
        factory = ALGORITHM_FACTORIES[name]
    except KeyError:
        raise SystemExit(
            f"unknown algorithm {name!r}; choose from "
            f"{', '.join(sorted(ALGORITHM_FACTORIES))}"
        )
    return factory(fib)


def _parse_address(text: str, width: int) -> int:
    return parse_ipv4_address(text) if width == 32 else parse_ipv6_address(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synthesize(args: argparse.Namespace) -> int:
    maker = synthesize_as65000 if args.family == "v4" else synthesize_as131072
    fib = maker(scale=args.scale, seed=args.seed)
    save_fib(fib, args.out)
    print(f"wrote {len(fib):,} prefixes to {args.out}")
    return 0


def _print_lowering_report(vplan) -> None:
    """``repro lookup --explain``: the lane compiler's lowering report.

    Deterministic for a fixed FIB/algorithm: whether the program
    lowered to batch kernels and, if so, the schedule-ordered steps
    (one kernel each); a plan that did not lower lists none and runs
    on the scalar plan.
    """
    info = vplan.describe()
    print(f"algorithm: {info['algorithm']}")
    print(f"width: {info['width']}")
    print(f"fully_lowered: {str(info['fully_lowered']).lower()}")
    print(f"lowered_steps ({len(info['lowered_steps'])}): "
          f"{' '.join(info['lowered_steps']) or '-'}")
    print()


def cmd_lookup(args: argparse.Namespace) -> int:
    fib = load_fib(args.fib)
    algo = _build(args.algorithm, fib)
    stats = None
    if args.stats:
        from .obs import enable_hit_tracking

        # Reset after construction so the report reflects only the
        # queried addresses, not table-build accesses.
        stats = enable_hit_tracking(algo)
        for table_stats in stats:
            table_stats.reset()
    addresses = [_parse_address(text, fib.width) for text in args.addresses]
    backend = getattr(args, "backend", "native")
    if getattr(args, "explain", False):
        _print_lowering_report(algo.compile_vector_plan())
    if backend == "native":
        hops = [algo.lookup(address) for address in addresses]
    elif backend == "plan":
        hops = algo.compile_plan().lookup_batch(addresses)
    else:  # vector | auto: a plan that did not lower delegates itself
        hops = algo.compile_vector_plan().lookup_batch_hops(addresses)
    status = 0
    for address, hop in zip(addresses, hops):
        prefix = fib.lookup_prefix(address)
        if hop is None:
            print(f"{format_address(address, fib.width)}: no route")
            status = 1
        else:
            print(f"{format_address(address, fib.width)}: port {hop} via {prefix}")
        if hop != fib.lookup(address):  # pragma: no cover - invariant
            raise SystemExit("BUG: algorithm disagrees with reference trie")
    if stats is not None:
        from .obs import hot_table_report

        print()
        print(hot_table_report(stats))
    return status


def _emit_machine_metrics(args: argparse.Namespace, fib: Fib, algos) -> int:
    """``repro metrics --format prometheus|json``: registry rendering.

    Everything in the Prometheus output is deterministic for a fixed
    FIB/seed (CRAM gauges, lookup counts, table-access counters); the
    wall-clock exercise timings appear only in the JSON document's
    ``timings`` section.
    """
    from .datasets import mixed_addresses
    from .obs import MetricsRegistry, collect_access_stats, export_access_stats

    registry = MetricsRegistry()
    registry.gauge("repro_fib_prefixes", "Routes in the loaded FIB.").set(
        len(fib))
    tcam = registry.gauge("repro_cram_tcam_bits", "CRAM TCAM bits (§2.1).")
    sram = registry.gauge("repro_cram_sram_bits", "CRAM SRAM bits (§2.1).")
    steps = registry.gauge("repro_cram_steps", "CRAM steps (critical path).")
    lookups = registry.counter("repro_lookups_total", "Lookups executed.")
    addresses = (
        mixed_addresses(fib, args.exercise, hit_fraction=0.8, seed=args.seed)
        if args.exercise else []
    )
    for algo in algos:
        metrics = algo.cram_metrics()
        tcam.set(metrics.tcam_bits, algorithm=algo.name)
        sram.set(metrics.sram_bits, algorithm=algo.name)
        steps.set(metrics.steps, algorithm=algo.name)
        stats = collect_access_stats(algo)
        for table_stats in stats:
            table_stats.reset()  # drop construction-time accesses
        if addresses:
            with registry.timer("repro_exercise", algorithm=algo.name):
                for address in addresses:
                    algo.lookup(address)
            lookups.inc(len(addresses), algorithm=algo.name)
        export_access_stats(registry, stats, algorithm=algo.name)
    if getattr(args, "exercise_serve", 0):
        _exercise_serve(registry, fib, algos[0], args.exercise_serve,
                        seed=args.seed)
    if args.format == "prometheus":
        print(registry.render_prometheus(), end="")
    else:
        print(registry.to_json(include_timings=True))
    return 0


def _exercise_serve(registry, fib: Fib, algo, count: int, *,
                    seed: int = 0) -> None:
    """Drive a deterministic serving exercise into ``registry``.

    A single-worker :class:`~repro.server.LookupServer` over a
    :class:`~repro.obs.FakeClock` with full span sampling: request
    size 8 always equals the batch-size trigger, so every flush is
    size-triggered and every ``repro_server_*`` counter — requests,
    batches, flush reasons, span and SLO series — is a pure function
    of (fib, count, seed).  Durations are all zero under the fake
    clock, so nothing here perturbs the deterministic Prometheus
    rendering from run to run.
    """
    from .datasets import mixed_addresses
    from .obs import FakeClock
    from .server import LookupServer

    size = 8
    addresses = mixed_addresses(fib, count, hit_fraction=0.8, seed=seed)
    server = LookupServer(
        algo, workers=1, max_batch=size, max_wait_s=0.001,
        registry=registry, clock=FakeClock(), name="exercise",
        sample_rate=1.0, span_seed=seed).start()
    handles = [server.submit(addresses[i:i + size])
               for i in range(0, len(addresses), size)]
    server.flush()
    for handle in handles:
        handle.result(timeout=60)
    server.close()


def cmd_metrics(args: argparse.Namespace) -> int:
    fib = load_fib(args.fib)
    algos = [_build(name, fib) for name in args.algorithm]
    if args.format != "table":
        return _emit_machine_metrics(args, fib, algos)
    rows = [(algo.name, algo.cram_metrics()) for algo in algos]
    print(cram_metrics_table(f"CRAM metrics ({args.fib})", rows).render())
    if len(rows) > 1:
        winner, rationale = select_best(rows)
        print(f"\nCRAM pick: {winner}\n  {rationale}")
    mappings = []
    for algo in algos:
        layout = algo.layout()
        mappings.append((algo.name, map_to_ideal_rmt(layout)))
        mappings.append((algo.name, map_to_tofino2(layout)))
        if args.drmt:
            mappings.append((algo.name, map_to_drmt(layout)))
    print()
    print(chip_mapping_table("Chip mappings", mappings).render())
    return 0


def cmd_codegen(args: argparse.Namespace) -> int:
    fib = load_fib(args.fib)
    algo = _build(args.algorithm, fib)
    sketch = generate_p4_sketch(algo.cram_program())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(sketch)
        effort = estimate_p4_effort(algo.cram_program())
        print(f"wrote {args.out}: {effort['tables']} tables, "
              f"{effort['waves']} waves, "
              f"{effort['todo_key_selectors']} key selectors and "
              f"{effort['todo_opaque_actions']} actions left TODO")
    else:
        print(sketch)
    return 0


def cmd_aggregate(args: argparse.Namespace) -> int:
    from .prefix import aggregate, aggregation_ratio

    fib = load_fib(args.fib)
    result = aggregate(fib)
    save_fib(result.fib, args.out)
    note = (f" ({result.discard_hop} = discard/null routes)"
            if result.used_discard else "")
    print(f"aggregated {len(fib):,} -> {len(result):,} prefixes "
          f"(x{aggregation_ratio(fib, result):.2f}) into {args.out}{note}")
    return 0


def cmd_results(args: argparse.Namespace) -> int:
    """Print the reproduced tables/figures from a benchmark run."""
    import pathlib

    results_dir = pathlib.Path(args.dir)
    files = sorted(results_dir.glob("*.txt"))
    if not files:
        print(f"no results in {results_dir} - run: "
              "pytest benchmarks/ --benchmark-only")
        return 1
    wanted = set(args.only or [])
    shown = 0
    for path in files:
        if wanted and path.stem not in wanted:
            continue
        print(path.read_text().rstrip())
        print("-" * 72)
        shown += 1
    if wanted and not shown:
        print(f"no result matches {sorted(wanted)}; available: "
              f"{', '.join(p.stem for p in files)}")
        return 1
    return 0


def cmd_churn(args: argparse.Namespace) -> int:
    """Drive an algorithm through managed BGP-like churn (robustness)."""
    from .control import (
        ALL_FAULTS,
        CapacityGuard,
        ChurnGenerator,
        FaultPlan,
        Health,
        ManagedFib,
        PROFILES,
        RuntimePolicy,
    )

    if args.smoke:
        args.ops = 200
        args.faults = "all"

    if args.fib:
        base = load_fib(args.fib)
    else:
        maker = synthesize_as65000 if args.family == "v4" else synthesize_as131072
        base = maker(scale=args.scale)

    if args.faults == "all":
        fault_names = sorted(ALL_FAULTS)
    elif args.faults in ("none", ""):
        fault_names = []
    else:
        fault_names = [n.strip() for n in args.faults.split(",") if n.strip()]
    try:
        plan = FaultPlan.build(fault_names, seed=args.seed)
    except ValueError as exc:
        raise SystemExit(str(exc))

    guard = CapacityGuard(tcam_blocks=args.tcam_budget,
                          sram_pages=args.sram_budget)
    policy = RuntimePolicy(rebuild_budget=args.rebuild_budget,
                           delta_updates=args.delta)
    managed = ManagedFib(
        lambda fib: _build(args.algo, fib),
        base,
        policy=policy,
        guard=guard,
        faults=plan,
        check_seed=args.seed,
    )
    generator = ChurnGenerator(base, seed=args.seed,
                               profile=PROFILES[args.profile])
    print(f"churn: algo={args.algo} family={args.family} "
          f"base={len(base)} prefixes ops={args.ops} batch={args.batch} "
          f"seed={args.seed} profile={args.profile} "
          f"faults={','.join(fault_names) or 'none'}")
    for batch in generator.batches(args.ops, args.batch):
        managed.apply_batch(batch)
        if managed.health is Health.FAILED:
            break
    managed.log.check_accounting()
    managed.log.check_registry_consistency()
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(managed.registry.to_json(include_timings=True))
            handle.write("\n")
    if args.events_out:
        with open(args.events_out, "w", encoding="utf-8") as handle:
            handle.write(managed.log.to_jsonl())
    print(managed.log.summary())
    print(f"final: health={managed.health} table={len(managed)} prefixes "
          f"simulated_backoff={managed.simulated_backoff_s * 1000:.3f}ms")
    if managed.minimal_repro is not None:
        label = ("minimal repro: " if managed.log.count("repro_shrunk")
                 else "repro trace (replay could not reproduce; unshrunk): ")
        print(label + " ".join(op.render() for op in managed.minimal_repro))
    failed = (managed.health is Health.FAILED
              or managed.log.count("violation") > 0)
    return 1 if failed else 0


def _artifact_ref(text: str):
    """Split a ``NAME[:VERSION]`` catalog reference."""
    name, _, version = text.partition(":")
    return name, (version or None)


def _artifact_save(args: argparse.Namespace, algo, fib: Fib) -> None:
    """``serve --save``: snapshot the built state into the catalog."""
    from .artifact import ArtifactCatalog

    name, version = _artifact_ref(args.save)
    catalog = ArtifactCatalog(args.catalog)
    try:
        vplan = algo.compile_vector_plan()
    except Exception:
        vplan = None  # scalar-only schemes still snapshot their state
    version = catalog.save(name, algo, fib, version=version,
                           vector_plan=vplan)
    print(f"serve: saved artifact {name}:{version} to {catalog.root}")


def _serve_concurrent(args: argparse.Namespace, base: Fib, registry,
                      loaded=None) -> int:
    """``repro serve --workers N``: the coalesced concurrent frontend.

    Producer threads submit small requests; the
    :class:`~repro.server.LookupServer` coalesces them into engine
    batches while the main thread interleaves managed churn.  Every
    answered request is checked against the oracle *as of the serving
    epoch its batch executed under* — per-epoch snapshots are recorded
    by a commit listener — so the spot checks stay exact under churn.

    SIGINT/SIGTERM drain gracefully: accepted requests are answered,
    the pool winds down, and the command exits 130.  ``--chaos`` arms
    a seeded :class:`~repro.chaos.ChaosPlan` against the serving
    dataplane (the supervisor keeps the run alive through the kills).
    """
    import signal
    import threading

    from .control import ChurnGenerator, ManagedFib, PROFILES
    from .datasets import skewed_addresses
    from .server import LookupServer, ServerError

    if args.vrfs > 0 or args.policy == "vrf-hash":
        raise SystemExit("serve: --workers does not combine with VRF "
                         "sharding (use the synchronous path)")

    chaos_plan = None
    chaos_names: List[str] = []
    if getattr(args, "chaos", None):
        from .chaos import ALL_CHAOS, DEFAULT_CHAOS, ChaosPlan
        if args.chaos == "all":
            chaos_names = sorted(ALL_CHAOS)
        elif args.chaos == "default":
            chaos_names = list(DEFAULT_CHAOS)
        else:
            chaos_names = [n for n in args.chaos.split(",") if n]
        chaos_seed = (args.chaos_seed if args.chaos_seed is not None
                      else args.seed)
        chaos_plan = ChaosPlan.build(chaos_names, chaos_seed)
    deadline_ms = getattr(args, "deadline", 0.0)
    from .control import RuntimePolicy
    delta = getattr(args, "delta", True)
    managed = ManagedFib(lambda fib: _build(args.algo, fib), base,
                         registry=registry, check_seed=args.seed,
                         policy=RuntimePolicy(delta_updates=delta),
                         algo=(loaded.algorithm() if loaded is not None
                               else None))
    if getattr(args, "save", None):
        _artifact_save(args, managed.algo, managed.oracle)
    server = LookupServer(managed=managed, workers=args.workers,
                          max_batch=args.max_batch,
                          max_wait_s=args.max_wait / 1000.0,
                          overload=args.overload, mode=args.mode,
                          cache_size=args.cache, backend=args.backend,
                          name="serve", chaos=chaos_plan,
                          ship_deltas=delta,
                          request_deadline_s=(deadline_ms / 1000.0
                                              if deadline_ms else None),
                          sample_rate=(args.sample_rate
                                       if getattr(args, "sample_rate",
                                                  None) is not None
                                       else 0.0625),
                          span_seed=args.seed,
                          ack_timeout_s=2.0 if any(
                              n.startswith("ack") for n in chaos_names)
                          else 60.0,
                          artifact=(str(loaded.path)
                                    if loaded is not None else None))
    status = None
    status_port = getattr(args, "status_port", None)
    if status_port is not None:
        from .obs.status import StatusServer
        status = StatusServer(
            registry, port=status_port,
            health=lambda: {"state": str(server.health_state),
                            "epoch": server.epoch},
            epoch=lambda: server.epoch,
            spans=server.spans.tail,
            slo=server.slo.report)
        status.start()
        print(f"serve: status endpoint at {status.url}")
    # Registered after the server's own listener, so by the time this
    # runs the epoch is already bumped: snapshot keys match the epochs
    # the workers tag onto batches.
    snapshots = {0: base.copy()}

    def record_snapshot(outcome, algo, touched):
        snapshots[server.epoch] = managed.oracle.copy()

    managed.add_commit_listener(record_snapshot)

    addresses = skewed_addresses(base, args.requests, seed=args.seed)
    request_size = max(1, min(16, args.max_batch))
    chunks = [addresses[i:i + request_size]
              for i in range(0, len(addresses), request_size)]
    producers = min(4, max(1, args.workers))
    handles: List[Optional[object]] = [None] * len(chunks)

    def produce(lane: int) -> None:
        try:
            for idx in range(lane, len(chunks), producers):
                handles[idx] = server.submit(chunks[idx])
        except ServerError:
            return  # server closing (signal-drain): stop submitting

    generator = (ChurnGenerator(base, seed=args.seed,
                                profile=PROFILES[args.profile])
                 if args.churn_ops else None)
    engine_batches = max(1, -(-len(addresses) // args.batch))
    churn_batches = (engine_batches // args.churn_every
                     if generator is not None and args.churn_every else 0)
    pacing = threading.Event()  # never set: .wait() is a pure sleep

    # Graceful drain on SIGINT/SIGTERM: raise in the main thread so
    # the `with server` unwind closes with drain=True — everything
    # already accepted is answered before the process exits.
    def _drain_signal(signum, frame):
        raise KeyboardInterrupt

    old_handlers = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            old_handlers[signum] = signal.signal(signum, _drain_signal)
        except ValueError:  # pragma: no cover - not the main thread
            pass

    try:
        with server, registry.timer("repro_serve_batch"):
            threads = [threading.Thread(target=produce, args=(lane,),
                                        name=f"serve-client-{lane}")
                       for lane in range(producers)]
            for thread in threads:
                thread.start()
            for _ in range(churn_batches):
                if not any(t.is_alive() for t in threads):
                    break
                managed.apply_batch(list(generator.ops(args.churn_ops)))
                pacing.wait(0.001)
            for thread in threads:
                thread.join()
            server.flush()
    except KeyboardInterrupt:
        # The context manager has already drained and closed.
        print("serve: interrupted — drained accepted requests and "
              "shut down cleanly")
        return 130
    finally:
        for signum, handler in old_handlers.items():
            signal.signal(signum, handler)

    with registry.timer("repro_serve_check"):
        mismatches = straddled = shed = checked = 0
        position = 0
        for handle in handles:
            if handle is None:  # producer stopped early (signal drain)
                continue
            try:
                hops = handle.result(timeout=120)
            except ServerError:
                shed += 1
                position += len(handle.addresses)
                continue
            lo, hi = handle.epoch_span
            if lo != hi:
                # Split across a commit; each half was consistent with
                # its own epoch but the handle only records the last.
                straddled += 1
                position += len(handle.addresses)
                continue
            oracle = snapshots[hi]
            for i, address in enumerate(handle.addresses):
                if args.check_every and (position + i) % args.check_every == 0:
                    checked += 1
                    if hops[i] != oracle.lookup(address):
                        mismatches += 1
            position += len(handle.addresses)

    serve_s = registry.timings_snapshot().get(
        "repro_serve_batch", {}).get("total_s", 0.0) or 1e-9
    snap = registry.snapshot()
    batch_count = snap["counters"].get(
        "repro_server_batches_total", {}).get(f'{{server="serve"}}', 0)
    print(f"serve: algo={args.algo} policy=coalesced mode={args.mode} "
          f"backend={args.backend} workers={args.workers} "
          f"requests={len(addresses)} request_size={request_size} "
          f"max_batch={args.max_batch} max_wait={args.max_wait}ms "
          f"cache={args.cache} seed={args.seed}")
    for eng in server.engines():
        print(f"  worker {eng.name}: backend {eng.active_backend}")
    print(f"  coalesced: {len(chunks)} requests into {batch_count} batches, "
          f"{shed} shed, {straddled} commit-straddled")
    print(f"  churn: {managed.log.batches_total} batches committed, "
          f"serving epoch {server.epoch}, health={managed.health}")
    if server.supervisor is not None and (chaos_plan is not None
                                          or server.supervisor.deaths):
        sup = server.supervisor
        print(f"  chaos: faults={','.join(chaos_names) or 'none'} "
              f"deaths={sup.deaths} restarts={sup.restarts} "
              f"giveups={sup.giveups} requeued={sup.requeued_batches} "
              f"serving_health={server.health_state}")
    print(f"  throughput: {len(addresses) / serve_s:,.0f} lookups/s "
          f"({serve_s * 1e3:.1f} ms serving)")
    slo_report = server.slo.report()
    request_pcts = slo_report["phases"].get("request", {})
    print(f"  latency: p50={request_pcts.get('p50_s', 0.0) * 1e3:.2f}ms "
          f"p99={request_pcts.get('p99_s', 0.0) * 1e3:.2f}ms "
          f"p999={request_pcts.get('p999_s', 0.0) * 1e3:.2f}ms "
          f"(window of {request_pcts.get('window_n', 0)}, "
          f"{slo_report['breaches']} SLO breaches)")
    span_counts = server.spans.counts()
    rate = server.spans.sample_rate
    print(f"  spans: {len(server.spans)} recorded at rate {rate:g} "
          f"({', '.join(f'{k}={v}' for k, v in span_counts.items()) or 'none'})")
    if rate >= 1.0:
        from .obs.spans import check_span_metrics_consistency
        report = check_span_metrics_consistency(server.spans, registry,
                                                server="serve")
        if report["ok"]:
            print("  span<->metrics consistency: OK "
                  f"(count={report['spans']['count']}, sums agree)")
        else:
            print("  span<->metrics consistency: FAILED: "
                  + "; ".join(report["mismatches"]))
            return 1
    if getattr(args, "span_jsonl", None):
        server.spans.write_jsonl(args.span_jsonl)
        print(f"  spans written to {args.span_jsonl}")
    if getattr(args, "span_chrome", None):
        server.spans.write_chrome_trace(args.span_chrome)
        print(f"  chrome trace written to {args.span_chrome}")
    if status is not None:
        status.close()
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(registry.to_json(include_timings=True))
            handle.write("\n")
    if mismatches:
        print(f"serve: {mismatches} spot-check mismatches against the "
              "epoch oracle")
        return 1
    print(f"  spot-checks: {checked} answers verified against per-epoch "
          "oracle snapshots, all consistent")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a skewed lookup workload through the batch engine."""
    from .control import ChurnGenerator, ManagedFib, PROFILES
    from .datasets import skewed_addresses
    from .engine import BatchEngine, RoundRobinEngine, VrfShardedEngine
    from .obs import MetricsRegistry

    if args.smoke:
        args.scale = 0.001
        args.requests = 4000
        args.batch = 256
        args.cache = 512
        args.churn_every = 4
        args.churn_ops = 8

    loaded = None
    if getattr(args, "load", None):
        from .artifact import ArtifactCatalog
        if args.vrfs > 0 or args.policy == "vrf-hash":
            raise SystemExit("serve: --load does not combine with VRF "
                             "sharding")
        name, version = _artifact_ref(args.load)
        loaded = ArtifactCatalog(args.catalog).load(
            name, version, factory=lambda fib: _build(args.algo, fib))
        base = loaded.fib()
        print(f"serve: warm start from artifact {name}:{loaded.version} "
              f"({len(base):,} prefixes, {loaded.algorithm_name or args.algo})")
    elif args.fib:
        base = load_fib(args.fib)
    else:
        maker = synthesize_as65000 if args.family == "v4" else synthesize_as131072
        base = maker(scale=args.scale)

    if args.workers:
        return _serve_concurrent(args, base, MetricsRegistry(), loaded=loaded)

    policy = args.policy
    if policy == "auto":
        policy = "vrf-hash" if args.vrfs > 0 else "round-robin"
    if policy == "vrf-hash" and args.vrfs < 1:
        raise SystemExit("serve: --policy vrf-hash needs --vrfs >= 1")

    registry = MetricsRegistry()
    addresses = skewed_addresses(base, args.requests, seed=args.seed)
    batches = [addresses[i:i + args.batch]
               for i in range(0, len(addresses), args.batch)]
    mismatches = 0

    if policy == "vrf-hash":
        # Shard FIBs are tag-widened (idiom I5), so the structure must
        # accept arbitrary widths; width-bound schemes fall back to the
        # logical TCAM.
        vrf_algo = args.algo
        if vrf_algo not in ("ltcam", "hibst", "bsic"):
            print(f"serve: {vrf_algo} is width-bound; VRF shards use ltcam")
            vrf_algo = "ltcam"
        # N VRFs (each carrying the base table) hashed across the shards.
        sharded = VrfShardedEngine(
            base.width, lambda fib: _build(vrf_algo, fib),
            shards=args.shards, max_vrfs=args.vrfs,
            cache_size=args.cache, registry=registry, name="serve",
            backend=args.backend)
        for vrf_id in range(args.vrfs):
            sharded.add_vrf(vrf_id, base.copy())
        engines = [e for e in sharded.shard_engines() if e is not None]
        served = 0
        for batch in batches:
            requests = [((served + i) % args.vrfs, address)
                        for i, address in enumerate(batch)]
            with registry.timer("repro_serve_batch"):
                hops = sharded.lookup_batch(requests)
            if args.check_every:
                for i in range(0, len(batch), args.check_every):
                    if hops[i] != base.lookup(batch[i]):
                        mismatches += 1
            served += len(batch)
        managed = None
    else:
        from .control import RuntimePolicy
        managed = ManagedFib(
            lambda fib: _build(args.algo, fib), base,
            registry=registry, check_seed=args.seed,
            policy=RuntimePolicy(delta_updates=getattr(args, "delta", True)),
            algo=(loaded.algorithm() if loaded is not None else None))
        if getattr(args, "save", None):
            _artifact_save(args, managed.algo, managed.oracle)
        if args.shards > 1:
            engine = RoundRobinEngine(managed.algo, replicas=args.shards,
                                      cache_size=args.cache,
                                      registry=registry, name="serve",
                                      backend=args.backend)
            managed.add_commit_listener(engine.on_commit)
            engines = engine.shard_engines()
        else:
            engine = BatchEngine.over_managed(managed, cache_size=args.cache,
                                              name="serve-s0",
                                              backend=args.backend)
            engines = [engine]
        generator = (ChurnGenerator(base, seed=args.seed,
                                    profile=PROFILES[args.profile])
                     if args.churn_ops else None)
        for b, batch in enumerate(batches):
            with registry.timer("repro_serve_batch"):
                hops = engine.lookup_batch(batch)
            if args.check_every:
                for i in range(0, len(batch), args.check_every):
                    if hops[i] != managed.oracle.lookup(batch[i]):
                        mismatches += 1
            if generator is not None and args.churn_every and (
                    b + 1) % args.churn_every == 0:
                managed.apply_batch(list(generator.ops(args.churn_ops)))

    serve_s = registry.timings_snapshot().get(
        "repro_serve_batch", {}).get("total_s", 0.0) or 1e-9
    lookups = registry.counter("repro_engine_lookups_total")
    hits = registry.counter("repro_engine_cache_hits_total")
    misses = registry.counter("repro_engine_cache_misses_total")
    print(f"serve: algo={args.algo} policy={policy} backend={args.backend} "
          f"requests={len(addresses)} "
          f"batch={args.batch} cache={args.cache} shards={args.shards} "
          f"vrfs={args.vrfs} seed={args.seed}")
    for eng in engines:
        n = lookups.value(engine=eng.name)
        h, m = hits.value(engine=eng.name), misses.value(engine=eng.name)
        ratio = h / (h + m) if h + m else 0.0
        print(f"  shard {eng.name}: {n} lookups, cache hit ratio {ratio:.2f}, "
              f"backend {eng.active_backend}")
    if managed is not None:
        print(f"  churn: {managed.log.batches_total} batches committed, "
              f"health={managed.health}")
    print(f"  throughput: {len(addresses) / serve_s:,.0f} lookups/s "
          f"({serve_s * 1e3:.1f} ms serving)")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(registry.to_json(include_timings=True))
            handle.write("\n")
    if mismatches:
        print(f"serve: {mismatches} spot-check mismatches against the oracle")
        return 1
    print(f"  spot-checks: every {args.check_every} requests verified "
          "against the oracle, all consistent")
    return 0


def cmd_artifact(args: argparse.Namespace) -> int:
    """Manage the persistent artifact catalog (save/load/list/verify)."""
    import os

    from .artifact import ArtifactCatalog, ArtifactError

    catalog = ArtifactCatalog(args.catalog)

    if args.artifact_cmd == "save":
        if args.fib:
            fib = load_fib(args.fib)
        else:
            maker = (synthesize_as65000 if args.family == "v4"
                     else synthesize_as131072)
            fib = maker(scale=args.scale, seed=args.seed)
        algo = _build(args.algo, fib)
        vplan = None
        if not args.no_vector:
            try:
                vplan = algo.compile_vector_plan()
            except Exception:
                vplan = None  # scalar-only schemes still snapshot state
        version = catalog.save(args.name, algo, fib, version=args.version,
                               vector_plan=vplan, overwrite=args.overwrite)
        path = catalog.path(args.name, version)
        print(f"artifact: saved {args.name}:{version} "
              f"({len(fib):,} prefixes, {os.path.getsize(path):,} bytes) "
              f"at {path}")
        return 0

    if args.artifact_cmd == "list":
        names = catalog.names()
        if not names:
            print(f"artifact: catalog {catalog.root} is empty")
            return 0
        for name in names:
            current = catalog.current(name)
            for version in catalog.versions(name):
                path = catalog.path(name, version)
                marker = " *" if version == current else ""
                print(f"{name}:{version}{marker}  "
                      f"{os.path.getsize(path):,} bytes")
        return 0

    name, version = _artifact_ref(args.name)

    if args.artifact_cmd == "verify":
        try:
            report = catalog.verify(name, version, deep=args.deep)
        except ArtifactError as exc:
            print(f"artifact: verify FAILED: {type(exc).__name__}: {exc}")
            return 1
        extra = (f", {report['probes']} probes differentially checked"
                 if args.deep else "")
        print(f"artifact: {report['name']}:{report['version']} OK — "
              f"{report['algorithm'] or 'fib-only'} width {report['width']}, "
              f"{report['fib_size']:,} prefixes, {report['sections']} "
              f"sections checksum-verified{extra}")
        return 0

    # args.artifact_cmd == "load": a warm-start smoke check.
    from .artifact.catalog import _probe_addresses
    try:
        loaded = catalog.load(name, version)
        fib = loaded.fib()
        algo = loaded.algorithm()
        plan = algo.compile_plan()
        addresses = _probe_addresses(fib, limit=args.probe)
        hops = plan.lookup_batch(addresses)
        mismatches = sum(1 for a, h in zip(addresses, hops)
                         if h != fib.lookup(a))
    except ArtifactError as exc:
        print(f"artifact: load FAILED: {type(exc).__name__}: {exc}")
        return 1
    print(f"artifact: loaded {name}:{loaded.version} — "
          f"{loaded.algorithm_name or 'fib-only'} width {loaded.width}, "
          f"{len(fib):,} prefixes, {len(loaded.arrays)} sections, "
          f"{len(addresses)} probe lookups "
          f"({mismatches} oracle mismatches)")
    return 1 if mismatches else 0


def run_bench_serve(
    base: Fib,
    algo_name: str,
    *,
    requests: int = 20000,
    workers: int = 4,
    max_batch: int = 512,
    max_wait_s: float = 0.002,
    request_size: int = 16,
    producers: int = 8,
    window: int = 32,
    backend: str = "auto",
    seed: int = 0,
    registry=None,
    faulted: bool = True,
):
    """Closed-loop serving benchmark: sequential vs coalesced concurrent.

    The baseline serves the same Zipf workload one request at a time
    through a single engine (the un-coalesced path a naive frontend
    would take).  The concurrent side runs ``producers`` closed-loop
    clients, each keeping ``window`` requests outstanding against a
    :class:`~repro.server.LookupServer`.

    With ``faulted=True`` a third pass replays the concurrent side
    under a scripted chaos plan that kills every worker once; the
    supervisor restarts them and the run records the recovery time
    (first death to full worker complement) plus the faulted/fault-free
    throughput ratio the CI gate checks (≥ 0.6x).

    Returns the ``values`` / ``timings`` dict the JSON sidecar and the
    CI gate consume; shared by ``repro bench-serve`` and
    ``benchmarks/bench_serve.py``.
    """
    import threading

    from .datasets import skewed_addresses
    from .engine import BatchEngine
    from .obs import MetricsRegistry
    from .obs.clock import MonotonicClock
    from .server import LookupServer
    from .server.supervisor import RestartPolicy

    if registry is None:
        registry = MetricsRegistry()
    algo = _build(algo_name, base)
    addresses = skewed_addresses(base, requests, seed=seed)

    sequential = BatchEngine(algo, backend="plan", registry=registry,
                             name="bench-seq")
    with registry.timer("repro_bench_serve_sequential"):
        for address in addresses:
            sequential.lookup_batch([address])

    chunks = [addresses[i:i + request_size]
              for i in range(0, len(addresses), request_size)]

    def drive(server) -> None:
        errors: List[BaseException] = []

        def produce(lane: int) -> None:
            outstanding = []
            try:
                for idx in range(lane, len(chunks), producers):
                    outstanding.append(server.submit(chunks[idx]))
                    if len(outstanding) >= window:
                        outstanding.pop(0).result(timeout=120)
                for handle in outstanding:
                    handle.result(timeout=120)
            except BaseException as exc:  # noqa: BLE001 — surface to caller
                errors.append(exc)

        threads = [threading.Thread(target=produce, args=(lane,),
                                    name=f"bench-client-{lane}")
                   for lane in range(producers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

    def slo_latency(srv) -> Dict[str, dict]:
        """Per-phase p50/p99/p999 from the server's SLO windows."""
        return {
            phase: {q: stats.get(q) for q in ("p50_s", "p99_s", "p999_s")}
            for phase, stats in srv.slo.report()["phases"].items()
        }

    server = LookupServer(algo, workers=workers, max_batch=max_batch,
                          max_wait_s=max_wait_s, backend=backend,
                          registry=registry, name="bench-serve")
    with server:
        with registry.timer("repro_bench_serve_concurrent"):
            drive(server)
        backend_used = server.active_backend
        concurrent_latency = slo_latency(server)

    fault_values = {}
    fault_timings = {}
    if faulted:
        from .chaos import ChaosPlan
        from .server import ServingHealth

        # Kill every worker exactly once, early and staggered; the
        # supervisor must restart each within its (tiny) backoff.
        script = [("kill", w, 1 + w) for w in range(workers)]
        plan = ChaosPlan(injectors=[], script=script)
        # Lenient health thresholds: the scripted kill burst must not
        # flip the server into DEGRADED/BROWNOUT, or the measurement
        # compares a shedding server against a serving one instead of
        # isolating the cost of deaths + restarts + re-queues.
        lenient = ServingHealth(
            MonotonicClock(), queue_capacity=32,
            degraded_restarts=10 * workers,
            brownout_restarts=20 * workers,
            degraded_miss_rate=1.1, brownout_miss_rate=1.1,
            degraded_depth=100.0, brownout_depth=200.0)
        faulted_server = LookupServer(
            algo, workers=workers, max_batch=max_batch,
            max_wait_s=max_wait_s, backend=backend, registry=registry,
            name="bench-serve-faulted", chaos=plan, health=lenient,
            restart_policy=RestartPolicy(
                base_backoff_s=0.005, max_backoff_s=0.02,
                budget=4 * workers, window_s=3600.0, seed=seed))
        clock = MonotonicClock()
        recovery = {"death_at": None, "restored_at": None}
        watcher_stop = threading.Event()

        def watch() -> None:
            pool = faulted_server.pool
            while not watcher_stop.wait(0.001):
                alive = pool.alive_workers()
                if recovery["death_at"] is None:
                    if alive < workers:
                        recovery["death_at"] = clock.now()
                elif recovery["restored_at"] is None and alive == workers:
                    recovery["restored_at"] = clock.now()

        watcher = threading.Thread(target=watch, name="bench-chaos-watch")
        faulted_latency = {}
        with faulted_server:
            watcher.start()
            with registry.timer("repro_bench_serve_faulted"):
                drive(faulted_server)
            faulted_latency = slo_latency(faulted_server)
            # Pending restarts may still be in their (tiny) backoff;
            # give them a bounded window so recovery_s is recorded.
            settle = threading.Event()
            supervisor = faulted_server.supervisor
            for _ in range(1000):
                caught_up = (supervisor.restarts + supervisor.giveups
                             >= supervisor.deaths)
                seen = (recovery["death_at"] is None
                        or recovery["restored_at"] is not None)
                if caught_up and seen:
                    break
                settle.wait(0.002)
            watcher_stop.set()
            watcher.join()
        recovery_s = (recovery["restored_at"] - recovery["death_at"]
                      if recovery["death_at"] is not None
                      and recovery["restored_at"] is not None else None)
        fault_values = {
            "faulted_kills_scripted": len(script),
            "faulted_worker_deaths": supervisor.deaths,
            "faulted_worker_restarts": supervisor.restarts,
            "faulted_threshold_x": 0.6,
        }
        fault_timings = {"recovery_s": recovery_s}

    timings = registry.timings_snapshot()
    sequential_s = timings["repro_bench_serve_sequential"]["total_s"] or 1e-9
    concurrent_s = timings["repro_bench_serve_concurrent"]["total_s"] or 1e-9
    doc = {
        "values": {
            "algo": algo_name,
            "backend": backend_used,
            "max_batch": max_batch,
            "producers": producers,
            "request_size": request_size,
            "requests": len(addresses),
            "window": window,
            "workers": workers,
            "speedup_threshold_x": 2.0,
            **fault_values,
        },
        "timings": {
            "sequential_s": sequential_s,
            "concurrent_s": concurrent_s,
            "sequential_lookups_per_s": len(addresses) / sequential_s,
            "concurrent_lookups_per_s": len(addresses) / concurrent_s,
            "speedup_x": sequential_s / concurrent_s,
            "latency": {"concurrent": concurrent_latency},
            **fault_timings,
        },
    }
    if faulted:
        faulted_s = timings["repro_bench_serve_faulted"]["total_s"] or 1e-9
        doc["timings"]["faulted_s"] = faulted_s
        doc["timings"]["faulted_lookups_per_s"] = len(addresses) / faulted_s
        doc["timings"]["faulted_throughput_x"] = concurrent_s / faulted_s
        doc["timings"]["latency"]["faulted"] = faulted_latency
    return doc


def cmd_bench_serve(args: argparse.Namespace) -> int:
    """Closed-loop load generator: coalesced serving vs sequential."""
    import json
    import pathlib

    from .obs import MetricsRegistry

    if args.smoke:
        args.scale = 0.001
        args.requests = 4000

    if args.fib:
        base = load_fib(args.fib)
    else:
        maker = synthesize_as65000 if args.family == "v4" else synthesize_as131072
        base = maker(scale=args.scale)

    registry = MetricsRegistry()
    doc = run_bench_serve(
        base, args.algo, requests=args.requests, workers=args.workers,
        max_batch=args.max_batch, max_wait_s=args.max_wait / 1000.0,
        request_size=args.request_size, producers=args.producers,
        window=args.window, backend=args.backend, seed=args.seed,
        registry=registry)
    doc["values"]["speedup_threshold_x"] = args.threshold
    timings = doc["timings"]
    print(f"bench-serve: algo={args.algo} backend={doc['values']['backend']} "
          f"base={len(base)} prefixes requests={doc['values']['requests']} "
          f"workers={args.workers} producers={args.producers} "
          f"window={args.window} request_size={args.request_size} "
          f"max_batch={args.max_batch} max_wait={args.max_wait}ms "
          f"seed={args.seed}")
    print(f"  sequential: {timings['sequential_lookups_per_s']:,.0f} "
          f"lookups/s ({timings['sequential_s'] * 1e3:.1f} ms)")
    print(f"  coalesced:  {timings['concurrent_lookups_per_s']:,.0f} "
          f"lookups/s ({timings['concurrent_s'] * 1e3:.1f} ms)")
    print(f"  speedup: {timings['speedup_x']:.1f}x "
          f"(threshold {args.threshold:.1f}x)")
    request_pcts = timings.get("latency", {}).get(
        "concurrent", {}).get("request") or {}
    if request_pcts.get("p50_s") is not None:
        print(f"  latency (request): "
              f"p50={request_pcts['p50_s'] * 1e3:.2f}ms "
              f"p99={(request_pcts.get('p99_s') or 0.0) * 1e3:.2f}ms "
              f"p999={(request_pcts.get('p999_s') or 0.0) * 1e3:.2f}ms")
    faulted_x = timings.get("faulted_throughput_x")
    if faulted_x is not None:
        recovery = timings.get("recovery_s")
        recovery_txt = (f"{recovery * 1e3:.1f} ms"
                        if recovery is not None else "n/a")
        print(f"  faulted:    {timings['faulted_lookups_per_s']:,.0f} "
              f"lookups/s ({timings['faulted_s'] * 1e3:.1f} ms) — "
              f"{doc['values']['faulted_worker_deaths']} kill(s), "
              f"{doc['values']['faulted_worker_restarts']} restart(s), "
              f"recovery {recovery_txt}")
        print(f"  faulted throughput: {faulted_x:.2f}x fault-free "
              f"(threshold {doc['values']['faulted_threshold_x']:.1f}x)")
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    sidecar = {
        "bench": out.stem,
        "values": doc["values"],
        "timings": doc["timings"],
        "metrics": registry.snapshot(),
        "wall_timings": registry.timings_snapshot(),
    }
    out.write_text(json.dumps(sidecar, indent=2, sort_keys=True,
                              default=str) + "\n")
    print(f"  wrote {out}")
    failed = False
    if args.threshold and timings["speedup_x"] < args.threshold:
        print(f"bench-serve: speedup below the {args.threshold:.1f}x "
              "threshold")
        failed = True
    if faulted_x is not None and faulted_x < doc["values"]["faulted_threshold_x"]:
        print(f"bench-serve: faulted throughput "
              f"{faulted_x:.2f}x below the "
              f"{doc['values']['faulted_threshold_x']:.1f}x threshold")
        failed = True
    return 1 if failed else 0


def cmd_chaos_soak(args: argparse.Namespace) -> int:
    """Deterministic chaos soak: fault-injected serving vs the oracle."""
    import json
    import pathlib

    from .chaos import ALL_CHAOS, DEFAULT_CHAOS, SoakFailure, run_chaos_soak

    if args.chaos == "all":
        names = sorted(ALL_CHAOS)
    elif args.chaos in (None, "default"):
        names = list(DEFAULT_CHAOS)
    else:
        names = [n for n in args.chaos.split(",") if n]
    script = []
    for event in args.script or []:
        try:
            kind, worker, seq = event.split(":")
            script.append((kind, int(worker), int(seq)))
        except ValueError:
            raise SystemExit(
                f"chaos-soak: bad --script event {event!r} "
                "(expected KIND:WORKER:SEQ, e.g. kill:1:7)")
    modes = ["thread", "process"] if args.mode == "both" else [args.mode]
    runs = []
    ok = True
    for mode in modes:
        try:
            report = run_chaos_soak(
                mode=mode, workers=args.workers, requests=args.requests,
                request_size=args.request_size, seed=args.seed,
                chaos=names, rate=args.rate, script=script,
                deadline_s=(args.deadline / 1000.0
                            if args.deadline else None))
        except SoakFailure as failure:
            report = (failure.args[1] if len(failure.args) > 1
                      else {"mode": mode, "ok": False,
                            "failures": [str(failure.args[0])]})
            ok = False
        runs.append(report)
        status = "ok" if report.get("ok") else "FAILED"
        print(f"chaos-soak[{mode}]: {status} "
              f"requests={report.get('requests')} "
              f"answered={report.get('answered')} "
              f"shed={report.get('shed')} "
              f"deadline_timeouts={report.get('deadline_timeouts')} "
              f"lost={report.get('lost')} dup={report.get('duplicated')} "
              f"stale={report.get('stale')} "
              f"deaths={report.get('worker_deaths')} "
              f"restarts={report.get('worker_restarts')} "
              f"health={report.get('final_health')}")
        latency = report.get("latency") or {}
        if latency.get("request_p50_s") is not None:
            print(f"  latency: "
                  f"p50={latency['request_p50_s'] * 1e3:.2f}ms "
                  f"p99={(latency.get('request_p99_s') or 0.0) * 1e3:.2f}ms "
                  f"p999={(latency.get('request_p999_s') or 0.0) * 1e3:.2f}ms "
                  f"(slo breaches: {report.get('slo_breaches', 0)})")
        for failure in report.get("failures", []):
            print(f"  violation: {failure}")
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    sidecar = {
        "bench": out.stem,
        "values": {"modes": modes, "chaos": names,
                   "script": [list(event) for event in script],
                   "seed": args.seed, "requests": args.requests,
                   "workers": args.workers},
        # Per-mode tail latency under "timings" so the trajectory
        # tracker's flattener picks it up for regression checking.
        "timings": {
            str(run.get("mode", f"run{i}")): dict(run.get("latency") or {})
            for i, run in enumerate(runs)
        },
        "runs": runs,
        "ok": ok,
    }
    out.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    print(f"  wrote {out}")
    return 0 if ok else 1


def cmd_bench_history(args: argparse.Namespace) -> int:
    """Benchmark trajectory: append sidecars to the versioned history
    and report regressions against the previous recorded run."""
    from .obs import trajectory

    appended = 0
    if not args.no_append:
        run, records = trajectory.append_run(args.results_dir, args.history)
        appended = len(records)
        if appended:
            print(f"bench-history: appended {appended} sidecar record(s) "
                  f"as run {run} -> {args.history}")
        else:
            print(f"bench-history: no bench sidecars under "
                  f"{args.results_dir} — nothing appended")
    history = trajectory.load_history(args.history)
    if not history:
        print("bench-history: history is empty — run some benches first")
        return 0
    report = trajectory.compare_runs(history, threshold=args.threshold)
    print(trajectory.render_report(report))
    if args.report_out:
        import json as _json
        with open(args.report_out, "w", encoding="utf-8") as handle:
            _json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"  report written to {args.report_out}")
    if args.check and not report["ok"]:
        if args.strict:
            print("bench-history: regressions above threshold (strict)")
            return 1
        print("bench-history: regressions above threshold (soft gate — "
              "pass --strict to fail)")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Trace lookups through an algorithm's CRAM program."""
    import json
    import pathlib

    from .datasets import mixed_addresses
    from .obs import RecordingTracer, validate_chrome_trace

    if args.smoke:
        fib = synthesize_as65000(scale=0.001, seed=65000)
    elif args.fib:
        fib = load_fib(args.fib)
    else:
        raise SystemExit("trace: --fib is required (or use --smoke)")
    algo = _build(args.algorithm, fib)

    if args.addresses:
        addresses = [_parse_address(t, fib.width) for t in args.addresses]
    else:
        addresses = mixed_addresses(fib, args.count, hit_fraction=0.8,
                                    seed=args.seed)

    tracer = RecordingTracer()
    for address in addresses:
        traced = algo.cram_lookup(address, tracer=tracer)
        untraced = algo.cram_lookup(address)
        native = algo.lookup(address)
        if traced != untraced or traced != native:  # pragma: no cover
            raise SystemExit(
                f"BUG: traced/untraced/native disagree at "
                f"{format_address(address, fib.width)}: "
                f"{traced}/{untraced}/{native}"
            )

    if args.out:
        out = pathlib.Path(args.out)
    elif args.smoke:
        out = pathlib.Path("benchmarks/results/trace_smoke.json")
    else:
        out = pathlib.Path("trace.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_chrome_trace(out)
    validate_chrome_trace(json.loads(out.read_text()))
    written = [str(out)]
    jsonl = args.jsonl
    if jsonl is None and args.smoke:
        jsonl = str(out.with_suffix(".jsonl"))
    if jsonl:
        tracer.write_jsonl(jsonl)
        written.append(str(jsonl))
    print(f"traced {len(addresses)} lookups through {algo.name}: "
          f"{len(tracer.events)} events, all next hops verified against "
          f"the untraced interpreter and the native lookup")
    print("wrote " + " and ".join(written) +
          " (load the .json in Perfetto / chrome://tracing)")
    return 0


def cmd_growth(args: argparse.Namespace) -> int:
    v4 = ipv4_table_size(args.year)
    v6 = ipv6_table_size(args.year)
    v6_linear = ipv6_table_size(args.year, "linear")
    print(f"{args.year}: IPv4 ~{v4:,} routes (doubling/decade); "
          f"IPv6 ~{v6:,} (doubling/3y) or ~{v6_linear:,} (linear slowdown)")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CRAM-lens IP lookup: synthesize tables, run lookups, "
                    "estimate chip resources, emit P4 sketches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="generate a synthetic BGP table")
    p.add_argument("family", choices=["v4", "v6"])
    p.add_argument("--scale", type=float, default=1.0,
                   help="fraction of current BGP scale (default 1.0)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output FIB file")
    p.set_defaults(func=cmd_synthesize, seed_default=True)

    p = sub.add_parser("lookup", help="route addresses through an algorithm")
    p.add_argument("--fib", required=True)
    p.add_argument("--algorithm", default="resail",
                   choices=sorted(ALGORITHM_FACTORIES))
    p.add_argument("--stats", action="store_true",
                   help="report per-table accesses and per-prefix hit "
                        "skew for the queried addresses (native backend "
                        "only; compiled plans bypass the accounting)")
    p.add_argument("--backend",
                   choices=["native", "plan", "vector", "auto"],
                   default="native",
                   help="execution path: the native walk (default), the "
                        "compiled plan, the lane-compiled vector plan, or "
                        "auto (vector when fully lowered)")
    p.add_argument("--explain", action="store_true",
                   help="print the lane compiler's lowering report "
                        "(whether the program lowered, and its kernel "
                        "schedule) before the per-address routes")
    p.add_argument("addresses", nargs="+")
    p.set_defaults(func=cmd_lookup)

    p = sub.add_parser("metrics", help="CRAM metrics and chip mappings")
    p.add_argument("--fib", required=True)
    p.add_argument("--algorithm", nargs="+", default=["resail"],
                   choices=sorted(ALGORITHM_FACTORIES))
    p.add_argument("--drmt", action="store_true",
                   help="include the dRMT model in the mappings")
    p.add_argument("--format", choices=["table", "prometheus", "json"],
                   default="table",
                   help="table (human, default) or machine-readable "
                        "Prometheus/JSON registry output")
    p.add_argument("--exercise", type=int, default=0, metavar="N",
                   help="run N seeded lookups per algorithm to populate "
                        "access counters (prometheus/json formats)")
    p.add_argument("--exercise-serve", type=int, default=0, metavar="N",
                   help="additionally serve N seeded addresses through a "
                        "deterministic fake-clock LookupServer so the "
                        "repro_server_* / span / SLO series appear in the "
                        "byte-stable rendering (prometheus/json formats)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the --exercise address workload")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "trace",
        help="trace lookups through an algorithm's CRAM program",
        description="Run addresses through the CRAM interpreter with the "
                    "step tracer attached, verify traced == untraced == "
                    "native next hops, and write a Chrome trace-event "
                    "JSON (open in Perfetto) plus optionally JSONL.",
    )
    p.add_argument("--fib", help="FIB file (omit with --smoke)")
    p.add_argument("--algorithm", default="resail",
                   choices=sorted(ALGORITHM_FACTORIES))
    p.add_argument("--count", type=int, default=4,
                   help="seeded addresses to trace when none are given")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="Chrome trace output path "
                                 "(default trace.json)")
    p.add_argument("--jsonl", help="also write the JSONL event stream here")
    p.add_argument("--smoke", action="store_true",
                   help="CI smoke: tiny synthetic FIB, writes "
                        "benchmarks/results/trace_smoke.{json,jsonl}")
    p.add_argument("addresses", nargs="*",
                   help="addresses to trace (default: seeded workload)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("codegen", help="emit a P4 sketch of an algorithm")
    p.add_argument("--fib", required=True)
    p.add_argument("--algorithm", default="resail",
                   choices=sorted(ALGORITHM_FACTORIES))
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(func=cmd_codegen)

    p = sub.add_parser("aggregate", help="ORTC-aggregate a routing table")
    p.add_argument("--fib", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser(
        "churn",
        help="run managed BGP-like churn with fault injection",
        description="Wrap an algorithm in the managed FIB runtime and "
                    "drive it with seeded BGP-like churn, optionally "
                    "injecting faults; prints a deterministic event-log "
                    "summary and exits nonzero on FAILED health or any "
                    "differential violation.",
    )
    p.add_argument("--algo", default="resail",
                   choices=sorted(ALGORITHM_FACTORIES))
    p.add_argument("--family", choices=["v4", "v6"], default="v4")
    p.add_argument("--fib", help="FIB file to start from (overrides "
                                 "--family/--scale synthesis)")
    p.add_argument("--scale", type=float, default=0.001,
                   help="synthetic table scale (default 0.001, ~930 routes)")
    p.add_argument("--ops", type=int, default=1000)
    p.add_argument("--batch", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", choices=["calm", "default", "stormy"],
                   default="default")
    p.add_argument("--faults", default="none",
                   help="'all', 'none', or comma-separated fault names")
    p.add_argument("--rebuild-budget", type=int, default=64)
    p.add_argument("--tcam-budget", type=int, default=None,
                   help="tighten the TCAM-block capacity guard")
    p.add_argument("--sram-budget", type=int, default=None,
                   help="tighten the SRAM-page capacity guard")
    p.add_argument("--delta", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="apply batches as in-place deltas on algorithms "
                        "that support it (--no-delta forces the legacy "
                        "copy-then-commit path)")
    p.add_argument("--smoke", action="store_true",
                   help="CI smoke mode: 200 ops, all faults")
    p.add_argument("--metrics-out", metavar="FILE",
                   help="write the run's metrics registry (including "
                        "wall-clock timings) as JSON to FILE")
    p.add_argument("--events-out", metavar="FILE",
                   help="archive the event log as JSONL to FILE")
    p.set_defaults(func=cmd_churn)

    p = sub.add_parser(
        "serve",
        help="serve a skewed lookup workload through the batch engine",
        description="Compile the algorithm into a lookup plan and serve "
                    "Zipf-skewed batches through the engine (plan + FIB "
                    "cache + optional sharding), spot-checking answers "
                    "against the oracle; optionally interleaves managed "
                    "churn to exercise commit-time cache invalidation.",
    )
    p.add_argument("--algo", default="resail",
                   choices=sorted(ALGORITHM_FACTORIES))
    p.add_argument("--family", choices=["v4", "v6"], default="v4")
    p.add_argument("--fib", help="FIB file to serve (overrides synthesis)")
    p.add_argument("--scale", type=float, default=0.002,
                   help="synthetic table scale (default 0.002)")
    p.add_argument("--requests", type=int, default=20000,
                   help="total lookups to serve")
    p.add_argument("--batch", type=int, default=256,
                   help="packets per engine batch")
    p.add_argument("--cache", type=int, default=1024,
                   help="FIB-cache capacity per shard (0 disables)")
    p.add_argument("--shards", type=int, default=1,
                   help="engine shards (replicas or VRF-hash shards)")
    p.add_argument("--vrfs", type=int, default=0,
                   help="serve this many VRFs through the VRF-hash dispatcher")
    p.add_argument("--policy", choices=["auto", "vrf-hash", "round-robin"],
                   default="auto",
                   help="dispatch policy (auto: vrf-hash iff --vrfs > 0)")
    p.add_argument("--backend", choices=["plan", "vector", "auto"],
                   default="plan",
                   help="engine execution backend: the scalar compiled "
                        "plan (default), the lane-compiled NumPy vector "
                        "plan, or auto (vector when fully lowered)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", choices=["calm", "default", "stormy"],
                   default="calm", help="churn profile when --churn-ops > 0")
    p.add_argument("--churn-ops", type=int, default=0,
                   help="interleave managed churn batches of this many ops")
    p.add_argument("--churn-every", type=int, default=4,
                   help="apply churn after every Nth served batch")
    p.add_argument("--check-every", type=int, default=64,
                   help="differentially spot-check every Nth request "
                        "(0 disables)")
    p.add_argument("--workers", type=int, default=0,
                   help="serve through the concurrent coalescing frontend "
                        "with this many workers (0: synchronous path)")
    p.add_argument("--max-batch", type=int, default=256,
                   help="coalescer batch-size flush trigger (--workers)")
    p.add_argument("--max-wait", type=float, default=2.0,
                   help="coalescer deadline flush trigger in "
                        "milliseconds (--workers)")
    p.add_argument("--mode", choices=["thread", "process"],
                   default="thread",
                   help="worker replica kind for --workers (process: "
                        "forked children, shipped commit deltas, falling "
                        "back to FIB snapshots, at each commit)")
    p.add_argument("--delta", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="commit churn batches as in-place deltas and "
                        "ship/patch them through the workers "
                        "(--no-delta: legacy copy, recompile, and "
                        "snapshot shipping)")
    p.add_argument("--overload", choices=["block", "shed"],
                   default="block",
                   help="backpressure policy when the worker queue is "
                        "full (--workers)")
    p.add_argument("--chaos", metavar="NAMES",
                   help="inject seeded dataplane faults while serving "
                        "(--workers): comma-separated injector names, "
                        "'default' (kills + batch exceptions + commit "
                        "stalls) or 'all'")
    p.add_argument("--chaos-seed", type=int, default=None,
                   help="chaos schedule seed (default: --seed)")
    p.add_argument("--deadline", type=float, default=0.0,
                   help="per-request deadline in milliseconds "
                        "(--workers; 0 disables)")
    p.add_argument("--smoke", action="store_true",
                   help="CI smoke mode: small table, 4k requests, churn on")
    p.add_argument("--sample-rate", type=float, default=None,
                   help="request-lifecycle span sampling rate in [0, 1] "
                        "(--workers; default 0.0625 — 1 in 16; 1.0 also "
                        "runs the span<->metrics consistency check)")
    p.add_argument("--span-jsonl", metavar="FILE",
                   help="write sampled spans as JSONL to FILE (--workers)")
    p.add_argument("--span-chrome", metavar="FILE",
                   help="write sampled spans as a Chrome trace-event "
                        "file to FILE (--workers; opens in Perfetto)")
    p.add_argument("--status-port", type=int, default=None,
                   help="serve a live status endpoint (/metrics /health "
                        "/epoch /slo /spans) on this port while serving "
                        "(--workers; 0 picks an ephemeral port)")
    p.add_argument("--metrics-out", metavar="FILE",
                   help="write the engine metrics registry (including "
                        "wall-clock timings) as JSON to FILE")
    p.add_argument("--catalog", default=".repro-artifacts",
                   help="artifact catalog directory for --save/--load")
    p.add_argument("--save", metavar="NAME[:VERSION]",
                   help="snapshot the built algorithm state (and vector "
                        "plan backings) into the artifact catalog before "
                        "serving")
    p.add_argument("--load", metavar="NAME[:VERSION]",
                   help="warm-start from a catalog artifact instead of "
                        "building from scratch; process workers mmap the "
                        "snapshot rather than receiving a pickled FIB")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "artifact",
        help="manage the persistent FIB/plan artifact catalog",
        description="Save built algorithm state (plus compiled vector-plan "
                    "backings) into a versioned on-disk catalog, list and "
                    "checksum-verify stored snapshots, and smoke-load them "
                    "back — the warm-start path `repro serve --load` uses.",
    )
    asub = p.add_subparsers(dest="artifact_cmd", required=True)

    sp = asub.add_parser("save", help="build an algorithm and snapshot it")
    sp.add_argument("name", help="artifact name in the catalog")
    sp.add_argument("--algo", default="resail",
                    choices=sorted(ALGORITHM_FACTORIES))
    sp.add_argument("--fib", help="FIB file to build from "
                                  "(overrides synthesis)")
    sp.add_argument("--family", choices=["v4", "v6"], default="v4")
    sp.add_argument("--scale", type=float, default=0.002,
                    help="synthetic table scale (default 0.002)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--version", help="version label (default: next v%%03d)")
    sp.add_argument("--catalog", default=".repro-artifacts")
    sp.add_argument("--overwrite", action="store_true",
                    help="replace an existing version (normally immutable)")
    sp.add_argument("--no-vector", action="store_true",
                    help="skip persisting the vector plan's view backings")
    sp.set_defaults(func=cmd_artifact)

    sp = asub.add_parser("list", help="list catalog names and versions")
    sp.add_argument("--catalog", default=".repro-artifacts")
    sp.set_defaults(func=cmd_artifact)

    sp = asub.add_parser("verify",
                         help="checksum-verify a stored snapshot")
    sp.add_argument("name", metavar="NAME[:VERSION]")
    sp.add_argument("--catalog", default=".repro-artifacts")
    sp.add_argument("--deep", action="store_true",
                    help="also import the state and differentially check "
                         "probe lookups against a fresh build")
    sp.set_defaults(func=cmd_artifact)

    sp = asub.add_parser("load",
                         help="warm-start smoke check: load, compile, probe")
    sp.add_argument("name", metavar="NAME[:VERSION]")
    sp.add_argument("--catalog", default=".repro-artifacts")
    sp.add_argument("--probe", type=int, default=512,
                    help="probe-lookup budget (default 512)")
    sp.set_defaults(func=cmd_artifact)

    p = sub.add_parser(
        "bench-serve",
        help="closed-loop load generator: coalesced vs sequential serving",
        description="Serve the same seeded Zipf workload two ways — one "
                    "request at a time through a single engine, then "
                    "through the concurrent coalescing frontend under "
                    "closed-loop producers — and report the throughput "
                    "ratio; writes a machine-readable JSON sidecar.",
    )
    p.add_argument("--algo", default="resail",
                   choices=sorted(ALGORITHM_FACTORIES))
    p.add_argument("--family", choices=["v4", "v6"], default="v4")
    p.add_argument("--fib", help="FIB file to serve (overrides synthesis)")
    p.add_argument("--scale", type=float, default=0.002,
                   help="synthetic table scale (default 0.002)")
    p.add_argument("--requests", type=int, default=20000,
                   help="total lookups per side")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--producers", type=int, default=8,
                   help="closed-loop client threads")
    p.add_argument("--window", type=int, default=32,
                   help="outstanding requests per client")
    p.add_argument("--request-size", type=int, default=16,
                   help="addresses per client request")
    p.add_argument("--max-batch", type=int, default=512)
    p.add_argument("--max-wait", type=float, default=2.0,
                   help="coalescer deadline in milliseconds")
    p.add_argument("--backend", choices=["plan", "vector", "auto"],
                   default="auto")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=2.0,
                   help="fail unless coalesced/sequential throughput "
                        "ratio reaches this (0 disables)")
    p.add_argument("--smoke", action="store_true",
                   help="CI smoke mode: tiny table, 4k requests")
    p.add_argument("--out", metavar="FILE",
                   default="benchmarks/results/serve_concurrency.json",
                   help="JSON sidecar path")
    p.set_defaults(func=cmd_bench_serve)

    p = sub.add_parser(
        "chaos-soak",
        help="fault-injected serving soak checked against the oracle",
        description="Serve a seeded workload under scripted dataplane "
                    "chaos (worker kills, batch exceptions, ack faults, "
                    "commit stalls) and assert the robustness "
                    "invariants: zero lost, duplicated, or stale reads; "
                    "every killed worker restarted; no future outlives "
                    "its deadline unresolved.  Writes a JSON sidecar.",
    )
    p.add_argument("--mode", choices=["thread", "process", "both"],
                   default="both")
    p.add_argument("--workers", type=int, default=3)
    p.add_argument("--requests", type=int, default=300)
    p.add_argument("--request-size", type=int, default=8,
                   help="addresses per request (must divide the soak's "
                        "max batch of 64)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chaos", metavar="NAMES",
                   help="comma-separated injector names, 'default' "
                        "(kills + batch exceptions + commit stalls) or "
                        "'all'")
    p.add_argument("--rate", type=float, default=None,
                   help="override every injector's fire rate")
    p.add_argument("--script", action="append", metavar="KIND:WORKER:SEQ",
                   help="exact trigger, e.g. kill:1:7 (repeatable)")
    p.add_argument("--deadline", type=float, default=30000.0,
                   help="per-request deadline in milliseconds "
                        "(0 disables)")
    p.add_argument("--out", metavar="FILE",
                   default="benchmarks/results/chaos_soak.json",
                   help="JSON sidecar path")
    p.set_defaults(func=cmd_chaos_soak)

    p = sub.add_parser(
        "bench-history",
        help="append bench sidecars to the trajectory history and "
             "report regressions",
        description="Read the bench JSON sidecars, append them to a "
                    "versioned BENCH_history.jsonl keyed by run index, "
                    "and compare the last two runs: warn on a >10%% "
                    "throughput drop or p99/p999 latency inflation.",
    )
    p.add_argument("--results-dir", default="benchmarks/results",
                   help="directory holding the bench *.json sidecars")
    p.add_argument("--history",
                   default="benchmarks/results/BENCH_history.jsonl",
                   help="trajectory history file (JSONL, appended)")
    p.add_argument("--threshold", type=float, default=0.10,
                   help="relative regression that trips a warning "
                        "(default 0.10 = 10%%)")
    p.add_argument("--no-append", action="store_true",
                   help="only compare the existing history; do not "
                        "record the current sidecars as a new run")
    p.add_argument("--check", action="store_true",
                   help="evaluate the regression gate (soft by default)")
    p.add_argument("--strict", action="store_true",
                   help="with --check: exit non-zero on warnings")
    p.add_argument("--report-out", metavar="FILE",
                   help="write the full delta report as JSON to FILE")
    p.set_defaults(func=cmd_bench_history)

    p = sub.add_parser("growth", help="BGP growth projections (Figure 1)")
    p.add_argument("--year", type=int, default=2033)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("results",
                       help="print reproduced paper tables from a bench run")
    p.add_argument("--dir", default="benchmarks/results")
    p.add_argument("--only", nargs="*",
                   help="result stems to show (e.g. tab04_ipv4_cram)")
    p.set_defaults(func=cmd_results)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "seed_default", False) and args.seed is None:
        args.seed = 65000 if args.family == "v4" else 131072
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. `repro codegen ... | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
