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


def _base_fib(args: argparse.Namespace, **synth) -> Fib:
    """``--fib FILE``, else the ``--family``/``--scale`` synthetic table."""
    if args.fib:
        return load_fib(args.fib)
    maker = synthesize_as65000 if args.family == "v4" else synthesize_as131072
    return maker(scale=args.scale, **synth)


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
    else:  # vector: a plan that did not lower delegates itself
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
              "pytest benchmarks/")
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

    base = _base_fib(args)
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
    _write_metrics(managed.registry, args.metrics_out)
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


def _chaos_names(text: Optional[str]) -> List[str]:
    """``--chaos``: 'all', 'default' (also when omitted) or a comma list."""
    from .chaos import ALL_CHAOS, DEFAULT_CHAOS

    if text == "all":
        return sorted(ALL_CHAOS)
    if text in (None, "default"):
        return list(DEFAULT_CHAOS)
    return [n for n in text.split(",") if n]


def _write_metrics(registry, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(registry.to_json(include_timings=True))
            handle.write("\n")


def _serve_vrfs(args: argparse.Namespace, base: Fib) -> int:
    """``repro serve --vrfs N``: the synchronous VRF-hash demo.

    Requests here are ``(vrf, address)`` pairs, which the server does
    not take, so N VRFs (each carrying the base table) are hashed across
    ``--shards`` tag-widened shard engines (idiom I5) and served batch
    by batch on the calling thread.
    """
    from .datasets import skewed_addresses
    from .engine import VrfShardedEngine
    from .obs import MetricsRegistry

    # Shard FIBs are tag-widened, so the structure must accept arbitrary
    # widths; width-bound schemes fall back to the logical TCAM.
    algo = args.algo
    if algo not in ("ltcam", "hibst", "bsic"):
        print(f"serve: {algo} is width-bound; VRF shards use ltcam")
        algo = "ltcam"
    registry = MetricsRegistry()
    sharded = VrfShardedEngine(
        base.width, lambda fib: _build(algo, fib), shards=args.shards,
        max_vrfs=args.vrfs, registry=registry, name="serve")
    for vrf_id in range(args.vrfs):
        sharded.add_vrf(vrf_id, base.copy())
    addresses = skewed_addresses(base, args.requests, seed=args.seed)
    mismatches = 0
    for start in range(0, len(addresses), args.max_batch):
        batch = addresses[start:start + args.max_batch]
        requests = [((start + i) % args.vrfs, address)
                    for i, address in enumerate(batch)]
        with registry.timer("repro_serve_batch"):
            hops = sharded.lookup_batch(requests)
        if args.check_every:
            mismatches += sum(hops[i] != base.lookup(batch[i])
                              for i in range(0, len(batch), args.check_every))

    serve_s = registry.timings_snapshot().get(
        "repro_serve_batch", {}).get("total_s", 0.0)
    lookups = registry.counter("repro_engine_lookups_total")
    print(f"serve: algo={algo} vrfs={args.vrfs} shards={args.shards} "
          f"requests={len(addresses)} batch={args.max_batch} "
          f"seed={args.seed}")
    for eng in sharded.shard_engines():
        if eng is not None:
            print(f"  shard {eng.name}: {lookups.value(engine=eng.name)} "
                  f"lookups, backend {eng.active_backend}")
    print(f"  throughput: {len(addresses) / (serve_s or 1e-9):,.0f} "
          f"lookups/s ({serve_s * 1e3:.1f} ms serving)")
    _write_metrics(registry, args.metrics_out)
    if mismatches:
        print(f"serve: {mismatches} spot-check mismatches against the oracle")
        return 1
    print(f"  spot-checks: every {args.check_every} requests verified "
          "against the oracle, all consistent")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a skewed workload through :func:`repro.server.serve_workload`
    (churn commits land meanwhile; answers are spot-checked against the
    oracle of their serving epoch).  SIGINT/SIGTERM drain and exit 130;
    ``--chaos`` arms a seeded :class:`~repro.chaos.ChaosPlan`."""
    import collections
    import contextlib

    from .artifact import ArtifactCatalog
    from .control import ChurnGenerator, ManagedFib, PROFILES, RuntimePolicy
    from .datasets import skewed_addresses
    from .obs import MetricsRegistry
    from .server import LookupServer, serve_workload

    if args.smoke:
        args.scale = 0.001
        args.requests = 4000
        args.churn_ops = 8

    loaded = None
    if args.load:
        if args.vrfs > 0:
            raise SystemExit("serve: --load does not combine with --vrfs")
        name, version = _artifact_ref(args.load)
        loaded = ArtifactCatalog(args.catalog).load(
            name, version, factory=lambda fib: _build(args.algo, fib))
        base = loaded.fib()
        print(f"serve: warm start from artifact {name}:{loaded.version} "
              f"({len(base):,} prefixes, {loaded.algorithm_name or args.algo})")
    else:
        base = _base_fib(args)
    if args.vrfs > 0:
        return _serve_vrfs(args, base)

    chaos_names = _chaos_names(args.chaos) if args.chaos else []
    chaos_plan = None
    if chaos_names:
        from .chaos import ChaosPlan
        chaos_plan = ChaosPlan.build(
            chaos_names,
            args.seed if args.chaos_seed is None else args.chaos_seed)
    registry = MetricsRegistry()
    managed = ManagedFib(
        lambda fib: _build(args.algo, fib), base, registry=registry,
        check_seed=args.seed, policy=RuntimePolicy(delta_updates=args.delta),
        algo=loaded.algorithm() if loaded is not None else None)
    if args.save:
        name, version = _artifact_ref(args.save)
        version = ArtifactCatalog(args.catalog).save(
            name, managed.algo, managed.oracle, version=version,
            vector_plan=managed.algo.compile_vector_plan())
        print(f"serve: saved artifact {name}:{version} to {args.catalog}")
    server = LookupServer(
        managed=managed, workers=args.workers, max_batch=args.max_batch,
        max_wait_s=args.max_wait / 1000.0, overload=args.overload,
        mode=args.mode, name="serve",
        chaos=chaos_plan, ship_deltas=args.delta,
        request_deadline_s=args.deadline / 1000.0 if args.deadline else None,
        sample_rate=args.sample_rate, span_seed=args.seed,
        ack_timeout_s=(2.0 if any(n.startswith("ack") for n in chaos_names)
                       else 60.0),
        artifact=str(loaded.path) if loaded is not None else None)

    addresses = skewed_addresses(base, args.requests, seed=args.seed)
    request_size = min(16, args.max_batch)
    requests = [addresses[i:i + request_size]
                for i in range(0, len(addresses), request_size)]
    churn = ()
    if args.churn_ops and args.churn_every:
        commits = -(-len(addresses) // args.max_batch) // args.churn_every
        churn = list(ChurnGenerator(
            base, seed=args.seed, profile=PROFILES[args.profile]
        ).batches(commits * args.churn_ops, args.churn_ops))
    with contextlib.ExitStack() as stack:
        if args.status_port is not None:
            from .obs.status import StatusServer
            status = stack.enter_context(StatusServer(
                registry, port=args.status_port,
                health=lambda: {"state": str(server.health_state),
                                "epoch": server.epoch},
                epoch=lambda: server.epoch,
                spans=server.spans.tail, slo=server.slo.report))
            print(f"serve: status endpoint at {status.url}")
        report = serve_workload(server, managed, requests, churn=churn,
                                check_every=args.check_every)
    if report["interrupted"]:
        print("serve: interrupted — drained accepted requests and "
              "shut down cleanly")
        return 130

    batches = sum(registry.snapshot()["counters"].get(
        "repro_server_batches_total", {}).values())
    print(f"serve: algo={args.algo} mode={args.mode} workers={args.workers} "
          f"requests={len(addresses)} request_size={request_size} "
          f"max_batch={args.max_batch} max_wait={args.max_wait}ms "
          f"seed={args.seed}")
    for i, eng in enumerate(server.engines()):
        print(f"  worker {i}: backend {eng.active_backend}")
    cuts = collections.Counter()
    for key, count in registry.get("repro_server_flush_total").items():
        reason = dict(key)["reason"]
        cuts[reason if reason in ("size", "idle", "deadline") else "other"] \
            += count
    print(f"  coalesced: {len(requests)} requests into {batches} batches "
          f"(cut by size {cuts['size']}, idle {cuts['idle']}, deadline "
          f"{cuts['deadline']}, other {cuts['other']}), "
          f"{report['shed']} shed, {report['straddled']} commit-straddled")
    print(f"  churn: {report['commits']} batches committed, "
          f"{report['rolled_back']} rolled back, "
          f"serving epoch {report['epoch']}, health={managed.health}")
    sup = server.supervisor
    if chaos_plan is not None or sup.deaths:
        print(f"  chaos: faults={','.join(chaos_names) or 'none'} "
              f"deaths={sup.deaths} restarts={sup.restarts} "
              f"giveups={sup.giveups} requeued={sup.requeued_batches} "
              f"serving_health={server.health_state}")
    serve_s = report["serve_s"] or 1e-9
    print(f"  throughput: {len(addresses) / serve_s:,.0f} lookups/s "
          f"({serve_s * 1e3:.1f} ms serving)")
    slo_report = server.slo.report()
    pcts = slo_report["phases"].get("request", {})
    print(f"  latency: p50={pcts.get('p50_s', 0.0) * 1e3:.2f}ms "
          f"p99={pcts.get('p99_s', 0.0) * 1e3:.2f}ms "
          f"p999={pcts.get('p999_s', 0.0) * 1e3:.2f}ms "
          f"(window of {pcts.get('window_n', 0)}, "
          f"{slo_report['breaches']} SLO breaches)")
    rate = server.spans.sample_rate
    counts = ", ".join(f"{k}={v}" for k, v in server.spans.counts().items())
    print(f"  spans: {len(server.spans)} recorded at rate {rate:g} "
          f"({counts or 'none'})")
    if rate >= 1.0:
        from .obs.spans import check_span_metrics_consistency
        check = check_span_metrics_consistency(server.spans, registry,
                                               server="serve")
        if not check["ok"]:
            print("  span<->metrics consistency: FAILED: "
                  + "; ".join(check["mismatches"]))
            return 1
        print("  span<->metrics consistency: OK "
              f"(count={check['spans']['count']}, sums agree)")
    if args.span_jsonl:
        server.spans.write_jsonl(args.span_jsonl)
        print(f"  spans written to {args.span_jsonl}")
    if args.span_chrome:
        server.spans.write_chrome_trace(args.span_chrome)
        print(f"  chrome trace written to {args.span_chrome}")
    _write_metrics(registry, args.metrics_out)
    if report["mismatches"]:
        print(f"serve: {report['mismatches']} spot-check mismatches against "
              "the epoch oracle")
        return 1
    print(f"  spot-checks: {report['checked']} answers verified against "
          "per-epoch oracle snapshots, all consistent")
    return 0


def cmd_artifact(args: argparse.Namespace) -> int:
    """Manage the persistent artifact catalog (save/load/list/verify)."""
    import os

    from .artifact import ArtifactCatalog, ArtifactError

    catalog = ArtifactCatalog(args.catalog)

    if args.artifact_cmd == "save":
        fib = _base_fib(args, seed=args.seed)
        algo = _build(args.algo, fib)
        version = catalog.save(args.name, algo, fib, version=args.version,
                               vector_plan=algo.compile_vector_plan(),
                               overwrite=args.overwrite)
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


def cmd_chaos_soak(args: argparse.Namespace) -> int:
    """Deterministic chaos soak: fault-injected serving vs the oracle."""
    import json
    import pathlib

    from .chaos import SoakFailure, run_chaos_soak

    names = _chaos_names(args.chaos)
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
        if latency.get("samples"):
            shown = " ".join(
                f"{q}=" + ("n/a" if latency.get(f"request_{q}_s") is None
                           else f"{latency[f'request_{q}_s'] * 1e3:.2f}ms")
                for q in ("p50", "p99", "p999"))
            print(f"  latency: n={latency.get('samples')} {shown} "
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
        "runs": runs,
        "ok": ok,
    }
    out.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    print(f"  wrote {out}")
    return 0 if ok else 1


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
    from .obs.spans import DEFAULT_SPAN_SAMPLE_RATE

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
                   choices=["native", "plan", "vector"],
                   default="native",
                   help="execution path: the native walk (default), the "
                        "compiled plan, or the lane-compiled vector plan "
                        "(which runs the compiled plan when it did not "
                        "lower)")
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
        help="serve a skewed lookup workload through the LookupServer",
        description="Serve Zipf-skewed requests through the coalescing "
                    "LookupServer (worker threads over one shared engine, "
                    "or forked replicas), optionally landing managed churn "
                    "commits meanwhile, and spot-check every answer against "
                    "the oracle of the epoch it was served under.  --vrfs N "
                    "runs the synchronous VRF-hash sharding demo instead.",
    )
    p.add_argument("--algo", default="resail",
                   choices=sorted(ALGORITHM_FACTORIES))
    p.add_argument("--family", choices=["v4", "v6"], default="v4")
    p.add_argument("--fib", help="FIB file to serve (overrides synthesis)")
    p.add_argument("--scale", type=float, default=0.002,
                   help="synthetic table scale (default 0.002)")
    p.add_argument("--requests", type=int, default=20000,
                   help="total lookups to serve")
    # Defaults are bench/workloads.py::SERVING, the measured configuration.
    p.add_argument("--workers", type=int, default=2,
                   help="worker threads (thread mode: all run one "
                        "engine; process mode: a forked replica each)")
    p.add_argument("--max-batch", type=int, default=512,
                   help="coalescer batch-size flush trigger")
    p.add_argument("--max-wait", type=float, default=2.0,
                   help="longest a coalesced batch waits, in milliseconds "
                        "(it is cut sooner when it fills, or when a worker "
                        "is idle and it would not fill in time)")
    p.add_argument("--mode", choices=["thread", "process"],
                   default="thread",
                   help="worker replica kind (process: forked children, "
                        "shipped commit deltas, falling back to FIB "
                        "snapshots, at each commit)")
    p.add_argument("--vrfs", type=int, default=0,
                   help="serve this many VRFs through the synchronous "
                        "VRF-hash dispatcher instead of the server")
    p.add_argument("--shards", type=int, default=1,
                   help="VRF-hash shards (--vrfs)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", choices=["calm", "default", "stormy"],
                   default="calm", help="churn profile when --churn-ops > 0")
    p.add_argument("--churn-ops", type=int, default=0,
                   help="interleave managed churn batches of this many ops")
    p.add_argument("--churn-every", type=int, default=4,
                   help="one churn commit per N full batches of traffic: "
                        "ceil(requests / max-batch) // N commits in all")
    p.add_argument("--check-every", type=int, default=64,
                   help="differentially spot-check every Nth request "
                        "(0 disables)")
    p.add_argument("--delta", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="commit churn batches as in-place deltas and "
                        "ship/patch them through the workers "
                        "(--no-delta: legacy copy, recompile, and "
                        "snapshot shipping)")
    p.add_argument("--overload", choices=["block", "shed"],
                   default="block",
                   help="backpressure policy when the worker queue is full")
    p.add_argument("--chaos", metavar="NAMES",
                   help="inject seeded dataplane faults while serving: "
                        "comma-separated injector names, 'default' (kills "
                        "+ batch exceptions + commit stalls) or 'all'")
    p.add_argument("--chaos-seed", type=int, default=None,
                   help="chaos schedule seed (default: --seed)")
    p.add_argument("--deadline", type=float, default=0.0,
                   help="per-request deadline in milliseconds (0 disables)")
    p.add_argument("--smoke", action="store_true",
                   help="CI smoke mode: small table, 4k requests, churn on")
    p.add_argument("--sample-rate", type=float,
                   default=DEFAULT_SPAN_SAMPLE_RATE,
                   help="request-lifecycle span sampling rate in [0, 1] "
                        "(default %(default)s; 1.0 also runs the "
                        "span<->metrics consistency check)")
    p.add_argument("--span-jsonl", metavar="FILE",
                   help="write sampled spans as JSONL to FILE")
    p.add_argument("--span-chrome", metavar="FILE",
                   help="write sampled spans as a Chrome trace-event "
                        "file to FILE (opens in Perfetto)")
    p.add_argument("--status-port", type=int, default=None,
                   help="serve a live status endpoint (/metrics /health "
                        "/epoch /slo /spans) on this port while serving "
                        "(0 picks an ephemeral port)")
    p.add_argument("--metrics-out", metavar="FILE",
                   help="write the metrics registry (including "
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
