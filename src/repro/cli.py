"""Command-line interface.

The original MoonGen is launched as ``MoonGen <userscript> [args]``; the
reproduction ships the canonical measurement scripts as subcommands::

    moongen-repro quickstart --metrics out.jsonl
    moongen-repro load-latency --rate 1.0 --mode crc --pattern poisson
    moongen-repro inter-arrival --rate 500
    moongen-repro precision --rate 1.0 --csv fig8.csv
    moongen-repro rfc2544 --frame-size 64 --frame-size 128 --jobs 2
    moongen-repro timestamps
    moongen-repro trace --scenario load-latency --out run.jsonl
    moongen-repro sweep fig2-cores --jobs 4 --live
    moongen-repro faults --plan burst-loss --plan flap --jobs 2
    moongen-repro metrics quickstart --out metrics.jsonl
    moongen-repro profile quickstart

Custom userscripts use the library API directly (see examples/).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import List, Optional

from repro import __version__, units


@contextlib.contextmanager
def _atomic_out(path: str, newline: str = "\n"):
    """Write a result file atomically: tmp + flush + fsync + ``os.replace``.

    A run killed mid-write leaves either the previous file or the
    complete new one on disk — never a torn half-write that a later
    resume or CI diff would misread (docs/RESILIENCE.md).
    """
    tmp = f"{path}.tmp"
    fh = open(tmp, "w", newline=newline)
    try:
        yield fh
        fh.flush()
        os.fsync(fh.fileno())
        fh.close()
        os.replace(tmp, path)
    except BaseException:
        fh.close()
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _resolve_faults(args: argparse.Namespace):
    """The ``--faults`` plan, builtin names seeded with ``--seed``."""
    from repro.scenarios import resolve_plan

    return resolve_plan(args.faults, args.seed)


def _warn_unmatched_faults(env) -> None:
    """stderr note when a fault's target never registered (silent no-op)."""
    injector = getattr(env, "injector", None)
    if injector is None:
        return
    for index, target in injector.unmatched():
        print(f"warning: fault #{index} targets {target!r} which does not "
              "exist in this topology; it will not fire", file=sys.stderr)


def _metrics_interval_ns(args: argparse.Namespace) -> float:
    """Snapshot interval: ~20 samples over the run, at least 100 µs."""
    return max(100_000.0, args.duration_ms * 1e6 / 20.0)


def _write_metrics(snapshotter, out: str, command: str, seed: int,
                   fault_plan=None, fingerprints=None) -> None:
    """Finalize a snapshot series; write JSONL + provenance manifest."""
    from repro.metrics import RunManifest, write_jsonl

    snapshotter.finalize()
    series = snapshotter.series
    with _atomic_out(out) as fh:
        write_jsonl(series, fh)
    fingerprint = series.fingerprint()
    manifest_path = RunManifest(
        command=command,
        seed=seed,
        jobs=1,
        config={"interval_ns": snapshotter.interval_ns,
                "metrics": snapshotter.registry.names()},
        fault_plan=(fault_plan.to_dict()
                    if hasattr(fault_plan, "to_dict") else fault_plan),
        result_fingerprint=fingerprint,
        fingerprints=fingerprints,
    ).write(out)
    print(f"wrote {len(series)} metric snapshots to {out} "
          f"(fingerprint {fingerprint}, manifest {manifest_path})")


def _cmd_quickstart(args: argparse.Namespace) -> int:
    from repro.scenarios import quickstart

    pair = quickstart(args.seed, faults=_resolve_faults(args),
                      metrics=bool(args.metrics), batch=args.batch,
                      dataplane=bool(args.metrics))
    env, tx = pair.env, pair.tx_dev
    _warn_unmatched_faults(env)
    snapshotter = None
    if args.metrics:
        snapshotter = env.start_snapshotter(_metrics_interval_ns(args))
    env.wait_for_slaves(duration_ns=args.duration_ms * 1e6)
    pps = tx.tx_packets / (env.now_ns / 1e9)
    print(f"transmitted {tx.tx_packets} packets in {env.now_ns / 1e6:.2f} ms "
          f"simulated: {pps / 1e6:.2f} Mpps "
          f"(line rate {units.LINE_RATE_10G_64B_PPS / 1e6:.2f})")
    if env.batch is not None:
        print(env.batch.summary())
    if snapshotter is not None:
        lat_fp = env.dataplane.fingerprint()
        print(f"latency fingerprint {lat_fp}")
        _write_metrics(snapshotter, args.metrics, "moongen-repro quickstart",
                       args.seed, fingerprints={"latency": lat_fp})
    return 0


def _cmd_load_latency(args: argparse.Namespace) -> int:
    from repro.scenarios import load_latency, load_latency_replica

    top, experiment = load_latency(
        args.seed, args.rate, args.mode, args.pattern, args.probes,
        faults=_resolve_faults(args), metrics=bool(args.metrics),
        batch=args.batch, dataplane=bool(args.metrics))
    env, dut = top.env, top.dut
    _warn_unmatched_faults(env)
    snapshotter = None
    if args.metrics:
        snapshotter = env.start_snapshotter(_metrics_interval_ns(args))

    mode = experiment.mode
    result = experiment.run(args.rate * 1e6,
                            duration_ns=args.duration_ms * 1e6,
                            dut_crc_counter=lambda: dut.rx_crc_errors)
    print(f"offered {args.rate:.2f} Mpps ({args.pattern} via {mode} rate control)")
    print(f"DuT forwarded {dut.forwarded} packets, dropped {dut.rx_dropped}, "
          f"fillers dropped in NIC: {result.dut_crc_drops}, "
          f"interrupt rate {dut.interrupt_rate_hz() / 1e3:.1f} kHz")
    if len(result.latency):
        q1, med, q3 = result.latency.quartiles()
        confidence = (f", confidence {result.probe_confidence:.2f}"
                      if result.probe_confidence < 1.0 else "")
        print(f"latency over {len(result.latency)} probes: "
              f"q1={q1 / 1e3:.1f} µs median={med / 1e3:.1f} µs "
              f"q3={q3 / 1e3:.1f} µs (lost {result.lost_probes}{confidence})")
    if env.batch is not None:
        print(env.batch.summary())
    if snapshotter is not None:
        lat_fp = env.dataplane.fingerprint()
        print(f"latency fingerprint {lat_fp}")
        if args.jobs and args.jobs > 1:
            from repro.parallel import run_parallel

            point = {"seed": args.seed, "rate": args.rate,
                     "mode": args.mode, "pattern": args.pattern,
                     "probes": args.probes, "faults": args.faults,
                     "duration_ms": args.duration_ms, "batch": args.batch}
            replicas = run_parallel(
                [dict(point, replica=i) for i in range(args.jobs)],
                load_latency_replica, jobs=args.jobs)
            bad = [fp for fp in replicas if fp != lat_fp]
            if bad:
                print(f"latency fingerprint DIVERGED in worker replicas: "
                      f"in-process {lat_fp}, workers {replicas}",
                      file=sys.stderr)
                return 1
            print(f"latency fingerprint verified across {args.jobs} "
                  "worker replicas")
        _write_metrics(snapshotter, args.metrics,
                       "moongen-repro load-latency", args.seed,
                       fingerprints={"latency": lat_fp})
    return 0


def _cmd_precision(args: argparse.Namespace) -> int:
    from repro.analysis.precision import (
        METHODS,
        audit_registry,
        format_audit_table,
        run_precision_audit,
        write_audit_csv,
    )
    from repro.metrics import RunManifest, to_prometheus

    results = run_precision_audit(
        rate_mpps=args.rate, frame_size=args.frame_size,
        duration_ns=args.duration_ms * 1e6, seed=args.seed,
        methods=tuple(args.methods) if args.methods else METHODS,
        jobs=args.jobs or 1, batch=args.batch)
    print(f"rate-control precision audit @ {args.rate:.2f} Mpps "
          f"({args.frame_size} B frames, {args.duration_ms:g} ms simulated)")
    print(format_audit_table(results))
    fingerprints = {f"interarrival.{r['method']}": r["fingerprint"]
                    for r in results}
    if args.csv:
        with _atomic_out(args.csv) as fh:
            write_audit_csv(results, fh)
        manifest_path = RunManifest(
            command="moongen-repro precision", seed=args.seed,
            jobs=args.jobs or 1,
            config={"rate_mpps": args.rate, "frame_size": args.frame_size,
                    "duration_ms": args.duration_ms,
                    "methods": [r["method"] for r in results]},
            fingerprints=fingerprints,
        ).write(args.csv)
        print(f"wrote histogram CSV to {args.csv} (manifest {manifest_path})")
    if args.prom:
        with _atomic_out(args.prom) as fh:
            fh.write(to_prometheus(audit_registry(results)))
        print(f"wrote Prometheus scrape file to {args.prom}")
    return 0


def _live_progress(label: str, report=None):
    """A ``run_parallel`` progress hook: one overwritten stderr line.

    Shows points done / total, an ETA extrapolated from the mean
    per-point wall time so far, and the last completed point's
    fingerprint (``fingerprint`` key of a result dict, else a stable
    hash of the value).  With a ``report``
    (:class:`~repro.supervise.DegradationReport`), supervision outcomes
    — resumed-from-journal, retried, poisoned counts — ride along on
    the same line.
    """
    import time as _time

    from repro.metrics.manifest import stable_hash
    from repro.supervise import PoisonedPoint

    start = _time.monotonic()

    def progress(done: int, total: int, result) -> None:
        elapsed = _time.monotonic() - start
        eta = elapsed / done * (total - done)
        if isinstance(result, PoisonedPoint):
            fp = "poisoned"
        elif isinstance(result, dict) and "fingerprint" in result:
            fp = result["fingerprint"]
        else:
            fp = stable_hash(result)
        extra = ""
        if report is not None:
            bits = []
            if report.resumed:
                bits.append(f"resumed {report.resumed}")
            if report.retried:
                bits.append(f"retried {report.retried}")
            if report.poisoned:
                bits.append(f"poisoned {len(report.poisoned)}")
            if bits:
                extra = " [" + ", ".join(bits) + "]"
        end = "\n" if done == total else ""
        print(f"\r{label}: {done}/{total} points, "
              f"eta {eta:5.1f}s, last {fp}{extra}", end=end,
              file=sys.stderr, flush=True)

    return progress


def _sweep_resilience(args):
    """Build ``(journal, policy, report)`` from the supervision flags.

    Returns ``None`` (after printing a usage error) when the flags are
    inconsistent: ``--resume`` without ``--journal``, or a ``--journal``
    path that already exists without ``--resume`` — an existing journal
    is completed work and is never silently overwritten.
    """
    from repro.supervise import (
        DegradationReport,
        SupervisePolicy,
        SweepJournal,
    )

    report = DegradationReport()
    journal = None
    if args.resume and not args.journal:
        print("--resume requires --journal", file=sys.stderr)
        return None
    if args.journal:
        if os.path.exists(args.journal) and not args.resume:
            print(f"journal {args.journal} already exists; pass --resume to "
                  "continue it (or remove the file to start over)",
                  file=sys.stderr)
            return None
        journal = SweepJournal(args.journal)
    policy = None
    if journal is not None or args.quarantine:
        policy = SupervisePolicy(quarantine=args.quarantine)
    return journal, policy, report


def _report_outcome(report) -> int:
    """Print the degradation report when anything degraded; exit code.

    Exit code 3 marks a sweep that completed *degraded* (poisoned
    points present): the artifacts are usable but partial, distinct
    from success (0), usage errors (2), and cancellation (128+signum).
    """
    if report.resumed or report.retried or report.degraded:
        print(report.format_table(), file=sys.stderr)
    return 3 if report.degraded else 0


def _scenario_for(name: str):
    """The builder behind ``metrics``/``profile``'s scenario choices."""
    from repro.scenarios import SCENARIOS

    return SCENARIOS["quickstart" if name == "quickstart" else "dut-forward"]


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.metrics import to_prometheus, write_csv

    faults = _resolve_faults(args)
    top = _scenario_for(args.scenario)(args.seed, faults=faults, metrics=True)
    env, tx = top.env, top.tx_dev
    _warn_unmatched_faults(env)
    snapshotter = env.start_snapshotter(_metrics_interval_ns(args))
    env.wait_for_slaves(duration_ns=args.duration_ms * 1e6)
    if args.out:
        _write_metrics(snapshotter, args.out,
                       f"moongen-repro metrics {args.scenario}", args.seed,
                       fault_plan=faults)
    else:
        snapshotter.finalize()
        sys.stdout.write(snapshotter.series.to_jsonl())
    if args.csv:
        with _atomic_out(args.csv) as fh:
            write_csv(snapshotter.series, fh)
        print(f"wrote CSV series to {args.csv}")
    if args.prom:
        with _atomic_out(args.prom) as fh:
            fh.write(to_prometheus(env.metrics))
        print(f"wrote Prometheus scrape file to {args.prom}")
    final = snapshotter.series.final_values()
    print(f"scenario {args.scenario!r}: {len(snapshotter.series)} snapshots "
          f"of {len(env.metrics)} metrics over {env.now_ns / 1e6:.2f} ms; "
          f"final nic0.tx.packets={final.get('nic0.tx.packets')} "
          f"(device says {tx.tx_packets})")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.metrics import profile_env

    env = _scenario_for(args.scenario)(args.seed,
                                       faults=_resolve_faults(args)).env
    _warn_unmatched_faults(env)
    report = profile_env(env, duration_ns=args.duration_ms * 1e6)
    print(report.format_table())
    if args.json:
        with _atomic_out(args.json) as fh:
            fh.write(report.to_json())
            fh.write("\n")
        print(f"wrote profile JSON to {args.json}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import builtin_plans
    from repro.scenarios import run_matrix

    plans = builtin_plans()
    if args.list:
        print("builtin fault plans:")
        for name, plan in sorted(plans.items()):
            kinds = ", ".join(type(f).__name__ for f in plan.faults)
            print(f"  {name:<12} {kinds}")
        return 0
    names = args.plans or sorted(plans)
    resilience = _sweep_resilience(args)
    if resilience is None:
        return 2
    journal, policy, report = resilience
    progress = _live_progress("faults", report=report) if args.live else None
    results = run_matrix(names, seed=args.seed, plan_seed=args.plan_seed,
                         jobs=args.jobs or 1, progress=progress,
                         journal=journal, supervise=policy, report=report)
    if args.json:
        import json

        print(json.dumps(results, indent=2, sort_keys=True))
        return _report_outcome(report)
    print(f"{'plan':<12} {'tx':>7} {'rx':>7} {'lost':>6} {'gaps':>5} "
          f"{'worst':>6} {'crc':>5} {'flaps':>5} {'fingerprint':>16}")
    for name in names:
        r = results[name]
        if r.get("poisoned"):
            print(f"{name:<12} poisoned after {r['attempts']} attempt(s): "
                  f"{r['error']}")
            continue
        print(f"{name:<12} {r['tx_packets']:>7} {r['rx_packets']:>7} "
              f"{r['seq_lost']:>6} {r['seq_gap_events']:>5} "
              f"{r['seq_longest_gap']:>6} {r['rx_crc_errors']:>5} "
              f"{r['rx_link_changes']:>5} {r['fingerprint']:>16}")
    return _report_outcome(report)


def _cmd_inter_arrival(args: argparse.Namespace) -> int:
    from repro.analysis import measure_interarrival
    from repro.generators import MoonGenHwRateModel, PktgenDpdkModel, ZsendModel

    pps = args.rate * 1e3
    for model in (MoonGenHwRateModel(), PktgenDpdkModel(), ZsendModel()):
        departures = model.departures_ns(pps, args.packets, seed=args.seed)
        stats = measure_interarrival(departures, pps, model.name)
        print(stats.format_row())
    return 0


def _cmd_rfc2544(args: argparse.Namespace) -> int:
    from repro.analysis.rfc2544 import throughput_sweep

    sizes = tuple(args.frame_sizes) if args.frame_sizes else (64,)
    results = throughput_sweep(sizes, resolution=args.resolution,
                               seed=args.seed,
                               duration_s=args.duration_ms / 1e3,
                               jobs=args.jobs or 1)
    print(f"{'size [B]':>8} {'line Mpps':>10} {'zero-loss Mpps':>15} "
          f"{'Gbit/s':>8} {'trials':>7}")
    for result in results:
        line = units.line_rate_pps(result.frame_size, units.SPEED_10G)
        print(f"{result.frame_size:>8} {line / 1e6:>10.2f} "
              f"{result.throughput_mpps:>15.2f} "
              f"{result.throughput_gbps():>8.2f} {len(result.trials):>7}")
    if args.verbose:
        for result in results:
            print(f"\nframe size {result.frame_size} B:")
            for trial in result.trials:
                verdict = ("pass" if trial.passed
                           else f"{trial.loss_fraction * 100:.2f}% loss")
                print(f"  offered {trial.offered_pps / 1e6:7.3f} Mpps: "
                      f"{verdict}")
    return 0


def _cmd_timestamps(args: argparse.Namespace) -> int:
    from repro import Timestamper
    from repro.nicsim.link import COPPER_CAT5E, FIBER_OM3, Cable
    from repro.nicsim.nic import CHIP_82599, CHIP_X540
    from repro.testbed import loadgen_pair

    setups = [("82599/fiber", CHIP_82599, FIBER_OM3),
              ("X540/copper", CHIP_X540, COPPER_CAT5E)]
    for name, chip, medium in setups:
        pair = loadgen_pair(args.seed, chip=chip,
                            cable=Cable(medium, args.cable_length),
                            tx_queues=1)
        env = pair.env
        ts = Timestamper(env, pair.tx_dev.get_tx_queue(0), pair.rx_dev,
                         seed=args.seed)
        env.launch(ts.probe_task, args.probes, 10_000.0)
        env.wait_for_slaves(duration_ns=args.probes * 30_000.0)
        expected = medium.modulation_ns + medium.propagation_ns(args.cable_length)
        print(f"{name}: {args.cable_length} m cable, "
              f"median latency {ts.histogram.median():.1f} ns "
              f"(physical {expected:.1f} ns, {len(ts.histogram)} probes)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.scenarios import run_trace
    from repro.trace import CATEGORIES

    categories = None
    if args.categories:
        categories = tuple(c.strip() for c in args.categories.split(",") if c.strip())
        unknown = set(categories) - set(CATEGORIES)
        if unknown:
            print(f"unknown trace categories: {sorted(unknown)} "
                  f"(valid: {', '.join(CATEGORIES)})", file=sys.stderr)
            return 2
    text = run_trace(args.scenario, seed=args.seed, categories=categories)
    if args.out:
        with _atomic_out(args.out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.summary:
        import collections
        import json

        counts = collections.Counter(
            json.loads(line)["kind"] for line in text.splitlines())
        total = sum(counts.values())
        print(f"scenario {args.scenario!r} (seed {args.seed}): "
              f"{total} records", file=sys.stderr)
        for kind, n in sorted(counts.items(), key=lambda kv: -kv[1]):
            print(f"  {kind:20s} {n}", file=sys.stderr)
    return 0


def _sweep_table(entry, points, values) -> str:
    """Aligned two-column point/value table."""
    from repro.supervise.policy import PoisonedPoint

    rows = [(str(point),
             f"poisoned: {value.error}" if isinstance(value, PoisonedPoint)
             else entry["fmt"].format(value))
            for point, value in zip(points, values)]
    widths = [max(len(h), *(len(r[i]) for r in rows))
              for i, h in enumerate(entry["headers"])]
    lines = ["  ".join(h.ljust(w) for h, w in zip(entry["headers"], widths))]
    lines.append("-" * len(lines[0]))
    lines.extend("  ".join(c.ljust(w) for c, w in zip(row, widths))
                 for row in rows)
    return "\n".join(lines)


def _cmd_sweep(args: argparse.Namespace) -> int:
    import time

    from repro.parallel import default_jobs, run_parallel
    from repro.scenarios import SWEEPS

    if not args.name:
        print("available sweeps:")
        for name, entry in SWEEPS.items():
            print(f"  {name:<12} {entry['description']}")
        return 0
    entry = SWEEPS.get(args.name)
    if entry is None:
        print(f"unknown sweep {args.name!r}; available: "
              f"{', '.join(sorted(SWEEPS))}", file=sys.stderr)
        return 2
    points = None
    if args.points:
        try:
            points = [int(p) for p in args.points.split(",") if p.strip()]
        except ValueError:
            print(f"--points must be comma-separated integers: "
                  f"{args.points!r}", file=sys.stderr)
            return 2
        if not points:
            print("--points selected no sweep points", file=sys.stderr)
            return 2
    resilience = _sweep_resilience(args)
    if resilience is None:
        return 2
    journal, policy, report = resilience
    progress = (_live_progress(f"sweep {args.name}", report=report)
                if args.live else None)
    points = points or entry["points"]
    jobs = default_jobs() if args.jobs is None else max(1, args.jobs)
    start = time.perf_counter()
    values = run_parallel(points, entry["fn"], jobs=jobs, root_seed=args.seed,
                          progress=progress, journal=journal,
                          supervise=policy, report=report)
    wall_s = time.perf_counter() - start
    print(f"sweep {args.name}: {entry['description']}")
    print(_sweep_table(entry, points, values))
    print(f"({len(points)} points, jobs={jobs}, wall {wall_s:.2f} s)")
    return _report_outcome(report)


def _add_resilience_args(p: argparse.ArgumentParser) -> None:
    """``--journal``/``--resume``/``--quarantine`` flags.

    Shared by the sweep-shaped subcommands (sweep/faults); see
    docs/RESILIENCE.md for the journal format and resume semantics.
    """
    p.add_argument("--journal", metavar="PATH",
                   help="crash-safe sweep journal (JSONL): every completed "
                        "point is fsync'd to this file as it lands, and a "
                        "--resume run skips the journaled points — results "
                        "and the sealed journal are bit-identical to an "
                        "uninterrupted run for any --jobs")
    p.add_argument("--resume", action="store_true",
                   help="continue an existing --journal (without this flag "
                        "an existing journal file is refused, never "
                        "overwritten)")
    p.add_argument("--quarantine", action="store_true",
                   help="when a point exhausts its attempt budget, "
                        "record it as poisoned and finish the sweep "
                        "with partial results and a degradation "
                        "report (exit code 3) instead of aborting")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moongen-repro",
        description="MoonGen (IMC 2015) reproduction on simulated hardware",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quickstart", help="saturate a simulated 10 GbE link")
    p.add_argument("--duration-ms", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--batch", action="store_true",
                   help="execute homogeneous event trains through the "
                        "batch tier (bit-identical output)")
    p.add_argument("--faults", metavar="PLAN",
                   help="fault plan: builtin name (see 'faults --list') or a plan.json path")
    p.add_argument("--metrics", metavar="OUT.JSONL",
                   help="sample the metrics registry during the run and "
                        "write the JSONL time series (+ manifest) here")
    p.set_defaults(func=_cmd_quickstart)

    p = sub.add_parser("load-latency",
                       help="load + latency through the simulated OvS DuT")
    p.add_argument("--rate", type=float, default=1.0, help="Mpps")
    p.add_argument("--mode", choices=("hardware", "crc"), default="hardware")
    p.add_argument("--pattern", choices=("cbr", "poisson"), default="cbr")
    p.add_argument("--duration-ms", type=float, default=20.0)
    p.add_argument("--probes", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--batch", action="store_true",
                   help="execute homogeneous event trains through the "
                        "batch tier (bit-identical output)")
    p.add_argument("--faults", metavar="PLAN",
                   help="fault plan: builtin name (see 'faults --list') or a plan.json path")
    p.add_argument("--metrics", metavar="OUT.JSONL",
                   help="sample the metrics registry during the run and "
                        "write the JSONL time series (+ manifest) here")
    p.add_argument("--jobs", type=int, default=None,
                   help="with --metrics: additionally re-run the experiment "
                        "in this many worker processes and require every "
                        "replica to reproduce the in-process latency "
                        "fingerprint (exit 1 on divergence)")
    p.set_defaults(func=_cmd_load_latency)

    p = sub.add_parser("inter-arrival",
                       help="compare generator rate-control precision")
    p.add_argument("--rate", type=float, default=500.0, help="kpps")
    p.add_argument("--packets", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_inter_arrival)

    p = sub.add_parser(
        "precision",
        help="audit rate-control precision with in-dataplane histograms",
        description="Reproduces the Figure 8 rate-control comparison "
                    "in-dataplane: drives the same two-port topology with "
                    "hardware CBR, CRC-gap software rate control, and "
                    "naive bursty software pacing, histogramming rx "
                    "inter-arrival gaps at the receiving NIC "
                    "(repro.analysis.precision).  Per-method fingerprints "
                    "are bit-identical for any --jobs value and with or "
                    "without --batch.",
    )
    p.add_argument("--rate", type=float, default=1.0, help="Mpps")
    p.add_argument("--frame-size", type=int, default=64, metavar="BYTES")
    p.add_argument("--duration-ms", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--method", action="append", dest="methods",
                   choices=("hardware", "crc", "software-burst"),
                   help="audit only this mechanism; repeatable "
                        "(default: all three)")
    p.add_argument("--jobs", type=int, default=None,
                   help="fan the per-method simulations across this many "
                        "worker processes (default: 1, serial; results "
                        "are bit-identical either way)")
    p.add_argument("--batch", action="store_true",
                   help="execute homogeneous event trains through the "
                        "batch tier (bit-identical output)")
    p.add_argument("--csv", metavar="OUT.CSV",
                   help="write the per-method bucket histograms as CSV "
                        "(+ manifest with per-method fingerprints)")
    p.add_argument("--prom", metavar="OUT.PROM",
                   help="write the per-method histograms as a Prometheus "
                        "text-format scrape file")
    p.set_defaults(func=_cmd_precision)

    p = sub.add_parser(
        "rfc2544",
        help="RFC 2544 zero-loss throughput search",
        description="Binary-searches the zero-loss rate per frame size "
                    "(repeat --frame-size for several sizes; searches "
                    "fan out across --jobs workers) and prints one "
                    "summary table.",
    )
    p.add_argument("--frame-size", type=int, action="append",
                   dest="frame_sizes", metavar="BYTES",
                   help="frame size in bytes; repeatable (default: 64)")
    p.add_argument("--resolution", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--duration-ms", type=float, default=40.0,
                   help="simulated duration per trial (default: 40)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for multi-size sweeps "
                        "(default: 1, serial)")
    p.add_argument("--verbose", action="store_true",
                   help="also print every binary-search trial")
    p.set_defaults(func=_cmd_rfc2544)

    p = sub.add_parser("timestamps", help="hardware timestamping accuracy")
    p.add_argument("--cable-length", type=float, default=2.0, help="meters")
    p.add_argument("--probes", type=int, default=200)
    p.add_argument("--seed", type=int, default=5)
    p.set_defaults(func=_cmd_timestamps)

    p = sub.add_parser(
        "trace",
        help="run a canonical scenario with structured tracing, emit JSONL",
        description="Runs a seeded canonical scenario with the repro.trace "
                    "subsystem enabled and writes the JSONL trace to stdout "
                    "or --out.  The same scenarios back the golden-trace "
                    "regression tests (docs/TRACING.md).",
    )
    p.add_argument("--scenario", choices=("load-latency", "poisson", "faults"),
                   default="load-latency")
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--out", help="write the trace to this file (default stdout)")
    p.add_argument("--categories",
                   help="comma-separated record categories (default: golden set)")
    p.add_argument("--summary", action="store_true",
                   help="print per-kind record counts to stderr")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "sweep",
        help="run a named parameter sweep through the parallel engine",
        description="Runs one of the registered paper sweeps "
                    "(repro.scenarios) with per-point seeds derived "
                    "from --seed, fanned across --jobs worker processes, "
                    "and prints a point/value table.  Results are "
                    "bit-identical for any --jobs value.  Run without a "
                    "name to list the available sweeps.",
    )
    p.add_argument("name", nargs="?", default=None,
                   help="sweep to run (omit to list)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: host cores)")
    p.add_argument("--points", help="comma-separated subset of sweep points")
    p.add_argument("--seed", type=int, default=0,
                   help="root seed for per-point seed derivation")
    p.add_argument("--live", action="store_true",
                   help="one-line live progress on stderr (points done / "
                        "ETA / last fingerprint / supervision counts)")
    _add_resilience_args(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "faults",
        help="run chaos scenarios under fault plans, print fingerprints",
        description="Runs the canonical chaos scenario (repro.scenarios) "
                    "under one or more fault plans — builtin names or paths "
                    "to plan.json files — and prints per-plan degradation "
                    "counters plus a deterministic fingerprint.  Results are "
                    "bit-identical for any --jobs value.",
    )
    p.add_argument("--plan", action="append", dest="plans", metavar="NAME",
                   help="builtin plan name or path to a plan.json; "
                        "repeatable (default: all builtin plans)")
    p.add_argument("--list", action="store_true",
                   help="list the builtin plans and exit")
    p.add_argument("--seed", type=int, default=0,
                   help="scenario seed (default: 0)")
    p.add_argument("--plan-seed", type=int, default=None,
                   help="seed for the fault streams (default: --seed)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: 1, serial)")
    p.add_argument("--json", action="store_true",
                   help="emit the full result dicts as JSON")
    p.add_argument("--live", action="store_true",
                   help="one-line live progress on stderr (plans done / "
                        "ETA / last fingerprint / supervision counts)")
    _add_resilience_args(p)
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser(
        "metrics",
        help="run a scenario with the metrics registry sampled, emit JSONL",
        description="Runs a canonical scenario with run-wide telemetry "
                    "(repro.metrics) enabled: every component registers "
                    "its counters/gauges and a sim-time snapshotter "
                    "samples them into a deterministic time series "
                    "(docs/METRICS.md).  Writes JSONL to stdout or --out "
                    "(with a provenance manifest), optionally CSV and a "
                    "Prometheus text-format scrape file.",
    )
    p.add_argument("scenario", choices=("quickstart", "load-latency"),
                   help="topology to run instrumented")
    p.add_argument("--duration-ms", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--faults", metavar="PLAN",
                   help="fault plan: builtin name (see 'faults --list') or a plan.json path")
    p.add_argument("--out", metavar="OUT.JSONL",
                   help="write the JSONL series here (default: stdout); "
                        "a .manifest.json is written next to it")
    p.add_argument("--csv", metavar="OUT.CSV",
                   help="also write the series as CSV")
    p.add_argument("--prom", metavar="OUT.PROM",
                   help="also write final values as a Prometheus "
                        "text-format scrape file")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "profile",
        help="self-profile the event loop, attribute wall-time per category",
        description="Runs a scenario with a per-event wall-clock latch "
                    "and prints host-time attribution per category "
                    "(nic/wire/dut/process/scheduler/...) plus the top "
                    "callbacks, for localizing a slowdown the perf ledger "
                    "(benchmarks/ledger) reports (docs/METRICS.md).",
    )
    p.add_argument("scenario", choices=("quickstart", "load-latency"),
                   help="topology to profile")
    p.add_argument("--duration-ms", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--faults", metavar="PLAN",
                   help="fault plan: builtin name (see 'faults --list') or a plan.json path")
    p.add_argument("--json", metavar="OUT.JSON",
                   help="also write the full report as JSON")
    p.set_defaults(func=_cmd_profile)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.errors import SweepCancelledError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SweepCancelledError as exc:
        # Clean cancellation: children already terminated, journal
        # already flushed and closed by the engine.
        print(f"\n{exc}", file=sys.stderr)
        return exc.exit_code
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
