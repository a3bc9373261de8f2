"""Paper-workload perf ledger: five reproductions, host time per layer.

Runs each workload as one fixed simulated job per fresh child
interpreter, one child at a time, and reports every end-to-end metric of
``BENCHMARK.json`` by name and unit.  Every child's simulated output is
checked, so a faster but wrong simulator counts as failed.  Host times
(``wall_s``, ``setup_s``) are scaled to a nominal host speed by a fixed
pure-Python probe each child runs before importing the program.

One workload, as ``BENCHMARK.json``'s command runs it (children repeat until
``--seconds`` have passed, at least three; the last output line is the
JSON result; ``--trace 1`` reports the per-layer split instead)::

    python3 benchmarks/ledger/run.py --workload tx64_line_rate --seed 1 \\
        --seconds 20 --trace 0

The whole ledger: every workload, interleaved round-robin for
``--repeats`` repeats, plus one traced run per workload with
``--trace 1``; ``--out`` keeps the samples for ``--compare``::

    python3 benchmarks/ledger/run.py --seed 1 --trace 1 --out ledger.json

A/B pairs against a parent tree (same benchmark code, alternating which
side runs first), then the gain / regression verdicts::

    python3 benchmarks/ledger/run.py --seed 2 --repeats 10 \\
        --parent-src ../parent/src --parent-out parent.json --out change.json
    python3 benchmarks/ledger/run.py --compare parent.json change.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracing  # noqa: E402  (needs HERE on the path)
import workloads  # noqa: E402

#: Children per measured run, at least; more while ``--seconds`` allow.
MIN_CHILDREN = 3
MAX_CHILDREN = 50
#: A child that takes longer than this has hung; it counts as failed.
CHILD_TIMEOUT_S = 150.0
#: A one-workload run starts no child it expects to end later than this
#: many seconds after the run began, and kills one that does, so that the
#: run always finishes within 180 s.
RUN_BUDGET_S = 170.0
#: Environment knobs that select non-default execution modes.
MODE_VARIABLES = ("REPRO_SCHEDULER", "REPRO_NO_NUMPY", "REPRO_BENCH_JOBS")
#: ``child.probe_host`` seconds at the speed the baselines in README.md
#: were measured at.  Host times are reported at this host speed.
PROBE_NOMINAL_S = 0.030

#: End-to-end metrics, as read off one child's record after
#: :func:`normalize`.
E2E: Dict[str, Callable[[Dict[str, Any]], float]] = {
    "wall_s": lambda r: r["wall_s"] * r["speed"],
    "sim_frames_per_s": lambda r: r["frames"] / (r["wall_s"] * r["speed"]),
    "setup_s": lambda r: r["setup_s"] * r["speed"],
    "peak_rss_mb": lambda r: r["peak_rss_mb"],
}


class Failure(Exception):
    """The benchmark cannot run here (no program, broken spec)."""


def load_spec() -> Dict[str, Any]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        raise Failure(f"cannot read {path}: {exc}") from None


# -- children ------------------------------------------------------------------


def run_child(workload: str, seed: int, src: str = SRC, trace: bool = False,
              trace_out: Optional[str] = None, scale: Optional[float] = None,
              timeout: float = CHILD_TIMEOUT_S) -> Dict[str, Any]:
    """One job in a fresh interpreter that imports ``repro`` from ``src``.

    Returns the child's record, or a record whose ``failures`` say why
    there is none.  The child is always waited for (killed on timeout).
    """
    env = {k: v for k, v in os.environ.items() if k not in MODE_VARIABLES}
    # No bytecode caches: every child compiles its imports, so setup_s
    # does not depend on what earlier runs left in the checkout.
    env.update(PYTHONHASHSEED="0", PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"workload": workload, "failures": [
            f"child timed out after {timeout:.0f} s"],
            "elapsed": time.perf_counter() - t0}
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, ValueError):
        record = None
    if record is None:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"workload": workload, "elapsed": elapsed, "failures": [
            f"child exited {proc.returncode}: {' | '.join(tail)}"]}
    record["elapsed"] = elapsed
    if not os.path.realpath(record["repro"]).startswith(
            os.path.realpath(src) + os.sep):
        record["failures"].append(
            f"imported repro from {record['repro']}, not from {src}")
    return record


def check_repeats(records: List[Dict[str, Any]]) -> None:
    """Mark every record whose fingerprint differs from the first's."""
    prints = [r.get("fingerprint") for r in records if "fingerprint" in r]
    for record in records:
        if "fingerprint" in record and record["fingerprint"] != prints[0]:
            record["failures"].append(
                f"fingerprint {record['fingerprint']} differs from the "
                f"first repeat's {prints[0]}")


def normalize(timeline: List[Dict[str, Any]]) -> None:
    """Give each record of children run in this order its ``speed``.

    A job's host speed is the mean of its own probe, taken just before
    it, and the next child's, taken just after it.  ``speed`` scales its
    host times to the speed :data:`PROBE_NOMINAL_S` stands for.
    """
    probes = [r.get("probe_s") for r in timeline] + [None]
    for i, record in enumerate(timeline):
        if probes[i] is None:
            continue
        around = [p for p in probes[i:i + 2] if p is not None]
        record["speed"] = PROBE_NOMINAL_S / statistics.fmean(around)


def check_observed(records: List[Dict[str, Any]],
                   reference: Dict[str, Any]) -> None:
    """Hold ``tx64_observed`` records to a ``tx64_line_rate`` reference."""
    if "sim" not in reference:
        for record in records:
            record["failures"].append("no tx64_line_rate reference run")
        return
    for record in records:
        if "sim" in record:
            record["failures"] += workloads.check_observed(
                record["sim"], reference["sim"])


def trace_pair(workload: str, seed: int, src: str, trace_out: Optional[str],
               untraced: Dict[str, Any],
               timeout: float = CHILD_TIMEOUT_S) -> Dict[str, Any]:
    """A traced child, checked against an untraced run of the same seed.

    Returns the traced record with ``layers`` completed by
    ``trace.overhead``: the traced/untraced ratio of wall time, each
    over its own host probe, minus 1.
    """
    traced = run_child(workload, seed, src, trace=True, trace_out=trace_out,
                       timeout=timeout)
    if "layers" in traced:
        if "fingerprint" not in untraced:
            traced["failures"].append("no untraced run to check against")
            return traced
        if traced["fingerprint"] != untraced["fingerprint"]:
            traced["failures"].append(
                f"traced fingerprint {traced['fingerprint']} != untraced "
                f"{untraced['fingerprint']}")
        if traced["sim"].get("batch") != untraced["sim"].get("batch"):
            traced["failures"].append("traced batch counters differ")
        traced["layers"]["trace.overhead"] = (
            (traced["wall_s"] / traced["probe_s"])
            / (untraced["wall_s"] / untraced["probe_s"]) - 1.0)
    return traced


# -- statistics ----------------------------------------------------------------


def spread(values: List[float]) -> float:
    """Interquartile range over the median (0 with fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(records: List[Dict[str, Any]],
              metrics: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Median, min, max and n of each metric over the good records."""
    good = [r for r in records if "speed" in r]
    out = {}
    for metric in metrics:
        values = [E2E[metric["name"]](r) for r in good]
        if values:
            out[metric["name"]] = {
                "value": statistics.median(values), "unit": metric["unit"],
                "min": min(values), "max": max(values), "n": len(values),
            }
    return out


def print_table(title: str, rows: List[List[str]]) -> None:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    print(title)
    for row in rows:
        print("  " + "  ".join(cell.rjust(w) if i else cell.ljust(w)
                               for i, (cell, w) in enumerate(zip(row, widths))))


def print_summary(title: str, summary: Dict[str, Dict[str, Any]],
                  records: List[Dict[str, Any]]) -> None:
    probes = [r["probe_s"] for r in records if "speed" in r]
    if probes:
        title += (f"; host probe {statistics.median(probes) * 1e3:.1f} ms, "
                  f"times scaled to {PROBE_NOMINAL_S * 1e3:.1f} ms")
    rows = [["metric", "unit", "median", "min", "max", "n"]]
    for name, s in summary.items():
        rows.append([name, s["unit"], f"{s['value']:.6g}", f"{s['min']:.6g}",
                     f"{s['max']:.6g}", str(s["n"])])
    print_table(title, rows)


def report_failures(records: List[Dict[str, Any]]) -> int:
    failed = 0
    for record in records:
        if record["failures"]:
            failed += 1
            for why in record["failures"]:
                print(f"FAIL {record['workload']}: {why}")
    return failed


# -- one workload, as BENCHMARK.json's command runs it ---------------------------


def run_workload(args, spec) -> int:
    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S

    def left() -> float:
        return max(deadline - time.perf_counter(), 1.0)

    reference = (run_child("tx64_line_rate", args.seed, timeout=left())
                 if args.workload == "tx64_observed" else None)
    if args.trace:
        untraced = run_child(args.workload, args.seed, timeout=left())
        traced = trace_pair(args.workload, args.seed, SRC, args.trace_out,
                            untraced, timeout=left())
        measured = [untraced, traced]
        layers = traced.get("layers", {})
        if layers:
            print_layers(traced)
        wanted = spec["per_layer"]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in wanted if m["name"] in layers}
    else:
        measured = []
        while len(measured) < MAX_CHILDREN:
            measured.append(run_child(args.workload, args.seed,
                                      timeout=left()))
            typical = statistics.median(r["elapsed"] for r in measured)
            now = time.perf_counter()
            if now + typical > deadline or (
                    len(measured) >= MIN_CHILDREN
                    and now - start + typical > args.seconds):
                break
        check_repeats(measured)
        normalize(measured)
        wanted = spec["end_to_end"]
        summary = summarize(measured, wanted)
        print_summary(f"{args.workload} (seed {args.seed})", summary,
                      measured)
        metrics = {name: {"value": s["value"], "unit": s["unit"]}
                   for name, s in summary.items()}
    if reference is not None:
        check_observed(measured, reference)
    records = ([reference] if reference else []) + measured
    if "fingerprint" in measured[0]:
        print(f"fingerprint {args.workload} seed {args.seed}: "
              f"{measured[0]['fingerprint']}")
    failed = report_failures(records)
    if len(metrics) < len(wanted):
        failed = max(failed, 1)
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


# -- the whole ledger ------------------------------------------------------------


def run_ledger(args, spec) -> int:
    names = [w["name"] for w in spec["workloads"]]
    sides = [("change", SRC)]
    if args.parent_src:
        sides.append(("parent", os.path.abspath(args.parent_src)))
    records: Dict[str, Dict[str, List[Dict[str, Any]]]] = {
        side: {name: [] for name in names} for side, _ in sides}
    timeline = []
    for repeat in range(args.repeats):
        order = sides if repeat % 2 == 0 else sides[::-1]
        for name in names:
            for side, src in order:
                timeline.append(run_child(name, args.seed, src))
                records[side][name].append(timeline[-1])
    normalize(timeline)
    status = 0
    for side, src in sides:
        ledger = {"schema": 1, "seed": args.seed, "src": src,
                  "workloads": {}}
        by_name = records[side]
        for name in names:
            check_repeats(by_name[name])
        if "tx64_observed" in by_name and "tx64_line_rate" in by_name:
            reference = next((r for r in by_name["tx64_line_rate"]
                              if "sim" in r), {})
            check_observed(by_name["tx64_observed"], reference)
        print(f"== {side}: {src}, seed {args.seed}")
        for name in names:
            runs = by_name[name]
            traced = None
            good = sorted((r for r in runs if "speed" in r), key=E2E["wall_s"])
            if args.trace and good:
                # The median run is the untraced reference.
                traced = trace_pair(name, args.seed, src, args.trace_out,
                                    good[len(good) // 2])
            failed = report_failures(runs + ([traced] if traced else []))
            attempted = len(runs) + (1 if traced else 0)
            summary = summarize(runs, spec["end_to_end"])
            print_summary(f"{name} (fail_frac {failed}/{attempted})", summary,
                          runs)
            if runs and "fingerprint" in runs[0]:
                print(f"  fingerprint {runs[0]['fingerprint']}")
            if traced is not None and "layers" in traced:
                print_layers(traced)
            ledger["workloads"][name] = {
                "attempted": attempted, "failed": failed,
                "fail_frac": failed / attempted,
                "fingerprint": runs[0].get("fingerprint") if runs else None,
                "summary": summary,
                # In repeat order: --compare pairs them by index.
                "runs": [{m: E2E[m](r) for m in E2E}
                         for r in runs if "speed" in r],
                "layers": traced.get("layers") if traced else None,
            }
            status |= 1 if failed else 0
        out = args.parent_out if side == "parent" else args.out
        if out:
            with open(out, "w", encoding="utf-8") as f:
                json.dump(ledger, f, indent=1)
    return status


def print_layers(traced: Dict[str, Any]) -> None:
    layers, wall_s = traced["layers"], traced["wall_s"]
    rows = [["layer", "self_s", "share", "calls"]]
    for name in sorted(tracing.LAYERS + ("trace",),
                       key=lambda name: -layers[f"{name}.self_s"]):
        self_s = layers[f"{name}.self_s"]
        calls = layers.get(f"{name}.calls",
                           traced["spans"] if name == "trace" else "-")
        if self_s or calls not in (0, "-"):
            rows.append([name, f"{self_s:.3f}", f"{self_s / wall_s:.3f}",
                         str(calls)])
    print_table(f"  traced split: wall {wall_s:.3f} s, measured tracing "
                f"overhead {layers.get('trace.overhead', 0.0):+.1%}", rows)


# -- A/B comparison --------------------------------------------------------------


def compare(parent: Dict[str, Any], change: Dict[str, Any],
            spec: Dict[str, Any]) -> Dict[str, Dict[str, str]]:
    """Verdict per workload and end-to-end metric.

    ``gain``: at least 10 pairs, the change wins at least 9 in 10 (ties
    count for neither side), and the medians differ by more than the
    parent's interquartile range.  ``regressed``: the change's median is
    worse than the parent's by more than the metric's bound.
    ``unresolved``: either side's spread exceeds the bound, unless every
    change run beats every parent run.  Otherwise ``no regression``.
    """
    verdicts: Dict[str, Dict[str, str]] = {}
    for name, change_w in change["workloads"].items():
        parent_w = parent["workloads"].get(name)
        if parent_w is None:
            continue
        row = verdicts[name] = {}
        more_failures = change_w["fail_frac"] > parent_w["fail_frac"]
        for metric in spec["end_to_end"]:
            m = metric["name"]
            p = [run[m] for run in parent_w["runs"]]
            c = [run[m] for run in change_w["runs"]]
            if not p or not c:
                row[m] = "no runs"
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            mp, mc = statistics.median(p), statistics.median(c)
            change = (mc - mp) / mp
            worse_by = sign * change
            pairs = list(zip(p, c))
            wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
            iqr_p = spread(p) * mp
            beats_all = sign * (max(c) if sign > 0 else min(c)) < sign * (
                min(p) if sign > 0 else max(p))
            if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
                    and sign * (mc - mp) < 0 and abs(mc - mp) > iqr_p
                    and not more_failures):
                verdict = "gain"
            elif (max(spread(p), spread(c)) > metric["bound"]
                  and not beats_all):
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "regressed"
            else:
                verdict = "no regression"
            row[m] = f"{verdict} ({change:+.1%}, {wins}/{len(pairs)} won)"
        if more_failures:
            row["fail_frac"] = (f"regressed ({parent_w['fail_frac']:.3f} -> "
                                f"{change_w['fail_frac']:.3f})")
    return verdicts


def run_compare(args, spec) -> int:
    ledgers = []
    for path in args.compare:
        try:
            with open(path, encoding="utf-8") as f:
                ledgers.append(json.load(f))
        except (OSError, ValueError) as exc:
            raise Failure(f"cannot read ledger {path}: {exc}") from None
    verdicts = compare(ledgers[0], ledgers[1], spec)
    metric_names = [m["name"] for m in spec["end_to_end"]]
    rows = [["workload"] + metric_names]
    for name, row in verdicts.items():
        rows.append([name] + [row.get(m, "-") for m in metric_names])
    print_table(f"{args.compare[1]} vs parent {args.compare[0]}", rows)
    for name, row in verdicts.items():
        if "fail_frac" in row:
            print(f"{name}: fail_frac {row['fail_frac']}")
    regressed = any(v.startswith("regressed")
                    for row in verdicts.values() for v in row.values())
    print(json.dumps(verdicts))
    return 1 if regressed else 0


# -- entry point -----------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="run one workload, as BENCHMARK.json's command does")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed; 1 is the default, 2 is held out")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of a one-workload run "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer split from a traced "
                             "run")
    parser.add_argument("--trace-out", help="write raw spans here (JSONL)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="round-robin repeats of the whole ledger")
    parser.add_argument("--out", help="write the ledger here (JSON)")
    parser.add_argument("--parent-src", help="also run every repeat on this "
                        "source tree, alternating which side goes first")
    parser.add_argument("--parent-out", help="write the parent's ledger here")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two ledgers written with --out")
    args = parser.parse_args(argv)
    if args.parent_src and not args.parent_out:
        parser.error("--parent-src needs --parent-out")
    try:
        spec = load_spec()
        if args.compare:
            return run_compare(args, spec)
        for src in [SRC] + ([args.parent_src] if args.parent_src else []):
            if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
                raise Failure(f"no program to measure: {src}/repro is missing")
        if args.trace_out:
            open(args.trace_out, "w").close()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.workload:
            return run_workload(args, spec)
        return run_ledger(args, spec)
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
