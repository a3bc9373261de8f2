"""Tests of the perf ledger itself: ``pytest benchmarks/ledger -q``.

Covers ``BENCHMARK.json``'s schema and limits, the self-time arithmetic, the
output checks and the A/B verdicts on tampered or synthetic data, and
the determinism of every workload at smoke size.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import time

import pytest

import run
import tracing
import workloads

SPEC_PATH = os.path.join(run.ROOT, "BENCHMARK.json")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: Simulated durations small enough for a test, large enough to move
#: thousands of frames.
SMOKE_SCALE = 0.03


@pytest.fixture(scope="module")
def spec():
    assert os.path.getsize(SPEC_PATH) <= 64 * 1024
    return run.load_spec()


# -- BENCHMARK.json ---------------------------------------------------------------


def test_spec_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/ledger"]
    assert spec["command"][1] == "benchmarks/ledger/run.py"
    assert all(not arg.startswith("/") and ".." not in arg
               for arg in spec["command"])
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    runs = 4 + 22 * len(spec["workloads"])
    # Each run measures run_seconds, plus at most one child's overrun and
    # the tx64_observed reference child; all runs share 3420 s.
    assert runs * (spec["run_seconds"] + 6) <= 3420


def test_without_the_program_it_fails_and_prints_no_result(spec, tmp_path):
    for path in spec["paths"]:
        shutil.copytree(os.path.join(run.ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(SPEC_PATH, tmp_path)
    proc = subprocess.run(
        spec["command"] + ["--workload", "tx64_line_rate", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spec_names_units_bounds(spec):
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_spec_matches_the_code(spec):
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    assert {m["name"] for m in spec["end_to_end"]} == set(run.E2E)
    summary = tracing.SpanTracer().summary()
    produced = set(tracing.layer_metrics(summary, {}))
    produced.add("trace.overhead")  # filled in by run.py
    assert {m["name"] for m in spec["per_layer"]} == produced


def test_every_layer_metric_maps_to_an_e2e_metric_and_workload(spec):
    e2e = {m["name"] for m in spec["end_to_end"]}
    names = set(workloads.WORKLOADS)
    for metric in spec["per_layer"]:
        layer = metric["name"].rpartition(".")[0]
        predictions = tracing.PREDICTIONS[layer]
        assert predictions, layer
        for target, moves, still in predictions:
            assert target in e2e
            assert moves or still
            assert set(moves) <= names and set(still) <= names
            assert not set(moves) & set(still)


# -- self-time arithmetic ---------------------------------------------------------


def test_self_times_of_a_hand_made_tree():
    spans = [("a", 0.0, 10.0, 0, 1), ("b", 1.0, 4.0, 1, 2),
             ("c", 2.0, 3.0, 2, 3), ("b", 5.0, 9.0, 1, 4),
             ("a", 11.0, 12.0, 0, 5)]
    assert tracing.self_times(spans) == {"a": 4.0, "b": 6.0, "c": 1.0}


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_tracer_aggregates_a_nested_call_tree_exactly():
    tracer = tracing.SpanTracer()
    core, nic, link = (tracing.LAYERS.index(name)
                       for name in ("core", "nicsim.nic", "nicsim.link"))

    def leaf():
        _busy(0.002)

    leaf_w = tracer.wrap(leaf, link, "leaf")

    def middle(n):
        _busy(0.001)
        for _ in range(n):
            leaf_w()

    middle_w = tracer.wrap(middle, nic, "middle")

    def root():
        _busy(0.001)
        middle_w(2)
        middle_w(n=1)  # a keyword call takes the other cost path

    root_w = tracer.wrap(root, core, "root")
    t0 = time.perf_counter()
    root_w()
    wall = time.perf_counter() - t0

    reference = tracing.self_times(tracer.raw_spans())
    summary = tracer.summary()
    for name, layer in (("root", "core"), ("middle", "nicsim.nic"),
                        ("leaf", "nicsim.link")):
        assert summary["self_s"][layer] == pytest.approx(reference[name],
                                                         abs=1e-9)
    assert summary["calls"] == {**{name: 0 for name in tracing.LAYERS},
                                "core": 1, "nicsim.nic": 2, "nicsim.link": 3}
    assert sum(summary["self_s"].values()) == pytest.approx(wall, rel=0.05)
    assert summary["self_s"]["nicsim.link"] >= 0.006
    assert summary["spans"] == 6 and summary["trace_s"] == 0.0


def test_wrapper_cost_is_taken_out_of_the_layer_that_pays_it():
    cost = tracing.WrapperCost(call_inner=1.0, call_outer=10.0)
    tracer = tracing.SpanTracer(cost)
    core, nic = tracing.LAYERS.index("core"), tracing.LAYERS.index("nicsim.nic")
    inner = tracer.wrap(lambda: None, nic, "inner")
    outer = tracer.wrap(lambda: [inner(), inner()], core, "outer")
    outer()
    summary = tracer.summary()
    raw = tracing.self_times(tracer.raw_spans())
    # Each span pays call_inner itself; its parent pays call_outer.
    assert summary["self_s"]["nicsim.nic"] == pytest.approx(raw["inner"] - 2.0)
    assert summary["self_s"]["core"] == pytest.approx(raw["outer"] - 1.0 - 20.0)
    assert summary["trace_s"] == pytest.approx(3 * 11.0)


# -- output checks ----------------------------------------------------------------


def _good_sims():
    tx64 = {"tx": 717000, "rx": 717000, "now_ps": 48_200_000_000,
            "sim_rate_pps": 14.876e6}
    observed = dict(tx64, e2e_total=717000, interarrival_total=716999)
    cbr = {"tx": 180000, "forwarded": 180000, "dut_dropped": 0,
           "lost_probes": 0, "latency_quartiles_ns": [17000, 17500, 18000]}
    poisson = {"dut_crc_drops": 82000, "fillers_sent": 82000,
               "valid_rate_pps": 1.001e6}
    rfc = {"throughput_pps": {"64": 1.95e6, "1518": 812743.8}}
    return {"tx64_line_rate": tx64, "tx64_observed": observed,
            "dut_cbr_latency": cbr, "dut_poisson_crc": poisson,
            "rfc2544_sweep": rfc}


TAMPERS = [
    ("tx64_line_rate", "rx", 716999),
    ("tx64_line_rate", "sim_rate_pps", 14.80e6),
    ("tx64_observed", "e2e_total", 716000),
    ("tx64_observed", "interarrival_total", 717000),
    ("dut_cbr_latency", "forwarded", 179999),
    ("dut_cbr_latency", "dut_dropped", 1),
    ("dut_cbr_latency", "lost_probes", 2),
    ("dut_cbr_latency", "latency_quartiles_ns", [20000, 21000, 22000]),
    ("dut_poisson_crc", "dut_crc_drops", 81999),
    ("dut_poisson_crc", "valid_rate_pps", 0.97e6),
    ("rfc2544_sweep", "throughput_pps", {"64": 2.9e6, "1518": 812743.8}),
    ("rfc2544_sweep", "throughput_pps", {"64": 1.95e6, "1518": 7.9e5}),
]


def test_checks_accept_good_results():
    for name, sim in _good_sims().items():
        assert workloads.check(name, sim) == [], name


@pytest.mark.parametrize("name,key,value", TAMPERS)
def test_checks_reject_tampered_results(name, key, value):
    sim = copy.deepcopy(_good_sims()[name])
    sim[key] = value
    assert workloads.check(name, sim)


def test_observers_must_not_perturb_the_simulation():
    sims = _good_sims()
    observed = sims["tx64_observed"]
    assert workloads.check_observed(observed, sims["tx64_line_rate"]) == []
    for key in ("tx", "rx", "now_ps"):
        reference = dict(sims["tx64_line_rate"])
        reference[key] += 1
        assert workloads.check_observed(observed, reference)


def test_repeats_must_reproduce_the_fingerprint():
    records = [{"fingerprint": "aa", "failures": []},
               {"fingerprint": "aa", "failures": []},
               {"fingerprint": "ab", "failures": []}]
    run.check_repeats(records)
    assert [bool(r["failures"]) for r in records] == [False, False, True]


def test_host_times_are_scaled_by_the_probes_around_each_job():
    nominal = run.PROBE_NOMINAL_S
    timeline = [
        {"probe_s": nominal, "wall_s": 4.0, "setup_s": 0.2, "frames": 8},
        {"failures": ["child exited 1"]},
        {"probe_s": 2 * nominal, "wall_s": 8.0, "setup_s": 0.4, "frames": 8},
        {"probe_s": 2 * nominal, "wall_s": 8.0, "setup_s": 0.4, "frames": 8},
    ]
    run.normalize(timeline)
    first, failed, slow, last = timeline
    assert "speed" not in failed
    nominal_host = pytest.approx({"wall_s": 4.0, "setup_s": 0.2,
                                  "sim_frames_per_s": 2.0})
    # A failed child has no probe: the job's own probe stands alone.
    # A host twice as slow during the job reads as the nominal host.
    for record in (first, slow, last):
        assert {name: run.E2E[name](record) for name in
                ("wall_s", "setup_s", "sim_frames_per_s")} == nominal_host


def test_span_counts_must_match_model_counters():
    summary = tracing.SpanTracer().summary()
    summary["entry_calls"]["NicPort.receive"] = 5
    assert tracing.self_checks(summary, {"nic_receive_calls": 5}, 0.0) == []
    assert tracing.self_checks(summary, {"nic_receive_calls": 6}, 0.0)
    summary["self_s"]["core"] = 0.5
    assert tracing.self_checks(summary, {}, 1.0)


# -- A/B verdicts ---------------------------------------------------------------


def _ledger(walls, fail_frac=0.0):
    return {"workloads": {"tx64_line_rate": {
        "fail_frac": fail_frac,
        "runs": [{"wall_s": w, "sim_frames_per_s": 1e6 / w, "setup_s": 0.2,
                  "peak_rss_mb": 46.0} for w in walls]}}}


def test_compare_verdicts(spec):
    parent = _ledger([4.0 + 0.01 * (i % 3) for i in range(10)])
    faster = _ledger([3.5 + 0.01 * (i % 3) for i in range(10)])
    verdict = run.compare(parent, faster, spec)["tx64_line_rate"]
    assert verdict["wall_s"].startswith("gain")
    assert verdict["sim_frames_per_s"].startswith("gain")
    assert verdict["setup_s"].startswith("no regression")

    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "wall_s")
    slower = _ledger([4.0 * (1 + bound) + 0.1 + 0.01 * (i % 3)
                      for i in range(10)])
    assert run.compare(parent, slower, spec)["tx64_line_rate"][
        "wall_s"].startswith("regressed")
    within = _ledger([4.0 * (1 + bound) - 0.1 + 0.01 * (i % 3)
                      for i in range(10)])
    assert run.compare(parent, within, spec)["tx64_line_rate"][
        "wall_s"].startswith("no regression")

    noisy = _ledger([3.0, 5.0] * 5)
    assert run.compare(parent, noisy, spec)["tx64_line_rate"][
        "wall_s"].startswith("unresolved")

    few = _ledger([3.5, 3.5, 3.5])
    assert not run.compare(parent, few, spec)["tx64_line_rate"][
        "wall_s"].startswith("gain")

    failing = _ledger([3.5 + 0.01 * (i % 3) for i in range(10)], 0.1)
    verdict = run.compare(parent, failing, spec)["tx64_line_rate"]
    assert not verdict["wall_s"].startswith("gain")
    assert verdict["fail_frac"].startswith("regressed")


# -- the workloads at smoke size ----------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_come_from_the_seed(name):
    assert workloads.make_inputs(name, 1) == workloads.make_inputs(name, 1)
    assert workloads.make_inputs(name, 1) != workloads.make_inputs(name, 2)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_is_deterministic_and_traceable(name):
    first = run.run_child(name, 1, scale=SMOKE_SCALE)
    again = run.run_child(name, 1, scale=SMOKE_SCALE)
    traced = run.run_child(name, 1, trace=True, scale=SMOKE_SCALE)
    for record in (first, again, traced):
        assert "fingerprint" in record, record["failures"]
        assert record["frames"] > 1000
    assert again["fingerprint"] == first["fingerprint"]
    assert traced["fingerprint"] == first["fingerprint"]
    assert traced["sim"] == first["sim"]
    # Smoke sizes are too short for the paper's tolerances; the traced
    # accounting must hold regardless.
    accounting = [why for why in traced["failures"]
                  if "spans" in why or "trace" in why or "model" in why]
    assert accounting == []
    json.dumps(traced["layers"])
