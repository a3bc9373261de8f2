"""Golden-trace regression tests.

The committed traces under ``tests/golden/`` are bit-for-bit fingerprints
of three canonical seeded runs (:data:`repro.scenarios.GOLDEN`): a CBR
``l2_load_latency``-style scenario, a software-paced Poisson stream, and a
chaos run under a small fault plan.  Any behavioural drift in the event loop,
NIC model, wire model, DuT, or rate control changes event timings and
therefore the trace bytes, so refactors of ``nic.py``/``link.py`` fail
loudly here instead of silently shifting benchmark numbers.

If a change is *intentional*, regenerate with::

    PYTHONPATH=src python -m repro.scenarios --write-golden tests/golden

and review the trace diff like a code diff.
"""

import difflib
import json
import pathlib

import pytest

from repro.scenarios import GOLDEN, run_trace

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def golden_path(name):
    return GOLDEN_DIR / GOLDEN[name]


def assert_matches_golden(name, text):
    golden = golden_path(name).read_text()
    if text != golden:
        diff = "\n".join(difflib.unified_diff(
            golden.splitlines(), text.splitlines(),
            fromfile=f"golden/{GOLDEN[name]}", tofile="current",
            lineterm="", n=2))
        pytest.fail(
            f"trace for scenario {name!r} drifted from the committed golden "
            f"(simulator behaviour changed).  If intentional, regenerate via "
            f"'python -m repro.scenarios --write-golden tests/golden' "
            f"and review:\n{diff[:4000]}"
        )


@pytest.mark.parametrize("name", sorted(GOLDEN))
class TestGoldenTraces:
    def test_byte_identical_to_committed_golden(self, name):
        assert_matches_golden(name, run_trace(name))

    def test_two_runs_byte_identical(self, name):
        assert run_trace(name) == run_trace(name)

    def test_golden_is_wellformed_jsonl(self, name):
        lines = golden_path(name).read_text().splitlines()
        assert lines, "golden trace must not be empty"
        last_seq = -1
        for line in lines:
            obj = json.loads(line)
            assert obj["seq"] > last_seq
            last_seq = obj["seq"]
            assert obj["t"] >= 0 and isinstance(obj["t"], int)


class TestGoldenContent:
    """Pin the semantic shape of the goldens, not just their bytes."""

    def test_cbr_scenario_covers_key_record_kinds(self):
        kinds = {json.loads(line)["kind"]
                 for line in golden_path("load-latency").read_text().splitlines()}
        assert {"desc_fetch", "wire_tx", "proc_advance", "proc_finish",
                "cpu_charge", "dut_irq", "tx_tstamp_latch",
                "rx_tstamp_latch"} <= kinds

    def test_cbr_load_frames_paced_at_1mpps(self):
        # Departure times of the 24 paced load frames (64 B) on the loadgen
        # wire must average 1 µs apart — the configured CBR rate.  Each
        # frame crosses two wires (loadgen → DuT → sink); its first wire_tx
        # is the loadgen departure.
        first_start = {}
        for line in golden_path("load-latency").read_text().splitlines():
            obj = json.loads(line)
            if obj["kind"] == "wire_tx" and obj["size"] == 64:
                first_start.setdefault(obj["frame"], obj["start"])
        starts = sorted(first_start.values())
        assert len(starts) == 24
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        mean_gap_ps = sum(gaps) / len(gaps)
        assert mean_gap_ps == pytest.approx(1e6, rel=0.02)

    def test_poisson_scenario_covers_process_records(self):
        lines = golden_path("poisson").read_text().splitlines()
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds.count("desc_fetch") == 15
        assert kinds.count("wire_tx") == 15
        assert "proc_advance" in kinds and "proc_finish" in kinds

    def test_poisson_gaps_are_irregular(self):
        times = [json.loads(line)["t"]
                 for line in golden_path("poisson").read_text().splitlines()
                 if json.loads(line)["kind"] == "wire_tx"]
        gaps = {b - a for a, b in zip(times, times[1:])}
        assert len(gaps) > 5  # exponential gaps, not CBR
