"""Tests for the moongen-repro command-line interface."""

import io
import json
import pathlib
import re
from contextlib import redirect_stdout

import pytest

from repro.cli import build_parser, main
from repro.scenarios import GOLDEN

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_version(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_defaults(self):
        args = build_parser().parse_args(["load-latency"])
        assert args.rate == 1.0
        assert args.mode == "hardware"

    def test_mode_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["load-latency", "--mode", "magic"])


class TestCommands:
    def test_quickstart(self):
        code, out = run_cli(["quickstart", "--duration-ms", "0.5"])
        assert code == 0
        assert "Mpps" in out

    def test_load_latency_hardware(self):
        code, out = run_cli([
            "load-latency", "--rate", "0.5", "--duration-ms", "5",
            "--probes", "30",
        ])
        assert code == 0
        assert "DuT forwarded" in out
        assert "median" in out

    def test_load_latency_poisson_uses_crc(self):
        code, out = run_cli([
            "load-latency", "--rate", "0.5", "--pattern", "poisson",
            "--duration-ms", "5", "--probes", "20",
        ])
        assert code == 0
        assert "poisson via crc" in out
        assert "fillers dropped in NIC" in out

    def test_inter_arrival(self):
        code, out = run_cli(["inter-arrival", "--packets", "20000"])
        assert code == 0
        for name in ("MoonGen", "Pktgen-DPDK", "zsend"):
            assert name in out

    def test_rfc2544(self):
        code, out = run_cli(["rfc2544", "--resolution", "0.05"])
        assert code == 0
        assert "zero-loss Mpps" in out
        assert "  64 " in out or "64 " in out.splitlines()[1]

    def test_rfc2544_multiple_frame_sizes_one_table(self):
        code, out = run_cli([
            "rfc2544", "--resolution", "0.05", "--duration-ms", "20",
            "--frame-size", "64", "--frame-size", "512", "--jobs", "2",
        ])
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert lines[0].startswith("size [B]")
        sizes = [int(l.split()[0]) for l in lines[1:3]]
        assert sizes == [64, 512]

    def test_rfc2544_verbose_lists_trials(self):
        code, out = run_cli([
            "rfc2544", "--resolution", "0.05", "--verbose",
        ])
        assert code == 0
        assert "offered" in out

    def test_sweep_lists_available_sweeps(self):
        code, out = run_cli(["sweep"])
        assert code == 0
        for name in ("fig2-cores", "fig4-cores", "sec57-sizes", "rfc2544"):
            assert name in out

    def test_sweep_unknown_name_fails(self, capsys):
        code, _ = run_cli(["sweep", "nope"])
        assert code == 2

    def test_sweep_runs_points_subset(self):
        code, out = run_cli([
            "sweep", "fig2-cores", "--points", "1,2", "--jobs", "2",
        ])
        assert code == 0
        assert "cores" in out and "jobs=2" in out

    def test_metrics_manifest_fingerprint_ignores_batch(self, tmp_path):
        """The manifest hashes the simulated series, not the scheduler's
        self-accounting, so ``--batch`` leaves it unchanged."""
        from repro.metrics import load_manifest, manifest_path_for

        prints = []
        for extra in ([], ["--batch"]):
            out = str(tmp_path / f"run{len(prints)}.jsonl")
            code, _ = run_cli(["quickstart", "--seed", "3", "--duration-ms",
                               "0.5", "--metrics", out] + extra)
            assert code == 0
            manifest = load_manifest(manifest_path_for(out))
            prints.append(manifest["result_fingerprint"])
        assert prints[0] == prints[1]

    def test_timestamps(self):
        code, out = run_cli(["timestamps", "--probes", "50"])
        assert code == 0
        assert "82599/fiber" in out and "X540/copper" in out
        assert "320.0 ns" in out  # the 2 m fiber physical latency


class TestJournalFlags:
    """The --journal/--resume/--quarantine supervision surface
    (docs/RESILIENCE.md)."""

    def test_sweep_journal_roundtrip(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        code, out = run_cli([
            "sweep", "fig2-cores", "--points", "1,2", "--jobs", "2",
            "--journal", journal,
        ])
        assert code == 0
        first_bytes = open(journal, "rb").read()
        # Resuming a complete journal re-runs nothing and adds points.
        code, out = run_cli([
            "sweep", "fig2-cores", "--points", "1,2,4", "--jobs", "1",
            "--journal", journal, "--resume",
        ])
        assert code == 0
        assert "cores" in out
        resumed_bytes = open(journal, "rb").read()
        assert first_bytes != resumed_bytes  # the new point was sealed in
        assert first_bytes.splitlines()[0] == resumed_bytes.splitlines()[0]

    def test_existing_journal_refused_without_resume(self, tmp_path, capsys):
        journal = str(tmp_path / "sweep.jsonl")
        assert run_cli(["sweep", "fig2-cores", "--points", "1",
                        "--journal", journal])[0] == 0
        code, _ = run_cli(["sweep", "fig2-cores", "--points", "1",
                           "--journal", journal])
        assert code == 2
        assert "--resume" in capsys.readouterr().err

    def test_resume_without_journal_is_usage_error(self, capsys):
        code, _ = run_cli(["sweep", "fig2-cores", "--points", "1",
                           "--resume"])
        assert code == 2
        assert "--journal" in capsys.readouterr().err

    def test_faults_journal_and_json(self, tmp_path):
        journal = str(tmp_path / "faults.jsonl")
        code, out = run_cli([
            "faults", "--plan", "burst-loss", "--json",
            "--journal", journal,
        ])
        assert code == 0
        import json as _json

        results = _json.loads(out)
        assert "burst-loss" in results
        assert open(journal).read().count('"kind":"point"') == 1


class TestDeterminismGates:
    """The CLI end to end: sharded, batched and repeated runs must print
    the same fingerprints, and the exports must be well formed."""

    def test_faults_json_serial_matches_two_jobs(self):
        argv = ["faults", "--plan", "flap", "--plan", "burst-loss",
                "--plan", "clock-step", "--seed", "3", "--json"]
        code, serial = run_cli(argv)
        assert code == 0
        assert run_cli(argv + ["--jobs", "2"]) == (0, serial)
        results = json.loads(serial)
        assert set(results) == {"flap", "burst-loss", "clock-step"}
        for name, result in results.items():
            assert result["faults_injected"] > 0, name
            assert result["metrics_fingerprint"], name

    def test_quickstart_stdout_ignores_batch(self):
        code, event = run_cli(["quickstart", "--seed", "3"])
        assert code == 0
        code, batch = run_cli(["quickstart", "--seed", "3", "--batch"])
        assert code == 0
        assert [line for line in batch.splitlines()
                if not line.startswith("batch tier:")] == event.splitlines()

    def test_load_latency_fingerprint_serial_jobs_batch(self, tmp_path):
        prints = []
        for extra in ([], ["--jobs", "2"], ["--batch"]):
            out = str(tmp_path / f"ll{len(prints)}.jsonl")
            code, text = run_cli(["load-latency", "--rate", "1.0",
                                  "--duration-ms", "2", "--metrics", out]
                                 + extra)
            assert code == 0
            prints.append(re.search(r"^latency fingerprint ([0-9a-f]+)$",
                                    text, re.M).group(1))
            if "--jobs" in extra:
                assert "verified across 2 worker replicas" in text
        assert prints == [prints[0]] * 3

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_trace_out_matches_golden(self, name, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert run_cli(["trace", "--scenario", name, "--out", str(out)])[0] == 0
        assert out.read_bytes() == (GOLDEN_DIR / GOLDEN[name]).read_bytes()

    def test_metrics_export_schema_manifest_and_rerun(self, tmp_path):
        from repro.metrics import load_manifest, manifest_path_for
        from repro.metrics.export import validate_jsonl

        first, again = tmp_path / "metrics.jsonl", tmp_path / "again.jsonl"
        code, _ = run_cli(["metrics", "quickstart", "--out", str(first),
                           "--csv", str(tmp_path / "metrics.csv"),
                           "--prom", str(tmp_path / "metrics.prom")])
        assert code == 0
        rows = validate_jsonl(first.read_text())
        assert rows[-1]["nic0.tx.packets"] > 0
        manifest = load_manifest(manifest_path_for(str(first)))
        assert manifest["command"].startswith("moongen-repro metrics")
        assert manifest["result_fingerprint"]
        assert run_cli(["metrics", "quickstart", "--out", str(again)])[0] == 0
        assert again.read_bytes() == first.read_bytes()

    def test_precision_csv_and_prom(self, tmp_path):
        csv, prom = tmp_path / "precision.csv", tmp_path / "precision.prom"
        code, _ = run_cli(["precision", "--rate", "1.0", "--duration-ms", "1",
                           "--csv", str(csv), "--prom", str(prom)])
        assert code == 0
        assert re.search(r"^hardware,", csv.read_text(), re.M)
        assert "precision_interarrival_crc_bucket" in prom.read_text()

    def test_profile_json(self, tmp_path):
        out = tmp_path / "profile.json"
        code, _ = run_cli(["profile", "quickstart", "--json", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["events"] > 0 and doc["categories"]
