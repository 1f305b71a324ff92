"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
from types import SimpleNamespace

import pytest

from repro.analysis.export import results_to_csv
from repro.cli import EXPERIMENTS, _finish_gate, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "HPBD" in capsys.readouterr().out

    def test_run_fig01(self, capsys):
        assert main(["run", "fig01"]) == 0
        out = capsys.readouterr().out
        assert "rdma_write" in out

    def test_run_fig03(self, capsys):
        assert main(["run", "fig03"]) == 0
        assert "registration" in capsys.readouterr().out

    def test_run_fig05_tiny_with_json(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        assert main(["run", "fig05", "--scale", "64", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "testswap" in out and "paper" in out
        payload = json.loads(path.read_text())
        assert payload["scale"] == 64
        assert set(payload["results"]["fig05"]) == {
            "local", "hpbd", "nbd-ipoib", "nbd-gige", "disk"
        }

    def test_run_fig06_tiny(self, capsys):
        assert main(["run", "fig06", "--scale", "64"]) == 0
        assert "cluster" in capsys.readouterr().out

    def test_run_fig10_tiny(self, capsys):
        assert main(["run", "fig10", "--scale", "64"]) == 0
        assert "servers" in capsys.readouterr().out

    def test_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig05", "--scale", "0"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCSVExport:
    def test_csv_flag_writes_files(self, capsys, tmp_path):
        assert main(["run", "fig03", "--csv", str(tmp_path)]) == 0
        text = (tmp_path / "fig03.csv").read_text()
        assert text.startswith("sizes,")

    def test_csv_flag_ignored_for_table1(self, capsys, tmp_path):
        assert main(["run", "table1", "--csv", str(tmp_path)]) == 0
        assert not (tmp_path / "table1.csv").exists()


class TestTrace:
    def test_trace_writes_chrome_json_and_breakdown(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        csv = tmp_path / "spans.csv"
        assert main([
            "trace", "--scale", "128",
            "-o", str(out), "--csv", str(csv),
        ]) == 0
        text = capsys.readouterr().out
        assert "share of overhead" in text
        assert "wire cross-check" in text
        doc = json.loads(out.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "X", "C"} <= phases
        assert csv.read_text().startswith("start_usec,dur_usec,")

    def test_trace_disk_device(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main([
            "trace", "--device", "disk", "--workload", "testswap",
            "--scale", "128", "-o", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "disk mechanism" in text
        # no RDMA model to cross-check on the disk path
        assert "wire cross-check" not in text

    def test_trace_bad_device_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "--device", "floppy"])


class TestCritpathCommand:
    def test_critpath_report_and_artifacts(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        report = tmp_path / "critpath.json"
        assert main([
            "critpath", "--scale", "128", "--top", "3",
            "-o", str(out), "--json", str(report),
        ]) == 0
        text = capsys.readouterr().out
        assert "aggregate blame" in text
        assert "slowest requests" in text
        assert "invariant monitors: clean" in text
        doc = json.loads(report.read_text())
        assert doc["orphan_spans"] == 0
        assert doc["violations"] == []
        assert doc["requests"] > 0
        blame = doc["blame_usec"]
        assert blame["wire"] > 0
        assert 0.0 <= doc["queueing_frac"] <= 1.0
        assert len(doc["slowest"]) <= 3
        # per-request blame in the report sums to its e2e latency
        for entry in doc["slowest"]:
            assert sum(entry["blame_usec"].values()) == pytest.approx(
                entry["e2e_usec"], rel=1e-6
            )
        chrome = json.loads(out.read_text())
        assert {"M", "X"} <= {e["ph"] for e in chrome["traceEvents"]}

    def test_critpath_nbd_device(self, capsys):
        assert main([
            "critpath", "--device", "nbd-gige", "--workload", "testswap",
            "--scale", "256", "--top", "2",
        ]) == 0
        text = capsys.readouterr().out
        assert "queueing" in text
        assert "invariant monitors: clean" in text

    def test_trace_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "--scale", "0"])


class TestReport:
    def test_report_generates_markdown(self, capsys, tmp_path, monkeypatch):
        # Patch the experiment registry to only cheap entries so the
        # report test stays fast; the full registry is exercised by the
        # benchmark suite.
        import repro.cli as cli

        small = {
            "table1": cli.EXPERIMENTS["table1"],
            "fig01": cli.EXPERIMENTS["fig01"],
            "fig03": cli.EXPERIMENTS["fig03"],
        }
        monkeypatch.setattr(cli, "EXPERIMENTS", small)
        out = tmp_path / "REPORT.md"
        assert cli.main(["report", "--scale", "64", "-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# HPBD reproduction report")
        assert "## fig01" in text
        assert "rdma_write" in text


class TestSweepCommand:
    def test_sweep_cold_then_cached(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert main([
            "sweep", "fig05", "--scale", "64", "--cache", str(cache),
        ]) == 0
        out = capsys.readouterr().out
        assert "5 simulated, 0 cached" in out
        assert main([
            "sweep", "fig05", "--scale", "64", "--cache", str(cache),
            "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert "0 simulated, 5 cached" in out

    def test_sweep_json_payload(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        assert main([
            "sweep", "fig10", "--scale", "64", "--no-cache", "--quiet",
            "--json", str(path),
        ]) == 0
        payload = json.loads(path.read_text())
        assert payload["scale"] == 64
        points = payload["sweeps"]["fig10"]["points"]
        assert set(points) == {"fig10/n1", "fig10/n2", "fig10/n4",
                               "fig10/n8", "fig10/n16"}

    def test_sweep_force_resimulates(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        args = ["sweep", "fig06", "--scale", "64", "--cache", str(cache),
                "--quiet"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--force"]) == 0
        assert "1 simulated, 0 cached" in capsys.readouterr().out

    def test_sweep_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "fig99"])

    def test_sweep_prints_cache_summary_and_campaign(self, capsys, tmp_path):
        store = tmp_path / "camp.jsonl"
        assert main([
            "sweep", "fig05", "--scale", "64",
            "--cache", str(tmp_path / "cache"), "--quiet",
            "--campaign", str(store),
        ]) == 0
        out = capsys.readouterr().out
        assert "cache:" in out and "misses" in out
        assert f"appended run records to {store}" in out
        from repro.obs.campaign import CampaignStore

        assert len(CampaignStore(store).load()) == 5


class TestCampaignCommands:
    def _mini(self, tmp_path, name="camp.jsonl", seeds="1,2"):
        store = tmp_path / name
        assert main([
            "campaign", "campaign", "--scale", "256", "--seeds", seeds,
            "--store", str(store), "--filter", "fair-2s", "--no-cache",
            "--quiet",
        ]) == 0
        return store

    def test_campaign_runs_and_prints_aggregates(self, capsys, tmp_path):
        store = self._mini(tmp_path)
        out = capsys.readouterr().out
        assert "2 simulated" in out
        assert "95% CI" in out
        assert f"appended 2 records to {store}" in out

    def test_compare_self_is_clean_and_regression_exits_nonzero(
        self, capsys, tmp_path
    ):
        import dataclasses

        from repro.obs.campaign import CampaignStore

        base = self._mini(tmp_path, "base.jsonl", seeds="1,2")
        other = self._mini(tmp_path, "other.jsonl", seeds="3,4")
        assert main(["compare", str(base), str(other)]) == 0
        assert "0 regressions" in capsys.readouterr().out
        # degrade the test side 3x -> the gate must fire
        slow = tmp_path / "slow.jsonl"
        slow_store = CampaignStore(slow)
        for rec in CampaignStore(other).load():
            slow_store.append(dataclasses.replace(
                rec,
                metrics={
                    k: v * 3 if "usec" in k else v
                    for k, v in rec.metrics.items()
                },
            ))
        assert main(["compare", str(base), str(slow)]) == 1
        assert "regression" in capsys.readouterr().out

    def test_compare_bench_floors(self, capsys, tmp_path):
        import dataclasses

        from repro.obs.campaign import CampaignStore

        store = self._mini(tmp_path)
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({"campaign_floors": [
            {"point": "*", "metric": "violations", "max": 0},
        ]}))
        assert main(["compare", str(store), "--bench", str(bench)]) == 0
        assert "all clear" in capsys.readouterr().out
        bad = tmp_path / "bad.jsonl"
        bad_store = CampaignStore(bad)
        for rec in CampaignStore(store).load():
            bad_store.append(dataclasses.replace(
                rec, metrics={**rec.metrics, "violations": 2.0},
            ))
        assert main(["compare", str(bad), "--bench", str(bench)]) == 1
        assert "FLOOR VIOLATION" in capsys.readouterr().err

    def test_report_campaign_html(self, capsys, tmp_path, monkeypatch):
        store = self._mini(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main([
            "report", "--campaign", str(store), "--replay-check",
        ]) == 0
        out = capsys.readouterr().out
        assert "replay check passed" in out
        html = (tmp_path / "report.html").read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "Campaign report" in html

    def test_compare_missing_store_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["compare", str(tmp_path / "absent.jsonl")])


@pytest.fixture(scope="class")
def bench_run(tmp_path_factory):
    """One ``repro bench`` run with the sweep, about a minute on a 2-CPU
    host, shared by the tests that only read its exit code, JSON and
    printed output."""
    path = tmp_path_factory.mktemp("bench") / "BENCH_simulator.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([
            "bench", "--json", str(path), "--events", "5000",
            "--rounds", "1", "--sweep-scale", "128",
        ])
    return code, json.loads(path.read_text()), out.getvalue()


class TestBenchCommand:
    def test_bench_writes_json(self, bench_run):
        code, payload, _out = bench_run
        assert code == 0
        assert payload["event_loop"]["timeout_events_per_sec"] > 0
        assert payload["sweep"]["cached_points_resimulated"] == 0
        assert payload["sweep"]["points"] == 4

    def test_bench_floor_enforced(self, capsys, tmp_path):
        path = tmp_path / "bench.json"
        assert main([
            "bench", "--json", str(path), "--events", "2000",
            "--rounds", "1", "--skip-sweep",
            "--min-events-per-sec", "1e12",
        ]) == 1

    def test_bench_fluid_payload_and_parallel_never_null(self, bench_run):
        code, payload, out = bench_run
        assert code == 0
        fb = payload["fluid_bulk"]
        assert fb["identical_results"] is True
        assert fb["event_reduction"] > 10
        # the 1-CPU regression: parallel_sec must never be null again
        assert payload["sweep"]["parallel_sec"] is not None
        assert payload["sweep"]["parallel_workers"] >= 2
        assert "fluid bulk fast path" in out
        if payload["sweep"]["parallel_note"]:
            assert "note:" in out

    def test_bench_profile_flags(self, capsys, tmp_path):
        import pstats

        path = tmp_path / "bench.json"
        prof = tmp_path / "bench.prof"
        assert main([
            "bench", "--json", str(path), "--events", "2000",
            "--rounds", "1", "--skip-sweep",
            "--profile", "--profile-out", str(prof),
        ]) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out  # pstats table printed
        assert prof.exists()
        stats = pstats.Stats(str(prof))
        assert stats.total_calls > 0


class TestFaultsCommand:
    def test_faults_nway2_smoke(self, capsys, tmp_path):
        trace = tmp_path / "fault-trace.json"
        report = tmp_path / "faults.json"
        assert main([
            "faults", "--scale", "64",
            "--expect-recovery",
            "-o", str(trace), "--json", str(report),
        ]) == 0
        out = capsys.readouterr().out
        assert "invariant monitors: clean" in out
        assert trace.exists()
        payload = json.loads(report.read_text())
        assert payload["redundancy"] == "nway(2)"
        assert payload["counters"]["write_failovers"] > 0
        assert payload["counters"]["timeouts"] > 0
        assert payload["violations"] == []
        assert payload["blame_usec"]["fault"] > 0

    def test_faults_bad_mode_rejected(self):
        # The recovery mode is no longer selectable (always nway(2)).
        with pytest.raises(SystemExit):
            main(["faults", "--mode", "sideways"])


_VIOLATION = {
    "t_usec": 12.5, "monitor": "credits", "component": "hpbd0",
    "message": "credit count went negative",
}


def _stub_run(*violations):
    return SimpleNamespace(invariant_violations=list(violations))


def _gate_args(tmp_path, **overrides):
    args = dict(replay_check=False, output=None,
                json=str(tmp_path / "gate.json"))
    args.update(overrides)
    return argparse.Namespace(**args)


class TestFinishGate:
    """The shared gate tail, driven with stub runs (no simulation)."""

    def test_clean_run_passes(self, tmp_path, capsys):
        args = _gate_args(tmp_path)
        assert _finish_gate(args, {"run": _stub_run()}, [], {"k": 1}) == 0
        assert "invariant monitors: clean" in capsys.readouterr().out
        payload = json.loads((tmp_path / "gate.json").read_text())
        assert payload == {"k": 1, "status": 0, "violations": []}

    @pytest.mark.parametrize("bad", ["healthy", "mitigated"])
    def test_violation_in_any_named_run_fails(self, tmp_path, capsys, bad):
        runs = {"healthy": _stub_run(), "mitigated": _stub_run()}
        runs[bad] = _stub_run(_VIOLATION)
        assert _finish_gate(_gate_args(tmp_path), runs, [], {}) == 1
        err = capsys.readouterr().err
        assert "ERROR: 1 invariant violations:" in err
        assert f"{bad}: t=12.5 credits [hpbd0]" in err
        payload = json.loads((tmp_path / "gate.json").read_text())
        assert payload["violations"] == [_VIOLATION]
        assert payload["status"] == 1

    def test_command_error_fails(self, tmp_path, capsys):
        status = _finish_gate(
            _gate_args(tmp_path), {"run": _stub_run()},
            ["fair spread 1.20 exceeds --max-spread 1.10"], {},
        )
        assert status == 1
        assert ("ERROR: fair spread 1.20 exceeds --max-spread 1.10"
                in capsys.readouterr().err)

    def test_failed_replay_fails(self, tmp_path, capsys):
        calls = []

        def replay():
            calls.append(1)
            return False

        args = _gate_args(tmp_path)
        assert _finish_gate(args, {"run": _stub_run()}, [], {},
                            replay=replay) == 0
        assert calls == []  # no --replay-check, no rerun
        args.replay_check = True
        assert _finish_gate(args, {"run": _stub_run()}, [], {},
                            replay=replay) == 1
        assert calls == [1]
        assert "replay diverged" in capsys.readouterr().err
        assert json.loads((tmp_path / "gate.json").read_text())["status"] == 1

    def test_passing_replay(self, tmp_path, capsys):
        args = _gate_args(tmp_path, replay_check=True)
        assert _finish_gate(args, {"run": _stub_run()}, [], {},
                            replay=lambda: True) == 0
        assert "replay check: second run identical" in capsys.readouterr().out

    @pytest.mark.parametrize("errors", [[], ["gate broke"]])
    def test_json_report_status_and_key_order(self, tmp_path, errors):
        path = tmp_path / "gate.json"
        status = _finish_gate(
            _gate_args(tmp_path), {"run": _stub_run()}, errors,
            {"zeta": 1, "alpha": {"b": 2, "a": 1}},
        )
        text = path.read_text()
        payload = json.loads(text)
        assert payload["status"] == status == (1 if errors else 0)
        assert list(payload) == sorted(payload)
        assert list(payload["alpha"]) == ["a", "b"]
        assert text.endswith("\n")
        assert not (tmp_path / "gate.json.tmp").exists()

    def test_trace_written_only_under_output(self, tmp_path, monkeypatch):
        import repro.obs

        written = []
        monkeypatch.setattr(
            repro.obs, "write_chrome_trace",
            lambda trace, path: written.append((trace, path)),
        )
        trace = object()
        _finish_gate(_gate_args(tmp_path, json=None), {"run": _stub_run()},
                     [], {}, trace=trace)
        assert written == []
        assert list(tmp_path.iterdir()) == []
        out = str(tmp_path / "trace.json")
        _finish_gate(_gate_args(tmp_path, json=None, output=out),
                     {"run": _stub_run()}, [], {}, trace=trace)
        assert written == [(trace, out)]


class TestGateCommands:
    def test_redundancy_rs21_gate_passes(self, tmp_path, capsys):
        out = tmp_path / "redundancy.json"
        assert main([
            "redundancy", "--policy", "rs(2,1)", "--expect-recovery",
            "--replay-check", "--json", str(out),
        ]) == 0
        assert "replay check: second run identical" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["status"] == 0
        assert payload["violations"] == []
        assert payload["policy"] == "rs(2,1)"

    def test_health_mitigate_gate_fails_when_fault_too_mild(
        self, tmp_path, capsys
    ):
        # At scale 512 the fail-slow server does not slow the unmitigated
        # run past the gate, so the gate must refuse to certify it.
        out = tmp_path / "mitigate.json"
        status = main([
            "health", "--mitigate", "--scale", "512", "--json", str(out),
        ])
        assert status == 1
        assert ("unmitigated run did not breach the gate"
                in capsys.readouterr().err)
        payload = json.loads(out.read_text())
        assert payload["status"] == 1
        assert payload["violations"] == []

    @pytest.mark.parametrize("policy,crashes", [
        ("rs(4,2)", "-1"),
        ("nway(4)", "3"),  # m=3, but the schedule has two crashes
        ("rs(4,3)", "3"),
        ("rs(2,1)", "2"),
    ])
    def test_redundancy_rejects_crash_count_before_simulating(
        self, monkeypatch, capsys, policy, crashes
    ):
        import repro.runner

        def no_run(*a, **k):
            raise AssertionError("simulated despite a bad --crashes")

        monkeypatch.setattr(repro.runner, "run_scenario", no_run)
        assert main([
            "redundancy", "--policy", policy, "--crashes", crashes,
            "--expect-recovery",
        ]) == 2
        assert f"--crashes {crashes} outside" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--mitigate", "--healthy"],
        ["--mitigate", "--expect-breach"],
        ["--healthy", "--expect-breach"],
    ])
    def test_health_mode_flags_conflict(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["health", *flags])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["run", "fig01"], ["report"], ["trace"], ["critpath"], ["faults"],
        ["cluster"], ["health"], ["sweep", "fig05"], ["campaign", "fig05"],
    ])
    def test_scale_below_one_is_a_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--scale", "0"])
        assert exc.value.code == 2
        assert "--scale: must be >= 1" in capsys.readouterr().err


class TestRunCSVReusesRun:
    def test_csv_written_from_the_results_already_run(
        self, monkeypatch, capsys, tmp_path
    ):
        import repro.experiments

        real = repro.experiments.run_sweep
        sweeps = []

        def counting(*args, **kwargs):
            report = real(*args, **kwargs)
            sweeps.append(report.results)
            return report

        monkeypatch.setattr(repro.experiments, "run_sweep", counting)
        assert main([
            "run", "fig05", "--scale", "64", "--csv", str(tmp_path),
        ]) == 0
        assert len(sweeps) == 1
        assert ((tmp_path / "fig05.csv").read_bytes()
                == results_to_csv(sweeps[0]).encode())
