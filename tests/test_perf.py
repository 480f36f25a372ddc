"""Tests for the ``repro.perf`` baseline/regression subsystem."""

from __future__ import annotations

import json

import pytest

from repro.perf import (
    BaselineStore,
    BenchmarkRecord,
    Regression,
    best_of,
    compare_records,
)
from repro.perf.baseline import PerfError


def record(name="iss", rate=100.0, cost=2.0) -> BenchmarkRecord:
    return BenchmarkRecord(
        name=name,
        metrics={"rate": rate, "seconds": cost},
        maximize=("rate",),
        meta={"smoke": True},
    )


class TestBenchmarkRecord:
    def test_json_round_trip(self):
        original = record()
        restored = BenchmarkRecord.from_json(original.to_json())
        assert restored == original

    def test_malformed_json_rejected(self):
        with pytest.raises(PerfError):
            BenchmarkRecord.from_json("{}")
        with pytest.raises(PerfError):
            BenchmarkRecord.from_json(json.dumps({"name": "x", "metrics": "no"}))

    def test_unknown_maximize_metric_rejected(self):
        with pytest.raises(PerfError):
            BenchmarkRecord(name="x", metrics={"a": 1.0}, maximize=("b",))

    def test_environment_meta_has_provenance(self):
        meta = BenchmarkRecord.environment_meta()
        assert {"python", "implementation", "machine", "recorded_unix_time"} <= set(meta)


class TestCompareRecords:
    def test_no_regression_within_tolerance(self):
        assert compare_records(record(), record(rate=80.0, cost=2.5)) == []

    def test_rate_drop_is_flagged(self):
        regressions = compare_records(record(), record(rate=50.0))
        assert [r.metric for r in regressions] == ["rate"]
        assert regressions[0].retained == pytest.approx(0.5)
        assert "50% retained" in regressions[0].describe()

    def test_cost_increase_is_flagged(self):
        regressions = compare_records(record(), record(cost=4.0))
        assert [r.metric for r in regressions] == ["seconds"]
        assert regressions[0].retained == pytest.approx(0.5)

    def test_new_and_removed_metrics_ignored(self):
        baseline = record()
        current = BenchmarkRecord(
            name="iss", metrics={"rate": 100.0, "fresh": 1.0}, maximize=("rate",)
        )
        assert compare_records(baseline, current) == []

    def test_mismatched_names_rejected(self):
        with pytest.raises(PerfError):
            compare_records(record("a"), record("b"))

    def test_bad_tolerance_rejected(self):
        with pytest.raises(PerfError, match="tolerance"):
            compare_records(record(), record(), tolerance=1.0)


class TestBaselineStore:
    def test_save_load_round_trip(self, tmp_path):
        store = BaselineStore(tmp_path)
        path = store.save(record())
        assert path.name == "BENCH_iss.json"
        assert store.load("iss") == record()
        assert store.load("missing") is None

    def test_load_all_and_compare(self, tmp_path):
        store = BaselineStore(tmp_path)
        store.save(record("iss"))
        store.save(record("kernel", rate=10.0))
        assert set(store.load_all()) == {"iss", "kernel"}
        regressions, missing = store.compare(
            [record("iss", rate=10.0), record("new")]
        )
        assert missing == ["new"]
        assert [r.benchmark for r in regressions] == ["iss"]
        assert all(isinstance(r, Regression) for r in regressions)

    def test_empty_directory(self, tmp_path):
        store = BaselineStore(tmp_path / "never_created")
        assert store.load_all() == {}

    def test_smoke_and_full_baselines_are_not_comparable(self, tmp_path):
        # A full-size run against a smoke baseline (or vice versa) must not
        # produce spurious regressions — it is reported as missing instead.
        store = BaselineStore(tmp_path)
        store.save(record("iss"))  # meta.smoke = True
        full = BenchmarkRecord(
            name="iss", metrics={"rate": 10.0}, maximize=("rate",),
            meta={"smoke": False},
        )
        regressions, missing = store.compare([full])
        assert regressions == []
        assert missing == ["iss"]


class TestTimingHelpers:
    def test_best_of_returns_positive_minimum(self):
        calls = []
        elapsed = best_of(lambda: calls.append(1), repeats=4)
        assert len(calls) == 4
        assert elapsed >= 0.0

    def test_best_of_rejects_zero_repeats(self):
        # A bare min()-of-empty ValueError would tell the caller nothing;
        # the guard must speak the perf layer's language.
        with pytest.raises(PerfError, match="repeats"):
            best_of(lambda: None, repeats=0)


COMMIT = "c" * 40


def set_git_identity(monkeypatch, dirty: bool) -> None:
    """Fake the working tree's ``(commit, dirty)`` for the CLI and records."""
    from repro.perf import baseline, cli

    monkeypatch.setattr(cli, "git_identity", lambda: (COMMIT, dirty))
    monkeypatch.setattr(baseline, "git_identity", lambda: (COMMIT, dirty))


@pytest.fixture
def bench_root(tmp_path, monkeypatch):
    """A clean repository root in ``tmp_path``: the CLI's one baseline home."""
    from repro.perf import cli

    monkeypatch.setattr(cli, "repo_root", lambda: tmp_path)
    set_git_identity(monkeypatch, dirty=False)
    return tmp_path


def stamped_suite(calls: list):
    """A one-benchmark suite stub whose record carries git provenance."""

    def suite(smoke=False):
        calls.append(smoke)
        return [
            BenchmarkRecord(
                name="iss",
                metrics={"rate": 100.0},
                maximize=("rate",),
                meta={"smoke": smoke, **BenchmarkRecord.environment_meta()},
            )
        ]

    return suite


class TestRecordCli:
    def test_record_then_compare(self, bench_root, monkeypatch, capsys):
        # Run the actual CLI (the repro-bench entry point) against a tiny
        # suite stub so the test is fast and deterministic: one benchmark
        # whose rate halves on the re-run.
        from repro.perf import cli

        rates = iter([100.0, 40.0])

        def fake_suite(smoke=False):
            return [record(rate=next(rates))]

        monkeypatch.setattr(cli, "run_suite", fake_suite)
        assert cli.main(["--smoke"]) == 0
        assert (bench_root / "BENCH_iss.json").exists()
        assert cli.main(["--smoke", "--compare", "--strict"]) == 1
        captured = capsys.readouterr().out
        assert "REGRESSION" in captured

    def test_record_writes_the_snapshot_and_an_equal_history_line(
        self, bench_root, monkeypatch
    ):
        # The snapshot --compare reads and the newest history point are
        # written by one path, so they can never drift apart.
        from repro.perf import cli

        monkeypatch.setattr(cli, "run_suite", stamped_suite([]))
        assert cli.main(["--smoke"]) == 0
        snapshot = json.loads((bench_root / "BENCH_iss.json").read_text())
        history = (bench_root / "benchmarks" / "history" / "iss.jsonl").read_text()
        assert json.loads(history.splitlines()[-1]) == snapshot
        assert snapshot["meta"]["git_commit"] == COMMIT
        assert snapshot["meta"]["git_dirty"] is False

    def test_dirty_tree_refuses_to_record(self, bench_root, monkeypatch, capsys):
        from repro.perf import cli

        calls = []
        monkeypatch.setattr(cli, "run_suite", stamped_suite(calls))
        set_git_identity(monkeypatch, dirty=True)
        assert cli.main(["--smoke"]) == 2
        assert "dirty working tree" in capsys.readouterr().err
        assert calls == []  # refused before spending time on the suite
        assert not (bench_root / "BENCH_iss.json").exists()
        assert not (bench_root / "benchmarks" / "history" / "iss.jsonl").exists()

    def test_allow_dirty_records_the_dirty_flag(self, bench_root, monkeypatch):
        from repro.perf import cli

        monkeypatch.setattr(cli, "run_suite", stamped_suite([]))
        set_git_identity(monkeypatch, dirty=True)
        assert cli.main(["--smoke", "--allow-dirty"]) == 0
        snapshot = json.loads((bench_root / "BENCH_iss.json").read_text())
        assert snapshot["meta"]["git_dirty"] is True

    def test_compare_writes_nothing(self, bench_root, monkeypatch):
        # Compare mode reads the repo-root baselines and leaves both the
        # snapshot and the history byte-identical, even from a dirty tree.
        from repro.perf import cli

        monkeypatch.setattr(cli, "run_suite", stamped_suite([]))
        assert cli.main(["--smoke"]) == 0
        files = (
            bench_root / "BENCH_iss.json",
            bench_root / "benchmarks" / "history" / "iss.jsonl",
        )
        before = [path.read_bytes() for path in files]
        set_git_identity(monkeypatch, dirty=True)
        assert cli.main(["--smoke", "--compare", "--strict"]) == 0
        assert [path.read_bytes() for path in files] == before

    def test_store_checkpoints_and_resume_skips_completed_benchmarks(
        self, bench_root, monkeypatch, capsys
    ):
        # The --store/--resume path: a benchmark stub that counts its calls
        # must run once, be committed, and be *loaded* (not re-run) on a
        # resumed invocation — with the record surviving the JSON round-trip.
        from repro.perf import cli

        calls = []

        def bench_iss(smoke=False):
            calls.append(smoke)
            return record(rate=123.0)

        monkeypatch.setattr(cli, "SUITE", (bench_iss,))
        store_dir = str(bench_root / "suite-store")
        assert cli.main(["--smoke", "--store", store_dir]) == 0
        assert calls == [True]
        assert cli.main(["--smoke", "--store", store_dir, "--resume"]) == 0
        assert calls == [True]  # loaded, not re-executed
        captured = capsys.readouterr().out
        assert "0 benchmark(s) executed, 1 loaded" in captured
        # The loaded record round-tripped: the baseline written on the
        # resumed invocation equals the original.
        loaded = BaselineStore(bench_root).load("iss")
        assert loaded == record(rate=123.0)

    def test_repo_root_falls_back_to_the_working_directory(
        self, tmp_path, monkeypatch
    ):
        from repro.perf import baseline

        monkeypatch.setattr(baseline, "_git", lambda *arguments: None)
        monkeypatch.chdir(tmp_path)
        assert baseline.repo_root() == tmp_path

    def test_store_key_is_host_specific(self):
        from repro.perf.cli import _bench_store_inputs

        inputs = _bench_store_inputs("iss", smoke=True)
        import platform as platform_module

        assert inputs["host"] == platform_module.node()
        assert inputs["benchmark"] == "iss"
        assert inputs["smoke"] is True

    def test_resume_without_store_is_a_usage_error(self):
        from repro.perf import cli

        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--smoke", "--resume"])
        assert excinfo.value.code == 2

    def test_perf_suite_smoke_runs(self):
        # The real suite at smoke size: records exist, metrics are positive,
        # and the tentpole's measured block speedup is present.
        from repro.perf.suite import bench_de_kernel

        result = bench_de_kernel(smoke=True)
        assert result.name == "de_kernel"
        assert result.metrics["events_per_second"] > 0
        assert result.meta["smoke"] is True
