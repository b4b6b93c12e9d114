"""The bench harness records journal-derived per-phase data (satellite:
warm phases keep explicit ``cached: true`` entries instead of being
dropped from the ledger)."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "bench_study.py"


@pytest.fixture(scope="module")
def bench_mod():
    spec = importlib.util.spec_from_file_location("bench_study", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_study"] = module
    spec.loader.exec_module(module)
    return module


class TestRunOnce:
    def test_carries_journal_phase_breakdown(self, bench_mod):
        run = bench_mod.run_once("smoke", None)
        assert "journal_phases" in run
        for phase in bench_mod.PHASES:
            entry = run["journal_phases"][phase]
            assert entry["status"] == "ok"
            assert entry["cached"] is False
            assert entry["wall_s"] >= 0


class TestBench:
    def test_phases_record_peak_rss(self, bench_mod):
        fresh = bench_mod.bench("smoke", None, repeats=1, jobs=1)
        for stats in fresh["phases"].values():
            assert stats["peak_rss_mb"] > 0


class TestBenchCache:
    def test_warm_phases_kept_with_cached_flag(self, bench_mod, tmp_path):
        stats = bench_mod.bench_cache("smoke", None, jobs=1,
                                      cache_dir=tmp_path / "cache")
        cold, warm = stats["phases"]["cold"], stats["phases"]["warm"]
        # cold/warm rows stay phase-aligned: same keys, every tracked phase
        assert set(cold) == set(warm) == set(bench_mod.PHASES)
        for phase in bench_mod.PHASES:
            assert cold[phase]["cached"] is False
            assert warm[phase]["cached"] is True
            assert warm[phase]["wall_s"] is not None
        assert all(stats["warm_hits"].values())


class TestBenchPrediction:
    def test_times_layers_and_restores_models(self, bench_mod, monkeypatch):
        import numpy as np

        from repro import reports
        from repro.core import prediction_analysis
        from repro.prediction.holtwinters import HoltWinters
        from repro.prediction.lstm import LSTMForecaster

        def tiny_fig14(study):
            # A small stand-in for the report: one call per timed layer,
            # made through the same module attributes fig14 uses.
            series = 0.5 + 0.2 * np.sin(np.arange(192) * np.pi / 12)
            HoltWinters(season_length=24).fit(series)
            model = LSTMForecaster(window=12, epochs=1).fit(series[:96])
            model.walk_forward(series[:96], series[96:])
            prediction_analysis.seasonality_strength(series, 24)
            return ""

        monkeypatch.setattr(reports, "fig14", tiny_fig14)
        before = (HoltWinters.fit, LSTMForecaster.fit,
                  LSTMForecaster.walk_forward,
                  prediction_analysis.seasonality_strength)
        row = bench_mod.bench_prediction("smoke", None)
        assert set(row) == {"hw_fit_s", "lstm_fit_s",
                            "lstm_walk_forward_s", "seasonality_s",
                            "report_wall_s"}
        assert all(row[key] > 0 for key in row)
        layers = sum(v for k, v in row.items() if k != "report_wall_s")
        assert layers <= row["report_wall_s"]
        assert (HoltWinters.fit, LSTMForecaster.fit,
                LSTMForecaster.walk_forward,
                prediction_analysis.seasonality_strength) == before

    def test_short_trace_refused(self, bench_mod, capsys):
        # Fig14 splits 21+7 days; the smoke trace has 7.
        with pytest.raises(SystemExit):
            bench_mod.main(["--scale", "smoke", "--prediction-bench"])
        assert "at least 28 days" in capsys.readouterr().err
