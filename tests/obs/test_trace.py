"""Tests for the journal reader and renderers (repro.obs.trace)."""

from __future__ import annotations

import json

from repro.obs import (
    RunJournal,
    diff_journals,
    phase_breakdown,
    read_journal,
    render_show,
    render_summary,
    summarize_journal,
)
from repro.config import Scenario


def sample_events(*, cached: bool = False,
                  wall: float = 1.0) -> list[dict]:
    """A hand-built but schema-faithful journal for renderer tests."""
    journal = RunJournal(None)
    journal.run_start(Scenario.smoke_scale(), jobs=1, cache=True)
    if cached:
        journal.emit("cache_hit", artifact="workload_nep", kind="workload",
                     key="k" * 64)
    else:
        journal.emit("cache_miss", artifact="workload_nep", key="k" * 64)
    journal.emit("span_begin", span="workload_nep")
    journal.emit("phase_begin", phase="workload_nep")
    journal.emit("job_dispatch", app_id="app-1", vm_count=3)
    journal.emit("job_complete", app_id="app-1", vms=3, wall_s=wall / 2)
    if not cached:
        journal.emit("cache_store", artifact="workload_nep",
                     kind="workload", key="k" * 64, bytes=1234)
    journal.emit("phase_end", phase="workload_nep", status="ok",
                 wall_s=wall)
    journal.emit("span_end", span="workload_nep", wall_s=wall,
                 cpu_s=wall / 2)
    journal.emit("fault_schedule", profile="paper", outages=3,
                 server_crashes=1, episodes=2, mttr_minutes=90.0)
    journal.emit("probe_stats", probe="ping", probes=10, attempts=12,
                 timed_out=2, recovered=1, unreachable=1)
    journal.close(counters={"nep_vms": 3})
    return journal.events


def write_journal(path, events) -> None:
    path.write_text("".join(json.dumps(e) + "\n" for e in events))


class TestReadJournal:
    def test_round_trip(self, tmp_path):
        events = sample_events()
        target = tmp_path / "run.jsonl"
        write_journal(target, events)
        loaded, warnings = read_journal(target)
        assert loaded == events
        assert warnings == []

    def test_corrupt_middle_line_skipped_with_warning(self, tmp_path):
        events = sample_events()
        lines = [json.dumps(e) for e in events]
        lines.insert(2, "{this is not json")
        target = tmp_path / "run.jsonl"
        target.write_text("\n".join(lines) + "\n")
        loaded, warnings = read_journal(target)
        assert loaded == events
        assert any("corrupt" in w for w in warnings)

    def test_truncated_final_line_reported_as_truncation(self, tmp_path):
        events = sample_events()
        text = "".join(json.dumps(e) + "\n" for e in events[:-1])
        text += json.dumps(events[-1])[:20]  # killed mid-write
        target = tmp_path / "run.jsonl"
        target.write_text(text)
        loaded, warnings = read_journal(target)
        assert loaded == events[:-1]
        assert any("truncated" in w for w in warnings)
        assert any("run_end" in w for w in warnings)

    def test_missing_run_end_warned(self, tmp_path):
        events = sample_events()[:-1]
        target = tmp_path / "run.jsonl"
        write_journal(target, events)
        _, warnings = read_journal(target)
        assert any("run_end" in w for w in warnings)


class TestPhaseBreakdown:
    def test_merges_phase_span_and_cache(self):
        phases = phase_breakdown(sample_events())
        entry = phases["workload_nep"]
        assert entry["status"] == "ok"
        assert entry["wall_s"] == 1.0
        assert entry["cpu_s"] == 0.5
        assert entry["cached"] is False

    def test_cache_hit_marks_phase_cached(self):
        phases = phase_breakdown(sample_events(cached=True))
        assert phases["workload_nep"]["cached"] is True


class TestSummarize:
    def test_summary_fields(self):
        summary = summarize_journal(sample_events())
        assert summary.status == "ok"
        assert summary.run["seed"] == Scenario.smoke_scale().seed
        assert "workload_nep" in summary.phases
        assert summary.pool == {"dispatched": 1, "completed": 1, "vms": 3}
        assert summary.faults["profile"] == "paper"
        assert summary.probe_stats["ping"]["timed_out"] == 2
        assert summary.event_counts["phase_end"] == 1


class TestRenderers:
    def test_render_summary_accounts_for_everything(self):
        text = render_summary(sample_events())
        assert "status=ok" in text
        assert "workload_nep" in text
        assert "cache:" in text and "1 misses" in text
        assert "pool: 1 jobs dispatched, 1 completed" in text
        assert "faults: profile=paper" in text
        assert "probes[ping]" in text
        assert "nep_vms=3" in text

    def test_render_show_one_line_per_event(self):
        events = sample_events()
        lines = render_show(events).splitlines()
        assert len(lines) == len(events)
        assert "run_start" in lines[0]
        assert "run_end" in lines[-1]

    def test_render_show_limit_keeps_tail(self):
        events = sample_events()
        lines = render_show(events, limit=3).splitlines()
        assert len(lines) == 4  # elision marker + 3 events
        assert "elided" in lines[0]
        assert "run_end" in lines[-1]

    def test_render_summary_with_no_events(self):
        # Tolerant renderer: an empty journal yields a zeroed summary,
        # not a crash.
        text = render_summary([])
        assert "status=unknown" in text
        assert "0 total" in text

    def test_diff_shows_cache_transition(self):
        cold = sample_events(wall=1.0)
        warm = sample_events(cached=True, wall=0.1)
        text = diff_journals(cold, warm, "cold", "warm")
        assert "cold -> warm" in text
        assert "generated -> hit" in text
        assert "workload_nep" in text

    def test_diff_identical_runs(self):
        events = sample_events()
        text = diff_journals(events, events, "a", "b")
        assert "a -> b" in text

    def test_code_version_change_is_not_behavioural(self):
        # code_version is provenance: two builds whose runs behave alike
        # differ in it, and the diff names it without counting it.
        events = sample_events()
        rebuilt = [dict(event) for event in events]
        assert rebuilt[0]["type"] == "run_start"
        rebuilt[0]["code_version"] = "f" * 16
        text = diff_journals(events, rebuilt, "a", "b")
        assert (f"code_version: {events[0]['code_version']} -> "
                f"{'f' * 16}") in text
        assert text.endswith("result: no behavioural differences")

    def test_canonical_diff_keeps_phase_timings(self):
        # Canonical events carry no wall_s; the deltas come from the raw
        # journals while the structural verdict stays canonical.
        text = diff_journals(sample_events(wall=1.0),
                             sample_events(wall=3.0), "a", "b",
                             canonical=True)
        assert "workload_nep           +2.000s (3.00x)" in text
        assert "n/a" not in text
        assert text.endswith("result: no behavioural differences")

    def test_cli_diff_prints_phase_timings(self, tmp_path, capsys):
        from repro.cli import main

        fast, slow = tmp_path / "fast.jsonl", tmp_path / "slow.jsonl"
        write_journal(fast, sample_events(wall=1.0))
        write_journal(slow, sample_events(wall=1.5))
        assert main(["trace", "diff", str(fast), str(slow)]) == 0
        out = capsys.readouterr().out
        assert "workload_nep           +0.500s (1.50x)" in out
        assert "n/a" not in out
        assert "result: no behavioural differences" in out

    def test_seed_change_is_behavioural(self):
        events = sample_events()
        reseeded = [dict(event) for event in events]
        reseeded[0]["seed"] = events[0]["seed"] + 1
        text = diff_journals(events, reseeded, "a", "b")
        assert text.endswith("result: behavioural differences found")
