"""Correctness checks run after the timed region of a workload run.

Each check is one operation in the run's ``attempted``/``failed`` count.
They compare the run's own outputs with oracles the program already
ships, so no golden digest is pinned here and the checks stay valid
when a change alters the random draws on purpose:

* ``qoe_reference``: the first sessions of each QoE arm, simulated by
  the vectorized engine on the run's session workload, equal the scalar
  ``simulate_reference``.
* ``live_reference``: ``run_live_engine`` and ``run_reference_engine``
  agree on the run's ``LiveInputs`` cut to the first few ticks.
* ``series_rerender``: one sampled app, re-rendered in-process with
  ``render_series_job``, equals the rows the run streamed to shards.
* ``cache_verify``: a deep ``ArtifactCache.verify()`` finds no problem.
* ``cold_cache``: the run served no phase from the artifact cache.

Report digests are compared by the parent (``run.py``): traced against
untraced, and across runs of the same workload and seed.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

#: Sessions per QoE arm compared with the scalar reference.
QOE_REFERENCE_SESSIONS = 300

#: Live ticks replayed by both steppers.
LIVE_REFERENCE_TICKS = 4


def qoe_reference(study, captured) -> str | None:
    from repro.qoe.sessions import ARMS, METRICS, simulate_chunk, \
        simulate_reference

    workload = captured["session_workload"]
    count = min(QOE_REFERENCE_SESSIONS, workload.n_sessions)
    for arm in ARMS:
        fast = simulate_chunk(workload, 0, count, arm)
        slow = simulate_reference(workload, arm, 0, count)
        for metric in METRICS:
            if not np.array_equal(fast[metric], slow[metric]):
                return f"{arm} {metric} differs from simulate_reference"
    return None


def live_reference(study, captured) -> str | None:
    from repro.live import run_live_engine, run_reference_engine

    inputs = captured["live_inputs"]
    ticks = min(LIVE_REFERENCE_TICKS, inputs.ticks)
    cut = dataclasses.replace(
        inputs, ticks=ticks, arrivals=inputs.arrivals[:ticks],
        transitions=tuple(t for t in inputs.transitions if t[0] < ticks))
    fast = run_live_engine(cut)
    slow = run_reference_engine(cut)
    if fast.digest != slow.digest:
        return f"engine digest {fast.digest} != reference {slow.digest}"
    return None


def series_rerender(study, captured, seed: int) -> str | None:
    from repro.workload.patterns import time_axis_minutes
    from repro.workload.series import job_rng, render_series_job

    recipe, jobs = captured["series_jobs"][0]  # the NEP generation
    job = jobs[np.random.default_rng(seed).integers(len(jobs))]
    scenario = study.scenario
    block = render_series_job(
        job, recipe,
        time_axis_minutes(scenario.trace_days, scenario.cpu_interval_minutes),
        time_axis_minutes(scenario.trace_days, scenario.bw_interval_minutes),
        job_rng(scenario.seed, recipe, job.app_id))
    dataset = study.nep.dataset
    vm_ids = [vm_id for vm_id in dataset.vm_ids()
              if dataset.vms[vm_id].app_id == job.app_id]
    if len(vm_ids) != job.vm_count:
        return f"{job.app_id}: {len(vm_ids)} VMs, job has {job.vm_count}"
    for offset, vm_id in enumerate(vm_ids):
        if not (np.array_equal(block.cpu_rows[offset],
                               dataset.cpu_series[vm_id])
                and np.array_equal(block.bw_rows[offset],
                                   dataset.bw_series[vm_id])):
            return f"{job.app_id}/{vm_id}: streamed rows differ"
    return None


def cache_verify(study, captured) -> str | None:
    report = study.cache.verify(deep=True)
    if report["problems"] or not report["checked"]:
        return f"verify: {report['checked']} checked, " \
               f"problems {report['problems']}"
    return None


def cold_cache(study, captured) -> str | None:
    hits = {name: value for name, value in study.perf.counters.items()
            if name.startswith("cache_hit:") and value}
    return f"warm cache hits {hits}" if hits else None


def run_checks(study, workload, captured, seed: int) -> list[dict]:
    """Every check that applies to ``workload``, as operation records."""
    planned = []
    if "qoe_sessions" in workload.phases:
        planned.append(("qoe_reference", qoe_reference))
    if "live" in workload.phases:
        planned.append(("live_reference", live_reference))
    if workload.streaming == "on" and "nep" in workload.phases:
        planned.append(("series_rerender",
                        lambda s, c: series_rerender(s, c, seed)))
    if workload.cache:
        planned.append(("cache_verify", cache_verify))
        planned.append(("cold_cache", cold_cache))
    ops = []
    for name, check in planned:
        start = time.perf_counter()
        try:
            error = check(study, captured)
        except Exception as exc:  # noqa: BLE001 - a failed check
            error = f"{type(exc).__name__}: {exc}"
        ops.append({"op": f"check:{name}", "ok": error is None,
                    "error": error, "wall_s": time.perf_counter() - start})
    return ops
