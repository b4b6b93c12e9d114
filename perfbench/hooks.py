"""Benchmark-side hooks around the program's public functions.

Two kinds, both installed from the benchmark's own files and before any
worker pool forks, with nothing under ``src/`` changed:

* **Capture hooks** (every run) keep a reference to a few objects the
  correctness checks need afterwards — the QoE session workload, the
  live run's inputs and the series jobs — and add one Python call per
  phase, nothing per item.
* **Trace wrappers** (traced runs only) record a span around each call
  into a layer's public function, at the name its caller looks up.
  A span records its name, start, end and parent span; spans stay in
  memory and are reduced to the per-layer metrics when the run ends.

Worker-side time is not shipped back: the series render comes from the
program's own merged ``series_render`` perf span, and QoE chunks
simulated in workers show up as the parent's ``parallel.wait``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

#: Span-name prefix -> the layer whose self time it counts towards.
LAYER_OF_PREFIX = {
    "platform": "platform",
    "placement": "platform",
    "workload": "workload",
    "parallel": "parallel",
    "sink": "streaming",
    "cache": "streaming",
    "core": "core",
    "measurement": "measurement",
    "prediction": "prediction",
    "billing": "billing",
    "cdn": "cdn",
    "qoe": "qoe",
    "live": "live",
}

#: Journal event types counted as retries.
RETRY_EVENTS = ("job_retry", "worker_restart", "cache_retry", "live_retry")

#: Root spans opened by ``child.py`` itself; their self time is the time
#: no layer span covers.
ROOT_PREFIXES = ("phase.", "report.")


class NullRecorder:
    """The untraced run's recorder: spans cost one ``nullcontext``."""

    def span(self, name: str):
        return nullcontext()

    def stop(self) -> None:
        pass


class Recorder:
    """In-memory span tree plus counters, for one traced run."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]`` per span, in open order.
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._stopped = False

    def stop(self) -> None:
        """End recording: calls after the timed region are not traced."""
        self._stopped = True

    @contextmanager
    def span(self, name: str):
        if self._stopped:
            yield
            return
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0,
                  self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open right now."""
        return any(self.spans[i][0] == name for i in self._stack)

    def count(self, name: str, amount: float = 1) -> None:
        if not self._stopped:
            self.counts[name] += amount

    # ---- reductions --------------------------------------------------

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for span_name, start, end, _ in self.spans
                   if span_name == name)

    def self_times(self) -> list[float]:
        """Each span's duration minus its direct children's."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed per layer; roots count as ``unattributed``."""
        out: dict[str, float] = defaultdict(float)
        for (name, *_), own in zip(self.spans, self.self_times()):
            if name.startswith(ROOT_PREFIXES):
                out["unattributed"] += own
            else:
                out[LAYER_OF_PREFIX[name.split(".", 1)[0]]] += own
        return dict(out)


def _nbytes(value) -> int:
    """Array bytes in a block, a chunk dict or an array."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, dict):
        return sum(_nbytes(v) for v in value.values())
    fields = ("cpu_rows", "bw_rows", "private_rows", "mean_bws")
    return sum(_nbytes(getattr(value, f)) for f in fields
               if getattr(value, f, None) is not None)


def _patch(owner, attr: str, make):
    """Replace ``owner.attr`` with ``make(original)``."""
    setattr(owner, attr, make(getattr(owner, attr)))


# ---- capture hooks (every run) ---------------------------------------------


def install_capture() -> dict:
    """Keep the objects the correctness checks need; returns the store."""
    import repro.live.engine as live_engine
    import repro.parallel as parallel
    import repro.qoe.sessions as sessions

    captured: dict = {"series_jobs": []}

    def keep(key: str):
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                value = original(*args, **kwargs)
                captured[key] = value
                return value
            return wrapper
        return make

    def keep_jobs(original):
        @functools.wraps(original)
        def wrapper(jobs_list, scenario, recipe, *args, **kwargs):
            captured["series_jobs"].append((recipe, list(jobs_list)))
            return original(jobs_list, scenario, recipe, *args, **kwargs)
        return wrapper

    _patch(sessions, "build_session_workload", keep("session_workload"))
    _patch(live_engine, "build_live_inputs", keep("live_inputs"))
    _patch(parallel, "run_series_jobs", keep_jobs)
    return captured


# ---- trace wrappers (traced runs) ------------------------------------------


def install_tracing() -> Recorder:
    """Wrap every layer boundary the workloads cross; returns the recorder."""
    import repro.cdn.model as cdn_model
    import repro.core.chunks as chunks
    import repro.core.workload_analysis as workload_analysis
    import repro.faults.schedule as fault_schedule
    import repro.live.engine as live_engine
    import repro.parallel as parallel
    import repro.platform.cloud as platform_cloud
    import repro.platform.nep as platform_nep
    import repro.qoe.sessions as sessions
    import repro.reports as reports
    import repro.shards as shards
    import repro.study as study
    import repro.workload.azure as azure
    import repro.workload.generator as generator
    from repro.cache import ArtifactCache
    from repro.measurement.campaign import CrowdCampaign
    from repro.platform.placement import PlacementPolicy
    from repro.prediction.holtwinters import HoltWinters
    from repro.prediction.lstm import LSTMForecaster
    from repro.workload.streaming import WorkloadSink

    rec = Recorder()

    def spanned(name: str, after=None):
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with rec.span(name):
                    value = original(*args, **kwargs)
                if after is not None:
                    after(value, *args, **kwargs)
                return value
            return wrapper
        return make

    def iterated(name: str, on_item=None):
        """Time each ``next()`` of a generator function's iterator."""
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                def walk():
                    iterator = original(*args, **kwargs)
                    try:
                        while True:
                            with rec.span(name):
                                try:
                                    item = next(iterator)
                                except StopIteration:
                                    return
                            if on_item is not None:
                                on_item(item, *args, **kwargs)
                            yield item
                    finally:
                        iterator.close()
                return walk()
            return wrapper
        return make

    # repro.platform: topology builds and VM placement.
    def servers_built(platform, *_, **__):
        rec.count("platform.servers",
                  sum(len(site.servers) for site in platform.sites))

    build = spanned("platform.build", servers_built)
    for owner in (generator, platform_nep):
        _patch(owner, "build_nep_platform", build)
    for owner in (azure, study, platform_cloud):
        _patch(owner, "build_cloud_platform", build)

    def placed(vms, _policy, _platform, request, *_, **__):
        rec.count("placement.vms_placed", len(vms))
        rec.count("placement.vms_requested", request.vm_count)

    _patch(PlacementPolicy, "place", spanned("placement.place", placed))

    # repro.workload and repro.parallel: generation, render, handoff.
    for name in ("generate_nep_workload", "generate_azure_workload"):
        _patch(study, name, spanned("workload.generate"))
    _patch(parallel, "render_series_job", spanned("workload.render"))

    def series_block(block, jobs_list, _scenario, _recipe, n_jobs=1,
                     *_, **__):
        points = sum(rows.size for rows in (block.cpu_rows, block.bw_rows,
                                            block.private_rows)
                     if rows is not None)
        rec.count("workload.series_points", points)
        if parallel.resolve_jobs(n_jobs) > 1 and len(jobs_list) > 1:
            rec.count("parallel.handoff_bytes", _nbytes(block))

    _patch(parallel, "run_series_jobs",
           iterated("parallel.wait", series_block))

    def farm_outcome(outcome, farm):
        if farm.n_jobs > 1 and outcome.ok:
            rec.count("parallel.handoff_bytes", _nbytes(outcome.value))

    _patch(parallel.TaskFarm, "next_outcome",
           spanned("parallel.wait", farm_outcome))

    # repro.workload.streaming / repro.shards / repro.cache.
    def consumed(_, _sink, _vm_ids, block):
        rec.count("sink.bytes", _nbytes(block) - _nbytes(block.mean_bws))

    _patch(WorkloadSink, "consume", spanned("sink.write", consumed))
    _patch(WorkloadSink, "finalize", spanned("sink.finalize"))
    _patch(ArtifactCache, "get_workload", spanned("cache.lookup"))

    # repro.core: chunked reads and the analyses behind each report.
    for owner in (chunks, workload_analysis):
        _patch(owner, "iter_series_chunks", iterated("core.chunk_read"))
    for attr, value in list(vars(reports).items()):
        if callable(value) and not isinstance(value, type) and \
                getattr(value, "__module__", "").startswith("repro.core.") \
                and attr not in ("run_prediction_study", "run_cost_study"):
            _patch(reports, attr, spanned(f"core.{attr}"))
    _patch(study, "per_user_latency", spanned("core.per_user_latency"))

    # repro.measurement: the crowd campaign.
    for attr in ("recruit", "run_latency", "run_throughput"):
        _patch(CrowdCampaign, attr, spanned(
            f"measurement.{attr.replace('run_', '')}"))

    # repro.prediction and repro.billing (fig14, table3, findings).
    def fitted(*_, **__):
        rec.count("prediction.models_fit")

    for model, label in ((LSTMForecaster, "lstm"), (HoltWinters, "hw")):
        _patch(model, "fit", spanned(f"prediction.{label}_fit", fitted))
        _patch(model, "walk_forward",
               spanned(f"prediction.{label}_walk_forward"))
    _patch(reports, "run_prediction_study", spanned("prediction.study"))
    _patch(reports, "run_cost_study", spanned("billing.cost_study"))

    # repro.cdn: the per-site Che solve and the path latencies.
    def solved(_, alphas, catalog, *__, **___):
        rec.count("cdn.site_objects", np.asarray(alphas).size * catalog)

    _patch(cdn_model, "lru_hit_ratio_curve",
           spanned("cdn.hit_ratio_solve", solved))
    latencies = vars(cdn_model.CdnModel)["latencies"]
    traced_latencies = functools.cached_property(
        spanned("cdn.latencies")(latencies.func))
    traced_latencies.__set_name__(cdn_model.CdnModel, "latencies")
    cdn_model.CdnModel.latencies = traced_latencies

    # repro.qoe: the session engine, the parent's fold and the spill.
    _patch(study, "run_qoe_sessions", spanned("qoe.run"))
    _patch(sessions, "run_sessions", spanned("qoe.arm"))

    _patch(sessions, "simulate_chunk", spanned("qoe.engine"))

    def folded(*_, **__):
        rec.count("qoe.chunks")

    _patch(sessions.SessionDigest, "update", spanned("qoe.fold", folded))

    def in_arm(name: str, on_call=None):
        """A span only inside ``qoe.arm``; a plain call elsewhere."""
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not rec.inside("qoe.arm"):
                    return original(*args, **kwargs)
                if on_call is not None:
                    on_call(*args, **kwargs)
                with rec.span(name):
                    return original(*args, **kwargs)
            return wrapper
        return make

    def spilled(_writer, rows):
        rec.count("qoe.spill_bytes", np.asarray(rows).nbytes)

    _patch(sessions.StreamingHistogram, "add", in_arm("qoe.fold"))
    _patch(shards.ShardWriter, "append", in_arm("qoe.spill", spilled))

    # repro.live: fault weather, input precompute, the tick loop.
    _patch(study, "run_live", spanned("live.run"))
    _patch(fault_schedule, "build_fault_schedule",
           spanned("live.fault_schedule"))
    _patch(live_engine, "build_live_inputs", spanned("live.inputs"))
    _patch(live_engine, "run_live_engine", spanned("live.tick_loop"))
    return rec


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(rec: Recorder, study, captured: dict,
                  region: tuple[float, float]) -> dict[str, float]:
    """Reduce the span tree and counters to the per-layer metrics.

    Retry counts come from the run's in-memory journal.
    """
    counts = rec.counts
    retries = {etype: 0 for etype in RETRY_EVENTS}
    for event in study.journal.events:
        if event["type"] in retries:
            retries[event["type"]] += 1
    begin, end = region
    wall = end - begin
    covered = _union_length([
        (max(start, begin), min(stop, end))
        for name, start, stop, _ in rec.spans
        if not name.startswith(ROOT_PREFIXES) and stop > begin
        and start < end])
    requested = counts["placement.vms_requested"]
    live_inputs = captured.get("live_inputs")
    live = study.__dict__.get("live")
    latency = study.__dict__.get("latency_results")
    qoe = study.__dict__.get("qoe_sessions")
    arrivals = int(live.series["arrivals"].sum()) if live else 0
    lost = len(latency.failures) if latency else 0
    probes = lost + (len(latency.latency) if latency else 0)
    throughput = study.__dict__.get("throughput_results")
    prediction_billing = (rec.total("prediction.study")
                          + rec.total("billing.cost_study"))
    reports_s = sum(stop - start for name, start, stop, _ in rec.spans
                    if name.startswith("report."))
    metrics = {
        "platform.build_s": rec.total("platform.build"),
        "platform.servers": counts["platform.servers"],
        "placement.place_s": rec.total("placement.place"),
        "placement.vms_placed": counts["placement.vms_placed"],
        "placement.placed_share": (counts["placement.vms_placed"]
                                   / requested if requested else 0.0),
        "workload.series_render_s": study.perf.wall_s("series_render"),
        "workload.series_points": counts["workload.series_points"],
        "workload.series_bytes": counts["workload.series_points"] * 4,
        "parallel.wait_s": rec.total("parallel.wait"),
        "parallel.handoff_bytes": counts["parallel.handoff_bytes"],
        "parallel.retries": retries["job_retry"],
        "parallel.worker_restarts": retries["worker_restart"],
        "sink.write_s": rec.total("sink.write"),
        "sink.finalize_s": rec.total("sink.finalize"),
        "sink.bytes": counts["sink.bytes"],
        "cache.retries": retries["cache_retry"],
        "core.chunk_read_s": rec.total("core.chunk_read"),
        "core.analysis_s": reports_s - prediction_billing,
        "measurement.latency_s": rec.total("measurement.latency"),
        "measurement.throughput_s": rec.total("measurement.throughput"),
        "measurement.observations": (
            (len(latency.latency) if latency else 0)
            + (len(throughput.throughput) if throughput else 0)),
        "measurement.probes_lost_share": lost / probes if probes else 0.0,
        "prediction.lstm_fit_s": rec.total("prediction.lstm_fit"),
        "prediction.lstm_walk_forward_s":
            rec.total("prediction.lstm_walk_forward"),
        "prediction.hw_fit_s": rec.total("prediction.hw_fit"),
        "prediction.hw_walk_forward_s":
            rec.total("prediction.hw_walk_forward"),
        "prediction.models_fit": counts["prediction.models_fit"],
        "billing.cost_study_s": rec.total("billing.cost_study"),
        "cdn.hit_ratio_solve_s": rec.total("cdn.hit_ratio_solve"),
        "cdn.site_objects": counts["cdn.site_objects"],
        "cdn.latencies_s": rec.total("cdn.latencies"),
        "qoe.engine_s": rec.total("qoe.engine"),
        "qoe.fold_s": rec.total("qoe.fold"),
        "qoe.sessions": (qoe.sessions * len(qoe.arms)) if qoe else 0,
        "qoe.chunks": counts["qoe.chunks"],
        "qoe.spill_bytes": counts["qoe.spill_bytes"],
        "live.fault_schedule_s": rec.total("live.fault_schedule"),
        "live.inputs_s": rec.total("live.inputs"),
        "live.tick_loop_s": rec.total("live.tick_loop"),
        "live.server_ticks": (live_inputs.n_servers * live_inputs.ticks
                              if live_inputs is not None else 0),
        "live.rejected_share": (int(live.series["rejected"].sum())
                                / arrivals if arrivals else 0.0),
        "live.retries": retries["live_retry"],
        "trace.unattributed_share": (wall - covered) / wall,
    }
    self_s = rec.layer_self_s()
    for layer in set(LAYER_OF_PREFIX.values()) | {"unattributed"}:
        metrics[f"self.{layer}_s"] = self_s.get(layer, 0.0)
    return {name: float(value) for name, value in metrics.items()}
