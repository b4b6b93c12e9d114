"""High-level facade: one object that runs the whole study lazily.

:class:`EdgeStudy` wires the substrates together the way the paper's
authors did — build NEP and the clouds, recruit the panel, run the
campaigns, generate the workload traces — and caches each piece so
examples and benchmarks can share one simulation instead of regenerating
it per figure.

The expensive steps are a table: :data:`PHASES` declares each phase once
(its name, cache kind, prerequisites and counter) and one runner,
:meth:`EdgeStudy._run`, gives every phase the same treatment — a cache
lookup, a :class:`~repro.perf.PerfRegistry` span for timings, a
:class:`~repro.phases.PhaseLedger` entry for the outcome, a cache store
and a counter.  A phase that raises is recorded as failed in the ledger,
is not cached, and the exception propagates; :meth:`EdgeStudy.try_phase`
gives callers the graceful-degradation variant (``None`` on failure,
other phases still runnable).
"""

from __future__ import annotations

import contextlib
import tempfile
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

from .billing.cloud import alicloud_billing, huawei_billing
from .billing.nep import CityPriceBook, NepBilling
from .cache import ArtifactCache
from .config import DEFAULT_SCENARIO, Scenario
from .core.availability_analysis import run_availability_study
from .core.cost_analysis import cloud_regions_from_platform
from .core.latency_analysis import PerUserLatency, per_user_latency
from .errors import ConfigurationError, ReproError
from .faults.failover import simulate_failover
from .faults.schedule import FaultSchedule, build_fault_schedule
from .live import run_live
from .measurement.campaign import CrowdCampaign, Participant
from .measurement.qoe.testbed import QoETestbed
from .obs import RunJournal
from .parallel import resolve_jobs
from .perf import PerfRegistry
from .phases import PhaseLedger
from .platform.cloud import build_cloud_platform
from .qoe import run_qoe_sessions
from .workload.azure import generate_azure_workload
from .workload.generator import generate_nep_workload
from .workload.streaming import WorkloadSink, resolve_streaming


@dataclass(frozen=True)
class Phase:
    """One expensive study phase, declared once and run by one runner.

    Builders receive the study and look every library function up as a
    module global at call time, so patching ``repro.study.<function>``
    (as profilers do) reaches the phase.
    """

    #: The :class:`EdgeStudy` attribute that serves the phase's value.
    attr: str
    #: Shared by the perf span, the ledger entry and the cache artifact.
    name: str
    #: ``build(study)``; a workload phase's builder also takes the
    #: :class:`~repro.workload.streaming.WorkloadSink` (or ``None``).
    build: Callable[..., object]
    #: Artifact-cache kind: ``"workload"`` (looked up inside the span,
    #: series memory-mapped), ``"object"`` (peeked before the span, so a
    #: warm run never builds the prerequisites) or ``None`` (never cached).
    cache: str | None = None
    #: Attributes resolved before the span opens unless the cache peek
    #: hit, so the span times the phase's own work only.
    needs: tuple[str, ...] = ()
    #: ``(counter, amount(value))`` bumped once the phase succeeded.
    counter: tuple[str, Callable[[object], int]] | None = None
    #: When false for the scenario, the phase is ``None`` and untracked.
    enabled: Callable[[Scenario], bool] | None = None
    #: Journal ``value.summary()`` as an event named after the phase.
    summary_event: bool = False
    #: Docstring of the attribute.
    doc: str = ""


def _require_faults(study: "EdgeStudy") -> FaultSchedule:
    faults = study.faults
    if faults is None:
        raise ConfigurationError(
            "fault injection is off; rerun with --faults paper or "
            "harsh (Scenario.fault_profile)"
        )
    return faults


def _build_failover(study: "EdgeStudy"):
    faults = _require_faults(study)
    return simulate_failover(study.nep.platform, faults)


def _build_availability(study: "EdgeStudy"):
    faults = _require_faults(study)
    return run_availability_study(faults, study.latency_results,
                                  study.throughput_results, study.failover)


def _build_qoe_sessions(study: "EdgeStudy"):
    # Streaming spills per-session rows to a throwaway shard directory.
    spill = (tempfile.TemporaryDirectory(prefix="repro-qoe-spill-")
             if study.streaming else contextlib.nullcontext())
    with spill as spill_root:
        return run_qoe_sessions(study.scenario, jobs=study.jobs,
                                journal=study.journal, spill_root=spill_root)


#: Every expensive phase, in the study's natural execution order.
PHASES: tuple[Phase, ...] = (
    Phase(
        "nep", "workload_nep", cache="workload",
        build=lambda study, sink: generate_nep_workload(
            study.scenario, jobs=study.jobs, perf=study.perf, sink=sink),
        counter=("nep_vms", lambda workload: len(workload.platform.vms)),
        doc="The NEP platform with placed VMs and its 3-month-style trace."),
    Phase(
        "azure", "workload_azure", cache="workload",
        build=lambda study, sink: generate_azure_workload(
            study.scenario, jobs=study.jobs, perf=study.perf, sink=sink),
        counter=("azure_vms", lambda workload: len(workload.platform.vms)),
        doc="The Azure-like cloud comparison dataset."),
    Phase(
        "alicloud", "platform_alicloud",
        build=lambda study: build_cloud_platform(
            study.scenario, name="AliCloud", servers_per_region=4),
        doc="The AliCloud-like performance baseline (a minimal fleet: "
            "only its region locations matter)."),
    Phase(
        "faults", "fault_schedule",
        build=lambda study: build_fault_schedule(
            study.scenario, study.nep.platform, study.alicloud),
        enabled=lambda scenario: scenario.fault_profile != "off",
        summary_event=True,
        doc="The run's deterministic fault weather; ``None`` when off."),
    Phase(
        "failover", "failover", build=_build_failover,
        doc="Server crashes replayed through evacuation/live migration.\n\n"
            "Raises:\n    ConfigurationError: when fault injection is off."),
    Phase(
        "availability", "availability", build=_build_availability,
        doc="The availability/SLO analysis of this run's fault weather.\n\n"
            "Raises:\n    ConfigurationError: when fault injection is off."),
    Phase(
        "latency_results", "campaign_latency", cache="object",
        build=lambda study: study.campaign.run_latency(study.participants),
        needs=("campaign", "participants"),
        counter=("latency_observations",
                 lambda results: len(results.latency)),
        doc="The crowd campaign's latency probes (Figures 2-4, Table 2)."),
    Phase(
        "throughput_results", "campaign_throughput", cache="object",
        build=lambda study: study.campaign.run_throughput(
            study.participants),
        needs=("campaign", "participants"),
        counter=("throughput_observations",
                 lambda results: len(results.throughput)),
        doc="The crowd campaign's throughput probes (Figures 5-6)."),
    Phase(
        "qoe_sessions", "qoe_sessions", cache="object",
        build=_build_qoe_sessions,
        counter=("qoe_sessions_simulated",
                 lambda result: result.sessions * len(result.arms)),
        doc="Edge-vs-cloud session QoE distributions (beyond Figure 7)."),
    Phase(
        "live", "live", cache="object",
        build=lambda study: run_live(study.scenario, jobs=study.jobs,
                                     journal=study.journal),
        counter=("live_ticks", lambda result: result.ticks),
        doc="Event-driven live-platform run (beyond the paper; "
            "repro.live)."),
)

#: Phases whose results land in the artifact cache and can therefore be
#: skipped by a resumed run, in execution order.
RESUMABLE_PHASES = tuple(phase.name for phase in PHASES if phase.cache)


class EdgeStudy:
    """Lazily-computed bundle of every dataset the paper's figures need.

    Each phase of :data:`PHASES` is an attribute computed on first
    access and cached on the instance.  It runs inside a
    :class:`~repro.perf.PerfRegistry` span, so ``study.perf.report()``
    (or the CLI's ``--perf`` flag) shows where a run spent its time;
    ``study.phases.report()`` shows which phases ran and whether they
    failed.

    ``resume=True`` declares that this run continues an earlier (killed
    or crashed) run of the same scenario: it requires an artifact cache
    — the medium resume works through, since every committed phase is a
    cache entry published atomically — and journals a ``resume`` event
    listing which phases will replay from cache and which still have to
    run.  Resume never changes results; cached phases are bit-identical
    to regenerated ones, so a resumed journal canonicalizes equal to a
    clean one.
    """

    def __init__(self, scenario: Scenario = DEFAULT_SCENARIO,
                 jobs: int = 1, cache: ArtifactCache | None = None,
                 journal: RunJournal | None = None,
                 streaming: str = "auto", resume: bool = False) -> None:
        self.scenario = scenario
        #: Worker processes for workload generation (0 was "all cores").
        self.jobs = resolve_jobs(jobs)
        #: Optional persistent artifact cache; ``None`` = always generate.
        self.cache = cache
        #: Optional run journal; every layer below reports through it.
        self.journal = journal
        #: Whether workload series stream to sharded disk storage instead
        #: of living in-process.  ``"auto"`` switches on when the in-core
        #: series would exceed half the available memory; an execution
        #: knob only — results are bit-identical.
        self.streaming = resolve_streaming(streaming, scenario)
        #: Whether this run continues an interrupted one via the cache.
        self.resume = resume
        if resume and cache is None:
            raise ConfigurationError(
                "resume needs an artifact cache (committed phases are "
                "cache entries); drop --no-cache or pass cache_dir")
        self.perf = PerfRegistry(journal=journal)
        self.phases = PhaseLedger(journal=journal)
        if journal is not None:
            if cache is not None:
                cache.journal = journal
            journal.run_start(scenario, jobs=self.jobs,
                              cache=cache is not None)
            if resume:
                status = self.resume_status()
                journal.emit("resume", cached=status["cached"],
                             pending=status["pending"])

    def resume_status(self) -> dict[str, list[str]]:
        """Which resumable phases are already committed in the cache.

        Returns ``{"cached": [...], "pending": [...]}`` over
        :data:`RESUMABLE_PHASES` — a pure peek at entry metadata, with
        no loading, no events, and no side effects on the cache.

        Raises:
            ConfigurationError: when the study has no artifact cache.
        """
        if self.cache is None:
            raise ConfigurationError(
                "resume status needs an artifact cache")
        cached = [name for name in RESUMABLE_PHASES
                  if self.cache.has(name, self.scenario)]
        pending = [name for name in RESUMABLE_PHASES if name not in cached]
        return {"cached": cached, "pending": pending}

    # ---- the phase runner ------------------------------------------------

    def _cache_get(self, phase: Phase):
        """The phase's cached value (bumping ``cache_hit:<name>``), or None."""
        get = (self.cache.get_workload if phase.cache == "workload"
               else self.cache.get_object)
        value = get(phase.name, self.scenario)
        if value is not None:
            self.perf.count(f"cache_hit:{phase.name}")
        return value

    def _build(self, phase: Phase):
        """Build the phase's value and store it in the cache, if any.

        With :attr:`streaming` on, a workload phase's rendered series
        rows flow through a :class:`~repro.workload.streaming.WorkloadSink`
        into sharded on-disk storage as they are produced — directly into
        the cache entry when a cache is configured (no separate store
        step), or into a self-cleaning spill directory otherwise.  Either
        way the returned dataset serves its series from memory maps and
        the parent's working set stays bounded.
        """
        sink = None
        if phase.cache == "workload" and self.streaming:
            sink = (WorkloadSink.for_cache(self.cache, phase.name,
                                           self.scenario)
                    if self.cache is not None
                    else WorkloadSink.spill(journal=self.journal))
        try:
            value = (phase.build(self, sink) if phase.cache == "workload"
                     else phase.build(self))
        except BaseException:
            # The generators abort the sink on mid-stream failures, but an
            # exception *before* the series stage (platform build,
            # placement) would otherwise leave the spill or staging dir
            # behind until interpreter exit.  abort() is idempotent.
            if sink is not None:
                sink.abort()
            raise
        if phase.cache and self.cache is not None and sink is None:
            put = (self.cache.put_workload if phase.cache == "workload"
                   else self.cache.put_object)
            with self.perf.span(f"cache_store:{phase.name}"):
                put(phase.name, self.scenario, value)
        return value

    def _run(self, phase: Phase):
        """Compute one phase: cache, span, ledger, store, counter."""
        if phase.enabled is not None and not phase.enabled(self.scenario):
            return None
        cached = None
        if phase.cache == "object" and self.cache is not None:
            cached = self._cache_get(phase)
        if cached is None:
            for attr in phase.needs:
                getattr(self, attr)
        with self.perf.span(phase.name), self.phases.track(phase.name):
            if phase.cache == "workload" and self.cache is not None:
                cached = self._cache_get(phase)
            value = cached if cached is not None else self._build(phase)
        if phase.counter is not None:
            counter, amount = phase.counter
            self.perf.count(counter, amount(value))
        if phase.summary_event and self.journal is not None \
                and value is not None:
            self.journal.emit(phase.name, **value.summary())
        return value

    def try_phase(self, name: str):
        """Compute phase ``name``, degrading gracefully on failure.

        Returns the phase value, or ``None`` when it raised a
        :class:`~repro.errors.ReproError` — in which case the failure
        (type and message) is recorded in :attr:`phases` and every other
        phase remains computable.
        """
        try:
            return getattr(self, name)
        except ReproError:
            return None

    # ---- campaign panel ----------------------------------------------------

    @cached_property
    def campaign(self) -> CrowdCampaign:
        return CrowdCampaign(self.scenario, self.nep.platform, self.alicloud,
                             faults=self.faults, journal=self.journal)

    @cached_property
    def participants(self) -> list[Participant]:
        return self.campaign.recruit()

    @cached_property
    def per_user(self) -> list[PerUserLatency]:
        """Per-user latency aggregates feeding Figures 2/3 and Table 2."""
        return per_user_latency(self.latency_results.latency)

    # ---- QoE testbed ---------------------------------------------------------

    @cached_property
    def qoe_testbed(self) -> QoETestbed:
        return QoETestbed(self.scenario.random.stream("qoe-testbed"))

    # ---- billing ---------------------------------------------------------------

    @cached_property
    def nep_billing(self) -> NepBilling:
        book = CityPriceBook(self.scenario.random.stream("city-prices"))
        return NepBilling(book)

    @cached_property
    def vcloud1(self):
        """AliCloud-priced virtual baseline (billing engine)."""
        return alicloud_billing()

    @cached_property
    def vcloud2(self):
        """Huawei-priced virtual baseline (billing engine)."""
        return huawei_billing()

    @cached_property
    def vcloud_regions(self):
        """Billing regions of the virtual clouds (AliCloud's geography)."""
        return cloud_regions_from_platform(self.alicloud)


def _phase_attribute(phase: Phase) -> cached_property:
    def compute(study: EdgeStudy):
        return study._run(phase)

    compute.__name__ = compute.__qualname__ = phase.attr
    compute.__doc__ = phase.doc
    attribute = cached_property(compute)
    attribute.__set_name__(EdgeStudy, phase.attr)
    return attribute


for _phase in PHASES:
    setattr(EdgeStudy, _phase.attr, _phase_attribute(_phase))
del _phase


#: The scenario constructor behind each named scale.
_SCALE_SCENARIOS: dict[str, Callable[[], Scenario]] = {
    "smoke": Scenario.smoke_scale,
    "default": Scenario,
    "paper": Scenario.paper_scale,
    "city": Scenario.city_scale,
}

#: Scale names accepted by :func:`study_for` and the CLI's ``--scale``.
SCALES = tuple(_SCALE_SCENARIOS)


def scenario_for(scale: str, seed: int | None = None,
                 faults: str | None = None,
                 overrides: dict[str, object] | None = None) -> Scenario:
    """The scenario behind a named scale (see :data:`SCALES`).

    ``faults`` overrides the fault-injection profile (``"off"``,
    ``"paper"``, ``"harsh"``); ``None`` keeps the scale's default.
    ``overrides`` replaces arbitrary scenario fields on top of the
    scale's values — the hook sweep cells use for per-cell knobs.

    Raises:
        ConfigurationError: for an unknown scale, fault profile or
            override.
    """
    if scale not in _SCALE_SCENARIOS:
        raise ConfigurationError(
            f"unknown scale {scale!r}, expected one of {SCALES}")
    scenario = _SCALE_SCENARIOS[scale]().with_overrides(
        seed=DEFAULT_SCENARIO.seed if seed is None else seed)
    if faults is not None:
        scenario = scenario.with_overrides(fault_profile=faults)
    if overrides:
        try:
            scenario = scenario.with_overrides(**overrides)
        except TypeError as exc:
            raise ConfigurationError(
                f"unknown scenario override: {exc}") from exc
    return scenario


@lru_cache(maxsize=8)
def _study_for(scale: str, seed: int, faults: str, jobs: int,
               cache_dir: str | None, streaming: str) -> EdgeStudy:
    cache = ArtifactCache(cache_dir) if cache_dir is not None else None
    return EdgeStudy(scenario_for(scale, seed, faults), jobs=jobs,
                     cache=cache, streaming=streaming)


def study_for(scale: str, seed: int | None = None,
              faults: str | None = None, jobs: int = 1,
              cache_dir: str | None = None,
              streaming: str = "auto") -> EdgeStudy:
    """The shared study for a named scale, cached per argument tuple.

    ``jobs`` is the worker-process count for workload generation,
    ``cache_dir`` the root of the persistent artifact cache (``None``
    disables caching), and ``streaming`` the out-of-core workload mode
    (``"auto"``/``"on"``/``"off"``) — all execution knobs, so two calls
    differing only there still share scenario *results* bit-for-bit.

    Raises:
        ConfigurationError: for an unknown scale or fault profile.
    """
    return _study_for(scale,
                      seed if seed is not None else DEFAULT_SCENARIO.seed,
                      "off" if faults is None else faults,
                      resolve_jobs(jobs), cache_dir, streaming)


def default_study(seed: int | None = None) -> EdgeStudy:
    """The shared full-scale study (cached per seed)."""
    return study_for("default", seed)


def smoke_study(seed: int | None = None) -> EdgeStudy:
    """The shared reduced-scale study for tests (cached per seed)."""
    return study_for("smoke", seed)
