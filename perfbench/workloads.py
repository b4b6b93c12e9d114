"""The benchmark's workload definitions.

A workload names a scale, a set of scenario overrides, the execution
knobs (jobs, streaming, artifact cache, fault profile), the study phases
to build in their fixed order, and the reports to render afterwards.
The program only ever receives the :class:`repro.config.Scenario` built
from these fields and the run's seed; everything else here is how the
benchmark drives and checks it.

Why each workload exists is written down in ``NOTES.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Phase order: generation first, then campaigns, QoE and live, so each
#: phase metric is free of the others (later phases reuse earlier ones).
PHASE_ORDER = ("nep", "azure", "latency_results", "throughput_results",
               "qoe_sessions", "live")

#: ``EdgeStudy`` property -> the phase group it is reported under.
PHASE_GROUP = {
    "nep": "workload",
    "azure": "workload",
    "latency_results": "campaign",
    "throughput_results": "campaign",
    "qoe_sessions": "qoe_sessions",
    "live": "live",
}

#: Every paper report, Table 1 through the findings summary.
PAPER_REPORTS = ("table1", "fig2a", "fig2b", "table2", "fig3", "fig4",
                 "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
                 "fig12", "fig13", "fig14", "table3", "table6", "sales",
                 "categories", "findings")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a scenario plus how the study runs it."""

    name: str
    scale: str
    overrides: dict = field(default_factory=dict)
    faults: str = "off"
    jobs: int = 1
    streaming: str = "auto"
    #: Whether the run gets a fresh artifact cache (deleted afterwards).
    cache: bool = False
    phases: tuple[str, ...] = ()
    reports: tuple[str, ...] = ()

    def scenario(self, seed: int):
        """The :class:`~repro.config.Scenario` this workload runs."""
        from repro.study import scenario_for

        return scenario_for(self.scale, seed, self.faults,
                            overrides=dict(self.overrides))


WORKLOADS = {
    workload.name: workload for workload in (
        Workload(
            name="paper_default",
            scale="default",
            overrides={"qoe_session_count": 200_000},
            jobs=1,
            phases=PHASE_ORDER,
            reports=PAPER_REPORTS + ("qoe-sessions", "live"),
        ),
        Workload(
            name="paper_axis_stream",
            scale="paper",
            overrides={"nep_vm_count": 600, "azure_vm_count": 600},
            jobs=2,
            streaming="on",
            cache=True,
            phases=("nep", "azure"),
            reports=("fig8", "fig9", "fig10", "fig11", "fig12", "fig13"),
        ),
        Workload(
            name="city_edge",
            scale="city",
            overrides={"qoe_session_count": 200_000, "live_ticks": 180},
            faults="paper",
            jobs=2,
            phases=("qoe_sessions", "live"),
            reports=("qoe-sessions", "live"),
        ),
    )
}
