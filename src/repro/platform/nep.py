"""Builder for the NEP edge platform topology.

Reproduces the structure §2 describes: hundreds of sites across China
(two orders of magnitude more than a cloud provider's regions in one
country), each constrained by space and electricity to tens — at most a
couple hundred — servers.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from ..config import Scenario
from ..geo.topology import place_edge_sites
from .cluster import Platform
from .entities import PlatformKind, ResourceVector, Server, Site

#: Edge server SKUs (cores, memory GB, disk GB) with sampling weights.
#: Edge racks standardise on a few mid-size SKUs rather than cloud-scale
#: big iron.
EDGE_SERVER_SKUS: tuple[tuple[ResourceVector, float], ...] = (
    (ResourceVector(32, 128, 4_000), 0.35),
    (ResourceVector(48, 192, 8_000), 0.35),
    (ResourceVector(64, 256, 8_000), 0.20),
    (ResourceVector(96, 384, 16_000), 0.10),
)


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Hold off the cyclic garbage collector for a bulk build.

    A city fleet is ~290k servers, each a few acyclic objects.  With the
    collector running, the build pays for repeated passes over the whole
    heap — about half its time at city scale, more when earlier phases
    left a large heap — and finds nothing to free.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def build_nep_platform(scenario: Scenario,
                       rng: np.random.Generator | None = None,
                       name: str = "NEP") -> Platform:
    """Construct an empty (no VMs yet) NEP platform for a scenario.

    Site count, per-site server ranges, and gateway bandwidths come from
    the scenario; site locations are population-weighted over the China
    gazetteer with per-metro jitter.
    """
    rng = rng if rng is not None else scenario.random.stream("nep-topology")
    placements = place_edge_sites(scenario.nep_site_count, rng)
    platform = Platform(name=name, kind=PlatformKind.EDGE)

    skus = [sku for sku, _ in EDGE_SERVER_SKUS]
    weights = np.array([w for _, w in EDGE_SERVER_SKUS])
    weights = weights / weights.sum()

    for index, placed in enumerate(placements):
        site_id = f"nep-s{index:04d}"
        # Server counts skew small: most sites are cabinets in ISP rooms,
        # a few metro hubs run larger rooms ("tens or hundreds", §2).
        low = scenario.nep_servers_per_site_min
        high = scenario.nep_servers_per_site_max
        span = high - low
        server_count = low + int(round(span * float(rng.beta(1.4, 3.5))))
        site = Site(
            site_id=site_id,
            name=f"{placed.city.name}-{index:04d}",
            city=placed.city.name,
            province=placed.province,
            location=placed.location,
            gateway_bandwidth_mbps=float(rng.choice([5_000, 10_000, 20_000])),
        )
        sku_idx = rng.choice(len(skus), size=server_count, p=weights)
        site.servers.extend(
            Server(server_id=f"{site_id}-m{s_index:03d}", site_id=site_id,
                   capacity=skus[sku])
            for s_index, sku in enumerate(sku_idx.tolist()))
        platform.add_site(site)
    return platform
