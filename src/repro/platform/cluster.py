"""Platform inventory: the container tying sites, servers, VMs, and apps.

:class:`Platform` is the single source of truth for topology queries used by
placement, scheduling, trace generation, and the §4 analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..errors import TopologyError
from ..geo.coords import GeoPoint, haversine_km_many
from .entities import App, Customer, PlatformKind, Server, Site, VM


@dataclass
class Platform:
    """A named edge or cloud platform with its full inventory."""

    name: str
    kind: PlatformKind
    sites: list[Site] = field(default_factory=list)
    vms: dict[str, VM] = field(default_factory=dict)
    apps: dict[str, App] = field(default_factory=dict)
    customers: dict[str, Customer] = field(default_factory=dict)
    # Derived lookup caches.  ``add_site`` keeps the site index current
    # and drops the other two, which are rebuilt on the next lookup.
    _site_index: dict[str, Site] | None = field(default=None, init=False,
                                                repr=False, compare=False)
    _server_index: dict[str, Server] | None = field(default=None, init=False,
                                                    repr=False, compare=False)
    _site_coords: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    # ---- registration --------------------------------------------------

    def add_site(self, site: Site) -> None:
        """Append ``site``; the duplicate-id check is one index lookup.

        Raises:
            TopologyError: if a site with the same id is registered.
        """
        if self._site_index is None:
            self._site_index = {s.site_id: s for s in self.sites}
        if site.site_id in self._site_index:
            raise TopologyError(f"duplicate site id {site.site_id!r}")
        self.sites.append(site)
        self._site_index[site.site_id] = site
        self._server_index = None
        self._site_coords = None

    def register_customer(self, customer: Customer) -> None:
        self.customers[customer.customer_id] = customer

    def register_app(self, app: App) -> None:
        if app.customer_id not in self.customers:
            raise TopologyError(
                f"app {app.app_id!r} references unknown customer "
                f"{app.customer_id!r}"
            )
        self.apps[app.app_id] = app

    def register_vm(self, vm: VM) -> None:
        if vm.app_id not in self.apps:
            raise TopologyError(
                f"VM {vm.vm_id!r} references unknown app {vm.app_id!r}"
            )
        self.vms[vm.vm_id] = vm

    # ---- lookups -------------------------------------------------------

    @property
    def is_edge(self) -> bool:
        return self.kind is PlatformKind.EDGE

    def site(self, site_id: str) -> Site:
        if self._site_index is None:
            self._site_index = {s.site_id: s for s in self.sites}
        try:
            return self._site_index[site_id]
        except KeyError:
            raise TopologyError(
                f"unknown site {site_id!r} on {self.name}"
            ) from None

    def server(self, server_id: str) -> Server:
        if self._server_index is None:
            self._server_index = {
                server.server_id: server
                for s in self.sites for server in s.servers
            }
        try:
            return self._server_index[server_id]
        except KeyError:
            raise TopologyError(
                f"unknown server {server_id!r} on {self.name}"
            ) from None

    def iter_servers(self) -> Iterable[Server]:
        for s in self.sites:
            yield from s.servers

    @property
    def server_count(self) -> int:
        return sum(s.server_count for s in self.sites)

    def vms_of_app(self, app_id: str) -> list[VM]:
        if app_id not in self.apps:
            raise TopologyError(f"unknown app {app_id!r} on {self.name}")
        return [vm for vm in self.vms.values() if vm.app_id == app_id]

    def vms_on_server(self, server_id: str) -> list[VM]:
        server = self.server(server_id)
        return [self.vms[vid] for vid in server.vm_ids]

    def vms_on_site(self, site_id: str) -> list[VM]:
        """VMs hosted at a site, straight from the server ledgers.

        Walks ``server.vm_ids`` of the site's own servers instead of
        scanning every VM on the platform, so the cost is proportional to
        the site, not the fleet — and it stays correct through
        migrations, which update the ledgers.
        """
        return [
            self.vms[vm_id]
            for server in self.site(site_id).servers
            for vm_id in server.vm_ids
            if vm_id in self.vms
        ]

    def sites_in_province(self, province: str) -> list[Site]:
        return [s for s in self.sites if s.province == province]

    def nearest_sites(self, point: GeoPoint, count: int = 1) -> list[Site]:
        """The ``count`` sites geographically nearest to ``point``.

        Distances to every site come from one vectorised haversine over
        the platform's cached lat/lon arrays.
        """
        if count <= 0:
            raise TopologyError(f"count must be positive, got {count}")
        if self._site_coords is None:
            self._site_coords = (
                np.array([s.location.lat for s in self.sites]),
                np.array([s.location.lon for s in self.sites]),
            )
        lats, lons = self._site_coords
        distances = haversine_km_many(point, lats, lons)
        order = np.argsort(distances, kind="stable")[:count]
        return [self.sites[i] for i in order]

    def live_inventory(self, cores_per_slot: int = 4
                       ) -> tuple[np.ndarray, np.ndarray,
                                  tuple[str, ...], tuple[str, ...]]:
        """The flat per-server array view the live engine advances.

        Returns ``(site_of_server, base_slots, site_ids, server_ids)``:
        servers flattened in site order (so one site is a contiguous
        index range), ``site_of_server[j]`` the owning site's index,
        and ``base_slots[j]`` the server's VM capacity in
        ``cores_per_slot``-core slots (at least one).  Pure topology —
        current VM placement is deliberately not consulted, since the
        live engine owns its own population.

        Raises:
            TopologyError: when ``cores_per_slot`` is not positive.
        """
        if cores_per_slot <= 0:
            raise TopologyError(
                f"cores_per_slot must be positive, got {cores_per_slot}")
        servers = [server for site in self.sites for server in site.servers]
        site_of = np.repeat(np.arange(len(self.sites), dtype=np.int64),
                            [site.server_count for site in self.sites])
        cores = np.array([server.capacity.cpu_cores for server in servers],
                         dtype=np.float64).astype(np.int64)
        return (site_of,
                np.maximum(cores // cores_per_slot, 1),
                tuple(s.site_id for s in self.sites),
                tuple(server.server_id for server in servers))

    # ---- platform-wide statistics (§4.1 sales rates) --------------------

    def site_cpu_sales_rates(self) -> list[float]:
        return [s.cpu_sales_rate() for s in self.sites]

    def site_memory_sales_rates(self) -> list[float]:
        return [s.memory_sales_rate() for s in self.sites]

    def server_cpu_sales_rates(self) -> list[float]:
        return [srv.cpu_sales_rate() for srv in self.iter_servers()]

    def validate(self) -> None:
        """Cross-check the inventory ledgers; raise on inconsistency.

        Raises:
            TopologyError: if any VM's placement disagrees with the server
                ledgers, or allocation bookkeeping drifted.
        """
        placed_ids = set()
        for server in self.iter_servers():
            for vm_id in server.vm_ids:
                if vm_id not in self.vms:
                    raise TopologyError(
                        f"server {server.server_id} lists unknown VM {vm_id!r}"
                    )
                vm = self.vms[vm_id]
                if vm.server_id != server.server_id:
                    raise TopologyError(
                        f"VM {vm_id} thinks it is on {vm.server_id!r} but "
                        f"server {server.server_id} lists it"
                    )
                placed_ids.add(vm_id)
        for vm in self.vms.values():
            if vm.placed and vm.vm_id not in placed_ids:
                raise TopologyError(
                    f"VM {vm.vm_id} claims placement on {vm.server_id!r} "
                    f"but no server lists it"
                )
