"""Tests for the Platform inventory container."""

import pytest

from repro.errors import TopologyError
from repro.geo.coords import GeoPoint
from repro.platform.cluster import Platform
from repro.platform.entities import (
    App,
    Customer,
    PlatformKind,
    ResourceVector,
    Server,
    Site,
    VM,
    VMSpec,
)


@pytest.fixture()
def platform():
    p = Platform(name="test", kind=PlatformKind.EDGE)
    for i, (city, lat, lon) in enumerate([("Beijing", 39.9, 116.4),
                                          ("Shanghai", 31.2, 121.5)]):
        site = Site(site_id=f"s{i}", name=city, city=city, province=city,
                    location=GeoPoint(lat, lon))
        site.servers.append(Server(server_id=f"s{i}-m0", site_id=f"s{i}",
                                   capacity=ResourceVector(64, 256, 8000)))
        p.add_site(site)
    p.register_customer(Customer("c0", "cust"))
    p.register_app(App("a0", "c0", "cdn", "img0"))
    return p


def _placed_vm(platform, vm_id="vm0", site_idx=0):
    vm = VM(vm_id=vm_id, spec=VMSpec(4, 16), customer_id="c0",
            app_id="a0", image_id="img0")
    platform.sites[site_idx].servers[0].attach(vm)
    platform.register_vm(vm)
    return vm


class TestRegistration:
    def test_duplicate_site_rejected(self, platform):
        with pytest.raises(TopologyError):
            platform.add_site(Site(site_id="s0", name="dup", city="X",
                                   province="X", location=GeoPoint(0, 0)))

    def test_duplicate_rejected_after_lookup(self, platform):
        assert platform.site("s1").name == "Shanghai"   # index is built
        with pytest.raises(TopologyError):
            platform.add_site(Site(site_id="s1", name="dup", city="X",
                                   province="X", location=GeoPoint(0, 0)))
        assert [s.site_id for s in platform.sites] == ["s0", "s1"]

    def test_duplicate_of_constructor_site_rejected(self):
        site = Site(site_id="s0", name="a", city="X", province="X",
                    location=GeoPoint(0, 0))
        platform = Platform(name="t", kind=PlatformKind.EDGE, sites=[site])
        with pytest.raises(TopologyError):
            platform.add_site(Site(site_id="s0", name="dup", city="X",
                                   province="X", location=GeoPoint(0, 0)))

    def test_site_added_after_lookup_is_found(self, platform):
        platform.site("s0")
        late = Site(site_id="s2", name="Shenzhen", city="Shenzhen",
                    province="Guangdong", location=GeoPoint(22.5, 114.1))
        late.servers.append(Server(server_id="s2-m0", site_id="s2",
                                   capacity=ResourceVector(32, 128, 4000)))
        platform.add_site(late)
        assert platform.site("s2") is late
        assert platform.server("s2-m0").site_id == "s2"
        assert platform.nearest_sites(GeoPoint(22.5, 114.1))[0] is late

    def test_app_with_unknown_customer_rejected(self, platform):
        with pytest.raises(TopologyError):
            platform.register_app(App("a1", "ghost", "cdn", "img"))

    def test_vm_with_unknown_app_rejected(self, platform):
        vm = VM(vm_id="vmX", spec=VMSpec(1, 1), customer_id="c0",
                app_id="ghost", image_id="img")
        with pytest.raises(TopologyError):
            platform.register_vm(vm)


class TestLookups:
    def test_site_lookup(self, platform):
        assert platform.site("s1").city == "Shanghai"

    def test_unknown_site_raises(self, platform):
        with pytest.raises(TopologyError):
            platform.site("nope")

    def test_server_lookup(self, platform):
        assert platform.server("s0-m0").site_id == "s0"

    def test_unknown_server_raises(self, platform):
        with pytest.raises(TopologyError):
            platform.server("nope")

    def test_server_count(self, platform):
        assert platform.server_count == 2

    def test_vms_of_app(self, platform):
        _placed_vm(platform, "vm0")
        _placed_vm(platform, "vm1", site_idx=1)
        assert {vm.vm_id for vm in platform.vms_of_app("a0")} == {"vm0", "vm1"}

    def test_vms_of_unknown_app_raises(self, platform):
        with pytest.raises(TopologyError):
            platform.vms_of_app("ghost")

    def test_vms_on_server_and_site(self, platform):
        _placed_vm(platform, "vm0")
        assert [v.vm_id for v in platform.vms_on_server("s0-m0")] == ["vm0"]
        assert [v.vm_id for v in platform.vms_on_site("s0")] == ["vm0"]

    def test_sites_in_province(self, platform):
        assert [s.site_id for s in platform.sites_in_province("Beijing")] == ["s0"]

    def test_nearest_sites_ordering(self, platform):
        nearest = platform.nearest_sites(GeoPoint(39.8, 116.3), count=2)
        assert nearest[0].site_id == "s0"

    def test_nearest_sites_bad_count(self, platform):
        with pytest.raises(TopologyError):
            platform.nearest_sites(GeoPoint(0, 0), count=0)

    def test_is_edge(self, platform):
        assert platform.is_edge


class TestValidate:
    def test_consistent_platform_passes(self, platform):
        _placed_vm(platform)
        platform.validate()

    def test_dangling_server_listing_detected(self, platform):
        platform.sites[0].servers[0].vm_ids.append("ghost")
        with pytest.raises(TopologyError):
            platform.validate()

    def test_vm_claiming_unlisted_placement_detected(self, platform):
        vm = _placed_vm(platform)
        platform.sites[0].servers[0].vm_ids.remove(vm.vm_id)
        with pytest.raises(TopologyError):
            platform.validate()
