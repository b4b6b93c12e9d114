"""Tests for platform entities: resources, servers, sites."""

import pytest

from repro.errors import CapacityError
from repro.geo.coords import GeoPoint
from repro.platform.entities import (
    ResourceVector,
    Server,
    Site,
    VM,
    VMSpec,
)


def _server(cores=64, mem=256, disk=8000, server_id="s0"):
    return Server(server_id=server_id, site_id="site0",
                  capacity=ResourceVector(cores, mem, disk))


def _vm(vm_id="vm0", cores=8, mem=32, disk=100):
    return VM(vm_id=vm_id, spec=VMSpec(cores, mem, disk),
              customer_id="c0", app_id="a0", image_id="img0")


class TestResourceVector:
    def test_addition(self):
        total = ResourceVector(1, 2, 3) + ResourceVector(4, 5, 6)
        assert (total.cpu_cores, total.memory_gb, total.disk_gb) == (5, 7, 9)

    def test_subtraction(self):
        left = ResourceVector(4, 5, 6) - ResourceVector(1, 2, 3)
        assert (left.cpu_cores, left.memory_gb, left.disk_gb) == (3, 3, 3)

    def test_negative_rejected(self):
        with pytest.raises(CapacityError):
            ResourceVector(-1, 0, 0)

    def test_fits_within(self):
        assert ResourceVector(2, 4).fits_within(ResourceVector(4, 8))
        assert not ResourceVector(8, 4).fits_within(ResourceVector(4, 8))

    def test_zero(self):
        zero = ResourceVector.zero()
        assert zero.cpu_cores == 0 and zero.memory_gb == 0


class TestVMSpec:
    def test_valid(self):
        spec = VMSpec(8, 32, 100, 200.0)
        assert spec.resources.cpu_cores == 8

    def test_zero_cores_rejected(self):
        with pytest.raises(CapacityError):
            VMSpec(0, 32)

    def test_zero_memory_rejected(self):
        with pytest.raises(CapacityError):
            VMSpec(8, 0)

    def test_negative_disk_rejected(self):
        with pytest.raises(CapacityError):
            VMSpec(8, 32, disk_gb=-1)


class TestServer:
    def test_attach_updates_ledger(self):
        server, vm = _server(), _vm()
        server.attach(vm)
        assert vm.server_id == "s0"
        assert vm.site_id == "site0"
        assert server.allocated.cpu_cores == 8
        assert vm.vm_id in server.vm_ids

    def test_attach_beyond_capacity_rejected(self):
        server = _server(cores=8, mem=16)
        server.attach(_vm(vm_id="a", cores=8, mem=16))
        with pytest.raises(CapacityError):
            server.attach(_vm(vm_id="b", cores=1, mem=1))

    def test_detach_restores_capacity(self):
        server, vm = _server(), _vm()
        server.attach(vm)
        server.detach(vm)
        assert server.allocated.cpu_cores == 0
        assert vm.server_id is None
        assert not server.vm_ids

    def test_attach_leaves_other_servers_unallocated(self):
        # new servers share one frozen zero allocation; attaching to one
        # must replace its ledger, not change the shared default
        first, second = _server(server_id="s0"), _server(server_id="s1")
        first.attach(_vm(cores=8, mem=32, disk=100))
        assert first.allocated == ResourceVector(8, 32, 100)
        assert second.allocated == ResourceVector.zero()
        assert _server(server_id="s2").allocated == ResourceVector.zero()

    def test_detach_unknown_vm_rejected(self):
        server = _server()
        with pytest.raises(CapacityError):
            server.detach(_vm())

    def test_sales_rates(self):
        server = _server(cores=64, mem=256)
        server.attach(_vm(cores=16, mem=32))
        assert server.cpu_sales_rate() == pytest.approx(16 / 64)
        assert server.memory_sales_rate() == pytest.approx(32 / 256)

    def test_can_host_respects_all_dimensions(self):
        server = _server(cores=64, mem=16, disk=50)
        assert not server.can_host(VMSpec(8, 32))       # memory short
        assert not server.can_host(VMSpec(8, 8, 100))   # disk short
        assert server.can_host(VMSpec(8, 8, 50))


class TestSite:
    def test_capacity_aggregates_servers(self):
        site = Site(site_id="s", name="n", city="Beijing",
                    province="Beijing", location=GeoPoint(39.9, 116.4))
        site.servers.extend([_server(server_id="m0"), _server(server_id="m1")])
        assert site.capacity.cpu_cores == 128
        assert site.server_count == 2

    def test_site_sales_rate(self):
        site = Site(site_id="s", name="n", city="Beijing",
                    province="Beijing", location=GeoPoint(39.9, 116.4))
        server = _server()
        server.attach(_vm(cores=32, mem=128))
        site.servers.append(server)
        assert site.cpu_sales_rate() == pytest.approx(0.5)

    def test_empty_site_sales_rate_zero(self):
        site = Site(site_id="s", name="n", city="Beijing",
                    province="Beijing", location=GeoPoint(39.9, 116.4))
        assert site.cpu_sales_rate() == 0.0
        assert site.memory_sales_rate() == 0.0
