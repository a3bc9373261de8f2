"""API-surface checks: exports resolve, carry docs, and stay consistent."""

import importlib
import inspect

import pytest

import repro
import repro.analysis
import repro.apps
import repro.core
import repro.dut
import repro.generators
import repro.nicsim
import repro.packet
import repro.parallel

PACKAGES = [
    repro, repro.core, repro.packet, repro.nicsim, repro.dut,
    repro.generators, repro.analysis, repro.apps, repro.parallel,
]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES,
                             ids=lambda p: p.__name__)
    def test_all_entries_resolve(self, package):
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), f"{package.__name__}.{name}"

    @pytest.mark.parametrize("package", PACKAGES,
                             ids=lambda p: p.__name__)
    def test_no_duplicate_exports(self, package):
        exports = list(getattr(package, "__all__", []))
        assert len(exports) == len(set(exports)), f"{package.__name__}.__all__"

    @pytest.mark.parametrize("package", PACKAGES,
                             ids=lambda p: p.__name__)
    def test_public_classes_documented(self, package):
        for name in getattr(package, "__all__", []):
            obj = getattr(package, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{package.__name__}.{name} lacks a docstring"

    def test_package_docstrings(self):
        for package in PACKAGES:
            assert package.__doc__, f"{package.__name__} lacks a docstring"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_has_the_essentials(self):
        for name in ("MoonGenEnv", "Timestamper", "GapFiller", "Histogram",
                     "PoissonPattern", "parse_ip_address"):
            assert name in repro.__all__


class TestModuleHygiene:
    MODULES = [
        "repro.units", "repro.errors", "repro.cli",
        "repro.core.env", "repro.core.device", "repro.core.queues",
        "repro.core.memory", "repro.core.tasks", "repro.core.ops",
        "repro.core.stats", "repro.core.histogram", "repro.core.flows",
        "repro.core.pipes", "repro.core.arp", "repro.core.filters",
        "repro.core.icmp_ping", "repro.core.latency", "repro.core.measure",
        "repro.core.monitor", "repro.core.ratecontrol",
        "repro.core.seqcheck", "repro.core.softpace",
        "repro.core.timestamping", "repro.testbed",
        "repro.packet.address", "repro.packet.checksum",
        "repro.packet.fields", "repro.packet.packet", "repro.packet.pcap",
        "repro.packet.vlan",
        "repro.nicsim.eventloop", "repro.nicsim.clock", "repro.nicsim.cpu",
        "repro.nicsim.link", "repro.nicsim.nic",
        "repro.dut.interrupts", "repro.dut.forwarder", "repro.dut.fastpath",
        "repro.dut.switch", "repro.dut.hardware",
        "repro.generators.base", "repro.generators.moongen",
        "repro.generators.pktgen_dpdk", "repro.generators.zsend",
        "repro.analysis.interarrival", "repro.analysis.latencystats",
        "repro.analysis.cost_estimator", "repro.analysis.rfc2544",
        "repro.apps.scanner", "repro.apps.analyzer",
        "repro.parallel.engine", "repro.parallel.seeding",
        "repro.scenarios",
    ]

    @pytest.mark.parametrize("module_name", MODULES)
    def test_importable_and_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20, (
            f"{module_name} needs a real module docstring"
        )

    def test_error_hierarchy_rooted(self):
        from repro import errors
        for name in dir(errors):
            obj = getattr(errors, name)
            if (inspect.isclass(obj) and issubclass(obj, Exception)
                    and obj is not errors.ReproError):
                assert issubclass(obj, errors.ReproError), name
