"""Testbed topology builders.

The measurements in the paper use a handful of standard wirings: a
generator pair on a cable (Section 6's loop-back tests), a generator
around a device under test (Sections 7/8), and a fleet of ports driven by
one core each (Section 5.5).  These builders assemble those topologies so
examples and experiments don't repeat the plumbing; every scenario in
:mod:`repro.scenarios` is built through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.device import Device
from repro.core.env import MoonGenEnv
from repro.dut.forwarder import DutConfig, OvsForwarder
from repro.errors import ConfigurationError
from repro.nicsim.link import Cable, IDEAL_CABLE
from repro.nicsim.nic import CHIP_X540, ChipModel


@dataclass
class LoadgenPair:
    """Two directly connected ports: generator and sink/reflector."""

    env: MoonGenEnv
    tx_dev: Device
    rx_dev: Device


def loadgen_pair(
    seed: int = 0,
    chip: ChipModel = CHIP_X540,
    cable: Cable = IDEAL_CABLE,
    tx_queues: int = 2,
    rx_queues: int = 1,
    core_freq_hz: float = 2.4e9,
    **options,
) -> LoadgenPair:
    """A generator port wired straight to a receiver port.

    ``options`` are forwarded to :class:`MoonGenEnv` (``cost_noise``,
    ``trace``, ``batch``, ``faults``, ``metrics``, ``dataplane``,
    ``watchdog``).  Fault targets here are ``port:0``, ``port:1``, and
    ``wire:0->1`` / ``wire:1->0``.
    """
    env = MoonGenEnv(seed=seed, core_freq_hz=core_freq_hz, **options)
    tx_dev = env.config_device(0, tx_queues=tx_queues, rx_queues=1, chip=chip)
    rx_dev = env.config_device(1, tx_queues=1, rx_queues=rx_queues, chip=chip)
    env.connect(tx_dev, rx_dev, cable=cable)
    return LoadgenPair(env, tx_dev, rx_dev)


@dataclass
class DutTopology:
    """Loadgen → DuT → loadgen: the Sections 7/8 measurement setup."""

    env: MoonGenEnv
    tx_dev: Device
    rx_dev: Device
    dut: OvsForwarder


def dut_topology(
    seed: int = 0,
    dut_config: Optional[DutConfig] = None,
    tx_queues: int = 2,
    core_freq_hz: float = 2.4e9,
    **options,
) -> DutTopology:
    """The l2-load-latency wiring: one port in, one port out of the DuT.

    ``options`` are forwarded to :class:`MoonGenEnv`, as for
    :func:`loadgen_pair`.  Fault targets here are ``port:0``/``port:1``,
    ``wire:0->sink`` (into the DuT), ``wire:env->1`` (out of it), and
    ``dut``.
    """
    env = MoonGenEnv(seed=seed, core_freq_hz=core_freq_hz, **options)
    tx_dev = env.config_device(0, tx_queues=tx_queues, rx_queues=1)
    rx_dev = env.config_device(1, tx_queues=1, rx_queues=1)
    dut = OvsForwarder(env.loop, dut_config)
    env.connect_to_sink(tx_dev, dut.ingress)
    dut.connect_output(env.wire_to_device(rx_dev))
    env.register_dut(dut)
    return DutTopology(env, tx_dev, rx_dev, dut)


@dataclass
class PortFleet:
    """N generator ports, each wired to its own sink (Section 5.5)."""

    env: MoonGenEnv
    tx_devs: List[Device] = field(default_factory=list)
    rx_devs: List[Device] = field(default_factory=list)

    @property
    def total_tx_packets(self) -> int:
        return sum(dev.tx_packets for dev in self.tx_devs)

    def launch_on_each(self, slave_factory: Callable, **launch_kwargs) -> None:
        """Start ``slave_factory(env, tx_dev, rx_dev)`` per port pair."""
        for tx_dev, rx_dev in zip(self.tx_devs, self.rx_devs):
            self.env.launch(
                slave_factory, self.env, tx_dev, rx_dev, **launch_kwargs
            )


def port_fleet(
    n_ports: int,
    seed: int = 0,
    chip: ChipModel = CHIP_X540,
    core_freq_hz: float = 2.0e9,
    tx_queues: int = 1,
    **options,
) -> PortFleet:
    """Build the Figure 4 fleet: one generator port per future core.

    Port ``2i`` feeds port ``2i + 1``; ``options`` are forwarded to
    :class:`MoonGenEnv`, as for :func:`loadgen_pair`.
    """
    if n_ports <= 0:
        raise ConfigurationError(f"need at least one port: {n_ports}")
    env = MoonGenEnv(seed=seed, core_freq_hz=core_freq_hz, **options)
    fleet = PortFleet(env)
    for i in range(n_ports):
        tx_dev = env.config_device(2 * i, tx_queues=tx_queues, chip=chip)
        rx_dev = env.config_device(2 * i + 1, rx_queues=1, chip=chip)
        env.connect(tx_dev, rx_dev)
        fleet.tx_devs.append(tx_dev)
        fleet.rx_devs.append(rx_dev)
    return fleet
