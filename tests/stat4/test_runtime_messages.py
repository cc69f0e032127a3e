"""Message-only Stat4Runtime: the remote-controller workflow.

A controller far from the switch constructs a :class:`Stat4Runtime` with no
local library; every ``bind``/``rebind``/``unbind`` returns the control
message to ship over the CPU port, and the switch end applies it.  These
tests drive that round trip through a real netsim :class:`SwitchNode`, and
pin the rebind generation bump that forces the data plane to reset a
re-purposed slot.
"""

import pytest

from repro.netsim.messages import TableAdd, TableDelete, TableModify
from repro.netsim.network import Network
from repro.netsim.switchnode import SwitchNode
from repro.p4.switch import CPU_PORT
from repro.stat4 import (
    BindingMatch,
    ExtractSpec,
    Stat4,
    Stat4Config,
    Stat4Runtime,
)
from tests.stat4.conftest import make_ctx, udp_packet


def process_dsts(stat4, dsts, start=0.0):
    for index, dst in enumerate(dsts):
        stat4.process(make_ctx(udp_packet(dst=f"10.0.0.{dst}"), now=start + index * 0.001))


class TestMessageOnlyMode:
    def make_runtime(self):
        return Stat4Runtime(None)

    def test_bind_returns_add_message_without_applying(self):
        runtime = self.make_runtime()
        spec = runtime.frequency_of(0, ExtractSpec.field("ipv4.dst", mask=0xFF))
        handle, message = runtime.bind(2, BindingMatch(ether_type=0x0800), spec)
        assert isinstance(message, TableAdd)
        assert message.table == "stat4_binding_2"
        assert message.params["spec"] is spec
        # No local library: the switch end will assign the real entry id.
        assert handle.entry_id == 0
        assert runtime.stat4 is None

    def test_rebind_bumps_generation(self):
        runtime = self.make_runtime()
        spec = runtime.frequency_of(0, ExtractSpec.field("ipv4.dst", mask=0xFF))
        handle, _ = runtime.bind(0, BindingMatch(ether_type=0x0800), spec)
        first_generation = handle.spec.generation
        handle2, message = runtime.rebind(handle)
        assert isinstance(message, TableModify)
        assert handle2.spec.generation > first_generation
        # Every further rebind keeps strictly increasing.
        handle3, _ = runtime.rebind(handle2)
        assert handle3.spec.generation > handle2.spec.generation

    def test_rebind_message_carries_priority(self):
        runtime = self.make_runtime()
        spec = runtime.frequency_of(0, ExtractSpec.field("ipv4.dst", mask=0xFF))
        handle, _ = runtime.bind(0, BindingMatch(ether_type=0x0800), spec, priority=1)
        _, message = runtime.rebind(handle, priority=9)
        assert message.priority == 9
        assert len(message) < 128
        _, unchanged = runtime.rebind(handle)
        assert unchanged.priority is None

    def test_unbind_returns_delete_message(self):
        runtime = self.make_runtime()
        spec = runtime.frequency_of(0, ExtractSpec.field("ipv4.dst", mask=0xFF))
        handle, _ = runtime.bind(1, BindingMatch(ether_type=0x0800), spec)
        message = runtime.unbind(handle)
        assert isinstance(message, TableDelete)
        assert message.table == "stat4_binding_1"


class TestGenerationBumpResetsSlot:
    def build(self):
        config = Stat4Config(counter_num=2, counter_size=64, binding_stages=1)
        stat4 = Stat4(config)
        runtime = Stat4Runtime(stat4)
        return stat4, runtime

    def test_rebind_with_identical_spec_resets_state(self):
        stat4, runtime = self.build()
        spec = runtime.frequency_of(0, ExtractSpec.field("ipv4.dst", mask=0x3F))
        handle, _ = runtime.bind(0, BindingMatch(ether_type=0x0800), spec)
        process_dsts(stat4, [1, 2, 3, 1, 2, 1])
        state = stat4.state_of(0)
        assert state.stats.updates == 6
        assert stat4.counters.read(stat4.config.cell_index(0, 1)) == 3
        # Rebind the *same* spec: the generation bump alone must wipe the
        # slot — re-purposing a distribution never inherits stale counts.
        runtime.rebind(handle)
        process_dsts(stat4, [1], start=1.0)
        state = stat4.state_of(0)
        assert state.stats.updates == 1
        assert stat4.counters.read(stat4.config.cell_index(0, 1)) == 1
        assert stat4.counters.read(stat4.config.cell_index(0, 2)) == 0

    def test_local_rebind_with_priority_is_one_write(self):
        stat4, runtime = self.build()
        spec = runtime.frequency_of(0, ExtractSpec.field("ipv4.dst", mask=0x3F))
        handle, _ = runtime.bind(0, BindingMatch(ether_type=0x0800), spec, priority=1)
        table = stat4.binding_tables[0]
        version = table.version
        handle, _ = runtime.rebind(handle, priority=9)
        assert table.version == version + 1
        (entry,) = table.entries()
        assert entry.priority == 9
        assert entry.params["spec"] == handle.spec

    def test_reprocessing_without_rebind_keeps_state(self):
        stat4, runtime = self.build()
        spec = runtime.frequency_of(0, ExtractSpec.field("ipv4.dst", mask=0x3F))
        runtime.bind(0, BindingMatch(ether_type=0x0800), spec)
        process_dsts(stat4, [1, 1])
        process_dsts(stat4, [1], start=1.0)
        assert stat4.state_of(0).stats.updates == 3


class TestRoundTripThroughSwitchNode:
    """bind → TableAdd over the wire → switch table → packets tracked."""

    def build(self):
        from repro.apps.echo import build_echo_app

        bundle = build_echo_app()
        net = Network()
        switch = net.add(SwitchNode("s", bundle.program))
        controller = net.add(_ControllerStub("c"))
        net.connect(controller, 0, switch, CPU_PORT, delay=0.001)
        return bundle, net, switch, controller

    def test_add_modify_delete_round_trip(self):
        bundle, net, switch, controller = self.build()
        remote = Stat4Runtime(None)
        table = switch.table("stat4_binding_0")
        installed = len(table)

        spec = remote.frequency_of(
            0, ExtractSpec.field("stat4_echo.value"), k_sigma=3
        )
        handle, add = remote.bind(0, BindingMatch(), spec, priority=5)
        controller.send(add)
        net.run()
        assert len(table) == installed + 1
        # The switch assigned the real entry id; adopt it on the handle
        # (in a fuller controller this would ride back on an ack message).
        handle.entry_id = table.entries()[-1].entry_id

        _, modify = remote.rebind(
            handle, spec=remote.frequency_of(0, ExtractSpec.field("stat4_echo.value"))
        )
        controller.send(modify)
        net.run()
        entry = next(
            e for e in table.entries() if e.entry_id == handle.entry_id
        )
        assert entry.params["spec"].generation == modify.params["spec"].generation

        delete = remote.unbind(handle)
        controller.send(delete)
        net.run()
        assert len(table) == installed
        assert switch.control_ops == 3

    def test_rebind_priority_reaches_the_switch(self):
        bundle, net, switch, controller = self.build()
        remote = Stat4Runtime(None)
        table = switch.table("stat4_binding_0")
        spec = remote.frequency_of(0, ExtractSpec.field("stat4_echo.value"))
        handle, add = remote.bind(0, BindingMatch(), spec, priority=1)
        controller.send(add)
        net.run()
        handle.entry_id = table.entries()[-1].entry_id

        _, modify = remote.rebind(handle, priority=9)
        controller.send(modify)
        net.run()
        entry = next(e for e in table.entries() if e.entry_id == handle.entry_id)
        assert entry.priority == 9
        assert entry.params["spec"].generation == modify.params["spec"].generation


class _ControllerStub:
    """Bare network node that ships prepared control messages downstream."""

    def __init__(self, name):
        self.name = name
        self.network = None
        self.inbox = []

    def attach(self, network):
        self.network = network

    def receive(self, message, port, now):
        self.inbox.append(message)

    def send(self, message):
        self.network.transmit(self, 0, message)
