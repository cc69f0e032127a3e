# p4-ok-file — host-side network simulator, not data-plane code.
"""A behavioral switch attached to the simulated network.

:class:`SwitchNode` bridges the two substrates: data-plane packets arriving
on wired ports run through the :class:`~repro.p4.switch.BehavioralSwitch`
pipeline and leave on the ports the program selected; digests the pipeline
emits are pushed out of the CPU port as :class:`DigestMessage`s; and control
messages arriving *on* the CPU port (table operations, register reads) are
applied against the program with realistic costs — register dumps take
``register_read_seconds`` per cell before the reply leaves, modelling the
paper's "reading thousands of registers takes several milliseconds".
"""

from __future__ import annotations

from typing import Any, Optional

from repro.netsim.messages import (
    DigestMessage,
    RegisterReadReply,
    RegisterReadRequest,
    TableAdd,
    TableDelete,
    TableModify,
)
from repro.netsim.network import Network, WiringError
from repro.p4.packet import Packet
from repro.p4.pipeline import PipelineProgram
from repro.p4.switch import CPU_PORT, BehavioralSwitch

__all__ = ["SwitchNode"]

#: Default per-register-cell read cost: 2500 cells ≈ 2.5 ms, in the "several
#: milliseconds for thousands of registers" band the paper cites.
DEFAULT_REGISTER_READ_SECONDS = 1e-6


class SwitchNode:
    """A :class:`BehavioralSwitch` living inside a :class:`Network`.

    Args:
        name: node name.
        program: the deployed pipeline program.
        register_read_seconds: per-cell cost charged before a register dump
            reply is sent on the CPU port.
    """

    def __init__(
        self,
        name: str,
        program: PipelineProgram,
        register_read_seconds: float = DEFAULT_REGISTER_READ_SECONDS,
    ):
        self.name = name
        self.switch = BehavioralSwitch(name, program)
        self.register_read_seconds = register_read_seconds
        self.network: Optional[Network] = None
        self.digests_pushed = 0
        self.control_ops = 0

    def attach(self, network: Network) -> None:
        """Network callback on :meth:`Network.add`."""
        self.network = network

    # -- message dispatch ---------------------------------------------------

    def receive(self, message: Any, port: int, now: float) -> None:
        """Dispatch data-plane packets vs control-plane operations."""
        if isinstance(message, Packet):
            self._handle_packet(message, port, now)
        elif port == CPU_PORT:
            self._handle_control(message, now)
        # Anything else (a control message on a data port) is ignored, as a
        # switch ASIC would discard an unparseable frame.

    def _handle_packet(self, packet: Packet, port: int, now: float) -> None:
        output = self.switch.process(packet, port, now)
        assert self.network is not None
        for out_port, out_packet in output.sends:
            if out_port == CPU_PORT:
                # Punted packets ride the control channel if it is wired.
                self._push_control(out_packet)
                continue
            self.network.transmit(self, out_port, out_packet)
        for digest in output.digests:
            self.digests_pushed += 1
            self._push_control(DigestMessage(switch=self.name, digest=digest))

    def _push_control(self, message: Any) -> None:
        assert self.network is not None
        try:
            self.network.transmit(self, CPU_PORT, message)
        except WiringError:
            # No controller attached: digests fall on the floor, like a P4
            # digest stream nobody subscribed to.
            pass

    def ingest_batch(self, batch: Any, engine: Any) -> Any:
        """Run a :class:`~repro.stat4.batch.PacketBatch` through a batch engine.

        The monitoring fast path: the batch updates the Stat4 registers
        (bit-identically to per-packet processing) and every digest it
        produces is pushed out of the CPU port exactly as the scalar
        pipeline would push it.  Packet *forwarding* is bypassed — batched
        ingestion models a monitoring tap, not the forwarding path.

        Returns the engine's :class:`~repro.stat4.batch.BatchResult`.
        """
        result = engine.process(batch)
        for digest in result.digests:
            self.digests_pushed += 1
            self._push_control(DigestMessage(switch=self.name, digest=digest))
        return result

    # -- control plane -----------------------------------------------------------

    def _handle_control(self, message: Any, now: float) -> None:
        self.control_ops += 1
        if isinstance(message, TableAdd):
            self.switch.table(message.table).add_entry(
                message.matches,
                message.action,
                message.params,
                priority=message.priority,
            )
        elif isinstance(message, TableModify):
            self.switch.table(message.table).modify_entry(
                message.entry_id,
                matches=message.matches,
                action=message.action,
                params=message.params,
                priority=message.priority,
            )
        elif isinstance(message, TableDelete):
            self.switch.table(message.table).delete_entry(message.entry_id)
        elif isinstance(message, RegisterReadRequest):
            self._serve_register_read(message)

    def _serve_register_read(self, request: RegisterReadRequest) -> None:
        assert self.network is not None
        values = {}
        cells = 0
        for name in request.registers:
            dump = self.switch.read_registers(name)
            values[name] = dump
            cells += len(dump)
        latency = cells * self.register_read_seconds
        reply = RegisterReadReply(
            values=values, request_id=request.request_id, read_latency=latency
        )

        def respond():
            self._push_control(reply)

        self.network.sim.schedule(latency, respond)

    # -- convenience -----------------------------------------------------------

    def table(self, name: str):
        """Direct (test-time) control-plane handle to a table."""
        return self.switch.table(name)

    def __repr__(self) -> str:
        return f"SwitchNode({self.name!r})"
