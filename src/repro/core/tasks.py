"""Slave-task scheduler: runs userscripts against the simulated hardware.

A task owns a simulated CPU core (MoonGen pins one LuaJIT VM per core) and
drives the userscript generator: every yielded op is charged to the
cycle-cost model, advances simulated time, and performs its hardware
interaction — enqueueing descriptors, blocking on ring space, polling rx
rings.  Back-pressure and multi-queue interleaving therefore emerge from the
event loop rather than being scripted.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, TYPE_CHECKING

from repro.core.memory import PacketBuffer
from repro.core.ops import BarrierOp, CyclesOp, RecvOp, SendOp, SleepOp
from repro.core.pipes import PipeRecvOp
from repro.core.queues import RxPacket
from repro.errors import TaskError
from repro.nicsim.cpu import CpuCore
from repro.nicsim.eventloop import Signal, wait_any
from repro.nicsim.nic import (
    _FCS_SIZE,
    _WIRE_OVERHEAD,
    _frame_seq,
    SimFrame,
    default_frame_pool,
)
from repro.packet.memo import SecondSightMemo
from repro.packet.packet import PacketData

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.env import MoonGenEnv


#: Offloaded payloads, keyed by ``(frame bytes, offload_ip, offload_l4)``:
#: the bytes with the offloaded checksums in place.
_OFFLOADED = SecondSightMemo()


def _offload(raw: bytes, offload_ip: bool, offload_l4: bool) -> bytes:
    """``raw`` with the checksums the NIC computes for these offload bits."""
    data = bytearray(raw)
    shadow = PacketData.wrap(data)
    kind = shadow.classify()
    if kind in ("udp4", "tcp4", "icmp4", "ip4"):
        if offload_l4:
            if kind == "udp4":
                shadow.udp_packet.calculate_udp_checksum()
            elif kind == "tcp4":
                shadow.tcp_packet.calculate_tcp_checksum()
            elif kind == "icmp4":
                shadow.icmp_packet.calculate_icmp_checksum()
        if offload_ip:
            shadow.ip_packet.calculate_ip_checksum()
    elif kind == "udp6" and offload_l4:
        shadow.udp6_packet.calculate_udp_checksum()
    return bytes(data)


def materialize_frame(buf: PacketBuffer) -> SimFrame:
    """Snapshot a packet buffer into a wire frame, applying offloads.

    The NIC computes offloaded checksums while fetching the packet; the
    snapshot therefore carries correct checksums if the corresponding
    descriptor bits are set.  The buffer itself is *not* modified — like
    hardware offloading, the checksum exists only on the wire.

    Offloading costs the CPU nothing per byte (Section 5.6.1), and the
    paper's scripts send the same bytes packet after packet, so the
    checksummed payload is memoized on the frame's content and the offload
    bits (:class:`~repro.packet.memo.SecondSightMemo`): a buffer changed
    between two sends is a new key and gets its own checksums.
    """
    pkt = buf.pkt
    payload = bytes(memoryview(pkt.data)[:pkt._size])
    offload_ip, offload_l4 = buf.offload_ip, buf.offload_l4
    if offload_ip or offload_l4:
        key = (payload, offload_ip, offload_l4)
        offloaded = _OFFLOADED.entries.get(key)
        if offloaded is None:
            offloaded = _offload(payload, offload_ip, offload_l4)
            if _OFFLOADED.admit(key):
                _OFFLOADED.store(key, offloaded)
        payload = offloaded
    frame = default_frame_pool.acquire(payload, fcs_ok=not buf.corrupt_fcs)
    if buf.timestamp_flag:
        frame.meta["timestamp"] = True
    frame.recycle = buf.recycle_hook
    return frame


def materialize_frames(bufs: List[PacketBuffer]) -> List[SimFrame]:
    """Materialize a whole batch; semantics of :func:`materialize_frame`.

    The per-packet call and global-pool lookup are measurable at line
    rate, so the plain no-offload path is unrolled here — including
    ``FramePool.acquire`` itself, whose shell reset is rewritten inline
    (the ``recycle`` slot is reassigned per frame, never left stale);
    offloaded buffers take the full per-frame path.
    """
    pool = default_frame_pool
    free = pool._free
    fpop = free.pop
    seq_next = _frame_seq.__next__
    out: List[SimFrame] = []
    append = out.append
    recycled = 0
    for buf in bufs:
        if buf.offload_ip or buf.offload_l4:
            append(materialize_frame(buf))
            continue
        pkt = buf.pkt
        psize = pkt._size
        data = bytes(memoryview(pkt.data)[:psize])
        if free:
            frame = fpop()
            frame.data = data
            frame.fcs_ok = not buf.corrupt_fcs
            frame.seq = seq_next()
            size = psize + _FCS_SIZE
            frame.size = size
            frame.wire_size = size + _WIRE_OVERHEAD
            frame.pool = pool
            frame.recycle = buf.recycle_hook
            recycled += 1
            if buf.timestamp_flag:
                frame.meta["timestamp"] = True
        else:
            frame = SimFrame(data, not buf.corrupt_fcs)
            frame.pool = pool
            frame.recycle = buf.recycle_hook
            if buf.timestamp_flag:
                frame.meta["timestamp"] = True
        append(frame)
    if recycled:
        pool.recycled += recycled
    return out


class Task:
    """A slave task: a userscript generator pinned to a simulated core."""

    def __init__(
        self,
        env: "MoonGenEnv",
        fn,
        args: tuple,
        core: CpuCore,
        name: Optional[str] = None,
    ) -> None:
        self.env = env
        self.core = core
        self.name = name or getattr(fn, "__name__", "slave")
        generator = fn(*args)
        if not isinstance(generator, Generator):
            raise TaskError(
                f"slave function {self.name!r} must be a generator function "
                f"(use 'yield queue.send(bufs)' for blocking calls)"
            )
        self.process = env.loop.spawn(self._drive(generator), name=self.name)

    # -- status ------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.process.finished

    @property
    def result(self) -> Any:
        return self.process.result

    def check(self) -> None:
        """Re-raise any exception the userscript died with."""
        self.process.check()

    def kill(self) -> None:
        self.process.kill()

    # -- the interpreter -----------------------------------------------------

    def _drive(self, gen: Generator):
        result: Any = None
        while True:
            try:
                op = gen.send(result)
            except StopIteration as stop:
                return getattr(stop, "value", None)
            result = yield from self._execute(op)

    def _execute(self, op):
        if isinstance(op, SendOp):
            return (yield from self._send(op))
        if isinstance(op, RecvOp):
            return (yield from self._recv(op))
        if isinstance(op, SleepOp):
            yield max(0, round(op.duration_ns * 1000))
            return None
        if isinstance(op, CyclesOp):
            delay = self.core.charge(op.cycles)
            if delay:
                yield delay
            return None
        if isinstance(op, PipeRecvOp):
            return (yield from self._pipe_recv(op))
        if isinstance(op, BarrierOp):
            for signal in op.signals:
                yield signal
            return None
        if op is None:
            yield None
            return None
        raise TaskError(f"task {self.name!r} yielded unsupported op {op!r}")

    def _ledger_cycles(self, entries: List[tuple], batch: int) -> float:
        model = self.core.model
        costs = model.costs
        freq = self.core.freq_hz
        total = 0.0
        for kind, arg in entries:
            if kind == "offload_ip":
                total += model.op_cycles(costs.offload_ip, freq, batch)
            elif kind == "offload_udp":
                total += model.op_cycles(costs.offload_udp, freq, batch)
            elif kind == "offload_tcp":
                total += model.op_cycles(costs.offload_tcp, freq, batch)
            elif kind == "modify":
                cost = costs.modify if arg <= 1 else costs.modify_two_cachelines
                total += model.op_cycles(cost, freq, batch)
            elif kind == "random":
                total += model.random_fields_cycles(arg, freq, batch)
            elif kind == "counter":
                total += model.counter_fields_cycles(arg, freq, batch)
            elif kind == "sw_checksum":
                total += costs.software_checksum_cost(arg) * batch
            else:
                raise TaskError(f"unknown ledger entry {kind!r}")
        return total

    def _send(self, op: SendOp):
        bufs = op.bufs
        batch = len(bufs)
        if batch == 0:
            return 0
        model = self.core.model
        cycles = model.op_cycles(model.costs.tx_base, self.core.freq_hz, batch)
        call_cost = model.costs.tx_call_overhead
        if call_cost.cycles or call_cost.stall_ns:
            cycles += model.op_cycles(call_cost, self.core.freq_hz, 1)
        cycles += self._ledger_cycles(bufs.drain_ledger(), batch)
        cycles += op.extra_cycles
        delay = self.core.charge(cycles)
        if delay:
            yield delay
        frames = materialize_frames(bufs.release())
        sim = op.queue.sim
        total = len(frames)
        pend = sim.open_send(frames)
        if pend is None:
            # A second concurrent send on this queue: undeclared busy-wait
            # protocol (the batch tier cannot model its park/wake instants).
            sent = sim.enqueue(frames)
            while sent < total:
                sent += sim.enqueue(frames, start=sent)
                if sent < total and sim.free_slots == 0:
                    yield sim.space_signal
            return total
        try:
            # Drive progress off the declared handle, not a local counter:
            # a batch kernel may have pushed the remainder arithmetically
            # while this task was parked, advancing ``pend.sent`` for us.
            sim.enqueue(frames)
            while pend.sent < total:
                sim.enqueue(frames, start=pend.sent)
                # Park only while the ring is genuinely full: the enqueue's
                # own kick may have drained descriptors into the NIC FIFO
                # already, in which case the next enqueue attempt succeeds
                # immediately (the busy-wait loop of a real DPDK app).
                if pend.sent < total and (sim.free_slots == 0 or pend.defer):
                    pend.parked = True
                    yield sim.space_signal
                    pend.parked = False
        finally:
            sim.close_send(pend)
        return total

    def _pipe_recv(self, op: PipeRecvOp):
        pipe = op.pipe
        deadline_ps: Optional[int] = None
        if op.timeout_ns is not None:
            deadline_ps = self.env.loop.now_ps + round(op.timeout_ns * 1000)
        while True:
            message = pipe.try_recv()
            if message is not None:
                return message
            if not self.env.running():
                return None
            if deadline_ps is not None:
                remaining = deadline_ps - self.env.loop.now_ps
                if remaining <= 0:
                    return None
                yield wait_any(self.env.loop, [pipe.data_signal], remaining)
            else:
                yield wait_any(
                    self.env.loop, [pipe.data_signal], self.env.poll_slice_ps
                )

    def _recv(self, op: RecvOp):
        sim = op.queue.sim
        deadline_ps: Optional[int] = None
        if op.timeout_ns is not None:
            deadline_ps = self.env.loop.now_ps + round(op.timeout_ns * 1000)
        while not sim.ring:
            if not self.env.running():
                op.bufs.adopt([])
                return 0
            if deadline_ps is not None:
                remaining = deadline_ps - self.env.loop.now_ps
                if remaining <= 0:
                    op.bufs.adopt([])
                    return 0
                yield wait_any(self.env.loop, [sim.packet_signal], remaining)
            else:
                # Never park unconditionally: wake at least at the stop
                # horizon so tasks notice env.running() turning false.
                yield wait_any(
                    self.env.loop, [sim.packet_signal], self.env.poll_slice_ps
                )
        frames = sim.fetch(op.bufs.size)
        packets = [RxPacket(f) for f in frames]
        op.bufs.adopt(packets)
        model = self.core.model
        cycles = model.op_cycles(model.costs.rx_base, self.core.freq_hz, len(frames))
        delay = self.core.charge(cycles)
        if delay:
            yield delay
        return len(frames)
