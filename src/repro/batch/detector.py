"""Run detection: when is a port's pending work a batchable event train?

A *train* is a maximal sequence of per-queue TX → DMA → serialize →
wire-delivery events whose timing and side effects are a pure function of
state already visible at the head of the train: frames staged in the MAC
FIFO (plus, for a single source queue, descriptors the prefetcher would
pull from its ring), a jitter-free wire, and a plain ``NicPort.receive``
sink.  Such a train can be executed arithmetically (``repro.batch.kernels``)
without scheduling its events, and the world at the next *observable*
instant — the next live event or the active ``run(until_ps=...)``
horizon — is bit-identical to what the discrete loop would have produced.

Since PR 7 a train spans the *whole pipeline*: TX queue → descriptor fetch
→ wire propagation → sink-port RX ring, including frames whose arrival
falls at or past the bound (they stay in flight: the kernel schedules
their real delivery events instead of delivering early), and including the
producer's park/wake backpressure sawtooth.  The latter rides on
:class:`repro.nicsim.nic.PendingSend`: a producer that declares its
blocking send lets the kernel compute, in closed form, the exact instants
its ring-space waits resolve — each descriptor fetch that crosses the
``space_wake_threshold`` refill line tops the ring up by the freed slots,
exactly the chunk the woken producer would have pushed synchronously from
inside ``_fetch_from_ring`` — without materializing the intermediate
events.  The wake that would *complete* the send still replays event-wise
(the producer's continuation is arbitrary user code).

``detect_train`` returns either a :class:`Train` or a stable reason string
(one of :data:`FALLBACK_REASONS`), in which case the caller must execute
event-by-event.  The rules mirror, check for check, the conditions the
event path consults per frame:

* per-frame observers force fidelity: an enabled tracer, tx observers, a
  wire that draws RNG per frame (jitter/corruption/loss), a fault injector
  targeting the wire, a DMA slowdown, or a sink that is not a plain
  ``NicPort.receive`` (e.g. :meth:`repro.dut.OvsForwarder.ingress`, which
  schedules interrupts relative to the *current* loop time and therefore
  must see every arrival as its own event);
* software parked on signals must wake at exact per-frame instants: rx
  ``packet_signal`` waiters fall back entirely, and tx ``space_signal``
  waiters either resolve to the declared :class:`PendingSend` (modeled in
  closed form) or bound the train with a *fetch budget* — the number of
  descriptor fetches that can run before the space signal would fire, so
  an unmodelable wakeup always replays event-wise at its precise instant;
* interleavings that depend on prefetch order fall back: descriptor
  fetches are only emulated for a single-queue port, and a FIFO train on a
  multi-queue port requires every unpaced ring to be empty;
* frames carrying a ``timestamp`` request end the train (the latch
  registers are order- and instant-sensitive);
* a kick running synchronously inside the ``enqueue`` of a producer no
  :class:`PendingSend` models falls back (``producer-mid-call``, or
  ``unbounded`` when the heap is empty): the producer's continuation is
  not scheduled yet, so no live event bounds the instant it next reads
  the port, and a train would drain the ring under it.  Only a kick
  *outside* any enqueue — a pure drain — or one whose producer declared a
  :class:`PendingSend` may batch.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.nicsim.link import Wire
from repro.nicsim.nic import NicPort

#: Heaps larger than this are not scanned for independent foreign chains
#: (the scan is O(heap) per detection; past this size the plain bound is
#: almost certainly dominated by near-term events anyway).
_SCAN_MAX = 2048

#: Stable fallback-reason vocabulary (docs/PERFORMANCE.md documents each).
#: ``Wire.batch_blocker`` contributes the ``wire-*`` and ``tracer``
#: reasons; everything else is attributed here or by the tier itself.
FALLBACK_REASONS: Tuple[str, ...] = (
    "tracer",               # enabled tracer records per-frame events
    "tx-observers",         # per-frame departure observers installed
    "dma-slowdown",         # fault: MAC occupancy is stretched per frame
    "no-wire",              # transmitting into the void
    "wire-unconnected",     # wire has no sink
    "wire-jitter",          # medium draws per-frame jitter (RNG)
    "wire-corruption",      # per-frame corruption draws (RNG)
    "wire-phy-framing",     # 10GBASE-T PHY-frame arrival quantization
    "wire-faulted",         # a fault injector targets this wire
    "wire-carrier-down",    # link flap in progress
    "wire-loss-model",      # Gilbert-Elliott style loss decider installed
    "sink-unbatchable",     # sink is not a plain NicPort.receive (e.g. DuT)
    "rx-waiters",           # software parked on the sink's rx signals
    "multi-queue-ring",     # prefetch/round-robin order depends on >1 ring
    "queue-stalled",        # fault: the only active queue is stalled
    "space-signal",         # the very next descriptor fetch would wake a
                            # parked producer that no PendingSend models
    "producer-mid-call",    # kick inside an undeclared producer's
                            # enqueue: its continuation, not scheduled
                            # yet, reads the port before any bound
    "unbounded",            # the same, with an empty heap
    "horizon",              # train detected, but no frame fits before the
                            # bound (accounted by the tier, not here)
)


class Train:
    """A detected batchable train, ready for ``kernels.run_train``.

    ``entries`` are the wire's detached in-flight ``(frame, arrival_ps)``
    pairs that land strictly before ``bound_ps``; the kernel delivers them
    at their original stamps (in-flight frames at or past the bound keep
    their real delivery events — the detector never detaches those).
    ``fetch_budget`` is ``None`` for unlimited descriptor fetches, or the
    exact number of fetches that may run before an *unmodeled* tx space
    signal would fire.  ``pend`` is the declared producer send the kernel
    models as a closed-form sawtooth (``None`` when there is none); budget
    and pend are mutually exclusive.  ``queue`` is the single source queue
    for fetch emulation and rate-limiter bookkeeping (``None`` for a
    multi-queue FIFO-only drain).  ``bound_ps`` is ``None`` for a pure
    drain bounded only by the staged work.
    """

    __slots__ = ("port", "wire", "queue", "paced", "bound_ps", "latency_ps",
                 "entries", "fetch_budget", "pend")

    def __init__(self, port, wire, queue, paced, bound_ps, latency_ps,
                 entries, fetch_budget, pend=None) -> None:
        self.port = port
        self.wire = wire
        self.queue = queue
        self.paced = paced
        self.bound_ps = bound_ps
        self.latency_ps = latency_ps
        self.entries = entries
        self.fetch_budget = fetch_budget
        self.pend = pend


def _space_signal_budget(queue) -> Optional[int]:
    """Fetches allowed before the queue's space signal would fire.

    With producers parked on ``space_signal``, the ring only shrinks for
    the duration of a train, so the trigger condition inside
    ``NicPort._fetch_from_ring`` (ring drained, or ``space_wake_threshold``
    slots free) is a pure function of the fetch count: after ``m`` fetches
    the ring holds ``len(ring) - m`` and ``free + m`` slots are free.  The
    first fetch that would trigger must instead happen event-wise — the
    woken producer runs at that exact instant — so the budget is one less.
    """
    if not queue.space_signal.has_waiters:
        return None
    ring_len = len(queue.ring)
    free = queue.ring_size - ring_len
    first_trigger = min(ring_len, max(1, queue.space_wake_threshold - free))
    return first_trigger - 1


def _resolve_pending(port, queue):
    """The queue's declared producer send, iff the kernel can model it.

    Two modelable shapes:

    * the producer is parked on ``space_signal`` and is its *sole* waiter
      — every trigger during the train resumes exactly that producer,
      whose behavior is pinned by the ``Task._send`` protocol: push
      ``min(free, remaining)`` descriptors, park again unless done;
    * this kick runs synchronously inside the producer's own ``enqueue``
      (it is about to observe the ring and either top it up or park) and
      nothing else is parked on the signal — the kernel replays the
      producer's deterministic top-up/park sequence at the kick instant.

    Anything else (a second waiter, an already-completed send) returns
    ``None`` and the caller falls back to the fetch-budget rule.
    """
    pend = queue.pending_send
    if pend is None or pend.sent >= pend.total:
        return None
    waiters = queue.space_signal._waiters
    if pend.parked:
        return pend if len(waiters) == 1 else None
    if port._in_enqueue == 1 and not waiters:
        # Exactly one enqueue on the stack: it must be the pend owner's
        # (an unparked declared producer is always inside its enqueue).
        # With two nested enqueues the inner one could belong to another
        # producer resumed mid-call — unattributable, so unmodelable.
        return pend
    return None


def _model_enqueue_spin(port, queue, pend) -> None:
    """Replay, at the detection instant, the declared producer's post-kick
    top-up spin — the deterministic tail of its in-flight ``enqueue``.

    The event path after this kick returns: the producer's ``Task._send``
    loop pushes ``min(free, remaining)`` descriptors, whose kick (MAC
    busy) only prefetches ring → FIFO, freeing ring slots, and repeats
    until the ring is full with the FIFO at capacity — or the send
    completes.  Every iteration is a pure state mutation at *this*
    instant, so performing it up front is exactly the event path; the
    caller then latches :attr:`PendingSend.defer` so the unwinding
    producer observes "no progress" and parks, and refuses the train
    outright if the spin *completed* (the continuation would be
    arbitrary user code at this instant).

    ``_prefetch`` is safe to call for real: the tracer is disabled and
    the space signal has no waiters (both preconditions of resolving
    this pend shape), so no side channel fires.
    """
    ring = queue.ring
    ring_size = queue.ring_size
    frames = pend.frames
    dp = port.dataplane
    now_ps = port.loop.now_ps
    while pend.sent < pend.total:
        free = ring_size - len(ring)
        if free <= 0:
            break
        rem = pend.total - pend.sent
        take = rem if rem < free else free
        if dp is not None:
            # The spin replays the producer's ``enqueue`` at this instant,
            # which would stamp each accepted frame's ring-entry time.
            for f in frames[pend.sent:pend.sent + take]:
                f.meta["dp_enq_ps"] = now_ps
        ring.extend(frames[pend.sent:pend.sent + take])
        pend.sent += take
        port._prefetch()


def _delivery_independent(w, port, sink_port) -> bool:
    """A foreign wire's pending deliveries cannot touch our train's state.

    True iff ``w`` delivers into a plain, filter-free ``NicPort.receive``
    on a port that is neither our TX port nor our sink, with no software
    parked on its rx signals — then each ``_deliver_due`` is a pure
    mutation of that foreign port's rx ring and counters.
    """
    if w is port.wire:
        return False
    sink = w.sink
    target = getattr(sink, "__self__", None)
    if (target is None
            or getattr(sink, "__func__", None) is not NicPort.receive
            or not isinstance(target, NicPort)):
        return False
    if target is port or target is sink_port:
        return False
    if target.rx_filter is not None:
        return False
    return target.batch_ready_rx()


def _tx_chain_independent(p, port, sink_port) -> bool:
    """A foreign port's MAC events cannot interact with our train.

    True iff ``p``'s ``_mac_done``/``_mac_kick`` chain only mutates its
    own pipeline: ``p`` is neither endpoint of our train, no enqueue of
    its is on the stack (a mid-call producer reacts to post-kick state),
    it has no per-frame observers, it shares no *capped* card with our
    port (a capped card's per-frame MAC time reads the card's live
    active-port set, coupling the two chains' arithmetic), none of its
    queues has a producer parked on ``space_signal`` (a wake would run
    arbitrary user code mid-span), and its wire delivers independently.
    """
    if p is port or p is sink_port:
        return False
    if p._in_enqueue or p.tx_observers:
        return False
    if p.card is port.card and port.card._card_capped:
        return False
    for q in p.tx_queues:
        if q.space_signal._waiters:
            return False
    w = p.wire
    if w is not None and not _delivery_independent(w, port, sink_port):
        return False
    return True


def _chain_bound(loop, port, sink_port, plain_bound: int) -> Optional[int]:
    """Extend ``plain_bound`` past provably independent foreign chains.

    The plain bound is the very next live event — but on a multi-pipeline
    topology that event is usually another port's per-frame ``_mac_done``,
    strangling every train to a frame or two even though the two chains
    never touch.  This scans the loop's pending entries once for the
    earliest event that is *not* a skippable foreign-chain event
    (``_mac_done``/``_mac_kick`` of an independent port, ``_deliver_due``
    of an independent wire) and bounds there instead, folded with the
    active run horizon.

    Skipped events are skipped from *bounding only* — they still execute
    at their real instants, in time order, after the kernel returns; the
    independence predicates guarantee their mutations are disjoint from
    everything the kernel reads or writes, so the world at the extended
    bound is the same either way.  Task resumes, ``wait_any`` timeouts,
    and any unclassified callback are never skipped, which also pins the
    no-new-waiters invariant: a waiter can only appear when a task runs,
    and tasks only run at non-skipped events.

    Returns the extended bound, ``None`` for "no intrinsic event bound at
    all" (every live event skippable, no horizon), or ``plain_bound``
    unchanged when the scan bails (live same-instant lane work, or an
    oversized pending set).
    """
    if loop._lane_live:
        return plain_bound
    if loop.entry_count() > _SCAN_MAX:
        return plain_bound
    best: Optional[int] = None
    verdicts = {}
    for time_ps, event in loop.iter_entries():
        if event.cancelled:
            continue
        if best is not None and time_ps >= best:
            continue
        cb = event.callback
        func = getattr(cb, "__func__", None)
        if func is NicPort._mac_done or func is NicPort._mac_kick:
            owner = cb.__self__
            verdict = verdicts.get(id(owner))
            if verdict is None:
                verdict = _tx_chain_independent(owner, port, sink_port)
                verdicts[id(owner)] = verdict
        elif func is Wire._deliver_due:
            owner = cb.__self__
            verdict = verdicts.get(id(owner))
            if verdict is None:
                verdict = _delivery_independent(owner, port, sink_port)
                verdicts[id(owner)] = verdict
        else:
            verdict = False
        if not verdict:
            best = time_ps
    until = loop._until_ps
    if until is not None and (best is None or until < best):
        best = until
    return best


def detect_train(port: NicPort, start_ps: int) -> Union[Train, str]:
    """Inspect ``port`` mid-kick; return a :class:`Train` or a reason string.

    Called by :meth:`repro.batch.BatchTier.execute` from inside
    ``NicPort._mac_kick`` right after a frame entered the MAC (its
    occupancy ends at ``start_ps``).  On success the wire's pre-bound
    in-flight entries are already detached and owned by the returned
    train (later arrivals keep their delivery events); on fallback the
    wire is left exactly as found.
    """
    loop = port.loop
    if loop.tracer is not None:
        return "tracer"
    if port.tx_observers:
        return "tx-observers"
    if port.dma_slowdown != 1.0:
        return "dma-slowdown"
    wire = port.wire
    if wire is None:
        return "no-wire"
    blocker = wire.batch_blocker()
    if blocker is not None:
        return blocker
    sink = wire.sink
    memo = port._batch_sink
    if memo is not None and memo[0] is wire and memo[1] is sink:
        sink_port = memo[2]
    else:
        sink_port = getattr(sink, "__self__", None)
        if (sink_port is None
                or getattr(sink, "__func__", None) is not NicPort.receive
                or not isinstance(sink_port, NicPort)):
            return "sink-unbatchable"
        port._batch_sink = (wire, sink, sink_port)
    if not sink_port.batch_ready_rx():
        return "rx-waiters"

    queues = port.tx_queues
    if port._fifo:
        # FIFO train: the MAC drains staged frames; descriptor fetches are
        # emulated only for a single-queue port (multi-queue prefetch
        # interleaving is order-dependent), and only off an unpaced queue
        # (the prefetcher skips paced rings).
        if len(queues) == 1:
            queue = queues[0]
        else:
            if any(q.ring for q in queues if not q.rate_bps):
                return "multi-queue-ring"
            queue = None
        paced = False
    else:
        # Paced ring train: the MAC is idle between pacing ticks and frames
        # come straight off exactly one eligible ring on the limiter's
        # schedule.  (An unpaced non-empty ring with an empty FIFO cannot
        # reach here: this kick's prefetch would have staged it.)
        active = [q for q in queues if q.ring and not q.stalled]
        if not active:
            return "queue-stalled"
        if len(active) > 1:
            return "multi-queue-ring"
        queue = active[0]
        if not queue.rate_bps:
            return "multi-queue-ring"
        paced = True

    # Backpressure modeling.  Fetches happen off an unpaced single ring
    # (FIFO prefetch) or the paced ring itself; a declared producer send
    # is modeled as a sawtooth, an undeclared parked producer bounds the
    # train with a fetch budget, and an undeclared producer caught
    # mid-``enqueue`` with frames still in hand refuses outright.
    pend = None
    budget = None
    fetches_possible = queue is not None and (paced or not queue.rate_bps)
    if fetches_possible:
        pend = _resolve_pending(port, queue)
    if port._in_enqueue and port._enqueue_short and (
            pend is None or pend.parked):
        # The producer whose partial ``enqueue`` this kick runs inside is
        # not the one ``pend`` models (a parked pend owner cannot be
        # mid-call): its continuation reads the ring at this instant.
        return "producer-mid-call"
    if pend is not None and not pend.parked:
        # Shape (b): this kick runs inside the declared producer's own
        # ``enqueue``.  Its continuation is the deterministic top-up spin
        # of ``Task._send`` — perform it now (pure mutations at this
        # instant), then latch ``defer`` so the unwinding producer parks
        # instead of re-reading a ring the kernel has advanced past this
        # instant.  A spin that *completes* the send hands control to
        # arbitrary user code right here: refuse.
        _model_enqueue_spin(port, queue, pend)
        if pend.sent >= pend.total:
            return "producer-mid-call"
        pend.defer = True
    if pend is None:
        if fetches_possible:
            budget = _space_signal_budget(queue)
            if paced and budget == 0:
                # The very next fetch — which a paced train needs for its
                # very next frame — would wake a parked producer: nothing
                # to batch.
                return "space-signal"

    # Detach the wire's in-flight entries *before* computing the bound —
    # their drain events would otherwise clamp it to the very next
    # arrival.  Entries landing at/after the bound are put straight back
    # (their delivery events stay real); the kernel owns only the prefix.
    entries = wire.detach_pending()
    bound = loop.batch_bound_ps()
    if port._in_enqueue and (pend is None or pend.parked):
        # This kick runs synchronously inside the ``enqueue`` of a producer
        # no ``PendingSend`` models.  Its continuation is arbitrary code
        # whose next event is not scheduled yet, so no bound covers the
        # instant it next reads the port: a train would drain the ring
        # under it and change what it observes (counters, free slots,
        # its park/resume instants).  With an empty heap the refusal
        # reads ``unbounded``.  A declared send (``pend``) or a kick
        # outside any enqueue (a pure drain: link-up, fault-clear,
        # ``_mac_done``) is bounded by live events or by the staged work.
        wire.reattach_pending(entries)
        return "unbounded" if bound is None else "producer-mid-call"
    if bound is not None:
        # Cross-chain extension: push the bound past provably independent
        # foreign TX chains' per-frame events (the multi-pipeline case
        # where two disjoint port->sink flows otherwise strangle each
        # other's trains to single frames).
        bound = _chain_bound(loop, port, sink_port, bound)
    if bound is not None and bound <= start_ps:
        # The next live event lands before the in-flight frame's MAC even
        # ends: no frame can serialize before the bound, so skip the
        # kernel dispatch outright (the common shape right after a train
        # ran up against a producer timer).  In-flight deliveries keep
        # their real events.
        wire.reattach_pending(entries)
        return "horizon"
    if bound is not None and entries and entries[-1][1] >= bound:
        # Split at the bound: the suffix stays in flight with real
        # delivery events; the kernel delivers the prefix synchronously.
        split = len(entries) - 1
        while split > 0 and entries[split - 1][1] >= bound:
            split -= 1
        wire.reattach_pending(entries[split:])
        entries = entries[:split]
    return Train(port, wire, queue, paced, bound, wire._latency_ps,
                 entries, budget, pend)
