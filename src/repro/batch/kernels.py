"""Batch kernels: execute a detected train arithmetically.

Each kernel replays, in plain arithmetic, exactly the per-frame work the
event loop would have performed — the same descriptor fetches (with their
recycle hooks and space-signal bookkeeping), the same rate-limiter
advances (including the tick-quantization error carry), the same wire
serialization/arrival stamps via :meth:`Wire.fast_transmit`, and the same
synchronous deliveries through the sink port's real ``receive``.  Only the
*events* are skipped; every counter, register, and queue ends up at the
value the discrete loop would have produced at the next observable
instant.

Two kernels:

* :func:`_fifo_train` — the MAC drains staged FIFO frames back to back.
  Per kick it first emulates the descriptor prefetch (single unpaced
  source queue only, bounded by the train's space-signal fetch budget),
  then transmits the FIFO head.  Once no further fetch can occur, the
  remaining drain is *planned* in closed form for uniform frame sizes or
  with one cumulative scan for mixed sizes, and delivered in a tight loop
  without per-frame bound checks.
* :func:`_paced_ring_train` — hardware rate control: frames leave at
  ``max(next_allowed, mac_free)`` and the limiter advances per frame
  through the exact event-path arithmetic (``_advance_rate_limiter``),
  so the ±tick dithering the paper measures in Section 7.3 is preserved
  bit for bit.

A train stops at the first of: the bound (next live event / run horizon),
a timestamp-marked frame, the space-signal fetch budget,
or ring + FIFO exhaustion.  Unbounded trains (``bound_ps is None`` —
nothing else live in the heap) drain to exhaustion and additionally
schedule the wire's final delivery instant, so the loop clock ends where
the event path's last arrival would have left it.  The caller schedules
the port's ``_mac_done`` at the returned MAC-free time, so whatever
stopped the train replays event-wise at its exact instant.
"""

from __future__ import annotations

from itertools import islice as _islice
from types import MethodType as _MethodType
from typing import Tuple

from repro import units
from repro.core.memory import PacketBuffer as _PacketBuffer
from repro.errors import QueueError

_PB_RECYCLE = _PacketBuffer.recycle

#: Minimum drain length worth a planning pass at all.
_PLAN_MIN = 16
#: Minimum planned span worth the bulk drop path's prefix scan.
_BULK_MIN = 8


def run_train(train, start_ps: int) -> Tuple[int, int]:
    """Execute ``train``; returns ``(mac_free_ps, frames_sent)``.

    Delivers the train's detached in-flight entries first (their original
    arrival stamps, in arrival order — exactly the calls the cancelled
    drain events would have made), then dispatches to the paced or FIFO
    kernel.
    """
    entries = train.entries
    if entries:
        sink = train.wire.sink
        for frame, arrival in entries:
            sink(frame, arrival)
    if train.paced:
        end_ps, sent = _paced_ring_train(train, start_ps)
    else:
        end_ps, sent = _fifo_train(train, start_ps)
    if train.bound_ps is None and (sent or entries):
        # Unbounded (pure-drain) train: a bounded plan only sends frames
        # arriving strictly before the bound event, but here the last
        # arrivals land *after* the ``_mac_done`` the caller schedules —
        # with cable latency, after every remaining event.  The event path
        # would have ended the lull on the wire's own drain event at the
        # final delivery stamp; schedule that exact (now no-op) event so
        # the loop clock advances identically.
        wire = train.wire
        last = wire._last_delivery_ps
        if last > end_ps:
            wire.loop.schedule_at(last, wire._deliver_due)
    return end_ps, sent


def _plan_drain(fifo, card, speed, end_ps, bound, latency) -> int:
    """How many leading FIFO frames fit before ``bound``, given that no
    descriptor fetch can occur for the rest of the train.

    Closed form for a uniform-size prefix (the steady-state CBR shape:
    zero per-frame arithmetic beyond the membership scan), then one
    cumulative scan over the rest.  Frames carrying a ``timestamp``
    request end the plan — the scalar caller names the stop.  An
    unbounded drain plans only the uniform prefix.
    """
    first = fifo[0][0]
    if first.meta.get("timestamp"):
        return 0
    size0 = first.size
    mac0 = card.effective_frame_time_ps(first, speed)
    if bound is None:
        headroom = None
        limit = len(fifo)
    else:
        # Frame k (1-based) is sendable iff end + k*mac + latency < bound,
        # i.e. its cumulative MAC time stays <= headroom.
        headroom = bound - latency - end_ps - 1
        if headroom < mac0:
            return 0
        limit = min(len(fifo), headroom // mac0)
    n = 0
    while n < limit:
        frame = fifo[n][0]
        if frame.size != size0 or frame.meta.get("timestamp"):
            break
        n += 1
    if headroom is None:
        return n
    # The uniform prefix fits (n <= limit), and every MAC time is
    # positive, so the cumulative sum crosses the headroom at most once:
    # the plan is every frame scanned before it does.  A smaller frame may
    # still fit after a prefix cut at ``limit``.
    total = n * mac0
    for i in range(n, len(fifo)):
        frame = fifo[i][0]
        if frame.meta.get("timestamp"):
            return i
        total += card.effective_frame_time_ps(frame, speed)
        if total > headroom:
            return i
    return len(fifo)


def _fifo_train(train, start_ps: int) -> Tuple[int, int]:
    port = train.port
    wire = train.wire
    fifo = port._fifo
    card = train.port.card
    eff_time = card.effective_frame_time_ps
    speed = port.speed_bps
    bound = train.bound_ps
    latency = train.latency_ps
    source = train.queue
    budget = train.fetch_budget
    fifo_cap = port.chip.tx_fifo_bytes
    # Declared producer send: modeled as a closed-form sawtooth.  Each
    # descriptor fetch that crosses the wake line (ring drained, or
    # ``space_wake_threshold`` slots free) tops the ring up by exactly
    # the freed slots — the ``min(free, remaining)`` chunk the woken
    # ``Task._send`` would push synchronously from inside the fetch's
    # signal trigger, with no cycle charge — and the producer re-parks.
    # The wake that would *complete* the send stops the train before its
    # fetch: the scheduled ``_mac_done`` replays it event-wise, and the
    # producer's continuation (arbitrary user code) runs at its exact
    # event-path instant.
    pend = train.pend
    if pend is not None:
        pframes = pend.frames
        psent = pend.sent
        ptotal = pend.total
        ring_size = source.ring_size
        wake_thresh = source.space_wake_threshold
    # The prefetcher only pulls from an unpaced single-queue ring; a rate
    # set after frames were staged still advances the limiter per frame.
    can_fetch = source is not None and not source.rate_bps
    ring = source.ring if source is not None else None
    fifo_bytes = port._fifo_bytes

    # Wire state, mirrored locally for the duration of the train (written
    # back at the end).  ``fast_transmit`` is inlined below: frame k's MAC
    # slot starts at the previous frame's MAC end, which is at or after the
    # previous wire end (MAC occupancy >= serialization time), so only the
    # first frame can hit the busy/arrival clamps.
    ser_cache = wire._ser_cache
    wire_busy = wire.busy_until_ps
    wire_last = wire._last_delivery_ps

    # Rx-side state for the inlined plain ``NicPort.receive``.  The sink
    # is a bound NicPort.receive (detector-guaranteed); the inline path
    # additionally needs no per-frame timestamping and no rx filter, and
    # handles ring overflow exactly like ``receive`` (counters + pool
    # release).  Waiters cannot appear and ``frozen`` cannot change
    # mid-train: both would need an event, and the train ends before the
    # next one.
    sink_port = wire.sink.__self__
    sink_chip = sink_port.chip
    hw_ts = sink_chip.hw_timestamping
    # In-dataplane observation (``repro.metrics.dataplane``): the kernel
    # performs the exact per-frame observations the event path would, in
    # the same order, so histogram *sums* (order-dependent float
    # accumulation) come out bit-identical.  Tx-queue residence latches in
    # the fetch block at the kick instant; wire hop / e2e latch in the
    # inlined fast_transmit below.  Observation disables the inline rx
    # shortcut (and with it the fused and bulk sub-paths, which skip the
    # per-frame wire stamps and ``receive``): deliveries go through the
    # sink port's real ``receive``, which latches rx inter-arrival itself.
    dp = port.dataplane
    dp_txq = (dp.txq[source.index]
              if dp is not None and source is not None else None)
    dp_hop = wire.dp_hop
    dp_e2e = wire.dp_e2e
    observing = (dp is not None or dp_hop is not None
                 or sink_port.dataplane is not None)
    inline_rx = (sink_port.rx_filter is None
                 and not (hw_ts and sink_chip.timestamp_all_rx)
                 and not observing)
    rxq = sink_port.rx_queues[0] if inline_rx else None
    rx_ring = rxq.ring if inline_rx else None
    rx_cap = -1 if (inline_rx and rxq.frozen) else (
        rxq.ring_size if inline_rx else 0)
    rx_ok = 0
    rx_ok_bytes = 0
    rx_seen = 0
    rx_seen_bytes = 0
    rx_missed = 0

    # Per-size memo for MAC time and wire serialization: card caps can
    # depend on *other* ports' activity, which cannot change mid-train, so
    # (size -> mac_time, ser) is stable for the train's duration.
    mt_size = -1
    mt_val = 0
    mt_ser = 0
    wire_speed = wire.speed_bps
    # Drop-path pool memo (one pool feeds a transmit loop in practice).
    lp_pool = None
    lp_free = None
    lp_max = 0

    # Single unpaced source queue: every FIFO entry belongs to it, its
    # limiter reset writes ``next_allowed_ps = <MAC start>`` per frame
    # (final value: the last frame's), and its tx counters add up — all
    # hoistable to one write-back after the loop.  ``rate_bps`` cannot
    # change mid-train (software runs in events).
    hoist_q = (source is not None and not source.rate_bps
               and len(port.tx_queues) == 1)

    fetches = 0
    end_ps = start_ps
    sent = 0
    sent_bytes = 0
    while True:
        if can_fetch and (bound is None or end_ps < bound):
            # Descriptor DMA the event path would run at this kick — the
            # kick at ``end_ps``.  When that kick lies at/past the bound
            # (possible only on the first iteration: ``start_ps`` is the
            # in-flight frame's MAC end, which the bound does not clamp),
            # the event path runs its prefetch *after* the bound, so
            # modeling it here would leak future fetches into state an
            # observer at the bound can see.  Skip it: the scheduled
            # ``_mac_done`` performs it for real.
            # A
            # fetch past the budget would fire the space signal, and the
            # woken producer must run at this exact instant: stop the
            # train *before* the kick — the scheduled ``_mac_done``
            # replays it event-wise (the fetches already emulated stay;
            # the event-path kick continues from the same ring head).
            # ``_fetch_from_ring`` is inlined minus tracer (disabled) and
            # the space-signal check (the budget proves it cannot fire;
            # without waiters there is no budget and nothing to wake).
            hit_budget = False
            while ring and fifo_bytes < fifo_cap:
                if budget is not None and fetches >= budget:
                    hit_budget = True
                    break
                wake = 0
                if pend is not None:
                    # Post-pop ring occupancy decides the wake, exactly
                    # the check ``_fetch_from_ring`` performs after
                    # popping.
                    ring_len = len(ring) - 1
                    free_after = ring_size - ring_len
                    if ring_len == 0 or free_after >= wake_thresh:
                        if ptotal - psent <= free_after:
                            # Completing wake: stop before this fetch.
                            hit_budget = True
                            break
                        wake = free_after
                frame = ring.popleft()
                if dp_txq is not None:
                    # The event path fetches at this kick's instant
                    # (``end_ps``), so tx-queue residence closes there.
                    enq = frame.meta.get("dp_enq_ps")
                    if enq is not None:
                        dp_txq.observe((end_ps - enq) / 1000.0)
                recycle = frame.recycle
                if recycle is not None:
                    frame.recycle = None
                    if (type(recycle) is _MethodType
                            and recycle.__func__ is _PB_RECYCLE):
                        # PacketBuffer.recycle -> MemPool.give_back, inlined.
                        buf = recycle.__self__
                        if buf.in_pool:
                            raise QueueError(
                                "double free of a packet buffer")
                        buf.in_pool = True
                        bpool = buf.pool
                        bpool._free.append(buf)
                        fsig = bpool.free_signal
                        if fsig._waiters:
                            fsig.trigger()
                    else:
                        recycle()
                fifo.append((frame, source))
                fifo_bytes += frame.size
                fetches += 1
                if wake:
                    if dp is not None:
                        # The woken producer's ``enqueue`` would stamp
                        # these at the kick instant (``end_ps``), not the
                        # detection instant the loop clock still shows.
                        for f in pframes[psent:psent + wake]:
                            f.meta["dp_enq_ps"] = end_ps
                    ring.extend(pframes[psent:psent + wake])
                    psent += wake
            if hit_budget:
                break
        if not fifo:
            break
        if (can_fetch and ring and hoist_q and inline_rx
                and len(rx_ring) >= rx_cap):
            # Fused steady-state cycles.  With the FIFO topped up and the
            # ring still holding descriptors, the event path strictly
            # alternates one head drain with one same-size fetch (each
            # drained byte re-opens exactly one fetched byte of FIFO
            # room), the rx ring is full (every drain overflows back into
            # its frame pool), and — as in the bulk drop path — an
            # unclamped first frame makes the wire stamps a pure
            # arithmetic progression.  Process ``n`` whole cycles at
            # once, where ``n`` stops short of the first wake line,
            # budget exhaustion, bound crossing, pool-capacity edge, or
            # non-uniform frame; the outer loop replays whichever of
            # those comes next through the exact scalar arithmetic.
            frame0 = fifo[0][0]
            size0 = frame0.size
            if size0 != mt_size:
                mt_val = eff_time(frame0, speed)
                mt_ser = ser_cache.get(size0)
                if mt_ser is None:
                    mt_ser = units.frame_time_ps(size0, wire_speed)
                    ser_cache[size0] = mt_ser
                mt_size = size0
            mac_time = mt_val
            pool0 = frame0.pool
            # Rx-side PTP latch precheck, per segment: frames under 80
            # bytes can only be PTP-over-Ethernet (EtherType 0x88F7), so
            # a per-frame byte-12 test below suffices; larger frames
            # would need the full ``is_ptp`` parse — leave those to the
            # scalar path, which performs it.
            hw12 = hw_ts and size0 > 16
            n = 0 if (hw_ts and size0 >= 80) else len(ring)
            if pend is not None:
                # First wake fires at the fetch whose post-pop occupancy
                # drains the ring or frees ``wake_thresh`` slots; stay
                # strictly before it.
                p_wake = n - (ring_size - wake_thresh)
                n = (p_wake if p_wake < n else n) - 1
            if budget is not None:
                rem = budget - fetches
                if rem < n:
                    n = rem
            if bound is not None:
                n_b = (bound - latency - end_ps - 1) // mac_time
                if n_b < n:
                    n = n_b
            room = lp_max - len(lp_free) if pool0 is lp_pool else 0
            if pool0 is not None and pool0 is not lp_pool:
                lp_pool = pool0
                lp_free = pool0._free
                lp_max = pool0.max_free
                room = lp_max - len(lp_free)
            if room < n:
                n = room
            if (n >= _BULK_MIN and pool0 is not None
                    and wire_busy <= end_ps
                    and wire_last < end_ps + mt_ser + latency):
                m = 0
                for rf in _islice(ring, n):
                    if rf.size != size0:
                        break
                    m += 1
                if m < n:
                    n = m
                k = 0
                if n >= _BULK_MIN:
                    # Drain-and-release in one pass: a frame that fails a
                    # check simply ends the segment at ``k`` whole cycles
                    # (any smaller ``n`` is an equally valid segment).
                    pop_fifo = fifo.popleft
                    lp_append = lp_free.append
                    while k < n:
                        f = fifo[0][0]
                        if (f.size != size0 or not f.fcs_ok
                                or f.pool is not pool0
                                or f.meta.get("timestamp")
                                or (hw12 and f.data[12] == 0x88)):
                            break
                        pop_fifo()
                        f.pool = None
                        f.data = b""
                        if f.meta:
                            f.meta = {}
                        lp_append(f)
                        k += 1
                if k:
                    rpop = ring.popleft
                    fappend = fifo.append
                    seg_pool = None
                    for _ in range(k):
                        frame = rpop()
                        rec = frame.recycle
                        if rec is not None:
                            frame.recycle = None
                            if (type(rec) is _MethodType
                                    and rec.__func__ is _PB_RECYCLE):
                                buf = rec.__self__
                                if buf.in_pool:
                                    raise QueueError(
                                        "double free of a packet buffer")
                                buf.in_pool = True
                                bpool = buf.pool
                                if bpool is not seg_pool:
                                    seg_pool = bpool
                                    seg_append = bpool._free.append
                                    seg_sig = bpool.free_signal
                                seg_append(buf)
                                if seg_sig._waiters:
                                    seg_sig.trigger()
                            else:
                                rec()
                        fappend((frame, source))
                    fetches += k
                    kb = k * size0
                    rx_seen += k
                    rx_seen_bytes += kb
                    rx_missed += k
                    sent += k
                    sent_bytes += kb
                    end_ps += k * mac_time
                    wire_busy = end_ps - mac_time + mt_ser
                    wire_last = wire_busy + latency
                    last_mac = mac_time
                    continue
        plan = 0
        if (not can_fetch or not ring) and len(fifo) >= _PLAN_MIN:
            # Pure drain from here on: no fetch can interleave, so the
            # whole remaining span is plannable in one pass and the
            # per-frame timestamp/bound checks are skipped for it.
            plan = _plan_drain(fifo, card, speed, end_ps, bound, latency)
            if (plan >= _BULK_MIN and hoist_q and inline_rx
                    and len(rx_ring) >= rx_cap):
                # Bulk drop path: the rx ring is full (it cannot drain
                # mid-train — that would take an event), so every planned
                # frame overflows straight back into its buffer pool.
                # For a uniform-size, clean-FCS, single-pool prefix the
                # per-frame work collapses to the shell release, and the
                # wire stamps close over the span: MAC occupancy >= wire
                # serialization means no frame after an unclamped one can
                # hit the busy/arrival clamps, so requiring frame 0
                # unclamped (the two preconditions below) makes every
                # start/arrival a pure arithmetic progression.
                frame0 = fifo[0][0]
                size0 = frame0.size
                if size0 != mt_size:
                    mt_val = eff_time(frame0, speed)
                    mt_ser = ser_cache.get(size0)
                    if mt_ser is None:
                        mt_ser = units.frame_time_ps(size0, wire_speed)
                        ser_cache[size0] = mt_ser
                    mt_size = size0
                pool0 = frame0.pool
                # Same per-segment PTP precheck as the fused path.
                hw12 = hw_ts and size0 > 16
                if (pool0 is not None and not (hw_ts and size0 >= 80)
                        and wire_busy <= end_ps
                        and wire_last < end_ps + mt_ser + latency):
                    if pool0 is not lp_pool:
                        lp_pool = pool0
                        lp_free = pool0._free
                        lp_max = pool0.max_free
                    room = lp_max - len(lp_free)
                    cap = plan if plan < room else room
                    bulk = []
                    bappend = bulk.append
                    for entry in _islice(fifo, cap):
                        f = entry[0]
                        if (f.size != size0 or not f.fcs_ok
                                or f.pool is not pool0
                                or (hw12 and f.data[12] == 0x88)):
                            break
                        bappend(f)
                    k = len(bulk)
                    if k:
                        if k == len(fifo):
                            fifo.clear()
                        else:
                            pop = fifo.popleft
                            for _ in range(k):
                                pop()
                        # Released-and-cleared, as in the scalar drop
                        # path: ``receive`` replaces meta wholesale, so
                        # the tx stamp is unobservable — skip it.
                        for f in bulk:
                            f.pool = None
                            f.data = b""
                            if f.meta:
                                f.meta = {}
                        lp_free.extend(bulk)
                        kb = k * size0
                        mac_time = mt_val
                        fifo_bytes -= kb
                        rx_seen += k
                        rx_seen_bytes += kb
                        rx_missed += k
                        sent += k
                        sent_bytes += kb
                        end_ps += k * mac_time
                        wire_busy = end_ps - mac_time + mt_ser
                        wire_last = wire_busy + latency
                        last_mac = mac_time
                        plan -= k
                        if not fifo:
                            break
        while True:
            frame = fifo[0][0]
            meta = frame.meta
            if plan <= 0:
                if meta.get("timestamp"):
                    fifo_stop = True
                    break
                size = frame.size
                if size != mt_size:
                    mt_val = eff_time(frame, speed)
                    mt_ser = ser_cache.get(size)
                    if mt_ser is None:
                        mt_ser = units.frame_time_ps(size, wire_speed)
                        ser_cache[size] = mt_ser
                    mt_size = size
                mac_time = mt_val
                if bound is not None and end_ps + mac_time + latency >= bound:
                    fifo_stop = True
                    break
            else:
                size = frame.size
                if size != mt_size:
                    mt_val = eff_time(frame, speed)
                    mt_ser = ser_cache.get(size)
                    if mt_ser is None:
                        mt_ser = units.frame_time_ps(size, wire_speed)
                        ser_cache[size] = mt_ser
                    mt_size = size
                mac_time = mt_val
            if hoist_q:
                fifo.popleft()
            else:
                fq = fifo.popleft()[1]
            fifo_bytes -= size
            # -- wire (fast_transmit, inlined) --
            start_w = end_ps if end_ps > wire_busy else wire_busy
            wire_busy = start_w + mt_ser
            arrival = wire_busy + latency
            if arrival <= wire_last:
                arrival = wire_last + 1
            wire_last = arrival
            if dp_hop is not None and frame.fcs_ok:
                # Mirrors ``Wire.fast_transmit``: hop residence and
                # end-to-end, FCS-valid frames only.
                dp_hop.observe((arrival - start_w) / 1000.0)
                enq = meta.get("dp_enq_ps")
                if enq is not None:
                    dp_e2e.observe((arrival - enq) / 1000.0)
            # -- delivery (plain receive, inlined where possible) --
            # The PTP precheck mirrors ``is_ptp``: PTP-over-UDP needs
            # size >= 80, PTP-over-Ethernet needs EtherType 0x88F7, so a
            # small frame whose 13th byte isn't 0x88 can't latch.
            if inline_rx and frame.fcs_ok and not (
                hw_ts and (size >= 80
                           or (size > 16 and frame.data[12] == 0x88))
                and frame.is_ptp()
            ):
                rx_seen += 1
                rx_seen_bytes += size
                if len(rx_ring) < rx_cap:
                    meta["tx_start_ps"] = end_ps
                    rx_ring.append(frame)
                    rx_ok += 1
                    rx_ok_bytes += size
                else:
                    rx_missed += 1
                    pool = frame.pool
                    if pool is not lp_pool:
                        lp_pool = pool
                        if pool is not None:
                            lp_free = pool._free
                            lp_max = pool.max_free
                    if pool is not None and len(lp_free) < lp_max:
                        # Released-and-cleared: ``receive`` replaces the
                        # meta dict wholesale, so the tx stamp the event
                        # path wrote first is unobservable — skip it.
                        frame.pool = None
                        frame.data = b""
                        if frame.meta:
                            frame.meta = {}
                        lp_free.append(frame)
                    else:
                        meta["tx_start_ps"] = end_ps
                        if pool is not None:
                            frame.pool = None
            else:
                meta["tx_start_ps"] = end_ps
                sink_port.receive(frame, arrival)
            if hoist_q:
                last_mac = mac_time
            else:
                fq.tx_packets += 1
                fq.tx_bytes += size
                if fq.rate_bps <= 0:
                    fq.next_allowed_ps = end_ps
                else:
                    fq._advance_rate_limiter(end_ps, frame)
            end_ps += mac_time
            sent += 1
            sent_bytes += size
            plan -= 1
            if plan == 0 and not fifo:
                fifo_stop = True
                break
            if can_fetch and ring and fifo_bytes < fifo_cap:
                # Back to the fetch block: a freed FIFO byte re-enables
                # the descriptor DMA the event path would run next kick.
                fifo_stop = False
                break
            if not fifo:
                fifo_stop = True
                break
        if fifo_stop:
            break
    if pend is not None:
        # The woken producer (or its deferred in-flight enqueue) resumes
        # from exactly this offset.
        pend.sent = psent
    port._fifo_bytes = fifo_bytes
    wire.busy_until_ps = wire_busy
    wire._last_delivery_ps = wire_last
    if sent:
        wire.frames_sent += sent
        wire.bytes_sent += sent_bytes
        port.tx_packets += sent
        port.tx_bytes += sent_bytes
        if hoist_q:
            source.tx_packets += sent
            source.tx_bytes += sent_bytes
            source.next_allowed_ps = end_ps - last_mac
    if rx_seen:
        sink_port.rx_packets += rx_seen
        sink_port.rx_bytes += rx_seen_bytes
    if rx_ok:
        rxq.rx_packets += rx_ok
        rxq.rx_bytes += rx_ok_bytes
    if rx_missed:
        sink_port.rx_missed += rx_missed
    return end_ps, sent


def _paced_ring_train(train, start_ps: int) -> Tuple[int, int]:
    port = train.port
    wire = train.wire
    queue = train.queue
    ring = queue.ring
    card = port.card
    speed = port.speed_bps
    bound = train.bound_ps
    latency = train.latency_ps
    budget = train.fetch_budget
    pend = train.pend
    if pend is not None:
        pframes = pend.frames
        psent = pend.sent
        ptotal = pend.total
        ring_size = queue.ring_size
        wake_thresh = queue.space_wake_threshold
    # In-dataplane observation: the paced kernel delivers through the real
    # ``Wire.fast_transmit`` (which latches hop/e2e) into the real
    # ``receive`` (which latches inter-arrival); only the tx-queue
    # residence at the fetch instant and the wake-chunk ingress stamps
    # are performed here, exactly as the event path would at ``start``.
    dp = port.dataplane
    dp_txq = dp.txq[queue.index] if dp is not None else None
    mac_free = start_ps
    sent = 0
    sent_bytes = 0
    while ring:
        if budget is not None and sent >= budget:
            # The next fetch would wake a parked producer no PendingSend
            # models; its wakeup replays event-wise at the next transmit
            # instant.
            break
        frame = ring[0]
        if frame.meta.get("timestamp"):
            break
        start = queue.next_allowed_ps
        if start < mac_free:
            start = mac_free
        mac_time = card.effective_frame_time_ps(frame, speed)
        if bound is not None and start + mac_time + latency >= bound:
            break
        wake = 0
        if pend is not None:
            # Same closed-form sawtooth as the FIFO kernel: the fetch's
            # post-pop occupancy decides the wake; a completing wake
            # replays event-wise (stop before the fetch).
            ring_len = len(ring) - 1
            free_after = ring_size - ring_len
            if ring_len == 0 or free_after >= wake_thresh:
                if ptotal - psent <= free_after:
                    break
                wake = free_after
        # ``_fetch_from_ring`` inlined minus tracer (disabled) and the
        # space-signal trigger (modeled above for a declared pend; the
        # fetch budget proves it cannot fire otherwise).
        ring.popleft()
        if dp_txq is not None:
            enq = frame.meta.get("dp_enq_ps")
            if enq is not None:
                dp_txq.observe((start - enq) / 1000.0)
        recycle = frame.recycle
        if recycle is not None:
            frame.recycle = None
            recycle()
        if wake:
            if dp is not None:
                for f in pframes[psent:psent + wake]:
                    f.meta["dp_enq_ps"] = start
            ring.extend(pframes[psent:psent + wake])
            psent += wake
        size = frame.size
        frame.meta["tx_start_ps"] = start
        wire.fast_transmit(frame, size, start)
        queue.tx_packets += 1
        queue.tx_bytes += size
        queue._advance_rate_limiter(start, frame)
        mac_free = start + mac_time
        sent += 1
        sent_bytes += size
    if pend is not None:
        pend.sent = psent
    if sent:
        port.tx_packets += sent
        port.tx_bytes += sent_bytes
        # The event path round-robins past the winning queue on every
        # pick; with a single eligible queue the pointer's final value is
        # the same after every frame.
        port._rr_next = (queue.index + 1) % len(port.tx_queues)
    return mac_free, sent
