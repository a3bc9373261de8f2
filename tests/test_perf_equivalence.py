"""Property tests: the hot-path optimizations are behaviour-preserving.

The perf work (docs/PERFORMANCE.md) is only legal because every shortcut
is exactly equivalent to the code it replaced.  These tests pin that with
randomized inputs:

* the same-instant FIFO fast lane fires events in exactly the order the
  reference model (a stable sort by scheduled time) prescribes, under
  arbitrary mixes of zero-delay bursts, timers, and cancellations;
* :class:`FramePool` recycling is invisible: a recycled shell is
  byte-identical to a freshly constructed :class:`SimFrame` (payload,
  sizes, flags, fresh meta dict, fresh seq).

The batch tier's equivalence lives in ``tests/test_equivalence.py``.
"""

from hypothesis import given, settings, strategies as st

from repro.nicsim.eventloop import EventLoop
from repro.nicsim.nic import FramePool, SimFrame
from tests._hypothesis_profiles import property_settings

SETTINGS = property_settings()


# ---------------------------------------------------------------------------
# same-instant fast lane vs the reference schedule


# One scheduling "program": (delay, n_same_instant_followers, cancel_self).
lane_program = st.lists(
    st.tuples(st.integers(min_value=0, max_value=6),
              st.integers(min_value=0, max_value=3),
              st.booleans()),
    min_size=1, max_size=30)


class TestFastLaneEquivalence:
    @settings(**SETTINGS)
    @given(lane_program)
    def test_burst_heavy_programs_fire_in_reference_order(self, program):
        """Each fired event schedules a burst of zero-delay followers (the
        shape the FIFO lane accelerates); the total order must equal the
        reference stable sort by (time, global insertion index)."""
        loop = EventLoop()
        fired = []
        reference = []
        counter = [0]

        def fire(label):
            fired.append(label)

        for i, (delay, followers, cancel) in enumerate(program):
            def root(i=i, followers=followers):
                fired.append(("root", i))
                for j in range(followers):
                    loop.schedule(0, lambda i=i, j=j: fire(("burst", i, j)))
            event = loop.schedule(delay, root)
            if cancel:
                event.cancel()
            else:
                reference.append((delay, counter[0], i))
            counter[0] += 1
        loop.run()

        expected = []
        for delay, _, i in sorted(reference):
            expected.append(("root", i))
        # Roots fire in stable (time, insertion) order; each root's burst
        # fires before any *later-instant* root but possibly interleaved
        # with same-instant roots — check the strong invariant per root.
        assert [f for f in fired if f[0] == "root"] == expected
        for i, (delay, followers, cancel) in enumerate(program):
            if cancel:
                continue
            root_at = fired.index(("root", i))
            for j in range(followers):
                assert ("burst", i, j) in fired[root_at + 1:]
        # And bursts of one root keep their own insertion order.
        for i, (_, followers, cancel) in enumerate(program):
            if cancel or followers < 2:
                continue
            positions = [fired.index(("burst", i, j)) for j in range(followers)]
            assert positions == sorted(positions)

    @settings(**SETTINGS)
    @given(lane_program)
    def test_event_count_matches_live_schedules(self, program):
        """events_processed == number of non-cancelled callbacks fired."""
        loop = EventLoop()
        for delay, followers, cancel in program:
            def root(followers=followers):
                for _ in range(followers):
                    loop.schedule(0, lambda: None)
            event = loop.schedule(delay, root)
            if cancel:
                event.cancel()
        loop.run()
        live_roots = sum(1 for _, _, cancel in program if not cancel)
        live_bursts = sum(f for _, f, cancel in program if not cancel)
        assert loop.events_processed == live_roots + live_bursts


# ---------------------------------------------------------------------------
# FramePool recycling is invisible


class TestFramePoolEquivalence:
    @settings(**SETTINGS)
    @given(st.lists(st.binary(min_size=14, max_size=128), min_size=1,
                    max_size=20),
           st.data())
    def test_recycled_shells_equal_fresh_frames(self, payloads, data):
        """Acquire/release/acquire must be indistinguishable from
        constructing a fresh SimFrame for the same payload."""
        pool = FramePool()
        seen_metas = []
        for payload in payloads:
            fcs_ok = data.draw(st.booleans())
            frame = pool.acquire(payload, fcs_ok=fcs_ok)
            fresh = SimFrame(payload, fcs_ok=fcs_ok)
            assert frame.data == fresh.data
            assert frame.size == fresh.size == len(payload) + 4
            assert frame.wire_size == fresh.wire_size
            assert frame.fcs_ok == fresh.fcs_ok
            assert frame.meta == {} == fresh.meta
            assert frame.recycle is None is fresh.recycle
            # Meta dicts must be fresh objects — a stale dict would leak
            # state (timestamps) between unrelated frames, as a stale
            # hook would recycle the wrong buffer.
            assert all(frame.meta is not m for m in seen_metas)
            seen_metas.append(frame.meta)
            frame.recycle = lambda: None
            frame.meta["timestamp"] = True
            if data.draw(st.booleans()):
                pool.release(frame)

    @settings(**SETTINGS)
    @given(st.integers(min_value=1, max_value=50))
    def test_seq_numbers_stay_unique_under_recycling(self, n):
        pool = FramePool()
        seqs = set()
        for _ in range(n):
            frame = pool.acquire(b"\x00" * 60)
            assert frame.seq not in seqs
            seqs.add(frame.seq)
            pool.release(frame)
        assert pool.recycled == max(0, n - 1)
