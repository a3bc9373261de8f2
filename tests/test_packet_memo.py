"""The two per-distinct-packet caches: fill write-sets and offloaded payloads.

``_StackView.fill`` replays a cached write-set for a fill it has seen
twice, and ``materialize_frame`` reuses the checksummed bytes of a payload
it has seen twice.  Both must be invisible except through speed: every
buffer and every wire frame equals what the uncached code computes, and
errors are raised on every call.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import MoonGenEnv
from repro.core import tasks
from repro.core.tasks import materialize_frame
from repro.errors import AddressError, PacketError
from repro.packet import packet as stacks
from repro.packet.address import Ip4Address, Ip6Address, MacAddress
from repro.packet.checksum import internet_checksum
from repro.packet.fields import AddressField
from repro.packet.memo import SecondSightMemo
from repro.packet.packet import PacketData
from tests._hypothesis_profiles import property_settings

STACKS = [getattr(stacks, name) for name in stacks.__all__
          if isinstance(getattr(stacks, name), type)
          and issubclass(getattr(stacks, name), stacks._StackView)]
UNSIZED = {stacks.EthPacket, stacks.ArpPacket, stacks.PtpPacket}


def _clear_memos():
    for memo in (stacks._WRITE_SETS, tasks._OFFLOADED):
        memo.entries.clear()
        memo._sighted.clear()


@pytest.fixture(autouse=True)
def fresh_memos():
    _clear_memos()
    yield
    _clear_memos()


def _no_setter_path(view, kwargs):
    raise AssertionError("fill ran the setter path instead of replaying")


class TestSecondSightMemo:
    @pytest.fixture(autouse=True)
    def small_bound(self, monkeypatch):
        monkeypatch.setattr(SecondSightMemo, "BOUND", 4)

    def test_admits_on_second_sighting(self):
        memo = SecondSightMemo()
        assert not memo.admit("k")
        assert memo.admit("k")
        memo.store("k", 1)
        assert memo.entries == {"k": 1}
        assert not memo._sighted

    def test_one_off_keys_never_evict_entries(self):
        memo = SecondSightMemo()
        memo.admit("hot")
        memo.admit("hot")
        memo.store("hot", 1)
        for i in range(100):
            assert not memo.admit(i)
            assert len(memo._sighted) <= 4
        assert memo.entries == {"hot": 1}

    def test_entries_clear_when_full(self):
        memo = SecondSightMemo()
        for i in range(5):
            memo.store(i, i)
        assert memo.entries == {4: 4}


# -- fill write-sets -------------------------------------------------------------


def _field_descriptor(cls, name, attr):
    header = getattr(cls(PacketData(cls.MIN_SIZE)), name)
    return getattr(type(header), attr)


def _value(cls, key):
    """A strategy of valid values for one fill keyword of ``cls``."""
    name, attr = cls._FILL_FIELDS[key]
    descriptor = _field_descriptor(cls, name, attr)
    if not isinstance(descriptor, AddressField):
        # Integer fields mask their value to the field's width.
        return st.integers(0, (1 << 32) - 1)
    addr_type = descriptor.addr_type
    width = {MacAddress: 48, Ip4Address: 32, Ip6Address: 128}[addr_type]
    return st.integers(0, (1 << width) - 1).flatmap(
        lambda n: st.sampled_from([
            str(addr_type(n)), addr_type(n), n, addr_type(n).to_bytes(),
        ]))


@st.composite
def fills(draw):
    cls = draw(st.sampled_from(STACKS))
    capacity = draw(st.integers(max(cls.MIN_SIZE, 64), 160))
    size = draw(st.integers(0, capacity))
    keys = draw(st.lists(st.sampled_from(sorted(cls._FILL_FIELDS)),
                         unique=True, max_size=4))
    kwargs = {key: draw(_value(cls, key)) for key in keys}
    background = draw(st.binary(min_size=capacity, max_size=capacity))
    return cls, size, kwargs, background


def _setter_path(cls, size, kwargs, background):
    """What a fill writes, without any cache: defaults, setters, lengths."""
    data = bytearray(background)
    view = cls(PacketData.wrap(data, size))
    view._set_defaults()
    for key, value in kwargs.items():
        name, attr = cls._FILL_FIELDS[key]
        setattr(getattr(view, name), attr, value)
    view._finalize_lengths()
    return data


def _fill(cls, size, kwargs, background):
    data = bytearray(background)
    cls(PacketData.wrap(data, 0)).fill(pkt_length=size, **kwargs)
    return data


class TestFillWriteSets:
    def test_sized_stacks_are_the_ones_with_length_fields(self):
        assert {cls for cls in STACKS if not cls._SIZED} == UNSIZED

    @settings(**property_settings(60))
    @given(fills(), st.integers(0, 2048))
    def test_every_call_equals_the_setter_path(self, drawn, other_size):
        cls, size, kwargs, background = drawn
        expected = _setter_path(cls, size, kwargs, background)
        _clear_memos()
        assert _fill(cls, size, kwargs, background) == expected  # sighted
        assert _fill(cls, size, kwargs, background) == expected  # admitted
        with mock.patch.object(stacks._StackView, "_apply_fill",
                               _no_setter_path):
            assert _fill(cls, size, kwargs, background) == expected
        # The same keywords at another frame length: a stack with length
        # fields needs its own write-set, one without replays the same one.
        resized = other_size % (len(background) + 1)
        assert (_fill(cls, resized, kwargs, background)
                == _setter_path(cls, resized, kwargs, background))
        if not cls._SIZED:
            # The write-set of a stack without length fields does not
            # depend on the frame length, so one key serves every size.
            def write(view):
                view._apply_fill(kwargs)
            assert (stacks._write_set(cls, size, write)
                    == stacks._write_set(cls, other_size, write))

    @pytest.mark.parametrize("cls", STACKS, ids=lambda cls: cls.__name__)
    def test_override_free_fill_replays(self, cls):
        background = bytes(range(256)) * 2
        for _ in range(2):
            _fill(cls, 100, {}, background)
        with mock.patch.object(stacks._StackView, "_apply_fill",
                               _no_setter_path):
            replayed = _fill(cls, 100, {}, background)
        assert replayed == _setter_path(cls, 100, {}, background)

    @pytest.mark.parametrize("cls", STACKS, ids=lambda cls: cls.__name__)
    def test_one_off_fills_replay_the_defaults(self, cls):
        """A fill seen once runs the setters on top of the stack's
        defaults, which the memo holds under the class itself."""
        background = bytes(range(256)) * 2
        for mac in range(3):
            assert (_fill(cls, 100, {"eth_src": mac}, background)
                    == _setter_path(cls, 100, {"eth_src": mac}, background))
        assert stacks._WRITE_SETS.entries[cls] is not None
        expected = _setter_path(cls, 100, {"eth_src": 99}, background)
        with mock.patch.object(cls, "_set_defaults",
                               side_effect=AssertionError("ran the defaults")):
            assert _fill(cls, 100, {"eth_src": 99}, background) == expected

    @pytest.mark.parametrize("kwargs,error", [
        ({"bogus_field": 1}, TypeError),
        ({"eth_src": "02:00:00:00:00:0g"}, AddressError),
        ({"eth_dst": "02:00:00:00:00:01\n"}, AddressError),
        ({"ip_dst": "10.0.0.256"}, AddressError),
        ({"pkt_length": 4096}, PacketError),
    ])
    def test_errors_raise_on_every_call(self, kwargs, error):
        for _ in range(3):
            with pytest.raises(error):
                PacketData(60).udp_packet.fill(**kwargs)

    def test_unknown_field_after_a_cached_prefix_still_raises(self):
        for _ in range(3):
            PacketData(60).eth_packet.fill(eth_type=0x0800)
        for _ in range(3):
            with pytest.raises(TypeError):
                PacketData(60).eth_packet.fill(eth_type=0x0800, ip_dst=1)

    def test_a_non_scalar_equal_to_a_cached_value_takes_the_setter_path(self):
        """``5.0 == 5``, but ``MacAddress(5.0)`` is an error: a key must
        never match a value of a type the cache does not admit."""
        for _ in range(3):
            PacketData(60).eth_packet.fill(eth_src=5)
        for _ in range(3):
            with pytest.raises(AddressError):
                PacketData(60).eth_packet.fill(eth_src=5.0)

    def test_bytearray_values_keep_the_setter_path(self):
        raw = bytearray(b"\x02\x00\x00\x00\x00\x07")
        for _ in range(3):
            pkt = PacketData(60)
            pkt.eth_packet.fill(eth_src=raw)
            assert str(pkt.eth_packet.eth.src) == "02:00:00:00:00:07"
        # Only the stack's defaults, keyed on the class, were memoized.
        assert list(stacks._WRITE_SETS.entries) == [stacks.EthPacket]

    def test_one_off_keys_stay_within_the_bound(self):
        hot = dict(eth_src="02:00:00:00:00:01", eth_dst="02:00:00:00:00:02",
                   eth_type=0x0800)
        for _ in range(2):
            PacketData(60).eth_packet.fill(**hot)
        bufs = [PacketData(76, capacity=512) for _ in range(8)]
        src, dst = MacAddress(1), MacAddress(2)
        for seq in range(10_000):
            bufs[seq % 8].ptp_packet.fill(pkt_length=80, eth_src=src,
                                          eth_dst=dst, ptp_sequence=seq)
        memo = stacks._WRITE_SETS
        assert len(memo.entries) <= memo.BOUND
        assert len(memo._sighted) <= memo.BOUND
        late = dict(eth_src="02:00:00:00:00:03", eth_type=0x86DD)
        for _ in range(2):
            PacketData(60).eth_packet.fill(**late)
        with mock.patch.object(stacks._StackView, "_apply_fill",
                               _no_setter_path):
            PacketData(60).eth_packet.fill(**hot)
            PacketData(60).eth_packet.fill(**late)


# -- offloaded payloads -------------------------------------------------------------


def _offload_buf(env, stack, offload_ip, offload_l4):
    pool = env.create_mempool(n_buffers=4, buf_capacity=512)
    bufs = pool.buf_array(1)
    bufs.alloc(96)
    buf = bufs[0]
    if stack == "udp6":
        buf.pkt.udp6_packet.fill(pkt_length=96, ip_src="fe80::1",
                                 ip_dst="fe80::2", udp_src=5, udp_dst=6)
    else:
        getattr(buf.pkt, f"{stack[:-1]}_packet").fill(
            pkt_length=96, ip_src="10.0.0.1", ip_dst="10.0.0.2")
    buf.pkt.fill_payload(b"moongen", 70)
    buf.offload_ip, buf.offload_l4 = offload_ip, offload_l4
    return buf


def _l4_ok(data, stack, offload_l4):
    if not offload_l4:
        return True
    wire = PacketData.wrap(bytearray(data))
    if stack == "udp4":
        return wire.udp_packet.verify_udp_checksum()
    if stack == "udp6":
        p = wire.udp6_packet
        expected = p.udp.checksum
        return expected != 0 and p.calculate_udp_checksum() == expected
    if stack == "tcp4":
        p = wire.tcp_packet
        expected = p.tcp.checksum
        return p.calculate_tcp_checksum() == expected
    return internet_checksum(bytes(data[34:])) == 0


class TestOffloadMemo:
    @pytest.mark.parametrize("stack,offload_ip,offload_l4", [
        ("udp4", True, True), ("tcp4", True, True), ("icmp4", True, True),
        ("udp6", False, True), ("udp4", True, False),
    ])
    def test_memoized_frames_equal_a_fresh_computation(
            self, stack, offload_ip, offload_l4):
        env = MoonGenEnv()
        buf = _offload_buf(env, stack, offload_ip, offload_l4)
        raw = buf.pkt.bytes()
        fresh = tasks._offload(raw, offload_ip, offload_l4)
        assert fresh != raw
        for _ in range(3):
            assert materialize_frame(buf).data == fresh
        assert (raw, offload_ip, offload_l4) in tasks._OFFLOADED.entries
        assert buf.pkt.bytes() == raw  # the buffer itself is untouched
        assert _l4_ok(fresh, stack, offload_l4)
        if stack != "udp6":
            wire = PacketData.wrap(bytearray(fresh))
            assert wire.ip_packet.ip.verify_checksum()

        # A buffer changed between two sends gets its own checksums.
        buf.pkt.data[80] ^= 0x5A
        changed = materialize_frame(buf).data
        assert changed == tasks._offload(buf.pkt.bytes(), offload_ip,
                                         offload_l4)
        assert changed != fresh
        assert _l4_ok(changed, stack, offload_l4)

    def test_offload_bits_are_part_of_the_key(self):
        env = MoonGenEnv()
        buf = _offload_buf(env, "udp4", True, True)
        for _ in range(3):
            both = materialize_frame(buf).data
        buf.offload_l4 = False
        ip_only = materialize_frame(buf).data
        assert ip_only != both
        assert PacketData.wrap(bytearray(ip_only)).udp_packet.udp.checksum == 0
