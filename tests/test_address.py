"""Tests for MAC / IPv4 / IPv6 address types."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import AddressError
from repro.packet.address import (
    Ip4Address,
    Ip6Address,
    MacAddress,
    parse_ip_address,
)


class TestMacAddress:
    def test_parse_string(self):
        mac = MacAddress("10:11:12:13:14:15")
        assert int(mac) == 0x101112131415

    def test_str_roundtrip(self):
        text = "aa:bb:cc:dd:ee:ff"
        assert str(MacAddress(text)) == text

    def test_from_bytes(self):
        assert MacAddress(b"\x01\x02\x03\x04\x05\x06") == 0x010203040506

    def test_to_bytes(self):
        assert MacAddress("01:02:03:04:05:06").to_bytes() == bytes(range(1, 7))

    def test_arithmetic_wraps(self):
        assert MacAddress("ff:ff:ff:ff:ff:ff") + 1 == MacAddress(0)
        assert MacAddress(0) - 1 == MacAddress("ff:ff:ff:ff:ff:ff")

    def test_add_returns_mac(self):
        assert isinstance(MacAddress(5) + 1, MacAddress)

    def test_broadcast(self):
        assert MacAddress("ff:ff:ff:ff:ff:ff").is_broadcast
        assert not MacAddress("ff:ff:ff:ff:ff:fe").is_broadcast

    def test_multicast_bit(self):
        assert MacAddress("01:00:5e:00:00:01").is_multicast
        assert not MacAddress("02:00:00:00:00:01").is_multicast

    @pytest.mark.parametrize("bad", ["", "aa:bb", "gg:00:00:00:00:00",
                                     "aa-bb-cc-dd-ee-ff", "aa:bb:cc:dd:ee:ff:00",
                                     "02:00:00:00:00:01\n"])
    def test_rejects_bad_strings(self, bad):
        with pytest.raises(AddressError):
            MacAddress(bad)

    def test_rejects_out_of_range(self):
        with pytest.raises(AddressError):
            MacAddress(1 << 48)
        with pytest.raises(AddressError):
            MacAddress(-1)

    def test_rejects_wrong_byte_count(self):
        with pytest.raises(AddressError):
            MacAddress(b"\x00" * 5)

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_string_roundtrip_property(self, value):
        assert int(MacAddress(str(MacAddress(value)))) == value


class TestIp4Address:
    def test_parse(self):
        assert int(Ip4Address("10.0.0.1")) == 0x0A000001

    def test_str(self):
        assert str(Ip4Address(0xC0A80101)) == "192.168.1.1"

    def test_arithmetic(self):
        assert Ip4Address("10.0.0.1") + 254 == Ip4Address("10.0.0.255")
        assert Ip4Address("10.0.1.0") - 1 == Ip4Address("10.0.0.255")

    def test_wraps(self):
        assert Ip4Address("255.255.255.255") + 1 == Ip4Address("0.0.0.0")

    def test_bytes_roundtrip(self):
        addr = Ip4Address("1.2.3.4")
        assert Ip4Address(addr.to_bytes()) == addr

    @pytest.mark.parametrize("bad", ["", "1.2.3", "1.2.3.4.5", "256.0.0.1",
                                     "a.b.c.d", "1..2.3", "-1.0.0.0",
                                     "10.0.0.1_0", " 10.0.0.1", "10.0.0.+1",
                                     "10.0.0.\u0663", "10.0.0.1\n",
                                     "1" * 5000 + ".0.0.0"])
    def test_rejects_bad(self, bad):
        with pytest.raises(AddressError):
            Ip4Address(bad)

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_roundtrip_property(self, value):
        assert int(Ip4Address(str(Ip4Address(value)))) == value


class TestIp6Address:
    def test_parse_full(self):
        addr = Ip6Address("2001:db8:0:0:0:0:0:1")
        assert int(addr) == (0x20010DB8 << 96) | 1

    def test_parse_elision(self):
        assert Ip6Address("2001:db8::1") == Ip6Address("2001:db8:0:0:0:0:0:1")

    def test_parse_loopback(self):
        assert int(Ip6Address("::1")) == 1

    def test_parse_all_zero(self):
        assert int(Ip6Address("::")) == 0

    def test_str_elides_longest_zero_run(self):
        assert str(Ip6Address("2001:db8:0:0:0:0:0:1")) == "2001:db8::1"

    def test_str_no_elision_needed(self):
        text = "1:2:3:4:5:6:7:8"
        assert str(Ip6Address(text)) == text

    def test_arithmetic(self):
        assert Ip6Address("::1") + 1 == Ip6Address("::2")

    def test_wraps(self):
        assert Ip6Address(Ip6Address.MAX) + 1 == Ip6Address(0)

    def test_bytes_roundtrip(self):
        addr = Ip6Address("fe80::1234")
        assert Ip6Address(addr.to_bytes()) == addr

    @pytest.mark.parametrize("bad", ["", ":::", "1:2", "2001:db8::1::2",
                                     "12345::1", "g::1", "2001:db8::+1",
                                     "2001:db8::1_0", "2001:db8:: 1",
                                     "::\u0661", "::1\n"])
    def test_rejects_bad(self, bad):
        with pytest.raises(AddressError):
            Ip6Address(bad)

    @given(st.integers(min_value=0, max_value=(1 << 128) - 1))
    def test_roundtrip_property(self, value):
        assert int(Ip6Address(str(Ip6Address(value)))) == value


class TestParseIpAddress:
    def test_dispatch_v4(self):
        assert isinstance(parse_ip_address("10.0.0.1"), Ip4Address)

    def test_dispatch_v6(self):
        assert isinstance(parse_ip_address("::1"), Ip6Address)

    def test_listing2_usage(self):
        # The paper's Listing 2: parseIPAddress("10.0.0.1") + random offset.
        base = parse_ip_address("10.0.0.1")
        assert str(base + 41) == "10.0.0.42"
