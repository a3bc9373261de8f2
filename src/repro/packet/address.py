"""MAC and IP address types.

MoonGen scripts manipulate addresses numerically (``parseIPAddress("10.0.0.1")
+ math.random(255)``); the types here support the same style: they are thin
``int`` subclasses with range checking, parsing, formatting, and wrapping
arithmetic, so ``Ip4Address("10.0.0.1") + 5`` is again an :class:`Ip4Address`.
"""

from __future__ import annotations

import re
from typing import Union

from repro.errors import AddressError

# Parsers take ASCII text only and match it whole: ``$`` would accept a
# trailing newline, and ``int()`` alone accepts signs, underscores,
# surrounding whitespace and non-ASCII digits.
_MAC_RE = re.compile(r"[0-9a-fA-F]{2}(?::[0-9a-fA-F]{2}){5}")
_IP4_RE = re.compile(r"([0-9]{1,3})\.([0-9]{1,3})\.([0-9]{1,3})\.([0-9]{1,3})")
_IP6_GROUP_RE = re.compile(r"[0-9a-fA-F]{1,4}")


class MacAddress(int):
    """A 48-bit Ethernet MAC address.

    Accepts ``"aa:bb:cc:dd:ee:ff"`` strings, integers, 6-byte sequences, or
    another :class:`MacAddress`.
    """

    MAX = (1 << 48) - 1

    def __new__(cls, value: Union[int, str, bytes, "MacAddress"] = 0) -> "MacAddress":
        if isinstance(value, str):
            if not _MAC_RE.fullmatch(value):
                raise AddressError(f"invalid MAC address: {value!r}")
            value = int(value.replace(":", ""), 16)
        elif isinstance(value, (bytes, bytearray, memoryview)):
            raw = bytes(value)
            if len(raw) != 6:
                raise AddressError(f"MAC address needs 6 bytes, got {len(raw)}")
            value = int.from_bytes(raw, "big")
        elif isinstance(value, int):
            if not 0 <= value <= cls.MAX:
                raise AddressError(f"MAC address out of range: {value:#x}")
        else:
            raise AddressError(f"cannot build MAC address from {type(value).__name__}")
        return super().__new__(cls, value)

    def __str__(self) -> str:
        raw = int(self).to_bytes(6, "big")
        return ":".join(f"{b:02x}" for b in raw)

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"

    def __add__(self, other: int) -> "MacAddress":
        return MacAddress((int(self) + int(other)) & self.MAX)

    def __sub__(self, other: int) -> "MacAddress":
        return MacAddress((int(self) - int(other)) & self.MAX)

    def to_bytes(self) -> bytes:  # type: ignore[override]
        """The address as 6 big-endian bytes."""
        return int(self).to_bytes(6, "big")

    @property
    def is_broadcast(self) -> bool:
        return int(self) == self.MAX

    @property
    def is_multicast(self) -> bool:
        """True if the group bit (LSB of the first octet) is set."""
        return bool((int(self) >> 40) & 0x01)


class Ip4Address(int):
    """A 32-bit IPv4 address with wrapping arithmetic."""

    MAX = (1 << 32) - 1

    def __new__(cls, value: Union[int, str, bytes, "Ip4Address"] = 0) -> "Ip4Address":
        if isinstance(value, str):
            match = _IP4_RE.fullmatch(value)
            if match is None:
                raise AddressError(f"invalid IPv4 address: {value!r}")
            octets = [int(p) for p in match.groups()]
            if any(o > 255 for o in octets):
                raise AddressError(f"invalid IPv4 address: {value!r}")
            value = (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3]
        elif isinstance(value, (bytes, bytearray, memoryview)):
            raw = bytes(value)
            if len(raw) != 4:
                raise AddressError(f"IPv4 address needs 4 bytes, got {len(raw)}")
            value = int.from_bytes(raw, "big")
        elif isinstance(value, int):
            if not 0 <= value <= cls.MAX:
                raise AddressError(f"IPv4 address out of range: {value:#x}")
        else:
            raise AddressError(f"cannot build IPv4 address from {type(value).__name__}")
        return super().__new__(cls, value)

    def __str__(self) -> str:
        v = int(self)
        return f"{(v >> 24) & 0xFF}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __repr__(self) -> str:
        return f"Ip4Address('{self}')"

    def __add__(self, other: int) -> "Ip4Address":
        return Ip4Address((int(self) + int(other)) & self.MAX)

    def __sub__(self, other: int) -> "Ip4Address":
        return Ip4Address((int(self) - int(other)) & self.MAX)

    def to_bytes(self) -> bytes:  # type: ignore[override]
        return int(self).to_bytes(4, "big")


class Ip6Address(int):
    """A 128-bit IPv6 address with wrapping arithmetic.

    Parsing supports the canonical colon-hex form including a single ``::``
    elision, which covers all addresses used by the example scripts.
    """

    MAX = (1 << 128) - 1

    def __new__(cls, value: Union[int, str, bytes, "Ip6Address"] = 0) -> "Ip6Address":
        if isinstance(value, str):
            value = cls._parse(value)
        elif isinstance(value, (bytes, bytearray, memoryview)):
            raw = bytes(value)
            if len(raw) != 16:
                raise AddressError(f"IPv6 address needs 16 bytes, got {len(raw)}")
            value = int.from_bytes(raw, "big")
        elif isinstance(value, int):
            if not 0 <= value <= cls.MAX:
                raise AddressError(f"IPv6 address out of range: {value:#x}")
        else:
            raise AddressError(f"cannot build IPv6 address from {type(value).__name__}")
        return super().__new__(cls, value)

    @staticmethod
    def _parse(text: str) -> int:
        if text.count("::") > 1:
            raise AddressError(f"invalid IPv6 address: {text!r}")
        if "::" in text:
            head, _, tail = text.partition("::")
            head_groups = head.split(":") if head else []
            tail_groups = tail.split(":") if tail else []
            missing = 8 - len(head_groups) - len(tail_groups)
            if missing < 1:
                raise AddressError(f"invalid IPv6 address: {text!r}")
            groups = head_groups + ["0"] * missing + tail_groups
        else:
            groups = text.split(":")
        if len(groups) != 8:
            raise AddressError(f"invalid IPv6 address: {text!r}")
        value = 0
        for group in groups:
            if not _IP6_GROUP_RE.fullmatch(group):
                raise AddressError(f"invalid IPv6 address: {text!r}")
            value = (value << 16) | int(group, 16)
        return value

    def __str__(self) -> str:
        groups = [(int(self) >> (16 * (7 - i))) & 0xFFFF for i in range(8)]
        # Find the longest run of zero groups (length >= 2) to elide.
        best_start, best_len = -1, 0
        run_start, run_len = -1, 0
        for i, g in enumerate(groups):
            if g == 0:
                if run_start < 0:
                    run_start, run_len = i, 0
                run_len += 1
                if run_len > best_len:
                    best_start, best_len = run_start, run_len
            else:
                run_start, run_len = -1, 0
        if best_len >= 2:
            head = ":".join(f"{g:x}" for g in groups[:best_start])
            tail = ":".join(f"{g:x}" for g in groups[best_start + best_len:])
            return f"{head}::{tail}"
        return ":".join(f"{g:x}" for g in groups)

    def __repr__(self) -> str:
        return f"Ip6Address('{self}')"

    def __add__(self, other: int) -> "Ip6Address":
        return Ip6Address((int(self) + int(other)) & self.MAX)

    def __sub__(self, other: int) -> "Ip6Address":
        return Ip6Address((int(self) - int(other)) & self.MAX)

    def to_bytes(self) -> bytes:  # type: ignore[override]
        return int(self).to_bytes(16, "big")


def parse_ip_address(text: str) -> Union[Ip4Address, Ip6Address]:
    """Parse an IPv4 or IPv6 address, the analog of ``parseIPAddress``.

    Returns an :class:`Ip4Address` or :class:`Ip6Address` depending on the
    input's syntax, so scripts can do ``parse_ip_address("10.0.0.1") + n``.
    """
    if ":" in text:
        return Ip6Address(text)
    return Ip4Address(text)
