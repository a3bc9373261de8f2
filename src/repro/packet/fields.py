"""Declarative header fields.

Header classes are views over a shared ``bytearray`` at an offset; fields are
descriptors that read/write big-endian values in place, mirroring how the
original MoonGen operates on DPDK packet buffers through LuaJIT FFI structs
(no copies, no per-field allocation).
"""

from __future__ import annotations

from typing import Any, Optional, Type

from repro.packet.address import Ip4Address, Ip6Address, MacAddress


class UIntField:
    """A big-endian unsigned integer field of 1, 2, 4, or 8 bytes."""

    def __init__(self, offset: int, size: int, doc: str = "") -> None:
        self.offset = offset
        self.size = size
        self.__doc__ = doc

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: Any, objtype: Optional[type] = None) -> Any:
        if obj is None:
            return self
        start = obj._offset + self.offset
        return int.from_bytes(obj._data[start:start + self.size], "big")

    def __set__(self, obj: Any, value: int) -> None:
        value = int(value)
        mask = (1 << (8 * self.size)) - 1
        start = obj._offset + self.offset
        obj._data[start:start + self.size] = (value & mask).to_bytes(self.size, "big")


class BitsField:
    """A bit field within a single byte (e.g. IPv4 version / IHL)."""

    def __init__(self, offset: int, shift: int, width: int, doc: str = "") -> None:
        self.offset = offset
        self.shift = shift
        self.mask = (1 << width) - 1
        self.__doc__ = doc

    def __get__(self, obj: Any, objtype: Optional[type] = None) -> Any:
        if obj is None:
            return self
        byte = obj._data[obj._offset + self.offset]
        return (byte >> self.shift) & self.mask

    def __set__(self, obj: Any, value: int) -> None:
        pos = obj._offset + self.offset
        byte = obj._data[pos]
        byte &= ~(self.mask << self.shift) & 0xFF
        byte |= (int(value) & self.mask) << self.shift
        obj._data[pos] = byte


class AddressField:
    """A fixed-size address field returning a typed address object."""

    def __init__(self, offset: int, size: int, addr_type: Type, doc: str = "") -> None:
        self.offset = offset
        self.size = size
        self.addr_type = addr_type
        self.__doc__ = doc

    def __get__(self, obj: Any, objtype: Optional[type] = None) -> Any:
        if obj is None:
            return self
        start = obj._offset + self.offset
        return self.addr_type(bytes(obj._data[start:start + self.size]))

    def __set__(self, obj: Any, value: Any) -> None:
        addr = self.addr_type(value)
        start = obj._offset + self.offset
        obj._data[start:start + self.size] = addr.to_bytes()


def mac_field(offset: int, doc: str = "") -> AddressField:
    return AddressField(offset, 6, MacAddress, doc)


def ip4_field(offset: int, doc: str = "") -> AddressField:
    return AddressField(offset, 4, Ip4Address, doc)


def ip6_field(offset: int, doc: str = "") -> AddressField:
    return AddressField(offset, 16, Ip6Address, doc)


class Header:
    """Base class for header views.

    Subclasses define ``SIZE`` (fixed header length in bytes) and a set of
    field descriptors.  A header never owns memory; it points into the
    packet's buffer at ``offset``.
    """

    SIZE = 0

    __slots__ = ("_data", "_offset")

    def __init__(self, data: bytearray, offset: int = 0) -> None:
        if offset + self.SIZE > len(data):
            raise ValueError(
                f"{type(self).__name__} needs {self.SIZE} bytes at offset "
                f"{offset}, buffer has {len(data)}"
            )
        self._data = data
        self._offset = offset

    @property
    def offset(self) -> int:
        """Byte offset of this header within the packet buffer."""
        return self._offset

    def raw(self) -> bytes:
        """The header's bytes."""
        return bytes(self._data[self._offset:self._offset + self.SIZE])

    def __repr__(self) -> str:
        fields = []
        for name in dir(type(self)):
            attr = getattr(type(self), name, None)
            if isinstance(attr, (UIntField, BitsField, AddressField)):
                fields.append(f"{name}={getattr(self, name)}")
        return f"{type(self).__name__}({', '.join(sorted(fields))})"
