"""Planted corruption of stored memo entries, for the integrity tests.

Both memo tiers store object values as sealed records: a BLAKE2b digest
followed by the pickled bytes (:func:`repro.perfmodel.sharedmemo.seal`).
These helpers flip every bit of one payload byte and leave the digest
stale, so a test can show that the next lookup detects the corruption,
recomputes, and never serves the bad entry.
"""

from __future__ import annotations

from repro.perfmodel import memo, sharedmemo

__all__ = ["memo_entry", "shared_entry"]


def _flip(record: bytes, flip_byte: int) -> bytes:
    """``record`` with one payload byte inverted (the digest untouched)."""
    data = bytearray(record)
    head = sharedmemo.DIGEST_BYTES
    data[head + flip_byte % (len(data) - head)] ^= 0xFF
    return bytes(data)


def memo_entry(region: str, index: int = 0, flip_byte: int = 0) -> bool:
    """Corrupt the ``index``-th in-process entry of ``region``.

    Returns ``False`` when the region has no sealed entry at that
    position: raw-storage entries (checksum off, or the RNG-keyed
    operand regions) carry no digest that could catch the flip.
    """
    with memo._lock:
        reg = memo._regions.get(region)
        if reg is None or index >= len(reg.store):
            return False
        key = list(reg.store)[index]
        kind, record = reg.store[key]
        if kind != "blob":
            return False
        reg.store[key] = ("blob", _flip(record, flip_byte))
    return True


def shared_entry(region: str, index: int = 0, flip_byte: int = 0) -> bool:
    """Corrupt the ``index``-th shared-tier entry file of ``region`` (in
    file-name order) on disk; ``False`` when there is no such entry."""
    entries = sharedmemo._entries(region)
    if index >= len(entries):
        return False
    record = entries[index].read_bytes()
    if len(record) <= sharedmemo.DIGEST_BYTES:
        return False
    entries[index].write_bytes(_flip(record, flip_byte))
    return True
