"""Planted corruption of shared-tier memo entries, for the integrity tests.

The shared tier stores each value as a sealed record: a BLAKE2b digest
followed by the pickled bytes (:func:`repro.perfmodel.sharedmemo.seal`).
:func:`shared_entry` flips every bit of one payload byte and leaves the
digest stale, so a test can show that the next lookup detects the
corruption, recomputes, and never serves the bad entry.
"""

from __future__ import annotations

from repro.perfmodel import sharedmemo

__all__ = ["shared_entry"]


def _flip(record: bytes, flip_byte: int) -> bytes:
    """``record`` with one payload byte inverted (the digest untouched)."""
    data = bytearray(record)
    head = sharedmemo.DIGEST_BYTES
    data[head + flip_byte % (len(data) - head)] ^= 0xFF
    return bytes(data)


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
