"""Shared cross-process memo tier: a file-backed L2 under :mod:`memo`.

The in-process memo regions die with their process.  This tier keeps
the blob regions' entries on disk, so ``--jobs`` workers, ``--shard``
invocations and repeated runs hit what a sibling already computed:
lookups fall through process-local -> shared, and misses publish the
computed record to both.

Both tiers hold the same **sealed record**: the 16-byte BLAKE2b digest
of a pickled value followed by the pickle (:func:`seal` builds one,
:func:`unseal` verifies one).  The store keeps one file per entry::

    <dir>/<region>/<key digest hex>      digest ‖ pickled blob

* **Atomic writers** — a writer writes the record under a unique temp
  name (``<key>.<pid>-<nonce>.tmp``) and moves it into place with
  :func:`os.replace`, so a reader sees a whole record or no file.  Two
  processes publishing the same key write the same bytes; the last
  rename wins.  There is no file locking anywhere.
* **Checksummed entries** — a read re-hashes the pickle before handing
  it out.  A corrupt or truncated entry is *detected, never served*:
  the failure lands in :func:`integrity_counters`, the caller
  recomputes, and its publish replaces the bad file.
* **Canonical keys** — :func:`key_digest` normalises the in-process
  memo key (numpy scalars to Python scalars, sequences to tuples) and
  pickles it with a *pinned* protocol, so the same problem hashes
  identically in every worker regardless of interpreter defaults.

The operand-array regions (``memo.ARRAY_REGIONS`` — ``problem`` /
``format``) never reach this tier: their values are hundreds of MB and
their keys embed RNG state, so sharing them would trade a cheap local
rebuild for massive disk churn.  :func:`memo.trim` and the local FIFO
eviction only touch the in-process stores; nothing deletes shared
entries (remove the directory to reclaim it).  Leftover ``*.tmp`` files
of a killed writer are ignored, and so are the ``segments/`` and
``index/`` directories of the earlier segment-store layout.

Control surface: ``REPRO_MEMO_SHARED`` (default **off**; ``1`` enables),
``REPRO_MEMO_SHARED_DIR`` (default ``.repro-memo`` under the working
directory), :func:`set_enabled` / :func:`set_dir` overrides, and
``python -m repro.cli memo`` for inspection and verification.  Outputs
are bit-identical with the tier on or off: the shared tier serves only
pickled blobs of values the local tier would have recomputed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import pickle
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .. import envgates
from ..obs import tracing as _tracing

__all__ = [
    "enabled",
    "set_enabled",
    "store_dir",
    "set_dir",
    "key_digest",
    "seal",
    "unseal",
    "lookup",
    "publish",
    "reset",
    "counters",
    "snapshot",
    "delta",
    "integrity_counters",
    "integrity_failures",
    "stats",
    "verify_store",
    "tamper_entry",
    "SHAREABLE_REGIONS",
    "DIGEST_BYTES",
]

_DEFAULT_DIR = ".repro-memo"

#: pickle protocol pinned for key canonicalisation — the key bytes (and
#: therefore the digest) must not depend on the interpreter's default
_KEY_PROTOCOL = 4

#: the regions stored as sealed records, in-process and shared (the
#: RNG-keyed operand regions are excluded by design — see module
#: docstring and docs/ROBUSTNESS.md)
SHAREABLE_REGIONS = frozenset({"stats", "latency", "trace", "suite", "plan"})

#: length of the BLAKE2b digest that opens every sealed record
DIGEST_BYTES = 16

_lock = threading.Lock()
_enabled_override: Optional[bool] = None
_dir_override: Optional[Path] = None


def enabled() -> bool:
    """Whether the shared tier is active (override > env > default off)."""
    if _enabled_override is not None:
        return _enabled_override
    return envgates.flag("REPRO_MEMO_SHARED")


def set_enabled(flag: Optional[bool]) -> Optional[bool]:
    """Force the tier on/off, or defer to ``REPRO_MEMO_SHARED`` (None);
    returns the previous override, for the caller to restore."""
    global _enabled_override
    previous, _enabled_override = _enabled_override, flag
    return previous


def store_dir() -> Path:
    """The store directory (override > env > ``.repro-memo``)."""
    if _dir_override is not None:
        return _dir_override
    return Path(envgates.raw("REPRO_MEMO_SHARED_DIR") or _DEFAULT_DIR)


def set_dir(path: Optional[os.PathLike]) -> Optional[Path]:
    """Point the tier at ``path`` (None defers to the env/default);
    returns the previous override, for the caller to restore."""
    global _dir_override
    previous = _dir_override
    _dir_override = Path(path) if path is not None else None
    return previous


# --------------------------------------------------------------------- #
# canonical keys and sealed records
# --------------------------------------------------------------------- #
def _normalise(obj: Any) -> Any:
    """Reduce a memo key to pickle-stable primitives.

    Numpy scalars become Python scalars, sequences become tuples, and
    mappings become sorted tuples; anything else (ndarray payloads,
    live objects) raises :class:`TypeError` — such keys stay local.
    """
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, (tuple, list)):
        return tuple(_normalise(x) for x in obj)
    if isinstance(obj, frozenset):
        return ("fs",) + tuple(sorted(map(repr, obj)))
    if isinstance(obj, dict):
        return tuple(sorted((str(k), _normalise(v)) for k, v in obj.items()))
    raise TypeError(f"no canonical shared-memo key for {type(obj).__qualname__}")


def _hash(data) -> bytes:
    return hashlib.blake2b(data, digest_size=DIGEST_BYTES).digest()


def key_digest(region: str, key: Any) -> Optional[bytes]:
    """16-byte canonical digest of ``(region, key)``; ``None`` when the
    key cannot be normalised (the entry then stays process-local)."""
    try:
        norm = _normalise(key)
    except TypeError:
        return None
    return _hash(pickle.dumps((region, norm), protocol=_KEY_PROTOCOL))


def seal(value: Any) -> bytes:
    """The sealed record of ``value``: the digest of its pickle, then the
    pickle, built in one buffer so a large pickle is never held twice."""
    buf = io.BytesIO()
    buf.write(bytes(DIGEST_BYTES))
    pickle.dump(value, buf, protocol=pickle.HIGHEST_PROTOCOL)
    with buf.getbuffer() as view:
        view[:DIGEST_BYTES] = _hash(view[DIGEST_BYTES:])
    return buf.getvalue()


def unseal(record) -> Optional[memoryview]:
    """The verified pickle inside ``record``, as a view (no copy);
    ``None`` when the record is truncated or its bytes no longer match
    the digest."""
    view = memoryview(record)
    blob = view[DIGEST_BYTES:]
    if len(view) <= DIGEST_BYTES or _hash(blob) != view[:DIGEST_BYTES]:
        return None
    return blob


# --------------------------------------------------------------------- #
# counters
# --------------------------------------------------------------------- #
#: region -> [hits, misses, integrity]
_counters: Dict[str, List[int]] = {}


def reset() -> None:
    """Zero every counter (the on-disk store is untouched)."""
    with _lock:
        _counters.clear()


def _count(region: str, hit: bool, corrupt: bool = False) -> None:
    with _lock:
        c = _counters.get(region)
        if c is None:
            c = _counters[region] = [0, 0, 0]
        c[0 if hit else 1] += 1
        c[2] += corrupt


def counters() -> Dict[str, Tuple[int, int]]:
    """``{region: (hits, misses)}`` of shared-tier lookups."""
    with _lock:
        return {r: (c[0], c[1]) for r, c in sorted(_counters.items())}


def snapshot() -> Tuple[int, int]:
    """Aggregate shared ``(hits, misses)`` across all regions."""
    with _lock:
        return (sum(c[0] for c in _counters.values()),
                sum(c[1] for c in _counters.values()))


def delta(since: Tuple[int, int]) -> Tuple[int, int]:
    """Shared ``(hits, misses)`` accrued since a prior :func:`snapshot`."""
    now = snapshot()
    return now[0] - since[0], now[1] - since[1]


def integrity_counters() -> Dict[str, int]:
    """``{region: corrupt entries detected (and never served)}``."""
    with _lock:
        return {r: c[2] for r, c in sorted(_counters.items()) if c[2]}


def integrity_failures() -> int:
    """Total corrupt shared entries detected since :func:`reset`."""
    with _lock:
        return sum(c[2] for c in _counters.values())


# --------------------------------------------------------------------- #
# the lookup / publish surface (called by memo.memoise)
# --------------------------------------------------------------------- #
def _read(path) -> Optional[bytes]:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def lookup(region: str, key: bytes) -> Optional[memoryview]:
    """Fetch the verified blob for ``key``, or ``None`` on miss.

    The blob is a view into the sealed record read from disk
    (``blob.obj``), so a caller can keep the record without hashing it
    again.  A checksum mismatch or a truncated file counts as an
    integrity failure *and* a miss: the caller recomputes and
    republishes, and a corrupt entry is never served.
    """
    if region not in SHAREABLE_REGIONS:
        return None
    with _tracing.span(f"memo.shared.read.{region}"):
        record = _read(os.path.join(store_dir(), region, key.hex()))
    blob = None if record is None else unseal(record)
    _count(region, hit=blob is not None,
           corrupt=record is not None and blob is None)
    return blob


def publish(region: str, key: bytes, record: bytes) -> bool:
    """Store one sealed record (:func:`seal`) under ``key``.

    Returns ``False`` (and writes nothing) for non-shareable regions or
    when the store is unwritable; I/O errors never propagate into the
    compute path.
    """
    if region not in SHAREABLE_REGIONS:
        return False
    final = os.path.join(store_dir(), region, key.hex())
    tmp = f"{final}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        with _tracing.span(f"memo.shared.publish.{region}", bytes=len(record)):
            os.makedirs(os.path.dirname(final), exist_ok=True)
            with open(tmp, "wb") as fh:
                fh.write(record)
            os.replace(tmp, final)
        return True
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        return False


# --------------------------------------------------------------------- #
# maintenance: stats / verify / tamper
# --------------------------------------------------------------------- #
def _entries(region: str) -> List[Path]:
    """The region's entry files in name order (``*.tmp`` skipped)."""
    return sorted(p for p in (store_dir() / region).glob("*") if p.suffix != ".tmp")


def stats() -> Dict[str, Any]:
    """Per-region entry counts and blob bytes, and their totals."""
    regions: Dict[str, Dict[str, int]] = {}
    for region in sorted(SHAREABLE_REGIONS):
        sizes = [e.stat().st_size - DIGEST_BYTES for e in _entries(region)]
        if sizes:
            regions[region] = {"entries": len(sizes), "bytes": sum(sizes)}
    return {
        "dir": str(store_dir()),
        "regions": regions,
        "live_entries": sum(r["entries"] for r in regions.values()),
        "live_bytes": sum(r["bytes"] for r in regions.values()),
    }


def verify_store() -> Tuple[int, int]:
    """Re-read and re-hash every entry; ``(ok, corrupt)`` counts."""
    ok = corrupt = 0
    for region in sorted(SHAREABLE_REGIONS):
        for entry in _entries(region):
            record = _read(entry)
            if record is None or unseal(record) is None:
                corrupt += 1
            else:
                ok += 1
    return ok, corrupt


def tamper_entry(region: str, index: int = 0, flip_byte: int = 0) -> bool:
    """Corrupt one stored blob *on disk*, leaving its digest stale.

    Fault-injection/test hook (the shared-tier analog of
    :func:`memo.tamper_entry`): flips every bit of one byte of the blob
    of the ``index``-th entry of ``region`` (in file-name order).
    Returns ``False`` when the region has no such entry.
    """
    entries = _entries(region)
    if index >= len(entries):
        return False
    data = bytearray(_read(entries[index]) or b"")
    if len(data) <= DIGEST_BYTES:
        return False
    data[DIGEST_BYTES + flip_byte % (len(data) - DIGEST_BYTES)] ^= 0xFF
    with open(entries[index], "wb") as fh:
        fh.write(data)
    return True
