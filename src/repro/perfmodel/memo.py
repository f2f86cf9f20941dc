"""Content-addressed memoisation for the analytic simulator layer.

The analytic stack is referentially transparent almost everywhere:
``stats_for`` depends only on the sparse topology (never the values),
``LatencyModel.estimate`` only on the :class:`KernelStats` fingerprint
plus the spec/efficiency/slack constants, and the benchmark builders
only on the DLMC entry and the RNG state they are handed.  The sweeps
(fig17/fig19/table2/table3/sensitivity) re-evaluate the same configs
over and over, so this module provides one process-wide cache with a
few independent *regions*:

* ``"stats"``    — kernel ``stats_for`` results, keyed on (kernel
  class + tile constants, :class:`GPUSpec` fingerprint, argument
  topology signatures).  Hits return a deep copy: callers mutate the
  returned object (e.g. the ablation sweep rewrites ``st.ilp``).
* ``"latency"``  — :class:`LatencyModel` estimates, keyed on (spec,
  efficiency, overlap slack, full ``KernelStats`` fingerprint).
* ``"suite"``    — DLMC benchmark suites (pure function of
  shapes/sparsities/seed; entries are treated as immutable).
* ``"trace"``    — :class:`~repro.perfmodel.trace.TraceResult` replays
  of the kernels' sector streams (pure function of the topology and
  the replay parameters; results are treated as immutable).
* ``"plan"``     — compiled execution plans of the simulated/functional
  kernel layer (:mod:`repro.plans`): flattened gather/scatter index
  schedules keyed on (kernel fingerprint, structure signature).  A
  plan is pure schedule — no values, no fault payloads — and entries
  are treated as immutable by the executors.
* ``"problem"`` / ``"format"`` — RNG-threaded benchmark constructions,
  keyed on the *incoming* generator state; a hit fast-forwards the
  generator to the recorded post-state, so caching is bit-transparent
  to every downstream draw.

Keys never include floating-point *values* of matrices — only shapes,
dtypes and topology digests — except through the RNG state, which pins
them exactly.

Control surface: :func:`set_enabled`/:func:`clear`, the
``REPRO_MEMO`` environment variable (``0``/``off``/``false`` disables,
useful for subprocess benchmarks), and :func:`counters` and the
per-experiment scope (:func:`scope_begin`/:func:`scope_end`) for
hit-rate reporting.

Integrity: the object-valued regions (``stats``/``latency``/``trace``/
``suite``/``plan``, :data:`sharedmemo.SHAREABLE_REGIONS`) store each
value as a sealed record: a BLAKE2b digest followed by the pickled
bytes, the format the shared tier writes to disk
(:func:`sharedmemo.seal`).  Every hit re-hashes the stored bytes
before unpickling them, so a corrupted entry (bit rot, a buggy
in-place mutation, or the fault injector's ``tamper_entry``) is
*detected and recomputed, never served* — the failure lands in
:func:`integrity_counters` and the fresh value replaces the bad entry.
The RNG-keyed operand regions (``problem``/``format``) keep raw
references (their values are hundreds of MB of arrays; re-hashing them
per hit would erase the point of the cache) — that boundary is
documented in ``docs/ROBUSTNESS.md``.  ``REPRO_MEMO_CHECKSUM=0`` reverts the object
regions to raw storage for A/B benchmarking.

Shared tier: when ``REPRO_MEMO_SHARED=1`` the blob regions are layered
over :mod:`~repro.perfmodel.sharedmemo` — a file-backed, cross-process
L2.  A local miss falls through to the shared store (the blob is
verified, unpickled, and its record adopted locally); a computed miss
publishes its record to both tiers, so hit rates survive process
boundaries (``--jobs`` workers, ``--shard`` invocations, repeated
runs).  The operand regions (:data:`ARRAY_REGIONS`) never reach the
shared tier, and :func:`trim`/FIFO eviction only ever drop *local*
entries.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import pickle
import threading
import weakref
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from .. import envgates
from ..obs import tracing as _tracing
from . import sharedmemo as _sharedmemo

__all__ = [
    "enabled",
    "set_enabled",
    "clear",
    "trim",
    "counters",
    "scope_begin",
    "scope_end",
    "hit_rate",
    "memoise",
    "memoised",
    "memoised_stats",
    "memoised_rng",
    "signature",
    "kernel_fingerprint",
    "stats_signature",
    "checksum_enabled",
    "set_checksum",
    "integrity_counters",
    "integrity_failures",
    "tamper_entry",
]

#: per-region entry limits (FIFO eviction); generous for the metadata
#: regions, tight for the ones that hold real operand arrays.
_REGION_LIMITS = {
    "stats": 8192,
    "latency": 8192,
    "suite": 8,
    "problem": 512,
    "format": 1024,
    "trace": 512,
    "plan": 1024,
}
_DEFAULT_LIMIT = 4096


class _Region:
    __slots__ = ("store", "hits", "misses", "integrity", "limit")

    def __init__(self, limit: int) -> None:
        self.store: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.integrity = 0  # checksum mismatches caught (and recomputed)
        self.limit = limit


_regions: Dict[str, _Region] = {}
_lock = threading.Lock()
_enabled_override: Optional[bool] = None
_checksum_override: Optional[bool] = None


def _region(name: str) -> _Region:
    reg = _regions.get(name)
    if reg is None:
        reg = _regions[name] = _Region(_REGION_LIMITS.get(name, _DEFAULT_LIMIT))
    return reg


# --------------------------------------------------------------------- #
# control surface
# --------------------------------------------------------------------- #
def enabled() -> bool:
    """Whether memoisation is active (override > env > default on)."""
    if _enabled_override is not None:
        return _enabled_override
    return envgates.flag("REPRO_MEMO")


def set_enabled(flag: Optional[bool]) -> Optional[bool]:
    """Force on (True), off (False), or defer to ``REPRO_MEMO`` (None);
    returns the previous override, for the caller to restore."""
    global _enabled_override
    previous, _enabled_override = _enabled_override, flag
    return previous


def checksum_enabled() -> bool:
    """Whether object-region entries carry verified checksums
    (override > ``REPRO_MEMO_CHECKSUM`` env > default on)."""
    if _checksum_override is not None:
        return _checksum_override
    return envgates.flag("REPRO_MEMO_CHECKSUM")


def set_checksum(flag: Optional[bool]) -> Optional[bool]:
    """Force checksumming on/off, or defer to the env flag (None);
    returns the previous override, for the caller to restore."""
    global _checksum_override
    previous, _checksum_override = _checksum_override, flag
    return previous


def clear() -> None:
    """Drop every cached entry and zero the hit/miss counters."""
    with _lock:
        _regions.clear()


#: the regions whose entries hold real operand arrays (hundreds of MB
#: across a full sweep) rather than scalar metadata.
ARRAY_REGIONS = ("problem", "format")


def trim(regions=ARRAY_REGIONS) -> None:
    """Drop cached entries, keeping the hit/miss counters.

    By default only the operand-carrying regions are dropped; the
    runner calls this between experiments so the cache's heap footprint
    stays bounded by one experiment's working set (``None`` trims every
    region).  Trimming (and the per-region FIFO eviction) is strictly
    local: shared-tier entries are never touched here."""
    with _lock:
        for name, reg in _regions.items():
            if regions is None or name in regions:
                reg.store.clear()


def counters() -> Dict[str, Tuple[int, int]]:
    """``{region: (hits, misses)}`` since the last :func:`clear`."""
    with _lock:
        return {name: (reg.hits, reg.misses) for name, reg in sorted(_regions.items())}


def hit_rate(hits: int, misses: int) -> float:
    """Fraction of lookups served from cache (0.0 when none happened)."""
    total = hits + misses
    return hits / total if total else 0.0


# --------------------------------------------------------------------- #
# per-experiment scope accounting (the runner's hit-rate line)
# --------------------------------------------------------------------- #
#: when active: {region: [lookups, {keys seen this scope}]}
_scope: Optional[Dict[str, list]] = None


def scope_begin() -> None:
    """Start a lookup scope (the runner opens one per experiment).

    A scope counts, per region, total lookups and *distinct* keys; the
    difference is the number of lookups served by repetition **within
    the scope**.  Only lookups that happen are counted, and a lookup
    nested inside a memoised builder happens only when that builder
    misses.  The counters therefore depend on what earlier work left in
    the cache: an outer entry filled before the scope opened is a hit
    that skips the inner lookups a cold run of the same work would
    count.
    """
    global _scope
    with _lock:
        _scope = {}


def scope_end() -> Dict[str, Tuple[int, int]]:
    """Close the scope; ``{region: (repeat_lookups, total_lookups)}``."""
    global _scope
    with _lock:
        scope, _scope = _scope, None
    if not scope:
        return {}
    return {
        region: (lookups - len(seen), lookups)
        for region, (lookups, seen) in sorted(scope.items())
    }


def _scope_note(region: str, key: Any) -> None:
    """Record one lookup in the active scope (caller holds ``_lock``)."""
    ent = _scope.get(region)
    if ent is None:
        ent = _scope[region] = [0, set()]
    ent[0] += 1
    ent[1].add(key)


def integrity_counters() -> Dict[str, int]:
    """``{region: checksum mismatches detected}`` since :func:`clear`."""
    with _lock:
        return {name: reg.integrity for name, reg in sorted(_regions.items())}


def integrity_failures() -> int:
    """Total checksum mismatches detected (every one was recomputed)."""
    with _lock:
        return sum(r.integrity for r in _regions.values())


def tamper_entry(region: str, index: int = 0, flip_byte: int = 0) -> bool:
    """Corrupt one stored blob in place, leaving its digest stale.

    Fault-injection/test hook: flips every bit of one byte of the
    ``index``-th entry's pickled payload.  Returns ``True`` when an
    entry was tampered, ``False`` when the region has no blob entry at
    that position (raw-storage regions cannot be tampered — they carry
    no checksum to catch it, which is exactly the documented boundary).
    """
    with _lock:
        reg = _regions.get(region)
        if reg is None:
            return False
        for i, (key, entry) in enumerate(reg.store.items()):
            if i != index:
                continue
            if not (isinstance(entry, tuple) and entry and entry[0] == "blob"):
                return False
            mutated = bytearray(entry[1])
            head = _sharedmemo.DIGEST_BYTES
            mutated[head + flip_byte % (len(mutated) - head)] ^= 0xFF
            reg.store[key] = ("blob", bytes(mutated))
            return True
    return False


# --------------------------------------------------------------------- #
# fingerprints
# --------------------------------------------------------------------- #
def _digest(*buffers) -> str:
    h = hashlib.blake2b(digest_size=16)
    for buf in buffers:
        arr = np.ascontiguousarray(buf)
        h.update(str(arr.shape).encode())
        h.update(arr.dtype.str.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _array_signature(a: np.ndarray) -> tuple:
    return ("nd", a.shape, a.dtype.str, _digest(a))


#: buffer key of sealed index arrays -> (weak references to the arrays
#: owning their memory, digest): every format object built on the same
#: sealed memory (a CVSE on a DLMC entry's CSR arrays, the per-K SDDMM
#: masks of one topology) shares one digest
_carried: Dict[tuple, tuple] = {}


def _sealed_owner(arr: np.ndarray) -> Optional[np.ndarray]:
    """The array owning ``arr``'s memory if no write can reach it, else
    None.  ``arr`` is sealed when it and every array it views are
    read-only, down to the owner of the memory (or immutable ``bytes``,
    which an array unpickled read-only views)."""
    while not arr.flags.writeable:
        base = arr.base
        if not isinstance(base, np.ndarray):
            return arr if base is None or isinstance(base, bytes) else None
        arr = base
    return None


def _forget(key: tuple) -> Callable:
    return lambda _ref: _carried.pop(key, None)


def _memory_key(arrays: tuple) -> Optional[Tuple[tuple, list]]:
    """``(key, owners)`` for sealed ``arrays``, else None: the key (address,
    shape, strides, dtype of each) names their bytes while the owners live."""
    owners = [_sealed_owner(arr) for arr in arrays]
    if any(owner is None for owner in owners):
        return None
    key = tuple((arr.__array_interface__["data"][0], arr.shape, arr.strides, arr.dtype.str)
                for arr in arrays)
    return key, owners


def _carry(arrays: tuple, digest: str) -> bool:
    """Key ``digest`` on the memory of ``arrays`` if they are sealed."""
    sealed = _memory_key(arrays)
    if sealed is None:
        return False
    key, owners = sealed
    _carried[key] = (tuple(weakref.ref(o, _forget(key)) for o in owners), digest)
    return True


class _Pin:
    """A digest pinned to a format object, with the arrays it covers.

    It pickles with the object; loading it carries the digest to the
    loaded arrays' memory, so objects built on them find it too."""

    __slots__ = ("digest", "arrays")

    def __init__(self, digest: str, arrays: tuple) -> None:
        self.digest, self.arrays = digest, arrays

    def __reduce__(self):
        return _load_pin, (self.digest, self.arrays)


def _load_pin(digest: str, arrays: tuple) -> _Pin:
    _carry(arrays, digest)
    return _Pin(digest, arrays)


def _topology_digest(obj: Any, *arrays) -> str:
    """Digest of a format object's index arrays, hashed once per content.

    Hashing seals each array that owns its memory (read-only), and a
    digest is trusted only while its arrays stay sealed, so it cannot
    outlive a write: a sealed array cannot be written, and one made
    writable again is rehashed for as long as it stays writable (code
    that writes and then seals it again itself is not caught).  Arrays
    that view a writable buffer are hashed on every call.  A sealed
    digest is carried two ways:

    * pinned to the object (:class:`_Pin`), so it rides in the object's
      pickled state (the ``suite`` region hands out unpickled copies,
      whose arrays load read-only);
    * keyed on the arrays' memory, so any object built on the same
      arrays, or on read-only views of them, reuses it.
    """
    pin = getattr(obj, "_memo_digest", None)
    if isinstance(pin, _Pin) and all(
        p is arr and _sealed_owner(arr) is not None for p, arr in zip(pin.arrays, arrays)
    ):
        return pin.digest
    sealed = _memory_key(arrays)
    hit = _carried.get(sealed[0]) if sealed is not None else None
    if hit is not None and all(ref() is o for ref, o in zip(hit[0], sealed[1])):
        d = hit[1]
    else:
        d = _digest(*arrays)
        for arr in arrays:
            if arr.base is None:
                arr.flags.writeable = False
        if not _carry(arrays, d):
            return d
    try:
        object.__setattr__(obj, "_memo_digest", _Pin(d, arrays))
    except (AttributeError, TypeError):
        pass  # slotted/immutable instance: the memory key still carries it
    return d


def _array_meta(a: Optional[np.ndarray]) -> tuple:
    """Shape/dtype only — for value arrays that the cached computation
    provably does not read (analytic stats are topology-driven)."""
    if a is None:
        return ("none",)
    return ("meta", a.shape, a.dtype.str)


def signature(obj: Any) -> Any:
    """Hashable content signature of an argument.

    Sparse formats are fingerprinted by topology (row pointers / column
    indices hashed, value buffers by shape+dtype only); dense arrays
    are hashed in full; scalars pass through.
    """
    # local imports: formats must stay import-independent of perfmodel
    from ..formats.blocked_ell import BlockedEllMatrix
    from ..formats.csr import CSRMatrix
    from ..formats.cvse import ColumnVectorSparseMatrix
    from ..hardware.config import GPUSpec

    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if isinstance(obj, (tuple, list)):
        return tuple(signature(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted((str(k), signature(v)) for k, v in obj.items()))
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, ColumnVectorSparseMatrix):
        return (
            "cvse",
            obj.shape,
            obj.vector_length,
            _topology_digest(obj, obj.row_ptr, obj.col_idx),
            _array_meta(obj.values),
        )
    if isinstance(obj, BlockedEllMatrix):
        return (
            "bell",
            obj.shape,
            obj.block_size,
            _topology_digest(obj, obj.col_blocks),
            _array_meta(obj.values),
        )
    if isinstance(obj, CSRMatrix):
        return (
            "csr",
            obj.shape,
            _topology_digest(obj, obj.row_ptr, obj.col_idx),
            _array_meta(obj.values),
        )
    if isinstance(obj, GPUSpec):
        return ("spec",) + tuple(vars(obj).values())  # flat scalar fields
    if isinstance(obj, np.ndarray):
        return _array_signature(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # e.g. DlmcEntry: qualname + field signatures
        return (type(obj).__qualname__,) + tuple(
            (f.name, signature(getattr(obj, f.name))) for f in dataclasses.fields(obj)
        )
    raise TypeError(f"no memo signature for {type(obj).__qualname__}")


#: instance attributes that never change analytic stats: ``spec`` is
#: keyed separately by :func:`memoised_stats`, ``_model`` is the
#: latency side (derived from spec + efficiency, never read by stats),
#: ``last_sim_stats`` is a run artifact of the simulate path.
_FINGERPRINT_SKIP = frozenset({"spec", "_model", "last_sim_stats"})


def kernel_fingerprint(kern: Any) -> tuple:
    """Kernel identity for the stats region: class, uppercase tile
    constants (walking the MRO so ablation overrides on subclasses or
    instances are seen), and the scalar instance attributes
    (name/variant/precision/...).  The latency-side constants
    (``efficiency``, ``OVERLAP_SLACK``) are deliberately *not* here —
    analytic stats never read them.

    Raises :class:`TypeError` for an instance carrying attributes the
    fingerprint cannot represent (e.g. a method patched onto the
    instance) — :func:`memoised_stats` then bypasses the cache rather
    than risk serving another configuration's stats."""
    items: Dict[str, Any] = {}
    for klass in reversed(type(kern).__mro__):
        for k, v in vars(klass).items():
            if k.isupper() and isinstance(v, (bool, int, float, str, tuple)):
                items[k] = v
    for k, v in vars(kern).items():
        if k in _FINGERPRINT_SKIP:
            continue
        if v is None or isinstance(v, (bool, int, float, str, tuple)):
            items[k] = v
        else:
            raise TypeError(
                f"unfingerprintable instance attribute {k!r} on {type(kern).__qualname__}"
            )
    return (type(kern).__qualname__,) + tuple(sorted(items.items(), key=lambda kv: kv[0]))


def stats_signature(st: Any) -> tuple:
    """Full-content fingerprint of a :class:`KernelStats` (the latency
    region's key: any field the model reads must appear here)."""
    # vars() tuples instead of dataclasses.astuple: the sub-objects are
    # flat scalar records and astuple's recursive walk is hot-path cost
    return (
        st.name,
        (st.launch.grid_x, st.launch.grid_y, st.launch.cta_size),
        tuple(vars(st.resources).values()),
        tuple(sorted((c.name, float(n)) for c, n in st.instructions.counts.items())),
        tuple(vars(st.global_mem).values()),
        tuple(vars(st.shared_mem).values()),
        (st.program.sass_lines, st.program.hot_loop_lines, st.program.loop_back),
        float(st.flops),
        float(st.ilp),
        float(st.stall_correlation),
        float(st.work_imbalance),
        tuple(sorted((str(k), float(v)) for k, v in st.notes.items())),
    )


def _freeze(obj: Any) -> Any:
    """Recursively convert dicts/lists (e.g. a bit-generator state) to
    hashable tuples."""
    if isinstance(obj, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(_freeze(x) for x in obj)
    if isinstance(obj, np.ndarray):
        return _array_signature(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


# --------------------------------------------------------------------- #
# cache core
# --------------------------------------------------------------------- #
def _sealed(val: Any) -> Optional[bytes]:
    """The sealed record of ``val``, or None when it cannot be pickled."""
    try:
        return _sharedmemo.seal(val)
    except Exception:
        return None


def _pack(region: str, val: Any, copy_result: bool) -> tuple:
    """Build the stored entry: a sealed record for the object regions,
    a raw (possibly deep-copied) reference otherwise or when ``val``
    cannot be pickled."""
    if region in _sharedmemo.SHAREABLE_REGIONS and checksum_enabled():
        record = _sealed(val)
        if record is not None:
            return ("blob", record)
    return ("raw", copy.deepcopy(val) if copy_result else val)


def _faults_armed() -> bool:
    """Whether a fault injector is armed (lazy import: repro.faults pulls
    in the campaign module, which imports this one)."""
    from ..faults import injector as _injector

    return _injector.active()


def memoise(region: str, key: Any, compute: Callable[[], Any], copy_result: bool = True):
    """Look up ``key`` in ``region``; on miss run ``compute`` and store.

    ``copy_result=True`` keeps a private deep copy and hands out deep
    copies, so callers may freely mutate what they receive; use
    ``False`` only for values treated as immutable by every caller.
    (Blob-stored entries satisfy both: unpickling always materialises a
    fresh object.)  A blob entry whose bytes no longer match their
    recorded digest is dropped, counted in :func:`integrity_counters`,
    and recomputed — a corrupt entry is never served.

    When the shared tier is enabled, a local miss in a blob region
    falls through to :func:`sharedmemo.lookup` before computing (the
    verified blob is unpickled and adopted locally), and a computed
    value's blob is published back via :func:`sharedmemo.publish` so
    sibling processes skip the same compute.  The local hit/miss
    counters keep pure L1 semantics — a shared hit still counts as a
    local miss, and lands in :func:`sharedmemo.counters` as a hit.

    While a fault injector is armed the cache is bypassed entirely: a
    compute whose call graph passes through an injection site (e.g. the
    ``trace.octet_spmm.ops`` sector stream) may return corrupted bytes,
    and caching — worse, publishing to the shared tier — would serve the
    corruption to every later (un-injected) call with the same key.
    """
    if not enabled():
        return compute()
    if _faults_armed():
        return compute()
    reg = _region(region)
    with _lock:
        if _scope is not None:
            _scope_note(region, key)
        entry = reg.store.get(key)
        if entry is not None:
            if entry[0] == "blob":
                blob = _sharedmemo.unseal(entry[1])
                if blob is not None:
                    reg.hits += 1
                    return pickle.loads(blob)
                reg.integrity += 1
                reg.misses += 1
                del reg.store[key]
            else:
                reg.hits += 1
                val = entry[1]
                return copy.deepcopy(val) if copy_result else val
        else:
            reg.misses += 1
    # local miss: fall through to the shared (cross-process) tier
    shared_key = None
    if region in _sharedmemo.SHAREABLE_REGIONS and _sharedmemo.enabled():
        shared_key = _sharedmemo.key_digest(region, key)
        if shared_key is not None:
            blob = _sharedmemo.lookup(region, shared_key)
            if blob is not None:
                try:
                    val = pickle.loads(blob)
                except Exception:
                    pass  # undecodable despite checksum: recompute
                else:
                    with _lock:
                        # adopt the verified record as read: no second hash
                        reg.store[key] = ("blob", blob.obj)
                        while len(reg.store) > reg.limit:
                            reg.store.popitem(last=False)
                    return val
    if _tracing.enabled():
        # span inside the memo boundary: misses time the real compute,
        # hits record nothing (traced() refuses to wrap a memoised
        # function, see __memo_region__)
        with _tracing.span(f"memo.miss.{region}"):
            val = compute()
    else:
        val = compute()
    with _lock:
        entry = _pack(region, val, copy_result)
        reg.store[key] = entry
        while len(reg.store) > reg.limit:
            reg.store.popitem(last=False)
    if shared_key is not None:
        # a raw local entry (checksum off) still publishes a sealed record
        record = entry[1] if entry[0] == "blob" else _sealed(val)
        if record is not None:
            _sharedmemo.publish(region, shared_key, record)
    return val


def memoised(region: str, copy_result: bool = False):
    """Decorator: memoise a pure function of signable arguments.

    Each memo decorator marks its wrapper with ``__memo_region__``, so
    :func:`repro.obs.tracing.traced` can refuse to wrap it: a span
    outside the memo boundary would time cache hits as well."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not enabled():
                return fn(*args, **kwargs)
            key = (fn.__module__, fn.__qualname__, signature(args), signature(kwargs))
            return memoise(region, key, lambda: fn(*args, **kwargs), copy_result=copy_result)

        wrapper.__wrapped__ = fn
        wrapper.__memo_region__ = region
        return wrapper

    return deco


def memoised_stats(fn):
    """Decorator for kernel ``stats_for``/``stats_for_shape`` methods.

    Also the ``stats.final`` fault-injection site: every stats object
    leaves the pipeline through this wrapper, so the fault campaign
    perturbs counters here — after the cache, on the caller's private
    copy, never the stored entry."""
    from ..faults.injector import site as _fault_site

    @functools.wraps(fn)
    def wrapper(self, *args):
        if not enabled():
            return _fault_site("stats.final", fn(self, *args))
        try:
            fingerprint = kernel_fingerprint(self)
        except TypeError:
            # patched instance: don't risk the cache
            return _fault_site("stats.final", fn(self, *args))
        key = (
            fn.__qualname__,
            fingerprint,
            signature(self.spec),
            signature(args),
        )
        return _fault_site(
            "stats.final",
            memoise("stats", key, lambda: fn(self, *args), copy_result=True),
        )

    wrapper.__wrapped__ = fn
    wrapper.__memo_region__ = "stats"
    return wrapper


def memoised_rng(region: str = "problem"):
    """Decorator for RNG-threaded builders ``fn(*args, rng=Generator)``.

    The key includes the generator's *incoming* bit-generator state; on
    a hit the generator is advanced to the recorded post-state, so the
    downstream draw sequence is identical whether or not the cache
    fired.  Calls without a generator (``rng=None`` means the builder
    makes a throwaway local default) bypass the cache.
    """

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rng = kwargs.pop("rng", None)
            pos = args
            if rng is None and pos and isinstance(pos[-1], np.random.Generator):
                rng, pos = pos[-1], pos[:-1]
            if rng is None or not enabled():
                return fn(*pos, rng=rng, **kwargs)
            key = (
                fn.__module__,
                fn.__qualname__,
                signature(pos),
                signature(kwargs),
                _freeze(rng.bit_generator.state),
            )
            reg = _region(region)
            with _lock:
                if _scope is not None:
                    _scope_note(region, key)
                cached = reg.store.get(key)
                if cached is not None:
                    reg.hits += 1
                    value, post_state = cached
                    rng.bit_generator.state = post_state
                    return value
                reg.misses += 1
            if _tracing.enabled():
                with _tracing.span(f"memo.miss.{region}"):
                    value = fn(*pos, rng=rng, **kwargs)
            else:
                value = fn(*pos, rng=rng, **kwargs)
            with _lock:
                reg.store[key] = (value, rng.bit_generator.state)
                while len(reg.store) > reg.limit:
                    reg.store.popitem(last=False)
            return value

        wrapper.__wrapped__ = fn
        wrapper.__memo_region__ = region
        return wrapper

    return deco
