"""Content-addressed memoisation for the analytic simulator layer.

The analytic stack is referentially transparent almost everywhere:
``stats_for`` depends only on the sparse topology (never the values),
``LatencyModel.estimate`` only on the :class:`KernelStats` fingerprint
plus the spec/efficiency/slack constants.  The sweeps
(fig17/fig19/table2/table3/sensitivity) re-evaluate the same configs
over and over, so this module provides one process-wide cache with a
few independent *regions*:

* ``"stats"``    — kernel ``stats_for`` results, keyed on (kernel
  class + tile constants, :class:`GPUSpec` fingerprint, argument
  topology signatures).  Hits return a fresh copy, so a caller's
  write never reaches the next hit.
* ``"latency"``  — :class:`LatencyModel` estimates, keyed on (spec,
  efficiency, overlap slack, full ``KernelStats`` fingerprint).
* ``"suite"``    — DLMC benchmark suites (pure function of
  shapes/sparsities/seed).
* ``"trace"``    — :class:`~repro.perfmodel.trace.TraceResult` replays
  of the kernels' sector streams (pure function of the topology and
  the replay parameters).
* ``"plan"``     — compiled execution plans of the simulated/functional
  kernel layer (:mod:`repro.plans`): flattened gather/scatter index
  schedules keyed on (kernel fingerprint, structure signature).  A
  plan is pure schedule — no values.

Keys never include floating-point *values* of sparse matrices — only
shapes, dtypes and topology digests.

Control surface: :func:`set_enabled`/:func:`clear`, the
``REPRO_MEMO`` environment variable (``0``/``off``/``false`` disables,
useful for subprocess benchmarks), and :func:`counters` and the
per-experiment scope (:func:`scope_begin`/:func:`scope_end`) for
hit-rate reporting.

Immutability: a ``copy_result=False`` value (``suite``/``trace``/
``plan``, and :func:`~repro.kernels.sddmm_common.analyze_windows` in
``stats``) is frozen once, when stored — every ndarray it reaches is
set read-only, and its records are frozen dataclasses and tuples — and
is handed out by reference.  A ``copy_result=True`` value
(``stats``/``latency``) is stored as a private pickle and every hit
unpickles a fresh copy.  Neither form is hashed: a stored entry cannot
be written through what a caller holds, so there is nothing for a
checksum to catch in process.

Shared tier: when ``REPRO_MEMO_SHARED=1`` the regions are layered
over :mod:`~repro.perfmodel.sharedmemo` — a file-backed, cross-process
L2.  A local miss falls through to the shared store (the blob is
verified, unpickled, and the value adopted locally); a computed miss
is sealed (:func:`sharedmemo.seal`) and published, so hit rates
survive process boundaries (``--jobs`` workers, ``--shard``
invocations, repeated runs).  FIFO eviction only ever drops *local*
entries.
"""

from __future__ import annotations

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
    "counters",
    "scope_begin",
    "scope_end",
    "hit_rate",
    "memoise",
    "memoised",
    "memoised_stats",
    "signature",
    "kernel_fingerprint",
    "stats_signature",
]

#: per-region entry limits (FIFO eviction); generous for the metadata
#: regions, tight for the suites, which hold whole DLMC topology sets.
_REGION_LIMITS = {
    "stats": 8192,
    "latency": 8192,
    "suite": 8,
    "trace": 512,
    "plan": 1024,
}
_DEFAULT_LIMIT = 4096


class _Region:
    __slots__ = ("store", "hits", "misses", "limit")

    def __init__(self, limit: int) -> None:
        self.store: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.limit = limit


_regions: Dict[str, _Region] = {}
_lock = threading.Lock()
_enabled_override: Optional[bool] = None


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


def clear() -> None:
    """Drop every cached entry and zero the hit/miss counters."""
    with _lock:
        _regions.clear()


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
      pickled state (a shared-tier hit unpickles the suite, whose
      arrays load read-only);
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
        return ("nd", obj.shape, obj.dtype.str, _digest(obj))
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


# --------------------------------------------------------------------- #
# cache core
# --------------------------------------------------------------------- #
def _sealed(val: Any) -> Optional[bytes]:
    """The sealed record of ``val``, or None when it cannot be pickled."""
    try:
        return _sharedmemo.seal(val)
    except Exception:
        return None


def _set_read_only(obj: Any, seen: set) -> None:
    """Mark every ndarray reachable from ``obj`` read-only (through
    containers and instance attributes; ``seen`` breaks cycles)."""
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)) or id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
        return
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (tuple, list, set, frozenset)):
        children = obj
    else:
        children = list(getattr(obj, "__dict__", {}).values())
        children += [getattr(obj, name) for name in getattr(type(obj), "__slots__", ())
                     if hasattr(obj, name)]
    for child in children:
        _set_read_only(child, seen)


def _pack(val: Any, copy_result: bool) -> Any:
    """The stored entry of ``val``: a private pickle to copy out on every
    hit, or ``val`` itself, frozen, to hand out by reference."""
    if copy_result:
        return pickle.dumps(val, protocol=pickle.HIGHEST_PROTOCOL)
    _set_read_only(val, set())
    return val


def _store(reg: _Region, key: Any, entry: Any) -> None:
    with _lock:
        reg.store[key] = entry
        while len(reg.store) > reg.limit:
            reg.store.popitem(last=False)


_MISSING = object()


def memoise(region: str, key: Any, compute: Callable[[], Any], copy_result: bool = True):
    """Look up ``key`` in ``region``; on miss run ``compute`` and store.

    ``copy_result=True`` stores a private pickle of the value and hands
    out a fresh unpickled copy on every hit, so callers may freely
    mutate what they receive (the value must pickle).  ``False`` freezes
    the value when it is stored — every ndarray it reaches becomes
    read-only — and hands out that one object: use it only for values
    whose records no caller rebinds (frozen dataclasses, tuples).

    When the shared tier is enabled, a local miss in a shareable region
    falls through to :func:`sharedmemo.lookup` before computing (the
    verified blob is unpickled and adopted locally), and a computed
    value is sealed and published via :func:`sharedmemo.publish` so
    sibling processes skip the same compute.  The local hit/miss
    counters keep pure L1 semantics — a shared hit still counts as a
    local miss, and lands in :func:`sharedmemo.counters` as a hit.
    """
    if not enabled():
        return compute()
    reg = _region(region)
    with _lock:
        if _scope is not None:
            _scope_note(region, key)
        entry = reg.store.get(key, _MISSING)
        if entry is _MISSING:
            reg.misses += 1
        else:
            reg.hits += 1
    if entry is not _MISSING:
        return pickle.loads(entry) if copy_result else entry
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
                    # the verified pickle is the copy source as read
                    _store(reg, key, blob if copy_result else _pack(val, False))
                    return val
    if _tracing.enabled():
        # span inside the memo boundary: misses time the real compute,
        # hits record nothing (traced() refuses to wrap a memoised
        # function, see __memo_region__)
        with _tracing.span(f"memo.miss.{region}"):
            val = compute()
    else:
        val = compute()
    _store(reg, key, _pack(val, copy_result))
    if shared_key is not None:
        record = _sealed(val)
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
    """Decorator for kernel ``stats_for``/``stats_for_shape`` methods."""

    @functools.wraps(fn)
    def wrapper(self, *args):
        if not enabled():
            return fn(self, *args)
        try:
            fingerprint = kernel_fingerprint(self)
        except TypeError:
            # patched instance: don't risk the cache
            return fn(self, *args)
        key = (
            fn.__qualname__,
            fingerprint,
            signature(self.spec),
            signature(args),
        )
        return memoise("stats", key, lambda: fn(self, *args), copy_result=True)

    wrapper.__wrapped__ = fn
    wrapper.__memo_region__ = "stats"
    return wrapper

