"""The memoised analytic layer must be *transparent*: cached results
equal recomputed ones, any input that could change a result busts the
key."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.datasets.benchmark_suite import build_sddmm_problem
from repro.datasets.dlmc import dlmc_suite
from repro.formats import ColumnVectorSparseMatrix
from repro.formats.conversions import cvse_from_csr_topology
from repro.hardware.config import GPUSpec
from repro.kernels import sddmm_common
from repro.kernels.cases import KERNEL_CASES
from repro.kernels.sddmm_common import WindowProfile, analyze_windows
from repro.kernels.spmm_fpu import FpuSpmmKernel
from repro.kernels.spmm_octet import OctetSpmmKernel
from repro.perfmodel import memo


@pytest.fixture(autouse=True)
def _fresh_cache():
    memo.clear()
    memo.set_enabled(True)
    yield
    memo.clear()
    memo.set_enabled(None)


def _entry():
    return dlmc_suite(shapes=((64, 128),), sparsities=(0.9,))[0]


def _operand():
    return cvse_from_csr_topology(_entry().csr, 4, np.random.default_rng(1))


class TestMemoisedStats:
    def test_cached_equals_recomputed(self):
        a = _operand()
        kern = OctetSpmmKernel()
        first = kern.stats_for(a, 64)
        hit = kern.stats_for(a, 64)
        memo.set_enabled(False)
        fresh = kern.stats_for(a, 64)
        assert memo.stats_signature(hit) == memo.stats_signature(first)
        assert memo.stats_signature(hit) == memo.stats_signature(fresh)

    def test_second_call_is_a_hit(self):
        a = _operand()
        kern = OctetSpmmKernel()
        kern.stats_for(a, 64)
        before = memo.counters()["stats"]
        kern.stats_for(a, 64)
        after = memo.counters()["stats"]
        assert after == (before[0] + 1, before[1])

    def test_gpuspec_change_busts_cache(self):
        a = _operand()
        OctetSpmmKernel().stats_for(a, 64)
        _, misses = memo.counters()["stats"]
        half_sms = dataclasses.replace(GPUSpec(), num_sms=40)
        OctetSpmmKernel(spec=half_sms).stats_for(a, 64)
        assert memo.counters()["stats"][1] == misses + 1

    def test_patched_instance_bypasses_cache(self):
        # a monkeypatched method is invisible to the fingerprint, so the
        # wrapper must not serve (or store) results for such an instance
        a = _operand()
        kern = FpuSpmmKernel()
        kern._tile_n = lambda v: 32
        kern.stats_for(a, 64)
        assert "stats" not in memo.counters()

    def test_returns_defensive_copy(self):
        a = _operand()
        kern = OctetSpmmKernel()
        st = kern.stats_for(a, 64)
        st.flops = -1.0
        again = kern.stats_for(a, 64)
        assert again.flops != -1.0


class TestTopologyDigest:
    def _cvse(self):
        rng = np.random.default_rng(4)
        dense = np.repeat(rng.random((8, 32)) < 0.3, 4, axis=0) * rng.uniform(1, 2, (32, 32))
        return ColumnVectorSparseMatrix.from_dense(dense.astype(np.float16), 4)

    def test_fig17_twice_hashes_each_topology_once(self, monkeypatch):
        from repro.experiments import fig17_spmm_speedup

        computed = []
        digest = memo._digest

        def counting(*bufs):
            computed.append(digest(*bufs))
            return computed[-1]

        monkeypatch.setattr(memo, "_digest", counting)
        for _ in range(2):
            fig17_spmm_speedup.run(quick=True, vector_lengths=(2, 4), n_sizes=(64,),
                                   sparsities=(0.9,))
        assert computed and len(computed) == len(set(computed))

    def test_shared_by_objects_on_the_same_arrays(self, monkeypatch):
        a = self._cvse()
        first = memo.signature(a)[3]
        monkeypatch.setattr(memo, "_digest", None)  # any rehash would fail
        mask = ColumnVectorSparseMatrix(a.shape, a.vector_length, a.row_ptr, a.col_idx)
        assert memo.signature(mask)[3] == first

    def test_carried_through_pickling(self, monkeypatch):
        a = self._cvse()
        first = memo.signature(a)[3]
        copy = pickle.loads(pickle.dumps(a, protocol=pickle.HIGHEST_PROTOCOL))
        monkeypatch.setattr(memo, "_digest", None)
        assert memo.signature(copy)[3] == first

    def test_hashing_seals_the_arrays(self):
        a = self._cvse()
        memo.signature(a)
        with pytest.raises(ValueError, match="read-only"):
            a.col_idx[0] = a.col_idx[0]

    def test_never_outlives_a_write(self):
        a = self._cvse()
        first = memo.signature(a)[3]
        a.col_idx.flags.writeable = True
        a.col_idx[-1] = (a.col_idx[-1] + 1) % a.shape[1]
        assert memo.signature(a)[3] != first
        twin = ColumnVectorSparseMatrix(a.shape, a.vector_length, a.row_ptr, a.col_idx)
        assert memo.signature(twin)[3] == memo.signature(a)[3]

    def test_view_of_writable_memory_is_rehashed(self):
        a = self._cvse()
        buf = np.concatenate([a.col_idx, [0]])
        view = ColumnVectorSparseMatrix(a.shape, a.vector_length, a.row_ptr, buf[:-1])
        first = memo.signature(view)[3]
        assert buf.flags.writeable  # not ours to seal
        buf[0] = (buf[0] + 1) % a.shape[1]
        assert memo.signature(view)[3] != first


class _CountedProfile(WindowProfile):
    """A :class:`WindowProfile` that logs the width of each one computed
    (a memo hit unpickles the stored profile and constructs none)."""

    computed: list = []

    def __init__(self, **fields):
        super().__init__(**fields)
        self.computed.append(self.window_cols)


class TestWindowProfile:
    K_SIZES = (64, 128, 256)

    def _price(self, mask):
        kernels = [c.kernel() for c in KERNEL_CASES.values() if c.operand == "mask"]
        assert len(kernels) == 5
        return [memo.stats_signature(kern.stats_for(mask, k))
                for kern in kernels for k in self.K_SIZES]

    def test_computed_once_per_window_width(self, monkeypatch):
        mask = build_sddmm_problem(_entry(), 4, 64).mask
        monkeypatch.setattr(sddmm_common, "WindowProfile", _CountedProfile)
        monkeypatch.setattr(_CountedProfile, "computed", [])
        memo.set_enabled(False)
        uncached = self._price(mask)
        assert len(_CountedProfile.computed) == 5 * len(self.K_SIZES)
        widths = sorted(set(_CountedProfile.computed))

        _CountedProfile.computed.clear()
        memo.set_enabled(True)
        assert self._price(mask) == uncached
        assert sorted(_CountedProfile.computed) == widths

        for w in widths:
            on = analyze_windows(mask, w)
            memo.set_enabled(False)
            off = analyze_windows(mask, w)
            memo.set_enabled(True)
            occupied_on, occupied_off = on.occupied_counts, off.occupied_counts
            assert np.array_equal(occupied_on, occupied_off)
            assert occupied_on.dtype == occupied_off.dtype
            rest_on, rest_off = dataclasses.asdict(on), dataclasses.asdict(off)
            del rest_on["occupied_counts"], rest_off["occupied_counts"]
            assert rest_on == rest_off


class TestControlSurface:
    def test_disable_forces_recompute(self):
        a = _operand()
        kern = OctetSpmmKernel()
        kern.stats_for(a, 64)
        memo.set_enabled(False)
        kern.stats_for(a, 64)
        assert memo.counters()["stats"] == (0, 1)  # untouched while off

    def test_clear_resets_counters_and_store(self):
        a = _operand()
        kern = OctetSpmmKernel()
        kern.stats_for(a, 64)
        kern.stats_for(a, 64)
        memo.clear()
        assert memo.counters() == {}
        kern.stats_for(a, 64)
        assert memo.counters()["stats"] == (0, 1)  # a fresh miss

    def test_hit_rate(self):
        assert memo.hit_rate(0, 0) == 0.0
        assert memo.hit_rate(3, 1) == 0.75


def test_scope_counts_only_the_lookups_that_happen():
    # the lookup nested in a memoised builder happens only when that
    # builder misses, so a warm outer hit hides it from the scope
    def inner():
        return memo.memoise("stats", ("scope-inner",), lambda: 1)

    def outer():
        return memo.memoise("latency", ("scope-outer",), inner)

    memo.scope_begin()
    outer()
    cold = memo.scope_end()
    memo.scope_begin()
    outer()
    warm = memo.scope_end()
    assert cold == {"latency": (0, 1), "stats": (0, 1)}
    assert warm == {"latency": (0, 1)}

