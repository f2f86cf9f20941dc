"""Parity, caching, and fault transparency of the compiled-plan layer.

The plan compilers in :mod:`repro.plans` replace the interpreted
per-row kernel walks with flattened gather/scatter schedules.  Three
contracts are pinned here:

* **bit parity** — every dispatch-registered simulated kernel and the
  shared functional paths produce uint16-identical fp16 outputs (and
  identical tensor-core issue accounting) through the plan path and
  the pinned ``*_reference`` twin, fuzzed across vector lengths;
* **cache discipline** — plans live in the checksummed ``plan`` memo
  region: second compile is a hit, topology or tile-config changes
  miss, tampered blobs are detected and recompiled, and the
  ``REPRO_PLANS`` gate routes everything back to the references;
* **fault transparency** — injection sites fire at execution time on
  the plan path (plans carry schedule only), so a fault campaign
  detects SDCs identically with plans on or off.
"""

import numpy as np
import pytest

from repro import plans
from repro.obs import metrics, tracing
from repro.faults import FaultInjector, run_campaign
from repro.formats.conversions import cvse_from_csr_topology
from repro.formats.csr import CSRMatrix
from repro.formats.cvse import ColumnVectorSparseMatrix
from repro.kernels.cases import KERNEL_CASES
from repro.kernels.functional import (
    sddmm_functional,
    sddmm_functional_reference,
    spmm_functional,
    spmm_functional_reference,
)
from repro.kernels.sddmm_octet import SDDMM_VARIANTS, OctetSddmmKernel
from repro.kernels.sddmm_wmma import WmmaSddmmKernel
from repro.kernels.spmm_octet import OctetSpmmKernel
from repro.kernels.spmm_wmma import WmmaSpmmKernel
from repro.perfmodel import memo
from repro.sanitizer import plancheck

VECTOR_LENGTHS = (2, 4, 8)


def _random_cvse(rng, rows, cols, v, density=0.3):
    dense = (rng.random((rows, cols)) < density).astype(np.float16)
    dense[0, 0] = 1.0  # keep at least one nonzero
    return cvse_from_csr_topology(CSRMatrix.from_dense(dense), v, rng)


def _random_mask(rng, rows, cols, v, density=0.3):
    grp = rng.random((rows, cols)) < density
    grp[:, 0] = True
    return ColumnVectorSparseMatrix.mask_from_dense(np.repeat(grp, v, axis=0), v)


def _bits(x):
    vals = x.values if isinstance(x, ColumnVectorSparseMatrix) else x
    return np.asarray(vals).view(np.uint16)


def _counts(st):
    return (st.hmma_steps, st.mma_instructions, st.switch_steps)


@pytest.fixture(autouse=True)
def _plans_default():
    plans.set_enabled(None)
    yield
    plans.set_enabled(None)


# --------------------------------------------------------------------- #
# fuzzed bit-for-bit parity: plan path vs interpreted reference twin
# --------------------------------------------------------------------- #
class TestPlanParity:
    @pytest.mark.parametrize("v", VECTOR_LENGTHS)
    def test_spmm_octet(self, v):
        rng = np.random.default_rng(300 + v)
        kern = OctetSpmmKernel(simulate=True)
        for trial in range(3):
            a = _random_cvse(rng, 16, 40 + 8 * trial, v)
            b = rng.uniform(-1, 1, (a.shape[1], 48)).astype(np.float16)
            got = kern._execute_simulated(a, b)
            st = _counts(kern.last_sim_stats)
            ref = kern._execute_simulated_reference(a, b)
            assert np.array_equal(_bits(got), _bits(ref))
            assert st == _counts(kern.last_sim_stats)

    @pytest.mark.parametrize("v", VECTOR_LENGTHS)
    def test_spmm_wmma(self, v):
        rng = np.random.default_rng(400 + v)
        kern = WmmaSpmmKernel(simulate=True)
        for trial in range(3):
            a = _random_cvse(rng, 16, 40 + 8 * trial, v)
            b = rng.uniform(-1, 1, (a.shape[1], 48)).astype(np.float16)
            got = kern._execute_simulated(a, b)
            st = _counts(kern.last_sim_stats)
            ref = kern._execute_simulated_reference(a, b)
            assert np.array_equal(_bits(got), _bits(ref))
            assert st == _counts(kern.last_sim_stats)

    @pytest.mark.parametrize("v", VECTOR_LENGTHS)
    @pytest.mark.parametrize("variant", sorted(SDDMM_VARIANTS))
    def test_sddmm_octet(self, v, variant):
        rng = np.random.default_rng(500 + v)
        kern = OctetSddmmKernel(variant=variant, simulate=True)
        mask = _random_mask(rng, 12, 40, v)
        a = rng.uniform(-1, 1, (mask.shape[0], 24)).astype(np.float16)
        b = rng.uniform(-1, 1, (24, mask.shape[1])).astype(np.float16)
        got = kern._execute_simulated(a, b, mask)
        st = _counts(kern.last_sim_stats)
        ref = kern._execute_simulated_reference(a, b, mask)
        assert np.array_equal(_bits(got), _bits(ref))
        assert st == _counts(kern.last_sim_stats)

    @pytest.mark.parametrize("v", VECTOR_LENGTHS)
    def test_sddmm_wmma(self, v):
        rng = np.random.default_rng(600 + v)
        kern = WmmaSddmmKernel(simulate=True)
        mask = _random_mask(rng, 12, 40, v)
        a = rng.uniform(-1, 1, (mask.shape[0], 32)).astype(np.float16)
        b = rng.uniform(-1, 1, (32, mask.shape[1])).astype(np.float16)
        got = kern._execute_simulated(a, b, mask)
        st = _counts(kern.last_sim_stats)
        ref = kern._execute_simulated_reference(a, b, mask)
        assert np.array_equal(_bits(got), _bits(ref))
        assert st == _counts(kern.last_sim_stats)

    @pytest.mark.parametrize("v", VECTOR_LENGTHS)
    def test_functional(self, v):
        rng = np.random.default_rng(700 + v)
        a = _random_cvse(rng, 16, 48, v)
        b = rng.uniform(-1, 1, (a.shape[1], 40)).astype(np.float16)
        assert np.array_equal(
            _bits(spmm_functional(a, b)), _bits(spmm_functional_reference(a, b))
        )
        mask = _random_mask(rng, 12, 40, v)
        ad = rng.uniform(-1, 1, (mask.shape[0], 24)).astype(np.float16)
        bd = rng.uniform(-1, 1, (24, mask.shape[1])).astype(np.float16)
        assert np.array_equal(
            _bits(sddmm_functional(ad, bd, mask)),
            _bits(sddmm_functional_reference(ad, bd, mask)),
        )

    def test_disabled_gate_routes_to_reference(self):
        rng = np.random.default_rng(42)
        a = _random_cvse(rng, 16, 48, 4)
        b = rng.uniform(-1, 1, (a.shape[1], 32)).astype(np.float16)
        kern = OctetSpmmKernel(simulate=True)
        ref = kern._execute_simulated_reference(a, b)
        plans.set_enabled(False)
        assert not plans.enabled()
        assert np.array_equal(_bits(kern._execute_simulated(a, b)), _bits(ref))

    def test_env_flag_disables(self, monkeypatch):
        plans.set_enabled(None)
        monkeypatch.setenv("REPRO_PLANS", "0")
        assert not plans.enabled()
        monkeypatch.setenv("REPRO_PLANS", "1")
        assert plans.enabled()


# --------------------------------------------------------------------- #
# plan cache: hits, invalidation, integrity
# --------------------------------------------------------------------- #
class _NarrowTileSpmm(OctetSpmmKernel):
    """Same kernel, different tile config -> different fingerprint."""

    TILE_N = 32


class TestPlanCache:
    @pytest.fixture(autouse=True)
    def _memo_on(self):
        memo.set_enabled(True)
        memo.set_checksum(True)
        memo.clear()
        yield
        memo.set_enabled(None)
        memo.set_checksum(None)
        memo.clear()

    def _plan_counters(self):
        return memo.counters().get("plan", (0, 0))

    def test_second_compile_is_a_hit(self):
        rng = np.random.default_rng(0)
        a = _random_cvse(rng, 16, 48, 4)
        kern = OctetSpmmKernel(simulate=True)
        plans.spmm_octet_plan(kern, a)
        assert self._plan_counters() == (0, 1)
        plans.spmm_octet_plan(kern, a)
        assert self._plan_counters() == (1, 1)

    def test_topology_change_invalidates(self):
        rng = np.random.default_rng(1)
        kern = OctetSpmmKernel(simulate=True)
        a = _random_cvse(rng, 16, 48, 4)
        plans.spmm_octet_plan(kern, a)
        other = _random_cvse(rng, 16, 48, 4)  # same shape, new topology
        plans.spmm_octet_plan(kern, other)
        assert self._plan_counters() == (0, 2)

    def test_tile_config_change_invalidates(self):
        rng = np.random.default_rng(2)
        a = _random_cvse(rng, 16, 48, 4)
        plans.spmm_octet_plan(OctetSpmmKernel(simulate=True), a)
        plans.spmm_octet_plan(_NarrowTileSpmm(simulate=True), a)
        assert self._plan_counters() == (0, 2)

    def test_values_do_not_key_the_plan(self):
        # plans are schedule-only: same topology with fresh values hits
        rng = np.random.default_rng(3)
        a = _random_cvse(rng, 16, 48, 4)
        kern = OctetSpmmKernel(simulate=True)
        plans.spmm_octet_plan(kern, a)
        rehydrated = a.with_values(
            rng.uniform(-1, 1, a.values.shape).astype(np.float16)
        )
        plans.spmm_octet_plan(kern, rehydrated)
        assert self._plan_counters() == (1, 1)

    def test_tampered_plan_detected_and_recompiled(self):
        rng = np.random.default_rng(4)
        a = _random_cvse(rng, 16, 48, 4)
        b = rng.uniform(-1, 1, (a.shape[1], 32)).astype(np.float16)
        kern = OctetSpmmKernel(simulate=True)
        ref = kern._execute_simulated_reference(a, b)
        kern._execute_simulated(a, b)  # populate the plan region
        base = memo.integrity_failures()
        assert memo.tamper_entry("plan", index=0, flip_byte=5)
        got = kern._execute_simulated(a, b)  # corrupt blob never served
        assert memo.integrity_failures() == base + 1
        assert np.array_equal(_bits(got), _bits(ref))

    def test_memo_disabled_compiles_fresh(self):
        memo.set_enabled(False)
        rng = np.random.default_rng(5)
        a = _random_cvse(rng, 16, 48, 4)
        kern = OctetSpmmKernel(simulate=True)
        p1 = plans.spmm_octet_plan(kern, a)
        p2 = plans.spmm_octet_plan(kern, a)
        assert p1 is not p2
        assert "plan" not in memo.counters()


# --------------------------------------------------------------------- #
# observability: the plan region surfaces in the derived metrics
# --------------------------------------------------------------------- #
class TestPlanMetrics:
    @pytest.fixture(autouse=True)
    def _obs_on(self):
        memo.set_enabled(True)
        memo.clear()
        tracing.enable()
        metrics.reset()
        yield
        tracing.set_enabled(None)
        metrics.reset()
        memo.set_enabled(None)
        memo.clear()

    def test_plan_hit_rate_is_a_derived_metric(self):
        rng = np.random.default_rng(30)
        a = _random_cvse(rng, 16, 48, 4)
        kern = OctetSpmmKernel(simulate=True)
        plans.spmm_octet_plan(kern, a)  # miss
        plans.spmm_octet_plan(kern, a)  # hit
        # emit the deltas the way the experiment runner's obs payload does
        h, m = memo.counters()["plan"]
        metrics.counter_add("memo.plan.hits", h)
        metrics.counter_add("memo.plan.misses", m)
        snap = metrics.snapshot()
        assert snap["memo"]["plan"] == {
            "hits": 1, "misses": 1, "hit_rate": 0.5,
            "shared_hits": 0, "shared_misses": 0, "shared_hit_rate": 0.0,
        }
        assert snap["derived"]["memo.plan.hit_rate"] == 0.5

    def test_plan_region_always_reported(self):
        snap = metrics.snapshot()
        assert snap["memo"]["plan"] == {
            "hits": 0, "misses": 0, "hit_rate": 0.0,
            "shared_hits": 0, "shared_misses": 0, "shared_hit_rate": 0.0,
        }
        assert snap["derived"]["memo.plan.hit_rate"] == 0.0


# --------------------------------------------------------------------- #
# schedule validation (the sanitizer's plancheck pass uses the same API)
# --------------------------------------------------------------------- #
class TestPlanValidation:
    def test_compiled_plans_are_clean(self):
        rng = np.random.default_rng(10)
        a = _random_cvse(rng, 16, 48, 4)
        mask = _random_mask(rng, 12, 40, 4)
        assert plans.validate_plan(plans.spmm_octet_plan(OctetSpmmKernel(simulate=True), a), a) == []
        assert plans.validate_plan(plans.spmm_wmma_plan(WmmaSpmmKernel(simulate=True), a), a) == []
        sd = OctetSddmmKernel(variant="reg", simulate=True)
        assert plans.validate_plan(plans.sddmm_octet_plan(sd, mask, 24), mask, k=24) == []
        wd = WmmaSddmmKernel(simulate=True)
        assert plans.validate_plan(plans.sddmm_wmma_plan(wd, mask, 24), mask, k=24) == []

    def test_corrupted_schedule_is_flagged(self):
        rng = np.random.default_rng(11)
        a = _random_cvse(rng, 16, 48, 4)
        plan = plans.spmm_octet_plan(OctetSpmmKernel(simulate=True), a)
        plan.layout.slots[0] += 1  # mis-attribute one fragment slot
        assert plans.validate_plan(plan, a)

    def test_plancheck_wraps_findings_and_counters(self):
        rng = np.random.default_rng(12)
        a = _random_cvse(rng, 16, 48, 4)
        findings, counters = plancheck.check_plan(
            KERNEL_CASES["spmm-octet"], OctetSpmmKernel(simulate=True), a
        )
        assert findings == []
        assert counters["plan.groups"] > 0
        assert counters["plan.slots"] > 0


# --------------------------------------------------------------------- #
# fault transparency: sites fire at execution time, never inside plans
# --------------------------------------------------------------------- #
class TestFaultTransparency:
    def test_armed_injector_fires_on_plan_path(self):
        rng = np.random.default_rng(20)
        a = _random_cvse(rng, 16, 48, 4)
        b = rng.uniform(-1, 1, (a.shape[1], 32)).astype(np.float16)
        kern = OctetSpmmKernel(simulate=True)
        clean = kern._execute_simulated(a, b)
        inj = FaultInjector("spmm_octet.acc", "bitflip16", seed=7)
        with inj.armed():
            dirty = kern._execute_simulated(a, b)
        assert inj.fired
        assert not np.array_equal(_bits(clean), _bits(dirty))

    def test_campaign_detects_identically_plan_vs_reference(self):
        def flat(result):
            return [(r.target, r.seed, r.detected) for r in result.records]

        plans.set_enabled(True)
        on = flat(run_campaign("smoke", seed=77))
        plans.set_enabled(False)
        off = flat(run_campaign("smoke", seed=77))
        assert on == off
