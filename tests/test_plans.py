"""Parity, caching, and fault transparency of the compiled-plan layer.

The plan compilers in :mod:`repro.plans` replace the interpreted
per-row kernel walks with flattened gather/scatter schedules.  Three
contracts are pinned here:

* **bit parity** — every case-table row with a plan, at V = 2, 4 and
  8, produces uint16-identical fp16 outputs and identical tensor-core
  issue counts through the plan path and its oracle in
  ``tests/oracles`` (:data:`~tests.oracles.ORACLES`), and the shared
  functional paths match their interpreted expansions;
* **cache discipline** — plans live in the ``plan`` memo region:
  second compile is a hit, topology or tile-config changes miss, and
  a cached plan is frozen, so no write reaches it;
* **fault transparency** — a defect planted in a plan executor shows
  at execution time and never reaches the cached plan (plans carry
  schedule only).
"""

import dataclasses
from typing import List

import numpy as np
import pytest

from repro import plans
from repro.datasets.dlmc import generate_topology
from repro.obs import metrics, tracing
from repro.formats.conversions import cvse_from_csr_topology
from repro.formats.csr import CSRMatrix
from repro.formats.cvse import ColumnVectorSparseMatrix
from repro.kernels.cases import KERNEL_CASES
from repro.kernels.functional import sddmm_functional, spmm_functional
from repro.kernels.sddmm_octet import OctetSddmmKernel
from repro.kernels.sddmm_wmma import WmmaSddmmKernel
from repro.kernels.spmm_octet import OctetSpmmKernel
from repro.kernels.spmm_wmma import WmmaSpmmKernel
from repro.perfmodel import memo

from .oracles import ORACLES, sddmm_functional_reference, spmm_functional_reference, spmm_octet
from .sanitizer import plancheck
from .sanitizer.validate import validate_plan

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


# --------------------------------------------------------------------- #
# bit-for-bit parity: plan path vs interpreted oracle
# --------------------------------------------------------------------- #
#: the case-table rows that run a compiled plan
PLANNED = [name for name, case in KERNEL_CASES.items() if case.plan is not None]


def _parity_draws(operand: str, v: int):
    """Seeded ``(label, operands)`` draws for one operand kind: fuzzed
    small problems, then the 64x128 topology at sparsity 0.7 with
    N = K = 64 drawn from seed 0."""
    rng = np.random.default_rng(300 + v)
    for trial in range(3):
        if operand == "cvse":
            a = _random_cvse(rng, 16, 40 + 8 * trial, v)
            b = rng.uniform(-1, 1, (a.shape[1], 48)).astype(np.float16)
            yield f"fuzz{trial}", (a, b)
        else:
            mask = _random_mask(rng, 12, 40 + 8 * trial, v)
            k = 24 + 4 * trial  # 24 and 28 end on a partial 16-wide WMMA k-step
            a = rng.uniform(-1, 1, (mask.shape[0], k)).astype(np.float16)
            b = rng.uniform(-1, 1, (k, mask.shape[1])).astype(np.float16)
            yield f"fuzz{trial}", (a, b, mask)
    rng = np.random.default_rng(0)
    a = cvse_from_csr_topology(generate_topology((64, 128), 0.7, rng), v, rng)
    mask = ColumnVectorSparseMatrix(a.shape, v, a.row_ptr, a.col_idx, None)
    b_spmm = rng.uniform(-1, 1, (a.shape[1], 64)).astype(np.float16)
    a_dense = rng.uniform(-1, 1, (a.shape[0], 64)).astype(np.float16)
    b_sddmm = rng.uniform(-1, 1, (64, a.shape[1])).astype(np.float16)
    yield "64x128", (a, b_spmm) if operand == "cvse" else (a_dense, b_sddmm, mask)


def plan_oracle_mismatches(case, v: int) -> List[str]:
    """How ``case``'s compiled-plan path departs from its oracle in
    :data:`ORACLES` over the parity draws: fp16 output bits (uint16
    views) and ``(hmma_steps, mma_instructions, switch_steps)``."""
    kern = case.kernel(simulate=True)
    oracle = ORACLES[case.factory]
    found = []
    for label, ops in _parity_draws(case.operand, v):
        got = kern._execute_simulated(*ops)
        ref, ref_stats = oracle(kern, *ops)
        if not np.array_equal(_bits(got), _bits(ref)):
            found.append(f"{label}: output bits differ")
        if _counts(kern.last_sim_stats) != _counts(ref_stats):
            found.append(f"{label}: issue counts {_counts(kern.last_sim_stats)} "
                         f"!= {_counts(ref_stats)}")
    return found


class TestPlanParity:
    @pytest.mark.parametrize("v", VECTOR_LENGTHS)
    @pytest.mark.parametrize("name", PLANNED)
    def test_plan_matches_oracle(self, name, v):
        assert plan_oracle_mismatches(KERNEL_CASES[name], v) == []

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
        memo.clear()
        yield
        memo.set_enabled(None)
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

    def test_cached_plan_is_read_only(self):
        rng = np.random.default_rng(4)
        a = _random_cvse(rng, 16, 48, 4)
        b = rng.uniform(-1, 1, (a.shape[1], 32)).astype(np.float16)
        kern = OctetSpmmKernel(simulate=True)
        ref, _ = spmm_octet(kern, a, b)
        kern._execute_simulated(a, b)  # populate the plan region
        plan = plans.spmm_octet_plan(kern, a)
        with pytest.raises(ValueError, match="read-only"):
            plan.layout.slots[0] += 1  # a write never reaches the cache
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.levels = ()
        got = kern._execute_simulated(a, b)
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
# schedule validation (the sanitizer's plancheck pass wraps validate_plan)
# --------------------------------------------------------------------- #
class TestPlanValidation:
    def test_compiled_plans_are_clean(self):
        rng = np.random.default_rng(10)
        a = _random_cvse(rng, 16, 48, 4)
        mask = _random_mask(rng, 12, 40, 4)
        assert validate_plan(plans.spmm_octet_plan(OctetSpmmKernel(simulate=True), a), a) == []
        assert validate_plan(plans.spmm_wmma_plan(WmmaSpmmKernel(simulate=True), a), a) == []
        sd = OctetSddmmKernel(variant="reg", simulate=True)
        assert validate_plan(plans.sddmm_octet_plan(sd, mask, 24), mask, k=24) == []
        wd = WmmaSddmmKernel(simulate=True)
        assert validate_plan(plans.sddmm_wmma_plan(wd, mask, 24), mask, k=24) == []

    def test_corrupted_schedule_is_flagged(self):
        rng = np.random.default_rng(11)
        a = _random_cvse(rng, 16, 48, 4)
        plan = plans.spmm_octet_plan(OctetSpmmKernel(simulate=True), a)
        slots = plan.layout.slots.copy()
        slots[0] += 1  # mis-attribute one fragment slot, in a private copy
        plan = dataclasses.replace(plan, layout=dataclasses.replace(plan.layout, slots=slots))
        assert validate_plan(plan, a)

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
# fault transparency: defects show at execution time, never inside plans
# --------------------------------------------------------------------- #
class TestFaultTransparency:
    def test_planted_defect_fires_on_plan_path(self, monkeypatch):
        rng = np.random.default_rng(20)
        a = _random_cvse(rng, 16, 48, 4)
        b = rng.uniform(-1, 1, (a.shape[1], 32)).astype(np.float16)
        kern = OctetSpmmKernel(simulate=True)
        clean = kern._execute_simulated(a, b)  # compiles and caches the plan
        execute = plans.execute_spmm_octet

        def planted(*args):
            out, tc = execute(*args)
            return out + np.float32(1.0), tc

        monkeypatch.setattr(plans, "execute_spmm_octet", planted)
        dirty = kern._execute_simulated(a, b)
        monkeypatch.undo()
        assert not np.array_equal(_bits(clean), _bits(dirty))
        assert np.array_equal(_bits(clean), _bits(kern._execute_simulated(a, b)))
