"""End-to-end experiment tests: every artifact regenerates with the
paper's qualitative shape (who wins, roughly by what factor, where the
crossovers fall)."""

import pytest

from repro.experiments import (
    fig4_fine_grained,
    fig5_gemm_vs_spmm,
    fig6_blocked_ell,
    fig17_spmm_speedup,
    fig18_l2_traffic,
    fig19_sddmm_speedup,
    fig20_attention_latency,
    geomean,
    table1_stalls,
    table2_guidelines_spmm,
    table3_guidelines_sddmm,
    table4_transformer,
)
from repro.experiments.runner import EXPERIMENTS, run_all
from repro.formats import BlockedEllMatrix, ColumnVectorSparseMatrix
from repro.perfmodel import memo


def rows_where(rows, **kv):
    return [r for r in rows if all(r[k] == v for k, v in kv.items())]


class TestFig4:
    @pytest.fixture(scope="class")
    def res(self):
        return fig4_fine_grained.run(quick=True, sparsities=(0.7, 0.9, 0.98))

    def test_single_precision_crosses(self, res):
        assert len(res.rows) == 2 * 2 * 3  # op x precision x sparsity
        r = rows_where(res.rows, op="SpMM", precision="single", sparsity=0.98)[0]
        assert r["sputnik"] > 1.0

    def test_half_precision_needs_extreme_sparsity(self, res):
        # §3.1: Sputnik only beats cublasHgemm at extreme sparsity
        for s in (0.7, 0.9):
            mid = rows_where(res.rows, op="SpMM", precision="half", sparsity=s)[0]
            assert mid["sputnik"] < 1.0

    def test_cusparse_below_sputnik_spmm(self, res):
        for r in rows_where(res.rows, op="SpMM"):
            assert r["cusparse"] < r["sputnik"]

    def test_sddmm_half_below_dense(self, res):
        r = rows_where(res.rows, op="SDDMM", precision="half", sparsity=0.9)[0]
        assert r["sputnik"] < 1.0

    def test_cusparse_sddmm_half_absent(self, res):
        # cusparseSDDMM supports single or higher only (§2.3)
        r = rows_where(res.rows, op="SDDMM", precision="half", sparsity=0.9)[0]
        assert r["cusparse"] is None


class TestTopologyOnlyBuilds:
    """fig4 and fig17 price every kernel from the topology alone, so they
    draw no CVSE values and build no Blocked-ELL matrix."""

    @pytest.mark.parametrize("run", [
        lambda: fig4_fine_grained.run(quick=True, sparsities=(0.9,)),
        lambda: fig17_spmm_speedup.run(quick=True, n_sizes=(64,), sparsities=(0.9,)),
    ], ids=["fig4", "fig17"])
    def test_draw_no_values(self, monkeypatch, run):
        def refuse(*args, **kwargs):
            raise AssertionError("an analytic sweep built a valued operand")

        monkeypatch.setattr(ColumnVectorSparseMatrix, "from_topology", refuse)
        monkeypatch.setattr(BlockedEllMatrix, "random", refuse)
        memo.set_enabled(False)  # nothing may be served from an earlier build
        try:
            assert run().rows
        finally:
            memo.set_enabled(None)


class TestFig5:
    @pytest.fixture(scope="class")
    def res(self):
        return fig5_gemm_vs_spmm.run()

    def _sectors(self, res, kind, prec):
        return rows_where(res.rows, kernel=kind, precision=prec)[0]["L1 missed sectors"]

    def test_gemm_reduction_superlinear(self, res):
        assert len(res.rows) == 4  # {GEMM, SpMM} x {single, half}
        assert "GEMM L1-missed-sector reduction" in res.notes
        red = 1 - self._sectors(res, "GEMM", "half") / self._sectors(res, "GEMM", "single")
        assert 0.65 < red < 0.85  # paper: 77%

    def test_spmm_reduction_limited(self, res):
        red = 1 - self._sectors(res, "SpMM", "half") / self._sectors(res, "SpMM", "single")
        assert 0.40 < red < 0.65  # paper: 48.8%

    def test_gemm_benefits_more_than_spmm(self, res):
        g = 1 - self._sectors(res, "GEMM", "half") / self._sectors(res, "GEMM", "single")
        s = 1 - self._sectors(res, "SpMM", "half") / self._sectors(res, "SpMM", "single")
        assert g > s  # the §3.1 argument

    def test_hgemm_moves_to_tensor_pipe(self, res):
        half = rows_where(res.rows, kernel="GEMM", precision="half")[0]
        single = rows_where(res.rows, kernel="GEMM", precision="single")[0]
        assert half["max compute pipe"] == "tensor"
        assert single["max compute pipe"] in ("fma32", "fma16")

    def test_math_instruction_fusion(self, res):
        half = rows_where(res.rows, kernel="GEMM", precision="half")[0]
        single = rows_where(res.rows, kernel="GEMM", precision="single")[0]
        assert half["math instructions"] < 0.2 * single["math instructions"]


class TestFig6:
    @pytest.fixture(scope="class")
    def res(self):
        return fig6_blocked_ell.run(quick=True, sparsities=(0.8, 0.9, 0.98))

    def test_block4_below_one_at_moderate_sparsity(self, res):
        assert rows_where(res.rows, block=4, sparsity=0.9)[0]["blocked-ELL"] < 1.0

    def test_block16_above_one(self, res):
        assert rows_where(res.rows, block=16, sparsity=0.9)[0]["blocked-ELL"] > 1.0

    def test_speedup_grows_with_block_size(self, res):
        assert all(len(rows_where(res.rows, block=b)) == 3 for b in (4, 8, 16))
        for s in (0.8, 0.9, 0.98):
            vals = [rows_where(res.rows, block=b, sparsity=s)[0]["blocked-ELL"] for b in (4, 8, 16)]
            assert vals == sorted(vals) and vals[0] < vals[-1]


class TestTable1:
    def test_no_instruction_dominates(self):
        res = table1_stalls.run()
        row = res.rows[0]
        ni = float(row["No Instruction"].rstrip("%"))
        wait = float(row["Wait"].rstrip("%"))
        assert 30 < ni < 55           # paper: 42.6
        assert ni > wait              # ordering of Table 1


class TestFig17:
    @pytest.fixture(scope="class")
    def res(self):
        return fig17_spmm_speedup.run(
            quick=True, vector_lengths=(2, 4, 8), n_sizes=(256,),
            sparsities=(0.5, 0.7, 0.8, 0.9, 0.98),
        )

    def test_mma_beats_baselines(self, res):
        assert len(res.rows) == 3 * 1 * 5  # V x N x sparsity
        assert max(r["mma"] for r in res.rows) > 2.0  # practical speedup is reached
        for r in res.rows:
            assert r["mma"] > r["fpu"]
            if r["V"] <= 4:
                assert r["mma"] > r["blocked-ELL"]

    def test_crossover_v4_near_70(self, res):
        # paper: practical speedup above 70% sparsity at V=4
        below = rows_where(res.rows, V=4, sparsity=0.5)[0]["mma"]
        above = rows_where(res.rows, V=4, sparsity=0.9)[0]["mma"]
        assert below < 1.0 < above

    def test_higher_v_higher_speedup(self, res):
        for s in (0.8, 0.9):
            vals = [rows_where(res.rows, V=v, sparsity=s)[0]["mma"] for v in (2, 4, 8)]
            assert vals == sorted(vals)

    def test_headline_ranges_overlap_paper(self, res):
        ratios = [r["mma"] / r["blocked-ELL"] for r in res.rows]
        assert max(ratios) > 2.0      # paper range 1.71-7.19
        ratios_fpu = [r["mma"] / r["fpu"] for r in res.rows]
        assert max(ratios_fpu) > 1.5  # paper range 1.34-4.51
        assert min(ratios_fpu) > 0.9


class TestFig18:
    def test_vector_sparse_never_loads_more(self):
        res = fig18_l2_traffic.run(sparsities=(0.7, 0.9, 0.98))
        for r in res.rows:
            assert r["ratio"] >= 1.0

    def test_traffic_falls_with_sparsity(self):
        res = fig18_l2_traffic.run(sparsities=(0.7, 0.9, 0.98))
        mb = [r["vector-sparse (MB)"] for r in res.rows]
        assert mb == sorted(mb, reverse=True)


class TestTable2:
    @pytest.fixture(scope="class")
    def res(self):
        return table2_guidelines_spmm.run()

    def _row(self, res, prefix):
        return [r for r in res.rows if r["Kernel"].startswith(prefix)][0]

    def test_mma_lowest_no_instruction(self, res):
        mma = float(self._row(res, "MMA (V=4)")["No Instruction"].rstrip("%"))
        cuda = float(self._row(res, "CUDA (V=4)")["No Instruction"].rstrip("%"))
        bell = float(self._row(res, "Blocked-ELL (V=4)")["No Instruction"].rstrip("%"))
        assert mma < cuda < bell

    def test_cuda_v8_icache_explodes(self, res):
        v4 = float(self._row(res, "CUDA (V=4)")["No Instruction"].rstrip("%"))
        v8 = float(self._row(res, "CUDA (V=8)")["No Instruction"].rstrip("%"))
        assert v8 > 4 * v4            # paper: 11.0 -> 52.2

    def test_sectors_per_request_ordering(self, res):
        mma = float(self._row(res, "MMA (V=4)")["Sectors/Req"])
        cuda = float(self._row(res, "CUDA (V=4)")["Sectors/Req"])
        assert mma > 10 and cuda < 6  # the guideline-V contrast

    def test_grid_sizes_match_paper(self, res):
        assert len(res.rows) == 6  # 3 kernels x 2 vector lengths
        assert self._row(res, "MMA (V=4)")["# Thread Block"] == 2048
        assert self._row(res, "Blocked-ELL (V=4)")["# Thread Block"] == 1024


class TestTable3:
    @pytest.fixture(scope="class")
    def res(self):
        return table3_guidelines_sddmm.run()

    def _row(self, res, prefix):
        return [r for r in res.rows if r["Kernel"].startswith(prefix)][0]

    def test_wmma_short_scoreboard_worst(self, res):
        w = float(self._row(res, "WMMA (V=4)")["Short Scoreboard"].rstrip("%"))
        m = float(self._row(res, "MMA (V=4)")["Short Scoreboard"].rstrip("%"))
        assert w > 10 and m < 5       # paper: 14.4 vs 2.1

    def test_cuda_wait_worst(self, res):
        c = float(self._row(res, "CUDA (V=4)")["Wait"].rstrip("%"))
        m = float(self._row(res, "MMA (V=4)")["Wait"].rstrip("%"))
        assert c > m                  # paper: 28.1 vs 10.7

    def test_grids_match_paper(self, res):
        assert len(res.rows) == 6  # 3 kernels x 2 vector lengths
        assert self._row(res, "MMA (V=4)")["# Thread Block"] == 16384
        assert self._row(res, "MMA (V=8)")["# Thread Block"] == 8192


class TestFig19:
    @pytest.fixture(scope="class")
    def res(self):
        return fig19_sddmm_speedup.run(
            quick=True, vector_lengths=(4, 8), k_sizes=(64, 256),
            sparsities=(0.5, 0.9, 0.98),
        )

    def test_mma_beats_wmma_mostly(self, res):
        assert len(res.rows) == 2 * 2 * 3  # V x K x sparsity
        ratios = [r["mma (reg)"] / r["wmma"] for r in res.rows]
        assert geomean(ratios) > 1.0  # paper geomean range 0.93-1.44

    def test_arch_best_variant(self, res):
        for r in res.rows:
            assert r["mma (arch)"] >= r["mma (reg)"] - 1e-9
            assert r["mma (arch)"] >= r["mma (shfl)"] - 1e-9

    def test_v8_k256_crossover_near_90(self, res):
        below = rows_where(res.rows, V=8, K=256, sparsity=0.5)[0]["mma (reg)"]
        above = rows_where(res.rows, V=8, K=256, sparsity=0.98)[0]["mma (reg)"]
        assert below < 1.0 < above

    def test_k256_better_than_k64_relative_to_fpu(self, res):
        # §7.3.2: the octet advantage grows with K
        r64 = rows_where(res.rows, V=8, K=64, sparsity=0.9)[0]
        r256 = rows_where(res.rows, V=8, K=256, sparsity=0.9)[0]
        assert (r256["mma (reg)"] / r256["fpu"]) >= (r64["mma (reg)"] / r64["fpu"]) * 0.8


class TestFig20:
    @pytest.fixture(scope="class")
    def res(self):
        return fig20_attention_latency.run(setups=((2048, 64), (4096, 256)))

    def test_sparse_beats_dense_at_k64(self, res):
        assert len(rows_where(res.rows, config="dense(half)")) == 2  # one per setup
        r = rows_where(res.rows, l=2048, k=64, config="sparse 90%")[0]
        assert r["speedup"] > 1.0

    def test_speedup_grows_with_sparsity(self, res):
        sp = [
            rows_where(res.rows, l=2048, k=64, config=f"sparse {p}%")[0]["speedup"]
            for p in (90, 95, 98)
        ]
        assert sp == sorted(sp)

    def test_softmax_and_av_reduced(self, res):
        dense = rows_where(res.rows, l=4096, k=256, config="dense(half)")[0]
        sparse = rows_where(res.rows, l=4096, k=256, config="sparse 95%")[0]
        assert sparse["Softmax"] < dense["Softmax"]
        assert sparse["AV"] < dense["AV"]

    def test_l2048_rows_pin_simulated_time(self, res):
        # the l=2048 rows of results/full/fig20.txt: any change to the
        # modelled attention time moves them
        cols = ("QK^T∘C", "Softmax", "AV", "Others", "Total", "speedup")
        got = {r["config"]: tuple(r[c] for c in cols) for r in rows_where(res.rows, l=2048)}
        assert got == {
            "dense(half)": (14.8, 20.8, 17.2, 4.8, 57.7, 1.0),
            "sparse 90%": (9.1, 4.3, 5.0, 2.1, 20.5, 2.81),
            "sparse 95%": (7.1, 3.3, 3.8, 1.6, 15.8, 3.65),
            "sparse 98%": (4.8, 2.6, 3.3, 1.2, 11.8, 4.87),
        }


class TestTable4:
    def test_throughputs_pin_simulated_time(self):
        # results/full/table4.txt's throughputs (seq/s)
        cfg = table4_transformer.PaperConfig()
        got = [round(table4_transformer.throughput_seq_per_s(cfg, mode), 1)
               for mode in ("dense-float", "dense-half", "sparse-half")]
        assert got == [77.0, 284.6, 881.8]


class TestRunnerRegistry:
    def test_all_artifacts_present(self):
        assert set(EXPERIMENTS) == {
            "fig4", "fig5", "fig6", "table1", "fig17", "fig18",
            "table2", "fig19", "table3", "table4", "fig20", "ablations",
            "sensitivity",
        }

    def test_unknown_experiment_is_an_error(self):
        with pytest.raises(ValueError) as err:
            run_all(only=["table1", "fig99"])
        assert "fig99" in str(err.value)
        for name in EXPERIMENTS:  # the message lists the valid choices
            assert name in str(err.value)

    def test_output_reports_cache_hit_rate(self, capsys):
        run_all(only=["table1"])
        out = capsys.readouterr().out
        assert "memo:" in out and "% hit" in out


class TestJobsParity:
    def test_pooled_sweep_artifacts_match_serial(self, tmp_path, capsys):
        # --jobs only decides which process runs a whole experiment, so
        # the artifacts must be byte-identical to a serial sweep's
        only = ["fig5", "table1", "fig18", "table2"]
        run_all(only=only, jobs=1, out_dir=tmp_path / "serial")
        run_all(only=only, jobs=2, out_dir=tmp_path / "pooled")
        capsys.readouterr()
        for name in only:
            assert (tmp_path / "pooled" / f"{name}.txt").read_bytes() == \
                (tmp_path / "serial" / f"{name}.txt").read_bytes()
