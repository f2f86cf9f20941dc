"""Sharded sweep execution must partition — every experiment runs whole
on exactly one shard — and the merge must reconstruct the solo run bit
for bit, refusing (exit 2) to combine shards from different sweeps."""

import contextlib
import io

import pytest

from repro import cli
from repro.experiments import runner, sharding
from repro.experiments.sharding import (
    MergeError,
    assign_wholesale,
    merge_shards,
    parse_shard,
    verify_manifest,
)


def _run(tmp_path, sub, **kw):
    out = tmp_path / sub
    with contextlib.redirect_stdout(io.StringIO()):
        runner.run_all(quick=True, out_dir=out, **kw)
    return out


# --------------------------------------------------------------------- #
# partition primitives
# --------------------------------------------------------------------- #
class TestPartition:
    def test_parse_shard_accepts_valid(self):
        assert parse_shard("0/2") == (0, 2)
        assert parse_shard("3/4") == (3, 4)
        assert parse_shard("0/1") == (0, 1)

    @pytest.mark.parametrize("bad", ["2/2", "-1/2", "1/0", "1", "a/b", "1/2/3", ""])
    def test_parse_shard_rejects_invalid(self, bad):
        with pytest.raises(ValueError, match="--shard must"):
            parse_shard(bad)

    def test_wholesale_assignment_partitions_names(self):
        names = ["fig4", "fig5", "table1", "table2", "fig20"]
        owned = [assign_wholesale(names, (i, 2)) for i in range(2)]
        assert sorted(owned[0] + owned[1]) == sorted(names)
        assert not set(owned[0]) & set(owned[1])


# --------------------------------------------------------------------- #
# shard -> merge equivalence (artifact for artifact)
# --------------------------------------------------------------------- #
class TestMergeEquivalence:
    def test_two_shards_merge_to_the_solo_run(self, tmp_path):
        only = ["fig17"]
        full = _run(tmp_path, "full", only=only)
        s0 = _run(tmp_path, "s0", only=only, shard="0/2")
        s1 = _run(tmp_path, "s1", only=only, shard="1/2")
        # fig17 runs whole on shard 0; shard 1 is assigned nothing
        assert not (s1 / "fig17.txt").exists()
        merged = tmp_path / "merged"
        merge_shards([s0, s1], merged)
        assert (merged / "fig17.txt").read_bytes() == \
            (full / "fig17.txt").read_bytes()
        man_full = sharding.load_manifest(full)
        man_merged = sharding.load_manifest(merged)
        assert man_merged["fig17"]["checksum"] == man_full["fig17"]["checksum"]
        # merged entries carry the *plain* hash: the merged directory is
        # resume-compatible with an unsharded sweep
        assert man_merged["fig17"]["config"] == man_full["fig17"]["config"]
        # the shard's scoped memo counters travel with its entry
        man_s0 = sharding.load_manifest(s0)
        assert man_merged["fig17"]["memo_scope"] == man_s0["fig17"]["memo_scope"] != {}
        assert verify_manifest(merged) == {"fig17": True}

    def test_wholesale_experiments_copy_through(self, tmp_path):
        only = ["fig4", "table1"]
        full = _run(tmp_path, "full", only=only)
        s0 = _run(tmp_path, "s0", only=only, shard="0/2")
        s1 = _run(tmp_path, "s1", only=only, shard="1/2")
        merged = tmp_path / "merged"
        merge_shards([s0, s1], merged)
        for name in only:
            assert (merged / f"{name}.txt").read_bytes() == \
                (full / f"{name}.txt").read_bytes()
        assert all(verify_manifest(merged).values())

    def test_more_shards_than_experiments(self, tmp_path):
        only = ["fig4", "table1"]
        full = _run(tmp_path, "full", only=only)
        shards = [_run(tmp_path, f"s{i}", only=only, shard=f"{i}/3")
                  for i in range(3)]
        # the empty shard still publishes the sweep it belongs to
        man = sharding.load_manifest(shards[2])
        assert list(man) == [sharding.SHARD_KEY]
        assert man[sharding.SHARD_KEY]["experiments"] == only
        merged = tmp_path / "merged"
        merge_shards(shards, merged)
        for name in only:
            assert (merged / f"{name}.txt").read_bytes() == \
                (full / f"{name}.txt").read_bytes()
        assert verify_manifest(merged) == {"fig4": True, "table1": True}


# --------------------------------------------------------------------- #
# refusal paths: a bad merge must never produce an artifact
# --------------------------------------------------------------------- #
class TestMergeRefusal:
    def test_config_mismatch_raises_and_exits_2(self, tmp_path, capsys):
        s0 = _run(tmp_path, "s0", only=["fig4"], shard="0/2")
        s1 = _run(tmp_path, "s1", only=["fig4"], shard="1/2")
        man = sharding.load_manifest(s1)
        man[sharding.SHARD_KEY]["quick"] = False
        sharding.write_manifest(s1, man)
        with pytest.raises(MergeError, match="config mismatch"):
            merge_shards([s0, s1], tmp_path / "merged")
        # the CLI maps the refusal to exit code 2 and an error on stderr
        assert cli.main(["merge", str(s0), str(s1),
                         "--out", str(tmp_path / "merged2")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_shard_refused(self, tmp_path):
        s0 = _run(tmp_path, "s0", only=["fig4"], shard="0/2")
        with pytest.raises(MergeError, match="exactly one manifest per shard"):
            merge_shards([s0], tmp_path / "merged")

    def test_duplicate_shard_refused(self, tmp_path):
        s0 = _run(tmp_path, "s0", only=["fig4"], shard="0/2")
        with pytest.raises(MergeError, match="shard indices"):
            merge_shards([s0, s0], tmp_path / "merged")

    def test_tampered_artifact_refused(self, tmp_path):
        only = ["fig17"]
        s0 = _run(tmp_path, "s0", only=only, shard="0/2")
        s1 = _run(tmp_path, "s1", only=only, shard="1/2")
        art = s0 / "fig17.txt"
        art.write_text(art.read_text().replace("1", "7", 1))
        with pytest.raises(MergeError, match="checksum"):
            merge_shards([s0, s1], tmp_path / "merged")

    def test_experiment_in_two_shards_refused(self, tmp_path):
        # e.g. shard directories that each hold a slice of one grid
        s0 = _run(tmp_path, "s0", only=["fig4"], shard="0/2")
        s1 = _run(tmp_path, "s1", only=["fig4"], shard="1/2")
        man = sharding.load_manifest(s1)
        man["fig4"] = sharding.load_manifest(s0)["fig4"]
        sharding.write_manifest(s1, man)
        (s1 / "fig4.txt").write_bytes((s0 / "fig4.txt").read_bytes())
        with pytest.raises(MergeError, match="appears in 2 shard manifests"):
            merge_shards([s0, s1], tmp_path / "merged")

    def test_unsharded_dir_refused(self, tmp_path):
        plain = _run(tmp_path, "plain", only=["fig4"])
        with pytest.raises(MergeError, match="not .* --shard run|no .* entry"):
            merge_shards([plain], tmp_path / "merged")
