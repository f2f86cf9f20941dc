"""The shared cross-process memo tier must be *safe* before it is
fast: concurrent writers never corrupt each other's entries, a
corrupt or truncated entry is detected and recomputed (never served),
a killed writer's temp file is ignored, keys digest identically in
every process, and dropping local entries never touches a shared
entry."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.dlmc import dlmc_suite
from repro.formats.conversions import cvse_from_csr_topology
from repro.kernels.spmm_octet import OctetSpmmKernel
from repro.perfmodel import memo, sharedmemo

from . import tamper

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _fresh_store(tmp_path):
    memo.clear()
    memo.set_enabled(True)
    sharedmemo.reset()
    sharedmemo.set_dir(tmp_path / "store")
    sharedmemo.set_enabled(True)
    yield
    sharedmemo.reset()
    sharedmemo.set_enabled(None)
    sharedmemo.set_dir(None)
    memo.set_enabled(None)
    memo.clear()


def _store() -> Path:
    return sharedmemo.store_dir()


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _operand():
    entry = dlmc_suite(shapes=((64, 128),), sparsities=(0.9,))[0]
    return cvse_from_csr_topology(entry.csr, 4, np.random.default_rng(1))


# --------------------------------------------------------------------- #
# basic tier semantics
# --------------------------------------------------------------------- #
class TestTier:
    def test_publish_then_lookup_roundtrip(self):
        key = sharedmemo.key_digest("stats", ("roundtrip", 1))
        record = sharedmemo.seal({"x": 1})
        assert sharedmemo.publish("stats", key, record)
        assert sharedmemo.lookup("stats", key) == record[sharedmemo.DIGEST_BYTES:]
        assert pickle.loads(sharedmemo.lookup("stats", key)) == {"x": 1}

    def test_miss_counts_and_hit_counts(self):
        key = sharedmemo.key_digest("stats", ("counts", 1))
        assert sharedmemo.lookup("stats", key) is None
        sharedmemo.publish("stats", key, sharedmemo.seal(b"blob"))
        assert pickle.loads(sharedmemo.lookup("stats", key)) == b"blob"
        assert sharedmemo.counters()["stats"] == (1, 1)

    def test_unshareable_region_opts_out(self):
        # a region outside SHAREABLE_REGIONS never reaches the shared
        # tier: no publish, no lookup, regardless of what the caller passes
        assert "scratch" not in sharedmemo.SHAREABLE_REGIONS
        assert not sharedmemo.publish("scratch", b"\x00" * 16, b"blob")
        assert sharedmemo.lookup("scratch", b"\x00" * 16) is None
        memo.memoise("scratch", ("opt-out", 1), lambda: 1)
        assert not (_store() / "scratch").exists()

    def test_memoised_stats_flow_through_both_tiers(self):
        a = _operand()
        kern = OctetSpmmKernel()
        first = kern.stats_for(a, 64)
        # a fresh local store forces the next call through the shared
        # tier — the same value must come back, counted as a shared hit
        memo.clear()
        before = sharedmemo.snapshot()
        again = kern.stats_for(a, 64)
        assert memo.stats_signature(again) == memo.stats_signature(first)
        assert sharedmemo.delta(before)[0] >= 1

    def test_disabled_tier_is_inert(self):
        sharedmemo.set_enabled(False)
        a = _operand()
        OctetSpmmKernel().stats_for(a, 64)
        assert not _store().exists()


# --------------------------------------------------------------------- #
# key canonicalisation: digests must agree across processes
# --------------------------------------------------------------------- #
class TestKeyCanonicalisation:
    def test_digest_stable_across_processes(self):
        key = ("fingerprint", {"b": np.int64(2), "a": [1, 2.5]},
               frozenset({"y", "x"}), np.float32(0.5))
        mine = sharedmemo.key_digest("stats", key).hex()
        script = (
            "import numpy as np\n"
            "from repro.perfmodel import sharedmemo\n"
            "key = ('fingerprint', {'b': np.int64(2), 'a': [1, 2.5]},\n"
            "       frozenset({'y', 'x'}), np.float32(0.5))\n"
            "print(sharedmemo.key_digest('stats', key).hex())\n"
        )
        out = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == mine

    def test_unpicklable_key_stays_local(self):
        assert sharedmemo.key_digest("stats", (lambda: None,)) is None


# --------------------------------------------------------------------- #
# corruption: detected, recomputed, never served
# --------------------------------------------------------------------- #
class TestCorruption:
    def test_tampered_entry_never_served(self):
        a = _operand()
        kern = OctetSpmmKernel()
        clean_sig = memo.stats_signature(kern.stats_for(a, 64))
        assert tamper.shared_entry("stats", index=0, flip_byte=3)
        memo.clear()  # force the lookup through the tampered entry file
        before = sharedmemo.integrity_failures()
        served = kern.stats_for(a, 64)
        assert sharedmemo.integrity_failures() == before + 1
        assert memo.stats_signature(served) == clean_sig
        assert sharedmemo.integrity_counters() == {"stats": 1}

    def test_truncated_entry_is_recomputed_and_republished(self):
        a = _operand()
        kern = OctetSpmmKernel()
        clean_sig = memo.stats_signature(kern.stats_for(a, 64))
        files = list((_store() / "stats").iterdir())
        assert files
        for path in files:
            path.write_bytes(path.read_bytes()[:-7])
        assert sharedmemo.verify_store()[1] == len(files)
        # detected and counted, never served: the value is recomputed
        memo.clear()
        before = sharedmemo.integrity_failures()
        served = kern.stats_for(a, 64)
        assert sharedmemo.integrity_failures() == before + len(files)
        assert memo.stats_signature(served) == clean_sig
        # ... and the recompute's publish replaced the truncated file
        assert sharedmemo.verify_store()[1] == 0
        memo.clear()
        hits = sharedmemo.snapshot()[0]
        again = kern.stats_for(a, 64)
        assert sharedmemo.snapshot()[0] == hits + len(files)
        assert memo.stats_signature(again) == clean_sig

    def test_leftover_tmp_file_is_ignored(self):
        kept = sharedmemo.key_digest("stats", ("kept", 0))
        torn = sharedmemo.key_digest("stats", ("torn", 0))
        sharedmemo.publish("stats", kept, sharedmemo.seal(b"kept"))
        # a writer killed between write and rename leaves only its temp
        partial = sharedmemo.seal(("torn", 0))[:-3]
        (_store() / "stats" / f"{torn.hex()}.99999-0badf00d.tmp").write_bytes(partial)
        assert sharedmemo.lookup("stats", torn) is None
        assert pickle.loads(sharedmemo.lookup("stats", kept)) == b"kept"
        assert sharedmemo.integrity_failures() == 0
        assert sharedmemo.verify_store() == (1, 0)
        assert sharedmemo.stats()["live_entries"] == 1


# --------------------------------------------------------------------- #
# dropping local entries never touches shared entries
# --------------------------------------------------------------------- #
class TestTrimIsolation:
    def test_trim_and_eviction_leave_entries_intact(self):
        a = _operand()
        kern = OctetSpmmKernel()
        first = kern.stats_for(a, 64)
        before = sharedmemo.stats()
        assert before["live_entries"] > 0
        # local reclamation: drop every in-process entry
        memo.clear()
        after = sharedmemo.stats()
        assert after["live_entries"] == before["live_entries"]
        assert sharedmemo.verify_store()[1] == 0
        # and the evicted value is still served from the shared tier
        again = kern.stats_for(a, 64)
        assert memo.stats_signature(again) == memo.stats_signature(first)


# --------------------------------------------------------------------- #
# concurrent writers: one store, many processes
# --------------------------------------------------------------------- #
_FUZZ_WORKER = """
import pickle, sys
from repro.perfmodel import sharedmemo
sharedmemo.set_dir(sys.argv[1])
sharedmemo.set_enabled(True)
wid = int(sys.argv[2])
for i in range(25):
    # every worker publishes a private run plus a contended shared run
    for key_tuple in (("private", wid, i), ("contended", i)):
        key = sharedmemo.key_digest("stats", key_tuple)
        sharedmemo.publish("stats", key, sharedmemo.seal(("payload",) + key_tuple))
        # a reader racing the other writers' renames sees a whole record
        assert pickle.loads(sharedmemo.lookup("stats", key)) == ("payload",) + key_tuple
print("done", wid)
"""


class TestConcurrentWriters:
    def test_fuzz_many_processes_one_store(self):
        n = 4
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _FUZZ_WORKER, str(_store()), str(w)],
                env=_child_env(), stdout=subprocess.PIPE)
            for w in range(n)
        ]
        for p in procs:
            assert p.wait(timeout=120) == 0
        sharedmemo.reset()
        # one file per private entry plus one per contended key, no
        # temp file left behind, and every one intact
        assert sharedmemo.verify_store() == (n * 25 + 25, 0)
        assert not list((_store() / "stats").glob("*.tmp"))
        # every private entry and every contended entry is retrievable,
        # bit-exact, no matter which writer's rename won the key
        for w in range(n):
            for i in range(25):
                key = sharedmemo.key_digest("stats", ("private", w, i))
                assert pickle.loads(sharedmemo.lookup("stats", key)) == \
                    ("payload", "private", w, i)
        for i in range(25):
            key = sharedmemo.key_digest("stats", ("contended", i))
            assert pickle.loads(sharedmemo.lookup("stats", key)) == \
                ("payload", "contended", i)
