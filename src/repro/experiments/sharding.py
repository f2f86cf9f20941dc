"""Sharded sweep execution: deterministic partitioning + manifest merge.

``repro-experiments --shard I/N --out DIR_I`` runs the ``I``-th of ``N``
deterministic slices of a sweep; ``python -m repro.cli merge DIR_0 ...
DIR_N-1 --out DIR`` combines the shard-scoped manifests into one
verified sweep result.

Partitioning is purely positional (no RNG, no timing): every experiment
is assigned whole to the shard ``position % N`` in the requested list
(:func:`assign_wholesale`), so a shard's artifacts are complete and
byte-identical to a solo run's.  A shard may be assigned nothing (more
shards than experiments); its manifest still records the sweep.

A shard's ``manifest.json`` carries a ``__shard__`` entry (index,
total, quick/trace flags, the requested experiment list) next to
ordinary per-experiment checkpoints, so ``--resume`` works within a
shard exactly as in an unsharded sweep.  :func:`merge_shards` refuses
— with exit code 2 at the CLI — to mix shards whose configuration
differs or that do not partition one sweep (an experiment missing from
every shard or present in two), verifies every shard artifact against
its recorded checksum before trusting it, and copies the artifacts and
their plain config hashes into one manifest, so a merged directory is
indistinguishable from (and ``--resume``-compatible with) a single
full run — pinned by ``tests/test_sharding.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "MANIFEST_NAME",
    "SHARD_KEY",
    "MergeError",
    "parse_shard",
    "assign_wholesale",
    "config_hash",
    "text_checksum",
    "load_manifest",
    "write_manifest",
    "read_artifact",
    "merge_shards",
    "verify_manifest",
]

MANIFEST_NAME = "manifest.json"

#: manifest key describing the shard that wrote it; the resume logic
#: ignores it (only per-experiment dict entries with a ``config`` key
#: participate in skip decisions)
SHARD_KEY = "__shard__"

class MergeError(RuntimeError):
    """A shard-manifest merge that must not proceed (mismatched sweep
    configurations, missing/duplicate shards, or artifacts that fail
    their recorded checksums).  The CLI maps this to exit code 2."""


def parse_shard(spec: str) -> Tuple[int, int]:
    """Parse ``"I/N"`` (0-based) into ``(index, total)``.

    Raises :class:`ValueError` with the valid form on anything else.
    """
    try:
        index_s, total_s = spec.split("/")
        index, total = int(index_s), int(total_s)
    except ValueError:
        raise ValueError(
            f"--shard must be I/N (0-based, e.g. 0/2), got {spec!r}"
        ) from None
    if total < 1 or not 0 <= index < total:
        raise ValueError(
            f"--shard must satisfy 0 <= I < N, got {index}/{total}"
        )
    return index, total


def assign_wholesale(names: Sequence[str], shard: Tuple[int, int]) -> List[str]:
    """The experiments ``shard`` owns: every ``N``-th by position.

    Every shard invocation must be given the same requested list for
    the assignment to partition — :func:`merge_shards` verifies that.
    """
    index, total = shard
    return [n for pos, n in enumerate(names) if pos % total == index]


# --------------------------------------------------------------------- #
# checkpoint-manifest primitives (shared by the runner and the merge)
# --------------------------------------------------------------------- #
def config_hash(name: str, quick: bool, trace: bool) -> str:
    """Hash of everything that shapes an experiment's output.

    ``trace`` must already be the *effective* flag (requested AND the
    experiment is trace-aware).  Neither ``jobs`` nor ``--shard`` enters
    it: both only decide which process runs a whole experiment, and
    ``TestJobsParity`` pins that ``--jobs`` artifacts are byte-identical
    — so shard checkpoints and merged manifests are resume-compatible
    with a solo run.
    """
    h = hashlib.blake2b(digest_size=12)
    h.update(json.dumps([name, bool(quick), bool(trace)]).encode())
    return h.hexdigest()


def text_checksum(text: str) -> str:
    """Checksum recorded next to every artifact."""
    return hashlib.blake2b(text.encode(), digest_size=12).hexdigest()


def load_manifest(out_dir: Path) -> Dict[str, dict]:
    """Read ``out_dir``'s manifest; an unreadable or torn one is an
    empty dict (treat as no checkpoints), never an exception."""
    path = Path(out_dir) / MANIFEST_NAME
    if not path.is_file():
        return {}
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}  # unreadable/torn manifest: treat as no checkpoints
    return data if isinstance(data, dict) else {}


def write_manifest(out_dir: Path, manifest: Dict[str, dict]) -> None:
    """Rewrite the manifest atomically (write-then-rename, so a kill
    mid-write leaves the old manifest, never a torn one)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = out_dir / (MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    tmp.replace(out_dir / MANIFEST_NAME)


# --------------------------------------------------------------------- #
# merge
# --------------------------------------------------------------------- #
def _shard_infos(shard_dirs: Sequence[Path]) -> List[Tuple[Path, dict, dict]]:
    """Load and cross-validate every shard's manifest + ``__shard__``."""
    infos = []
    for d in shard_dirs:
        d = Path(d)
        man = load_manifest(d)
        if not man:
            raise MergeError(f"{d}: no readable {MANIFEST_NAME} — not a sweep output")
        sh = man.get(SHARD_KEY)
        if not isinstance(sh, dict):
            raise MergeError(
                f"{d}: {MANIFEST_NAME} has no {SHARD_KEY} entry — "
                f"this directory was not written by a --shard run"
            )
        infos.append((d, man, sh))
    ref_dir, _, ref = infos[0]
    for d, _man, sh in infos[1:]:
        for field in ("total", "quick", "trace", "experiments"):
            if sh.get(field) != ref.get(field):
                raise MergeError(
                    f"config mismatch between shards: {d} has "
                    f"{field}={sh.get(field)!r} but {ref_dir} has "
                    f"{field}={ref.get(field)!r} — refusing to mix sweeps "
                    f"(re-run the shards with identical flags)"
                )
    total = int(ref.get("total", 0))
    indices = sorted(int(sh.get("index", -1)) for _d, _m, sh in infos)
    if indices != list(range(total)):
        raise MergeError(
            f"need exactly one manifest per shard 0..{total - 1}, "
            f"got shard indices {indices}"
        )
    return infos


def read_artifact(d: Path, name: str, entry: dict) -> str:
    """``<name>.txt`` in ``d``, verified against its manifest ``entry``'s
    checksum.  A missing or mismatching artifact raises
    :class:`MergeError`; resume and :func:`verify_manifest` read that as
    "not checkpointed"."""
    artifact = Path(d) / f"{name}.txt"
    if not artifact.is_file():
        raise MergeError(f"{name}: artifact {artifact} is missing")
    text = artifact.read_text()[:-1]  # _write_artifact appends one \n
    if text_checksum(text) != entry.get("checksum"):
        raise MergeError(
            f"{name}: artifact in {d} does not match its recorded "
            f"checksum — the shard output was edited or corrupted; re-run "
            f"that shard (its --resume will skip verified experiments)"
        )
    return text


def merge_shards(shard_dirs: Sequence[Path], out_dir: Path) -> Dict[str, object]:
    """Combine N shard output directories into one verified sweep result.

    Every shard manifest must describe the same sweep (total/quick/
    trace/experiment list — anything else raises :class:`MergeError`);
    every artifact is re-verified against its recorded checksum before
    it is trusted.  The merged directory holds full artifacts and a
    manifest with plain config hashes — ``--resume`` against it skips
    everything, exactly as after a solo full run.
    """
    from . import runner

    infos = _shard_infos([Path(d) for d in shard_dirs])
    _d, _m, ref = infos[0]
    quick, trace_flag = bool(ref.get("quick")), bool(ref.get("trace"))
    names = list(ref.get("experiments") or [])
    if not names:
        raise MergeError("shard manifests list no experiments to merge")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    merged: Dict[str, dict] = {}
    for name in names:
        trace_eff = trace_flag and name in runner._TRACE_AWARE
        owners = [(d, man) for d, man, _sh in infos
                  if isinstance(man.get(name), dict)]
        if not owners:
            raise MergeError(f"experiment {name!r} is missing from every "
                             f"shard manifest — a shard did not finish "
                             f"(re-run it with --resume)")
        if len(owners) > 1:
            raise MergeError(f"experiment {name!r} appears in "
                             f"{len(owners)} shard manifests — the shard "
                             f"outputs do not partition one sweep")
        d, man = owners[0]
        entry = man[name]
        if entry.get("config") != config_hash(name, quick, trace_eff):
            raise MergeError(
                f"{name}: shard checkpoint was written under a different "
                f"configuration than its {SHARD_KEY} entry claims — "
                f"refusing to mix sweeps"
            )
        text = read_artifact(d, name, entry)
        (out_dir / f"{name}.txt").write_text(text + "\n")
        merged[name] = {
            "config": entry["config"],
            "checksum": entry["checksum"],
            "seconds": entry.get("seconds", 0.0),
            "memo_scope": entry.get("memo_scope", {}),
        }
    write_manifest(out_dir, merged)
    return {
        "out": str(out_dir),
        "shards": len(infos),
        "experiments": list(merged),
    }


def verify_manifest(out_dir: Path) -> Dict[str, bool]:
    """``{experiment: artifact matches its manifest checksum}``.

    The merge CLI prints this after combining shards; CI asserts every
    value is ``True``.
    """
    out_dir = Path(out_dir)
    manifest = load_manifest(out_dir)
    results: Dict[str, bool] = {}
    for name, entry in manifest.items():
        if name.startswith("__") or not isinstance(entry, dict):
            continue
        if "config" not in entry:
            continue
        try:
            read_artifact(out_dir, name, entry)
            results[name] = True
        except MergeError:
            results[name] = False
    return results
