"""Tests for the repro.analysis engine: corpus, suppressions, CLI.

The injected-violation corpus under ``tests/analysis_corpus/`` has one
minimal repo per rule; running *all* six rules over a fixture must trip
exactly that fixture's rule, on exactly the lines marked ``# finding``.  The real tree must stay clean for every
semantic pass, and the acceptance mutations (deleting a declared env
gate, renaming a declared obs counter) must fail analysis with exit 1.
"""

import json
import re
import shutil
from pathlib import Path

import pytest

from repro import cli
from repro.analysis import (
    RULES,
    AnalysisContext,
    run_analysis,
)
from repro.faults.injector import FaultInjector
from repro.perfmodel import memo

REPO = Path(__file__).resolve().parents[1]
CORPUS = Path(__file__).parent / "analysis_corpus"

ALL_RULES = sorted(RULES)
SEMANTIC_PASSES = [
    "memo-key-soundness",
    "precision-flow",
    "env-gate-registry",
    "obs-naming-contract",
]


def _write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# registry and corpus
# ---------------------------------------------------------------------------

def test_registry_has_the_six_rules():
    assert ALL_RULES == [
        "env-gate-registry", "memo-key-soundness", "obs-naming-contract",
        "precision-flow", "seeded-rng", "span-outside-memo",
    ]


def _marked_lines(fixture: Path) -> set:
    """``(path, line)`` of every fixture line tagged ``# finding``."""
    return {
        (path.relative_to(fixture).as_posix(), lineno)
        for path in fixture.rglob("*.py")
        for lineno, text in enumerate(path.read_text().splitlines(), 1)
        if text.endswith("# finding")
    }


@pytest.mark.parametrize("rule_id", ALL_RULES)
def test_corpus_fixture_trips_exactly_its_rule(rule_id):
    findings = run_analysis(CORPUS / rule_id)
    assert findings, f"{rule_id} fixture produced no findings"
    assert {f.rule for f in findings} == {rule_id}
    # unmarked near-misses in the fixture (inner spans, seeded
    # generators) must stay clean
    assert {(f.path, f.line) for f in findings} == _marked_lines(CORPUS / rule_id)


def test_unknown_rule_id_raises():
    with pytest.raises(ValueError, match="unknown rule"):
        run_analysis(CORPUS / "seeded-rng", ["no-such-rule"])


# ---------------------------------------------------------------------------
# the real tree stays clean for every semantic pass
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rule_id", SEMANTIC_PASSES)
def test_real_tree_clean_for_semantic_pass(rule_id):
    assert run_analysis(REPO, [rule_id]) == []


# ---------------------------------------------------------------------------
# suppression mechanics
# ---------------------------------------------------------------------------

def _rng_repo(tmp_path: Path, line: str, above: str = "") -> Path:
    body = (above + "\n" if above else "") + line + "\n"
    _write(tmp_path, "src/repro/sampling.py",
           "from numpy.random import default_rng\n\n\ndef draw():\n"
           + "".join(f"    {ln}\n" for ln in body.splitlines()))
    return tmp_path


def test_suppression_on_finding_line(tmp_path):
    repo = _rng_repo(tmp_path, "return default_rng()  # repro: ignore[seeded-rng]")
    assert run_analysis(repo, ["seeded-rng"]) == []


def test_suppression_on_line_above(tmp_path):
    repo = _rng_repo(tmp_path, "return default_rng()",
                     above="# repro: ignore[seeded-rng]")
    assert run_analysis(repo, ["seeded-rng"]) == []


def test_bare_suppression_covers_any_rule(tmp_path):
    repo = _rng_repo(tmp_path, "return default_rng()  # repro: ignore")
    assert run_analysis(repo, ["seeded-rng"]) == []


def test_suppression_for_other_rule_does_not_apply(tmp_path):
    repo = _rng_repo(tmp_path, "return default_rng()  # repro: ignore[span-outside-memo]")
    findings = run_analysis(repo, ["seeded-rng"])
    assert len(findings) == 1


# ---------------------------------------------------------------------------
# CLI: exit codes, emitters
# ---------------------------------------------------------------------------

def test_cli_clean_tree_exits_0(capsys):
    assert cli.main(["analyze", "--repo", str(REPO)]) == cli.EXIT_CLEAN
    out = capsys.readouterr().out
    assert "0 new finding(s)" in out


def test_cli_findings_exit_1(tmp_path, capsys):
    repo = _rng_repo(tmp_path, "return default_rng()")
    assert cli.main(["analyze", "--repo", str(repo)]) == cli.EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "seeded-rng" in out


def test_cli_unknown_rule_exits_2(capsys):
    assert cli.main(["analyze", "--rule", "bogus",
                     "--repo", str(REPO)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_bad_repo_exits_2(tmp_path, capsys):
    assert cli.main(["analyze", "--repo",
                     str(tmp_path / "nowhere")]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_unknown_name_error_format_is_shared(capsys):
    """sanitize/faults/analyze format unknown-name errors identically."""
    codes = {
        cli.main(["analyze", "--rule", "bogus", "--repo", str(REPO)]),
        cli.main(["sanitize", "--kernel", "bogus", "--smoke"]),
    }
    err = capsys.readouterr().err
    assert codes == {cli.EXIT_USAGE}
    lines = [ln for ln in err.splitlines() if ln]
    assert len(lines) == 2
    assert all(re.match(r"^error: unknown ", ln) for ln in lines)


def test_cli_list_rules(capsys):
    assert cli.main(["analyze", "--list-rules"]) == cli.EXIT_CLEAN
    out = capsys.readouterr().out
    for rule_id in ALL_RULES:
        assert rule_id in out


def test_cli_sarif_and_json_output(tmp_path, capsys):
    repo = _rng_repo(tmp_path, "return default_rng()")
    sarif_path = tmp_path / "out.sarif"
    json_path = tmp_path / "out.json"
    code = cli.main(["analyze", "--repo", str(repo),
                     "--sarif", str(sarif_path), "--json", str(json_path)])
    capsys.readouterr()
    assert code == cli.EXIT_FINDINGS

    sarif = json.loads(sarif_path.read_text())
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-analyze"
    assert {r["ruleId"] for r in run["results"]} == {"seeded-rng"}

    report = json.loads(json_path.read_text())
    assert report["findings"][0]["rule"] == "seeded-rng"


# ---------------------------------------------------------------------------
# acceptance mutations: registry/schema edits must fail the analysis
# ---------------------------------------------------------------------------

def _copy_repo(tmp_path: Path) -> Path:
    dest = tmp_path / "repo"
    ignore = shutil.ignore_patterns("__pycache__", "analysis_corpus")
    shutil.copytree(REPO / "src", dest / "src", ignore=ignore)
    return dest


def test_copied_tree_is_clean(tmp_path, capsys):
    repo = _copy_repo(tmp_path)
    assert cli.main(["analyze", "--repo", str(repo)]) == cli.EXIT_CLEAN
    capsys.readouterr()


def test_removing_declared_env_gate_fails_analysis(tmp_path, capsys):
    repo = _copy_repo(tmp_path)
    registry = repo / "src" / "repro" / "envgates.py"
    text = registry.read_text()
    pruned = re.sub(r'EnvGate\("REPRO_TRACE",.*?\),\n', "", text,
                    flags=re.DOTALL)
    assert pruned != text
    registry.write_text(pruned)
    assert cli.main(["analyze", "--repo", str(repo)]) == cli.EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "undeclared gate REPRO_TRACE" in out


def test_renaming_obs_counter_fails_analysis(tmp_path, capsys):
    repo = _copy_repo(tmp_path)
    schema = repo / "src" / "repro" / "obs" / "schema.py"
    text = schema.read_text()
    renamed = text.replace('"memo.*.hits"', '"memo.*.cache_hits"')
    assert renamed != text
    schema.write_text(renamed)
    assert cli.main(["analyze", "--repo", str(repo)]) == cli.EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "obs-naming-contract" in out


# ---------------------------------------------------------------------------
# engine internals worth pinning
# ---------------------------------------------------------------------------

def test_context_resolves_cross_module_calls(tmp_path):
    _write(tmp_path, "src/repro/a.py",
           "def helper():\n    return 1\n")
    _write(tmp_path, "src/repro/b.py",
           "from .a import helper\n\n\ndef caller():\n    return helper()\n")
    ctx = AnalysisContext(tmp_path)
    info = ctx.file_at("src/repro/b.py")
    fns = {fn.name: fn for fn in ctx.functions_in(info)}
    import ast
    call = next(n for n in ast.walk(fns["caller"].node)
                if isinstance(n, ast.Call))
    assert ctx.resolve_call(info, call.func) == "repro.a:helper"


def test_run_analysis_is_deterministic():
    a = [f.render() for f in run_analysis(CORPUS / "obs-naming-contract")]
    b = [f.render() for f in run_analysis(CORPUS / "obs-naming-contract")]
    assert a == b and a == sorted(a)


# ---------------------------------------------------------------------------
# the genuine memo-key fix: memoise() bypasses the cache while a fault
# injector is armed, so corrupted payloads are never cached or published
# ---------------------------------------------------------------------------

def test_memoise_bypasses_cache_while_injector_armed():
    memo.clear()
    memo.set_enabled(True)
    calls = []

    def compute():
        calls.append(1)
        return len(calls)

    key = ("analysis-bypass-regression",)
    try:
        assert memo.memoise("stats", key, compute) == 1
        assert memo.memoise("stats", key, compute) == 1  # cache hit

        inj = FaultInjector("trace.octet_spmm.ops", "bitflip16", seed=7)
        with inj.armed():
            # armed -> compute runs fresh, result is NOT cached
            assert memo.memoise("stats", key, compute) == 2

        # disarmed -> the pre-arm cached value is served, untouched
        assert memo.memoise("stats", key, compute) == 1
    finally:
        memo.set_enabled(None)
        memo.clear()
