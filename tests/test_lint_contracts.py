"""Tests for the five contract rules of ``repro.analysis`` on small inline trees.

Each test writes a minimal repo under ``tmp_path`` and runs one rule over
it with :func:`repro.analysis.run_analysis`; the corpus fixtures under
``tests/analysis_corpus/`` cover the same cases line by line.
"""

from pathlib import Path
from typing import List

from repro import cli
from repro.analysis import run_analysis

REPO = Path(__file__).resolve().parents[1]

CONTRACT_RULES = [
    "parity-tests",
    "no-input-mutation",
    "seeded-rng",
    "span-outside-memo",
    "plan-reference-twins",
]


def _write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _findings(repo: Path, rule: str) -> List[str]:
    return [f.render() for f in run_analysis(repo, [rule])]


def _bad_repo(tmp_path: Path) -> Path:
    _write(tmp_path, "src/repro/__init__.py", "")
    _write(tmp_path, "src/repro/kernels/__init__.py", "")
    _write(tmp_path, "src/repro/kernels/dispatch.py", (
        "from .bad import BadKernel, UntestedKernel\n"
        "SPMM_KERNELS = {'bad': BadKernel, 'untested': UntestedKernel}\n"
        "SDDMM_KERNELS = {}\n"
    ))
    _write(tmp_path, "src/repro/kernels/bad.py", (
        "import numpy as np\n"
        "class BadKernel:\n"
        "    def _execute(self, a, b):\n"
        "        a[0] = 1.0        # mutates an input\n"
        "        b.values[0] += 2  # mutates through an attribute\n"
        "        out = np.zeros(4)\n"
        "        out[0] = 3.0      # local store: allowed\n"
        "        return out\n"
        "class UntestedKernel:\n"
        "    def _execute(self, a, b):\n"
        "        rng = np.random.default_rng()\n"
        "        return np.random.rand(4) + rng.random()\n"
    ))
    _write(tmp_path, "tests/test_bad.py", "from repro.kernels.bad import BadKernel\n")
    return tmp_path


def test_real_repo_is_clean():
    assert run_analysis(REPO, CONTRACT_RULES) == []


def test_parity_lint_flags_untested_kernel(tmp_path):
    findings = _findings(_bad_repo(tmp_path), "parity-tests")
    assert any("UntestedKernel" in f for f in findings)
    assert not any("BadKernel" in f for f in findings)


def test_mutation_lint_flags_input_stores(tmp_path):
    findings = _findings(_bad_repo(tmp_path), "no-input-mutation")
    assert any("parameter 'a'" in f for f in findings)
    assert any("parameter 'b'" in f for f in findings)
    assert not any("'out'" in f for f in findings)


def test_rng_lint_flags_unseeded_calls(tmp_path):
    findings = _findings(_bad_repo(tmp_path), "seeded-rng")
    assert any("default_rng() without a seed" in f for f in findings)
    assert any("np.random.rand()" in f for f in findings)


def test_mutation_lint_allows_rebinding(tmp_path):
    _write(tmp_path, "src/repro/__init__.py", "")
    _write(tmp_path, "src/repro/kernels/rebind.py", (
        "class K:\n"
        "    def _execute(self, a):\n"
        "        a = a.copy()\n"
        "        a[0] = 1.0\n"
        "        return a\n"
    ))
    assert _findings(tmp_path, "no-input-mutation") == []


def test_span_outside_memo_flags_wrapped_builder(tmp_path):
    _write(tmp_path, "src/repro/__init__.py", "")
    _write(tmp_path, "src/repro/perfmodel/build.py", (
        "from ..obs.tracing import traced\n"
        "from .memo import memoised_rng\n"
        "@traced('build.stats')\n"
        "@memoised_rng('stats')\n"
        "def bad_builder(spec, rng):\n"
        "    return spec\n"
        "@memoised_rng('latency')\n"
        "@traced('build.latency')\n"
        "def inner_span_ok(spec, rng):\n"
        "    return spec\n"
        "@traced('plain')\n"
        "def plain_span_ok(spec):\n"
        "    return spec\n"
        "@memoised_rng('suite')\n"
        "def plain_memo_ok(spec, rng):\n"
        "    return spec\n"
    ))
    findings = _findings(tmp_path, "span-outside-memo")
    assert len(findings) == 1
    assert "bad_builder" in findings[0]
    assert "span-outside-memo" in findings[0]


def test_span_outside_memo_sees_attribute_decorators(tmp_path):
    _write(tmp_path, "src/repro/__init__.py", "")
    _write(tmp_path, "src/repro/perfmodel/build2.py", (
        "from repro.obs import tracing\n"
        "from repro.perfmodel import memo\n"
        "@tracing.traced('x')\n"
        "@memo.memoised_rng('stats')\n"
        "def also_bad(spec, rng):\n"
        "    return spec\n"
    ))
    findings = _findings(tmp_path, "span-outside-memo")
    assert len(findings) == 1
    assert "also_bad" in findings[0]


def test_plan_twins_flags_missing_reference(tmp_path):
    _write(tmp_path, "src/repro/__init__.py", "")
    _write(tmp_path, "src/repro/kernels/planned.py", (
        "from .. import plans as _plans\n"
        "class K:\n"
        "    def _execute_simulated(self, a, b):\n"
        "        return _plans.execute_spmm_octet(_plans.spmm_octet_plan(self, a), a, b)\n"
    ))
    _write(tmp_path, "tests/test_planned.py", "")
    findings = _findings(tmp_path, "plan-reference-twins")
    assert len(findings) == 1
    assert "no interpreted _execute_simulated_reference()" in findings[0]


def test_plan_twins_flags_untested_reference(tmp_path):
    _write(tmp_path, "src/repro/__init__.py", "")
    _write(tmp_path, "src/repro/kernels/planned.py", (
        "from .. import plans as _plans\n"
        "class K:\n"
        "    def _execute_simulated(self, a, b):\n"
        "        return _plans.execute_spmm_octet(_plans.spmm_octet_plan(self, a), a, b)\n"
        "    def _execute_simulated_reference(self, a, b):\n"
        "        return a @ b\n"
    ))
    _write(tmp_path, "tests/test_planned.py", "")
    findings = _findings(tmp_path, "plan-reference-twins")
    assert len(findings) == 1
    assert "never referenced under tests/" in findings[0]
    # with a parity test naming the twin, the rule is satisfied
    _write(tmp_path, "tests/test_planned.py",
           "def test_parity(k, a, b):\n"
           "    assert (k._execute_simulated(a, b)\n"
           "            == k._execute_simulated_reference(a, b)).all()\n")
    assert _findings(tmp_path, "plan-reference-twins") == []


def test_plan_twins_ignores_helper_imports(tmp_path):
    # importing one helper out of a plans submodule is not plan execution
    _write(tmp_path, "src/repro/__init__.py", "")
    _write(tmp_path, "src/repro/kernels/functionalish.py", (
        "from ..plans.functional import expand_vector_rows\n"
        "def spmm(a, b):\n"
        "    rows, cols = expand_vector_rows(a)\n"
        "    return rows, cols\n"
    ))
    assert _findings(tmp_path, "plan-reference-twins") == []


def test_cli_exit_codes(tmp_path, capsys):
    argv = ["analyze", *[arg for r in CONTRACT_RULES for arg in ("--rule", r)]]
    assert cli.main(argv + ["--repo", str(REPO)]) == cli.EXIT_CLEAN
    assert "0 new finding(s)" in capsys.readouterr().out
    assert cli.main(argv + ["--repo", str(_bad_repo(tmp_path))]) == cli.EXIT_FINDINGS
    assert cli.main(argv + ["--repo", str(tmp_path / "nowhere")]) == cli.EXIT_USAGE
