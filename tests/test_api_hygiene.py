"""API hygiene meta-tests: docstrings and export consistency."""

import importlib
import inspect
import pkgutil

import repro


def iter_modules():
    """``repro`` and every module under it, found by walking the package."""
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


class TestDocstrings:
    def test_every_module_documented(self):
        undocumented = [m.__name__ for m in iter_modules() if not (m.__doc__ or "").strip()]
        assert undocumented == []

    def test_every_public_callable_documented(self):
        missing = []
        for mod in iter_modules():
            for name in getattr(mod, "__all__", []):
                obj = getattr(mod, name, None)
                if obj is None or not callable(obj):
                    continue
                if not (inspect.getdoc(obj) or "").strip():
                    missing.append(f"{mod.__name__}.{name}")
        assert missing == []

    def test_public_methods_documented_on_core_classes(self):
        from repro.formats import BlockedEllMatrix, ColumnVectorSparseMatrix, CSRMatrix
        from repro.kernels import DenseGemmKernel, OctetSddmmKernel, OctetSpmmKernel

        missing = []
        for cls in (ColumnVectorSparseMatrix, CSRMatrix, BlockedEllMatrix,
                    OctetSpmmKernel, OctetSddmmKernel, DenseGemmKernel):
            for name, member in inspect.getmembers(cls):
                if name.startswith("_") or not callable(member):
                    continue
                if not (inspect.getdoc(member) or "").strip():
                    missing.append(f"{cls.__name__}.{name}")
        assert missing == []


class TestExports:
    def test_all_names_resolve(self):
        broken = []
        for mod in iter_modules():
            for name in getattr(mod, "__all__", []):
                if not hasattr(mod, name):
                    broken.append(f"{mod.__name__}.{name}")
        assert broken == []

    def test_top_level_surface(self):
        for name in ("spmm", "sddmm", "sparse_softmax", "dense_gemm",
                     "ColumnVectorSparseMatrix", "VOLTA_V100"):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_version(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)
