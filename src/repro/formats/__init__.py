"""Sparse matrix formats.

* :class:`~repro.formats.csr.CSRMatrix` — fine-grained baseline format;
* :class:`~repro.formats.cvse.ColumnVectorSparseMatrix` — the paper's
  column-vector sparse encoding (§4), plus its transposed
  :class:`~repro.formats.cvse.RowVectorSparseMatrix` view (§8);
* :class:`~repro.formats.blocked_ell.BlockedEllMatrix` — cuSPARSE's
  Blocked-ELL input (§3.2).
"""

from .csr import CSRMatrix
from .cvse import ColumnVectorSparseMatrix, RowVectorSparseMatrix
from .blocked_ell import BlockedEllMatrix
from .io import load_cvse, read_smtx, save_cvse, write_smtx
from .conversions import (
    blocked_ell_matching,
    cvse_from_csr_topology,
    pad_rows,
)

__all__ = [
    "CSRMatrix",
    "ColumnVectorSparseMatrix",
    "RowVectorSparseMatrix",
    "BlockedEllMatrix",
    "blocked_ell_matching",
    "cvse_from_csr_topology",
    "pad_rows",
    "load_cvse",
    "read_smtx",
    "save_cvse",
    "write_smtx",
]
