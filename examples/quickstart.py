#!/usr/bin/env python
"""Quickstart: column-vector sparse encoding + the octet kernels.

Builds a 4x1-vector-sparse matrix, runs SpMM / SDDMM / sparse softmax
through the TCU-based 1-D Octet Tiling kernels on the simulated V100,
and compares against the dense cublasHgemm analog.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import ColumnVectorSparseMatrix, dense_gemm, sddmm, sparse_softmax, spmm

rng = np.random.default_rng(0)

# --- build a vector-sparse matrix (V = 4) --------------------------------
M, K, N, V = 1024, 512, 256, 4
keep = rng.random((M // V, K)) < 0.1          # 90% sparse at 4x1 grain
dense = (rng.uniform(-1, 1, (M // V, V, K)) * keep[:, None, :]).reshape(M, K)
a = ColumnVectorSparseMatrix.from_dense(dense.astype(np.float16), vector_length=V)
print(f"A: {a}")

# --- SpMM: C = A @ B -------------------------------------------------------
b = rng.uniform(-1, 1, (K, N)).astype(np.float16)
res = spmm(a, b)                               # kernel="octet" by default
ref = dense_gemm(dense.astype(np.float16), b)
print(f"\nSpMM  (octet):  {res.time_us:8.1f} us   limiter={res.latency.limiter}")
print(f"GEMM  (dense):  {ref.time_us:8.1f} us   -> speedup {res.speedup_over(ref):.2f}x")
err = np.abs(res.output.astype(np.float32) - ref.output.astype(np.float32)).max()
print(f"max |sparse - dense| = {err:.4f} (fp16 accumulation noise)")

# --- compare the kernel designs of §5 --------------------------------------
for name in ("octet", "fpu", "wmma"):
    r = spmm(a, b, kernel=name)
    print(f"  spmm[{name:5s}]: {r.time_us:8.1f} us")

# --- SDDMM + sparse softmax: one attention step ----------------------------
L, D = 512, 64
q = rng.uniform(-1, 1, (L, D)).astype(np.float16)
k = rng.uniform(-1, 1, (L, D)).astype(np.float16)
mask_rows = rng.random((L // 8, L)) < 0.1
mask = ColumnVectorSparseMatrix.mask_from_groups(mask_rows, 8)

scores = sddmm(q, k.T.copy(), mask, variant="arch")   # the Fig-15 TCU extension
att = sparse_softmax(scores.output, scale=1.0 / np.sqrt(D))
print(f"\nSDDMM (octet/arch): {scores.time_us:6.1f} us")
print(f"softmax (CVSE):     {att.time_us:6.1f} us")
print(f"attention rows sum to {att.output.to_dense(np.float32).sum(axis=1)[:3]}")
