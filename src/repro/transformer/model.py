"""A NumPy transformer classifier with manual backprop.

Substrate for the §7.4 experiment: a byte-level text classifier in the
Long-Range-Arena style — token + position embeddings, pre-LayerNorm
encoder blocks (multi-head self-attention + GELU FFN), mean pooling and
a linear head.  Forward supports three execution modes:

* ``dense`` float64 — the training path.  Attention runs on the mask's
  row groups (runs of rows that keep the same columns, 8 rows for the
  paper's 8x1 column vectors), for every batch row and head at once;
  scores, softmax and the cached attention cover only the kept columns,
  and the dropped ones get zero weight, as an additive ``-1e9`` gives
  them;
* ``dense`` float16 — "directly quantize the weights and activations to
  half without finetuning" (Table 4's Dense(half));
* ``sparse`` float16 — attention through the CVSE kernel pipeline
  (:class:`~repro.transformer.attention.SparseAttention`).

Backprop is implemented by hand (no autograd available offline); the
gradient check in the tests pins it against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .attention import AttentionTiming, SparseAttention

__all__ = [
    "TransformerConfig",
    "TransformerClassifier",
    "softmax",
    "layer_norm",
]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax along ``axis``."""
    x = x - x.max(axis=axis, keepdims=True)
    e = np.exp(x)
    return e / e.sum(axis=axis, keepdims=True)


def layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray, eps: float = 1e-5):
    """LayerNorm; returns (output, cache-for-backward)."""
    mu = x.mean(-1, keepdims=True)
    var = x.var(-1, keepdims=True)
    xhat = (x - mu) / np.sqrt(var + eps)
    return xhat * g + b, (xhat, var, eps)


#: one row group of an attention mask: its rows, the columns they keep,
#: and the factor on their scores (``0`` for a fully-masked group)
RowGroup = Tuple[slice, np.ndarray, float]


def _row_groups(mask: Optional[np.ndarray], L: int, head_dim: int) -> List[RowGroup]:
    """Split an ``(L, L)`` mask into runs of consecutive rows that keep
    the same columns; ``None`` is one group keeping everything.

    Band+random masks built from 8x1 column vectors split into groups
    of 8 rows.  Scores are scaled by ``1/sqrt(head_dim)``; a
    fully-masked group keeps every column with its scores scaled by 0:
    its softmax is uniform, as the additive ``-1e9`` reference gives,
    and no gradient reaches its q or k.
    """
    if mask is None:
        mask = np.ones((L, L), dtype=bool)
    bounds = [0, *(np.flatnonzero((mask[1:] != mask[:-1]).any(-1)) + 1), L]
    groups = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        cols = np.flatnonzero(mask[lo])
        live = cols.size > 0
        groups.append((slice(lo, hi), cols if live else np.arange(L), live / np.sqrt(head_dim)))
    return groups


def _heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """A ``(B, H, L, head_dim)`` view of ``(B, L, d_model)`` activations."""
    B, L, d = x.shape
    return x.reshape(B, L, n_heads, d // n_heads).swapaxes(1, 2)


_GELU_C = 0.7978845608028654


def _gelu(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """GELU (tanh form); returns (output, the tanh for :func:`_gelu_grad`).

    The cube is ``x * x * x``: NumPy's SIMD ``power`` takes a slow path
    on negative bases whose bits differ from its fast path, so ``x**3``
    would make the result depend on the host CPU.
    """
    t = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def _gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d GELU / dx, given the forward's tanh ``t``."""
    dt = (1 - t**2) * _GELU_C * (1 + 3 * 0.044715 * x**2)
    return 0.5 * (1 + t) + 0.5 * x * dt


@dataclass(frozen=True)
class TransformerConfig:
    """Model hyperparameters (paper §7.4 uses 4 layers / 4 heads / 64)."""

    vocab: int = 256
    seq_len: int = 128
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 128
    n_classes: int = 2

    @property
    def head_dim(self) -> int:
        if self.d_model % self.n_heads:
            raise ValueError("d_model must divide by n_heads")
        return self.d_model // self.n_heads


class TransformerClassifier:
    """Encoder-only classifier; see the module docstring for modes."""

    def __init__(self, cfg: TransformerConfig, rng: Optional[np.random.Generator] = None):
        self.cfg = cfg
        rng = rng or np.random.default_rng(0)
        d, f = cfg.d_model, cfg.d_ff
        s = 1.0 / np.sqrt(d)
        p: Dict[str, np.ndarray] = {
            "emb": rng.normal(0, 0.5 * s, (cfg.vocab, d)),
            "pos": rng.normal(0, 0.5 * s, (cfg.seq_len, d)),
            "w_cls": rng.normal(0, s, (d, cfg.n_classes)),
            "b_cls": np.zeros(cfg.n_classes),
        }
        for i in range(cfg.n_layers):
            for nm in ("wq", "wk", "wv", "wo"):
                p[f"{nm}{i}"] = rng.normal(0, s, (d, d))
            p[f"w1_{i}"] = rng.normal(0, s, (d, f))
            p[f"b1_{i}"] = np.zeros(f)
            p[f"w2_{i}"] = rng.normal(0, 1.0 / np.sqrt(f), (f, d))
            p[f"b2_{i}"] = np.zeros(d)
            p[f"g1_{i}"] = np.ones(d)
            p[f"bn1_{i}"] = np.zeros(d)
            p[f"g2_{i}"] = np.ones(d)
            p[f"bn2_{i}"] = np.zeros(d)
        self.params = p

    # ------------------------------------------------------------------ #
    def forward(
        self,
        tokens: np.ndarray,
        mask: Optional[np.ndarray] = None,
        mode: str = "dense-float",
        sparse_attention: Optional[SparseAttention] = None,
        collect_timing: bool = False,
    ):
        """Run the classifier.

        ``mode``: "dense-float" | "dense-half" | "sparse-half".
        Returns (logits, cache, timing).  The cache holds what
        :meth:`loss_and_grads` reads back; it is filled in every mode but
        only the dense-float one (the training path) is differentiated.
        The dense modes attend one row group of the mask at a time
        (:func:`_row_groups`), for every batch row and head at once, and
        the cache keeps each group's compact ``(B, H, rows, cols)``
        attention instead of dense ``(L, L)`` tiles.
        """
        cfg = self.cfg
        if mode not in ("dense-float", "dense-half", "sparse-half"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "sparse-half" and sparse_attention is None:
            raise ValueError("sparse-half mode needs a SparseAttention instance")
        if mode == "sparse-half" and mask is not None:
            raise ValueError("sparse-half takes its mask from sparse_attention, not mask")
        tokens = np.asarray(tokens)
        single = tokens.ndim == 1
        if single:
            tokens = tokens[None]
        B, L = tokens.shape
        if L > cfg.seq_len:
            raise ValueError(f"tokens of shape {tokens.shape} exceed seq_len {cfg.seq_len}")
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (L, L):
                raise ValueError(
                    f"mask of shape {mask.shape} does not fit tokens of shape {tokens.shape}"
                )
        half = mode != "dense-float"

        def q16(x):
            return x.astype(np.float16).astype(np.float32) if half else x

        # dense-float keeps float64 end to end (training/grad-check
        # path); the half modes round every operand through fp16.
        p = {k: (q16(v.astype(np.float32)) if half else v) for k, v in self.params.items()}
        timing = AttentionTiming() if collect_timing else None
        H, hd = cfg.n_heads, cfg.head_dim
        # the mask is fixed across layers, heads and batch rows
        groups = _row_groups(mask, L, hd)

        x = q16(p["emb"][tokens] + p["pos"][None, :L])
        cache: Dict[str, object] = {"tokens": tokens, "groups": groups}
        for i in range(cfg.n_layers):
            h, ln1 = layer_norm(x, p[f"g1_{i}"], p[f"bn1_{i}"])
            h = q16(h)
            q = q16(h @ p[f"wq{i}"])
            k = q16(h @ p[f"wk{i}"])
            v = q16(h @ p[f"wv{i}"])
            outs = np.empty_like(q)
            atts = []
            if mode == "sparse-half":
                for hh in range(H):
                    sl = slice(hh * hd, (hh + 1) * hd)
                    for b in range(B):
                        o, t = sparse_attention(
                            q[b, :, sl].astype(np.float16),
                            k[b, :, sl].astype(np.float16),
                            v[b, :, sl].astype(np.float16),
                        )
                        outs[b, :, sl] = o.astype(np.float32)
                        if timing is not None:
                            timing.add(t)
            else:
                qh, kh, vh, oh = (_heads(a, H) for a in (q, k, v, outs))
                # the groups partition the rows, so each row of outs is
                # written once
                for rows, cols, scale in groups:
                    att = softmax((qh[:, :, rows] @ kh[:, :, cols].swapaxes(-1, -2)) * scale)
                    oh[:, :, rows] = q16(att @ vh[:, :, cols])
                    atts.append(att)
            proj = q16(outs @ p[f"wo{i}"])
            x = x + proj
            h2, ln2 = layer_norm(x, p[f"g2_{i}"], p[f"bn2_{i}"])
            h2 = q16(h2)
            a1 = h2 @ p[f"w1_{i}"] + p[f"b1_{i}"]
            gelu1, tanh1 = _gelu(a1)
            f1 = q16(gelu1)
            ffn = q16(f1 @ p[f"w2_{i}"] + p[f"b2_{i}"])
            x = x + ffn
            cache[f"layer{i}"] = (h, ln1, q, k, v, outs, atts, h2, ln2, a1, tanh1, f1)
        pooled = x.mean(axis=1)
        logits = pooled @ p["w_cls"] + p["b_cls"]
        cache["pooled"] = pooled
        if single:
            logits = logits[0]
        return logits, cache, timing

    # ------------------------------------------------------------------ #
    def loss_and_grads(
        self, tokens: np.ndarray, labels: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> Tuple[float, Dict[str, np.ndarray]]:
        """Cross-entropy loss and full parameter gradients (dense fp32)."""
        cfg = self.cfg
        p = self.params
        logits, cache, _ = self.forward(tokens, mask, mode="dense-float")
        tokens = cache["tokens"]
        B, L = tokens.shape
        probs = softmax(logits if logits.ndim == 2 else logits[None])
        labels = np.asarray(labels).reshape(B)
        loss = -np.log(probs[np.arange(B), labels] + 1e-12).mean()

        g: Dict[str, np.ndarray] = {k: np.zeros_like(v) for k, v in p.items()}
        dlogits = probs.copy()
        dlogits[np.arange(B), labels] -= 1.0
        dlogits /= B

        pooled = cache["pooled"]
        g["w_cls"] += pooled.T @ dlogits
        g["b_cls"] += dlogits.sum(0)
        dx = (dlogits @ p["w_cls"].T)[:, None, :] * np.ones((B, L, 1)) / L

        for i in reversed(range(cfg.n_layers)):
            h, ln1, q, k, v, outs, atts, h2, ln2, a1, tanh1, f1 = cache[f"layer{i}"]
            # FFN branch
            dffn = dx
            g[f"w2_{i}"] += f1.reshape(-1, cfg.d_ff).T @ dffn.reshape(-1, cfg.d_model)
            g[f"b2_{i}"] += dffn.sum((0, 1))
            df1 = dffn @ p[f"w2_{i}"].T
            da1 = df1 * _gelu_grad(a1, tanh1)
            g[f"w1_{i}"] += h2.reshape(-1, cfg.d_model).T @ da1.reshape(-1, cfg.d_ff)
            g[f"b1_{i}"] += da1.sum((0, 1))
            dh2 = da1 @ p[f"w1_{i}"].T
            dx_mid = dx + self._ln_backward(dh2, ln2, p[f"g2_{i}"], g, f"g2_{i}", f"bn2_{i}")
            # attention branch
            dproj = dx_mid
            g[f"wo{i}"] += outs.reshape(-1, cfg.d_model).T @ dproj.reshape(-1, cfg.d_model)
            douts = dproj @ p[f"wo{i}"].T
            # the groups partition the rows, so dq needs no zeroing
            dq, dk, dv = np.empty_like(q), np.zeros_like(k), np.zeros_like(v)
            qh, kh, vh, doh = (_heads(a, cfg.n_heads) for a in (q, k, v, douts))
            dqh, dkh, dvh = (_heads(a, cfg.n_heads) for a in (dq, dk, dv))
            for (rows, cols, scale), att in zip(cache["groups"], atts):
                do = doh[:, :, rows]
                dvh[:, :, cols] += att.swapaxes(-1, -2) @ do
                datt = do @ vh[:, :, cols].swapaxes(-1, -2)
                ds = att * (datt - (datt * att).sum(-1, keepdims=True)) * scale
                dqh[:, :, rows] = ds @ kh[:, :, cols]
                dkh[:, :, cols] += ds.swapaxes(-1, -2) @ qh[:, :, rows]
            dh = dq @ p[f"wq{i}"].T + dk @ p[f"wk{i}"].T + dv @ p[f"wv{i}"].T
            g[f"wq{i}"] += h.reshape(-1, cfg.d_model).T @ dq.reshape(-1, cfg.d_model)
            g[f"wk{i}"] += h.reshape(-1, cfg.d_model).T @ dk.reshape(-1, cfg.d_model)
            g[f"wv{i}"] += h.reshape(-1, cfg.d_model).T @ dv.reshape(-1, cfg.d_model)
            dx = dx_mid + self._ln_backward(dh, ln1, p[f"g1_{i}"], g, f"g1_{i}", f"bn1_{i}")

        g["emb"] = np.zeros_like(p["emb"])
        np.add.at(g["emb"], tokens.reshape(-1), dx.reshape(-1, cfg.d_model))
        g["pos"] += dx.sum(0)
        return float(loss), g

    @staticmethod
    def _ln_backward(dy, ln_cache, gamma, grads, g_key, b_key):
        xhat, var, eps = ln_cache
        grads[g_key] += (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
        grads[b_key] += dy.sum(axis=tuple(range(dy.ndim - 1)))
        dxhat = dy * gamma
        inv = 1.0 / np.sqrt(var + eps)
        return inv * (dxhat - dxhat.mean(-1, keepdims=True) - xhat * (dxhat * xhat).mean(-1, keepdims=True))

    # ------------------------------------------------------------------ #
    def predict(self, tokens: np.ndarray, **kwargs) -> np.ndarray:
        logits, _, _ = self.forward(tokens, **kwargs)
        return np.argmax(logits, axis=-1)

    def num_parameters(self) -> int:
        return int(sum(v.size for v in self.params.values()))

    def parameter_bytes(self, precision: str = "single") -> int:
        per = 2 if precision == "half" else 4
        return self.num_parameters() * per
