"""A NumPy transformer classifier with manual backprop.

Substrate for the §7.4 experiment: a byte-level text classifier in the
Long-Range-Arena style — token + position embeddings, pre-LayerNorm
encoder blocks (multi-head self-attention + GELU FFN), mean pooling and
a linear head.  Forward supports three execution modes:

* ``dense`` float64 — the training path (the mask's dropped scores get
  zero weight, as an additive ``-1e9`` gives them);
* ``dense`` float16 — "directly quantize the weights and activations to
  half without finetuning" (Table 4's Dense(half));
* ``sparse`` float16 — attention through the CVSE kernel pipeline
  (:class:`~repro.transformer.attention.SparseAttention`).

Backprop is implemented by hand (no autograd available offline); the
gradient check in the tests pins it against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from .attention import AttentionTiming, SparseAttention

__all__ = [
    "TransformerConfig",
    "TransformerClassifier",
    "softmax",
    "masked_softmax",
    "kept_entries",
    "KeptEntries",
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


class KeptEntries(NamedTuple):
    """The entries of an ``(L, L)`` attention mask that softmax can make
    nonzero, from :func:`kept_entries`."""

    index: np.ndarray  # row-major flat indices into the (L, L) tile
    row: np.ndarray  # the row of each index
    start: np.ndarray  # where each row's run begins in ``index``
    fill: np.ndarray  # positions in ``index`` that the mask drops


def kept_entries(mask: np.ndarray) -> KeptEntries:
    """Index the kept entries of a boolean ``(L, L)`` mask once.

    A fully-masked row keeps every position: ``softmax`` of a row of
    ``-1e9`` is uniform, not zero.
    """
    mask = np.asarray(mask, dtype=bool)
    keep = mask | ~mask.any(-1, keepdims=True)
    index = np.flatnonzero(keep)
    row = index // mask.shape[-1]
    start = np.searchsorted(row, np.arange(mask.shape[0]))
    return KeptEntries(index, row, start, np.flatnonzero(~mask.reshape(-1)[index]))


def masked_softmax(scores: np.ndarray, kept: KeptEntries) -> np.ndarray:
    """``softmax(np.where(mask, scores, -1e9))`` over ``(..., L, L)``
    scores, bit for bit, with ``exp`` taken only on the kept entries.

    Elsewhere the reference's ``exp(-1e9 - max)`` is exactly ``+0.0``,
    which is what the output holds there; adding those zeros leaves the
    row sums unchanged.
    """
    tile = scores.shape[-2] * scores.shape[-1]
    flat = scores.reshape(-1, tile)
    vals = flat[:, kept.index]
    vals[:, kept.fill] = -1e9
    row_max = np.maximum.reduceat(vals, kept.start, axis=1)
    e = np.zeros_like(flat)
    e[:, kept.index] = np.exp(vals - row_max[:, kept.row])
    e = e.reshape(scores.shape)
    e /= e.sum(axis=-1, keepdims=True)
    return e


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
    def _attend_dense(self, q, k, v, kept: Optional[KeptEntries]):
        d = q.shape[-1]
        scores = q @ k.swapaxes(-1, -2) / np.sqrt(d)
        att = softmax(scores) if kept is None else masked_softmax(scores, kept)
        return att @ v, att

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
        """
        cfg = self.cfg
        if mode not in ("dense-float", "dense-half", "sparse-half"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "sparse-half" and sparse_attention is None:
            raise ValueError("sparse-half mode needs a SparseAttention instance")
        half = mode != "dense-float"

        def q16(x):
            return x.astype(np.float16).astype(np.float32) if half else x

        # dense-float keeps float64 end to end (training/grad-check
        # path); the half modes round every operand through fp16.
        p = {k: (q16(v.astype(np.float32)) if half else v) for k, v in self.params.items()}
        tokens = np.asarray(tokens)
        single = tokens.ndim == 1
        if single:
            tokens = tokens[None]
        B, L = tokens.shape
        timing = AttentionTiming() if collect_timing else None
        # the mask is fixed across layers, heads and batch rows
        kept = None if mask is None else kept_entries(mask)

        x = q16(p["emb"][tokens] + p["pos"][None, :L])
        cache: Dict[str, object] = {"tokens": tokens}
        for i in range(cfg.n_layers):
            h, ln1 = layer_norm(x, p[f"g1_{i}"], p[f"bn1_{i}"])
            h = q16(h)
            q = q16(h @ p[f"wq{i}"])
            k = q16(h @ p[f"wk{i}"])
            v = q16(h @ p[f"wv{i}"])
            hd = cfg.head_dim
            outs = np.empty_like(q)
            atts = []
            for hh in range(cfg.n_heads):
                sl = slice(hh * hd, (hh + 1) * hd)
                for b in range(B):
                    if mode == "sparse-half":
                        o, t = sparse_attention(
                            q[b, :, sl].astype(np.float16),
                            k[b, :, sl].astype(np.float16),
                            v[b, :, sl].astype(np.float16),
                        )
                        outs[b, :, sl] = o.astype(np.float32)
                        if timing is not None:
                            timing.add(t)
                        atts.append(None)
                    else:
                        o, att = self._attend_dense(q[b, :, sl], k[b, :, sl], v[b, :, sl], kept)
                        outs[b, :, sl] = q16(o)
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
        cache["mask"] = mask
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
            dq = np.zeros_like(q)
            dk = np.zeros_like(k)
            dv = np.zeros_like(v)
            hd = cfg.head_dim
            for hh in range(cfg.n_heads):
                sl = slice(hh * hd, (hh + 1) * hd)
                for b in range(B):
                    att = atts[hh * B + b]
                    do = douts[b, :, sl]
                    dv[b, :, sl] += att.T @ do
                    datt = do @ v[b, :, sl].T
                    ds = att * (datt - (datt * att).sum(-1, keepdims=True))
                    ds /= np.sqrt(hd)
                    dq[b, :, sl] += ds @ k[b, :, sl]
                    dk[b, :, sl] += ds.T @ q[b, :, sl]
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
