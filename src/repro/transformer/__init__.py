"""Sparse-transformer application (paper §7.4).

* :mod:`~repro.transformer.masks` — band + random CVSE attention masks;
* :mod:`~repro.transformer.attention` — dense and sparse (SDDMM ->
  sparse softmax -> SpMM) attention with Figure-20 latency breakdowns;
* :mod:`~repro.transformer.model` — NumPy transformer classifier with
  manual backprop and dense-float / dense-half / sparse-half modes;
* :mod:`~repro.transformer.lra` — synthetic LRA-style byte task;
* :mod:`~repro.transformer.training` — Adam trainer + evaluator;
* :mod:`~repro.transformer.memory` — Table 4 peak-memory accounting.
"""

from .attention import AttentionTiming, DenseAttention, SparseAttention
from .lra import ByteTaskConfig, make_dataset
from .masks import band_random_cvse, band_random_mask, mask_to_cvse
from .memory import MemoryBreakdown, dense_attention_peak, sparse_attention_peak
from .model import TransformerClassifier, TransformerConfig
from .training import TrainConfig, evaluate, train

__all__ = [
    "AttentionTiming",
    "DenseAttention",
    "SparseAttention",
    "ByteTaskConfig",
    "make_dataset",
    "band_random_cvse",
    "band_random_mask",
    "mask_to_cvse",
    "MemoryBreakdown",
    "dense_attention_peak",
    "sparse_attention_peak",
    "TransformerClassifier",
    "TransformerConfig",
    "TrainConfig",
    "evaluate",
    "train",
]
