import numpy as np


def spmm_tile(a, b):
    a16 = a.astype(np.float16)
    b16 = b.astype(np.float16)
    acc = np.float16(0.0)
    for i in range(a16.shape[0]):
        acc += a16[i] * b16[i]  # finding
    return acc
