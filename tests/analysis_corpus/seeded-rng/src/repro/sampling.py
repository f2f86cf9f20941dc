import numpy as np
from numpy.random import default_rng


def draw(n):
    rng = default_rng()  # finding
    return rng.random(n)


def draw_legacy(n):
    return np.random.rand(n)  # finding


def draw_seeded(n, seed):
    return default_rng(seed).random(n)
