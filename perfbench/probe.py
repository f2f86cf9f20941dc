"""A fixed reference task that measures how fast the host is right now.

``run.py`` times this script in a fresh interpreter next to every
set-up sample::

    python3 perfbench/probe.py T0

It does the same kinds of work as a workload's set-up (interpreter
start, importing and executing many modules, building NumPy arrays
from a seeded generator, pure-Python loops over dicts and lists) but
touches nothing under ``src/``, so no change to the program can change
its time.  A set-up sample divided by the probe next to it is the
set-up's cost in probe units, which does not move when the shared host
gets faster or slower.  ``T0`` is the parent's ``time.monotonic()``
just before it started this interpreter; the last line of stdout is
``{"probe_s": seconds since T0}``.
"""

import argparse  # noqa: F401
import asyncio  # noqa: F401
import csv  # noqa: F401
import dataclasses  # noqa: F401
import decimal  # noqa: F401
import email.parser  # noqa: F401
import fractions  # noqa: F401
import http.client  # noqa: F401
import json
import logging  # noqa: F401
import statistics  # noqa: F401
import sys
import time
import xml.etree.ElementTree  # noqa: F401

import numpy as np


def main(t0: float) -> None:
    rng = np.random.default_rng(12345)
    keep = rng.random((128, 1024)) < 0.1
    dense = (rng.uniform(-1, 1, (128, 8, 1024)) * keep[:, None, :]).reshape(1024, 1024)
    dense = dense.astype(np.float16)
    rows, cols = np.nonzero(dense)
    order = np.lexsort((cols, rows))
    index = {}
    for r, c in zip(rows[order[:20000]].tolist(), cols[order[:20000]].tolist()):
        index.setdefault(r, []).append(c)
    total = sum(len(v) for v in index.values())
    assert total == min(20000, rows.size)
    print(json.dumps({"probe_s": time.monotonic() - t0}))


if __name__ == "__main__":
    main(float(sys.argv[1]))
