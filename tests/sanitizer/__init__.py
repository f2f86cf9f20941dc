"""Kernel sanitizer: a compute-sanitizer analog for the simulated stack.

The checkers are test oracles: they hold the paper's mechanisms (HMMA
octet fragment ownership, §3.2's barrier-staged tiles, the LDG.128
sector streams) to their contracts in the simulator, and they run
under pytest (``tests/test_sanitizer.py``).  Checker families (see
``docs/SANITIZER.md`` for the hardware analogs):

* :mod:`.memcheck` — global-memory bounds/alignment on the trace
  generators' sector streams;
* :mod:`.racecheck` — shared-memory races, barrier divergence, and
  HMMA octet fragment ownership;
* :mod:`.statcheck` — static ``KernelStats`` consistency (roofline,
  monotonicity, occupancy);
* :mod:`.plancheck` and :mod:`.validate` — ownership of the compiled
  execution plans;
* :mod:`.harness` — each case's check body over the seeded problems;
* :mod:`.corpus` — injected-violation fixtures that prove each checker
  fires.

Like ``tests/oracles``, this package imports only NumPy and
:mod:`repro`.
"""

from .findings import Checker, Finding, SanitizerReport
from .harness import PROBLEMS, ProblemSpec, check_case

__all__ = [
    "Checker",
    "Finding",
    "SanitizerReport",
    "PROBLEMS",
    "ProblemSpec",
    "check_case",
]
