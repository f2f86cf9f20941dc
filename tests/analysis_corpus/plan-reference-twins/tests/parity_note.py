# Parity coverage marker: only one reference twin is exercised here; the
# other twin is never named under tests/, so the rule must flag it.
COVERED = "_run_tested_reference"
