"""Peak memory of one large sweep: the figure behind ROADMAP item 2's gate.

From the repository root:

    python3 tools/sweep_peak.py

runs one run_sweep over a 1000 x 1000 gamma x t grid of the block
(omega, epsilon, n) = (1, 5, 0) with every quantity, 10**6 cells, and
prints, per cell, the growth of the process's peak resident set
(ru_maxrss) across that call and the sum of the nbytes of the returned
table's arrays (a mask that several extras share counted once per extra).
It imports nhjc from ./src and runs in a fresh interpreter, so nothing
before the sweep raised the peak.  Unix only (the resource module).
"""

import os
import resource
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from nhjc import ModelParams  # noqa: E402
from nhjc.scan import QUANTITIES, Axis, SweepSpec, run_sweep  # noqa: E402

spec = SweepSpec(ModelParams(1.0, 5.0, 1.0, 0), Axis("gamma", 0.0, 4.0, 1000),
                 Axis("t", 0.0, 1.0, 1000), QUANTITIES)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
table = run_sweep(spec)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
arrays = (*table.coords, table.n, table.phase, table.discriminant, table.eigenvalue_I,
          table.eigenvalue_II, *table.extras.values(), *table.omitted.values())
cells = len(table)
print(f"{cells} cells: peak growth {(after - before) * 1024 / cells:.0f} B/cell, "
      f"table holds {sum(a.nbytes for a in arrays) / cells:.0f} B/cell")
