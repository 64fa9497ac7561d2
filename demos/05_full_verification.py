"""End-to-end verification: compute both sides and compare exactly.

The Delta side is computed first and its degree support forces extra
module-side work beyond the independent frontier scan, so the comparison
is two-sided.  Exit states mirror the CLI: EQUAL only when every theta row
closed with a verified zero band and every Schur coefficient agreed.

This demo verifies n = 1..3.  n = 4 takes a few seconds (superdelta verify
--n 4); n = 5 and 6 are long-running on the module side, while the Delta
side alone stays fast (see rhs_series).
"""

import time

from superdelta.macdonald import rhs_series
from superdelta.verifier import render_report, verify_conjecture

for n in (1, 2, 3):
    report = verify_conjecture(n)
    print(f"n = {n}: {report.verdict} "
          f"(z=0 dimension {report.specializations['z0_q1_t1_dimension']}, "
          f"total {report.specializations['q1_t1_z1_dimension']})")

print()
print(render_report(verify_conjecture(3), "text"))

# the Delta side alone scales further
for n in (5, 6):
    t0 = time.time()
    series = rhs_series(n)
    print(f"\nDelta side n = {n} in {time.time()-t0:.1f}s: "
          f"z=0, q=t=1 dimension {series.specialize(z=0).total_dimension()} "
          f"= {(n+1)**(n-1)}; Schur positive: {series.is_schur_positive()}")
