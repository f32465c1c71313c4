"""
Enumeration experiments over prime fields
=========================================

Reproduces desk-scale slices of two enumeration studies on the family
F(p, t) of t-term polynomials with exponents below p-1:

 1. the record value R_max(p, 3) of the root count over the subfamily
    whose members vanish on no coset of size > 1, which grows like a
    small multiple of ln p rather than like the power-law worst case;
 2. the distribution of root counts over that subfamily, whose tail
    decays at least as fast as 1/sqrt(r!).
"""

import math

from tnomial import compute_max_R, conjecture_table, format_tnomial
from tnomial.numtheory import is_prime

# -- record growth -----------------------------------------------------------

print("== max R over the C <= 1 subfamily, t = 3 ==")
print(f"{'p':>4} {'R_max':>6} {'1.8 ln p':>9}  witness")
for p in range(5, 200):
    if not is_prime(p):
        continue
    res = compute_max_R(p, 3)
    print(f"{p:>4} {res.value:>6} {1.8 * math.log(p):>9.3f}  {format_tnomial(res.witness)}")

# -- distribution tables -------------------------------------------------------

print("\n== root-count distribution, p = 13, t = 3 ==")
print(f"{'r':>2} {'count_all':>10} {'count_c1':>9} {'ratio':>9} {'(1/r!)^0.5':>11}")
for rec in conjecture_table(13, 3):
    flag = "" if rec.passes_bound() else "  <-- bound fails"
    print(f"{rec.r:>2} {rec.count_all:>10} {rec.count_c1:>9} "
          f"{rec.ratio:>9.5f} {rec.rhs:>11.5f}{flag}")

rows = conjecture_table(13, 3)
print(f"\nfamily size {rows[0].total_all}, C <= 1 part {rows[0].total_c1}, "
      f"largest root count in the C <= 1 part: {rows[0].max_R}")
