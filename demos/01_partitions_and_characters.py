"""Partitions, cycle types, and symmetric group characters.

Everything downstream rests on this combinatorial layer: partitions index
both the conjugacy classes and the irreducible characters of S_n, and the
Frobenius characteristic converts between character values and Schur
coefficients through the pairing sum_mu chi(mu) chi^lam(mu) / z_mu.
"""

from superdelta.characters import kostka, mn_character
from superdelta.partitions import (
    partition_to_str,
    partitions_of,
    perm_of_cycle_type,
    syt_count,
    z_mu,
)
from superdelta.rationals import RAT

n = 5
print(f"partitions of {n} (reverse lexicographic):")
print("  " + ", ".join(partition_to_str(mu) for mu in partitions_of(n)))

# z_mu is the centralizer order: n!/z_mu permutations share cycle type mu
print("\ncycle type, centralizer order, one representative:")
for mu in partitions_of(4):
    print(f"  {partition_to_str(mu):8} z_mu = {z_mu(mu):3}  rep = {perm_of_cycle_type(mu)}")

# the character table, computed by the border-strip recursion
n = 4
mus = partitions_of(n)
print(f"\ncharacter table of S_{n} (rows = lam, columns = mu):")
header = "        " + "".join(f"{partition_to_str(mu):>8}" for mu in mus)
print(header)
for lam in mus:
    row = "".join(f"{mn_character(lam, mu):>8}" for mu in mus)
    print(f"{partition_to_str(lam):>8}{row}")

# rows are orthonormal for the 1/z_mu inner product
lam, kap = (3, 1), (2, 2)
inner = sum(RAT(mn_character(lam, mu) * mn_character(kap, mu), z_mu(mu)) for mu in mus)
print(f"\n<chi^{partition_to_str(lam)}, chi^{partition_to_str(kap)}> = {inner}")

# the identity column counts standard Young tableaux
print("\nchi^lam(1^n) versus the hook length formula:")
for lam in mus:
    print(f"  {partition_to_str(lam):8} {mn_character(lam, (1,)*n):3} = {syt_count(lam)}")

# Kostka numbers are unitriangular for dominance order
print("\nKostka matrix for n = 4 (rows lam, columns nu):")
print(header)
for lam in mus:
    row = "".join(f"{kostka(lam, nu):>8}" for nu in mus)
    print(f"{partition_to_str(lam):>8}{row}")
