"""The module side: quotient characters degree by degree.

Each tri-degree (a, b, c) gives a finite-dimensional S_n-module: the
quotient of the span of monomials by the ideal component.  The engine
never traces the whole component.  For a few Young subgroups
H = S_alpha x S_beta it counts the live H-orbits of monomials and
subtracts an exact rank in orbit coordinates; by Frobenius reciprocity
that is <F, h_alpha e_beta>, and a small integer solve turns these
pairings into the Schur multiplicities m_lam of the component; its
characters are sum_lam m_lam chi^lam.  Summing q^a t^b z^c m_lam s_lam
over all degrees yields the tri-graded Frobenius characteristic.
"""

from superdelta.coinvariants import (
    component_characters,
    frobenius_module,
    ideal_component,
    isotypic_dimension,
    trace_regular,
    young_system,
)
from superdelta.partitions import partition_to_str
from superdelta.superring import TriDegree

# one worked component: n = 2 at tri-degree (0,0,1)
n, d = 2, TriDegree(0, 0, 1)
basis = ideal_component(n, d)
print(f"ideal component at {tuple(d)}: ambient dim {basis.dim}, rank {basis.rank}")
print("  basis rows (coordinates theta_1, theta_2):", basis.rows)

for psi in young_system(n).characters:
    label = f"h[{partition_to_str(psi.alpha)}] e[{partition_to_str(psi.beta)}]"
    print(f"  <F, {label}> = dim of its psi-isotypic part:", isotypic_dimension(d, psi))
comp = component_characters(n, d)
print("  Schur multiplicities:", {partition_to_str(lam): m for lam, m in comp.mult.items()})
print("  quotient characters:", {partition_to_str(mu): v for mu, v in comp.chars.items()})
print("  (the quotient is the sign representation: theta_1 ~ -theta_2)")

# trace of the regular action comes from a cycle-type count, no matrices
print("\ntrace of swap on the full component (0,0,2):",
      trace_regular((2, 1), 2, TriDegree(0, 0, 2)))

# the frontier scan finds the degrees with nonzero quotient, row by theta-degree
hilbert2 = sorted(frobenius_module(2).series.hilbert())
for c in range(3):
    cells = [tuple(d) for d in hilbert2 if d.c == c]
    print(f"support of M_2 at theta-degree {c}: {cells}")

# the full tri-graded Frobenius characteristic
for n in (2, 3):
    result = frobenius_module(n)
    print(f"\nFrobenius characteristic of M_{n} (frontier closed: {result.closed}):")
    for line in result.series.pretty_lines():
        print("  " + line)
    z0 = result.series.specialize(z=0)
    print(f"  z=0, q=t=1 dimension: {z0.total_dimension()} = (n+1)^(n-1)")
    print("  Hilbert series (a, b, c) -> dim:")
    for deg, dim in sorted(result.series.hilbert().items()):
        print(f"    {tuple(deg)} -> {dim}")
