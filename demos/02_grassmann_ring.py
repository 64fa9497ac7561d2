"""The polynomial ring with two commuting and one Grassmann family.

R_n has variables x_1..x_n, y_1..y_n and theta_1..theta_n, where the
thetas anticommute and square to zero.  The symmetric group permutes all
three index families at once; the ideal is generated by the polarized
power sums p[r,s] and their theta-twisted companions pt[r,s].  Monomials
carry no coefficient: the signed product and the signed action return
the sign beside the normal-form monomial.
"""

from superdelta.superring import (
    SuperMonomial,
    TriDegree,
    apply_perm_mono,
    enumerate_monomials,
    ideal_generators,
    mono_mul,
    mono_str,
)

n = 3

# Grassmann sign bookkeeping: theta_2 * theta_1 = -theta_1 * theta_2
t1 = SuperMonomial((0,) * n, (0,) * n, (1,))
t2 = SuperMonomial((0,) * n, (0,) * n, (2,))
for u, v in ((t1, t2), (t2, t1), (t1, t1)):
    prod = mono_mul(u, v)  # (sign, monomial), or None when a theta repeats
    shown = "0 (squares vanish)" if prod is None else f"{prod[0]} * {mono_str(prod[1])}"
    print(f"{mono_str(u)} * {mono_str(v)} -> {shown}")

# the signed action: a transposition flips the sign of theta_1 theta_2
m = SuperMonomial((0,) * n, (0,) * n, (1, 2))
swap = (2, 1, 3)
sign, image = apply_perm_mono(swap, m)
print(f"\nswap(1,2) on {mono_str(m)} -> {sign} * {mono_str(image)}")

# ideal generators: the generator of degree (r, s, e) is the sum of the
# terms x_i^r y_i^s theta_i^e, which every permutation only reorders
print("\ngenerators for n = 3, in (r+s, r) order:")
for name, (r, s, e) in ideal_generators(n):
    terms = [
        SuperMonomial(tuple(r if j == i else 0 for j in range(n)),
                      tuple(s if j == i else 0 for j in range(n)),
                      (i + 1,) if e else ())
        for i in range(n)
    ]
    images = {apply_perm_mono(swap, t) for t in terms}
    fixed = images == {(1, t) for t in terms}
    gen = " + ".join(mono_str(t) for t in terms)
    print(f"  {name:9} degree {(r, s, e)}  invariant: {fixed}  {gen}")

# homogeneous components are spanned by normal-form monomials
d = TriDegree(1, 0, 1)
monos = enumerate_monomials(2, d)
print(f"\nmonomials of tri-degree {d} for n = 2:")
print("  " + ", ".join(mono_str(m) for m in monos))
print("count = C(a+n-1,n-1) C(b+n-1,n-1) C(n,c) =", len(monos))
