"""The unreduced reference the tests compare the engine against.

The engine never acts on a whole component in monomial coordinates.  These
are the pieces that do: the signed coordinate action of S_n, the trace of
that action on the full component R^(a,b,c) by cycle-type counting, and the
trace on a reduced echelon basis of an invariant subspace (the ideal
component of `superdelta.coinvariants.ideal_component`).  Ambient trace
minus ideal trace is the quotient character the isotypic method must
reproduce.
"""

from superdelta.linalg import Echelon
from superdelta.partitions import Permutation, cycles_of
from superdelta.rationals import RAT
from superdelta.superring import TriDegree, apply_perm_mono


def signed_coordinate_map(sigma: Permutation, monomials, index) -> list[tuple[int, int]]:
    """Per-coordinate (image index, sign) of the diagonal S_n action."""
    out = []
    for m in monomials:
        sign, image = apply_perm_mono(sigma, m)
        out.append((index[image], sign))
    return out


def apply_signed_map(cmap: list[tuple[int, int]], vec: dict[int, int]) -> dict[int, int]:
    return {cmap[i][0]: cmap[i][1] * val for i, val in vec.items()}


def trace_regular(sigma: Permutation, n: int, d: TriDegree) -> int:
    """Trace of the signed action of sigma on the full component R^(a,b,c).

    A monomial is (up to sign) fixed iff its x and y exponents are constant
    on the cycles of sigma and its theta set is a union of cycles; the sign
    is the sort parity of sigma on the theta set, i.e. the product of
    (-1)^(length-1) over the cycles used.
    """
    lengths = [len(c) for c in cycles_of(sigma)]
    return (
        _cycle_exponent_count(lengths, d.a)
        * _cycle_exponent_count(lengths, d.b)
        * _theta_signed_count(lengths, d.c)
    )


def _cycle_exponent_count(lengths: list[int], total: int) -> int:
    dp = [0] * (total + 1)
    dp[0] = 1
    for ell in lengths:
        for s in range(ell, total + 1):
            dp[s] += dp[s - ell]
    return dp[total]


def _theta_signed_count(lengths: list[int], c: int) -> int:
    dp = [0] * (c + 1)
    dp[0] = 1
    for ell in lengths:
        sign = -1 if (ell - 1) % 2 else 1
        for s in range(c, ell - 1, -1):
            dp[s] += sign * dp[s - ell]
    return dp[c]


def basis_rows(ech: Echelon) -> list[tuple[int, dict[int, int]]]:
    """(pivot column, row) pairs in increasing pivot order."""
    return sorted(ech.pivots.items())


def trace_on_reduced_basis(ech: Echelon, apply_action):
    """Trace of an action preserving the row space of a reduced echelon.

    For reduced rows b_i with pivot j_i, the matrix C of the action in this
    basis satisfies (A b_i)[j_k] = C[k,i] * b_k[j_k], so the trace is the sum
    of (A b_i)[j_i] / b_i[j_i].
    """
    total = 0
    for j, row in basis_rows(ech):
        val = apply_action(row).get(j, 0)
        if val:
            total += RAT(val, row[j])
    return total
