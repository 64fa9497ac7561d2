"""Exact verification engine for the super-diagonal coinvariant identity.

The package computes, from first principles, the tri-graded Frobenius
characteristic of the quotient of Q[x, y, theta] (theta Grassmann) by the
ideal of polarized power sums and their theta-twisted companions, and
independently the Delta-prime operator series

    Delta'_{e_(n-1) + z e_(n-2) + ... + z^(n-1)}(e_n),

then compares the two Schur expansions coefficient by coefficient in
exact rational arithmetic.
"""

from .coinvariants import (
    ComponentCharacters,
    IdealComponentBasis,
    character_quotient,
    component_characters,
    frobenius_module,
    ideal_component,
    support_frontier,
    trace_regular,
)
from .macdonald import (
    SymFunc,
    delta_prime_ek_en,
    ek_pleth,
    hhl_htilde,
    htilde_schur,
    macdonald_scalars,
    mono_to_schur,
    rhs_series,
    schur_to_mono,
)
from .partitions import Partition, Permutation, cycle_type, partitions_of, z_mu
from .characters import CharacterTable, character_table, kostka, mn_character
from .qtz import QTZPoly, NotDivisible, divide_exact
from .linalg import RationalMatrix, restricted_trace, rref
from .series import FrobeniusSeries
from .superring import (
    SuperMonomial,
    SuperPoly,
    TriDegree,
    apply_perm,
    enumerate_monomials,
    gen_p,
    gen_ptilde,
    mono_mul,
)
from .verifier import (
    CacheEntry,
    ComponentCache,
    VerificationReport,
    compare_series,
    render_report,
    verify_conjecture,
)

__version__ = "0.1.0"
