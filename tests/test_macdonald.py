import random
from collections import Counter
from dataclasses import replace
from math import prod

import pytest

from superdelta import macdonald
from superdelta.macdonald import (
    SymFunc,
    delta_prime_ek_en,
    ek_pleth,
    elementary_en,
    hhl_htilde,
    htilde_schur,
    macdonald_scalars,
    mono_to_schur,
    power_to_schur,
    rhs_series,
    schur_to_mono,
    schur_to_power,
)
from superdelta.partitions import conjugate, partitions_of, syt_count
from superdelta.qtz import ONE, Q, QTZPoly, T, Z


def test_macdonald_scalars_single_box():
    s = macdonald_scalars((1,))
    assert s.b == ONE
    assert s.pi == ONE
    assert s.w == s.m == (ONE - Q) * (ONE - T)


def test_macdonald_scalars_row_two():
    s = macdonald_scalars((2,))
    assert s.b == ONE + Q
    assert s.pi == ONE - Q
    assert s.w == (Q - T) * (ONE - Q * Q) * (ONE - T) * (ONE - Q)


def test_macdonald_scalars_hook():
    s = macdonald_scalars((2, 1))
    assert s.b == ONE + Q + T
    with pytest.raises(ValueError):
        macdonald_scalars(())


def test_ek_pleth():
    assert ek_pleth((3, 2), 0) == ONE
    assert ek_pleth((2,), 1) == Q
    assert ek_pleth((2, 1), 2) == Q * T
    assert ek_pleth((3,), 2) == Q * Q * Q  # e_2 of {q, q^2}
    with pytest.raises(ValueError):
        ek_pleth((2,), 2)


def test_htilde_small():
    assert htilde_schur((1,)).coeffs == {(1,): ONE}
    assert htilde_schur((2,)).coeffs == {(2,): ONE, (1, 1): Q}
    assert htilde_schur((1, 1)).coeffs == {(2,): ONE, (1, 1): T}
    assert htilde_schur((2, 1)).coeffs == {
        (3,): ONE,
        (2, 1): Q + T,
        (1, 1, 1): Q * T,
    }


def test_htilde_monomial_coefficients():
    m = hhl_htilde((2,))
    assert m.coefficient((2,)) == ONE
    assert m.coefficient((1, 1)) == ONE + Q


def test_macdonald_property_suite():
    for n in range(1, 6):
        for mu in partitions_of(n):
            h = htilde_schur(mu)
            assert h.coefficient((n,)) == ONE  # normalization
            conj = htilde_schur(conjugate(mu))
            for lam in set(h.coeffs) | set(conj.coeffs):
                c = h.coefficient(lam)
                assert c.is_integral() and c.has_nonnegative_coeffs()
                assert c.evaluate(1, 1, 1) == syt_count(lam)
                assert c.swap_qt() == conj.coefficient(lam)  # q <-> t conjugation


def test_mono_to_schur_examples():
    m2 = SymFunc("m", 2, {(2,): ONE})
    assert mono_to_schur(m2).coeffs == {(2,): ONE, (1, 1): -ONE}
    f = SymFunc("m", 2, {(2,): ONE, (1, 1): QTZPoly.constant(2)})
    assert mono_to_schur(f).coeffs == {(2,): ONE, (1, 1): ONE}


def test_schur_mono_roundtrip():
    rng = random.Random(5)
    for n in range(1, 7):
        coeffs = {}
        for lam in partitions_of(n):
            if rng.random() < 0.6:
                coeffs[lam] = QTZPoly.monomial(
                    rng.randrange(3), rng.randrange(3), 0, rng.randrange(-3, 4)
                )
        f = SymFunc("s", n, coeffs)
        assert mono_to_schur(schur_to_mono(f)) == f


def test_power_schur_roundtrip():
    rng = random.Random(17)
    for n in range(1, 6):
        coeffs = {
            mu: QTZPoly.constant(rng.randrange(-4, 5)) for mu in partitions_of(n)
        }
        f = SymFunc("p", n, coeffs)
        assert schur_to_power(power_to_schur(f)) == f
    # p_n expands with hook-shaped signs; spot-check n = 2
    p2 = power_to_schur(SymFunc("p", 2, {(2,): ONE}))
    assert p2.coeffs == {(2,): ONE, (1, 1): -ONE}


def test_symfunc_basis_validation():
    with pytest.raises(ValueError):
        SymFunc("x", 2, {})
    e = SymFunc("e", 3, {(3,): ONE})
    assert e.to_schur().coeffs == {(1, 1, 1): ONE}
    assert elementary_en(4).coeffs == {(1, 1, 1, 1): ONE}


def test_delta_prime_identity_certificate():
    for n in range(1, 6):
        assert delta_prime_ek_en(n, 0).coeffs == {(1,) * n: ONE}


def reference_divide(num: QTZPoly, den: QTZPoly) -> QTZPoly:
    """Long division in graded lex order; den must have leading coefficient 1."""
    order = lambda e: (sum(e), e)
    lead = max(den.terms, key=order)
    assert den.terms[lead] == 1
    quot = QTZPoly.zero()
    while not num.is_zero():
        e = max(num.terms, key=order)
        shift = tuple(x - y for x, y in zip(e, lead))
        assert min(shift) >= 0, "not divisible"
        term = QTZPoly.monomial(*shift, coeff=num.terms[e])
        quot, num = quot + term, num - term * den
    return quot


def reference_delta_prime(n: int, k: int) -> dict:
    """Delta'_{e_k}(e_n) from plain QTZPoly products over the expanded L."""
    scalars = {mu: macdonald._expansion_scalar(mu) for mu in partitions_of(n)}
    l_atoms = Counter()
    for sc in scalars.values():
        l_atoms |= sc.den_atoms
    out = {}
    for lam in partitions_of(n):
        num = QTZPoly.zero()
        for mu, sc in scalars.items():
            cofactor = prod(sc.num_atoms.elements(), start=ONE) * prod(
                (l_atoms - sc.den_atoms).elements(), start=ONE
            )
            h = htilde_schur(mu).coefficient(lam)
            num = num + sc.bpoly * sc.sign * cofactor * ek_pleth(mu, k) * h
        if not num.is_zero():
            out[lam] = reference_divide(num, prod(l_atoms.elements(), start=ONE))
    return out


def test_delta_prime_matches_unpacked_reference():
    for n in range(1, 6):
        for k in range(n):
            assert delta_prime_ek_en(n, k).coeffs == reference_delta_prime(n, k), (n, k)


def test_rhs_series_certifies_expansion_scalars(monkeypatch):
    original = macdonald._expansion_scalar

    def corrupted(mu):
        sc = original(mu)
        if mu == (2, 1):
            # adds the polynomial sign * num_atoms to the scalar, so every
            # numerator stays divisible and only the e_0 identity can tell
            sc = replace(sc, bpoly=sc.bpoly + prod(sc.den_atoms.elements(), start=ONE))
        return sc

    monkeypatch.setattr(macdonald, "_expansion_scalar", corrupted)
    macdonald._delta_context.cache_clear()
    try:
        assert delta_prime_ek_en(3, 0).coeffs != {(1, 1, 1): ONE}
        with pytest.raises(ValueError, match="e_0"):
            rhs_series(3)
    finally:
        macdonald._delta_context.cache_clear()


def test_delta_prime_examples():
    d = delta_prime_ek_en(2, 1)
    assert d.coeffs == {(2,): ONE, (1, 1): Q + T}
    with pytest.raises(ValueError):
        delta_prime_ek_en(3, 3)


def test_delta_prime_nabla_dimensions():
    for n in range(1, 5):
        top = delta_prime_ek_en(n, n - 1)
        dim = sum(
            syt_count(lam) * c.evaluate(1, 1, 1) for lam, c in top.coeffs.items()
        )
        assert dim == (n + 1) ** (n - 1)


def test_rhs_series_small():
    assert rhs_series(1).coeffs == {(1,): ONE}
    assert rhs_series(2).coeffs == {(2,): ONE, (1, 1): Q + T + Z}
    with pytest.raises(ValueError):
        rhs_series(0)


def test_rhs_series_top_z_slab():
    for n in range(1, 6):
        series = rhs_series(n)
        assert series.z_slab(n - 1) == {(1,) * n: ONE}
        assert series.z_slab(n) == {}


def test_rhs_series_positive():
    for n in range(1, 6):
        assert rhs_series(n).is_schur_positive()


def test_symfunc_json_roundtrip():
    h = htilde_schur((2, 1))
    assert SymFunc.from_json_dict(h.to_json_dict()) == h


def test_htilde_size_limit():
    with pytest.raises(ValueError):
        hhl_htilde((9,))
