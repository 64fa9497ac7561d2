import pytest
from hypothesis import given, settings, strategies as st

from superdelta.qtz import (
    ONE,
    Q,
    T,
    Z,
    Kronecker,
    NotDivisible,
    QTZPoly,
    divide_exact,
    poly_from_str,
)
from superdelta.rationals import RAT

settings.register_profile("exact", deadline=None, max_examples=60)
settings.load_profile("exact")


def small_polys(with_z=True, nonzero=False):
    maxz = 2 if with_z else 0
    expo = st.tuples(
        st.integers(0, 3), st.integers(0, 3), st.integers(0, maxz)
    )
    coeff = st.integers(-9, 9)
    d = st.dictionaries(expo, coeff, max_size=5)
    polys = d.map(QTZPoly)
    if nonzero:
        polys = polys.filter(lambda p: not p.is_zero())
    return polys


def test_construction_drops_zeros():
    p = QTZPoly({(1, 0, 0): 0, (0, 1, 0): 2})
    assert (1, 0, 0) not in p.terms
    assert p == QTZPoly.monomial(dt=1, coeff=2)
    assert QTZPoly.constant(0).is_zero()


def test_str_spec_example():
    p = ONE + Q * T + QTZPoly.monomial(2, 0, 1, 2)
    assert str(p) == "1 + q*t + 2*z*q^2"
    assert str(QTZPoly.zero()) == "0"
    assert str(Q * Q - T * T) == "-t^2 + q^2"


def test_parse_roundtrip():
    for text in ["0", "1 + q*t + 2*z*q^2", "-t^2 + q^2", "3/4*q - t^3", "q"]:
        assert str(poly_from_str(text)) == str(poly_from_str(str(poly_from_str(text))))
    p = ONE + Q * T * 5 - T**3
    assert poly_from_str(str(p)) == p


@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == QTZPoly.zero()


@given(small_polys(), small_polys())
def test_specialization_is_homomorphism(a, b):
    for sub in ({"z": 0}, {"q": 1}, {"t": 1}, {"q": RAT(1, 2)}):
        assert (a * b).substitute(**sub) == a.substitute(**sub) * b.substitute(**sub)
        assert (a + b).substitute(**sub) == a.substitute(**sub) + b.substitute(**sub)


def test_divide_exact_examples():
    assert divide_exact(ONE - Q * Q, ONE - Q) == ONE + Q
    assert divide_exact((Q - T) * (ONE - Q * T) * 3, Q - T, ONE - Q * T) == 3
    assert divide_exact(QTZPoly.zero(), Q - T).is_zero()
    assert divide_exact(Q + T) == Q + T
    with pytest.raises(NotDivisible):
        divide_exact(Q, T - ONE)
    with pytest.raises(NotDivisible):
        divide_exact(ONE - Q**3, ONE - Q * Q)
    with pytest.raises(ZeroDivisionError):
        divide_exact(Q, QTZPoly.zero())
    for bad in (T, Q + T, Q * 2 - T, Z - ONE):
        with pytest.raises(ValueError):
            divide_exact(Q, bad)
    with pytest.raises(ValueError):
        divide_exact(Z * Q - Z, ONE - Q)


def atoms():
    """The two-term factors of the delta side's denominator, in either sign:
    1 - q^i t^j, q^a - t^b and t^l - q^(a+1)."""
    e = st.integers(0, 3)
    shapes = st.one_of(
        st.tuples(e, e).filter(any).map(lambda ij: ONE - QTZPoly.monomial(*ij)),
        st.tuples(e, e.map(lambda b: b + 1)).map(
            lambda ab: QTZPoly.monomial(ab[0]) - QTZPoly.monomial(0, ab[1])
        ),
        st.tuples(e, e).map(lambda la: QTZPoly.monomial(0, la[0]) - QTZPoly.monomial(la[1] + 1)),
    )
    return st.tuples(shapes, st.booleans()).map(lambda ab: -ab[0] if ab[1] else ab[0])


@given(small_polys(with_z=False), st.lists(atoms(), max_size=4))
def test_divide_exact_inverts_multiplication(a, divisors):
    num = a
    for atom in divisors:
        num = num * atom
    assert divide_exact(num, *divisors) == a


@given(small_polys(with_z=False), atoms(), st.integers(0, 4), st.integers(0, 4),
       st.integers(-9, 9).filter(bool))
def test_divide_exact_rejects_non_multiples(a, atom, i, j, c):
    # atom vanishes at q = t = 1 and a monomial does not, so this is no multiple
    with pytest.raises(NotDivisible):
        divide_exact(a * atom + QTZPoly.monomial(i, j, 0, c), atom)


@given(small_polys(with_z=False), st.integers(0, 3), st.integers(0, 200))
def test_kronecker_roundtrip(p, extra_d, bound):
    bound += max((abs(c) for c in p.terms.values()), default=0)
    packing = Kronecker(p.degrees()[0] + 1 + extra_d, bound)
    assert packing.unpack(packing.pack(p)) == p
    assert packing.unpack(-packing.pack(p)) == -p


@given(small_polys(with_z=False), small_polys(with_z=False), small_polys(with_z=False))
def test_kronecker_is_a_ring_homomorphism(a, b, c):
    # bounds for the inputs and for the result
    degree = a.degrees()[0] + b.degrees()[0] + c.degrees()[0]
    l1a, l1b, l1c = (sum(abs(x) for x in p.terms.values()) for p in (a, b, c))
    packing = Kronecker(degree + 1, l1a * l1b + l1a + l1b + l1c)
    pack = packing.pack
    assert packing.unpack(pack(a) * pack(b) - pack(c)) == a * b - c


def test_kronecker_slot_limits():
    for bound in (1, 127, 128, 2**31 - 1, 2**31):
        packing = Kronecker(4, bound)
        top = packing.half - 1  # 2^(B-1) - 1, the largest balanced digit
        assert top >= bound
        for p in (
            QTZPoly({(0, 0, 0): top, (3, 0, 0): -top, (1, 2, 0): top, (2, 1, 0): -1}),
            QTZPoly({(3, 5, 0): -top, (0, 6, 0): -top}),
        ):
            assert packing.unpack(packing.pack(p)) == p
        for c in (packing.half, -packing.half):
            with pytest.raises(ValueError):
                packing.pack(QTZPoly.monomial(1, 1, 0, c))
    assert Kronecker(4, 127).half == 2**7 and Kronecker(4, 128).half == 2**15


def test_kronecker_rejects_inputs_that_do_not_fit():
    packing = Kronecker(3, 100)
    assert packing.unpack(packing.pack(Q * Q * T**4)) == Q * Q * T**4
    for bad in (Q**3, Q**3 * T + ONE, Z, Q + Z * T, QTZPoly.constant(RAT(1, 2))):
        with pytest.raises(ValueError):
            packing.pack(bad)


def test_evaluate_and_slabs():
    p = Q * Q * 2 + T * Z + ONE
    assert p.evaluate(1, 1, 1) == 4
    assert p.coefficient_of_z(1) == T
    assert p.coefficient_of_z(0) == Q * Q * 2 + ONE
    assert p.shift_z(2).coefficient_of_z(3) == T
    assert p.swap_qt() == T * T * 2 + Q * Z + ONE
    assert p.degrees() == (2, 1, 1)
