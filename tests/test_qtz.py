import pytest
from hypothesis import example, given, settings, strategies as st

from superdelta.qtz import (
    ONE,
    Q,
    T,
    Z,
    Kronecker,
    NotDivisible,
    PackedDivisor,
    QTZPoly,
    atom_product,
    divide_exact,
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


# two-term factors q^a1 t^b1 - q^a2 t^b2 as exponent pairs ((a1, b1), (a2, b2))
ONE_MINUS_Q = ((0, 0), (1, 0))
Q_MINUS_T = ((1, 0), (0, 1))
ONE_MINUS_QT = ((0, 0), (1, 1))


def binomial(atom) -> QTZPoly:
    """The atom ((a1, b1), (a2, b2)) as the polynomial q^a1 t^b1 - q^a2 t^b2."""
    (a1, b1), (a2, b2) = atom
    return QTZPoly.monomial(a1, b1) - QTZPoly.monomial(a2, b2)


def q_degree(atoms) -> int:
    return sum(max(m1[0], m2[0]) for m1, m2 in atoms)


def divide(num: QTZPoly, *atoms, bound: int = 2**20) -> QTZPoly:
    """divide_exact on num packed in slots that fit num, the atoms and, for
    the default bound, every quotient these tests expect."""
    packing = Kronecker(1 + max(num.degrees()[0], q_degree(atoms)), bound)
    return divide_exact(packing.pack(num), PackedDivisor(packing, list(atoms)))


def test_divide_exact_examples():
    assert divide(ONE - Q * Q, ONE_MINUS_Q) == ONE + Q
    assert divide((Q - T) * (ONE - Q * T) * 3, Q_MINUS_T, ONE_MINUS_QT) == 3
    assert divide(QTZPoly.zero(), Q_MINUS_T).is_zero()
    assert divide(Q + T) == Q + T
    with pytest.raises(NotDivisible):
        divide(Q, ((0, 1), (0, 0)))  # t - 1
    with pytest.raises(NotDivisible):
        divide(ONE - Q**3, ((0, 0), (2, 0)))
    with pytest.raises(ZeroDivisionError):
        divide(Q, ((1, 2), (1, 2)))  # m - m
    with pytest.raises(ValueError):
        divide(Z * Q - Z, ONE_MINUS_Q)


def test_packed_divisor_rejects_a_factor_that_does_not_fit():
    # a monomial of q-degree >= D would wrap into the next power of t
    packing = Kronecker(3, 100)
    assert PackedDivisor(packing, [((2, 5), (0, 0))]).q_degree == 2
    for bad in (((3, 0), (0, 0)), ((0, 1), (4, 0))):
        with pytest.raises(ValueError, match="q-degree"):
            PackedDivisor(packing, [ONE_MINUS_Q, bad])


def test_packed_divisor_inverse():
    packing = Kronecker(7, 1000)
    atoms = [Q_MINUS_T, ONE_MINUS_QT, ((0, 2), (3, 0)), ONE_MINUS_Q]
    divisor = PackedDivisor(packing, atoms)
    assert divisor.ev == packing.pack((Q - T) * (ONE - Q * T) * (T * T - Q**3) * (ONE - Q))
    assert divisor.ev == divisor.odd << divisor.s and divisor.odd % 2 == 1
    for k in (700, 5, 64, 1, 2000, 3):  # lifted, reused and lifted again
        assert divisor.odd * divisor.inverse(k) % 2**k == 1


def atoms():
    """The two-term factors of the delta side's denominator, in either sign:
    1 - q^i t^j, q^a - t^b and t^l - q^(a+1)."""
    e = st.integers(0, 3)
    shapes = st.one_of(
        st.tuples(e, e).filter(any).map(lambda ij: ((0, 0), ij)),
        st.tuples(e, e).map(lambda ab: ((ab[0], 0), (0, ab[1] + 1))),
        st.tuples(e, e).map(lambda la: ((0, la[0]), (la[1] + 1, 0))),
    )
    return st.tuples(shapes, st.booleans()).map(lambda ab: ab[0][::-1] if ab[1] else ab[0])


def times_atoms(a: QTZPoly, atoms) -> QTZPoly:
    """a times the atoms, as plain QTZPoly products."""
    for atom in atoms:
        a = a * binomial(atom)
    return a


@given(small_polys(with_z=False), st.lists(atoms(), max_size=6))
@example(ONE, [ONE_MINUS_Q] * 10)  # a coefficient 252: too wide for slots sized by |1|_1
def test_atom_product_is_the_plain_product(a, divisors):
    assert atom_product(a, divisors) == times_atoms(a, divisors)


@given(small_polys(with_z=False), st.lists(atoms(), max_size=4))
def test_divide_exact_inverts_multiplication(a, divisors):
    assert divide(times_atoms(a, divisors), *divisors) == a


@given(small_polys(with_z=False), atoms(), st.integers(0, 4), st.integers(0, 4),
       st.integers(-9, 9).filter(bool))
def test_divide_exact_rejects_non_multiples(a, atom, i, j, c):
    # atom vanishes at q = t = 1 and a monomial does not, so this is no multiple
    with pytest.raises(NotDivisible):
        divide(a * binomial(atom) + QTZPoly.monomial(i, j, 0, c), atom)


@given(small_polys(with_z=False), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 2**16 - 1))
def test_divide_exact_rejects_a_remainder_below_2_to_the_s(a, i, j, low):
    # ev(q^i - t^j) = 2^(B i) (1 - 2^(B (D j - i))): s = B i bits of zeros
    atom = ((i, 0), (0, j))
    packing = Kronecker(8, 2**10)
    divisor = PackedDivisor(packing, [atom])
    assert divisor.s == 8 * packing.width * i >= 16  # so 0 < low < 2^s
    with pytest.raises(NotDivisible):
        divide_exact(packing.pack(a * binomial(atom)) + low, divisor)


def test_divide_exact_rejects_a_packing_too_narrow_for_the_quotient():
    # (1 - q^m)^2 has coefficients 1 and -2, its quotient by (1 - q)^2 has
    # coefficients up to m: a 1-byte slot holds the first, not the second
    m = 200
    num, quotient = (ONE - Q**m) ** 2, sum((Q**i for i in range(m)), QTZPoly.zero()) ** 2
    assert divide(num, ONE_MINUS_Q, ONE_MINUS_Q, bound=2**10) == quotient
    with pytest.raises(NotDivisible):
        divide(num, ONE_MINUS_Q, ONE_MINUS_Q, bound=2)
    # with t = q^2, 1 - t packs as (1 - q)(1 + q), but (1 + q)(1 - q) needs
    # q-degree 2: 1 - t is no multiple of 1 - q
    packing = Kronecker(2, 2**10)
    with pytest.raises(NotDivisible):
        divide_exact(packing.pack(ONE - T), PackedDivisor(packing, [ONE_MINUS_Q]))


@given(small_polys(with_z=False), st.lists(atoms(), max_size=4), st.integers(1, 2**9))
def test_divide_exact_never_returns_a_wrong_quotient(a, divisors, bound):
    num = times_atoms(a, divisors)
    bound = max([bound, *(abs(c) for c in num.terms.values())])  # the slots fit num
    packing = Kronecker(1 + num.degrees()[0] + q_degree(divisors), bound)
    divisor = PackedDivisor(packing, divisors)
    try:
        assert divide_exact(packing.pack(num), divisor) == a
    except NotDivisible:
        # only a quotient that may not fit the slots times L is refused
        top = max((abs(c) for c in a.terms.values()), default=0)
        assert top * divisor.l1 >= packing.half


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


# slots of 1, 2, 4 and 8 bytes are array items, and slots of 3 and 5 bytes are
# padded to one
@pytest.mark.parametrize("bound,width", [(127, 1), (2**15 - 1, 2), (2**20, 3),
                                         (2**31 - 1, 4), (2**32, 5), (2**62, 8)])
def test_kronecker_unpack_grid(bound, width):
    packing = Kronecker(4, bound)
    assert packing.width == width
    top = packing.half - 1  # 2^(B-1) - 1, the largest balanced digit
    for p in (
        QTZPoly({(0, 0, 0): top, (3, 0, 0): -top, (1, 2, 0): top, (2, 1, 0): -1}),
        QTZPoly({(3, 5, 0): -top, (0, 6, 0): -top, (1, 1, 0): 1}),
        QTZPoly({(2, 0, 0): -3}),
        QTZPoly.zero(),
    ):
        for sign in (1, -1):
            assert packing.unpack(sign * packing.pack(p)) == sign * p, (p, sign)


def test_kronecker_refuses_slots_wider_than_8_bytes():
    # no array item holds a 9-byte slot; the delta side needs 6 at n = 8
    assert Kronecker(4, 2**63 - 1).width == 8
    for bound in (2**63, 2**70):
        with pytest.raises(ValueError, match="wider than 8 bytes"):
            Kronecker(4, bound)


@given(small_polys(with_z=False), st.integers(0, 3), st.integers(0, 3))
def test_kronecker_shift_multiplies_by_a_monomial(p, a, b):
    packing = Kronecker(p.degrees()[0] + a + 1, sum(abs(x) for x in p.terms.values()))
    x = packing.pack(p)
    assert x << packing.shift(a, b) == packing.pack(QTZPoly.monomial(a, b) * p)


def test_kronecker_shift_rejects_a_q_degree_that_does_not_fit():
    packing = Kronecker(3, 1)
    assert packing.shift(2, 1) == 8 * (2 + 3)
    with pytest.raises(ValueError, match="q-degree"):
        packing.shift(3, 0)


def test_evaluate_and_slabs():
    p = Q * Q * 2 + T * Z + ONE
    assert p.evaluate(1, 1, 1) == 4
    assert p.coefficient_of_z(1) == T
    assert p.coefficient_of_z(0) == Q * Q * 2 + ONE
    assert p.shift_z(2).coefficient_of_z(3) == T
    assert p.swap_qt() == T * T * 2 + Q * Z + ONE
    assert p.degrees() == (2, 1, 1)
