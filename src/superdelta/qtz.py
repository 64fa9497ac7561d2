"""Sparse exact polynomials in q, t, z.

Terms are dicts mapping exponent triples (dq, dt, dz) to nonzero int
coefficients; scalar operands are ints too.  The fixed term order is
graded lexicographic with q > t > z.  Two tools serve sums of long products
in q, t: `Kronecker` packs integer polynomials into Python ints, where a
product is one big-int multiplication (or a few shifted adds by a short
polynomial), and `divide_exact` divides a packed polynomial N by a product
L of two-term factors in one step, through the 2-adic inverse of the odd
part of the packed L.  A two-term factor, an `Atom` ((a1, b1), (a2, b2)) =
q^a1 t^b1 - q^a2 t^b2, is only ever multiplied packed, as one
shift-and-subtract.  Packing is injective on the polynomials that fit its
slots, so a quotient Q with Q * L fitting them and packing to the same int
as N is the exact quotient; anything else raises NotDivisible.
"""

from __future__ import annotations

import sys
from array import array

Expo = tuple[int, int, int]
Atom = tuple[tuple[int, int], tuple[int, int]]  # q^a1 t^b1 - q^a2 t^b2


class NotDivisible(Exception):
    """Exact polynomial division failed; signals an internal computation bug."""


class QTZPoly:
    __slots__ = ("terms",)

    def __init__(self, terms: dict[Expo, object] | None = None, clean: bool = True):
        if terms is None:
            self.terms = {}
        elif clean:
            self.terms = {e: c for e, c in terms.items() if c}
        else:
            self.terms = terms

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> QTZPoly:
        return cls({}, clean=False)

    @classmethod
    def constant(cls, c) -> QTZPoly:
        return cls({(0, 0, 0): c} if c else {}, clean=False)

    @classmethod
    def monomial(cls, dq: int = 0, dt: int = 0, dz: int = 0, coeff=1) -> QTZPoly:
        return cls({(dq, dt, dz): coeff} if coeff else {}, clean=False)

    # -- structure ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = QTZPoly.constant(other)
        if not isinstance(other, QTZPoly):
            return NotImplemented
        return self.terms == other.terms

    def degrees(self) -> tuple[int, int, int]:
        """Componentwise maximal (deg_q, deg_t, deg_z); (0,0,0) for 0."""
        dq = dt = dz = 0
        for (a, b, c) in self.terms:
            dq, dt, dz = max(dq, a), max(dt, b), max(dz, c)
        return dq, dt, dz

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.terms.values())

    def has_nonnegative_coeffs(self) -> bool:
        return all(c > 0 for c in self.terms.values())

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other) -> QTZPoly:
        if isinstance(other, int):
            other = QTZPoly.constant(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
        return QTZPoly(acc, clean=False)

    __radd__ = __add__

    def __neg__(self) -> QTZPoly:
        return QTZPoly({e: -c for e, c in self.terms.items()}, clean=False)

    def __sub__(self, other) -> QTZPoly:
        if isinstance(other, int):
            other = QTZPoly.constant(other)
        return self + (-other)

    def __mul__(self, other) -> QTZPoly:
        if isinstance(other, int):
            if not other:
                return QTZPoly.zero()
            return QTZPoly({e: c * other for e, c in self.terms.items()}, clean=False)
        if not isinstance(other, QTZPoly):
            return NotImplemented
        acc: dict[Expo, object] = {}
        get = acc.get
        for (a1, b1, c1), x1 in self.terms.items():
            for (a2, b2, c2), x2 in other.terms.items():
                e = (a1 + a2, b1 + b2, c1 + c2)
                s = get(e, 0) + x1 * x2
                if s:
                    acc[e] = s
                elif e in acc:
                    del acc[e]
        return QTZPoly(acc, clean=False)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> QTZPoly:
        if k < 0:
            raise ValueError("negative power")
        result = QTZPoly.constant(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- specialization -------------------------------------------------

    def substitute(self, q=None, t=None, z=None) -> QTZPoly:
        """Exact partial evaluation; unset variables stay formal."""
        acc: dict[Expo, object] = {}
        for (a, b, c), x in self.terms.items():
            if q is not None:
                x = x * q**a
                a = 0
            if t is not None:
                x = x * t**b
                b = 0
            if z is not None:
                x = x * z**c
                c = 0
            e = (a, b, c)
            s = acc.get(e, 0) + x
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
        return QTZPoly(acc, clean=False)

    def evaluate(self, q, t, z=1):
        total = 0
        for (a, b, c), x in self.terms.items():
            total += x * q**a * t**b * z**c
        return total

    def swap_qt(self) -> QTZPoly:
        return QTZPoly({(b, a, c): x for (a, b, c), x in self.terms.items()}, clean=False)

    def coefficient_of_z(self, k: int) -> QTZPoly:
        """The z^k slab, as a polynomial in q, t only."""
        return QTZPoly(
            {(a, b, 0): x for (a, b, c), x in self.terms.items() if c == k},
            clean=False,
        )

    def shift_z(self, k: int) -> QTZPoly:
        return QTZPoly(
            {(a, b, c + k): x for (a, b, c), x in self.terms.items()}, clean=False
        )

    # -- text form --------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (a, b, c) in sorted(self.terms, key=lambda e: (e[2], e[0], e[1])):
            coeff = self.terms[(a, b, c)]
            factors = []
            for name, exp in (("z", c), ("q", a), ("t", b)):
                if exp == 1:
                    factors.append(name)
                elif exp > 1:
                    factors.append(f"{name}^{exp}")
            neg = coeff < 0
            mag = -coeff if neg else coeff
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    __repr__ = __str__


ONE = QTZPoly.constant(1)
Q = QTZPoly.monomial(dq=1)
T = QTZPoly.monomial(dt=1)
Z = QTZPoly.monomial(dz=1)


class Kronecker:
    """Integer polynomials in q, t packed into Python ints: t = q^D, q = 2^B.

    Packing evaluates at that point, so sums and products of packed ints are
    packed sums and products.  It is injective on polynomials of q-degree
    < D with coefficients in (-2^(B-1), 2^(B-1)), one balanced digit per
    slot a + D*b, so a result unpacks exactly when it fits; the caller
    guarantees that through `D` and `bound`.  Slots are whole bytes, at most
    8 (6 at n = 8, the delta side's limit), so each slot reads as one signed
    array item and packing and unpacking are linear-time byte conversions.
    A product by q^a t^b is a shift by `shift(a, b)` bits, the one primitive
    of the products by two-term atoms and by the cells of a diagram.
    """

    __slots__ = ("D", "width", "half")

    def __init__(self, D: int, bound: int):
        """Slots for q-degree < D and coefficients of absolute value <= bound;
        raise ValueError for a bound that needs slots wider than 8 bytes."""
        self.D = D
        self.width = (bound.bit_length() + 8) // 8  # bytes, with a spare sign bit
        if self.width > 8:
            raise ValueError(f"a coefficient bound of {bound} needs slots wider than 8 bytes")
        self.half = 1 << (8 * self.width - 1)

    def _bias(self, slots: int) -> int:
        """The packed value with 2^(B-1) in each of `slots` slots."""
        return int.from_bytes(self.half.to_bytes(self.width, "little") * slots, "little")

    def _slot(self, a: int, b: int, c: int = 0) -> int:
        if c or a >= self.D:
            raise ValueError(f"q^{a} t^{b} z^{c} does not fit q-degree < {self.D} without z")
        return a + self.D * b

    def pack(self, p: QTZPoly) -> int:
        """Raise ValueError unless p is integral, free of z and fits the slots."""
        w, half = self.width, self.half
        slots = max((self._slot(*e) + 1 for e in p.terms), default=0)
        buf = bytearray(half.to_bytes(w, "little") * slots)
        for e, x in p.terms.items():
            if not isinstance(x, int) or not -half < x < half:
                raise ValueError(f"coefficient {x} does not fit a {8 * w}-bit slot")
            i = self._slot(*e) * w
            buf[i : i + w] = (x + half).to_bytes(w, "little")
        return int.from_bytes(buf, "little") - self._bias(slots)

    def shift(self, a: int, b: int) -> int:
        """x * pack(q^a t^b) == x << shift(a, b); ValueError unless a < D."""
        return 8 * self.width * self._slot(a, b)

    def atom_shifts(self, atoms: list[Atom]) -> list[tuple[int, int]]:
        """(s1, s2) per atom m1 - m2: x * pack(m1 - m2) == (x << s1) - (x << s2)."""
        return [(self.shift(*m1), self.shift(*m2)) for m1, m2 in atoms]

    def unpack(self, x: int) -> QTZPoly:
        """The polynomial that packs to x, provided one fits the slots."""
        D, w = self.D, self.width
        slots = x.bit_length() // (8 * w) + 1  # a fitting top digit is in the last slot
        bias = self._bias(slots)
        # + bias makes every digit d + 2^(B-1) nonnegative, ^ bias leaves d in
        # two's complement: each slot then reads as a signed w-byte integer
        raw = ((x + bias) ^ bias).to_bytes(slots * w, "little")
        # each slot fills the high end of an array item, which reads as d << pad
        size = min(s for s in _SIGNED_TYPECODES if s >= w)
        buf = bytearray(size * slots)
        for i in range(w):
            buf[size - w + i :: size] = raw[i::w]
        items = array(_SIGNED_TYPECODES[size], buf)
        if sys.byteorder == "big":
            items.byteswap()
        pad = 8 * (size - w)
        digits = [d >> pad for d in items] if pad else items.tolist()
        return QTZPoly({(i % D, i // D, 0): d for i, d in enumerate(digits) if d}, clean=False)


# array typecodes of signed integers by item size in bytes
_SIGNED_TYPECODES = {array(tc).itemsize: tc for tc in "qlihb"}


def l1_norm(p: QTZPoly) -> int:
    return sum(abs(c) for c in p.terms.values())


def _times(x: int, shifts: list[tuple[int, int]]) -> int:
    """x times the packed atoms of `shifts`, one shift-and-subtract per atom."""
    for plus, minus in shifts:
        x = (x << plus) - (x << minus)
    return x


def atom_product(base: QTZPoly, atoms: list[Atom]) -> QTZPoly:
    """base * prod(atoms) for an integer polynomial base in q, t, packed in slots
    for its q-degree deg_q base + sum max(a1, a2) and |.|_1 <= |base|_1 2^len(atoms)."""
    packing = Kronecker(
        1 + base.degrees()[0] + sum(max(m1[0], m2[0]) for m1, m2 in atoms),
        l1_norm(base) << len(atoms),
    )
    return packing.unpack(_times(packing.pack(base), packing.atom_shifts(atoms)))


class PackedDivisor:
    """L = prod(atoms) as `divide_exact` divides by it under one packing.

    It holds ev(L) = 2^s * o with o odd, |L|_1, deg_q L and the 2-adic
    inverse of o, lifted by Newton's iteration only as far as a division
    has asked for.
    """

    __slots__ = ("packing", "shifts", "ev", "s", "odd", "q_degree", "l1", "_inverse", "_bits")

    def __init__(self, packing: Kronecker, atoms: list[Atom]):
        if any(m1 == m2 for m1, m2 in atoms):
            raise ZeroDivisionError("division by zero polynomial")
        self.packing = packing
        self.shifts = packing.atom_shifts(atoms)  # rejects q-degree >= D
        self.ev = _times(1, self.shifts)
        self.s = (self.ev & -self.ev).bit_length() - 1
        self.odd = self.ev >> self.s
        self.q_degree = sum(max(m1[0], m2[0]) for m1, m2 in atoms)
        self.l1 = l1_norm(atom_product(ONE, atoms))
        self._inverse, self._bits = 1, 1  # o * 1 == 1 mod 2

    def inverse(self, k: int) -> int:
        """o^-1 mod 2^k.  Each step x <- x (2 - o x) doubles the precision,
        so the precisions are k, ceil(k/2), ... down to the one held."""
        steps = []
        while k > self._bits:
            steps.append(k)
            k = (k + 1) // 2
        x = self._inverse
        for k in reversed(steps):
            mask = (1 << k) - 1
            x = x * (2 - (self.odd & mask) * x) & mask
        if steps:
            self._inverse, self._bits = x, steps[0]
        return self._inverse


def divide_exact(x: int, divisor: PackedDivisor) -> QTZPoly:
    """Return Q with Q * L == N, where x packs N under divisor.packing, or
    raise NotDivisible.

    x must pack a polynomial N that fits the packing.  With ev(L) = 2^s o,
    o odd, and K = bits(x) - bits(ev L) + 2, a multiple x = ev(Q) ev(L) has
    |ev Q| < 2^(K-1), so ev(Q) is the signed residue of
    (x >> s) * o^-1 mod 2^K: one product with the 2-adic inverse of o.  The
    candidate Q = unpack(q) is certified by two checks: q * ev(L) == x,
    rebuilt as one shift-and-subtract per atom, and deg_q Q + deg_q L < D with
    |Q|_inf * |L|_1 < 2^(B-1).  Then Q * L and N both fit the slots, where
    packing is injective, and pack to the same int, so Q * L == N.  Any
    failed check, a remainder below 2^s included, raises NotDivisible; so
    does a packing too narrow for the true quotient.
    """
    if not x:
        return QTZPoly.zero()
    packing = divisor.packing
    k = x.bit_length() - divisor.ev.bit_length() + 2
    if k < 2:
        raise NotDivisible("the numerator is smaller than the divisor")
    mask = (1 << k) - 1
    q = ((x >> divisor.s) & mask) * divisor.inverse(k) & mask
    if q >> (k - 1):
        q -= 1 << k
    if _times(q, divisor.shifts) != x:
        raise NotDivisible("the 2-adic quotient times the divisor is not the numerator")
    quotient = packing.unpack(q)
    top = max(abs(c) for c in quotient.terms.values())
    if quotient.degrees()[0] + divisor.q_degree >= packing.D or top * divisor.l1 >= packing.half:
        raise NotDivisible("the quotient times the divisor does not fit the packing")
    return quotient
