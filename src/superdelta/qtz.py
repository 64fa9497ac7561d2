"""Sparse exact polynomials in q, t, z.

Terms are dicts mapping exponent triples (dq, dt, dz) to nonzero exact
coefficients (int where integral, RAT otherwise).  The fixed term order is
graded lexicographic with q > t > z.  Two tools serve sums of long products
in q, t: `Kronecker` packs integer polynomials into Python ints, where a
product is one big-int multiplication, and `divide_exact` divides by
two-term factors `m1 - m2`, one pass each, raising NotDivisible when the
quotient is not a polynomial.
"""

from __future__ import annotations

from .rationals import RAT, normalize_scalar

Expo = tuple[int, int, int]

_SCALAR_TYPES = (int, type(RAT(1)))


class NotDivisible(Exception):
    """Exact polynomial division failed; signals an internal computation bug."""


def _grlex(e: Expo):
    return (e[0] + e[1] + e[2], e)


class QTZPoly:
    __slots__ = ("terms",)

    def __init__(self, terms: dict[Expo, object] | None = None, clean: bool = True):
        if terms is None:
            self.terms = {}
        elif clean:
            self.terms = {}
            for e, c in terms.items():
                c = normalize_scalar(c)
                if c:
                    self.terms[e] = c
        else:
            self.terms = terms

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> QTZPoly:
        return cls({}, clean=False)

    @classmethod
    def constant(cls, c) -> QTZPoly:
        c = normalize_scalar(c)
        return cls({(0, 0, 0): c} if c else {}, clean=False)

    @classmethod
    def monomial(cls, dq: int = 0, dt: int = 0, dz: int = 0, coeff=1) -> QTZPoly:
        coeff = normalize_scalar(coeff)
        return cls({(dq, dt, dz): coeff} if coeff else {}, clean=False)

    # -- structure ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, _SCALAR_TYPES):
            other = QTZPoly.constant(other)
        if not isinstance(other, QTZPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((e, str(c)) for e, c in self.terms.items()))

    def leading_exponent(self) -> Expo:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=_grlex)

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

    def constant_term(self):
        return self.terms.get((0, 0, 0), 0)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other) -> QTZPoly:
        if isinstance(other, _SCALAR_TYPES):
            other = QTZPoly.constant(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            s = acc.get(e, 0) + c
            if s:
                acc[e] = normalize_scalar(s)
            elif e in acc:
                del acc[e]
        return QTZPoly(acc, clean=False)

    __radd__ = __add__

    def __neg__(self) -> QTZPoly:
        return QTZPoly({e: -c for e, c in self.terms.items()}, clean=False)

    def __sub__(self, other) -> QTZPoly:
        if isinstance(other, _SCALAR_TYPES):
            other = QTZPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> QTZPoly:
        return (-self) + other

    def __mul__(self, other) -> QTZPoly:
        if isinstance(other, _SCALAR_TYPES):
            other = normalize_scalar(other)
            if not other:
                return QTZPoly.zero()
            return QTZPoly(
                {e: normalize_scalar(c * other) for e, c in self.terms.items()},
                clean=False,
            )
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
        for e, c in acc.items():
            acc[e] = normalize_scalar(c)
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
                acc[e] = normalize_scalar(s)
            elif e in acc:
                del acc[e]
        return QTZPoly(acc, clean=False)

    def evaluate(self, q, t, z=1):
        total = 0
        for (a, b, c), x in self.terms.items():
            total += x * q**a * t**b * z**c
        return normalize_scalar(total)

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


def poly_from_str(s: str) -> QTZPoly:
    """Parse the report text form back into a polynomial."""
    from .rationals import scalar_from_str

    s = s.strip()
    if s in ("", "0"):
        return QTZPoly.zero()
    s = s.replace("- ", "-").replace("+ ", "+").replace(" ", "")
    chunks = []
    current = ""
    for ch in s:
        if ch in "+-" and current and current[-1] not in "+-/^*":
            chunks.append(current)
            current = ch if ch == "-" else ""
        else:
            current += ch
    chunks.append(current)
    acc = QTZPoly.zero()
    for chunk in chunks:
        chunk = chunk.lstrip("+")
        sign = 1
        while chunk.startswith("-"):
            sign = -sign
            chunk = chunk[1:]
        coeff = sign
        dq = dt = dz = 0
        for factor in chunk.split("*"):
            if not factor:
                continue
            if factor[0] in "qtz":
                name, _, exp = factor.partition("^")
                e = int(exp) if exp else 1
                if name == "q":
                    dq += e
                elif name == "t":
                    dt += e
                elif name == "z":
                    dz += e
                else:
                    raise ValueError(f"unknown variable {name!r}")
            else:
                coeff = coeff * scalar_from_str(factor)
        acc = acc + QTZPoly.monomial(dq, dt, dz, coeff)
    return acc


class Kronecker:
    """Integer polynomials in q, t packed into Python ints: t = q^D, q = 2^B.

    Packing evaluates at that point, so sums and products of packed ints are
    packed sums and products.  It is injective on polynomials of q-degree
    < D with coefficients in (-2^(B-1), 2^(B-1)), one balanced digit per
    slot a + D*b, so a result unpacks exactly when it fits; the caller
    guarantees that through `D` and `bound`.  Slots are whole bytes, which
    makes packing and unpacking linear-time byte conversions.
    """

    __slots__ = ("D", "width", "half")

    def __init__(self, D: int, bound: int):
        """Slots for q-degree < D and coefficients of absolute value <= bound."""
        self.D = D
        self.width = (bound.bit_length() + 8) // 8  # bytes, with a spare sign bit
        self.half = 1 << (8 * self.width - 1)

    def _bias(self, slots: int) -> int:
        """The packed value with 2^(B-1) in each of `slots` slots."""
        return int.from_bytes(self.half.to_bytes(self.width, "little") * slots, "little")

    def pack(self, p: QTZPoly) -> int:
        """Raise ValueError unless p is integral, free of z and fits the slots."""
        D, w, half = self.D, self.width, self.half
        slots = max((a + D * b + 1 for a, b, _ in p.terms), default=0)
        buf = bytearray(half.to_bytes(w, "little") * slots)
        for (a, b, c), x in p.terms.items():
            if c or a >= D:
                raise ValueError(f"q^{a} t^{b} z^{c} does not fit q-degree < {D} without z")
            if not isinstance(x, int) or not -half < x < half:
                raise ValueError(f"coefficient {x} does not fit a {8 * w}-bit slot")
            i = (a + D * b) * w
            buf[i : i + w] = (x + half).to_bytes(w, "little")
        return int.from_bytes(buf, "little") - self._bias(slots)

    def unpack(self, x: int) -> QTZPoly:
        """The polynomial that packs to x, provided one fits the slots."""
        D, w, half = self.D, self.width, self.half
        slots = x.bit_length() // (8 * w) + 1  # a fitting top digit is in the last slot
        raw = (x + self._bias(slots)).to_bytes(slots * w, "little")
        digits = (int.from_bytes(raw[i : i + w], "little") - half for i in range(0, len(raw), w))
        return QTZPoly({(i % D, i // D, 0): c for i, c in enumerate(digits) if c}, clean=False)


def divide_exact(num: QTZPoly, *atoms: QTZPoly) -> QTZPoly:
    """Return p in q, t with p * prod(atoms) == num, or raise NotDivisible.

    Each atom is a difference m1 - m2 of two monomials in q, t, so with
    d = m1 - m2 the quotient by it satisfies p[f] = num[f + m1] + p[f + d]:
    one pass along each chain f, f - d, f - 2d, ... of the dense coefficient
    grid divides by it, a whole row of the grid per step.  The division is
    exact when no nonzero carry leaves the positive quadrant or runs off the
    bottom of its chain.
    """
    dq, dt, dz = num.degrees()
    if dz:
        raise ValueError(f"dividend must not involve z, got {num}")
    width, height = dq + 1, dt + 1
    rows = [[0] * width for _ in range(height)]
    for (a, b, _), x in num.terms.items():
        rows[b][a] = x
    for atom in atoms:
        if atom.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        signs = {x: e for e, x in atom.terms.items()}
        if len(atom.terms) != 2 or set(signs) != {1, -1} or signs[1][2] or signs[-1][2]:
            raise ValueError(f"divisor must be m1 - m2 for monomials in q, t, got {atom}")
        rows, width, height = _divide_grid(rows, width, height, signs[1], signs[-1])
    terms = {(a, b, 0): x for b, row in enumerate(rows) for a, x in enumerate(row) if x}
    return QTZPoly(terms)


def _divide_grid(rows, width, height, m1, m2):
    """One exact division of a coefficient grid rows[t][q] by m1 - m2."""
    dq, dt = m1[0] - m2[0], m1[1] - m2[1]
    if dt:  # rows[b] += rows[b + dt] shifted by dq, walking down the chains
        for b in range(height - 1 - dt, -1, -1) if dt > 0 else range(-dt, height):
            above = rows[b + dt]
            shifted = above[dq:] if dq >= 0 else [0] * -dq + above[: max(width + dq, 0)]
            rows[b] = [x + y for x, y in zip(rows[b], shifted)] + rows[b][len(shifted):]
    else:
        for row in rows:
            for a in range(width - 1 - dq, -1, -1) if dq > 0 else range(-dq, width):
                row[a] += row[a + dq]
    # the grid now holds p[f] at f + m1; a carry elsewhere is a remainder
    top_q, top_t = min(width, width + dq), min(height, height + dt)
    for b, row in enumerate(rows):
        if any(row[: m1[0]]) or any(row[top_q:]) or (any(row) and not m1[1] <= b < top_t):
            raise NotDivisible(f"nonzero carry off the quotient's grid at t^{b}")
    rows = [row[m1[0] : top_q] for row in rows[m1[1] : top_t]]
    return rows, max(top_q - m1[0], 0), max(top_t - m1[1], 0)
