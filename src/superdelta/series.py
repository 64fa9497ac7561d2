"""Schur expansions of qtz-graded Frobenius characteristics.

A FrobeniusSeries maps partitions of n to polynomials in q, t, z.  Both
sides of the verification produce one, so comparison, specialization and
serialization live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .partitions import Partition, partition_to_str, partitions_of, syt_count
from .qtz import QTZPoly
from .superring import TriDegree


@dataclass
class FrobeniusSeries:
    n: int
    coeffs: dict[Partition, QTZPoly] = field(default_factory=dict)

    def coefficient(self, lam: Partition) -> QTZPoly:
        return self.coeffs.get(lam, QTZPoly.zero())

    def set_coefficient(self, lam: Partition, poly: QTZPoly) -> None:
        if poly.is_zero():
            self.coeffs.pop(lam, None)
        else:
            self.coeffs[lam] = poly

    def __eq__(self, other) -> bool:
        if not isinstance(other, FrobeniusSeries):
            return NotImplemented
        if self.n != other.n:
            return False
        lams = set(self.coeffs) | set(other.coeffs)
        return all(self.coefficient(l) == other.coefficient(l) for l in lams)

    def support(self) -> set[TriDegree]:
        """All (a, b, c) degrees carrying a nonzero multiplicity."""
        degs = set()
        for poly in self.coeffs.values():
            for (a, b, c) in poly.terms:
                degs.add(TriDegree(a, b, c))
        return degs

    def hilbert(self) -> dict[TriDegree, int]:
        """Dimension per tri-degree: sum over lam of multiplicity * f^lam."""
        dims: dict[TriDegree, int] = {}
        for lam, poly in self.coeffs.items():
            f = syt_count(lam)
            for (a, b, c), m in poly.terms.items():
                key = TriDegree(a, b, c)
                dims[key] = dims.get(key, 0) + m * f
        return {d: v for d, v in dims.items() if v}

    def total_dimension(self) -> int:
        """Evaluation at q = t = z = 1 of the Hilbert series."""
        return sum(
            syt_count(lam) * poly.evaluate(1, 1, 1) for lam, poly in self.coeffs.items()
        )

    def specialize(self, q=None, t=None, z=None) -> FrobeniusSeries:
        out = FrobeniusSeries(self.n)
        for lam, poly in self.coeffs.items():
            out.set_coefficient(lam, poly.substitute(q=q, t=t, z=z))
        return out

    def z_slab(self, k: int) -> dict[Partition, QTZPoly]:
        """Coefficient of z^k, per partition, as polynomials in q, t."""
        out = {}
        for lam, poly in self.coeffs.items():
            slab = poly.coefficient_of_z(k)
            if not slab.is_zero():
                out[lam] = slab
        return out

    def is_schur_positive(self) -> bool:
        return all(
            poly.is_integral() and poly.has_nonnegative_coeffs()
            for poly in self.coeffs.values()
        )

    def sorted_partitions(self) -> list[Partition]:
        """Partitions with nonzero coefficient, in reverse lexicographic order."""
        return [lam for lam in partitions_of(self.n) if lam in self.coeffs]

    def pretty_lines(self) -> list[str]:
        return [
            f"s({partition_to_str(lam)}): {self.coeffs[lam]}"
            for lam in self.sorted_partitions()
        ]

    def to_json_dict(self) -> dict:
        return {
            "basis": "s",
            "n": self.n,
            "coeffs": {
                partition_to_str(lam): str(self.coeffs[lam])
                for lam in self.sorted_partitions()
            },
        }
