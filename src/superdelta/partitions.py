"""Integer partitions, Young diagram cell statistics, and permutations.

Partitions are plain tuples of weakly decreasing positive integers; the
empty partition is ().  Cells of the diagram of mu are pairs (row, col)
with row 0 the longest row, so for c = (j, i):

    arm(c)   = mu[j] - i - 1       cells strictly right in the same row
    leg(c)   = #{j' > j : mu[j'] > i}   cells strictly below in the column
    coarm(c) = i,  coleg(c) = j

Permutations on {1..n} are tuples in one-line notation: sigma maps k to
images[k-1].
"""

from __future__ import annotations

from functools import cache
from math import factorial

Partition = tuple[int, ...]
Permutation = tuple[int, ...]


def check_partition(mu: Partition) -> None:
    """Raise ValueError unless mu is weakly decreasing with positive parts."""
    for i, part in enumerate(mu):
        if part <= 0:
            raise ValueError(f"partition parts must be positive: {mu}")
        if i and mu[i - 1] < part:
            raise ValueError(f"partition parts must weakly decrease: {mu}")


def _gen_partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _gen_partitions(n - first, first):
            yield (first,) + rest


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in reverse lexicographic order ((n) first)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(_gen_partitions(n, n))


def conjugate(mu: Partition) -> Partition:
    if not mu:
        return ()
    return tuple(sum(1 for part in mu if part > i) for i in range(mu[0]))


def z_mu(mu: Partition) -> int:
    """Centralizer order prod_i m_i! * i^m_i, m_i = multiplicity of part i."""
    result = 1
    mult: dict[int, int] = {}
    for part in mu:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        result *= factorial(m) * part**m
    return result


def partition_to_str(mu: Partition) -> str:
    """Canonical text form: "3,1"; the empty partition is "-"."""
    return ",".join(str(p) for p in mu) if mu else "-"


def partition_from_str(s: str) -> Partition:
    s = s.strip()
    if s in ("", "-"):
        return ()
    mu = tuple(int(p) for p in s.split(","))
    check_partition(mu)
    return mu


def cells(mu: Partition) -> list[tuple[int, int]]:
    """Diagram cells (row, col), row-major."""
    return [(j, i) for j, part in enumerate(mu) for i in range(part)]


def arm(mu: Partition, j: int, i: int) -> int:
    return mu[j] - i - 1


def leg(mu: Partition, j: int, i: int) -> int:
    return sum(1 for jj in range(j + 1, len(mu)) if mu[jj] > i)


def dominates(lam: Partition, mu: Partition) -> bool:
    """True if lam >= mu in dominance order (equal sizes assumed)."""
    total_l = total_m = 0
    for k in range(max(len(lam), len(mu))):
        total_l += lam[k] if k < len(lam) else 0
        total_m += mu[k] if k < len(mu) else 0
        if total_l < total_m:
            return False
    return True


def hook_lengths(mu: Partition) -> list[int]:
    conj = conjugate(mu)
    return [mu[j] - i + conj[i] - j - 1 for j, i in cells(mu)]


@cache
def syt_count(mu: Partition) -> int:
    """Number of standard Young tableaux of shape mu (hook length formula)."""
    if not mu:
        return 1
    denom = 1
    for h in hook_lengths(mu):
        denom *= h
    return factorial(sum(mu)) // denom


# --- permutations -----------------------------------------------------------


def cycles_of(sigma: Permutation) -> list[list[int]]:
    """Cycle decomposition; each cycle starts at its smallest unseen letter."""
    n = len(sigma)
    seen = [False] * (n + 1)
    result = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        k = sigma[start - 1]
        while k != start:
            cyc.append(k)
            seen[k] = True
            k = sigma[k - 1]
        result.append(cyc)
    return result


def cycle_type(sigma: Permutation) -> Partition:
    return tuple(sorted((len(c) for c in cycles_of(sigma)), reverse=True))


def perm_of_cycle_type(mu: Partition) -> Permutation:
    """Canonical representative: cycles of decreasing length on consecutive letters."""
    images = []
    start = 1
    for part in mu:
        images.extend(range(start + 1, start + part))
        images.append(start)
        start += part
    return tuple(images)
