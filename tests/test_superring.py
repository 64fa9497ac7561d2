import random
from itertools import permutations
from math import comb

from superdelta.coinvariants import spanning_vectors
from superdelta.superring import (
    SuperMonomial,
    TriDegree,
    apply_perm_mono,
    component_dimension,
    compositions,
    enumerate_monomials,
    ideal_generators,
    mono_mul,
    mono_str,
)


def theta(n, *indices):
    return SuperMonomial((0,) * n, (0,) * n, tuple(indices))


def random_monomial(rng, n, maxdeg=2):
    xexp = tuple(rng.randrange(maxdeg + 1) for _ in range(n))
    yexp = tuple(rng.randrange(maxdeg + 1) for _ in range(n))
    th = tuple(sorted(rng.sample(range(1, n + 1), rng.randrange(n + 1))))
    return SuperMonomial(xexp, yexp, th)


def signed_mul(u, v):
    """The product of two signed monomials (sign, m); None when it vanishes."""
    if u is None or v is None:
        return None
    prod = mono_mul(u[1], v[1])
    return None if prod is None else (u[0] * v[0] * prod[0], prod[1])


def act(sigma, u):
    """The signed action on a signed monomial (sign, m); None stays None."""
    if u is None:
        return None
    sign, image = apply_perm_mono(sigma, u[1])
    return (u[0] * sign, image)


def generator_terms(n, degree):
    """The generator of degree (r, s, e): its terms x_i^r y_i^s theta_i^e."""
    r, s, e = degree
    return [
        SuperMonomial(tuple(r if j == i else 0 for j in range(n)),
                      tuple(s if j == i else 0 for j in range(n)),
                      (i + 1,) if e else ())
        for i in range(n)
    ]


def test_mono_mul_theta_signs():
    assert mono_mul(theta(2, 1), theta(2, 2)) == (1, theta(2, 1, 2))
    assert mono_mul(theta(2, 2), theta(2, 1)) == (-1, theta(2, 1, 2))
    assert mono_mul(theta(2, 1), theta(2, 1)) is None


def test_mono_mul_adds_exponents():
    u = SuperMonomial((1, 0), (0, 2), (1,))
    v = SuperMonomial((0, 3), (1, 0), (2,))
    sign, w = mono_mul(u, v)
    assert sign == 1
    assert w == SuperMonomial((1, 3), (1, 2), (1, 2))


def test_apply_perm_examples():
    swap = (2, 1)
    assert apply_perm_mono(swap, theta(2, 1, 2)) == (-1, theta(2, 1, 2))
    x1y2 = SuperMonomial((1, 0), (0, 1), ())
    assert apply_perm_mono(swap, x1y2) == (1, SuperMonomial((0, 1), (1, 0), ()))


def test_generators_invariant_under_all_permutations():
    # the signed action permutes each generator's terms, every sign +1
    for n in range(1, 5):
        for _name, degree in ideal_generators(n):
            terms = {m: 1 for m in generator_terms(n, degree)}
            for sigma in permutations(range(1, n + 1)):
                image = dict(apply_perm_mono(sigma, m)[::-1] for m in terms)
                assert image == terms, (n, degree, sigma)


def test_generator_contents():
    # each generator times 1 is the last spanning vector of its own degree
    for n in range(1, 5):
        for _name, degree in ideal_generators(n):
            monos = enumerate_monomials(n, degree)
            index = {m: i for i, m in enumerate(monos)}
            *_, last = spanning_vectors(n, degree, index)
            assert last == {index[m]: 1 for m in generator_terms(n, degree)}


def test_generator_counts():
    assert ideal_generators(2) == (
        ("p[0,1]", (0, 1, 0)), ("p[1,0]", (1, 0, 0)),
        ("p[0,2]", (0, 2, 0)), ("p[1,1]", (1, 1, 0)), ("p[2,0]", (2, 0, 0)),
        ("pt[0,0]", (0, 0, 1)), ("pt[0,1]", (0, 1, 1)), ("pt[1,0]", (1, 0, 1)),
    )
    for n in range(1, 6):
        gens = ideal_generators(n)
        p_count = sum(1 for name, _ in gens if name.startswith("p["))
        pt_count = sum(1 for name, _ in gens if name.startswith("pt["))
        assert p_count == (n + 1) * (n + 2) // 2 - 1
        assert pt_count == n * (n + 1) // 2
        for name, (r, s, e) in gens:
            assert name == f"{'pt' if e else 'p'}[{r},{s}]"
            assert (0 < r + s <= n) if e == 0 else (e == 1 and r + s < n)
        # each family in (r+s, r) order
        for family in (0, 1):
            keys = [(r + s, r) for _, (r, s, e) in gens if e == family]
            assert keys == sorted(keys)


def test_enumerate_monomials_counts():
    for n in range(1, 5):
        for d in [(0, 0, 0), (1, 0, 1), (2, 1, 0), (1, 1, 2), (0, 3, 1)]:
            deg = TriDegree(*d)
            monos = enumerate_monomials(n, deg)
            a, b, c = d
            expected = (
                comb(a + n - 1, n - 1) * comb(b + n - 1, n - 1) * comb(n, c)
                if c <= n
                else 0
            )
            assert len(monos) == expected == component_dimension(n, deg)
            assert len(set(monos)) == len(monos)
            for m in monos:
                assert m.tri_degree() == deg


def test_enumerate_monomials_examples():
    monos = enumerate_monomials(2, TriDegree(1, 0, 1))
    assert set(monos) == {
        SuperMonomial((1, 0), (0, 0), (1,)),
        SuperMonomial((1, 0), (0, 0), (2,)),
        SuperMonomial((0, 1), (0, 0), (1,)),
        SuperMonomial((0, 1), (0, 0), (2,)),
    }
    assert enumerate_monomials(2, TriDegree(0, 0, 2)) == (theta(2, 1, 2),)
    assert enumerate_monomials(3, TriDegree(0, 0, 4)) == ()


def test_compositions_cover():
    assert list(compositions(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(3, 1)) == [(3,)]


def test_multiplication_associative_and_supercommutative():
    rng = random.Random(20240)
    products = 0
    for n in (2, 3, 4):
        for _ in range(40):
            u, v, w = ((1, random_monomial(rng, n)) for _ in range(3))
            uvw = signed_mul(signed_mul(u, v), w)
            products += uvw is not None
            assert uvw == signed_mul(u, signed_mul(v, w))
    assert products >= 10
    # graded commutativity: u v = (-1)^(c_u c_v) v u on homogeneous theta degrees
    for n in (2, 3):
        for cu in range(n + 1):
            for cv in range(n + 1):
                sign = -1 if (cu * cv) % 2 else 1
                for u in enumerate_monomials(n, TriDegree(1, 0, cu)):
                    for v in enumerate_monomials(n, TriDegree(0, 1, cv)):
                        uv, vu = mono_mul(u, v), mono_mul(v, u)
                        if uv is None:
                            assert vu is None
                        else:
                            assert uv == (sign * vu[0], vu[1])


def test_apply_perm_is_ring_homomorphism():
    rng = random.Random(99)
    products = 0
    for n in (2, 3, 4):
        perms = list(permutations(range(1, n + 1)))
        for _ in range(40):
            u, v = (1, random_monomial(rng, n)), (1, random_monomial(rng, n))
            sigma = rng.choice(perms)
            tau = rng.choice(perms)
            uv = signed_mul(u, v)
            products += uv is not None
            assert act(sigma, uv) == signed_mul(act(sigma, u), act(sigma, v))
            sigma_tau = tuple(sigma[t - 1] for t in tau)  # sigma after tau
            assert act(sigma_tau, u) == act(sigma, act(tau, u))
            assert act(tuple(range(1, n + 1)), u) == u
    assert products >= 30


def test_degree_and_str():
    m = SuperMonomial((2, 0), (0, 1), (1, 2))
    assert mono_str(m) == "x1^2*y2*t12"
    assert m.tri_degree() == TriDegree(2, 1, 2)
    assert mono_str(theta(2)) == "1"
