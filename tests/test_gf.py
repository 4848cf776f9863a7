"""Exact small-field arithmetic: axioms, the distinguished subgroup of
order q-1, and reduction-polynomial handling."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from prophecke.gf import FieldSpec, default_reduction_poly


def brute_force_irreducible(poly, p):
    """Independent oracle: exhaustive monic trial division over GF(p)."""

    def poly_mod(a, b):
        a = [x % p for x in a]
        while a and a[-1] == 0:
            a.pop()
        db = len(b) - 1
        while len(a) - 1 >= db:
            lead, shift = a[-1], len(a) - 1 - db
            for i in range(db + 1):
                a[shift + i] = (a[shift + i] - lead * b[i]) % p
            while a and a[-1] == 0:
                a.pop()
        return a

    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not poly_mod(list(poly), list(tail) + [1]):
                return False
    return deg >= 1


def test_gf3_two_times_two():
    k = FieldSpec(3)
    assert k.from_int(2) * k.from_int(2) == k.one()


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (7, 1)])
def test_axioms_exhaustive(p, m):
    k = FieldSpec(p, 1, m)
    els = list(k.elements())
    zero, one = k.zero(), k.one()
    for a in els:
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        acc = zero
        for _ in range(p):
            acc = acc + a
        assert acc == zero  # characteristic p
    for a in els:
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
            for c in els:
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 80))
def test_axioms_gf81(i, j, l):
    k = _gf81()
    a, b, c = k._elts[i], k._elts[j], k._elts[l]
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)


def _gf81(cache=[]):
    if not cache:
        cache.append(FieldSpec(3, 1, 4))
    return cache[0]


def test_inverses_and_division():
    k = FieldSpec(3, 1, 2)
    for a in k.elements():
        assert a**4 == a * a * a * a
        for b in k.elements():
            assert a - b == a + (-b) and (a - b) + b == a
            if not b.is_zero():
                assert a / b == a * b ** (-1) and (a / b) * b == a
        if a.is_zero():
            continue
        assert a / a == k.one()
        assert a * a ** (-1) == k.one()
    with pytest.raises(ZeroDivisionError):
        k.one() / k.zero()
    with pytest.raises(ZeroDivisionError):
        k.zero() ** (-1)


def test_zeta_orders():
    # q = 3: the unique element of order 2
    assert FieldSpec(3).zeta_q() == FieldSpec(3).from_int(2)
    # q = 5: exhaustive oracle over GF(5)^x
    k5 = FieldSpec(5)
    z = k5.zeta_q()
    assert z ** 4 == k5.one() and z ** 2 != k5.one()
    # q = 3 inside GF(9): the unique order-2 element, i.e. -1
    k9 = FieldSpec(3, 1, 2)
    z9 = k9.zeta_q()
    assert z9 == -k9.one()
    assert k9.multiplicative_order(z9) == 2


@pytest.mark.parametrize("p,f,m", [(2, 1, 1), (3, 1, 2), (3, 2, 2), (5, 1, 1), (2, 2, 4)])
def test_zeta_exact_order(p, f, m):
    k = FieldSpec(p, f, m)
    z = k.zeta_q()
    q = p**f
    if q == 2:
        assert z == k.one()
        return
    assert k.multiplicative_order(z) == q - 1
    for d in range(1, q - 1):
        if (q - 1) % d == 0 and d < q - 1:
            assert z**d != k.one()


def test_default_poly_is_lex_smallest_irreducible():
    # every smaller coefficient tuple must be reducible, by the oracle
    for p, m in [(2, 2), (3, 2), (2, 3), (5, 2)]:
        poly = default_reduction_poly(p, m)
        assert brute_force_irreducible(poly, p)
        tail = poly[:-1]
        for cand in itertools.product(range(p), repeat=m):
            if cand >= tail:
                break
            assert not brute_force_irreducible(list(cand) + [1], p)


def test_reduction_poly_validation():
    # x^2 + 1 over GF(3): no roots (oracle), hence irreducible: accepted
    assert brute_force_irreducible([1, 0, 1], 3)
    k = FieldSpec(3, 1, 2, reduction_poly=[1, 0, 1])
    x = k.elt([0, 1])
    assert x * x == -k.one()
    # x^2 + 1 over GF(5) factors (roots 2 and 3): rejected
    assert not brute_force_irreducible([1, 0, 1], 5)
    with pytest.raises(ValueError):
        FieldSpec(5, 1, 2, reduction_poly=[1, 0, 1])
    # x^2 - 1 over GF(3) factors
    with pytest.raises(ValueError):
        FieldSpec(3, 1, 2, reduction_poly=[2, 0, 1])


def test_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(4)  # not prime
    with pytest.raises(ValueError):
        FieldSpec(3, 2, 3)  # f does not divide m
    with pytest.raises(ValueError):
        FieldSpec(3, 0)


def test_json_round_trip_records_default_poly():
    k = FieldSpec(3, 1, 2)
    data = k.to_json()
    assert data["poly"] == [1, 0, 1]  # the lex-smallest irreducible
    k2 = FieldSpec.from_json(data)
    assert k2 == k

