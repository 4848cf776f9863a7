"""Exact small-field arithmetic: axioms, the distinguished subgroup of
order q-1, and reduction-polynomial handling."""

import itertools
import operator

import pytest
from hypothesis import given, settings, strategies as st

from prophecke.errors import GroupMismatchError
from prophecke.gf import FieldSpec, default_reduction_poly, is_irreducible, is_prime


def poly_mod(a, b, p):
    """Remainder of a by monic b over GF(p), low degree first, trimmed."""
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


def brute_force_irreducible(poly, p):
    """Independent oracle: exhaustive monic trial division over GF(p)."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not poly_mod(list(poly), list(tail) + [1], p):
                return False
    return deg >= 1


def reference_tables(p, m, poly):
    """Independent oracle for the field tables: coordinates added mod p,
    and one polynomial multiply-and-reduce by poly per product entry."""
    n = p**m

    def idx(cs):
        v = 0
        for c in reversed(cs):
            v = v * p + c
        return v

    coeffs = [[(i // p**k) % p for k in range(m)] for i in range(n)]
    neg = [idx([-c % p for c in cs]) for cs in coeffs]
    add = [[idx([(a + b) % p for a, b in zip(ci, cj)]) for cj in coeffs] for ci in coeffs]
    mul = []
    for ci in coeffs:
        row = []
        for cj in coeffs:
            prod = [0] * (2 * m - 1)
            for i, a in enumerate(ci):
                if a:
                    for j, b in enumerate(cj):
                        prod[i + j] += a * b
            row.append(idx(poly_mod(prod, list(poly), p)))
        mul.append(row)
    inv = [0] + [mul[i].index(1) for i in range(1, n)]
    return add, neg, mul, inv


def reference_order(mul, i):
    """Multiplicative order of index i by repeated multiplication."""
    k, acc = 1, i
    while acc != 1:
        acc = mul[acc][i]
        k += 1
    return k


# Every prime power p^m <= 256 with m >= 2, the primes <= 31 and 251, and
# GF(9) and GF(16) under each of their monic irreducible reduction polys.
ORACLE_FIELDS = (
    [(p, m, None) for p in (2, 3, 5, 7, 11, 13) for m in range(2, 9) if p**m <= 256]
    + [(p, 1, None) for p in range(2, 32) if is_prime(p)]
    + [(251, 1, None)]
    + [
        (p, m, tuple(tail) + (1,))
        for p, m in ((3, 2), (2, 4))
        for tail in itertools.product(range(p), repeat=m)
        if brute_force_irreducible(tail + (1,), p)
    ]
)


@pytest.mark.parametrize("p,m,poly", ORACLE_FIELDS)
def test_tables_match_polynomial_oracle(p, m, poly):
    k = FieldSpec(p, 1, m, poly)
    add, neg, mul, inv = reference_tables(p, m, k.poly)
    assert k._add == add
    assert k._neg == neg
    assert k._mul == mul
    assert k._inv == inv
    n = p**m
    orders = [None] + [reference_order(mul, i) for i in range(1, n)]
    assert [k.multiplicative_order(x) for x in list(k.elements())[1:]] == orders[1:]
    # generator(): the smallest coefficient tuple of order n - 1
    gen = min((i for i in range(1, n) if orders[i] == n - 1), key=lambda i: k._elts[i].coeffs)
    assert k.generator().i == gen
    # zeta_q(): generator ** ((n - 1) / (q - 1)), for every subfield F_q
    for f in (d for d in range(1, m + 1) if m % d == 0):
        z = 1
        for _ in range((n - 1) // (p**f - 1)):
            z = mul[z][gen]
        assert FieldSpec(p, f, m, poly).zeta_q().i == z


def blockwise_tables(p, m, poly):
    """Second oracle, fast enough for fields past ORACLE_FIELDS' cap:
    addition extended by one base-p digit at a time from digit blocks,
    and multiplication as exp[log a + log b] over the powers of the
    smallest generator by index (any generator gives the same table)."""
    n, digits = p**m, range(p)
    add, neg = [[0]], [0]
    for _ in range(m):
        blocks = [
            [[p * s + (lo + d) % p for d in digits] for s in range(len(neg))]
            for lo in digits
        ]
        add = [
            list(itertools.chain.from_iterable(map(blocks[lo].__getitem__, prev)))
            for prev in add
            for lo in digits
        ]
        neg = [p * s + (-lo) % p for s in neg for lo in digits]
    top = n // p
    carry = [sum((-t * c) % p * p**k for k, c in enumerate(poly[:m])) for t in digits]
    times_x = [add[p * (i % top)][carry[i // top]] for i in range(n)]
    for g in range(1, n):
        times_g = [0]
        for a in range(1, n):
            times_g.append(add[times_g[-1]][g] if a % p else times_x[times_g[a // p]])
        exp, cur = [1], g
        while cur != 1:
            exp.append(cur)
            cur = times_g[cur]
        if len(exp) == n - 1:
            break
    log = [0] * n
    for k, e in enumerate(exp):
        log[e] = k
    exp2, logs = exp + exp, log[1:]
    mul = [[0] * n] + [[0, *map(exp2[la : la + n - 1].__getitem__, logs)] for la in logs]
    inv = [0] + [exp[-la % (n - 1)] for la in logs]
    return add, neg, mul, inv


@pytest.mark.parametrize("p,m", [(2, 9), (2, 10), (3, 6), (5, 4), (7, 3)])
def test_tables_match_blockwise_oracle(p, m):
    """Fields above ORACLE_FIELDS' cap, where the build gathers through
    more step rows and walks longer powers of the generator."""
    k = FieldSpec(p, 1, m)
    add, neg, mul, inv = blockwise_tables(p, m, k.poly)
    assert k._add == add
    assert k._neg == neg
    assert k._mul == mul
    assert k._inv == inv


def test_is_irreducible_at_degrees_one_and_two():
    """x is irreducible, so GF(p) keeps the polynomial x; at degree 2 and
    up a zero constant term means x divides the polynomial."""
    for p in (2, 3, 5):
        assert is_irreducible([0, 1], p)
        assert default_reduction_poly(p, 1) == (0, 1)
    assert not is_irreducible([0, 1, 1], 2)
    assert not is_irreducible([0, 0, 1], 3)
    assert is_irreducible([1, 1, 1], 2)


def test_is_irreducible_trims_trailing_zeros():
    """Trailing zero coefficients do not change the polynomial: the degree
    and the leading coefficient are both read after trimming."""
    assert is_irreducible([1, 1, 0], 2)  # x + 1
    assert is_irreducible([0, 1, 0], 3)  # x
    assert is_irreducible([1, 1, 1, 0, 0], 2)  # x^2 + x + 1
    assert is_irreducible([1, 0, 1, 3], 3)  # x^2 + 1, once 3 is reduced
    assert not is_irreducible([1, 0, 1, 0], 2)  # (x + 1)^2
    assert not is_irreducible([0, 1, 1, 0], 2)  # x (x + 1)
    assert not is_irreducible([0, 0], 5) and not is_irreducible([2, 5], 5)
    for poly, p in [([1, 1, 1], 2), ([1, 0, 1], 3), ([2, 1, 1], 5)]:
        assert is_irreducible(poly + [0, 0], p) == is_irreducible(poly, p)


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


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1023), st.integers(0, 1023), st.integers(0, 1023))
def test_axioms_gf1024(i, j, l):
    k = _gf1024()
    a, b, c = k._elts[i], k._elts[j], k._elts[l]
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    assert a + (-a) == k.zero()
    if not a.is_zero():
        assert a * a ** (-1) == k.one()
        assert (b / a) * a == b


def _gf1024(cache=[]):
    if not cache:
        cache.append(FieldSpec(2, 1, 10))
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


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (3, 2), (2, 4), (7, 1)])
def test_pow_matches_repeated_multiplication(p, m):
    """a ** n for n in -6..13 against n factors of a (of a^-1 when n < 0);
    0 ** 0 is 1, 0 ** n is 0 for n > 0, and 0 ** n raises for n < 0."""
    k = FieldSpec(p, 1, m)
    for a in k.elements():
        for n in range(-6, 14):
            if a.is_zero() and n < 0:
                with pytest.raises(ZeroDivisionError):
                    a**n
                continue
            base = a if n >= 0 else k.one() / a
            acc = k.one()
            for _ in range(abs(n)):
                acc = acc * base
            assert a**n is acc, (a, n)


@pytest.mark.parametrize("n", [True, False, 1.5, 2.0, "2", None])
def test_pow_rejects_a_non_integer_exponent(n):
    with pytest.raises(ValueError, match="exponent must be an integer"):
        FieldSpec(3, 1, 2).one() ** n


def test_arithmetic_rejects_a_foreign_field():
    """+, -, * and / take an element of the same field or of an equal one;
    GF(4)'s x (order 3) is not GF(16)'s x (order 15), and a GF(16) index
    is past the end of GF(4)'s tables."""
    big, small = FieldSpec(2, 2, 4), FieldSpec(2, 2, 2)
    for a, b in [(big.elt([0, 1]), small.elt([0, 1])),
                 (small.elt([0, 1]), big.elt([0, 0, 1]))]:
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(GroupMismatchError):
                op(a, b)
    twin = FieldSpec(2, 2, 4)
    x, y = big.elt([0, 1]), twin.elt([1, 1])
    assert x + y == big.elt([1, 0]) and x - y == x + y
    assert x * y == big.elt([0, 1, 1]) and (x * y) / y == x
    assert (x + y).field is big


def test_elt_takes_an_element_of_an_equal_field():
    """FieldSpec.elt follows the arithmetic's rule: an element of the same
    field or of an equal one is read as this field's element, and an
    element of any other field raises."""
    a, b = FieldSpec(3), FieldSpec(3)
    assert a.elt(b.one()) is a.one() and a.elt(a.one()) is a.one()
    assert b.elt(a.from_int(2)).field is b
    big, small = FieldSpec(2, 2, 4), FieldSpec(2, 2, 2)
    for k, x in [(big, small.elt([0, 1])), (small, big.elt([0, 0, 1]))]:
        with pytest.raises(GroupMismatchError):
            k.elt(x)


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


@pytest.mark.parametrize(
    "p,f,m", [(2, 1, 1), (3, 1, 2), (3, 2, 2), (5, 1, 1), (2, 2, 4), (2, 2, 10), (2, 5, 10)]
)
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
    for p, m in [(p, m) for p in (2, 3, 5, 7, 11, 13) for m in range(2, 9) if p**m <= 256]:
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


@pytest.mark.parametrize("bad", [2.5, "1", [1.5], [None], {1: 2}, [True], True],
                         ids=["float", "str", "float list", "None list", "dict", "bool list",
                              "bool"])
def test_elt_rejects_non_integer_coefficients(bad):
    """FieldSpec.elt, which reads every scalar of H and E, names what it
    cannot read instead of failing inside the digit loop or reading a
    dict's keys."""
    with pytest.raises(TypeError, match="cannot use"):
        FieldSpec(3, 1, 2).elt(bad)


def test_elt_rejects_too_many_coefficients():
    with pytest.raises(ValueError, match="too many coefficients"):
        FieldSpec(3, 1, 2).elt([1, 2, 0])


def test_zero_has_no_multiplicative_order():
    k = FieldSpec(3, 1, 2)
    with pytest.raises(ZeroDivisionError, match="0 has no multiplicative order"):
        k.multiplicative_order(k.zero())


def test_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(4)  # not prime
    with pytest.raises(ValueError):
        FieldSpec(3, 2, 3)  # f does not divide m
    with pytest.raises(ValueError):
        FieldSpec(3, 0)


@pytest.mark.parametrize(
    "args,name",
    [
        (("3",), "p"),
        ((True,), "p"),
        ((3.0,), "p"),
        ((5, None), "f"),
        ((5, True), "f"),
        ((3, 1, 2.0), "m"),
        ((3, 1, "2"), "m"),
        ((3, 1, 2, [1, 0.5, 1]), "poly"),
        ((3, 1, 2, [1, False, 1]), "poly"),
        ((3, 1, 2, "101"), "poly"),
        ((3, 1, 2, 7), "poly"),
    ],
)
def test_spec_rejects_non_int_arguments(args, name):
    with pytest.raises(ValueError, match=f"field {name} must be"):
        FieldSpec(*args)


@pytest.mark.parametrize(
    "data,match",
    [
        ({}, "field p is missing"),
        ({"f": 1}, "field p is missing"),
        ([], "field must be a JSON object"),
        ("GF(3)", "field must be a JSON object"),
        (None, "field must be a JSON object"),
        ({"p": 5, "f": None}, "field f must be"),
        ({"p": "5"}, "field p must be"),
        ({"p": 3, "m": 2, "poly": [1, 0.5, 1]}, "field poly must be"),
    ],
)
def test_from_json_rejects_malformed_field(data, match):
    with pytest.raises(ValueError, match=match):
        FieldSpec.from_json(data)


def test_from_json_null_m_means_m_equals_f():
    assert FieldSpec.from_json({"p": 5, "f": 1, "m": None}) == FieldSpec(5)


def test_json_round_trip_records_default_poly():
    k = FieldSpec(3, 1, 2)
    data = k.to_json()
    assert data["poly"] == [1, 0, 1]  # the lex-smallest irreducible
    k2 = FieldSpec.from_json(data)
    assert k2 == k

