"""Exact arithmetic in small finite fields k = GF(p^m).

An element is stored as an integer index 0 <= i < p^m whose base-p
digits (least significant first) are the coordinates in the power basis
of the reduction polynomial.  All field operations are table lookups,
which keeps the desk-scale algebra kernels cheap.  _add and _mul are
lists of n = p^m rows, and each row is built on its first read: a
FieldSpec builds O(n) data, namely the identity and zero rows, the
exp/log tables, _inv, the row of -1 (_neg), one step row per digit
and the few addition rows its generator search reads, in O(n)
Python-level steps per digit and per generator candidate.  Every other
slot holds a placeholder whose first index read builds the row in
C-level passes and stores the plain list in its slot, so a later read
is an exact-list subscript.  Row x of the addition table is row x - p^j
gathered through the step row that moves digit j up by one, for j the
lowest nonzero base-p digit of x, building the rows of that chain not
yet built; row c of the multiplication table is a slice of exp + exp
read at the logs.  Memory grows with the rows read: after its build,
GF(2^8) holds 10 of its 512 rows.

The algebra kernels of hecke and topmod keep coefficients as bare
indices and read the tables (_add, _mul, _neg) directly; FieldElt is the
boundary type, for constructing scalars, returning them from functions
such as pairings and character values, and printing them.  Its +, -, *
and /, and FieldSpec.elt, take an element of the same field or of an
equal one, and raise GroupMismatchError for an element of any other
field, whose index would name a different element or none.

Alongside the field itself we fix the distinguished subfield F_q
(q = p^f with f | m) and the element zeta of exact multiplicative order
q - 1 used as the value generator for torus characters.
"""

from __future__ import annotations

from itertools import product as _iproduct
from math import gcd
from operator import itemgetter as _getter

from .errors import GroupMismatchError, TheoremViolationError, UnsupportedFieldError

# Read in full, the addition and multiplication tables hold n^2 entries
# each for a field of order n; this library targets desk scale.
_MAX_ORDER = 4096


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a, b, p):
    """Remainder of a by monic b, coefficients mod p, low degree first."""
    a = [x % p for x in a]
    db = len(_poly_trim(b)) - 1
    a = _poly_trim(a)
    while len(a) - 1 >= db:
        lead = a[-1]
        shift = len(a) - 1 - db
        for i in range(db + 1):
            a[shift + i] = (a[shift + i] - lead * b[i]) % p
        a = _poly_trim(a)
    return a


def is_irreducible(poly, p: int) -> bool:
    """Exhaustive trial division by every monic polynomial of degree
    1..deg/2 over GF(p).  Only sensible for the small degrees used here.
    Coefficients are reduced mod p and trailing zeros trimmed first, so
    [1, 1, 0] is x + 1.
    From degree 2 on, a zero constant term means x divides poly, which is
    refused before any division; x itself is irreducible."""
    poly = _poly_trim(c % p for c in poly)
    deg = len(poly) - 1
    if deg <= 0:
        return False
    if deg >= 2 and poly[0] == 0:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in _iproduct(range(p), repeat=d):
            divisor = list(tail) + [1]
            if not _poly_mod(poly, divisor, p):
                return False
    return True


def default_reduction_poly(p: int, m: int):
    """Lexicographically smallest irreducible monic polynomial of degree m.

    Coefficient tuples (c_0, ..., c_{m-1}) of x^m + sum c_i x^i are
    scanned in lexicographic order, so the choice is deterministic and
    reproducible across runs.
    """
    for tail in _iproduct(range(p), repeat=m):
        poly = list(tail) + [1]
        if is_irreducible(poly, p):
            return tuple(poly)
    raise ValueError(f"no irreducible polynomial of degree {m} over GF({p})")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _int_vector(v, n: int) -> bool:
    """Whether v is a list or tuple of n integers."""
    return isinstance(v, (list, tuple)) and len(v) == n and all(map(_is_int, v))


def _check_int(what: str, v, low: int | None = None) -> int:
    """v, when it is an integer at least low (when given); a bool, a
    non-int or a smaller value raises a ValueError naming what."""
    if not _is_int(v) or (low is not None and v < low):
        need = "an integer" if low is None else f"an integer >= {low}"
        raise ValueError(f"{what} must be {need}, got {v!r}")
    return v


class _Row(list):
    """Placeholder for an unbuilt table row.  Its len() is 0, so it counts
    no entry.  An index read calls build(x), which makes row x on the
    first call, stores the plain list in the row's slot and returns it,
    so a caller still holding the placeholder reads correct values."""

    __slots__ = ("build", "x")

    def __init__(self, build, x: int):
        self.build, self.x = build, x

    def __getitem__(self, i):
        return self.build(self.x)[i]


class FieldElt:
    """Element of a FieldSpec; interned per field, value semantics."""

    __slots__ = ("field", "i")

    def __init__(self, field: "FieldSpec", i: int):
        self.field = field
        self.i = i

    @property
    def coeffs(self):
        """Coordinates in the power basis, low degree first, length m."""
        p, m, i = self.field.p, self.field.m, self.i
        out = []
        for _ in range(m):
            out.append(i % p)
            i //= p
        return tuple(out)

    def is_zero(self) -> bool:
        return self.i == 0

    def _index(self, other) -> int:
        """other's index in the tables, when other is an element of this
        field or of an equal one (the rule __eq__ uses); an element of
        another field raises a GroupMismatchError."""
        if other.field is not self.field and other.field != self.field:
            raise GroupMismatchError(f"{other!r} of {other.field!r} used with {self.field!r}")
        return other.i

    def __add__(self, other):
        return self.field._elts[self.field._add[self.i][self._index(other)]]

    def __sub__(self, other):
        return self.field._elts[self.field._add[self.i][self.field._neg[self._index(other)]]]

    def __neg__(self):
        return self.field._elts[self.field._neg[self.i]]

    def __mul__(self, other):
        return self.field._elts[self.field._mul[self.i][self._index(other)]]

    def __truediv__(self, other):
        j = self._index(other)
        if j == 0:
            raise ZeroDivisionError("division by zero in GF(p^m)")
        return self.field._elts[self.field._mul[self.i][self.field._inv[j]]]

    def __pow__(self, n: int):
        """self ** n read off the log table: g^(log(self) * n mod (order - 1));
        0 ** 0 is 1, 0 ** n is 0 for n > 0, and a negative n raises
        ZeroDivisionError on 0."""
        f = self.field
        _check_int("exponent", n)
        if self.i == 0:
            if n < 0:
                raise ZeroDivisionError("0 has no inverse")
            return f._elts[0 if n else 1]
        return f._elts[f._exp[f._log[self.i] * n % (f.order - 1)]]

    def __eq__(self, other):
        return (
            isinstance(other, FieldElt)
            and self.i == other.i
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self):
        return hash((self.field._key, self.i))

    def __repr__(self):
        cs = self.coeffs
        if self.field.m == 1:
            return str(cs[0])
        return "(" + ",".join(map(str, cs)) + ")"


class FieldSpec:
    """k = GF(p^m) containing F_q, q = p^f, with f | m.

    The reduction polynomial defaults to the lexicographically smallest
    irreducible monic of degree m over GF(p); whatever is used is kept on
    the spec and echoed into every JSON export.
    """

    def __init__(self, p: int, f: int = 1, m: int | None = None, reduction_poly=None):
        _check_int("field p", p)
        _check_int("field f", f)
        if m is None:
            m = f
        _check_int("field m", m)
        if f < 1:
            raise ValueError("f must be >= 1")
        if m < 1 or m % f != 0:
            raise UnsupportedFieldError(
                f"f = {f} must divide m = {m} so that F_q embeds in GF(p^m)"
            )
        # Bounded before the primality scan and the power, which a large p
        # or m would make run without end.
        if p > _MAX_ORDER or m >= _MAX_ORDER.bit_length() or p**m > _MAX_ORDER:
            raise ValueError(f"field of order {p}^{m} exceeds desk scale")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        self.p, self.f, self.m = p, f, m
        self.q = p**f
        self.order = p**m
        if reduction_poly is None:
            poly = default_reduction_poly(p, m)
        else:
            if not isinstance(reduction_poly, (list, tuple)) or not all(
                _is_int(c) for c in reduction_poly
            ):
                raise ValueError(f"field poly must be a list of integers, got {reduction_poly!r}")
            poly = tuple(c % p for c in reduction_poly)
            if len(poly) != m + 1 or poly[-1] != 1:
                raise ValueError("reduction polynomial must be monic of degree m")
            if not is_irreducible(poly, p):
                raise ValueError(f"reduction polynomial {list(poly)} is reducible over GF({p})")
        self.poly = poly
        self._key = (p, f, m, poly)
        self._build_tables()
        # zeta_q^e as a field index for 0 <= e < q - 1, zeta_q being
        # g^((n - 1)/(q - 1)); character values read this list.
        step = (self.order - 1) // (self.q - 1)
        self._zeta_powers = [self._exp[e * step] for e in range(self.q - 1)]

    def _build_tables(self):
        p, m, n = self.p, self.m, self.order
        digits = range(p)
        self._elts = [FieldElt(self, i) for i in range(n)]
        ident = list(range(n))

        # x + y = (x - p^j) + (y + p^j) for j the lowest nonzero base-p digit
        # of x, where y + p^j steps digit j of y up by one, mod p: _add_row
        # gathers row x - p^j through the step row of p^j.
        self._steps = {
            s: _getter(*(y - (p - 1) * s if y // s % p == p - 1 else y + s for y in range(n)))
            for s in (p**j for j in range(m))
        }
        add_row = self._add_row
        add = self._add = [ident] + [_Row(add_row, x) for x in range(1, n)]

        # x * i shifts the digits of i up one place; the carried top digit t
        # re-enters as t * x^m = -t * (poly[0] + ... + poly[m-1] x^(m-1)).
        # The sum reads row carry[t], not row p * (i % top): p rows at most.
        top = n // p
        carry = [sum((-t * c) % p * p**k for k, c in enumerate(self.poly[:m])) for t in digits]
        times_x = [add[carry[i // top]][p * (i % top)] for i in range(n)]

        # The generator: the first candidate, by coefficient tuple, whose
        # powers reach all n - 1 units.  a * g is (a - 1) * g + g when the
        # lowest digit of a is nonzero, and x * ((a / x) * g) otherwise;
        # the sum reads row g alone.  The walk stops after n - 1 powers, so
        # a wrong table exhausts the candidates instead of cycling.
        for tail in _iproduct(digits, repeat=m):
            g = sum(c * p**k for k, c in enumerate(tail))
            if g == 0:
                continue
            times_g = [0]
            for a in range(1, n):
                times_g.append(add[g][times_g[-1]] if a % p else times_x[times_g[a // p]])
            exp, cur = [1], g
            while cur != 1 and len(exp) < n:
                exp.append(cur)
                cur = times_g[cur]
            if len(exp) == n - 1:
                break
        else:
            raise TheoremViolationError("k^x is cyclic; unreachable")
        log = [0] * n
        for k, e in enumerate(exp):
            log[e] = k
        self._exp, self._log, self._exp2 = exp, log, exp + exp

        mul_row = self._mul_row
        self._mul = [[0] * n, ident] + [_Row(mul_row, c) for c in range(2, n)]
        self._neg = mul_row(p - 1)  # the row of -1
        self._inv = [0] + [exp[-la % (n - 1)] for la in log[1:]]

    def _add_row(self, x: int) -> list:
        """Row x of the addition table, built on its first read: row
        x - p^j gathered through the step row of p^j, for j the lowest
        nonzero base-p digit of x, building the unbuilt rows of that chain
        from the nearest built one up."""
        add, p, chain = self._add, self.p, []
        while type(add[x]) is _Row:
            s = 1
            while not x // s % p:
                s *= p
            chain.append((x, s))
            x -= s
        row = add[x]
        for x, s in reversed(chain):
            row = add[x] = list(self._steps[s](row))
        return row

    def _mul_row(self, c: int) -> list:
        """Row c of the multiplication table, built on its first read:
        c * d = g^(log c + log d), a slice of exp2 = exp + exp read at
        log d for d = 1..n-1, in one C-level pass."""
        row = self._mul[c]
        if type(row) is _Row:
            lc = self._log[c]
            row = self._mul[c] = [
                0, *map(self._exp2[lc:lc + self.order - 1].__getitem__, self._log[1:])]
        return row

    # -- element constructors ------------------------------------------------

    def elt(self, coeffs) -> FieldElt:
        """The package's one scalar parser: a FieldElt of this field or of
        an equal one as this field's element (another field's raises a
        GroupMismatchError, as in arithmetic), an integer through
        Z -> GF(p), or a list of at most m integer coordinates in the
        power basis, low degree first."""
        if isinstance(coeffs, FieldElt):
            return self._elts[self.zero()._index(coeffs)]
        if _is_int(coeffs):
            return self.from_int(coeffs)
        if not isinstance(coeffs, (list, tuple)) or not all(map(_is_int, coeffs)):
            raise TypeError(f"cannot use {coeffs!r} as an element of {self!r}")
        if len(coeffs) > self.m:
            raise ValueError("too many coefficients")
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + (c % self.p)
        return self._elts[v]

    def from_int(self, a: int) -> FieldElt:
        """Image of the integer a under Z -> GF(p) -> k."""
        return self._elts[a % self.p]

    def zero(self) -> FieldElt:
        return self._elts[0]

    def one(self) -> FieldElt:
        return self._elts[1]

    def elements(self):
        return iter(self._elts)

    # -- the distinguished subgroup of order q - 1 ---------------------------

    def multiplicative_order(self, x: FieldElt) -> int:
        if x.i == 0:
            raise ZeroDivisionError("0 has no multiplicative order")
        units = self.order - 1
        return units // gcd(self._log[x.i], units)

    def generator(self) -> FieldElt:
        """Smallest element (by coefficient tuple, lexicographically) of
        multiplicative order p^m - 1: the base of the log tables, g^1 (in
        GF(2), where n - 1 = 1, that is g^0 = 1)."""
        return self._elts[self._exp[1 % (self.order - 1)]]

    def zeta_q(self) -> FieldElt:
        """Fixed embedding of a generator of F_q^x into k^x: an element of
        exact multiplicative order q - 1: g^((n - 1)/(q - 1)) for g the
        generator and n the order of k, read off _zeta_powers."""
        return self._elts[self._zeta_powers[1 % (self.q - 1)]]

    # -- misc ----------------------------------------------------------------

    def to_json(self):
        return {"p": self.p, "f": self.f, "m": self.m, "poly": list(self.poly)}

    @classmethod
    def from_json(cls, data) -> "FieldSpec":
        if not isinstance(data, dict):
            raise ValueError(f"field must be a JSON object, got {data!r}")
        if "p" not in data:
            raise ValueError("field p is missing")
        return cls(
            data["p"],
            data.get("f", 1),
            data.get("m"),
            data.get("poly"),
        )

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"GF({self.p}^{self.m}; q={self.q})"

