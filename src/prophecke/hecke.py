"""The pro-p Iwahori-Hecke algebra over k.

H has k-basis tau_g indexed by pro-p Weyl group elements g.  Products
are computed from the two defining families of relations: tau_v tau_w =
tau_vw whenever lengths add, and, for the distinguished lift n_s of an
affine simple reflection s attached to the root alpha,

    tau_{n_s}^2 = -theta_s tau_{n_s} = -tau_{n_s} theta_s,
    theta_s = -|mu_alpha| sum_{t in alpha-check(F_q^x)} tau_t,

the characteristic-p degeneration (q = 0 in k) of the classical
quadratic relation.  Its rank-one data are stated once: ProPWeyl.aff_image
gives alpha-check(F_q^x) and |mu| for each letter s, and
HeckeAlgebra.mu_coeff[s] is that |mu| as a field index, built with H.
The descent branch of basis_mul, theta (negating it) and
TopModule._apply_gen read it there.

An element of H or E is a SparseComb whose terms are a dict from the
intern index of a basis element (ProPElt.index) to the index of its
nonzero coefficient in the field tables (FieldElt.i); basis_mul and the
top-module actions return such dicts too, and accumulate adds them up
through the rows of the field's addition and multiplication tables.  An
element adopts the dict it is built from, uncopied and unfiltered;
SparseComb states what that asks of producers and callers.  H and E are
both SparseSpaces: the base builds their elements (zero, elt, and basis,
which H calls tau and E phi), relabels them by inversion (inverted, J on
H and J_top on E), and rejects, through own, an operand from another
space, with GroupMismatchError.  Scalars are read by FieldSpec.elt.
ProPElt and FieldElt appear only at the boundary: the constructors
(elt, tau, theta, e_lambda), coeff, items, to_json, repr, and the
scalar-valued functions (chi_eval here, pairing and S_d on E).

The product recursion peels rank-one factors off
the left factor's canonical reduced word with ProPWeyl.peel and applies
each through ProPWeyl.step, the rank-one rule E and the coset calculus
share; iota recurses along the same peel.  Independence of the word
choice is property-tested, not assumed.  A length-zero left factor is
one group product, tau_x tau_y = tau_{xy}, and its answer is that
product's ProPElt.unit: shared, read-only, never adopted by an element.
The memo, _mul_cache, holds one row per left factor, x.index ->
{y.index: terms}, so a probe indexes two int-keyed dicts and builds no
key tuple.  Unlike TopModule._act_basis and cosets.support_mul, which
test the length first and store no base case, basis_mul probes its memo
first and stores the unit under the pair: a hecke-algebra pass makes
about 361k calls, 330k of them with a left factor of positive length
(319k of those memo hits), and a length test ahead of the probe measured
slower there (run_s medians 0.191 s probe first, 0.232 s length first,
over 8 alternating one-pass runs at seed 11, on a 2-core host with
CPython 3.11.7).  A hit is returned only for operands of this group.

HeckeAlgebra.mul has two routes to the same terms.  The tau pair loop
sums basis_mul over every pair of terms; it is the reference, and
single-term operands and basis_mul itself always take it.  iota's
recursion multiplies through mul, so it takes the e route where the rule
admits its operands, as on SL2, whose factor -tau_{n_s} - theta_s has q
> |T_q| terms.  The e route writes an operand in the basis e_lam
tau_{n_w} of the torus idempotents, x = sum_w sum_lam x_w[lam] e_lam
tau_{n_w} over its set W(x) of Weyl parts, n_w = (0, w) the canonical
lift.  Since tau_{n_v} e_mu = e_{mu o v^{-1}} tau_{n_v} and the e_lam
are orthogonal, a product then costs |W(x)| |W(y)| |T_q| scalar steps,
where the pair loop makes |x| |y| basis products, each a term dict to
add up.  Each pair (v, w) of Weyl parts needs the constant tau_{n_v}
tau_{n_w}, one Weyl part since q = 0 in k, read off basis_mul and
memoised in _e_consts, so that memo is bounded by the Weyl pairs met.
The character table (the values lam(t), the coefficients of each e_lam
and the W0 permutation of the characters) is built on the first e-route
product.  The rule, a property of the operands: mul takes the e route
when both have more than |T_q| terms, |T_q| <= propweyl._MAX_TORUS (the
table lists the torus; SL2 over GF(2^8) has |T_q| = 255), and |x| |y| >
|W(x)| |W(y)| |T_q|.  Measured per product with warm memos, pair loop
against e route, on a 2-core host with CPython 3.11: seeded products of
iota images of length-4 elements of SL3 over GF(3), 183 against 121 us
where |x| |y| is at most twice |W(x)| |W(y)| |T_q| and 509 against 224
us above that; length-3 images on SL3 over GF(5), 2078 against 447 us;
dense sums on GL3 over GF(5), |T_q| = 64, 33 against 4.5 ms.  Operands
with more than |T_q| terms but few per Weyl part, |x| |y| <= |W(x)|
|W(y)| |T_q|, took 100 against 160 us on SL3 over GF(3), which is why
the third condition keeps them on the pair loop.

This module also carries the torus idempotents e_lambda and their
central orbit sums, the involution iota, the inversion anti-involution,
the trivial and sign characters, the length filtration, and the
classifier for characters of the affine subalgebra (twisted trivial,
twisted sign, supersingular).  A character of T_q is its exponent
vector lam against the fixed order-(q-1) generator of k^x, lam(t) =
zeta^<lam, t>; the vectors are the tuples ProPWeyl.torus_elements
lists, so the character group is iterated as the torus is, and every
method taking one reduces it through ProPWeyl.torus, which rejects a
wrong length.  A character of the affine subalgebra is the pair (lam,
eps), eps a tuple of values in {0, -1} at the affine simple
reflections; is_character says whether the pair is consistent, and
classify_character returns its verdict as the dict the characters
export prints.
"""

from __future__ import annotations

from .errors import GroupMismatchError, TheoremViolationError
from .gf import FieldElt, FieldSpec
from .propweyl import _MAX_TORUS, ProPElt, ProPWeyl
from .rootdata import dot
from .weyl import ExtAffWeylElt


def accumulate(out: dict, terms: dict, c: int, field: FieldSpec) -> None:
    """out += c * terms, in place, on field indices, dropping coefficients
    that cancel.  terms holds no zero coefficient.  An empty out with
    c = 1 is filled by one dict.update, in C."""
    if not c:
        return
    if c == 1 and not out:
        out.update(terms)
        return
    row, add = field._mul[c], field._add
    for g, d in terms.items():
        prev = out.get(g)
        if prev is None:
            out[g] = row[d]
        else:
            acc = add[prev][row[d]]
            if acc:
                out[g] = acc
            else:
                del out[g]


class SparseComb:
    """Finitely supported k-linear combination of basis symbols indexed by
    pro-p Weyl group elements, living in a fixed space (H or E).  terms
    maps ProPElt.index to the nonzero FieldElt.i of its coefficient.

    The element adopts the terms dict it is built from, without copying
    or filtering it: the producer must hold no zero coefficient in it,
    and no one may mutate it afterwards, nor hand in a dict a memo row
    still holds, an element's ProPElt.unit or the top module's shared
    empty action.  Every producer here builds a fresh dict;
    SparseSpace.elt and scale drop the zeros they can make, accumulate
    drops cancelled terms, and theta's -|mu| is nonzero because |mu| = 2
    needs odd q.

    Subclasses name the basis symbol, say whether to_json carries it as a
    "basis" tag, and give the error text for operands of different spaces.
    """

    __slots__ = ("space", "terms")
    symbol = ""
    tagged = False
    mismatch = ""

    def __init__(self, space, terms: dict):
        self.space = space
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, g: ProPElt) -> FieldElt:
        if g.group is not self.space.group:
            raise GroupMismatchError("group element from different group data")
        return self.space.field._elts[self.terms.get(g.index, 0)]

    def items(self):
        """(ProPElt, FieldElt) for every term, in insertion order."""
        elts, coeffs = self.space.group.by_index, self.space.field._elts
        for g, c in self.terms.items():
            yield elts[g], coeffs[c]

    def __add__(self, other):
        self.space.own(other)
        out = dict(self.terms)
        accumulate(out, other.terms, 1, self.space.field)
        return type(self)(self.space, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.space.field._neg
        return type(self)(self.space, {g: neg[c] for g, c in self.terms.items()})

    def scale(self, c):
        """c times self, for c a FieldElt of the space's field or of an
        equal one, an integer or a coefficient list: whatever FieldSpec.elt
        reads."""
        c = self.space.field.elt(c).i
        if not c:
            return type(self)(self.space, {})
        row = self.space.field._mul[c]
        return type(self)(self.space, {g: row[d] for g, d in self.terms.items()})

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.space is other.space
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _sorted_terms(self):
        return sorted(self.items(), key=lambda kv: kv[0].sort_key())

    def to_json(self):
        out = {
            "terms": [
                {"coeff": list(c.coeffs), "elt": g.to_json()}
                for g, c in self._sorted_terms()
            ]
        }
        if self.tagged:
            out["basis"] = self.symbol
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"{c!r}*{self.symbol}[{g!r}]" for g, c in self._sorted_terms()
        )


class HeckeElt(SparseComb):
    """Element of H in the tau basis."""

    __slots__ = ()
    symbol = "tau"
    mismatch = "elements of different Hecke algebras"

    def __mul__(self, other):
        if isinstance(other, HeckeElt):
            return self.space.mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)


class SparseSpace:
    """What H and E share: each is the k-span (k = field) of one basis
    symbol per element of group, and holds its elements as SparseCombs of
    the subclass element.  H names basis tau and inverted J; E names them
    phi and J_top."""

    def own(self, x) -> None:
        """Raise GroupMismatchError unless x is an element of this space."""
        if getattr(x, "space", None) is not self:
            raise GroupMismatchError(self.element.mismatch)

    def zero(self):
        return self.element(self, {})

    def elt(self, terms: dict):
        """The element sum c g of {ProPElt g: scalar c}, dropping zero
        scalars; c is a FieldElt of the space's field or of an equal one,
        an integer or a coefficient list: whatever FieldSpec.elt reads."""
        out = {}
        for g, c in terms.items():
            if g.group is not self.group:
                raise GroupMismatchError("group element from different group data")
            i = self.field.elt(c).i
            if i:
                out[g.index] = i
        return self.element(self, out)

    def basis(self, x: ProPElt):
        """The basis symbol of x."""
        if x.group is not self.group:
            raise GroupMismatchError("group element from different group data")
        return self.element(self, {x.index: 1})

    def inverted(self, x):
        """The relabelling by inversion, the symbol of g to that of g^{-1}:
        J on H, J_top on E."""
        self.own(x)
        elts = self.group.by_index
        return self.element(self, {elts[g].inv().index: c for g, c in x.terms.items()})


class HeckeAlgebra(SparseSpace):
    """H for a fixed pro-p Weyl group and coefficient field.

    The field's q must equal the group's q: the residue size enters both
    the torus quotient and, reduced to k, the coefficients of the
    quadratic relations.
    """

    element = HeckeElt
    tau = SparseSpace.basis
    J = SparseSpace.inverted

    def __init__(self, group: ProPWeyl, field: FieldSpec, word_tie: str = "min"):
        if field.q != group.q:
            raise GroupMismatchError(
                f"field has q = {field.q} but the group was built with q = {group.q}"
            )
        if word_tie not in ("min", "max"):
            raise ValueError(f"word_tie must be 'min' or 'max', got {word_tie!r}")
        self.group = group
        self.field = field
        self.word_tie = word_tie
        # per affine simple reflection s: |mu| of its root as a field index,
        # the coefficient the quadratic relation puts on the translates
        self.mu_coeff = [field.from_int(group.aff_image(s)[1]).i
                         for s in range(len(group.weyl.s_aff))]
        self._mul_cache: dict = {}  # x.index -> {y.index: terms of tau_x tau_y}
        self._iota_cache: dict = {}
        self._torus_size = group.qm1 ** group.rank
        self._chars = None  # the e route's character table, built on first use
        self._e_consts: dict = {}  # (v, w) -> (Weyl part u, c_{v,w} by character)

    def stats(self) -> dict:
        """The entry count of each memo: basis_mul's, summed over its rows,
        iota's and the e route's constants."""
        return {"basis_mul": sum(map(len, self._mul_cache.values())),
                "iota": len(self._iota_cache), "e_const": len(self._e_consts)}

    # -- element constructors ----------------------------------------------------

    def one(self) -> HeckeElt:
        return self.tau(self.group.identity())

    # -- structural generators -----------------------------------------------------

    def theta(self, s: int) -> HeckeElt:
        """The idempotent -|mu| sum of tau over the coroot image of the
        root underlying the s-th affine simple reflection: mu_coeff[s],
        negated, on every translate.  aff_image rejects a bad letter s
        before mu_coeff is read."""
        image, _ = self.group.aff_image(s)
        c = self.field._neg[self.mu_coeff[s]]
        return HeckeElt(self, {t.index: c for t in image})

    # -- multiplication ---------------------------------------------------------

    def basis_mul(self, x: ProPElt, y: ProPElt) -> dict:
        """tau_x tau_y as index terms, peeling the last letter s off x: on
        ascent tau_{n_s} tau_y = tau_{n_s y}, on descent |mu| sum_t tau_{t y}.
        A length-zero x gives the read-only unit of x y.  Memoised in x's
        row of _mul_cache under y.index; the value is read-only.  The memo
        answers only when both operands belong to this group, so another
        group's elements at the same indices take the miss path, which
        raises GroupMismatchError."""
        try:
            row = self._mul_cache[x.index]
        except KeyError:
            row = self._mul_cache[x.index] = {}
        cached = row.get(y.index)
        g = self.group
        if cached is not None and x.group is g and y.group is g:
            return cached
        if x.w.length() == 0:
            result = g.mul(x, y).unit
        else:
            s, xp = g.peel(x, self.word_tie)
            moved, translates = g.step(s, y)
            if not translates:
                result = self.basis_mul(xp, moved)
            else:
                result = {}
                c = self.mu_coeff[s]
                for u in translates:
                    accumulate(result, self.basis_mul(xp, u), c, self.field)
        row[y.index] = result
        return result

    def mul(self, x: HeckeElt, y: HeckeElt) -> HeckeElt:
        if x.space is not self or y.space is not self:
            raise GroupMismatchError(HeckeElt.mismatch)
        field, elts = self.field, self.group.by_index
        # the route rule of the module docstring: dense operands on a listed torus
        n, nx, ny = self._torus_size, len(x.terms), len(y.terms)
        if nx > n and ny > n and n <= _MAX_TORUS and nx * ny > n * len(
                {elts[g].w for g in x.terms}) * len({elts[g].w for g in y.terms}):
            return HeckeElt(self, self._e_mul(x.terms, y.terms))
        out: dict = {}
        for gx, cx in x.terms.items():
            ex, row = elts[gx], field._mul[cx]
            for gy, cy in y.terms.items():
                accumulate(out, self.basis_mul(ex, elts[gy]), row[cy], field)
        return HeckeElt(self, out)

    # -- the e route: dense products through the torus idempotents ----------------

    def _char_table(self):
        """(pos, vals, idem, perm) for the characters of T_q, each indexed
        by its exponent vector's place in torus_elements(): pos maps a
        torus vector to that place, vals[l][j] = lam_l(t_j) as a field index
        (symmetric in l and j), idem[l][j] = (-1)^rank lam_l(t_j)^{-1}, the
        coefficient of tau_{t_j} in e_{lam_l}, and perm[w0][l] is the place
        of lam_l o v for v of finite Weyl index w0, the character
        conj_char(v^{-1}, lam_l).  Built on the first e-route product and
        kept; torus_elements() bounds it."""
        if self._chars is None:
            g, field, wg = self.group, self.field, self.group.weyl
            torus, qm1 = g.torus_elements(), g.qm1
            zeta, sign = field._zeta_powers, field._mul[field.from_int((-1) ** g.rank).i]
            pos = {t: j for j, t in enumerate(torus)}
            expo = [[dot(lam, t) % qm1 for t in torus] for lam in torus]
            vals = [[zeta[e] for e in row] for row in expo]
            idem = [[sign[zeta[-e % qm1]] for e in row] for row in expo]
            perm = [[pos[self.conj_char(wg.elt(wg.inv0[w0]), lam)] for lam in torus]
                    for w0 in range(wg.order)]
            self._chars = pos, vals, idem, perm
        return self._chars

    def _e_const(self, v: ExtAffWeylElt, w: ExtAffWeylElt):
        """(u, c) with tau_{n_v} tau_{n_w} = sum_lam c[lam] e_lam tau_{n_u}
        for the canonical lifts n_v = (0, v), read off basis_mul and
        memoised by (v, w).  Since q = 0 in k the product is
        sum_t c_t tau_{t n_u} for one Weyl part u, so c is its one
        _e_transform vector.  Another number of Weyl parts raises
        TheoremViolationError."""
        hit = self._e_consts.get((v, w))
        if hit is None:
            g = self.group
            parts = self._e_transform(
                self.basis_mul(ProPElt(g, g.zero_t, v), ProPElt(g, g.zero_t, w)))
            if len(parts) != 1:
                raise TheoremViolationError(
                    f"tau_n_v tau_n_w has {len(parts)} Weyl parts, not 1, at v={v!r}, w={w!r}")
            (hit,) = parts.items()
            self._e_consts[(v, w)] = hit
        return hit

    def _e_transform(self, terms: dict) -> dict:
        """{w: x_w} for the terms a_t tau_{t n_w} grouped by Weyl part w,
        where x_w[lam] = sum_t a_t lam(t): the element is then
        sum_w sum_lam x_w[lam] e_lam tau_{n_w}."""
        pos, vals, _, _ = self._char_table()
        elts, mul, add = self.group.by_index, self.field._mul, self.field._add
        zero = [0] * self._torus_size
        out: dict = {}
        for h, a in terms.items():
            e, row = elts[h], mul[a]
            out[e.w] = [add[p][row[b]] for p, b in zip(out.get(e.w, zero), vals[pos[e.t]])]
        return out

    def _e_mul(self, x: dict, y: dict) -> dict:
        """The terms of x y through the idempotents.  tau_{n_v} e_mu =
        e_{mu o v^{-1}} tau_{n_v} and e_lam e_mu = 0 for lam != mu, so
        x_v[lam] e_lam tau_{n_v} times y_w[mu] e_mu tau_{n_w} leaves only
        mu = lam o v, and R_u[lam] = sum over v * w = u of
        x_v[lam] y_w[lam o v] c_{v,w}[lam] gives x y = sum_u sum_lam
        R_u[lam] e_lam tau_{n_u}, read back into the tau basis through idem."""
        g, mul, add = self.group, self.field._mul, self.field._add
        _, _, idem, perm = self._char_table()
        torus, n = g.torus_elements(), self._torus_size
        ys = self._e_transform(y)
        acc: dict = {}  # u -> R_u
        for v, xv in self._e_transform(x).items():
            pv = perm[v.w0]
            nonzero = [(lam, mul[a], pv[lam]) for lam, a in enumerate(xv) if a]
            for w, yw in ys.items():
                u, c = self._e_const(v, w)
                r = acc.get(u)
                if r is None:
                    r = acc[u] = [0] * n
                for lam, row, p in nonzero:
                    r[lam] = add[r[lam]][mul[row[yw[p]]][c[lam]]]
        out: dict = {}
        for u, r in acc.items():
            coeffs = [0] * n
            for lam, a in enumerate(r):
                if a:
                    row = mul[a]
                    coeffs = [add[p][row[b]] for p, b in zip(coeffs, idem[lam])]
            for t, a in zip(torus, coeffs):
                if a:
                    out[ProPElt(g, t, u).index] = a
        return out

    # -- torus characters and idempotents ----------------------------------------

    def chi_lambda(self, lam, t) -> FieldElt:
        """Value of the torus character with exponent vector lam at t:
        zeta_q^e, read off the field's powers of zeta_q.  lam and t are read
        through ProPWeyl.torus, which rejects a wrong length or a
        non-integer entry."""
        g, field = self.group, self.field
        e = dot(g.torus(lam), g.torus(t)) % g.qm1
        return field._elts[field._zeta_powers[e]]

    def e_lambda(self, lam) -> HeckeElt:
        """Torus idempotent attached to a character of T_q: the sum of
        lambda(t)^{-1} tau_t over T_q, times the inverse of |T_q| in k.

        That inverse is (-1)^rank; for odd rank this is the classical minus
        sign in front of the sum.  Needs F_q inside k, which FieldSpec
        guarantees via f | m."""
        g = self.group
        sign = self.field.from_int((-1) ** g.rank)
        return self.elt({g.torus_elt(t): sign / self.chi_lambda(lam, t)
                         for t in g.torus_elements()})

    def char_orbit(self, lam):
        """Orbit of a torus character exponent vector under the finite Weyl
        group (acting by lambda |-> lambda o w^{-1}), sorted."""
        wg = self.group.weyl
        return sorted({self.conj_char(wg.elt(w0), lam) for w0 in range(wg.order)})

    def conj_char(self, w: ExtAffWeylElt, lam):
        """Exponent vector of the conjugated character lambda o w^{-1}; a
        Weyl element of another group raises GroupMismatchError."""
        g = self.group
        if w.group is not g.weyl:
            raise GroupMismatchError("Weyl element from a different group")
        lam = g.torus(lam)
        Minv = g.weyl.elements[g.weyl.inv0[w.w0]]
        return tuple(
            sum(Minv[i][j] * lam[i] for i in range(g.rank)) % g.qm1
            for j in range(g.rank)
        )

    def e_gamma(self, lam) -> HeckeElt:
        out = self.zero()
        for l in self.char_orbit(lam):
            out = out + self.e_lambda(l)
        return out

    # -- involutions -----------------------------------------------------------

    def iota(self, x: HeckeElt) -> HeckeElt:
        """The involutive algebra automorphism fixing all length-zero basis
        elements and sending tau_{n_s} to -tau_{n_s} - theta_s; on tau_g it
        is iota(tau_{g'}) (-tau_{n_s} - theta_s) with g = g' n_s peeled."""
        self.own(x)
        elts = self.group.by_index
        out: dict = {}
        for g, c in x.terms.items():
            accumulate(out, self._iota_basis(elts[g]).terms, c, self.field)
        return HeckeElt(self, out)

    def _iota_basis(self, g: ProPElt) -> HeckeElt:
        cached = self._iota_cache.get(g.index)
        if cached is not None:
            return cached
        if g.w.length() == 0:
            result = self.tau(g)
        else:
            s, gp = self.group.peel(g, self.word_tie)
            factor = self.tau(self.group.lift_s(s)).scale(-1) - self.theta(s)
            product = self.mul(self._iota_basis(gp), factor)
            # The memo keeps a compacted copy: the dict mul built still
            # holds the table slots of the terms that cancelled.
            result = HeckeElt(self, dict(product.terms))
        self._iota_cache[g.index] = result
        return result

    # -- characters of H ----------------------------------------------------------

    def chi_eval(self, which: str, x: HeckeElt) -> FieldElt:
        """Evaluate the trivial or sign character of H.

        On a length-l basis element the trivial character is 0 unless
        l = 0, and the sign character is (-1)^l; both send every
        length-zero tau to 1."""
        if which not in ("triv", "sign"):
            raise ValueError("which must be 'triv' or 'sign'")
        self.own(x)
        elts, add, neg = self.group.by_index, self.field._add, self.field._neg
        total = 0
        for g, c in x.terms.items():
            n = elts[g].w.length()
            if which == "sign":
                total = add[total][neg[c] if n % 2 else c]
            elif n == 0:
                total = add[total][c]
        return self.field._elts[total]

    # -- filtration by length and graded eigencharacters -----------------------------

    def filtration_project(self, x: HeckeElt, n: int) -> HeckeElt:
        """Projection killing all terms of length < n."""
        self.own(x)
        elts = self.group.by_index
        return HeckeElt(
            self, {g: c for g, c in x.terms.items() if elts[g].w.length() >= n}
        )

    def grade_part(self, x: HeckeElt, n: int) -> HeckeElt:
        self.own(x)
        elts = self.group.by_index
        return HeckeElt(
            self, {g: c for g, c in x.terms.items() if elts[g].w.length() == n}
        )

    def graded_support_char(self, lam, w: ProPElt, side: str) -> tuple:
        """Eigencharacter of the graded class of e_lambda tau_w (left side)
        or tau_w e_lambda (right side) in the length filtration, as its
        eps tuple; on the torus it is lambda.

        The character sends tau_t to lambda(t) and tau_{n_s} to -1 exactly
        when s shortens w on the given side and lambda is trivial on the
        coroot image of s, else to 0.  The claim is verified numerically
        against the actual graded action of every generator before eps
        is returned."""
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        g = self.group
        lam = g.torus(lam)
        m = w.w.length()
        descents = set(w.w.descents(side))
        eps = tuple(
            -1 if i in descents and self._lam_trivial_on_image(lam, A.root) else 0
            for i, A in enumerate(g.weyl.s_aff)
        )

        ew = self.mul(self.e_lambda(lam), self.tau(w)) if side == "left" else self.mul(
            self.tau(w), self.e_lambda(lam)
        )
        if ew.is_zero():
            raise TheoremViolationError("e_lambda tau_w vanished; basis claim broken")

        def act(h):
            return self.mul(h, ew) if side == "left" else self.mul(ew, h)

        # (generator, claimed eigenvalue, what a failure names): the torus first
        probes = [(g.torus_elt(t), self.chi_lambda(lam, t), f"torus eigenvalue fails at t={t}")
                  for t in g.torus_elements()]
        probes += [(g.lift_s(i), self.field.from_int(e), f"reflection eigenvalue fails at s={i}")
                   for i, e in enumerate(eps)]
        for x, value, label in probes:
            if self.grade_part(act(self.tau(x)), m) != ew.scale(value):
                raise TheoremViolationError(f"graded {label}, lam={lam}, w={w!r}")
        return eps

    def _lam_trivial_on_image(self, lam, root_index: int) -> bool:
        return dot(lam, self.group.rd.coroots[root_index]) % self.group.qm1 == 0

    # -- classification of affine characters ----------------------------------------

    def is_character(self, lam, eps) -> bool:
        """Whether (lam, eps) is a character of the affine subalgebra: eps
        is 0 or -1 at every affine simple reflection, and -1 only where lam
        is trivial on the coroot image (quadratic relation consistency)."""
        lam = self.group.torus(lam)
        s_aff = self.group.weyl.s_aff
        return len(eps) == len(s_aff) and all(
            v == 0 or v == -1 and self._lam_trivial_on_image(lam, A.root)
            for v, A in zip(eps, s_aff)
        )

    def classify_character(self, lam, eps) -> dict:
        """Per irreducible component: is the restriction of the character
        (lam, eps) the twisted sign character, the twisted trivial
        character, or neither; supersingular means neither, on every
        component."""
        if not self.is_character(lam, eps):
            raise ValueError(
                f"lambda {list(lam)} with eps {list(eps)} is not a character of "
                "the affine subalgebra"
            )
        rd = self.group.rd
        s_comp = [rd.component_of[A.root] for A in self.group.weyl.s_aff]
        twisted_sign, twisted_trivial = [], []
        for comp in range(rd.ncomp):
            values = [v for v, c in zip(eps, s_comp) if c == comp]
            twisted_sign.append(all(v == -1 for v in values))
            twisted_trivial.append(not any(values) and all(
                self._lam_trivial_on_image(lam, j)
                for j in rd.simple
                if rd.component_of[j] == comp
            ))
        return {
            "twisted_sign": twisted_sign,
            "twisted_trivial": twisted_trivial,
            "supersingular": not any(twisted_sign) and not any(twisted_trivial),
        }
