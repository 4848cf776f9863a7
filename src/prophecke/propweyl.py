"""The pro-p Weyl group: the extension of the extended affine Weyl group
W by the finite torus T_q = X_* (x) F_q^x, with exact multiplication.

Torus elements are exponent vectors in (Z/(q-1))^r with respect to a
fixed generator of F_q^x (plain tuples).  An element of the extension is
a pair (t, w) in normal form

    t . n0(w0) . mu(pi^{-1})        for w = w0 . t_mu,

where n0 is the section of the finite Weyl group built from the standard
rank-one lifts n_alpha along canonical reduced words, and cocharacters
are lifted through mu |-> mu(pi^{-1}), which commutes with T_q and is
normalized so that it projects to the translation by mu.  In these
coordinates multiplication closes with a single torus cocycle on finite
parts:

    (t, (u0,l)) (t', (v0,m)) = (t + u0(t') + c0(u0,v0), (u0,l)(v0,m))

and c0 is computed once from the defining relations of the rank-one
lifts: conjugation n t n^{-1} = s(t), the braid relations, and
n_alpha^2 = alpha-check(-1).

The distinguished lift of the reflection at an affine root (alpha, h) is
the cocharacter lift of h alpha-check times a conjugation-built lift of
the finite reflection at alpha: n_k = (0, s_k) for a simple root alpha_k,
and n_k (lift at s_k(alpha)) n_k^{-1} otherwise, with s_k(alpha) read off
WeylGroup.root_perm.  When alpha is (minus) a simple root the
torus part vanishes; in higher rank the affine generator attached to the
lowest root picks up a 2-torsion torus correction.  Construction
self-checks that every such lift squares to alpha-check(-1) and
conjugates the torus by the underlying reflection; those two identities,
not the particular coordinates, are what the algebra relations consume.

ProPWeyl.step is the one rank-one rule that the Hecke product, both
actions on the top module and the coset calculus share: n_s y alone
when s lengthens y, and n_s y plus the coroot-image translates t y when
s shortens it (mirrored on the right).  Those translates and |mu| are
closed forms: alpha-check(zeta^e) is e times the coroot mod q - 1, so
coroot_image gives |mu| = gcd(q - 1, coroot) and the image as the first
(q - 1) / |mu| multiples of alpha-check(1), and aff_image(s) holds both
for each letter, built with the group.  A letter is an index into
WeylGroup.s_aff, and WeylGroup.letter is the one check: lift_s and
aff_image call it, and step tests the type and the range inline, calling
it to name a bool, a non-integer or an integer out of range, before its
table is read.  ProPWeyl.peel splits a last letter s off an element x,
x = x' n_s, for the recursions of the Hecke product, iota, both actions
on the top module and the coset calculus.  s is a right descent of x's
Weyl part, read off WeylGroup's descents: the smallest for the tie rule
'min', the largest for 'max'.  Peeling 'min' again and again spells the
canonical reduced word from the right, and the answer of a product does
not depend on the rule, which the suites test.

Both are memoised per group: _steps holds, per side and letter,
y.index -> (moved, translates), and _peels, per tie,
x.index -> (s, x n_s^{-1}), each stored on first computation.  A hit
answers only for an element of this group, so an element of another
group with the same index still raises GroupMismatchError; an unknown
side or tie, or a length-zero x for peel, finds no table entry and
raises a ValueError on the miss path: weyl._check_side names the side,
and _check_tie, the one tie check (read by peel, support_mul and H),
the tie.  A pass over the coset calculus asks step and peel tens of
thousands of times for a few hundred distinct answers.

ProPWeyl.own is the one check that an operand is a pro-p element of the
group, and WeylGroup.own that a Weyl part belongs to its Weyl group:
elt, lift_omega, inv and mul read them here, and so do H, E and the
coset calculus.  mul, on the hot path, tests its operands inline and
calls own only to raise.

Elements are hash-consed per group: ProPWeyl._interned maps each normal
form (t, w), keyed by the torus vector and the interned Weyl element
itself, to its one ProPElt, so equal elements of one group are the same
object and equality is identity.  Each element carries its intern index,
ProPElt.index, and ProPWeyl.by_index maps the index back to the
element; the index is the element's hash (unique in the group) and the
key of every term in H and E.  An element's products (keyed by
the right operand's index, an int that hashes in C) and inverse are
memoised on it for the lifetime of the group.  Each element also carries
unit = {index: 1}, its own basis vector as index terms, built once at
interning and read-only: where a peel recursion of H or E reaches a
length-zero factor, the answer is one group product, and its unit is
returned instead of a fresh dict per pair.  Two ProPWeyl built over one
WeylGroup share no element.

The action of the finite Weyl group on T_q, which every product and
inverse computed afresh needs, is memoised per group too: one dict per
finite Weyl element, filled on first use, so the memo holds at most
|W0| |T_q| entries (96 for SL3 over GF(5)).

The torus T_q is listed only on the first torus_elements() call, and
only up to _MAX_TORUS = 64 vectors, the largest torus the test suite
lists (GL3 at q = 5): a suite that lists T_q does work growing with a
high power of |T_q|, so a larger torus raises a ValueError naming |T_q|
and the bound, and the CLI exits 2 instead of running without end.
Products, lifts and the suites that never list T_q run at every
accepted field size.
"""

from __future__ import annotations

from itertools import product
from math import gcd

from .errors import DataIntegrityError, GroupMismatchError, TheoremViolationError
from .gf import _int_vector, _is_int
from .rootdata import AffineRoot, dot
from .weyl import ExtAffWeylElt, WeylGroup, _check_side, _mat_vec

# The largest torus T_q that torus_elements() lists.
_MAX_TORUS = 64


def _check_tie(what: str, tie) -> None:
    """Raise a ValueError naming what and tie unless tie is 'min' or 'max'."""
    if tie not in ("min", "max"):
        raise ValueError(f"{what} must be 'min' or 'max', got {tie!r}")


class ProPWeyl:
    """Group data for the pro-p Weyl group over a fixed residue size q."""

    def __init__(self, weyl: WeylGroup, q: int):
        if q < 2:
            raise ValueError("q must be a prime power >= 2")
        self._interned = {}  # (t, w) -> its one ProPElt
        self.by_index = []  # intern index -> ProPElt
        self.weyl = weyl
        self.rd = weyl.rd
        self.rank = weyl.rank
        self.q = q
        self.qm1 = q - 1
        # exponent of -1 in F_q^x (0 when q is even, since then -1 = 1)
        self.neg_one_exp = (q - 1) // 2 if q % 2 == 1 else 0
        self.zero_t = (0,) * self.rank
        self._torus_elements = None  # all of T_q, listed on first use
        # per finite Weyl index: torus vector -> its image, filled on demand
        self._torus_actions = [{} for _ in range(weyl.order)]
        self._cocycle = self._build_cocycle()
        self._letters = len(weyl.s_aff)
        # step: side -> per letter, y.index -> (moved, translates)
        self._steps = {side: [{} for _ in range(self._letters)]
                       for side in ("left", "right")}
        self._peels = {"min": {}, "max": {}}  # tie -> x.index -> (s, x n_s^{-1})
        self._aff_lifts = [
            self.lift_affine_reflection(A) for A in self.weyl.s_aff
        ]
        # per affine reflection: its coroot image as torus elements, and |mu|
        self._aff_images = []
        for A in self.weyl.s_aff:
            image, mu_size = self.coroot_image(A.root)
            self._aff_images.append((tuple(map(self.torus_elt, image)), mu_size))
        self.section_self_check()

    def stats(self) -> dict:
        """The entry count of each memo: step's over both sides and every
        letter, peel's over both ties, the torus action's over every
        finite Weyl element, and the interned elements."""
        return {"step": sum(len(t) for tables in self._steps.values() for t in tables),
                "peel": sum(map(len, self._peels.values())),
                "torus_action": sum(map(len, self._torus_actions)),
                "elements": len(self.by_index)}

    # -- torus helpers -----------------------------------------------------------

    def torus(self, exps) -> tuple:
        """exps reduced mod q - 1; anything but a list or tuple, a length
        other than the rank or an entry that is not an integer raises a
        ValueError naming it."""
        if not isinstance(exps, (list, tuple)):
            raise ValueError(f"torus vector must be a list of {self.rank} integers, got {exps!r}")
        if len(exps) != self.rank:
            raise ValueError(f"torus vector must have length {self.rank}")
        if not all(map(_is_int, exps)):
            raise ValueError(f"torus vector entries must be integers, got {list(exps)}")
        return tuple(e % self.qm1 for e in exps)

    def torus_elements(self) -> tuple:
        """All (q-1)^rank torus vectors, built on the first call and kept.
        Not built with the group: it is large for a big field, and
        products, lifts and most suites never list it.  A torus of more
        than _MAX_TORUS vectors raises a ValueError."""
        if self._torus_elements is None:
            size = self.qm1 ** self.rank
            if size > _MAX_TORUS:
                raise ValueError(
                    f"|T_q| = {size} exceeds the {_MAX_TORUS} torus vectors "
                    f"listed at desk scale"
                )
            self._torus_elements = tuple(product(range(self.qm1), repeat=self.rank))
        return self._torus_elements

    def torus_action(self, w0: int, t) -> tuple:
        """Action on T_q of the finite Weyl element with index w0, on a
        reduced torus vector t.  Memoised: the same tuple comes back for
        the same (w0, t), and the memo holds at most |W0| |T_q| entries."""
        acts = self._torus_actions[w0]
        out = acts.get(t)
        if out is None:
            M = self.weyl.elements[w0]
            out = acts[t] = tuple(e % self.qm1 for e in _mat_vec(M, t))
        return out

    def coroot_torus(self, root_index: int, e: int = 1) -> tuple:
        ac = self.rd.coroots[root_index]
        return tuple((e * c) % self.qm1 for c in ac)

    def coroot_image(self, root_index: int):
        """(alpha-check(F_q^x), |mu|) for the root: the subgroup of T_q that
        alpha-check maps F_q^x onto, and the size |mu| of the kernel of
        alpha-check on F_q^x.  alpha-check(zeta^e) is e times the coroot
        mod q - 1, so the kernel has gcd(q - 1, coroot) elements and the
        image is e alpha-check(1) for 0 <= e < (q - 1) / |mu|, listed in
        that order."""
        mu_size = gcd(self.qm1, *self.rd.coroots[root_index])
        if mu_size not in (1, 2):
            raise DataIntegrityError(
                f"coroot kernel has size {mu_size}; a reduced datum allows only 1 or 2"
            )
        image = tuple(self.coroot_torus(root_index, e) for e in range(self.qm1 // mu_size))
        return image, mu_size

    # -- the finite cocycle ---------------------------------------------------------

    def _build_cocycle(self):
        """c0[u][v] = torus part of n0(u) n0(v) relative to n0(uv), computed
        by appending v's canonical word one rank-one lift at a time; each
        descent contributes the conjugate of n_alpha^2 = alpha-check(-1)."""
        wg = self.weyl
        rd = self.rd
        order = wg.order
        e_neg = self.neg_one_exp
        positive = rd.positive
        table = [[None] * order for _ in range(order)]
        for u in range(order):
            for v in range(order):
                t = self.zero_t
                cur = u
                for gi in wg.words0[v]:
                    root = rd.simple[gi]
                    descended = not positive[wg.root_perm[cur][root]]
                    cur = wg.mult[cur][wg.gen_index[gi]]
                    if descended:
                        corr = self.coroot_torus(root, e_neg)
                        t = self._t_add(t, self.torus_action(cur, corr))
                table[u][v] = t
                if cur != wg.mult[u][v]:
                    raise TheoremViolationError("finite word does not multiply back")
        return table

    def _t_add(self, a, b):
        return tuple((x + y) % self.qm1 for x, y in zip(a, b))

    def _t_neg(self, a):
        return tuple((-x) % self.qm1 for x in a)

    # -- elements -----------------------------------------------------------------

    def own(self, x) -> None:
        """Raise GroupMismatchError unless x is an element of this group."""
        if getattr(x, "group", None) is not self:
            raise GroupMismatchError("pro-p element from a different group")

    def elt(self, t, w: ExtAffWeylElt) -> "ProPElt":
        self.weyl.own(w)
        return ProPElt(self, self.torus(t), w)

    def identity(self) -> "ProPElt":
        return ProPElt(self, self.zero_t, self.weyl.identity())

    def torus_elt(self, t) -> "ProPElt":
        return ProPElt(self, self.torus(t), self.weyl.identity())

    def reflection_lift(self, root_index: int) -> "ProPElt":
        """Canonical lift of the finite reflection at a root, built from the
        simple rank-one lifts n_k = (0, s_k) by conjugation down the height
        recursion.  alpha_k is the first simple root whose coroot pairs
        positively with the positive root alpha: alpha itself when alpha is
        simple, whose lift is n_k; otherwise s_k(alpha), read off
        WeylGroup.root_perm, has smaller height and the lift at alpha is
        n_k (lift at s_k(alpha)) n_k^{-1}.

        The element squares exactly to alpha-check(-1) and is pinned modulo
        the coroot image of alpha, which is all the in-scope relations see."""
        rd, wg = self.rd, self.weyl
        if not rd.is_positive_root(root_index):
            return self.reflection_lift(rd.neg_index(root_index))
        alpha = rd.roots[root_index]
        # simple roots pair non-positively with every other simple coroot
        k = next(k for k, i in enumerate(rd.simple) if dot(rd.coroots[i], alpha) > 0)
        nk = ProPElt(self, self.zero_t, wg.simple_reflection(k))
        if rd.simple[k] == root_index:
            return nk
        beta = wg.root_perm[wg.gen_index[k]][root_index]
        return self.mul(self.mul(nk, self.reflection_lift(beta)), self.inv(nk))

    def lift_affine_reflection(self, A: AffineRoot) -> "ProPElt":
        """Lift of the reflection at the affine root (alpha, h): the
        cocharacter lift of h alpha-check times the finite reflection lift."""
        ac = self.rd.coroots[A.root]
        trans = ProPElt(
            self,
            self.zero_t,
            self.weyl.translation(tuple(-A.h * c for c in ac)),
        )
        return self.mul(trans, self.reflection_lift(A.root))

    def lift_s(self, i: int) -> "ProPElt":
        """Lift of the i-th affine simple reflection (indexed along pi_aff);
        WeylGroup.letter rejects an unknown i."""
        return self._aff_lifts[self.weyl.letter(i)]

    def aff_image(self, i: int):
        """(alpha-check(F_q^x) as torus elements, |mu|) for the root of the
        i-th affine simple reflection: coroot_image, computed once."""
        return self._aff_images[self.weyl.letter(i)]

    def lift_omega(self, w: ExtAffWeylElt) -> "ProPElt":
        """(0, w) for a length-zero w of this group's Weyl group; another
        group's element raises GroupMismatchError, as in elt."""
        self.weyl.own(w)
        if w.length() != 0:
            raise ValueError("lift_omega expects a length-zero element")
        return ProPElt(self, self.zero_t, w)

    def lift_w(self, w: ExtAffWeylElt) -> "ProPElt":
        """Section along the canonical reduced word: the lift of the
        length-zero prefix times the rank-one lifts of the word letters.
        The torus part of the result records the accumulated n_s^2
        corrections."""
        omega, word = w.reduced_word()
        out = self.lift_omega(omega)
        for i in word:
            out = self.mul(out, self.lift_s(i))
        return out

    # -- the rank-one step shared by H, E and the coset calculus ----------------

    def step(self, s: int, y: "ProPElt", side: str = "left"):
        """(moved, translates) for n_s against y on the given side: moved is
        n_s y (y n_s on the right); translates is () when s lengthens y on
        that side, and otherwise the t y (y t) over the coroot image of s,
        the classes the quadratic relation adds on descent.

        Memoised per letter and side, keyed by y's index, and answered
        from the table only for an element of this group.  A bool, a
        non-integer or a letter out of range raises WeylGroup.letter's
        ValueError before the table is read, and a side other than 'left'
        or 'right' raises _check_side's; it never hits the table, so that
        check is made on a miss only."""
        if type(s) is not int or not 0 <= s < self._letters:
            self.weyl.letter(s)  # raises, naming s
        try:
            hit = self._steps[side][s][y.index]
            if y.group is self:
                return hit
        except KeyError:
            _check_side(side)
        ns = self._aff_lifts[s]
        left = side == "left"
        moved = self.mul(ns, y) if left else self.mul(y, ns)
        if moved.w.length() == y.w.length() + 1:
            result = moved, ()
        else:
            image, _ = self._aff_images[s]
            result = moved, tuple(self.mul(t, y) if left else self.mul(y, t)
                                  for t in image)
        self._steps[side][s][y.index] = result
        return result

    def peel(self, x: "ProPElt", tie: str = "min"):
        """(s, x n_s^{-1}) for s the smallest right descent of x's Weyl
        part (the largest for tie 'max'), the last letter of its canonical
        reduced word for 'min'.  Memoised per tie, keyed by x's index, and
        answered from the table only for an element of this group; a tie
        other than 'min' or 'max' and an x of length zero are never
        stored, and raise a ValueError on the miss path."""
        try:
            hit = self._peels[tie][x.index]
            if x.group is self:
                return hit
        except KeyError:
            _check_tie("tie", tie)
        ds = x.w.descents("right")
        if not ds:
            raise ValueError("peel needs x of positive length, got length 0")
        s = ds[0] if tie == "min" else ds[-1]
        result = self._peels[tie][x.index] = s, self.mul(x, self.inv(self._aff_lifts[s]))
        return result

    # -- group law ---------------------------------------------------------------

    def mul(self, x: "ProPElt", y: "ProPElt") -> "ProPElt":
        if x.group is not self or y.group is not self:
            self.own(x)
            self.own(y)
        prod = x._prods.get(y.index)
        if prod is None:
            t = self._t_add(
                self._t_add(x.t, self.torus_action(x.w.w0, y.t)),
                self._cocycle[x.w.w0][y.w.w0],
            )
            prod = x._prods[y.index] = ProPElt(self, t, x.w * y.w)
        return prod

    def inv(self, x: "ProPElt") -> "ProPElt":
        self.own(x)
        if x._inv is None:
            w0 = x.w.w0
            w0inv = self.weyl.inv0[w0]
            t = self._t_neg(
                self.torus_action(
                    w0inv, self._t_add(x.t, self._cocycle[w0][w0inv])
                )
            )
            x._inv = ProPElt(self, t, x.w.inv())
        return x._inv

    # -- construction-time verification ----------------------------------------------

    def section_self_check(self):
        """The affine simple reflection lifts must square to alpha-check(-1)
        and conjugate the torus by the underlying reflection; this pins the
        section used for the normal form up to coroot-image translates,
        which is exactly the ambiguity the relations tolerate."""
        for i, A in enumerate(self.weyl.s_aff):
            ns = self.lift_s(i)
            if ns.w != self.weyl.aff_gen(i):
                raise TheoremViolationError("affine reflection lift projects wrongly")
            sq = self.mul(ns, ns)
            expected = self.torus_elt(self.coroot_torus(A.root, self.neg_one_exp))
            if sq != expected:
                raise TheoremViolationError("n_s^2 != alpha-check(-1) in the model")
            for t in ([self.zero_t] + [self.coroot_torus(j) for j in self.rd.simple]):
                lhs = self.mul(self.mul(ns, self.torus_elt(t)), self.inv(ns))
                rhs = self.torus_elt(self.torus_action(ns.w.w0, t))
                if lhs != rhs:
                    raise TheoremViolationError("torus conjugation relation fails")

    def __repr__(self):
        tag = self.rd.name or f"rank{self.rank}"
        return f"ProPWeyl({tag}, q={self.q})"


class ProPElt:
    """Normal-form element t . n(w) of the pro-p Weyl group.

    Interned: constructing (group, t, w) twice returns the same object,
    so ProPWeyl.mul and ProPWeyl.inv memoise their results on it, the
    products keyed by the right operand's index.  index is its position
    in group.by_index, and unit = {index: 1} is tau or phi of the element
    as index terms, built once at interning: the recursions of H and E
    answer a length-zero factor with the unit of a group product.  It is
    shared and read-only, like every memo value; no element may adopt
    it."""

    __slots__ = ("group", "t", "w", "index", "unit", "_prods", "_inv")

    def __new__(cls, group: ProPWeyl, t: tuple, w: ExtAffWeylElt):
        key = (t, w)
        self = group._interned.get(key)
        if self is None:
            self = object.__new__(cls)
            self.group = group
            self.t = t
            self.w = w
            self.index = len(group.by_index)
            self.unit = {self.index: 1}
            self._prods = {}  # right operand's index -> product
            self._inv = None
            group._interned[key] = self
            group.by_index.append(self)
        return self

    def __hash__(self):
        return self.index

    @property
    def w0(self):
        return self.w.w0

    @property
    def mu(self):
        return self.w.mu

    def __mul__(self, other):
        return self.group.mul(self, other)

    def inv(self):
        return self.group.inv(self)

    def length(self) -> int:
        return self.w.length()

    def is_identity(self) -> bool:
        return not any(self.t) and self.w.is_identity()

    def sort_key(self):
        return (self.w.length(), self.w.w0, self.w.mu, self.t)

    def to_json(self):
        return {"torus": list(self.t), "w": self.w.to_json()}

    @classmethod
    def from_json(cls, group: ProPWeyl, data) -> "ProPElt":
        if not isinstance(data, dict) or "w" not in data:
            raise ValueError(f"element must be a JSON object with a \"w\" field, got {data!r}")
        t = data.get("torus", group.zero_t)
        if not _int_vector(t, group.rank):
            raise ValueError(f"element torus must be {group.rank} integers, got {t!r}")
        return group.elt(t, ExtAffWeylElt.from_json(group.weyl, data["w"]))

    def __repr__(self):
        return f"g[t={list(self.t)}, {self.w!r}]"


def basis_elements(group: ProPWeyl, max_len: int):
    """All (t, w) with length(w) <= max_len, in a canonical order."""
    ws = group.weyl.elements_up_to_length(max_len)
    out = [
        ProPElt(group, t, w)
        for w in ws
        for t in group.torus_elements()
    ]
    out.sort(key=ProPElt.sort_key)
    return out
