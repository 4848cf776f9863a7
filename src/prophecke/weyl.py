"""The extended affine Weyl group W = W_0 x| Lambda of a based root datum.

An element is a pair (w0, mu) standing for the transformation
x |-> w0(x + mu) of the standard apartment: translation by mu in the
cocharacter lattice first, then the finite part.  Products, the action
on affine roots, the length function, reduced words over the affine
simple reflections, the length-zero subgroup Omega, and the parity
invariant coupling negation-stable root orbits to length all live here.
One rule strips every reduced word: a finite element has no affine
descent, so its canonical word words0 is its affine reduced word.

Omega is computed exactly, with no search: it is isomorphic to
Lambda/Q-check, whose invariants and generator lifts come from the
Smith normal form of the simple coroots, and the one length-zero
element of the class of mu is the prefix of the reduced word of the
translation t_mu.

The length of (w0, mu) is computed per root alpha by counting the
integers h for which (alpha, h) is a positive affine root sent negative;
the closed form is validated against a brute-force scan at construction
time and again, much harder, by the length_oracle test suite.  The scan
of one root, _scan_root, walks |h| <= |<mu, alpha>| + 1 on integers and
depends only on the two positivity flags and the shift -<mu, alpha>, so
the construction-time check scans each distinct triple once per build.

Elements are hash-consed per group: WeylGroup._interned maps each normal
form (w0, mu) to its one ExtAffWeylElt, so equal elements of one group
are the same object, and both equality and the hash are identity.  An
element's products (keyed by the right operand) and inverse are memoised
on it for the lifetime of the group; its length and reduced words are
memoised in the group's tables, one memo each: _len_cache keyed by the
element and _word_cache keyed by (element, tie rule).
"""

from __future__ import annotations

from itertools import product as iproduct

from .errors import GroupMismatchError, TheoremViolationError
from .gf import _is_int
from .rootdata import AffineRoot, RootDatum, dot

# For infinite Omega, element enumeration uses the length-zero prefixes
# whose generator exponents lie in [-2, 2].
_OMEGA_WINDOW = 2

# The multiplication table and the cocycle of ProPWeyl hold |W0|^2
# entries, and the construction-time checks grow with |W0| as well; the
# largest finite Weyl group this library builds is B3's, of order 48.
_MAX_W0_ORDER = 48


def _mat_vec(M, v):
    return tuple(sum(M[i][j] * v[j] for j in range(len(v))) for i in range(len(M)))


def _mat_mul(A, B):
    n = len(A)
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _reflection_matrix(a, ac):
    """Matrix on X_* of the reflection x |-> x - <x, a> ac."""
    n = len(a)
    return tuple(
        tuple((1 if r == c else 0) - ac[r] * a[c] for c in range(n)) for r in range(n)
    )


class WeylGroup:
    """Finite Weyl group table plus the affine machinery built on it.

    For each element we store its matrix on X_* (used on translation
    parts and on the torus quotient later), the induced permutation of
    the root list, a canonical reduced word in the finite generators,
    inverses, and the finite length.
    """

    def __init__(self, rd: RootDatum):
        self._interned = {}  # (w0, mu) -> its one ExtAffWeylElt
        self.rd = rd
        self.rank = rd.rank
        gens = [_reflection_matrix(rd.roots[i], rd.coroots[i]) for i in rd.simple]
        ident = _identity_matrix(rd.rank)
        elements = [ident]
        index = {ident: 0}
        for M in elements:  # grows while walked, so breadth first
            for g in gens:
                P = _mat_mul(M, g)  # right multiplication
                if P not in index:
                    index[P] = len(elements)
                    elements.append(P)
                    if len(elements) > _MAX_W0_ORDER:
                        raise ValueError(
                            f"finite Weyl group has more than {_MAX_W0_ORDER} "
                            f"elements; exceeds desk scale"
                        )
        self.elements = elements
        self.index = index
        self.order = len(elements)
        self.gen_index = [index[g] for g in gens]

        # Root permutations: the root paired with the image coroot
        # M(coroot_j) is w(root_j), since the root/coroot correspondence
        # is equivariant; this avoids inverting M for the X^* action.
        nroots = len(rd.roots)
        cor_index = {v: i for i, v in enumerate(rd.coroots)}
        self.root_perm = [
            tuple(cor_index[_mat_vec(M, rd.coroots[j])] for j in range(nroots))
            for M in elements
        ]

        self.mult = [
            [index[_mat_mul(A, B)] for B in elements] for A in elements
        ]
        self.inv0 = [row.index(0) for row in self.mult]

        self.s_aff = rd.pi_aff()
        self._aff_gen = [self.affine_reflection(A) for A in self.s_aff]
        self._len_cache = {}  # element -> length
        self._word_cache = {}  # (element, tie) -> reduced_word result
        self._omega = None
        # (w0, 0) sends each (m_c, 1) to (w0 m_c, 1), so it has no affine
        # descent and its canonical word is a word in the finite generators.
        self.words0 = [self.elt(i).reduced_word()[1] for i in range(self.order)]
        self.length0 = [len(w) for w in self.words0]
        self._sanity_check_length()

    def stats(self) -> dict:
        """The entry count of each memo: lengths and reduced words."""
        return {"length": len(self._len_cache), "reduced_word": len(self._word_cache)}

    # -- construction-time check ------------------------------------------------

    def _sanity_check_length(self):
        """Check length() on every finite element times the translations
        in [-2, 2]^rank ([-1, 1]^rank above rank 2) against the sum of
        _scan_root over the roots, as length_bruteforce sums it.  Root i
        of (w0, mu) scans (positive[i], positive[perm[i]], -<mu, alpha_i>),
        and the few distinct triples are scanned once per call."""
        box = [-2, -1, 0, 1, 2] if self.rank <= 2 else [-1, 0, 1]
        positive = self.rd.positive
        shifts = [
            (mu, [-dot(mu, alpha) for alpha in self.rd.roots])
            for mu in iproduct(box, repeat=self.rank)
        ]
        scans = {}  # (src_positive, img_positive, shift) -> _scan_root count
        for w0, perm in enumerate(self.root_perm):
            flags = [(positive[i], positive[j]) for i, j in enumerate(perm)]
            for mu, mu_shifts in shifts:
                w = self.elt(w0, mu)
                scan = 0
                for (src, img), shift in zip(flags, mu_shifts):
                    key = (src, img, shift)
                    count = scans.get(key)
                    if count is None:
                        count = scans[key] = _scan_root(src, img, shift)
                    scan += count
                if w.length() != scan:
                    raise TheoremViolationError(
                        f"closed-form length disagrees with scan at {w}"
                    )

    # -- element constructors ---------------------------------------------------

    def elt(self, w0: int = 0, mu=None) -> "ExtAffWeylElt":
        if mu is None:
            mu = (0,) * self.rank
        return ExtAffWeylElt(self, w0, tuple(mu))

    def identity(self) -> "ExtAffWeylElt":
        return self.elt()

    def simple_reflection(self, i: int) -> "ExtAffWeylElt":
        """Finite simple reflection s_i as an extended affine element."""
        return self.elt(self.gen_index[i])

    def translation(self, mu) -> "ExtAffWeylElt":
        return self.elt(0, tuple(mu))

    def affine_reflection(self, A: AffineRoot) -> "ExtAffWeylElt":
        """s_(alpha,h) = s_alpha composed with translation by h alpha-check."""
        ac = self.rd.coroots[A.root]
        M = _reflection_matrix(self.rd.roots[A.root], ac)
        return self.elt(self.index[M], tuple(A.h * c for c in ac))

    def aff_gen(self, i: int) -> "ExtAffWeylElt":
        """The i-th affine simple reflection, indexed along pi_aff."""
        return self._aff_gen[i]

    def from_word(self, w0_word, mu=None) -> "ExtAffWeylElt":
        w0 = 0
        for i in w0_word:
            w0 = self.mult[w0][self.gen_index[i]]
        return self.elt(w0, mu)

    # -- element enumeration ------------------------------------------------------

    def omega(self) -> "OmegaGroup":
        if self._omega is None:
            self._omega = omega_group(self)
        return self._omega

    def elements_of_length(self, n: int):
        """All w with length exactly n, none for n < 0.  For infinite
        Omega only the window |coefficients| <= _OMEGA_WINDOW of length-zero
        prefixes is used, so the result is a finite slice of each length
        stratum."""
        return self._strata(n)[n] if n >= 0 else []

    def elements_up_to_length(self, n: int):
        """All w with length at most n, shortest first; none for n < 0."""
        return [w for stratum in self._strata(n) for w in stratum] if n >= 0 else []

    def _strata(self, n: int):
        zero = self.omega().window(_OMEGA_WINDOW)
        strata = [zero]
        seen = set(zero)
        for ln in range(1, n + 1):
            nxt = []
            for w in strata[ln - 1]:
                for g in self._aff_gen:
                    v = w * g
                    if v not in seen and v.length() == ln:
                        seen.add(v)
                        nxt.append(v)
            strata.append(nxt)
        return strata


class ExtAffWeylElt:
    """Element w0 . t_mu of the extended affine Weyl group.

    Interned: constructing (group, w0, mu) twice returns the same object,
    so products and the inverse are memoised on the element, and the
    length and reduced words in the group's _len_cache and _word_cache."""

    __slots__ = ("group", "w0", "mu", "_prods", "_inv")

    def __new__(cls, group: WeylGroup, w0: int, mu: tuple):
        key = (w0, mu)
        self = group._interned.get(key)
        if self is None:
            self = object.__new__(cls)
            self.group = group
            self.w0 = w0
            self.mu = mu
            self._prods = {}  # right operand -> product
            self._inv = None
            group._interned[key] = self
        return self

    def __mul__(self, other: "ExtAffWeylElt") -> "ExtAffWeylElt":
        g = self.group
        if other.group is not g:
            raise GroupMismatchError("elements of different Weyl groups")
        prod = self._prods.get(other)
        if prod is None:
            binv = g.inv0[other.w0]
            mu = tuple(
                a + b
                for a, b in zip(_mat_vec(g.elements[binv], self.mu), other.mu)
            )
            prod = self._prods[other] = ExtAffWeylElt(g, g.mult[self.w0][other.w0], mu)
        return prod

    def inv(self) -> "ExtAffWeylElt":
        if self._inv is None:
            g = self.group
            winv = g.inv0[self.w0]
            mu = tuple(-c for c in _mat_vec(g.elements[self.w0], self.mu))
            self._inv = ExtAffWeylElt(g, winv, mu)
        return self._inv

    def is_identity(self) -> bool:
        return self.w0 == 0 and not any(self.mu)

    def is_affine(self) -> bool:
        """Whether the element lies in the affine Weyl group, i.e. its
        length-zero prefix is trivial."""
        omega, _ = self.reduced_word()
        return omega.is_identity()

    def act_affine(self, A: AffineRoot) -> AffineRoot:
        """(alpha, h) |-> (w0(alpha), h - <mu, alpha>)."""
        g = self.group
        return AffineRoot(
            g.root_perm[self.w0][A.root],
            A.h - dot(self.mu, g.rd.roots[A.root]),
        )

    def length(self) -> int:
        try:
            return self.group._len_cache[self]
        except KeyError:
            pass
        g = self.group
        positive = g.rd.positive
        perm = g.root_perm[self.w0]
        mu = self.mu
        total = 0
        for i, alpha in enumerate(g.rd.roots):
            # With delta 1 on a negative root and 0 on a positive one, the
            # h with (alpha, h) positive and sent negative number
            # delta_img - delta_src + <mu, alpha>, when that is positive;
            # delta_img - delta_src is positive[i] - positive[perm[i]].
            total += max(0, positive[i] - positive[perm[i]] + dot(mu, alpha))
        g._len_cache[self] = total
        return total

    def descents(self, side: str = "right"):
        """Indices into pi_aff of the affine simple reflections shortening
        this element on the given side."""
        if side == "left":
            return self.inv().descents("right")
        if side != "right":
            raise ValueError("side must be 'left' or 'right'")
        g = self.group
        out = []
        for i, A in enumerate(g.s_aff):
            if not g.rd.is_positive_affine(self.act_affine(A)):
                out.append(i)
        return out

    def reduced_word(self, tie: str = "min"):
        """Canonical decomposition (omega, [i_1..i_l]) with
        w = omega . s_{i_1} ... s_{i_l}, l = length(w), length(omega) = 0.

        The word is built right to left by stripping, at every step, the
        smallest-index right descent (largest for tie='max'; any tie rule
        yields a reduced word, by the exchange condition).  Any other tie
        raises a ValueError; it never hits the memo, so the check is made
        on a miss only."""
        g = self.group
        key = (self, tie)
        cached = g._word_cache.get(key)
        if cached is not None:
            return cached
        if tie not in ("min", "max"):
            raise ValueError(f"tie must be 'min' or 'max', got {tie!r}")
        word = []
        cur = self
        while True:
            ds = cur.descents("right")
            if not ds:
                break
            i = ds[0] if tie == "min" else ds[-1]
            word.insert(0, i)
            cur = cur * g._aff_gen[i]
        if len(word) != self.length():
            # (w0, mu), not repr: words0 is built by this method
            raise TheoremViolationError(
                f"descent stripping of {(self.w0, self.mu)} is not reduced"
            )
        result = g._word_cache[key] = (cur, tuple(word))
        return result

    def all_reduced_words(self):
        """Every reduced word of the affine part (same omega prefix)."""
        if self.length() == 0:
            return [()]
        g = self.group
        out = []
        for i in self.descents("right"):
            shorter = self * g._aff_gen[i]
            out.extend(w + (i,) for w in shorter.all_reduced_words())
        return out

    def to_json(self):
        return {"w0_word": list(self.group.words0[self.w0]), "mu": list(self.mu)}

    @classmethod
    def from_json(cls, group: WeylGroup, data) -> "ExtAffWeylElt":
        if not isinstance(data, dict):
            raise ValueError(f"element w must be a JSON object, got {data!r}")
        word = data.get("w0_word", [])
        gens = range(len(group.gen_index))
        if not isinstance(word, (list, tuple)) or not all(
            _is_int(i) and i in gens for i in word
        ):
            raise ValueError(
                f"element w0_word must list simple reflection indices below "
                f"{len(gens)}, got {word!r}"
            )
        mu = data.get("mu")
        if mu is not None and not _int_vector(mu, group.rank):
            raise ValueError(f"element mu must be {group.rank} integers, got {mu!r}")
        return group.from_word(word, mu)

    def __repr__(self):
        return f"w[{'.'.join(map(str, self.group.words0[self.w0])) or 'e'}; {list(self.mu)}]"


def _int_vector(v, n: int) -> bool:
    """Whether v is a list or tuple of n integers."""
    return isinstance(v, (list, tuple)) and len(v) == n and all(map(_is_int, v))


def _scan_root(src_positive: bool, img_positive: bool, shift: int) -> int:
    """Number of h for which (alpha, h) is a positive affine root and
    (beta, h + shift) a negative one, where alpha and beta have the given
    positivity.  Positivity is tested on plain integers, as
    RootDatum.is_positive_affine does: h > 0, or h = 0 and the root is
    positive.  Only 0 <= h <= -shift can count, so the walk over
    |h| <= |shift| + 1 misses none."""
    bound = abs(shift) + 1
    count = 0
    for h in range(-bound, bound + 1):
        k = h + shift
        if (h > 0 or (h == 0 and src_positive)) and not (
            k > 0 or (k == 0 and img_positive)
        ):
            count += 1
    return count


def length_bruteforce(w: ExtAffWeylElt) -> int:
    """Independent oracle: count the positive affine roots that w sends
    negative, root by root.

    w sends (alpha, h) to (w0(alpha), h + c) with (w0(alpha), c) the image
    of (alpha, 0), so each root's image is taken once through act_affine
    and _scan_root walks the h that can flip."""
    positive = w.group.rd.positive
    total = 0
    for i, src_positive in enumerate(positive):
        B = w.act_affine(AffineRoot(i, 0))
        total += _scan_root(src_positive, positive[B.root], B.h)
    return total


class OmegaGroup:
    """The abelian subgroup of length-zero elements, W = Omega x| W_aff.

    Omega is isomorphic to Lambda/Q-check, and each class holds exactly
    one length-zero element.  When the quotient is finite, elements
    lists all of it, sorted by (w0, mu), and generators is its
    non-identity elements.  Otherwise finite=False, elements is empty and
    generators holds one element per invariant other than 1, torsion and
    free alike, sorted by (sum |mu|, w0, mu).
    """

    __slots__ = ("group", "finite", "invariants", "elements", "generators")

    def __init__(self, group: WeylGroup, finite: bool, invariants: tuple,
                 elements: list, generators: list):
        self.group = group
        self.finite = finite
        self.invariants = invariants  # Smith normal form diagonal of Lambda/coroot-lattice
        self.elements = elements  # full list when finite
        self.generators = generators  # length-zero generators of Lambda/Q-check

    @property
    def order(self):
        if not self.finite:
            return None
        return len(self.elements)

    def window(self, width: int):
        """Finite slice of Omega: products of generators with exponents in
        [-width, width]; equals the full group when finite."""
        if self.finite:
            return list(self.elements)
        out = []
        seen = set()
        for exps in iproduct(range(-width, width + 1), repeat=len(self.generators)):
            w = self.group.identity()
            for g, e in zip(self.generators, exps):
                step = g if e >= 0 else g.inv()
                for _ in range(abs(e)):
                    w = w * step
            if w not in seen:
                seen.add(w)
                out.append(w)
        return out


def _smith_normal_form(mat):
    """Diagonal d of an integer elimination of mat (list of rows), plus
    U^-1, the inverse of its row operations U.  U mat V is diagonal for
    some unimodular V, so Z^rows modulo the column lattice of mat is the
    sum of Z/d_i and of one Z per row past d; column i of U^-1 lifts the
    generator of the i-th summand."""
    A = [row[:] for row in mat]
    rows, cols = len(A), len(A[0]) if A else 0
    uinv = [[int(i == j) for j in range(rows)] for i in range(rows)]

    def find_pivot(r, c):
        piv, best = None, None
        for i in range(r, rows):
            for j in range(c, cols):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < best):
                    piv, best = (i, j), abs(A[i][j])
        return piv

    diag = []
    r = c = 0
    while r < rows and c < cols:
        piv = find_pivot(r, c)
        if piv is None:
            break
        while True:
            i, j = piv
            A[r], A[i] = A[i], A[r]
            for row in uinv:
                row[r], row[i] = row[i], row[r]
            for row in A:
                row[c], row[j] = row[j], row[c]
            p = A[r][c]
            clean = True
            for i in range(r + 1, rows):
                if A[i][c]:
                    q = A[i][c] // p
                    A[i] = [x - q * y for x, y in zip(A[i], A[r])]
                    for row in uinv:
                        row[r] += q * row[i]
                    if A[i][c]:
                        clean = False
            for j in range(c + 1, cols):
                if A[r][j]:
                    q = A[r][j] // p
                    for i in range(rows):
                        A[i][j] -= q * A[i][c]
                    if A[r][j]:
                        clean = False
            if clean:
                break
            piv = find_pivot(r, c)
        diag.append(abs(A[r][c]))
        r += 1
        c += 1
    return diag, uinv


def omega_group(weyl: WeylGroup) -> OmegaGroup:
    """Omega from the Smith normal form of the simple coroots.  The
    classes of U^-1 y are listed by 0 <= y_i < d_i when Omega is finite,
    and generated by the unit vectors y = e_i with d_i != 1 otherwise;
    each maps to the length-zero prefix of its translation, and of a
    generator and its inverse the smaller by the sort key is kept."""
    rd = weyl.rd
    rank = weyl.rank
    mat = [[rd.coroots[j][i] for j in rd.simple] for i in range(rank)]
    diag, uinv = _smith_normal_form(mat)
    invariants = tuple(diag) + (0,) * (rank - len(diag))

    def prefix(y):
        """The length-zero element in the class of U^-1 y."""
        return weyl.translation(_mat_vec(uinv, y)).reduced_word()[0]

    if 0 not in invariants:
        elements = sorted(
            (prefix(y) for y in iproduct(*map(range, invariants))),
            key=lambda w: (w.w0, w.mu),
        )
        gens = [w for w in elements if not w.is_identity()]
        return OmegaGroup(weyl, True, invariants, elements, gens)

    def key(w):
        return (sum(abs(c) for c in w.mu), w.w0, w.mu)

    gens = []
    for i, d in enumerate(invariants):
        if d != 1:
            g = prefix(tuple(int(j == i) for j in range(rank)))
            gens.append(min(g, g.inv(), key=key))
    return OmegaGroup(weyl, False, invariants, [], sorted(gens, key=key))


def lemma_even(w: ExtAffWeylElt):
    """Count orbits of the cyclic group generated by the finite part of w
    on the root set that are stable under negation, and report whether
    that count plus the length of w is even."""
    g = w.group
    perm = g.root_perm[w.w0]
    rd = g.rd
    n = len(rd.roots)
    seen = [False] * n
    N = 0
    for start in range(n):
        if seen[start]:
            continue
        orbit = []
        cur = start
        while not seen[cur]:
            seen[cur] = True
            orbit.append(cur)
            cur = perm[cur]
        oset = set(orbit)
        if {rd.neg_index(i) for i in oset} == oset:
            N += 1
    return N, (N + w.length()) % 2 == 0
