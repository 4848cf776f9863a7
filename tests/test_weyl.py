"""Extended affine Weyl group: affine action, length, words, Omega, parity."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from prophecke.errors import GroupMismatchError, TheoremViolationError
from prophecke.rootdata import PRESET_NAMES, AffineRoot, RootDatum, dot, preset
from prophecke.weyl import (
    ExtAffWeylElt,
    WeylGroup,
    _scan_root,
    _smith_normal_form,
    lemma_even,
    length_bruteforce,
    omega_group,
)

from conftest import EXPLICIT_GROUPS, get_context, get_explicit_context


def wg(name):
    return get_context(name, 3).weyl


def test_act_affine_examples():
    g = wg("SL2")
    alpha = g.rd.simple[0]
    A = AffineRoot(alpha, 0)
    assert g.identity().act_affine(A) == A
    t = g.translation((1,))  # translation by the simple coroot
    assert t.act_affine(A) == AffineRoot(alpha, -2)
    s = g.simple_reflection(0)
    assert s.act_affine(A) == AffineRoot(g.rd.neg_index(alpha), 0)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 5),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.integers(0, 5),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.integers(0, 5),
    st.integers(-3, 3),
)
def test_act_affine_is_group_action(w0a, mua, w0b, mub, ridx, h):
    g = wg("SL3")
    v = g.elt(w0a % g.order, mua)
    w = g.elt(w0b % g.order, mub)
    A = AffineRoot(ridx % len(g.rd.roots), h)
    assert (v * w).act_affine(A) == v.act_affine(w.act_affine(A))


def test_length_examples():
    g = wg("SL2")
    assert g.identity().length() == 0
    assert g.simple_reflection(0).length() == 1
    t = g.translation((1,))
    # brute-force oracle, frozen by hand: <mu, alpha> = 2, and exactly
    # (alpha,0) and (alpha,1) flip, so the length is 2
    assert length_bruteforce(t) == 2
    assert t.length() == 2


@pytest.mark.parametrize("name", ["SL2", "PGL2", "SL3", "Sp4", "SL2xSL2"])
def test_length_closed_form_vs_oracle(name):
    g = wg(name)
    for w in g.elements_up_to_length(4):
        assert w.length() == length_bruteforce(w)
        assert w.length() == w.inv().length()


def test_descents_examples():
    g = wg("SL2")
    assert g.identity().descents("right") == []
    s = g.simple_reflection(0)
    assert s.descents("right") == [0] == s.descents("left")
    t = g.translation((1,))
    assert len(t.descents("right")) == 1


def test_reduced_word_examples():
    g = wg("SL2")
    om, word = g.identity().reduced_word()
    assert word == () and om == g.identity()
    t = g.translation((1,))
    om, word = t.reduced_word()
    assert len(word) == 2 and om.is_identity()
    acc = om
    for i in word:
        acc = acc * g.aff_gen(i)
    assert acc == t
    # smallest-index tie break: the word starts with the smaller descent
    assert word == (1, 0) or word == (0, 1)


def test_pgl2_translation_has_omega_part():
    # the fundamental-coweight translation: length 1 (brute force), one
    # word letter, and a nontrivial length-zero prefix
    g = wg("PGL2")
    t = g.translation((1,))
    assert length_bruteforce(t) == 1 == t.length()
    om, word = t.reduced_word()
    assert len(word) == 1
    assert om.length() == 0 and not om.is_identity()
    acc = om
    for i in word:
        acc = acc * g.aff_gen(i)
    assert acc == t


def test_omega_groups():
    assert [w.is_identity() for w in wg("SL2").omega().elements] == [True]
    om2 = wg("PGL2").omega()
    assert om2.finite and om2.order == 2
    # closure: the nontrivial element squares back into the group
    a = [w for w in om2.elements if not w.is_identity()][0]
    assert (a * a) in set(om2.elements)
    omg = omega_group(wg("GL2"))
    assert not omg.finite
    assert omg.invariants == (1, 0)
    assert [(x.w0, x.mu) for x in omg.generators] == [(1, (-1, 0))]
    assert [(x.w0, x.mu) for x in wg("GL3").omega().generators] == [(3, (0, 0, 1))]
    for name, order in [("SL3", 1), ("Sp4", 1), ("G2sc", 1), ("SL2xSL2", 1)]:
        assert wg(name).omega().order == order


def _det(m):
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


# X_* = Z^2 with the one simple coroot (2, 3): its coroot matrix [[2], [3]]
# needs a second pivot on the row side, which no preset or explicit datum
# does, and Omega = Z^2 / Z(2, 3) is Z.
ROW_REPIVOT = {"rank": 2, "roots": [[1, 0], [-1, 0]], "coroots": [[2, 3], [-2, -3]],
               "simple": [0]}


@pytest.mark.parametrize("name", PRESET_NAMES + tuple(EXPLICIT_GROUPS))
def test_omega_is_exact(name):
    _check_omega_exact(wg(name) if name in PRESET_NAMES else get_explicit_context(name).weyl)


def test_omega_is_exact_after_a_row_repivot():
    g = WeylGroup(RootDatum.from_json(ROW_REPIVOT))
    assert g.omega().invariants == (1, 0) and not g.omega().finite
    # the prefix of t_(1, 0) is the cube of the one generator
    _check_omega_exact(g, width=3)


def _check_omega_exact(g, width=2):
    """Omega's elements have length zero, the unit translations' prefixes
    lie in its window of the given width, and the Smith form's lifts are
    sound."""
    om = g.omega()
    assert all(w.length() == 0 for w in om.elements + om.generators)
    window = om.window(width)
    if om.finite:
        assert window == om.elements
        assert len(set(om.elements)) == len(om.elements) == math.prod(om.invariants)
        assert {a * b for a in om.elements for b in om.elements} <= set(om.elements)
    for i in range(g.rank):
        e = tuple(int(j == i) for j in range(g.rank))
        assert g.translation(e).reduced_word()[0] in window
    rd = g.rd
    mat = [[rd.coroots[j][i] for j in rd.simple] for i in range(g.rank)]
    diag, uinv = _smith_normal_form(mat)
    assert abs(_det(uinv)) == 1
    # d_i times the i-th generator's lift lies in the coroot lattice
    for i, d in enumerate(diag):
        assert g.translation([d * row[i] for row in uinv]).is_affine()


def _invariant_factors(mat):
    """Nonzero invariant factors from the determinantal divisors: g_k is the
    gcd of the k x k minors, and the k-th factor is g_k / g_(k-1)."""
    rows, cols = len(mat), len(mat[0])
    out, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        g = math.gcd(*(
            _det([[mat[i][j] for j in cs] for i in rs])
            for rs in itertools.combinations(range(rows), k)
            for cs in itertools.combinations(range(cols), k)
        ))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def _check_smith(mat):
    diag, uinv = _smith_normal_form(mat)
    assert all(diag)
    # the same group Z^rows / (columns of mat), whether or not the
    # diagonal is in divisibility order
    assert _invariant_factors([[d * (i == j) for j in range(len(diag))]
                               for i, d in enumerate(diag)] or [[0]]) == _invariant_factors(mat)
    n = len(uinv)
    det = _det(uinv)
    assert abs(det) == 1
    # U = adj(U^-1) / det; row i of U mat is d_i times an integer row
    u = [[(-1) ** (i + j) * det * _det([r[:i] + r[i + 1:] for k, r in enumerate(uinv) if k != j])
          for j in range(n)] for i in range(n)]
    umat = [[sum(a * b for a, b in zip(row, col)) for col in zip(*mat)] for row in u]
    for i, row in enumerate(umat):
        d = diag[i] if i < len(diag) else 0
        assert all(x % d == 0 for x in row) if d else not any(row), (mat, diag, umat)


def test_smith_normal_form_repivots():
    assert _smith_normal_form([[2], [3]])[0] == [1]  # the row side
    assert _smith_normal_form([[2, 3]])[0] == [1]  # the column side
    _check_smith([[2], [3]])
    _check_smith([[2, 3]])


def test_smith_normal_form_on_random_matrices():
    rng = random.Random(15)
    for _ in range(400):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        _check_smith([[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)])


def test_length_constant_on_omega_double_cosets():
    g = wg("PGL2")
    om = g.omega().elements
    for w in g.elements_up_to_length(4):
        for o1 in om:
            for o2 in om:
                assert (o1 * w * o2).length() == w.length()


def test_lemma_even_identity_and_reflections():
    for name in ("SL2", "SL3", "Sp4", "G2sc"):
        g = wg(name)
        N, ok = lemma_even(g.identity())
        assert N == 0 and ok
        # every reflection: exactly one negation-stable orbit
        for i in range(len(g.rd.roots)):
            s = g.affine_reflection(AffineRoot(i, 0))
            N, ok = lemma_even(s)
            assert N == 1 and ok


def test_lemma_even_coxeter_element():
    g = wg("SL3")
    c = g.simple_reflection(0) * g.simple_reflection(1)
    N, ok = lemma_even(c)
    assert ok


@pytest.mark.parametrize("name", ["SL2", "PGL2", "SL3", "Sp4"])
def test_lemma_even_exhaustive_small(name):
    g = wg(name)
    for w0 in range(g.order):
        assert lemma_even(g.elt(w0))[1]
    for w in g.elements_up_to_length(3):
        # parity holds exactly on classes whose length-zero prefix has
        # determinant one; only PGL2 here has the other classes
        omega, _ = w.reduced_word()
        expected = g.length0[omega.w0] % 2 == 0
        assert lemma_even(w)[1] == expected


def test_lemma_even_defect_on_pgl2():
    # the orientation-reversing length-zero element: N = 1, length = 0,
    # so the naive parity statement fails; this pins the boundary of the
    # theorem (it lives on the subgroup generated by reflections)
    g = wg("PGL2")
    omega = [w for w in g.omega().elements if not w.is_identity()][0]
    assert g.length0[omega.w0] % 2 == 1  # finite part is the reflection
    N, ok = lemma_even(omega)
    assert N == 1 and not ok


def test_length_subadditive_and_word_concat():
    g = wg("SL3")
    els = g.elements_up_to_length(3)
    for v in els[:20]:
        for w in els[:20]:
            vw = v * w
            assert vw.length() <= v.length() + w.length()
            # additivity happens exactly when appending w's word to v
            # ascends at every step (the concatenation stays reduced)
            _, word_w = w.reduced_word()
            omega_w, _ = w.reduced_word()
            cur = v * omega_w
            ascends = True
            for i in word_w:
                nxt = cur * g.aff_gen(i)
                if nxt.length() != cur.length() + 1:
                    ascends = False
                    break
                cur = nxt
            assert ascends == (vw.length() == v.length() + w.length())


def test_is_affine():
    g = wg("PGL2")
    assert g.identity().is_affine()
    assert g.aff_gen(0).is_affine()
    omega = [w for w in g.omega().elements if not w.is_identity()][0]
    assert not omega.is_affine()
    assert not g.translation((1,)).is_affine()  # the coweight class
    assert g.translation((2,)).is_affine()  # the coroot itself
    for name in ("SL2", "SL3", "Sp4"):
        assert all(w.is_affine() for w in wg(name).elements_up_to_length(3))


def test_element_json_round_trip():
    g = wg("SL3")
    for w in g.elements_up_to_length(3):
        data = w.to_json()
        from prophecke.weyl import ExtAffWeylElt

        assert ExtAffWeylElt.from_json(g, data) == w


def test_mul_rejects_other_group():
    g1, g2 = WeylGroup(preset("SL2")), WeylGroup(preset("SL2"))
    s1, s2 = g1.simple_reflection(0), g2.simple_reflection(0)
    assert s1 is not s2 and s1 != s2
    with pytest.raises(GroupMismatchError):
        s1 * s2
    with pytest.raises(ValueError):  # callers catching ValueError still do
        s2 * s1


# -- differential oracle for the memoised group law --------------------------------


def _mat_mul(A, B):
    n = len(A)
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _mat_vec(A, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in A)


def _mat_inverse(g, A):
    """The inverse of A, found by search rather than read from g.inv0."""
    ident = tuple(tuple(int(i == j) for j in range(g.rank)) for i in range(g.rank))
    return next(C for C in g.elements if _mat_mul(A, C) == ident)


def _ref_mul(g, v, w):
    """(A, l)(B, m) = (A B, B^{-1}(l) + m) on matrices, for x |-> A(x + l)."""
    A, B = g.elements[v.w0], g.elements[w.w0]
    mu = tuple(a + b for a, b in zip(_mat_vec(_mat_inverse(g, B), v.mu), w.mu))
    return g.index[_mat_mul(A, B)], mu


def _ref_inv(g, w):
    """(A, l)^{-1} = (A^{-1}, -A(l))."""
    A = g.elements[w.w0]
    return g.index[_mat_inverse(g, A)], tuple(-c for c in _mat_vec(A, w.mu))


def _check_against_reference(g, pairs):
    """Each product and inverse twice: the first call fills the memo, the
    second must return the memoised element."""
    for v, w in pairs:
        first = v * w
        assert (first.w0, first.mu) == _ref_mul(g, v, w), (v, w)
        assert v * w is first
    for v in {v for pair in pairs for v in pair}:
        first = v.inv()
        assert (first.w0, first.mu) == _ref_inv(g, v), v
        assert v.inv() is first


@pytest.mark.parametrize("name", ["SL2", "PGL2", "GL2", "SL3", "GL3", "Sp4", "G2sc",
                                  "SL2xSL2"])
def test_mul_inv_match_matrix_reference(name):
    g = WeylGroup(preset(name))  # fresh, so every memo starts cold
    els = g.elements_up_to_length(2)
    _check_against_reference(g, [(v, w) for v in els for w in els])


@pytest.mark.parametrize("name", ["SL3", "Sp4"])
def test_mul_inv_match_matrix_reference_random_length_6(name):
    g = WeylGroup(preset(name))
    rng = random.Random(3)
    ws = g.elements_of_length(6)
    _check_against_reference(g, [(rng.choice(ws), rng.choice(ws)) for _ in range(500)])


@pytest.mark.parametrize("name", ["SL2", "PGL2"])
def test_no_elements_of_negative_length(name):
    """A negative length selects nothing, not the length-zero stratum read
    from the end of the strata list."""
    g = wg(name)
    for n in (-1, -2):
        assert g.elements_of_length(n) == [] and g.elements_up_to_length(n) == []
    assert g.elements_of_length(0) == g.elements_up_to_length(0) != []


def test_elements_are_interned():
    g = wg("SL3")
    assert g.elt(2, (1, -1)) is g.elt(2, (1, -1))
    assert g.translation((1, 0)) is g.elt(0, [1, 0])
    v, w = g.aff_gen(0), g.aff_gen(1)
    assert v * w is v * w
    assert (v * w).inv() is w.inv() * v.inv()
    hashes = {hash(e) for e in g._interned.values()}
    assert len(hashes) == len(g._interned)


MALFORMED_ELEMENT = {
    "short mu": (lambda g: g.elt(0, (1,)), "mu must be 2 integers"),
    "long mu": (lambda g: g.elt(0, (1, 0, 5)), "mu must be 2 integers"),
    "bool in mu": (lambda g: g.elt(0, (1, True)), "mu must be 2 integers"),
    "short translation": (lambda g: g.translation((2,)), "mu must be 2 integers"),
    "w0 past the order": (lambda g: g.elt(99), "w0 must be a finite Weyl index below 6"),
    "negative w0": (lambda g: g.elt(-1), "w0 must be a finite Weyl index"),
    "unknown letter": (lambda g: g.from_word([5]), "letter 5 is not"),
    "word not a list": (lambda g: g.from_word(5), "element w0_word must be a list .*, got 5"),
    "negative simple reflection": (lambda g: g.simple_reflection(-1),
                                   "w0_word letter -1 is not a finite simple reflection"),
    "simple reflection past the rank": (lambda g: g.simple_reflection(5),
                                        "w0_word letter 5 is not a finite simple reflection"),
    "negative affine letter": (lambda g: g.aff_gen(-1),
                               "letter -1 is not an affine simple reflection: there are 3"),
    "bool affine letter": (lambda g: g.aff_gen(True), "letter True is not an affine"),
    "affine letter past the end": (lambda g: g.aff_gen(3),
                                   "letter 3 is not an affine simple reflection: there are 3"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ELEMENT))
def test_malformed_element_rejected(case):
    """A w0 outside the finite group, a mu that is not rank integers, a
    word that is not a list, and an unknown finite or affine letter, also
    through simple_reflection and aff_gen, raise a ValueError naming it,
    and nothing is interned under the malformed key."""
    g = wg("SL3")
    make, field = MALFORMED_ELEMENT[case]
    interned = dict(g._interned)
    with pytest.raises(ValueError, match=field):
        make(g)
    assert g._interned == interned


def test_length_and_reduced_word_memoised_on_element():
    """Each element's length and reduced words are memoised once, in the
    group's _len_cache and _word_cache; a repeat returns the stored object."""
    g = WeylGroup(preset("SL3"))
    w = g.aff_gen(0) * g.aff_gen(1) * g.aff_gen(2) * g.aff_gen(0) * g.aff_gen(1)
    t = g.translation((3, -2))  # outside the construction check's box
    assert t not in g._len_cache and (w, "min") not in g._word_cache
    sizes = (len(g._len_cache), len(g._word_cache))
    first = (w.length(), w.reduced_word(), w.reduced_word("max"), t.length())
    # each miss writes one entry, keyed by the element or (element, tie)
    assert (len(g._len_cache), len(g._word_cache)) == (sizes[0] + 1, sizes[1] + 2)
    sizes = (len(g._len_cache), len(g._word_cache))
    assert g._len_cache[t] == first[3] == length_bruteforce(t)
    assert g._len_cache[w] == first[0] == 5
    assert g._word_cache[(w, "min")] is first[1]
    assert g._word_cache[(w, "max")] is first[2]
    # ... and they are the only memos: the element carries no value
    assert not {"_len", "_words", "_hash"} & set(type(w).__slots__)
    assert "__hash__" not in vars(type(w)) and hash(w) == object.__hash__(w)
    again = (w.length(), w.reduced_word(), w.reduced_word("max"), t.length())
    assert again[0] is first[0] and again[3] is first[3]
    assert again[1] is first[1] and again[2] is first[2]
    assert (len(g._len_cache), len(g._word_cache)) == sizes


def test_reduced_word_rejects_an_unknown_tie():
    """A tie other than "min" or "max" raises a ValueError naming it, also
    through peel and support_mul, and writes no memo entry."""
    from prophecke import cosets, make_context

    ctx = make_context("SL3", 3)
    g, G = ctx.weyl, ctx.group
    w = g.aff_gen(0) * g.aff_gen(1)
    v = G.lift_w(w)
    size = len(g._word_cache)
    for call in (lambda: w.reduced_word("bogus"), lambda: G.peel(v, "bogus"),
                 lambda: cosets.support_mul(v, v, tie="bogus")):
        with pytest.raises(ValueError, match="tie must be 'min' or 'max', got 'bogus'"):
            call()
    assert len(g._word_cache) == size
    assert (w, "bogus") not in g._word_cache


def test_descents_rejects_an_unknown_side():
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        wg("SL2").aff_gen(0).descents("up")


def _datum(name):
    if name in PRESET_NAMES:
        return preset(name)
    return RootDatum.from_json(EXPLICIT_GROUPS[name])


def _object_scan(w):
    """The length scan as first written: an AffineRoot for every (alpha, h)
    with |h| <= max|<mu, alpha>| + 1, its image through act_affine, and
    positivity read off the simple-root expansion."""
    rd = w.group.rd

    def positive(A):
        return A.h > 0 or (A.h == 0 and any(c > 0 for c in rd.expansions[A.root]))

    bound = max((abs(dot(w.mu, a)) for a in rd.roots), default=0) + 1
    return sum(
        1
        for i in range(len(rd.roots))
        for h in range(-bound, bound + 1)
        if positive(AffineRoot(i, h)) and not positive(w.act_affine(AffineRoot(i, h)))
    )


@pytest.mark.parametrize("name", PRESET_NAMES + tuple(EXPLICIT_GROUPS))
def test_length_bruteforce_matches_object_scan(name):
    # one wider than the construction-time check's box
    g = WeylGroup(_datum(name))
    box = range(-3, 4) if g.rank <= 2 else range(-2, 3)
    for w0 in range(g.order):
        for mu in itertools.product(box, repeat=g.rank):
            w = g.elt(w0, mu)
            assert length_bruteforce(w) == _object_scan(w) == w.length(), w


@pytest.mark.parametrize("img_positive", [False, True])
@pytest.mark.parametrize("src_positive", [False, True])
def test_scan_root_matches_a_wide_window(src_positive, img_positive):
    """The per-root scan's window |h| <= |shift| + 1 misses no h that a
    walk over |h| <= 20 counts."""
    for shift in range(-12, 13):
        wide = sum(
            1
            for h in range(-20, 21)
            if (h > 0 or (h == 0 and src_positive))
            and not (h + shift > 0 or (h + shift == 0 and img_positive))
        )
        assert _scan_root(src_positive, img_positive, shift) == wide, shift


@pytest.mark.parametrize("name", PRESET_NAMES + tuple(EXPLICIT_GROUPS))
def test_construction_check_measures_every_box_element(name):
    """The build's length check calls length() on every finite element
    times every translation of its box, so each has its length memoised."""
    g = WeylGroup(_datum(name))
    box = range(-2, 3) if g.rank <= 2 else range(-1, 2)
    for w0 in range(g.order):
        for mu in itertools.product(box, repeat=g.rank):
            w = g._interned.get((w0, mu))
            assert w is not None and w in g._len_cache, (w0, mu)
            assert g._len_cache[w] == length_bruteforce(w), (w0, mu)


@pytest.mark.parametrize(
    "name,last", [("SL3", False), ("SL3", True), ("GL3", True), ("G2sc", True)]
)
def test_construction_check_catches_one_wrong_length(monkeypatch, name, last):
    """A length off by one at a corner of the checked box fails the build."""
    rd = _datum(name)
    order = WeylGroup(rd).order
    edge = 2 if rd.rank <= 2 else 1
    target = (order - 1, (edge,) * rd.rank) if last else (0, (-edge,) * rd.rank)
    length = ExtAffWeylElt.length

    def off_by_one(w):
        return length(w) + ((w.w0, w.mu) == target)

    monkeypatch.setattr(ExtAffWeylElt, "length", off_by_one)
    with pytest.raises(TheoremViolationError, match="disagrees with scan"):
        WeylGroup(rd)


# -- reference for the finite words ------------------------------------------------


def _canonical_word0(g, ei):
    """The finite word as first written: strip the smallest-index right
    descent by the multiplication table until the finite length is 0."""
    word = []
    cur = ei
    while g.length0[cur] > 0:
        for gi, si in enumerate(g.gen_index):
            if not g.rd.positive[g.root_perm[cur][g.rd.simple[gi]]]:
                word.insert(0, gi)
                cur = g.mult[cur][si]
                break
        else:
            raise TheoremViolationError("positive finite length without a descent")
    return tuple(word)


def _frontier_walk(g):
    """The finite Weyl group's matrices, walked level by level."""
    gens = [g.elements[i] for i in g.gen_index]
    elements, frontier = [g.elements[0]], [g.elements[0]]
    while frontier:
        nxt = []
        for M in frontier:
            for s in gens:
                P = _mat_mul(M, s)
                if P not in elements:
                    elements.append(P)
                    nxt.append(P)
        frontier = nxt
    return elements


@pytest.mark.parametrize("name", PRESET_NAMES + tuple(EXPLICIT_GROUPS))
def test_finite_tables_match_reference(name):
    g = WeylGroup(_datum(name))
    assert g.elements == _frontier_walk(g)
    pos = g.rd.positive_roots()
    assert g.length0 == [
        sum(1 for j in pos if not g.rd.positive[perm[j]]) for perm in g.root_perm
    ]
    assert g.inv0 == [next(j for j in range(g.order) if g.mult[i][j] == 0)
                      for i in range(g.order)]
    assert g.words0 == [_canonical_word0(g, i) for i in range(g.order)]


def test_construction_check_catches_a_wrong_finite_length(monkeypatch):
    """A length off by one on a finite element fails the build while its
    canonical word is stripped, before words0 exists."""
    rd = preset("SL3")
    last = WeylGroup(rd).order - 1
    length = ExtAffWeylElt.length

    def off_by_one(w):
        return length(w) + ((w.w0, w.mu) == (last, (0, 0)))

    monkeypatch.setattr(ExtAffWeylElt, "length", off_by_one)
    with pytest.raises(TheoremViolationError, match="is not reduced"):
        WeylGroup(rd)
