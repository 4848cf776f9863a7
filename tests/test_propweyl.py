"""Pro-p Weyl group: exact multiplication, rank-one lifts, coroot images."""

import random
import re

import pytest

from prophecke.errors import GroupMismatchError
from prophecke.propweyl import ProPElt, ProPWeyl, basis_elements
from prophecke.rootdata import PRESET_NAMES, AffineRoot, RootDatum, dot, preset
from prophecke.weyl import WeylGroup

from conftest import EXPLICIT_GROUPS, get_context


def grp(name, p, f=1, m=None):
    return get_context(name, p, f, m).group


def test_torus_abelian_and_mul_examples():
    G = grp("SL2", 3)
    t1, t2 = G.torus_elt((1,)), G.torus_elt((1,))
    assert G.mul(t1, t2) == G.torus_elt((0,))
    ns = G.lift_s(0)
    # n_s^2 = alpha-check(-1); at q = 3 the exponent (q-1)/2 is 1
    assert G.mul(ns, ns) == G.torus_elt((1,))


def test_ns_squared_all_presets():
    for name, q in [("SL2", 3), ("PGL2", 3), ("SL3", 3), ("Sp4", 3), ("G2sc", 3),
                    ("SL2", 9), ("SL2", 2)]:
        f, m = (2, 2) if q == 9 else (1, 1)
        G = grp(name, 3 if q in (3, 9) else q, f, m)
        for i, A in enumerate(G.weyl.s_aff):
            ns = G.lift_s(i)
            expected = G.torus_elt(G.coroot_torus(A.root, G.neg_one_exp))
            assert G.mul(ns, ns) == expected


def test_inv_examples():
    G = grp("SL2", 3)
    assert G.inv(G.identity()) == G.identity()
    t = G.torus_elt((1,))
    assert G.inv(t) == G.torus_elt((-1,))
    ns = G.lift_s(0)
    got = G.inv(ns)
    # alpha-check(-1)^{-1} n_s: torus exponent -(q-1)/2 = (q-1)/2 mod q-1
    assert got == G.mul(G.torus_elt((1,)), ns)
    assert G.mul(ns, got).is_identity() and G.mul(got, ns).is_identity()


def test_torus_action_and_normality():
    G = grp("SL2", 3)
    s = G.weyl.simple_reflection(0)
    a = G.rd.simple[0]
    assert G.torus_action(s.w0, G.coroot_torus(a)) == G.coroot_torus(a, -1)
    assert G.torus_action(G.weyl.identity().w0, (1,)) == (1,)
    # translations act trivially
    assert G.torus_action(G.weyl.translation((1,)).w0, (1,)) == (1,)
    # s_A(t) t^{-1} lands in the coroot image, for every torus element
    for name in ("SL3", "Sp4"):
        G2 = grp(name, 3)
        image_sets = {
            i: set(G2.coroot_image(A.root)[0]) for i, A in enumerate(G2.weyl.s_aff)
        }
        for i, A in enumerate(G2.weyl.s_aff):
            sA = G2.weyl.aff_gen(i)
            for t in G2.torus_elements():
                st = G2.torus_action(sA.w0, t)
                diff = tuple((x - y) % G2.qm1 for x, y in zip(st, t))
                assert diff in image_sets[i]


def test_coroot_image_examples():
    G = grp("SL2", 3)
    image, mu = G.coroot_image(G.rd.simple[0])
    assert mu == 1 and len(image) == 2

    Gp = grp("PGL2", 3)
    image, mu = Gp.coroot_image(Gp.rd.simple[0])
    assert mu == 2 and len(image) == 1

    Gp2 = grp("PGL2", 2)
    image, mu = Gp2.coroot_image(Gp2.rd.simple[0])
    assert mu == 1 and len(image) == 1


def _scanned_coroot_image(G, root_index):
    """The reference for ProPWeyl.coroot_image: alpha-check(zeta^e) for
    every e in [0, q - 1), each new torus vector kept in order of first
    appearance, and |mu| the number of e sent to the identity."""
    seen, mu_size = [], 0
    for e in range(G.qm1):
        t = G.coroot_torus(root_index, e)
        mu_size += not any(t)
        if t not in seen:
            seen.append(t)
    return tuple(seen), mu_size


@pytest.mark.parametrize("name", PRESET_NAMES + tuple(EXPLICIT_GROUPS))
def test_coroot_image_matches_scan(name):
    """The closed form (|mu| = gcd(q - 1, coroot), the image the first
    (q - 1) / |mu| multiples of the coroot) against the scan of all of
    F_q^x, at every root, for odd and even q, primes and prime powers."""
    rd = preset(name) if name in PRESET_NAMES else RootDatum.from_json(EXPLICIT_GROUPS[name])
    wg = WeylGroup(rd)
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32):
        G = ProPWeyl(wg, q)
        for r in range(len(rd.roots)):
            assert G.coroot_image(r) == _scanned_coroot_image(G, r), (q, rd.coroots[r])


def _lift_by_height(G, r):
    """The reference for ProPWeyl.reflection_lift: the same height
    recursion in root vectors, s_j(alpha) = alpha - <alpha_j-check, alpha>
    alpha_j looked up in the datum's root list, and n_j built as the
    reflection at the affine root (alpha_j, 0)."""
    rd = G.rd
    index = {root: i for i, root in enumerate(rd.roots)}
    if not rd.is_positive_root(r):
        return _lift_by_height(G, rd.neg_index(r))
    if r in rd.simple:
        return ProPElt(G, G.zero_t, G.weyl.affine_reflection(AffineRoot(r, 0)))
    alpha = rd.roots[r]
    j = next(i for i in rd.simple if dot(rd.coroots[i], alpha) > 0)
    c = dot(rd.coroots[j], alpha)
    beta = index[tuple(a - c * b for a, b in zip(alpha, rd.roots[j]))]
    nj = ProPElt(G, G.zero_t, G.weyl.affine_reflection(AffineRoot(j, 0)))
    return G.mul(G.mul(nj, _lift_by_height(G, beta)), G.inv(nj))


@pytest.mark.parametrize("name", PRESET_NAMES + tuple(EXPLICIT_GROUPS))
def test_reflection_lift_matches_height_recursion(name):
    """reflection_lift, which reads s_k(alpha) off WeylGroup.root_perm,
    returns the very element the vector recursion builds, at every root,
    for odd and even q, primes and prime powers."""
    rd = preset(name) if name in PRESET_NAMES else RootDatum.from_json(EXPLICIT_GROUPS[name])
    wg = WeylGroup(rd)
    for q in (2, 3, 4, 5, 7, 8, 9):
        G = ProPWeyl(wg, q)
        for r in range(len(rd.roots)):
            assert G.reflection_lift(r) is _lift_by_height(G, r), (q, rd.roots[r])


@pytest.mark.parametrize("bad", [-1, 2, 5, True, 1.0, "1", None],
                         ids=["-1", "2", "5", "bool", "float", "str", "None"])
def test_bad_letter_rejected(bad):
    """SL2 has two letters, 0 and 1.  lift_s, aff_image and theta reject
    anything else with a ValueError naming the letter and the number of
    letters, where a negative letter used to count from the end; step,
    on its hot path, checks the range only, so it rejects the integers."""
    ctx = get_context("SL2", 3)
    G, H = ctx.group, ctx.hecke
    calls = [G.lift_s, G.aff_image, H.theta]
    if type(bad) is int:
        calls.append(lambda s: G.step(s, G.identity()))
    for call in calls:
        with pytest.raises(ValueError, match=rf"letter {re.escape(repr(bad))} .* 2 letters"):
            call(bad)


@pytest.mark.parametrize("bad", [(0.5,), (True,), ("1",), (None,)],
                         ids=["float", "bool", "str", "None"])
def test_torus_rejects_non_integer_entries(bad):
    """ProPWeyl.torus, through which elt and torus_elt read a torus
    vector, rejects an entry that is not an integer, and nothing is
    interned."""
    G = grp("SL2", 3)
    count = len(G.by_index)
    for read in (G.torus, G.torus_elt, lambda t: G.elt(t, G.weyl.identity())):
        with pytest.raises(ValueError, match="entries must be integers"):
            read(bad)
    assert len(G.by_index) == count


@pytest.mark.parametrize("bad", [5, None, "1", {0: 1}], ids=["int", "None", "str", "dict"])
def test_torus_rejects_a_vector_that_is_not_a_list(bad):
    """torus, torus_elt and elt take a list or tuple of rank integers;
    anything else raises a ValueError naming it, not a TypeError from
    reading it as an iterable, and nothing is interned."""
    G = grp("SL3", 3)
    count = len(G.by_index)
    message = rf"torus vector must be a list of 2 integers, got {re.escape(repr(bad))}"
    for read in (G.torus, G.torus_elt, lambda t: G.elt(t, G.weyl.identity())):
        with pytest.raises(ValueError, match=message):
            read(bad)
    assert len(G.by_index) == count


def test_lift_examples():
    G = grp("SL2", 3)
    # simple generator: torus-free
    assert G.lift_s(0).t == (0,) and G.lift_s(0).w == G.weyl.aff_gen(0)
    # SL2 lowest-root generator: also torus-free
    assert G.lift_s(1).t == (0,)
    # lift along the word of s.s returns n_s^2
    ns = G.lift_s(0)
    assert G.mul(ns, ns) == G.torus_elt((1,))
    # lift_w of a length-zero element is the plain section
    for w in G.weyl.omega().elements:
        assert G.lift_w(w) == G.elt(G.zero_t, w)


def test_lift_general_affine_reflection():
    # reflections at non-base affine roots still square correctly
    for name in ("SL3", "Sp4"):
        G = grp(name, 3)
        for i in range(len(G.rd.roots)):
            for h in (-1, 0, 1, 2):
                x = G.lift_affine_reflection(AffineRoot(i, h))
                expected = G.torus_elt(G.coroot_torus(i, G.neg_one_exp))
                assert G.mul(x, x) == expected


@pytest.mark.parametrize("name,q", [("SL2", 2), ("SL2", 3), ("SL3", 2), ("SL3", 3)])
def test_mul_associative_exhaustive(name, q):
    p, f, m = (2, 1, 1) if q == 2 else (3, 1, 1)
    G = grp(name, p, f, m)
    els = basis_elements(G, 2)
    for x in els:
        for y in els:
            xy = G.mul(x, y)
            for z in els:
                assert G.mul(xy, z) == G.mul(x, G.mul(y, z))


def test_mul_associative_random_larger():
    rng = random.Random(7)
    for name in ("Sp4", "G2sc", "PGL2"):
        G = grp(name, 3)
        els = basis_elements(G, 5 if name != "G2sc" else 3)
        for _ in range(400):
            x, y, z = (rng.choice(els) for _ in range(3))
            assert G.mul(G.mul(x, y), z) == G.mul(x, G.mul(y, z))


def test_braid_relations():
    for name in ("SL3", "Sp4", "G2sc"):
        G = grp(name, 3)
        wg = G.weyl
        n = len(wg.s_aff)
        for i in range(n):
            for j in range(i + 1, n):
                prod = wg.aff_gen(i) * wg.aff_gen(j)
                acc, order = prod, 1
                while not acc.is_identity() and order < 12:
                    acc, order = acc * prod, order + 1
                if order >= 12:
                    continue  # infinite dihedral pair: no braid relation
                L, R = G.identity(), G.identity()
                for k in range(order):
                    L = G.mul(L, G.lift_s(i if k % 2 == 0 else j))
                    R = G.mul(R, G.lift_s(j if k % 2 == 0 else i))
                assert L == R, (name, i, j, order)


def test_conjugation_relation_r1():
    for name in ("SL2", "SL3", "Sp4"):
        G = grp(name, 3)
        for i in range(len(G.weyl.s_aff)):
            ns = G.lift_s(i)
            for t in G.torus_elements():
                lhs = G.mul(G.mul(ns, G.torus_elt(t)), G.inv(ns))
                assert lhs == G.torus_elt(G.torus_action(ns.w0, t))


@pytest.mark.parametrize("name,max_len", [
    ("SL2", 5), ("PGL2", 5), ("SL3", 5), ("Sp4", 5), ("G2sc", 5), ("SL2xSL2", 5),
])
def test_matsumoto_lift_independence(name, max_len):
    G = grp(name, 3)
    for w in G.weyl.elements_up_to_length(max_len):
        omega, _ = w.reduced_word()
        ref = G.lift_w(w)
        for rw in w.all_reduced_words():
            x = G.lift_omega(omega)
            for i in rw:
                x = G.mul(x, G.lift_s(i))
            assert x == ref


def test_projection_is_homomorphism_with_torus_kernel():
    G = grp("SL3", 3)
    els = basis_elements(G, 2)
    for x in els[:30]:
        for y in els[:30]:
            assert G.mul(x, y).w == x.w * y.w
            assert G.mul(x, y).length() <= x.length() + y.length()
    kernel = [x for x in basis_elements(G, 0) if x.w.is_identity()]
    assert len(kernel) == G.qm1 ** G.rank


def test_group_mismatch_rejected():
    G1 = grp("SL2", 3)
    G2 = grp("SL3", 3)
    with pytest.raises(GroupMismatchError):
        G1.mul(G1.identity(), G2.identity())


def test_weyl_element_of_another_group_rejected():
    """elt, lift_omega and lift_w refuse another group's Weyl element,
    even a length-zero one, and intern nothing for it."""
    G, other = grp("SL3", 3), grp("GL3", 3).weyl
    interned = len(G.by_index)
    for make in (lambda w: G.elt(G.zero_t, w), G.lift_omega, G.lift_w):
        for w in (other.identity(), other.aff_gen(0)):
            with pytest.raises(GroupMismatchError):
                make(w)
    assert len(G.by_index) == interned


def test_construction_inputs_rejected():
    """A residue size below 2, and lift_omega of an element of positive
    length, raise a ValueError naming what is wrong."""
    G = grp("SL3", 3)
    with pytest.raises(ValueError, match="q must be a prime power >= 2"):
        ProPWeyl(G.weyl, 1)
    with pytest.raises(ValueError, match="lift_omega expects a length-zero element"):
        G.lift_omega(G.weyl.aff_gen(0))


def test_propelt_json_round_trip():
    from prophecke.propweyl import ProPElt

    G = grp("SL3", 3)
    for x in basis_elements(G, 2):
        assert ProPElt.from_json(G, x.to_json()) == x


def test_inv_rejects_other_group():
    x = grp("SL3", 3).lift_s(0)
    G5 = grp("SL3", 5)
    with pytest.raises(GroupMismatchError):
        G5.inv(x)
    with pytest.raises(GroupMismatchError):
        G5.mul(G5.identity(), x)


# -- differential oracle for the memoised group law --------------------------------


def _ref_mul(G, x, y):
    """Normal form of x y from (t + u0(t') + c0(u0, v0), (u0, l)(v0, m)) in
    plain tuple arithmetic, with (u0, l)(v0, m) = (u0 v0, v0^{-1}(l) + m)."""
    W = G.weyl
    u0, v0 = x.w0, y.w0
    M = W.elements[u0]
    ut = [sum(M[i][j] * y.t[j] for j in range(G.rank)) for i in range(G.rank)]
    c = G._cocycle[u0][v0]
    t = tuple((a + b + d) % G.qm1 for a, b, d in zip(x.t, ut, c))
    B = W.elements[W.inv0[v0]]
    mu = tuple(
        sum(B[i][j] * x.mu[j] for j in range(G.rank)) + y.mu[i] for i in range(G.rank)
    )
    return t, W.mult[u0][v0], mu


def _ref_inv(G, x):
    """Normal form of x^{-1}: by _ref_mul's formula, x (t', w^{-1}) = (0, 1)
    forces t' = -u0^{-1}(t + c0(u0, u0^{-1})); and (u0, l)^{-1} = (u0^{-1}, -u0(l))."""
    W = G.weyl
    u0 = x.w0
    v0 = W.inv0[u0]
    V = W.elements[v0]
    s = [(a + b) % G.qm1 for a, b in zip(x.t, G._cocycle[u0][v0])]
    t = tuple(-sum(V[i][j] * s[j] for j in range(G.rank)) % G.qm1 for i in range(G.rank))
    M = W.elements[u0]
    mu = tuple(-sum(M[i][j] * x.mu[j] for j in range(G.rank)) for i in range(G.rank))
    return t, v0, mu


def _nf(x):
    return x.t, x.w0, x.mu


def _check_against_reference(G, pairs):
    """Each product and inverse twice: the first call fills the memo, the
    second must return the memoised element."""
    for x, y in pairs:
        want = _ref_mul(G, x, y)
        first = G.mul(x, y)
        assert _nf(first) == want, (x, y)
        assert G.mul(x, y) is first
    for x in {x for pair in pairs for x in pair}:
        want = _ref_inv(G, x)
        first = G.inv(x)
        assert _nf(first) == want, x
        assert G.inv(x) is first


def _fresh(name):
    """A new pro-p group over the shared Weyl group, so every memo is cold."""
    from prophecke.propweyl import ProPWeyl

    return ProPWeyl(grp(name, 3).weyl, 3)


@pytest.mark.parametrize("name", ["SL2", "PGL2", "GL2", "SL3", "GL3", "Sp4", "G2sc",
                                  "SL2xSL2"])
def test_mul_inv_match_reference_exhaustive(name):
    G = _fresh(name)
    els = basis_elements(G, 1 if name == "GL3" else 2)
    _check_against_reference(G, [(x, y) for x in els for y in els])


@pytest.mark.parametrize("name", ["SL3", "Sp4"])
def test_mul_inv_match_reference_random_length_6(name):
    G = _fresh(name)
    rng = random.Random(3)
    ws = G.weyl.elements_of_length(6)
    ts = G.torus_elements()

    def draw():
        return G.elt(rng.choice(ts), rng.choice(ws))

    _check_against_reference(G, [(draw(), draw()) for _ in range(500)])


# -- the rank-one step and peel --------------------------------------------------------


def _memos(G):
    """Copies of the step and peel tables, to compare before and after."""
    return ({side: [dict(d) for d in tables] for side, tables in G._steps.items()},
            {tie: dict(d) for tie, d in G._peels.items()})


def _memo_size(G):
    steps, peels = _memos(G)
    return (sum(len(d) for tables in steps.values() for d in tables),
            sum(map(len, peels.values())))


@pytest.mark.parametrize("name", ["SL2", "PGL2", "GL2", "SL3", "GL3", "Sp4", "G2sc",
                                  "SL2xSL2"])
def test_step_and_peel_match_definition(name):
    """Two passes over a cold group: the first fills the step and peel
    tables, the second is answered from them and checked the same way."""
    G = _fresh(name)
    els = basis_elements(G, 1 if name == "GL3" else 2)
    for sweep in range(2):
        if sweep:
            filled = _memo_size(G)
            assert all(filled)
        for i, A in enumerate(G.weyl.s_aff):
            ns = G.lift_s(i)
            image = [G.torus_elt(t) for t in G.coroot_image(A.root)[0]]
            for y in els:
                for side in ("left", "right"):
                    moved, translates = G.step(i, y, side)
                    if side == "left":
                        assert moved == G.mul(ns, y)
                        want = {G.mul(t, y) for t in image}
                    else:
                        assert moved == G.mul(y, ns)
                        want = {G.mul(y, t) for t in image}
                    ascent = moved.w.length() == y.w.length() + 1
                    assert ascent == (i not in y.w.descents(side))
                    assert (translates == ()) == ascent
                    if not ascent:
                        assert len(translates) == len(set(translates)) == len(image)
                        assert set(translates) == want
        for x in els:
            if x.w.length() == 0:
                continue
            # the right descents by definition: the letters that shorten x
            ds = [i for i in range(len(G.weyl.s_aff))
                  if (x.w * G.weyl.aff_gen(i)).length() < x.w.length()]
            for tie, pick in (("min", min), ("max", max)):
                s, xp = G.peel(x, tie)
                assert s == pick(ds)
                if tie == "min":  # the last letter of the canonical word
                    assert s == x.w.reduced_word()[1][-1]
                assert G.mul(xp, G.lift_s(s)) == x
                assert xp.w.length() == x.w.length() - 1
        if sweep:
            assert _memo_size(G) == filled


def test_step_and_peel_repeat_from_the_tables():
    G = _fresh("SL3")
    x = G.mul(G.lift_s(1), G.lift_s(0))
    for side in ("left", "right"):
        first = G.step(0, x, side)
        size = _memo_size(G)
        assert G.step(0, x, side) is first
        assert _memo_size(G) == size
    for tie in ("min", "max"):
        first = G.peel(x, tie)
        size = _memo_size(G)
        assert G.peel(x, tie) is first
        assert _memo_size(G) == size


def test_memo_hit_checks_the_group():
    """A second SL2/GF(3) group interns the same normal forms under the
    same indices; the first group's tables must not answer for them."""
    from prophecke import make_context

    G1, G2 = make_context("SL2", 3).group, make_context("SL2", 3).group
    x1 = G1.mul(G1.lift_s(0), G1.lift_s(1))
    G1.step(0, x1)
    G1.peel(x1)
    x2 = G2.mul(G2.lift_s(0), G2.lift_s(1))
    assert x2.index == x1.index and x2.w.length() == 2
    size = _memo_size(G1)
    with pytest.raises(GroupMismatchError):
        G1.step(0, x2)
    with pytest.raises(GroupMismatchError):
        G1.peel(x2)
    assert _memo_size(G1) == size


def test_step_rejects_what_a_miss_rejects():
    """Letters and sides that a cold call rejects get no answer from a
    warm table, and leave both tables as they were: a float or bool
    letter, an unknown side or tie raises a ValueError naming it, as
    lift_s and aff_image do for the letter."""
    G = _fresh("SL2")
    y = G.lift_s(1)
    for side in ("left", "right"):
        G.step(1, y, side)
    G.peel(y)
    before = _memos(G)
    for s in (1.0, True):
        with pytest.raises(ValueError, match=f"letter {s!r} is not"):
            G.step(s, y)
        with pytest.raises(ValueError, match=f"letter {s!r} is not"):
            G.lift_s(s)
    with pytest.raises(ValueError, match="letter -1 .* 2 letters"):
        G.step(-1, y)
    with pytest.raises(ValueError, match="side .*'bogus'"):
        G.step(1, y, "bogus")
    with pytest.raises(ValueError, match="side .*'bogus'"):
        G.step(0, y, "bogus")
    with pytest.raises(ValueError, match="tie .*'bogus'"):
        G.peel(y, "bogus")
    assert _memos(G) == before


def test_peel_rejects_length_zero():
    G = _fresh("SL2")
    for x in (G.identity(), G.torus_elt((1,))):
        with pytest.raises(ValueError, match="positive length"):
            G.peel(x)
    assert _memo_size(G) == (0, 0)


# -- the interning contract ----------------------------------------------------------


def test_elements_are_interned():
    from prophecke.propweyl import ProPElt

    G = grp("SL3", 3)
    w = G.weyl.aff_gen(1) * G.weyl.aff_gen(0)
    assert ProPElt(G, (1, 0), w) is ProPElt(G, (1, 0), w)
    assert G.elt((1, 0), w) is ProPElt(G, (1, 0), w)
    x, y = G.lift_s(0), G.lift_s(2)
    assert G.mul(x, y) is G.mul(x, y)
    assert G.inv(x) is G.inv(x)


def test_the_product_operator_and_the_group_repr():
    """x * y is the group's memoised product, the very object mul gives."""
    G = grp("SL3", 3)
    x, y = G.lift_s(0), G.elt((1, 0), G.weyl.aff_gen(2))
    assert x * y is G.mul(x, y) and y * x is G.mul(y, x)
    assert repr(G) == "ProPWeyl(SL3, q=3)"


def test_separate_groups_share_no_element():
    G1, G2 = _fresh("SL3"), _fresh("SL3")
    w = G1.weyl.aff_gen(0)
    x1, x2 = G1.elt((1, 1), w), G2.elt((1, 1), w)
    assert _nf(x1) == _nf(x2)
    assert x1 is not x2 and x1 != x2
    with pytest.raises(GroupMismatchError):
        G1.mul(x1, x2)
    with pytest.raises(GroupMismatchError):
        G1.inv(x2)


def test_hashes_unique_within_group():
    G = _fresh("Sp4")
    els = basis_elements(G, 2)
    for x in els:
        for y in els[:10]:
            G.mul(x, y)
        G.inv(x)
    hashes = {hash(e) for e in G._interned.values()}
    assert len(hashes) == len(G._interned) > len(els)


def test_suite_dict_probes_never_call_eq(monkeypatch):
    from prophecke import make_context
    from prophecke.propweyl import ProPElt
    from prophecke.verify import run_suite

    ctx = make_context("SL3", 3)  # the construction self-checks compare with ==
    calls = [0]
    eq = ProPElt.__eq__

    def counted(self, other):
        calls[0] += 1
        return eq(self, other)

    monkeypatch.setattr(ProPElt, "__eq__", counted)
    rep = run_suite(ctx, "assoc", max_len=1)
    assert not rep["failures"] and rep["cases"] > 0
    assert calls[0] == 0


# -- the torus-action memo ---------------------------------------------------------------


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_torus_action_memo(name, q):
    """Every (w0, t) against the matrix action reduced mod q - 1; a repeat
    returns the memoised tuple, and the memo stays within |W0| |T_q|."""
    from prophecke.weyl import _mat_vec

    G = grp(name, q)
    for w0, M in enumerate(G.weyl.elements):
        for t in G.torus_elements():
            first = G.torus_action(w0, t)
            assert first == tuple(e % G.qm1 for e in _mat_vec(M, t)), (w0, t)
            assert G.torus_action(w0, t) is first
    assert sum(map(len, G._torus_actions)) <= G.weyl.order * G.qm1 ** G.rank


# -- the torus list -----------------------------------------------------------------------


def test_torus_list_built_on_first_use():
    """GL3 over GF(2^8) has a torus of 255^3 (about 16.6M) vectors: building
    the context leaves it unlisted, and the first listing is kept."""
    from prophecke.verify import build_context

    big = build_context({"group": "GL3", "field": {"p": 2, "f": 8}}).group
    assert big._torus_elements is None
    G = grp("SL3", 5)
    ts = G.torus_elements()
    assert ts == tuple(sorted(set(ts))) and len(ts) == G.qm1 ** G.rank
    assert G.torus_elements() is ts


def test_torus_listing_bounded():
    """A torus of 64 vectors, the bound, is listed; a larger one raises a
    ValueError naming |T_q| and the bound, on every call, listing nothing."""
    from prophecke.propweyl import _MAX_TORUS

    assert len(grp("GL3", 5).torus_elements()) == _MAX_TORUS == 64
    G = grp("SL2", 67)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"\|T_q\| = 66 exceeds the 64 "):
            G.torus_elements()
    assert G._torus_elements is None
