"""Hecke algebra: relations, idempotents, involutions, characters,
filtration eigencharacters."""

import random

import pytest

from prophecke.errors import GroupMismatchError, TheoremViolationError
from prophecke.hecke import HeckeAlgebra
from prophecke.propweyl import basis_elements
from prophecke.rootdata import PRESET_NAMES

from conftest import get_context, get_explicit_context


def test_tau_unit_and_braid(sl2_q3):
    H, G = sl2_q3.hecke, sl2_q3.group
    x = H.tau(G.lift_s(0))
    assert H.one() * x == x == x * H.one()
    # lengths add: single-term product
    w = G.lift_w(G.weyl.translation((1,)))
    s = G.lift_s(0)
    if (s.w * w.w).length() == w.w.length() + 1:
        assert H.tau(s) * H.tau(w) == H.tau(G.mul(s, w))
    # torus basis elements invert
    t = G.torus_elt((1,))
    assert H.tau(t) * H.tau(G.inv(t)) == H.one()


def test_theta_examples(sl2_q3, pgl2_q3):
    H, G = sl2_q3.hecke, sl2_q3.group
    th = H.theta(0)
    image, mu = G.coroot_image(G.weyl.s_aff[0].root)
    assert mu == 1 and len(image) == 2
    two = H.field.from_int(-1 * mu)  # -1 = 2 in F_3
    assert dict(th.items()) == {G.torus_elt(t): two for t in image}
    assert th * th == th

    Hp = pgl2_q3.hecke
    # |mu| = 2, trivial image: theta = -2 tau_1 = tau_1
    assert Hp.theta(0) == Hp.one()
    assert Hp.theta(0) * Hp.theta(0) == Hp.theta(0)


def test_quadratic_relation_worked_example(sl2_q3):
    H, G = sl2_q3.hecke, sl2_q3.group
    ns = G.lift_s(0)
    sq = H.tau(ns) * H.tau(ns)
    tbar = G.torus_elt((1,))
    assert sq == H.tau(ns) + H.tau(G.mul(tbar, ns))
    # no n_s^2 coset: its coefficient q vanishes in characteristic p
    assert sq.coeff(G.mul(ns, ns)).is_zero()
    assert len(sq.terms) == 2


@pytest.mark.parametrize(
    "name,p,f,m",
    [("SL2", 2, 1, 1), ("SL2", 3, 1, 1), ("SL2", 5, 1, 1), ("PGL2", 3, 1, 1),
     ("SL3", 3, 1, 1), ("Sp4", 3, 1, 1), ("SL2", 3, 2, 2)],
)
def test_quadratic_relations_everywhere(name, p, f, m):
    ctx = get_context(name, p, f, m)
    H, G = ctx.hecke, ctx.group
    for s in range(len(G.weyl.s_aff)):
        t, th = H.tau(G.lift_s(s)), H.theta(s)
        assert (t * t + th * t).is_zero()
        assert (t * t + t * th).is_zero()
        assert th * th == th


@pytest.mark.parametrize("p,f,m", [(2, 2, 2), (5, 1, 1), (3, 2, 2)])
def test_assoc_random_other_residue_sizes(p, f, m):
    # q = 4, 5, 9: seeded random triples at length <= 6
    from prophecke.verify import run_suite

    ctx = get_context("SL2", p, f, m)
    report = run_suite(ctx, "assoc", max_len=6, samples=1000)
    assert report["failures"] == []
    assert report["cases"] >= 1000


def test_e_lambda_family(sl2_q3):
    H, G = sl2_q3.hecke, sl2_q3.group
    es = {la: H.e_lambda(la) for la in G.torus_elements()}
    total = H.zero()
    for e in es.values():
        total = total + e
    assert total == H.one()
    for la, ea in es.items():
        for lb, eb in es.items():
            assert ea * eb == (ea if la == lb else H.zero())
    # eigenvalue rule on torus elements
    for la, e in es.items():
        for t in G.torus_elements():
            tt = H.tau(G.torus_elt(t))
            val = H.chi_lambda(la, t)
            assert e * tt == e.scale(val) == tt * e
    # theta rule
    for la, e in es.items():
        trivial = H._lam_trivial_on_image(la, G.weyl.s_aff[0].root)
        assert e * H.theta(0) == (e if trivial else H.zero())


def _e_lambda_by_negation(H, lam):
    """The reference for e_lambda: (-1)^rank lambda(-t) tau_t over T_q,
    with -t negated entrywise mod q - 1."""
    G = H.group
    sign = H.field.from_int((-1) ** G.rank)
    return H.elt({G.torus_elt(t): sign * H.chi_lambda(lam, tuple((-e) % G.qm1 for e in t))
                  for t in G.torus_elements()})


@pytest.mark.parametrize("which", ["SL2/GF5", "SL3/GF4", "PGL2xPGL2/GF3"])
def test_e_lambda_matches_negated_sum(which):
    """e_lambda, which divides by lambda(t), against the sum over the
    negated torus vectors, for every lambda."""
    ctx = {"SL2/GF5": lambda: get_context("SL2", 5),
           "SL3/GF4": lambda: get_context("SL3", 2, 2),
           "PGL2xPGL2/GF3": lambda: get_explicit_context("PGL2xPGL2")}[which]()
    H = ctx.hecke
    for lam in ctx.group.torus_elements():
        assert H.e_lambda(lam) == _e_lambda_by_negation(H, lam), lam


def test_conjugation_rule(sl3_q3):
    H, G = sl3_q3.hecke, sl3_q3.group
    for w in G.weyl.elements_up_to_length(2):
        tw = H.tau(G.lift_w(w))
        for la in G.torus_elements():
            assert tw * H.e_lambda(la) == H.e_lambda(H.conj_char(w, la)) * tw


def test_e_gamma_central(sl3_q3):
    H, G = sl3_q3.hecke, sl3_q3.group
    gens = [H.tau(G.lift_s(s)) for s in range(len(G.weyl.s_aff))]
    gens += [H.tau(b) for b in basis_elements(G, 2)[:10]]
    for la in [(0, 0), (1, 0), (1, 1)]:
        eg = H.e_gamma(la)
        for x in gens:
            assert eg * x == x * eg


def _orbit_by_generators(H, lam):
    """Reference orbit of a character exponent vector: closure under the
    simple reflections, one generator step at a time."""
    g, wg = H.group, H.group.weyl
    lam = tuple(e % g.qm1 for e in lam)
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for l in frontier:
            for w0 in wg.gen_index:
                Minv = wg.elements[wg.inv0[w0]]
                img = tuple(
                    sum(Minv[i][j] * l[i] for i in range(g.rank)) % g.qm1
                    for j in range(g.rank)
                )
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return sorted(seen)


@pytest.mark.parametrize("p,f", [(3, 1), (2, 2), (5, 1)])
@pytest.mark.parametrize("group", PRESET_NAMES)
def test_char_orbit_matches_generator_closure(group, p, f):
    H = get_context(group, p, f).hecke
    for lam in H.group.torus_elements():
        assert H.char_orbit(lam) == _orbit_by_generators(H, lam)


def test_iota(sl2_q3):
    H, G = sl2_q3.hecke, sl2_q3.group
    t = H.tau(G.torus_elt((1,)))
    assert H.iota(t) == t
    ns = H.tau(G.lift_s(0))
    assert H.iota(ns) == ns.scale(-1) - H.theta(0)
    assert H.iota(H.iota(ns)) == ns
    rng = random.Random(3)
    els = basis_elements(G, 3)
    for _ in range(50):
        x, y = H.tau(rng.choice(els)), H.tau(rng.choice(els))
        assert H.iota(x * y) == H.iota(x) * H.iota(y)


def test_J(sl2_q3):
    H, G = sl2_q3.hecke, sl2_q3.group
    assert H.J(H.one()) == H.one()
    ns = G.lift_s(0)
    assert H.J(H.tau(ns)) == H.tau(G.inv(ns))
    assert H.J(H.tau(ns)) == H.tau(G.mul(G.torus_elt((1,)), ns))
    rng = random.Random(4)
    els = basis_elements(G, 3)
    for _ in range(50):
        x, y = H.tau(rng.choice(els)), H.tau(rng.choice(els))
        assert H.J(x * y) == H.J(y) * H.J(x)
        assert H.J(H.J(x)) == x
        assert H.iota(H.J(x)) == H.J(H.iota(x))


def test_characters(sl2_q3):
    H, G = sl2_q3.hecke, sl2_q3.group
    one = H.field.one()
    for w in G.weyl.elements_up_to_length(4):
        x = H.tau(G.lift_w(w))
        if w.length() > 0:
            assert H.chi_eval("triv", x).is_zero()
        else:
            assert H.chi_eval("triv", x) == one
    assert H.chi_eval("sign", H.tau(G.lift_s(0))) == H.field.from_int(-1)
    e1 = H.e_lambda((0,))
    assert H.chi_eval("triv", e1) == one
    assert H.chi_eval("sign", e1) == one
    # multiplicativity, sampled
    rng = random.Random(5)
    els = basis_elements(G, 4)
    for _ in range(80):
        x, y = H.tau(rng.choice(els)), H.tau(rng.choice(els))
        for which in ("triv", "sign"):
            assert H.chi_eval(which, x * y) == H.chi_eval(which, x) * H.chi_eval(
                which, y
            )
    for a in els:
        x = H.tau(a)
        assert H.chi_eval("sign", x) == H.chi_eval("triv", H.iota(x))


def test_classify_character(sl2_q3):
    H = sl2_q3.hecke
    triv = H.classify_character((0,), (0, 0))
    assert triv == {"twisted_sign": [False], "twisted_trivial": [True],
                    "supersingular": False}
    sign = H.classify_character((0,), (-1, -1))
    assert sign["twisted_sign"] == [True] and not sign["supersingular"]
    ss = H.classify_character((1,), (0, 0))
    assert ss["supersingular"]


def test_affine_character_invariant():
    H = get_context("SL2", 3).hecke
    # eps = -1 with lambda nontrivial on the coroot image is inconsistent
    assert H.is_character((1,), (0, 0)) and not H.is_character((1,), (-1, 0))
    with pytest.raises(ValueError):
        H.classify_character((1,), (-1, 0))


def test_classify_per_component():
    ctx = get_context("SL2xSL2", 3)
    H = ctx.hecke
    # sign on the first factor, trivial on the second: not supersingular
    cls = H.classify_character((0, 0), (-1, 0, -1, 0))
    assert cls["twisted_sign"] == [True, False]
    assert cls["twisted_trivial"] == [False, True]
    assert not cls["supersingular"]
    # nontrivial torus character on both factors, eps = 0: supersingular
    cls2 = H.classify_character((1, 1), (0, 0, 0, 0))
    assert cls2["supersingular"]


def test_filtration_project(sl2_q3):
    H, G = sl2_q3.hecke, sl2_q3.group
    x = H.one() + H.tau(G.lift_s(0)) + H.tau(G.lift_w(G.weyl.translation((1,))))
    assert set(g.w.length() for g, _ in H.filtration_project(x, 1).items()) == {1, 2}
    assert set(g.w.length() for g, _ in H.filtration_project(x, 2).items()) == {2}
    assert H.filtration_project(x, 3).is_zero()


def test_graded_support_char_examples(sl2_q3):
    H, G = sl2_q3.hecke, sl2_q3.group
    s0 = G.lift_s(0)
    # trivial character, length 1: eps = -1 exactly at the descent
    ch = H.graded_support_char((0,), s0, "left")
    assert ch == (-1, 0)
    # nontrivial character: no -1 anywhere (image nontrivial at q=3)
    ch2 = H.graded_support_char((1,), s0, "left")
    assert ch2 == (0, 0)
    # grade 0 with nontrivial character: torus values lambda, eps = 0
    ch3 = H.graded_support_char((1,), G.identity(), "right")
    assert ch3 == (0, 0)
    for lam, eps in (((0,), ch), ((1,), ch2), ((1,), ch3)):
        assert H.classify_character(lam, eps)["supersingular"]


def test_graded_support_char_sides_mirror(sl3_q3):
    H, G = sl3_q3.hecke, sl3_q3.group
    for w in G.weyl.elements_of_length(2):
        lift = G.lift_w(w)
        chl = H.graded_support_char((0, 0), lift, "left")
        chr_ = H.graded_support_char((0, 0), lift, "right")
        assert [i for i, e in enumerate(chl) if e == -1] == w.descents("left")
        assert [i for i, e in enumerate(chr_) if e == -1] == w.descents("right")


def test_graded_support_char_checks_the_reflections(sl2_q3, monkeypatch):
    """With lambda taken as trivial on every coroot image, eps claims -1 at
    the descent of n_0, where lambda = (1,) makes it 0: every torus probe
    passes, and the reflection probe at s = 0 fails."""
    H, G = sl2_q3.hecke, sl2_q3.group
    monkeypatch.setattr(HeckeAlgebra, "_lam_trivial_on_image", lambda self, lam, r: True)
    with pytest.raises(TheoremViolationError,
                       match=r"^graded reflection eigenvalue fails at s=0, lam=\(1,\)"):
        H.graded_support_char((1,), G.lift_s(0), "left")


# Each public method taking a character exponent vector, called on SL2.
CHARACTER_METHODS = {
    "chi_lambda": lambda H, lam: H.chi_lambda(lam, (1,)),
    "e_lambda": lambda H, lam: H.e_lambda(lam),
    "conj_char": lambda H, lam: H.conj_char(H.group.weyl.identity(), lam),
    "char_orbit": lambda H, lam: H.char_orbit(lam),
    "graded_support_char": lambda H, lam: H.graded_support_char(
        lam, H.group.identity(), "left"),
    "is_character": lambda H, lam: H.is_character(lam, (0, 0)),
    "classify_character": lambda H, lam: H.classify_character(lam, (0, 0)),
}


@pytest.mark.parametrize("lam", [(), (1, 0), (1, 5, 7)], ids=["len0", "len2", "len3"])
@pytest.mark.parametrize("method", sorted(CHARACTER_METHODS))
def test_wrong_length_character_rejected(sl2_q3, method, lam):
    """A vector of the wrong length is an error, not read up to the
    shorter of it and the rank."""
    with pytest.raises(ValueError, match="must have length 1"):
        CHARACTER_METHODS[method](sl2_q3.hecke, lam)


@pytest.mark.parametrize("t", [(), (1, 0), (1, 5, 7)], ids=["len0", "len2", "len3"])
def test_chi_lambda_rejects_wrong_length_point(sl2_q3, t):
    """chi_lambda checks the torus point as well as the character: a
    wrong-length t is an error, not read up to the shorter vector."""
    H = sl2_q3.hecke
    assert H.chi_lambda((1,), (1,)) == H.field.zeta_q()
    with pytest.raises(ValueError, match="must have length 1"):
        H.chi_lambda((1,), t)


def test_chi_lambda_reads_the_point_as_a_torus_vector(sl3_q3):
    """A non-integer entry of t is refused by name; t is reduced mod q - 1
    like lam, which leaves every value as it was."""
    H, G = sl3_q3.hecke, sl3_q3.group
    for t in ((0.5, 0), (True, 0)):
        with pytest.raises(ValueError, match="entries must be integers"):
            H.chi_lambda((1, 0), t)
    for lam in G.torus_elements():
        for t in G.torus_elements():
            shifted = tuple(e - 3 * G.qm1 for e in t)
            assert H.chi_lambda(lam, shifted) == H.chi_lambda(lam, t)


def test_conj_char_rejects_a_foreign_weyl_element(sl2_q3, sl3_q3):
    H = sl3_q3.hecke
    with pytest.raises(GroupMismatchError):
        H.conj_char(sl2_q3.weyl.aff_gen(0), (1, 0))
    assert H.conj_char(sl3_q3.weyl.identity(), (1, 0)) == (1, 0)


def test_support_containment_and_length_bounds(sl2_q3):
    from prophecke import cosets

    H, G = sl2_q3.hecke, sl2_q3.group
    basis = basis_elements(G, 3)
    for v in basis:
        for w in basis:
            prod = [G.by_index[u] for u in H.basis_mul(v, w)]
            sup = cosets.support_mul(v, w)
            assert sup.issuperset(prod)
            for u in prod:
                assert abs(w.length() - v.length()) <= u.length()
                assert u.length() <= v.length() + w.length()


def test_algebra_mismatch_rejected(sl2_q3, sl3_q3):
    with pytest.raises(GroupMismatchError):
        sl2_q3.hecke.mul(sl2_q3.hecke.one(), sl3_q3.hecke.one())
    with pytest.raises(GroupMismatchError):
        sl2_q3.hecke.tau(sl3_q3.group.identity())


# Each method takes the foreign element h (of H) or x (of E) where it
# expects an operand of its own space; a is the context it is called on.
FOREIGN_OPERAND = {
    "iota": lambda a, h, x: a.hecke.iota(h),
    "J": lambda a, h, x: a.hecke.J(h),
    "chi_eval": lambda a, h, x: a.hecke.chi_eval("sign", h),
    "grade_part": lambda a, h, x: a.hecke.grade_part(h, 1),
    "filtration_project": lambda a, h, x: a.hecke.filtration_project(h, 1),
    "J_top": lambda a, h, x: a.top.J_top(x),
    "S_d": lambda a, h, x: a.top.S_d(x),
    "decompose": lambda a, h, x: a.top.decompose(x),
    "pairing, top operand": lambda a, h, x: a.top.pairing(x, a.hecke.one()),
    "pairing, Hecke operand": lambda a, h, x: a.top.pairing(
        a.top.phi(a.group.identity()), h),
    "act left, Hecke operand": lambda a, h, x: a.top.act(
        h, a.top.phi(a.group.identity()), "left"),
    "act right, Hecke operand": lambda a, h, x: a.top.act(
        h, a.top.phi(a.group.identity()), "right"),
    "act left, top operand": lambda a, h, x: a.top.act(a.hecke.one(), x, "left"),
    "act right, top operand": lambda a, h, x: a.top.act(a.hecke.one(), x, "right"),
    "coeff": lambda a, h, x: a.hecke.one().coeff(next(h.items())[0]),
    "elt": lambda a, h, x: a.top.elt(dict(x.items())),
}


@pytest.fixture(scope="module")
def foreign_sl2():
    """SL2 over another field, and a second SL2 context over GF(3) whose
    indices coincide with those of the shared one."""
    from prophecke import make_context

    return {"other field": get_context("SL2", 5), "same config": make_context("SL2", 3)}


@pytest.mark.parametrize("source", ["other field", "same config"])
@pytest.mark.parametrize("method", sorted(FOREIGN_OPERAND))
def test_foreign_operand_rejected(sl2_q3, foreign_sl2, method, source):
    """An element of another space is an error, not read through this
    space's index tables into an IndexError or a wrong value."""
    b = foreign_sl2[source]
    G = b.group
    ns, t = G.lift_s(0), G.torus_elt((1,))
    h = b.hecke.tau(ns) - b.hecke.tau(t)
    x = b.top.phi(ns) - b.top.phi(t)
    with pytest.raises(GroupMismatchError):
        FOREIGN_OPERAND[method](sl2_q3, h, x)


@pytest.mark.parametrize("source", ["GL3", "SL3"])
def test_basis_mul_memo_hit_checks_the_group(source):
    """With the pair's memo entry warm, another group's elements at the
    same indices (GL3's, or a second SL3 context's) raise as they do on a
    cold memo, not read SL3's terms."""
    from prophecke import make_context

    ctx = make_context("SL3", 3)  # fresh: the foreign probes meet its memo
    G, H = ctx.group, ctx.hecke
    x, y = G.lift_s(0), G.lift_s(1)
    assert H.basis_mul(x, y)
    other = make_context(source, 3).group
    fx, fy = other.by_index[x.index], other.by_index[y.index]
    for a, b in ((fx, fy), (fx, y), (x, fy)):
        with pytest.raises(GroupMismatchError):
            H.basis_mul(a, b)


BAD_CHOICE = {
    "act": lambda c: c.top.act(c.hecke.one(), c.top.phi(c.group.identity()), "up"),
    "graded_support_char": lambda c: c.hecke.graded_support_char(
        (1,), c.group.lift_s(0), "up"),
    "chi_eval": lambda c: c.hecke.chi_eval("bogus", c.hecke.one()),
    "word_tie": lambda c: HeckeAlgebra(c.group, c.field, word_tie="bogus"),
}


@pytest.mark.parametrize("method", sorted(BAD_CHOICE))
def test_bad_choice_rejected(sl2_q3, method):
    """A side other than left/right, a character other than triv/sign or
    a word tie other than min/max raises a ValueError naming the parameter."""
    with pytest.raises(ValueError, match="(side|which|word_tie) must be '"):
        BAD_CHOICE[method](sl2_q3)


def test_scalar_of_an_equal_field_accepted(sl2_q3):
    """elt and scale read a scalar of an equal field built again, and
    still refuse one of another field: GF(4)'s x in a GF(16) space."""
    from prophecke.gf import FieldSpec

    H, E, G = sl2_q3.hecke, sl2_q3.top, sl2_q3.group
    twin = FieldSpec(3)
    assert twin == H.field and twin is not H.field
    ns, two = G.lift_s(0), twin.from_int(2)
    assert H.elt({ns: two}) == H.tau(ns).scale(2) == H.tau(ns).scale(two)
    assert E.elt({ns: two}) == E.phi(ns).scale(2) == E.phi(ns).scale(two)
    gf16 = get_context("SL2", 2, 2, 4)
    x = FieldSpec(2, 2, 2).elt([0, 1])
    ns16 = gf16.group.lift_s(0)
    for call in (lambda: gf16.hecke.elt({ns16: x}), lambda: gf16.hecke.tau(ns16).scale(x),
                 lambda: gf16.top.phi(ns16).scale(x)):
        with pytest.raises(GroupMismatchError):
            call()


def test_field_group_q_mismatch():
    from prophecke.gf import FieldSpec
    from prophecke.hecke import HeckeAlgebra

    G = get_context("SL2", 3).group
    with pytest.raises(GroupMismatchError):
        HeckeAlgebra(G, FieldSpec(5))


def test_elements_own_their_terms(sl2_q3):
    """Zero coefficients are dropped by their producers, and no result
    shares its terms dict with a memo or with an element's unit: clearing
    one result's terms leaves an identical second call unchanged, and
    every unit still reads {index: 1}.  The length-zero operands reach the
    base cases that answer with a group product's unit."""
    from prophecke.serial import elt_from_json

    H, G, E = sl2_q3.hecke, sl2_q3.group, sl2_q3.top
    g, ns = G.torus_elt((1,)), G.lift_s(0)
    zeros = [
        H.elt({g: 0}),
        E.elt({g: 0}),
        (H.tau(ns) + H.tau(g)).scale(0),
        E.phi(ns).scale(0),
        elt_from_json(H, {"terms": [{"coeff": 3, "elt": ns.to_json()}]}),
    ]
    for z in zeros:
        assert z.is_zero() and z.terms == {}

    x, y = H.tau(ns), H.tau(ns) + H.tau(g).scale(2)
    ph = E.phi(ns) + E.phi(G.identity())
    calls = {
        "mul": lambda: H.mul(x, x),
        "mul dense": lambda: y * y,
        "act left": lambda: E.act(x, E.phi(ns), "left"),
        "act right": lambda: E.act(x, E.phi(ns), "right"),
        "act dense": lambda: E.act(y, ph, "left"),
        "iota": lambda: H.iota(x),
        "iota dense": lambda: H.iota(y),
        "J": lambda: H.J(y),
        "+": lambda: x + y,
        "-": lambda: y - x,
        "scale": lambda: y.scale(2),
        "act left, length zero": lambda: E.act(H.tau(g), E.phi(ns), "left"),
        "act right, length zero": lambda: E.act(H.tau(g), E.phi(ns), "right"),
        "mul, length zero": lambda: H.tau(g) * H.tau(ns),
        "iota, length zero": lambda: H.iota(H.tau(g)),
    }

    def units_intact():
        return all(e.unit == {e.index: 1} for e in G.by_index)

    for name, call in calls.items():
        first = call()
        want = dict(first.terms)
        assert want, name
        first.terms.clear()
        assert units_intact(), name
        assert call().terms == want, name
        assert units_intact(), name
