"""Top module: generator actions, duality pairing, trace, splitting, audit."""

import random

import pytest

from prophecke.errors import DecompositionUnavailableError, GroupMismatchError
from prophecke.propweyl import basis_elements
from prophecke.rootdata import PRESET_NAMES
from prophecke.verify import build_context, run_suite

from conftest import EXPLICIT_GROUPS, get_context, get_explicit_context


def test_act_examples(sl2_q3):
    H, G, E = sl2_q3.hecke, sl2_q3.group, sl2_q3.top
    ns = G.lift_s(0)
    tns = H.tau(ns)
    # ascent kills
    assert E.act(tns, E.phi(G.identity()), "right").is_zero()
    # descent: reflection translate plus the coroot-image translates
    got = E.act(tns, E.phi(ns), "right")
    image, mu = G.coroot_image(G.weyl.s_aff[0].root)
    expect = E.phi(G.mul(ns, ns))
    for t in image:
        expect = expect + E.phi(G.mul(ns, G.torus_elt(t))).scale(mu)
    assert got == expect and len(got.terms) == 3
    # length-zero elements relabel
    t = G.torus_elt((1,))
    assert E.act(H.tau(t), E.phi(ns), "left") == E.phi(G.mul(t, ns))
    assert E.act(H.tau(t), E.phi(ns), "right") == E.phi(G.mul(ns, t))


def test_act_left_right_mirror(sl3_q3):
    H, G, E = sl3_q3.hecke, sl3_q3.group, sl3_q3.top
    for s in range(len(G.weyl.s_aff)):
        tns = H.tau(G.lift_s(s))
        for b in basis_elements(G, 2):
            ph = E.phi(b)
            left = E.act(tns, ph, "left")
            lw = (G.lift_s(s).w * b.w).length()
            assert left.is_zero() == (lw == b.w.length() + 1)


@pytest.mark.parametrize("p,f", [(3, 1), (2, 2)], ids=["GF3", "GF4"])
@pytest.mark.parametrize("name", PRESET_NAMES + tuple(EXPLICIT_GROUPS))
def test_right_action_is_left_action_under_inversion(name, p, f):
    """The inversion twists intertwine the two actions of H on E:
    phi_u tau_y = J_top(J(tau_y) J_top(phi_u)).  y and u run over at most
    40 elements of length at most 1, taken at an even stride so that data
    with infinite Omega, whose list starts with many length-zero
    elements, reach length 1 too."""
    if name in EXPLICIT_GROUPS:
        ctx = build_context({"group": EXPLICIT_GROUPS[name], "field": {"p": p, "f": f}})
    else:
        ctx = get_context(name, p, f)
    H, E = ctx.hecke, ctx.top
    els = basis_elements(ctx.group, 1)
    els = els[::-(-len(els) // 40)]
    for y in els:
        h = H.tau(y)
        Jh = H.J(h)
        for u in els:
            x = E.phi(u)
            assert E.act(h, x, "right") == E.J_top(E.act(Jh, E.J_top(x), "left")), (y, u)


def test_J_top(sl2_q3):
    G, E = sl2_q3.group, sl2_q3.top
    assert E.J_top(E.phi(G.identity())) == E.phi(G.identity())
    ns = G.lift_s(0)
    assert E.J_top(E.phi(ns)) == E.phi(G.inv(ns))
    for b in basis_elements(G, 3):
        x = E.phi(b)
        assert E.J_top(E.J_top(x)) == x


def test_pairing_dual_bases(sl2_q3):
    H, G, E = sl2_q3.hecke, sl2_q3.group, sl2_q3.top
    one, zero = H.field.one(), H.field.zero()
    basis = basis_elements(G, 2)
    for a in basis:
        for b in basis:
            assert E.pairing(E.phi(a), H.tau(b)) == (one if a == b else zero)


def test_pairing_omega_shift(sl2_q3):
    # moving a length-zero factor across the pairing
    H, G, E = sl2_q3.hecke, sl2_q3.group, sl2_q3.top
    om = G.torus_elt((1,))
    for a in basis_elements(G, 2):
        for b in basis_elements(G, 2):
            lhs = E.pairing(E.act(H.tau(om), E.phi(a), "right"), H.tau(b))
            rhs = E.pairing(E.phi(a), H.tau(b) * H.tau(G.inv(om)))
            assert lhs == rhs


def test_adjunction_exhaustive_small(sl2_q3):
    H, G, E = sl2_q3.hecke, sl2_q3.group, sl2_q3.top
    taus = basis_elements(G, 1)
    phis = basis_elements(G, 2)
    for a in taus:
        for b in taus:
            for c in taus:
                for d in phis:
                    t1, t2, t3 = H.tau(a), H.tau(b), H.tau(c)
                    ph = E.phi(d)
                    lhs = E.pairing(E.act(t2, E.act(t1, ph, "left"), "right"), t3)
                    rhs = E.pairing(ph, H.J(t1) * t3 * H.J(t2))
                    assert lhs == rhs


def test_S_d(sl2_q3):
    H, G, E = sl2_q3.hecke, sl2_q3.group, sl2_q3.top
    one = H.field.one()
    for b in basis_elements(G, 3):
        assert E.S_d(E.phi(b)) == one
    assert E.S_d(E.zero()).is_zero()
    # descent case sums to q = 0 in k
    ns = G.lift_s(0)
    assert E.S_d(E.act(H.tau(ns), E.phi(ns), "left")).is_zero()
    for b in basis_elements(G, 3):
        ph = E.phi(b)
        assert E.S_d(E.J_top(ph)) == E.S_d(ph)
        for s in range(2):
            tg = H.tau(G.lift_s(s))
            want = H.chi_eval("triv", tg) * E.S_d(ph)
            assert E.S_d(E.act(tg, ph, "left")) == want
            assert E.S_d(E.act(tg, ph, "right")) == want


def test_decompose_sl2(sl2_q3):
    H, G, E = sl2_q3.hecke, sl2_q3.group, sl2_q3.top
    x = E.phi(G.identity())
    triv, ker = E.decompose(x)
    # c = |T_q| = q - 1 = -1 in F_3, so triv = -(sum of phi over T_q)
    line = E.triv_line()
    assert triv == line.scale(H.field.from_int(-1))
    assert triv + ker == x
    assert E.S_d(ker).is_zero()
    # trace-free input passes through
    y = E.phi(G.lift_s(0)) - E.phi(G.torus_elt((1,)))
    t2, k2 = E.decompose(y)
    assert t2.is_zero() and k2 == y
    # idempotent
    t3, k3 = E.decompose(triv)
    assert t3 == triv and k3.is_zero()


def test_decompose_unavailable():
    gl2 = get_context("GL2", 3)
    with pytest.raises(DecompositionUnavailableError):
        gl2.top.decompose(gl2.top.phi(gl2.group.identity()))
    pgl2_p2 = get_context("PGL2", 2)
    with pytest.raises(DecompositionUnavailableError):
        pgl2_p2.top.decompose(pgl2_p2.top.phi(pgl2_p2.group.identity()))


@pytest.mark.parametrize("name", PRESET_NAMES + tuple(EXPLICIT_GROUPS))
def test_triv_line_matches_omega_listing(name):
    """triv_line against the listing it replaced, Omega's elements times
    the torus, wherever Omega is finite (GF(3)); elsewhere, GL2 among
    them, it raises."""
    ctx = get_explicit_context(name) if name in EXPLICIT_GROUPS else get_context(name, 3)
    G, E = ctx.group, ctx.top
    om = G.weyl.omega()
    if not om.finite:
        with pytest.raises(DecompositionUnavailableError, match="Omega is infinite"):
            E.triv_line()
        return
    want = {G.elt(t, w).index: 1 for w in om.elements for t in G.torus_elements()}
    assert E.triv_line().terms == want


def test_decompose_pgl2_odd_p():
    # |Omega| = 2 invertible in F_3: splitting exists
    ctx = get_context("PGL2", 3)
    E = ctx.top
    x = E.phi(ctx.group.identity())
    triv, ker = E.decompose(x)
    assert triv + ker == x and E.S_d(ker).is_zero()


def test_bimodule_axioms_random(sp4_q3):
    H, G, E = sp4_q3.hecke, sp4_q3.group, sp4_q3.top
    rng = random.Random(11)
    els = basis_elements(G, 3)
    for _ in range(60):
        a, b, d = rng.choice(els), rng.choice(els), rng.choice(els)
        x, y, ph = H.tau(a), H.tau(b), E.phi(d)
        assert E.act(x * y, ph, "left") == E.act(x, E.act(y, ph, "left"), "left")
        assert E.act(x * y, ph, "right") == E.act(y, E.act(x, ph, "right"), "right")
        assert E.act(y, E.act(x, ph, "left"), "right") == E.act(
            x, E.act(y, ph, "right"), "left"
        )


def test_module_respects_quadratic(sl3_q3):
    H, G, E = sl3_q3.hecke, sl3_q3.group, sl3_q3.top
    for s in range(len(G.weyl.s_aff)):
        tns = H.tau(G.lift_s(s))
        rel = tns * tns
        for b in basis_elements(G, 2):
            ph = E.phi(b)
            assert E.act(tns, E.act(tns, ph, "left"), "left") == E.act(rel, ph, "left")
            assert E.act(tns, E.act(tns, ph, "right"), "right") == E.act(
                rel, ph, "right"
            )


def test_audit_example_entries(sl2_q3):
    rep = run_suite(sl2_q3, "supersingular", max_len=2)
    assert rep["failures"] == [] and rep["cases"] == len(rep["entries"])
    # m=1, trivial character, w = s: descent at s, ascent elsewhere
    hits = [
        e
        for e in rep["entries"]
        if e["m"] == 1 and e["lambda"] == [0] and e["side"] == "left"
    ]
    assert hits and all(e["verdict"] == "supersingular" for e in hits)
    assert any(e["eps"] == [-1, 0] or e["eps"] == [0, -1] for e in hits)
    # m=0 entries exist only for nontrivial characters
    zero_grade = [e for e in rep["entries"] if e["m"] == 0]
    assert zero_grade and all(e["lambda"] != [0] for e in zero_grade)


def test_audit_rejects_non_simply_connected(pgl2_q3):
    with pytest.raises(ValueError):
        run_suite(pgl2_q3, "supersingular", max_len=1)


def test_top_elt_json(sl2_q3):
    from prophecke.serial import elt_from_json

    G, E = sl2_q3.group, sl2_q3.top
    x = E.phi(G.lift_s(0)) + E.phi(G.identity()).scale(2)
    assert elt_from_json(E, x.to_json()) == x


def test_hecke_and_top_elements_do_not_mix(sl2_q3):
    H, G, E = sl2_q3.hecke, sl2_q3.group, sl2_q3.top
    tau, phi = H.tau(G.lift_s(0)), E.phi(G.lift_s(0))
    assert tau.terms == phi.terms
    assert tau != phi and phi != tau
    for a, b in ((tau, phi), (phi, tau)):
        with pytest.raises(GroupMismatchError):
            a + b
        with pytest.raises(GroupMismatchError):
            a - b


def _broken_apply_gen(fault):
    """TopModule._apply_gen with one fault: "left" or "right" drops the
    |mu| translates on that side; "ascent" lets a right ascent move phi_u
    instead of annihilating it."""

    def apply_gen(self, s, u, side):
        g = self.group
        moved, translates = g.step(s, u, side)
        if not translates:
            return {moved.index: 1} if fault == "ascent" and side == "right" else {}
        if fault == side:
            return {moved.index: 1}
        mu_c = self.field.from_int(g.aff_image(s)[1]).i
        return {moved.index: 1, **{t.index: mu_c for t in translates}}

    return apply_gen


# (group, fault) -> (failure count, SHA-256 of the canonical JSON of the
# failure list) of "bimodule" at max_len 1 over GF(3).  They were recorded
# while the suite recomputed each generator's action for every partner
# generator, so computing it once must find the same failures in the same
# order.
BROKEN_BIMODULE = {
    ("SL2", "left"): (12,
        "351357f59458b048be953262e742897075a57676d8f453093d9f779503d4cc6a"),
    ("SL2", "right"): (12,
        "45f0e23aa1862caefd58203c2bcab096987577ba07a0f7fe73869b08bb9c5d7f"),
    ("SL2", "ascent"): (32,
        "a542290ff27b96ad7c5fc05aa8ced556b3dfc14ebceacfaf2bc9a2012b3d8dbc"),
    ("SL3", "left"): (36,
        "4827f40be926497ec34900b086e333e4e748f5121b0fb0495d92c90a250886f1"),
    ("SL3", "right"): (36,
        "dffd0729db9669a0a9ba9587d2734205ef27240afeb2247bcbff542bfc8b6981"),
    ("SL3", "ascent"): (120,
        "630ce9b5dadc9e976af1e9a68ce7e7890b7bee4cff0e222df801c6ae56d31833"),
}


@pytest.mark.parametrize("group,fault", list(BROKEN_BIMODULE))
def test_bimodule_catches_broken_actions(monkeypatch, group, fault):
    import hashlib

    from prophecke import make_context
    from prophecke.serial import canonical_json
    from prophecke.topmod import TopModule

    monkeypatch.setattr(TopModule, "_apply_gen", _broken_apply_gen(fault))
    ctx = make_context(group, 3)  # fresh: the broken actions fill its memo
    failures = run_suite(ctx, "bimodule", max_len=1)["failures"]
    digest = hashlib.sha256(canonical_json(failures).encode()).hexdigest()
    assert (len(failures), digest) == BROKEN_BIMODULE[group, fault]


def test_bimodule_on_pgl2xpgl2():
    """Two right descents after a coefficient |mu| = 2 = -1 in GF(3): the
    case a wrong right-action recursion coefficient shows in."""
    report = run_suite(get_explicit_context("PGL2xPGL2"), "bimodule", max_len=2)
    assert report["failures"] == [] and report["cases"] == 41600


@pytest.mark.parametrize("name", ["SL2", "PGL2xPGL2"])
def test_length_zero_base_cases_are_not_memoised(name):
    """A length-zero left factor is answered from the group product and
    stored nowhere: after bimodule and cosets, no key of the action memo
    has a length-zero y, and the base cases give the relabelled basis
    vector."""
    from prophecke import cosets, make_context

    if name in EXPLICIT_GROUPS:  # fresh: the suites below fill its memos
        ctx = build_context({"group": EXPLICIT_GROUPS[name], "field": {"p": 3, "f": 1}})
    else:
        ctx = make_context(name, 3)
    G, E = ctx.group, ctx.top
    for suite, max_len in (("bimodule", 1), ("cosets", 2)):
        report = run_suite(ctx, suite, max_len=max_len)
        assert report["failures"] == [], suite
    elts = G.by_index
    assert E._act_cache
    assert all(elts[y].length() > 0 for y, _, _ in E._act_cache)

    size = len(E._act_cache)
    basis = basis_elements(G, 1)
    for t in (x for x in basis if x.length() == 0):
        for u in basis:
            assert E._act_basis(t, u, "left") == {G.mul(t, u).index: 1}
            assert E._act_basis(t, u, "right") == {G.mul(u, t).index: 1}
            assert cosets.support_mul(t, u) == {G.mul(t, u)}
    assert len(E._act_cache) == size
