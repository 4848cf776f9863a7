"""HeckeAlgebra.mul's two routes: the tau pair loop, the reference, and
the e route through the torus idempotents, taken for products of two
operands dense in the torus.  Every product here is checked against the
pair loop written out below."""

import random

import pytest

from prophecke import make_context
from prophecke.hecke import accumulate
from prophecke.propweyl import ProPElt
from prophecke.rootdata import PRESET_NAMES
from prophecke.verify import run_suite

from conftest import get_context, get_explicit_context


def tau_loop(H, x, y):
    """x y as the sum over term pairs of the memoised basis products."""
    out, elts, mul = {}, H.group.by_index, H.field._mul
    for gx, cx in x.terms.items():
        for gy, cy in y.terms.items():
            accumulate(out, H.basis_mul(elts[gx], elts[gy]), mul[cx][cy], H.field)
    return out


def spy_e_route(H, monkeypatch):
    """A list that grows by one for every product taking the e route."""
    taken, e_mul = [], H._e_mul
    monkeypatch.setattr(H, "_e_mul", lambda x, y: taken.append(1) or e_mul(x, y))
    return taken


def operands(H, max_len, seed):
    """iota images of one basis element per Weyl part up to max_len, sums
    of neighbouring images, and per Weyl part the sum over the torus of
    the images of its translates with seeded coefficients."""
    G, rng = H.group, random.Random(seed)
    torus = G.torus_elements()
    ws = G.weyl.elements_up_to_length(max_len)
    images = [H.iota(H.tau(ProPElt(G, rng.choice(torus), w))) for w in ws]
    sums = [a + b for a, b in zip(images, images[1:])]
    orbits = [sum((H.iota(H.tau(ProPElt(G, t, w))).scale(rng.randrange(1, H.field.order))
                   for t in torus), H.zero()) for w in ws]
    return images + sums + orbits


def check_products(H, ops, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        x, y = rng.choice(ops), rng.choice(ops)
        assert H.mul(x, y).terms == tau_loop(H, x, y)


@pytest.mark.parametrize("group", PRESET_NAMES)
def test_routes_agree_on_every_preset(group, monkeypatch):
    H = get_context(group, 3).hecke
    taken = spy_e_route(H, monkeypatch)
    check_products(H, operands(H, 2, seed=27), 60, seed=28)
    assert taken


def test_routes_agree_on_pgl2xpgl2(monkeypatch):
    """|mu| = 2 on both roots; each operand fills the torus over two Weyl
    parts, so it has twice |T_q| terms and takes the e route."""
    H = get_explicit_context("PGL2xPGL2").hecke
    G, rng = H.group, random.Random(29)
    torus = G.torus_elements()
    ws = G.weyl.elements_up_to_length(3)

    def dense():
        return H.elt({ProPElt(G, t, w): rng.randrange(1, 3)
                      for w in rng.sample(ws, 2) for t in torus})

    taken = spy_e_route(H, monkeypatch)
    for _ in range(40):
        x, y = dense(), dense()
        assert len(x.terms) > len(torus) and len(y.terms) > len(torus)
        assert H.mul(x, y).terms == tau_loop(H, x, y)
    assert len(taken) == 40
    check_products(H, operands(H, 2, seed=30), 40, seed=31)


def test_routes_agree_on_sl3_at_q4_inside_gf16(monkeypatch):
    H = get_context("SL3", 2, 2, 4).hecke
    taken = spy_e_route(H, monkeypatch)
    check_products(H, operands(H, 2, seed=32), 40, seed=33)
    assert taken


def test_torus_past_the_bound_keeps_the_tau_route():
    """SL2 over GF(2^8) has |T_q| = 255, more than torus_elements() lists:
    two operands of 256 terms multiply through the pair loop, and no
    character table or constant is built."""
    ctx = make_context("SL2", 2, 8, 8)
    H, G = ctx.hecke, ctx.group
    x, y = H.iota(H.tau(G.lift_s(0))), H.iota(H.tau(G.lift_s(1)))
    assert len(x.terms) == len(y.terms) == 256
    assert H.mul(x, y).terms == tau_loop(H, x, y)
    assert H._chars is None and not H._e_consts


def test_single_term_operands_never_take_the_e_route():
    """assoc multiplies basis elements only: no constant is memoised."""
    ctx = make_context("SL3", 3)
    report = run_suite(ctx, "assoc", max_len=2)
    assert report["cases"] == 64009 and report["failures"] == []
    assert ctx.hecke._chars is None and not ctx.hecke._e_consts


@pytest.mark.parametrize("group", PRESET_NAMES)
def test_products_of_canonical_lifts_have_one_weyl_part(group):
    """Since q = 0 in k, tau_{n_v} tau_{n_w} lies in k[T_q] tau_{n_u}."""
    H = get_context(group, 3).hecke
    G = H.group
    lifts = [ProPElt(G, G.zero_t, w) for w in G.weyl.elements_up_to_length(2)]
    for nv in lifts:
        for nw in lifts:
            terms = H.basis_mul(nv, nw)
            assert len({G.by_index[h].w for h in terms}) == 1
            u, c = H._e_const(nv.w, nw.w)
            assert G.by_index[next(iter(terms))].w is u and any(c)


@pytest.mark.parametrize("group,p", [(g, 3) for g in PRESET_NAMES] + [("SL3", 5)])
def test_character_table_matches_the_character_methods(group, p):
    """perm[w0] sends lam to lam o v, which is conj_char of v^{-1}; vals
    holds chi_lambda and idem the coefficients of e_lambda."""
    H = get_context(group, p).hecke
    G = H.group
    wg, torus = G.weyl, G.torus_elements()
    pos, vals, idem, perm = H._char_table()
    assert all(torus[pos[t]] == t for t in torus)
    for lam, row, e_row in zip(torus, vals, idem):
        assert row == [H.chi_lambda(lam, t).i for t in torus]
        assert e_row == [H.e_lambda(lam).terms.get(G.torus_elt(t).index, 0) for t in torus]
    for w0 in range(wg.order):
        v_inv = wg.elt(wg.inv0[w0])
        for lam, image in zip(torus, perm[w0]):
            assert torus[image] == H.conj_char(v_inv, lam)
            assert all(H.chi_lambda(torus[image], t) == H.chi_lambda(lam, G.torus_action(w0, t))
                       for t in torus)
