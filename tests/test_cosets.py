"""Double-coset support calculus and root-filtration profiles."""

import hashlib
import json

import pytest

from prophecke import cosets
from prophecke.errors import GroupMismatchError
from prophecke.propweyl import ProPElt, basis_elements
from prophecke.rootdata import PRESET_NAMES, AffineRoot, dot

from prophecke.verify import build_context, make_context

from conftest import EXPLICIT_GROUPS, get_context, get_explicit_context


def test_support_additive_lengths(sl2_q3):
    G = sl2_q3.group
    s = G.lift_s(0)
    w = G.lift_s(1)
    assert (s.w * w.w).length() == 2
    assert cosets.support_mul(s, w) == {G.mul(s, w)}


def test_support_quadratic_branch(sl2_q3):
    G = sl2_q3.group
    s = G.lift_s(0)
    sup = cosets.support_mul(s, s)
    image, _ = G.coroot_image(G.weyl.s_aff[0].root)
    expect = {G.mul(s, s)} | {G.mul(G.torus_elt(t), s) for t in image}
    assert sup == frozenset(expect)
    assert len(sup) == 3


def test_support_word_independence(sl3_q3):
    G = sl3_q3.group
    basis = basis_elements(G, 3)
    for v in basis[::5]:
        for w in basis[::7]:
            assert cosets.support_mul(v, w) == cosets.support_mul(v, w, tie="max")


def test_support_rejects_mixed_groups(sl2_q3, sl3_q3):
    for v, w in ((sl2_q3.group.identity(), sl3_q3.group.identity()),
                 (sl3_q3.group.lift_s(0), sl2_q3.group.lift_s(0))):
        with pytest.raises(GroupMismatchError):
            cosets.support_mul(v, w)


def test_support_rejects_an_unknown_tie(sl2_q3):
    """The tie is checked on entry, so a length-zero v, which never
    reaches peel, refuses it as a v of positive length does."""
    G = sl2_q3.group
    for v in (G.identity(), G.lift_s(0)):
        with pytest.raises(ValueError, match="tie must be 'min' or 'max', got 'bogus'"):
            cosets.support_mul(v, G.lift_s(0), tie="bogus")


def fresh_context(name):
    """A context of its own over GF(3): conftest's are shared, and with
    them their memos."""
    if name in EXPLICIT_GROUPS:
        return build_context({"group": EXPLICIT_GROUPS[name], "field": {"p": 3, "f": 1}})
    return make_context(name, 3)


def support_unmemoised(v, w, tie):
    """Oracle: the peel recursion of support_mul with no memo and a fresh
    singleton per length-zero base case."""
    group = v.group
    if v.w.length() == 0:
        return frozenset((group.mul(v, w),))
    s, vp = group.peel(v, tie)
    moved, translates = group.step(s, w)
    result = support_unmemoised(vp, moved, tie)
    for u in translates:
        result = result | support_unmemoised(vp, u, tie)
    return result


def sample_up_to_length_2(group, size=150):
    """Every element up to length 2 when there are at most size of them,
    else an even stride through the canonical order (length first)."""
    basis = basis_elements(group, 2)
    return basis[::-(-len(basis) // size)]


@pytest.mark.parametrize("name", PRESET_NAMES + tuple(EXPLICIT_GROUPS))
def test_support_matches_unmemoised_recursion(name):
    G = fresh_context(name).group
    elts = sample_up_to_length_2(G)
    for tie in ("min", "max"):
        for v in elts:
            for w in elts:
                assert cosets.support_mul(v, w, tie) == support_unmemoised(v, w, tie), (v, w, tie)


@pytest.mark.parametrize("name", ["SL3", "PGL2xPGL2"])
def test_support_keeps_no_memo(name):
    """A length-zero left factor gives the one class of the group product
    under either tie, and the group holds no support memo."""
    G = fresh_context(name).group
    elts = sample_up_to_length_2(G)
    for t in (x for x in elts if x.length() == 0):
        for u in elts:
            assert cosets.support_mul(t, u) == cosets.support_mul(t, u, tie="max") == {G.mul(t, u)}
    assert not hasattr(G, "_support_cache")
    assert "classes" not in ProPElt.__slots__


def long_word(G, length, t):
    """The torus element t times the element of the given length whose
    word cycles through the letters, skipping each that would not
    lengthen it."""
    x = G.identity()
    i = 0
    while x.length() < length:
        y = G.mul(x, G.lift_s(i % len(G.weyl.s_aff)))
        if y.length() == x.length() + 1:
            x = y
        i += 1
    return G.mul(G.torus_elt(t), x)


def classes_digest(sup):
    rows = sorted(json.dumps(x.to_json(), sort_keys=True) for x in sup)
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:12]


@pytest.mark.parametrize("name, p, f, t, inv_want, sq_want", [
    ("SL3", 2, 2, (1, 2), (61, "8f2e26483d7e"), (31, "7163818e39fb")),
    ("G2sc", 3, 1, (1, 0), (217, "85e4b54b0b61"), (7, "32923d92b5b1")),
], ids=["SL3", "G2sc"])
def test_support_of_a_length_20_word(name, p, f, t, inv_want, sq_want):
    """v of length 20 against v^-1 and against v: pinned class counts and
    digests, the same under both ties."""
    G = make_context(name, p, f).group
    v = long_word(G, 20, t)
    assert v.length() == 20
    for w, want in ((G.inv(v), inv_want), (v, sq_want)):
        sup = cosets.support_mul(v, w)
        assert sup == cosets.support_mul(v, w, tie="max")
        assert (len(sup), classes_digest(sup)) == want


def test_index(sl2_q3):
    G = sl2_q3.group
    assert cosets.index(G, G.identity()) == 1
    assert cosets.index(G, G.lift_s(0)) == 3
    assert cosets.index(G, G.weyl.translation((1,))) == 9


def test_index_rejects_what_is_not_an_element_of_the_group(sl3_q3):
    """Only a pro-p or Weyl element of the group has an index: a number,
    a bool, or an element of another group (whose q may differ) raises
    GroupMismatchError instead of a power of this group's q."""
    G = sl3_q3.group
    other = make_context("SL2", 5).group
    for bad in (-1, 2.7, True, 3, other.lift_s(0), other.weyl.aff_gen(0)):
        with pytest.raises(GroupMismatchError, match="from a different group"):
            cosets.index(G, bad)


def test_g_profile_identity_and_reflection(sl2_q3):
    G = sl2_q3.group
    rd = G.rd
    gid = cosets.g_profile(G.weyl.identity())
    for i in range(len(rd.roots)):
        assert gid[i] == (0 if rd.is_positive_root(i) else 1)
    gs = cosets.g_profile(G.weyl.simple_reflection(0))
    assert all(v == 1 for v in gs.values())


def g_profile_scan(w):
    """Oracle: per root, scan m upward from a bound below both conditions
    until (alpha, m) and its w-preimage are positive affine roots."""
    rd = w.group.rd
    winv = w.inv()
    values = {}
    for i in range(len(rd.roots)):
        m = min(0, dot(winv.mu, rd.roots[i])) - 1
        while not (rd.is_positive_affine(AffineRoot(i, m))
                   and rd.is_positive_affine(winv.act_affine(AffineRoot(i, m)))):
            m += 1
        values[i] = m
    return values


@pytest.mark.parametrize("name", PRESET_NAMES + tuple(EXPLICIT_GROUPS))
def test_g_profile_matches_scan(name):
    ctx = get_context(name, 3) if name in PRESET_NAMES else get_explicit_context(name)
    for w in ctx.weyl.elements_up_to_length(4):
        assert cosets.g_profile(w) == g_profile_scan(w)


def test_g_profile_sum_rule(sl3_q3):
    G = sl3_q3.group
    for w in G.weyl.elements_up_to_length(4):
        assert cosets.g_profile_sum_check(w)


def test_g_profile_monotone_and_growth(sp4_q3):
    wg = sp4_q3.weyl
    ws = wg.elements_up_to_length(3)
    profiles = {w: cosets.g_profile(w) for w in ws}
    gid = cosets.g_profile_identity(wg.rd)
    for w in ws:
        assert sum(profiles[w][i] - gid[i] for i in gid) == w.length()
    for v in ws:
        for w in ws:
            vw = v * w
            if vw.length() == v.length() + w.length():
                pvw = profiles.get(vw) or cosets.g_profile(vw)
                assert all(pvw[i] >= profiles[v][i] for i in profiles[v])
    for w in ws:
        for si, A in enumerate(wg.s_aff):
            ws_elt = w * wg.aff_gen(si)
            if ws_elt.length() != w.length() + 1:
                continue
            B = w.act_affine(A)
            pws = profiles.get(ws_elt) or cosets.g_profile(ws_elt)
            for i in profiles[w]:
                want = profiles[w][i] + (1 if i == B.root else 0)
                assert pws[i] == want


def test_support_json(sl2_q3):
    G = sl2_q3.group
    sup = cosets.support_mul(G.lift_s(0), G.lift_s(0))
    assert type(sup) is frozenset and len(sup) == 3
    for x in sup:
        data = x.to_json()
        assert "torus" in data and "w" in data
        assert ProPElt.from_json(G, data) is x


def test_gprofile_torus_part_irrelevant(sl2_q3):
    # profiles are defined on the extended affine Weyl group; the support
    # calculus upstairs sees torus parts, the profile does not
    G = sl2_q3.group
    w = G.weyl.translation((1,)) * G.weyl.simple_reflection(0)
    p1 = cosets.g_profile(w)
    assert sum(p1.values()) >= 0  # well-defined integers
    A = AffineRoot(G.rd.simple[0], 0)
    assert w.act_affine(A) is not None
