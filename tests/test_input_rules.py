"""Each input rule has one owner, and every caller raises the owner's error.

The owners: WeylGroup.own for a Weyl element of the group, ProPWeyl.own
for a pro-p element, SparseSpace.own for an element of H or E,
weyl._check_side for a side and propweyl._check_tie for a word tie.  A
caller handed a foreign element, a bad side or a bad tie must raise the
exception type and the message the owner raises for the same value, and
must leave the step, peel and reduced-word memos of both groups as they
were.
"""

from types import SimpleNamespace

import pytest

from prophecke import cosets, make_context
from prophecke.hecke import HeckeAlgebra
from prophecke.propweyl import _check_tie
from prophecke.weyl import _check_side


def _warm(ctx):
    """The parts of a warm SL3/GF(3) context the calls below read: x has
    positive length, and its step and peel answers sit in the tables."""
    G = ctx.group
    x = G.mul(G.lift_s(0), G.lift_s(1))
    for s in range(len(G.weyl.s_aff)):
        for side in ("left", "right"):
            G.step(s, x, side)
    for tie in ("min", "max"):
        G.peel(x, tie)
    ctx.hecke.basis_mul(x, x)
    return SimpleNamespace(ctx=ctx, G=G, H=ctx.hecke, E=ctx.top, x=x, w=x.w,
                           h=ctx.hecke.tau(x), e=ctx.top.phi(x))


@pytest.fixture(scope="module")
def pair():
    """Two contexts built alike: their elements carry the same intern
    indices, so a memo row of one is keyed like the other's elements."""
    c, f = _warm(make_context("SL3", 3)), _warm(make_context("SL3", 3))
    assert c.x.index == f.x.index and c.x is not f.x
    return c, f


OWNERS = {
    "WeylGroup.own": lambda c, f: c.G.weyl.own(f.w),
    "ProPWeyl.own": lambda c, f: c.G.own(f.x),
    "HeckeAlgebra.own": lambda c, f: c.H.own(f.h),
    "TopModule.own": lambda c, f: c.E.own(f.e),
    "_check_side": lambda c, f: _check_side("up"),
    "_check_tie": lambda c, f: _check_tie("tie", "bogus"),
    "_check_tie(word_tie)": lambda c, f: _check_tie("word_tie", "bogus"),
}

# (owner, caller, the call with a bad value)
CASES = [
    ("WeylGroup.own", "ProPWeyl.elt", lambda c, f: c.G.elt((0, 0), f.w)),
    ("WeylGroup.own", "ProPWeyl.lift_omega",
     lambda c, f: c.G.lift_omega(f.G.weyl.identity())),
    ("WeylGroup.own", "HeckeAlgebra.conj_char", lambda c, f: c.H.conj_char(f.w, (1, 0))),
    ("WeylGroup.own", "ExtAffWeylElt.__mul__", lambda c, f: c.w * f.w),
    ("WeylGroup.own", "cosets.index", lambda c, f: cosets.index(c.G, f.w)),
    ("ProPWeyl.own", "ProPWeyl.inv", lambda c, f: c.G.inv(f.x)),
    ("ProPWeyl.own", "ProPWeyl.mul(left)", lambda c, f: c.G.mul(f.x, c.x)),
    ("ProPWeyl.own", "ProPWeyl.mul(right)", lambda c, f: c.G.mul(c.x, f.x)),
    ("ProPWeyl.own", "ProPWeyl.step", lambda c, f: c.G.step(0, f.x, "right")),
    ("ProPWeyl.own", "ProPWeyl.peel", lambda c, f: c.G.peel(f.x)),
    ("ProPWeyl.own", "HeckeAlgebra.basis_mul(left)", lambda c, f: c.H.basis_mul(f.x, c.x)),
    ("ProPWeyl.own", "HeckeAlgebra.basis_mul(right)", lambda c, f: c.H.basis_mul(c.x, f.x)),
    ("ProPWeyl.own", "SparseComb.coeff", lambda c, f: c.h.coeff(f.x)),
    ("ProPWeyl.own", "SparseSpace.elt", lambda c, f: c.H.elt({f.x: 1})),
    ("ProPWeyl.own", "HeckeAlgebra.tau", lambda c, f: c.H.tau(f.x)),
    ("ProPWeyl.own", "TopModule.phi", lambda c, f: c.E.phi(f.x)),
    ("ProPWeyl.own", "cosets.support_mul", lambda c, f: cosets.support_mul(c.x, f.x)),
    ("ProPWeyl.own", "cosets.index", lambda c, f: cosets.index(c.G, f.x)),
    ("HeckeAlgebra.own", "HeckeAlgebra.mul", lambda c, f: c.H.mul(c.h, f.h)),
    ("HeckeAlgebra.own", "TopModule.act", lambda c, f: c.E.act(f.h, c.e, "left")),
    ("TopModule.own", "TopModule.act", lambda c, f: c.E.act(c.h, f.e, "right")),
    ("_check_side", "ExtAffWeylElt.descents", lambda c, f: c.w.descents("up")),
    ("_check_side", "ProPWeyl.step", lambda c, f: c.G.step(0, c.x, "up")),
    ("_check_side", "TopModule.act", lambda c, f: c.E.act(c.h, c.e, "up")),
    ("_check_side", "HeckeAlgebra.graded_support_char",
     lambda c, f: c.H.graded_support_char((0, 0), c.x, "up")),
    ("_check_tie", "ProPWeyl.peel", lambda c, f: c.G.peel(c.x, "bogus")),
    ("_check_tie", "cosets.support_mul",
     lambda c, f: cosets.support_mul(c.x, c.x, tie="bogus")),
    ("_check_tie(word_tie)", "HeckeAlgebra",
     lambda c, f: HeckeAlgebra(c.G, c.ctx.field, word_tie="bogus")),
]


def _memos(*sides):
    """Copies of each group's step, peel and reduced-word tables."""
    return [({side: [dict(d) for d in tables] for side, tables in s.G._steps.items()},
             {tie: dict(d) for tie, d in s.G._peels.items()},
             dict(s.G.weyl._word_cache)) for s in sides]


@pytest.mark.parametrize("owner,caller,call", CASES,
                         ids=[f"{owner}-{caller}" for owner, caller, _ in CASES])
def test_every_caller_raises_its_owners_error(pair, owner, caller, call):
    c, f = pair
    with pytest.raises(Exception) as want:
        OWNERS[owner](c, f)
    before = _memos(c, f)
    with pytest.raises(type(want.value)) as got:
        call(c, f)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert _memos(c, f) == before


def test_each_message_is_stated_once():
    """The message of each rule occurs once in the package source."""
    from pathlib import Path

    import prophecke

    src = "".join(p.read_text() for p in Path(prophecke.__file__).parent.glob("*.py"))
    for text in ("side must be 'left' or 'right'", "must be 'min' or 'max', got",
                 "Weyl element from a different group",
                 "pro-p element from a different group"):
        assert src.count(text) == 1, text
