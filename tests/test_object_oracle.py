"""The index-term kernel against an object-level reference.

HeckeAlgebra.basis_mul and TopModule._act_basis return dicts from
ProPElt.index to FieldElt.i.  The reference below runs the same peel,
step and recurse over dicts from ProPElt to FieldElt with FieldElt
arithmetic, as the kernel did before terms became indices; the two must
agree on every pair of basis elements up to length 2.
"""

import pytest

from prophecke import HeckeAlgebra, TopModule, basis_elements

from conftest import get_context, get_explicit_context


def _accumulate(out, terms, c):
    for g, d in terms.items():
        acc = out.get(g, c.field.zero()) + c * d
        if acc.is_zero():
            out.pop(g, None)
        else:
            out[g] = acc


class ObjectReference:
    """basis_mul and _act_basis over {ProPElt: FieldElt}, memoised."""

    def __init__(self, group, field, tie="min"):
        self.G, self.F, self.tie = group, field, tie
        self.memo = {}

    def basis_mul(self, x, y):
        key = ("mul", x, y)
        if key not in self.memo:
            G = self.G
            if x.w.length() == 0:
                result = {G.mul(x, y): self.F.one()}
            else:
                s, xp = G.peel(x, self.tie)
                moved, translates = G.step(s, y)
                if not translates:
                    result = self.basis_mul(xp, moved)
                else:
                    result = {}
                    c = self.F.from_int(G.aff_image(s)[1])
                    for u in translates:
                        _accumulate(result, self.basis_mul(xp, u), c)
            self.memo[key] = result
        return self.memo[key]

    def _gen(self, s, u, side):
        moved, translates = self.G.step(s, u, side)
        if not translates:
            return {}
        mu_c = self.F.from_int(self.G.aff_image(s)[1])
        return {moved: self.F.one(), **dict.fromkeys(translates, mu_c)}

    def act(self, y, u, side):
        key = (side, y, u)
        if key not in self.memo:
            G = self.G
            if y.w.length() == 0:
                result = {G.mul(y, u) if side == "left" else G.mul(u, y): self.F.one()}
            else:
                s, yp = G.peel(y, self.tie)
                result = {}
                if side == "left":
                    for v, c in self._gen(s, u, side).items():
                        _accumulate(result, self.act(yp, v, side), c)
                else:
                    for v, c in self.act(yp, u, side).items():
                        _accumulate(result, self._gen(s, v, side), c)
            self.memo[key] = result
        return self.memo[key]


def _objects(group, field, terms):
    return {group.by_index[g]: field._elts[c] for g, c in terms.items()}


@pytest.mark.parametrize(
    "group,p,f,m,L",
    [("SL2", 3, 1, 1, 2), ("PGL2", 3, 1, 1, 2), ("GL2", 3, 1, 1, 2),
     ("SL3", 3, 1, 1, 2), ("GL3", 3, 1, 1, 1), ("Sp4", 3, 1, 1, 2),
     ("G2sc", 3, 1, 1, 2), ("SL2xSL2", 3, 1, 1, 2), ("SL3", 3, 1, 2, 2)],
)
def test_kernel_matches_object_reference(group, p, f, m, L):
    ctx = get_context(group, p, f, m)
    G, F = ctx.group, ctx.field
    H = HeckeAlgebra(G, F)  # fresh memo tables, so every product is computed here
    E = TopModule(H)
    ref = ObjectReference(G, F)
    basis = basis_elements(G, L)
    for x in basis:
        for y in basis:
            assert _objects(G, F, H.basis_mul(x, y)) == ref.basis_mul(x, y), (x, y)
            for side in ("left", "right"):
                got = _objects(G, F, E._act_basis(x, y, side))
                assert got == ref.act(x, y, side), (x, y, side)


def test_kernel_matches_object_reference_on_pgl2xpgl2():
    """|mu| = 2 on both roots: over GF(3) the right action's recursion
    coefficient -1 meets a second descent, which no preset reaches."""
    ctx = get_explicit_context("PGL2xPGL2")
    G, F = ctx.group, ctx.field
    H = HeckeAlgebra(G, F)
    E = TopModule(H)
    ref = ObjectReference(G, F)
    basis = basis_elements(G, 2)
    for x in basis:
        for y in basis:
            assert _objects(G, F, H.basis_mul(x, y)) == ref.basis_mul(x, y), (x, y)
            for side in ("left", "right"):
                got = _objects(G, F, E._act_basis(x, y, side))
                assert got == ref.act(x, y, side), (x, y, side)
