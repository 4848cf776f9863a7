"""The top dual module of H: the bimodule spanned by the dual basis
phi_g of tau_g, with the explicit generator actions

    phi_w . tau_omega = phi_{w omega},          tau_omega . phi_w = phi_{omega w},
    phi_w . tau_{n_s} = 0                                 if s lengthens w,
    phi_w . tau_{n_s} = phi_{w s} + |mu| sum_t phi_{w t}  if s shortens w,

(and mirrored on the left), where |mu| is read off the algebra's
mu_coeff[s].  They extend to every tau_y by peeling the last letter off
y and recursing, as H's product does.  The recursion bottoms
out at a length-zero y, whose action is the first line: it returns the
read-only ProPElt.unit of the group product and memoises nothing, so the
memo holds only pairs with y of positive length.  The memo, _act_cache,
is keyed side -> y.index -> {u.index: terms}, one row per acting y and
side, so a probe builds no key tuple.  An action that vanishes (an
ascent annihilates) is stored as the module's one shared empty dict,
_EMPTY, read-only like ProPElt.unit; about three quarters of the entries
on the top-module benchmark are empty.  act adds every result into a
fresh dict, so no element adopts a memo value or the shared empty.

Beside the actions sit the coordinate-sum trace S_d, the trivial line,
the inversion twist and the duality pairing against H.  The trivial
line, triv_line, is the sum of phi over basis_elements(group, 0), the
length-zero pro-p elements; it exists when Omega is finite, and the
trace kernel complements it when their number is invertible in k.  The
twist J_top carries the left action to the right one:
phi_u tau_y = J_top(J(tau_y) J_top(phi_u)).  The supersingularity audit
of the trace kernel is the verify suite "supersingular".

E is a SparseSpace like H: phi, zero, elt and the inversion twist J_top
come from the base, and every method taking an element of E or H
rejects one from another space through that space's own; act, on the
hot path, tests its side and operands inline and calls weyl._check_side
and own only to raise.  Elements and action results are index
terms, as in H: a dict from ProPElt.index to the FieldElt.i of a nonzero
coefficient.  pairing and S_d return FieldElt.
"""

from __future__ import annotations

from .errors import DecompositionUnavailableError
from .gf import FieldElt
from .hecke import HeckeAlgebra, HeckeElt, SparseComb, SparseSpace, accumulate
from .propweyl import ProPElt, basis_elements
from .weyl import _check_side


# The one empty action result every memo row stores: shared and read-only,
# like ProPElt.unit.
_EMPTY: dict = {}


class TopElt(SparseComb):
    """Element of E in the phi basis."""

    __slots__ = ()
    symbol = "phi"
    tagged = True
    mismatch = "elements of different top modules"


class TopModule(SparseSpace):
    """H-bimodule structure on the span of the phi basis."""

    element = TopElt
    phi = SparseSpace.basis
    J_top = SparseSpace.inverted

    def __init__(self, algebra: HeckeAlgebra):
        self.hecke = algebra
        self.group = algebra.group
        self.field = algebra.field
        # side -> y.index -> {u.index: terms of tau_y acting on phi_u}
        self._act_cache = {"left": {}, "right": {}}
        self._triv_line = None

    def stats(self) -> dict:
        """The entry count of the action memo, over both sides and every row."""
        return {"act": sum(len(row) for rows in self._act_cache.values()
                           for row in rows.values())}

    # -- generator actions -------------------------------------------------------

    def _apply_gen(self, s: int, u: ProPElt, side: str) -> dict:
        """tau_{n_s} acting on phi_u: ascent annihilates; descent gives the
        reflection translate plus |mu| (the algebra's mu_coeff[s]) times
        the coroot-image translates."""
        moved, translates = self.group.step(s, u, side)
        if not translates:
            return {}
        mu_c = self.hecke.mu_coeff[s]
        # the torus translates differ from moved in their Weyl part
        return {moved.index: 1, **{t.index: mu_c for t in translates}}

    def _act_basis(self, y: ProPElt, u: ProPElt, side: str) -> dict:
        """tau_y acting on phi_u, with y = y' n_s peeled: on the left
        tau_{y'} (tau_{n_s} phi_u), on the right (phi_u tau_{y'}) tau_{n_s}.
        A length-zero y relabels, and its answer is the group product's
        read-only unit, which the memo does not store.  Any other answer
        is stored in y's row of the side's memo under u.index, an empty
        one as the shared _EMPTY."""
        g = self.group
        if y.w.length() == 0:
            return (g.mul(y, u) if side == "left" else g.mul(u, y)).unit
        rows = self._act_cache[side]
        try:
            row = rows[y.index]
        except KeyError:
            row = rows[y.index] = {}
        cached = row.get(u.index)
        if cached is not None:
            return cached
        field, elts = self.field, g.by_index
        s, yp = g.peel(y, self.hecke.word_tie)
        result = {}
        if side == "left":
            for v, c in self._apply_gen(s, u, side).items():
                accumulate(result, self._act_basis(yp, elts[v], side), c, field)
        else:
            for v, c in self._act_basis(yp, u, side).items():
                accumulate(result, self._apply_gen(s, elts[v], side), c, field)
        if not result:
            result = _EMPTY
        row[u.index] = result
        return result

    def act(self, tau: HeckeElt, x: TopElt, side: str) -> TopElt:
        """Bilinear extension of the generator formulas, each Hecke basis
        element acting through the peel recursion of _act_basis.  The side
        and both operands are tested inline; _check_side and the two
        spaces' own are called only to raise."""
        if side not in ("left", "right") or tau.space is not self.hecke or x.space is not self:
            _check_side(side)
            self.hecke.own(tau)
            self.own(x)
        field, elts = self.field, self.group.by_index
        out: dict = {}
        for y, cy in tau.terms.items():
            ey, row = elts[y], field._mul[cy]
            for u, cu in x.terms.items():
                accumulate(out, self._act_basis(ey, elts[u], side), row[cu], field)
        return TopElt(self, out)

    # -- dualities ----------------------------------------------------------------

    def pairing(self, x: TopElt, h: HeckeElt) -> FieldElt:
        """Dual-basis pairing sum_g x_g h_g."""
        self.own(x)
        self.hecke.own(h)
        add, mul = self.field._add, self.field._mul
        total = 0
        for g, c in x.terms.items():
            d = h.terms.get(g)
            if d is not None:
                total = add[total][mul[c][d]]
        return self.field._elts[total]

    def S_d(self, x: TopElt) -> FieldElt:
        """Coordinate-sum trace; both H-actions push through it by the
        trivial character."""
        self.own(x)
        add = self.field._add
        total = 0
        for c in x.terms.values():
            total = add[total][c]
        return self.field._elts[total]

    # -- the trivial line and its complement -----------------------------------------

    def triv_line(self) -> TopElt:
        """The sum of phi over the length-zero pro-p elements, built on the
        first call and kept: decompose reads it for every element.  Only
        for finite Omega; otherwise a DecompositionUnavailableError."""
        if self._triv_line is None:
            if not self.group.weyl.omega().finite:
                raise DecompositionUnavailableError("Omega is infinite")
            terms = {x.index: 1 for x in basis_elements(self.group, 0)}
            self._triv_line = TopElt(self, terms)
        return self._triv_line

    def decompose(self, x: TopElt):
        """Split x = triv + kernel along the trace: triv is the multiple of
        the sum of phi over length-zero elements carrying the trivial
        character, and the kernel part has vanishing trace.  Available only
        when Omega is finite and the count of length-zero elements is
        nonzero in k, i.e. p does not divide |Omega|."""
        self.own(x)
        line = self.triv_line()
        c = self.S_d(line)
        if c.is_zero():
            raise DecompositionUnavailableError(
                "|Omega| is divisible by p; no splitting over k"
            )
        triv = line.scale(self.S_d(x) / c)
        return triv, x - triv
