"""Symbolic double-coset calculus at the pro-p level.

support_mul computes the exact union of double-coset classes of a
product I v I . I w I, as a frozenset of the pro-p elements naming the
classes.  It peels a right descent s off v (ProPWeyl.peel) and applies
the rank-one step (ProPWeyl.step), which H and E share: concatenation
when s lengthens w, and the branching

    I s I . I w I = I s w I u U_t I t w I    (t over the coroot image)

when it shortens w.  A length-zero v is one group product v w.  The walk
adds every class it reaches to one set and stores nothing: step and
peel are memoised per group, so each level costs two table reads.  For v
of length 20 on SL3 at q = 4 and on G2sc at q = 3, support_mul(v, v^-1)
and support_mul(v, v) each took 0.012 s or less from a cold group
(CPython 3.11, 2-core host).
Hecke products in characteristic p can only lose classes from this union
(coefficients divisible by q vanish), so containment, not equality, is
what gets asserted against H.  support_mul and index check their
operands with the owners of those rules: ProPWeyl.own and WeylGroup.own
for an element of the group, propweyl._check_tie for the tie.

The g-profile of w records, per root alpha, the least integer m with
(alpha, m) nonnegative on both the base chamber and its w-translate; it
is the combinatorial shadow of the unipotent filtration of I cap w I
w^{-1}, and satisfies the step law and the index sum rule tested in the
suites.  With w^{-1} = (w0', mu') and delta 1 on a negative root and 0
on a positive one, the two conditions read m >= delta(alpha) and
m >= delta(w0' alpha) + <mu', alpha>, so g_w is their maximum.
"""

from __future__ import annotations

from .propweyl import ProPElt, ProPWeyl, _check_tie
from .rootdata import dot
from .weyl import ExtAffWeylElt


def support_mul(v: ProPElt, w: ProPElt, tie: str = "min") -> frozenset:
    """Classes of the product of the double cosets of v and w.  A w of
    another group raises ProPWeyl.own's GroupMismatchError and a tie other
    than 'min' or 'max' _check_tie's ValueError, whatever the length of
    v; both are tested inline, and the checks called only to raise."""
    if w.group is not v.group or tie not in ("min", "max"):
        v.group.own(w)
        _check_tie("tie", tie)
    out = set()
    _collect(v, w, tie, out)
    return frozenset(out)


def _collect(v: ProPElt, w: ProPElt, tie: str, out: set) -> None:
    """The peel walk of support_mul: adds the classes of I v I . I w I to out."""
    group = v.group
    if v.w.length() == 0:
        out.add(group.mul(v, w))
        return
    s, vp = group.peel(v, tie)
    moved, translates = group.step(s, w)
    _collect(vp, moved, tie, out)
    for u in translates:
        _collect(vp, u, tie, out)


def index(group: ProPWeyl, w) -> int:
    """The exact index q^length(w) as an integer (not reduced into k), for
    w a pro-p element of group or an element of its Weyl group; anything
    else raises GroupMismatchError, through ProPWeyl.own or WeylGroup.own."""
    (group.own if isinstance(w, ProPElt) else group.weyl.own)(w)
    return group.q ** w.length()


def g_profile(w: ExtAffWeylElt) -> dict:
    """Root index -> the least m such that (alpha, m) is a positive affine
    root whose w-preimage is also positive:
    max(delta(alpha), delta(w0' alpha) + <mu', alpha>) for w^{-1} = (w0', mu')."""
    g = w.group
    winv = w.inv()
    perm, mu = g.root_perm[winv.w0], winv.mu
    neg = [1 - p for p in g.rd.positive]  # delta, as positive holds bools
    return {i: max(neg[i], neg[perm[i]] + dot(mu, alpha))
            for i, alpha in enumerate(g.rd.roots)}


def g_profile_identity(rd) -> dict:
    return {i: 0 if rd.is_positive_root(i) else 1 for i in range(len(rd.roots))}


def g_profile_sum_check(w: ExtAffWeylElt) -> bool:
    """Sum over roots of g_w - g_id equals length(w): the coset index
    q^length counted one unipotent step at a time."""
    gw, gid = g_profile(w), g_profile_identity(w.group.rd)
    return sum(gw[i] - gid[i] for i in gw) == w.length()
