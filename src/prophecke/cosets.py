"""Symbolic double-coset calculus at the pro-p level.

support_mul computes the exact union of double-coset classes of a
product I v I . I w I, as a frozenset of the pro-p elements naming the
classes.  It peels the last letter s off v (ProPWeyl.peel) and applies
the rank-one step (ProPWeyl.step), which H and E share: concatenation
when s lengthens w, and the branching

    I s I . I w I = I s w I u U_t I t w I    (t over the coroot image)

when it shortens w.  A length-zero v is one group product, answered
without touching the memo, so ProPWeyl._support_cache holds only pairs
with v of positive length, keyed by (v.index, w.index, tie).  Hecke
products in characteristic p can only lose classes from this union
(coefficients divisible by q vanish), so containment, not equality, is
what gets asserted against H.

The g-profile of w records, per root alpha, the least integer m with
(alpha, m) nonnegative on both the base chamber and its w-translate; it
is the combinatorial shadow of the unipotent filtration of I cap w I
w^{-1}, and satisfies the step law and the index sum rule tested in the
suites.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GroupMismatchError
from .propweyl import ProPElt, ProPWeyl
from .rootdata import AffineRoot, dot
from .weyl import ExtAffWeylElt


def support_mul(v: ProPElt, w: ProPElt, tie: str = "min") -> frozenset:
    """Classes of the product of the double cosets of v and w."""
    group = v.group
    if w.group is not group:
        raise GroupMismatchError("pro-p elements from different groups")
    if v.w.length() == 0:
        return frozenset((group.mul(v, w),))
    cache = group._support_cache
    key = (v.index, w.index, tie)
    cached = cache.get(key)
    if cached is not None:
        return cached
    s, vp = group.peel(v, tie)
    moved, translates = group.step(s, w)
    result = support_mul(vp, moved, tie)
    if translates:
        result = result.union(*(support_mul(vp, u, tie) for u in translates))
    cache[key] = result
    return result


def index(group: ProPWeyl, w) -> int:
    """The exact index q^length(w) as an integer (not reduced into k)."""
    ln = w.length() if isinstance(w, (ProPElt, ExtAffWeylElt)) else int(w)
    return group.q**ln


@dataclass
class GProfile:
    """Map root index -> g_w(alpha)."""

    values: dict

    def to_json(self, rd):
        return {
            "g": {str(list(rd.roots[i])): v for i, v in sorted(self.values.items())}
        }


def g_profile(w: ExtAffWeylElt) -> GProfile:
    """Per root, the least m such that (alpha, m) is a positive affine root
    whose w-preimage is also positive, found by upward scan from a bound
    that both conditions exceed."""
    g = w.group
    rd = g.rd
    winv = w.inv()
    values = {}
    for i in range(len(rd.roots)):
        m = min(0, dot(winv.mu, rd.roots[i])) - 1
        while True:
            A = AffineRoot(i, m)
            if rd.is_positive_affine(A) and rd.is_positive_affine(winv.act_affine(A)):
                break
            m += 1
        values[i] = m
    return GProfile(values)


def g_profile_identity(rd) -> GProfile:
    return GProfile(
        {i: 0 if rd.is_positive_root(i) else 1 for i in range(len(rd.roots))}
    )


def g_profile_sum_check(w: ExtAffWeylElt) -> bool:
    """Sum over roots of g_w - g_id equals length(w): the coset index
    q^length counted one unipotent step at a time."""
    rd = w.group.rd
    gw = g_profile(w).values
    gid = g_profile_identity(rd).values
    return sum(gw[i] - gid[i] for i in gw) == w.length()
