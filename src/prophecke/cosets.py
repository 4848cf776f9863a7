"""Symbolic double-coset calculus at the pro-p level.

support_mul computes the exact union of double-coset classes of a
product I v I . I w I: concatenation when lengths add, and the branching

    I s I . I w I = I s w I u U_t I t w I    (t over the coroot image)

when the rank-one factor shortens.  Hecke products in characteristic p
can only lose classes from this union (coefficients divisible by q
vanish), so containment, not equality, is what gets asserted against H.

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


@dataclass(frozen=True)
class CosetSupport:
    classes: frozenset

    def __iter__(self):
        return iter(self.classes)

    def __len__(self):
        return len(self.classes)

    def __contains__(self, x):
        return x in self.classes

    def sorted(self):
        return sorted(self.classes, key=ProPElt.sort_key)

    def to_json(self):
        return [x.to_json() for x in self.sorted()]


def _step_support(group: ProPWeyl, s: int, w: ProPElt) -> set:
    ns = group.lift_s(s)
    moved = group.mul(ns, w)
    if moved.w.length() == w.w.length() + 1:
        return {moved}
    A = group.weyl.s_aff[s]
    image, _ = group.coroot_image(A.root)
    out = {moved}
    for t in image:
        out.add(group.mul(group.torus_elt(t), w))
    return out


def support_mul(v: ProPElt, w: ProPElt, tie: str = "min") -> CosetSupport:
    """Classes of the product of the double cosets of v and w."""
    group = v.group
    if w.group is not group:
        raise GroupMismatchError("pro-p elements from different groups")
    cache = group._support_cache
    key = (v, w, tie)
    cached = cache.get(key)
    if cached is not None:
        return cached
    if v.w.length() == 0:
        result = CosetSupport(frozenset({group.mul(v, w)}))
    else:
        _, word = v.w.reduced_word(tie)
        s = word[-1]
        vp = group.mul(v, group.inv(group.lift_s(s)))
        classes = set()
        for u in _step_support(group, s, w):
            classes.update(support_mul(vp, u, tie).classes)
        result = CosetSupport(frozenset(classes))
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
