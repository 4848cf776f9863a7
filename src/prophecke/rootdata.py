"""Based root data of split reductive groups, affine roots, and presets.

Roots live in X^* and are stored as integer coordinate vectors relative
to the chosen basis of the cocharacter lattice X_* = Z^r, so that the
canonical pairing <x, xi> is the plain dot product.  Coroots live in X_*
itself.  The isogeny type is carried entirely by the coroot coordinates
(SL2 and PGL2 share their root, not their coroot).

One walk, _close, closes the simple (root, coroot) pairs under the simple
reflections and carries each root's simple-root expansion.  A preset is
the pairs it reaches; an explicit datum must list exactly those pairs.
Positivity and the lowest roots are read off the expansions, and the
Dynkin components off their supports: a component is a maximal support.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul

from .errors import DataIntegrityError
from .gf import _is_int

PRESET_NAMES = ("SL2", "PGL2", "GL2", "SL3", "GL3", "Sp4", "G2sc", "SL2xSL2")

# Constructing the Weyl group checks the closed-form length on 5^rank
# translations per finite element up to rank 2 and 3^rank above, so the
# rank is bounded at desk scale (the presets go up to rank 3).
_MAX_RANK = 4


def dot(x, y) -> int:
    return sum(map(mul, x, y))


class AffineRoot(namedtuple("AffineRoot", "root h")):
    """The affine function alpha(.) + h on the standard apartment: root
    indexes RootDatum.roots.  Immutable and hashable, equal by (root, h)."""

    __slots__ = ()

    def __repr__(self):
        return f"A({self.root},{self.h})"


def _check_contents(rank, roots, coroots, simple):
    """Types and shapes of an explicit datum, each error naming its field."""
    if not _is_int(rank) or rank < 1:
        raise ValueError(f"group rank must be a positive integer, got {rank!r}")
    if rank > _MAX_RANK:
        raise ValueError(f"group rank {rank} exceeds desk scale (at most {_MAX_RANK})")
    for name, vecs in (("roots", roots), ("coroots", coroots)):
        if not isinstance(vecs, (list, tuple)) or not all(
            isinstance(v, (list, tuple)) and len(v) == rank and all(map(_is_int, v))
            for v in vecs
        ):
            raise ValueError(f"group {name} must be a list of length-{rank} integer vectors")
    indices = range(len(roots))
    if not isinstance(simple, (list, tuple)) or not all(
        _is_int(i) and i in indices for i in simple
    ) or len(set(simple)) != len(simple):
        raise ValueError(f"group simple must be distinct root indices, got {simple!r}")


class RootDatum:
    """Reduced based root datum with explicit root/coroot coordinates."""

    def __init__(self, rank, roots, coroots, simple_indices, name=None):
        _check_contents(rank, roots, coroots, simple_indices)
        self.rank = rank
        self.roots = [tuple(v) for v in roots]
        self.coroots = [tuple(v) for v in coroots]
        self.simple = list(simple_indices)
        self.name = name
        if len(self.roots) != len(self.coroots):
            raise ValueError("roots and coroots must come in pairs")
        self._index = {v: i for i, v in enumerate(self.roots)}
        if len(self._index) != len(self.roots):
            raise ValueError("duplicate roots")
        self._validate_pairing()
        self._compute_expansions()
        self._compute_components()

    # -- construction-time checks --------------------------------------------

    def _validate_pairing(self):
        for a, ac in zip(self.roots, self.coroots):
            if dot(ac, a) != 2:
                raise ValueError(f"<coroot,root> = {dot(ac, a)} != 2 for {a}")
        for a in self.roots:
            if tuple(2 * c for c in a) in self._index:
                raise ValueError("root system is not reduced")

    def _compute_expansions(self):
        pairs = list(zip(self.roots, self.coroots))
        exps = _close([pairs[i] for i in self.simple], set(pairs))
        if len(exps) != len(pairs):
            missed = next(a for a, ac in pairs if (a, ac) not in exps)
            raise ValueError(f"root {missed} is not reached from the simple roots")
        self.expansions = [exps[p] for p in pairs]
        for v, coeffs in zip(self.roots, self.expansions):
            if not (all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)):
                raise ValueError(f"root {v} has mixed-sign expansion {coeffs}")
        # A root is positive when its expansion has a positive coefficient;
        # read by every length, descent and positivity test.
        self.positive = tuple(any(c > 0 for c in exp) for exp in self.expansions)

    def _compute_components(self):
        """The components are the maximal supports of the expansions (a
        component's highest root is supported on all of it), numbered by
        their least simple index; a root's is the one holding its support."""
        supports = [frozenset(i for i, c in enumerate(exp) if c) for exp in self.expansions]
        comps = sorted({s for s in supports if not any(s < t for t in supports)}, key=min)
        self.ncomp = len(comps)
        self.component_of = []
        for s in supports:
            owners = [c for c, comp in enumerate(comps) if s <= comp]
            if len(owners) != 1:
                raise DataIntegrityError("root supported on several components")
            self.component_of.append(owners[0])

    # -- queries ---------------------------------------------------------------

    def neg_index(self, i: int) -> int:
        return self._index[tuple(-c for c in self.roots[i])]

    def is_positive_root(self, i: int) -> bool:
        return self.positive[i]

    def positive_roots(self):
        return [i for i, p in enumerate(self.positive) if p]

    def cartan_matrix(self):
        return [
            [dot(self.coroots[i], self.roots[j]) for j in self.simple]
            for i in self.simple
        ]

    def minimal_roots(self):
        """Per component, its lowest root (the negative of the highest
        root): the unique root of least height, the sum of its simple-root
        expansion."""
        out = []
        for c in range(self.ncomp):
            heights = {
                i: sum(exp)
                for i, exp in enumerate(self.expansions)
                if self.component_of[i] == c
            }
            low = min(heights.values())
            minimal = [i for i, h in heights.items() if h == low]
            if len(minimal) != 1:
                raise DataIntegrityError(f"component {c} has {len(minimal)} minimal roots")
            out.append(minimal[0])
        return out

    # -- affine layer ------------------------------------------------------------

    def is_positive_affine(self, A: AffineRoot) -> bool:
        """Nonnegative on the fundamental chamber: h > 0, or h = 0 and the
        linear part is a positive root."""
        if A.h != 0:
            return A.h > 0
        return self.positive[A.root]

    def pi_aff(self):
        """Affine base: the finite base, then (m_c, 1) for the minimal root
        m_c of each irreducible component, in component order."""
        out = [AffineRoot(i, 0) for i in self.simple]
        out.extend(AffineRoot(i, 1) for i in self.minimal_roots())
        return out

    def to_json(self):
        if self.name:
            return {"preset": self.name}
        return {
            "rank": self.rank,
            "roots": [list(v) for v in self.roots],
            "coroots": [list(v) for v in self.coroots],
            "simple": list(self.simple),
        }

    @classmethod
    def from_json(cls, data) -> "RootDatum":
        if isinstance(data, str):
            return preset(data)
        if not isinstance(data, dict):
            raise ValueError(f"group must be a preset name or a JSON object, got {data!r}")
        if "preset" in data:
            return preset(data["preset"])
        for key in ("rank", "roots", "coroots", "simple"):
            if key not in data:
                raise ValueError(f"group {key} is missing")
        return cls(data["rank"], data["roots"], data["coroots"], data["simple"])

    def __repr__(self):
        tag = self.name or f"rank{self.rank}"
        return f"RootDatum({tag}, {len(self.roots)} roots)"


def _close(simple, listed=None):
    """Walk the simple (root, coroot) pairs under the simple reflections,
    returning each reached pair's simple-root expansion.  s_j sends beta to
    beta - <beta, alpha_j-check> alpha_j, so it sends beta's expansion e to
    e - <beta, alpha_j-check> e_j.  Given an explicit datum's listed pairs,
    the walk stops at the first pair outside them, so it ends even on an
    affine Cartan matrix."""
    n = len(simple)
    exps = {p: tuple(int(i == j) for i in range(n)) for j, p in enumerate(simple)}
    frontier = list(exps)
    while frontier:
        nxt = []
        for a, ac in frontier:
            e = exps[a, ac]
            for j, (b, bc) in enumerate(simple):
                k = dot(bc, a)
                img = (tuple(x - k * y for x, y in zip(a, b)),
                       tuple(x - dot(ac, b) * y for x, y in zip(ac, bc)))
                img_e = e[:j] + (e[j] - k,) + e[j + 1:]
                if img not in exps:
                    if listed is not None and img not in listed:
                        raise ValueError(f"reflections reach the pair {img}, which is not listed")
                    exps[img] = img_e
                    nxt.append(img)
                elif exps[img] != img_e:
                    raise ValueError(f"simple roots are linearly dependent: {img[0]} has "
                                     f"expansions {exps[img]} and {img_e}")
        frontier = nxt
    return exps


def _generate(rank, simple_roots, simple_coroots, name):
    """The datum whose (root, coroot) pairs are the closure of the simple
    pairs; simple roots come first, in the given order."""
    simple = [(tuple(a), tuple(ac)) for a, ac in zip(simple_roots, simple_coroots)]
    roots, coroots = zip(*simple + sorted(p for p in _close(simple) if p not in simple))
    return RootDatum(rank, roots, coroots, list(range(len(simple))), name=name)


_PRESET_DATA = {
    # name: (rank, simple roots, simple coroots)
    "SL2": (1, [(2,)], [(1,)]),
    "PGL2": (1, [(1,)], [(2,)]),
    "GL2": (2, [(1, -1)], [(1, -1)]),
    "SL3": (2, [(2, -1), (-1, 2)], [(1, 0), (0, 1)]),
    "GL3": (3, [(1, -1, 0), (0, 1, -1)], [(1, -1, 0), (0, 1, -1)]),
    "Sp4": (2, [(1, -1), (0, 2)], [(1, -1), (0, 1)]),
    "G2sc": (2, [(2, -3), (-1, 2)], [(1, 0), (0, 1)]),
    "SL2xSL2": (2, [(2, 0), (0, 2)], [(1, 0), (0, 1)]),
}


def preset(name: str) -> RootDatum:
    """Standard based root datum of a named split group."""
    if not isinstance(name, str) or name not in _PRESET_DATA:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    rank, sr, sc = _PRESET_DATA[name]
    return _generate(rank, sr, sc, name)
