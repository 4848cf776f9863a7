"""Root datum presets, positivity, affine base, and validation."""

import pytest

from prophecke.errors import DataIntegrityError
from prophecke.rootdata import PRESET_NAMES, AffineRoot, RootDatum, dot, preset

from conftest import EXPLICIT_GROUPS, GL3_SHIFTED_COROOTS


def orbit_generate(simple_roots, simple_coroots):
    """Independent oracle: close the simple roots under all reflections,
    working directly on coordinate vectors."""
    roots = set(map(tuple, simple_roots))
    pairs = list(zip(map(tuple, simple_roots), map(tuple, simple_coroots)))
    changed = True
    while changed:
        changed = False
        for a in list(roots):
            for b, bc in pairs:
                img = tuple(x - dot(bc, a) * y for x, y in zip(a, b))
                if img not in roots:
                    roots.add(img)
                    changed = True
    return roots


@pytest.mark.parametrize(
    "name,nroots,w0_order",
    [
        ("SL2", 2, 2),
        ("PGL2", 2, 2),
        ("GL2", 2, 2),
        ("SL3", 6, 6),
        ("GL3", 6, 6),
        ("Sp4", 8, 8),
        ("G2sc", 12, 12),
        ("SL2xSL2", 4, 4),
    ],
)
def test_preset_sizes(name, nroots, w0_order):
    rd = preset(name)
    assert len(rd.roots) == nroots
    # oracle: W0-orbit generation directly on the vectors
    expected = orbit_generate(
        [rd.roots[i] for i in rd.simple], [rd.coroots[i] for i in rd.simple]
    )
    assert set(rd.roots) == expected


def test_unknown_preset():
    with pytest.raises(ValueError):
        preset("E8")


def test_sl2_defining_pairing():
    rd = preset("SL2")
    a = rd.simple[0]
    assert dot(rd.coroots[a], rd.roots[a]) == 2
    assert set(rd.roots) == {(2,), (-2,)}


def test_sl3_cartan_matrix():
    rd = preset("SL3")
    assert rd.cartan_matrix() == [[2, -1], [-1, 2]]


def test_g2_count():
    assert len(preset("G2sc").roots) == 12


def test_isogeny_lives_in_coroots():
    sl2, pgl2 = preset("SL2"), preset("PGL2")
    assert sl2.coroots[sl2.simple[0]] == (1,)
    assert pgl2.coroots[pgl2.simple[0]] == (2,)


def test_reflections_permute_roots():
    for name in ("SL2", "SL3", "Sp4", "G2sc", "SL2xSL2"):
        rd = preset(name)
        for a, ac in zip(rd.roots, rd.coroots):
            imgs = {
                tuple(x - dot(ac, b) * y for x, y in zip(b, a)) for b in rd.roots
            }
            assert imgs == set(rd.roots)


def test_minimal_roots_unique_per_component():
    data = [preset(n) for n in ("SL2", "SL3", "Sp4", "G2sc", "SL2xSL2", "GL3")]
    data += [RootDatum.from_json(d) for d in EXPLICIT_GROUPS.values()]
    for rd in data:
        mins = rd.minimal_roots()
        assert len(mins) == rd.ncomp
        assert len(rd.pi_aff()) == len(rd.simple) + rd.ncomp
        # oracle: m <= beta coordinatewise for every root beta of m's component
        for c, m in enumerate(mins):
            members = [i for i in range(len(rd.roots)) if rd.component_of[i] == c]
            assert [
                i for i in members
                if all(x <= y for j in members
                       for x, y in zip(rd.expansions[i], rd.expansions[j]))
            ] == [m]


def _components_by_adjacency(rd):
    """Components as first written: connected pieces of the Dynkin diagram,
    numbered in order of their least simple index, and each root's read
    off the simple roots in its expansion."""
    ns = len(rd.simple)
    adj = {i: set() for i in range(ns)}
    for i in range(ns):
        for j in range(ns):
            if i != j and dot(rd.coroots[rd.simple[i]], rd.roots[rd.simple[j]]) != 0:
                adj[i].add(j)
    comp_of_simple = [-1] * ns
    comp = 0
    for i in range(ns):
        if comp_of_simple[i] >= 0:
            continue
        stack = [i]
        while stack:
            a = stack.pop()
            if comp_of_simple[a] >= 0:
                continue
            comp_of_simple[a] = comp
            stack.extend(adj[a])
        comp += 1
    component_of = []
    for exp in rd.expansions:
        comps = {comp_of_simple[i] for i, c in enumerate(exp) if c != 0}
        assert len(comps) == 1
        component_of.append(comps.pop())
    return comp, component_of


@pytest.mark.parametrize("name", PRESET_NAMES + tuple(EXPLICIT_GROUPS))
def test_components_match_dynkin_diagram(name):
    rd = preset(name) if name in PRESET_NAMES else RootDatum.from_json(EXPLICIT_GROUPS[name])
    assert (rd.ncomp, rd.component_of) == _components_by_adjacency(rd)


def test_overlapping_supports_rejected():
    rd = preset("GL3")
    # supports {0, 1} and {1, 2} are both maximal and share simple root 1
    rd.expansions = [(1, 1, 0), (0, 1, 1), (0, 1, 0)]
    with pytest.raises(DataIntegrityError, match="several components"):
        rd._compute_components()


def test_positive_affine():
    rd = preset("SL2")
    alpha = rd.simple[0]
    neg = rd.neg_index(alpha)
    assert rd.is_positive_affine(AffineRoot(alpha, 0))
    assert rd.is_positive_affine(AffineRoot(neg, 1))
    assert not rd.is_positive_affine(AffineRoot(neg, 0))
    assert not rd.is_positive_affine(AffineRoot(alpha, -1))


def test_pi_aff_examples():
    rd = preset("SL2")
    pa = rd.pi_aff()
    assert len(pa) == 2
    assert pa[0] == AffineRoot(rd.simple[0], 0)
    assert rd.roots[pa[1].root] == (-2,) and pa[1].h == 1

    rd3 = preset("SL3")
    pa3 = rd3.pi_aff()
    assert len(pa3) == 3
    theta = tuple(
        a + b for a, b in zip(rd3.roots[rd3.simple[0]], rd3.roots[rd3.simple[1]])
    )
    assert rd3.roots[pa3[2].root] == tuple(-c for c in theta)

    assert len(preset("SL2xSL2").pi_aff()) == 4


def test_explicit_datum_json():
    rd = preset("SL3")
    data = {
        "rank": 2,
        "roots": [list(v) for v in rd.roots],
        "coroots": [list(v) for v in rd.coroots],
        "simple": rd.simple,
    }
    rd2 = RootDatum.from_json(data)
    assert rd2.roots == rd.roots and rd2.coroots == rd.coroots
    assert RootDatum.from_json({"preset": "SL3"}).roots == rd.roots


def test_invalid_data_rejected():
    with pytest.raises(ValueError):
        # <coroot, root> = 1
        RootDatum(1, [(1,)], [(1,)], [0])
    with pytest.raises(ValueError):
        # not closed under the reflection
        RootDatum(2, [(2, 0)], [(1, 0)], [0])
    with pytest.raises(ValueError):
        # non-reduced: contains alpha and 2 alpha (both with valid coroots)
        RootDatum(1, [(1,), (-1,), (2,), (-2,)], [(2,), (-2,), (1,), (-1,)], [0])
    with pytest.raises(ValueError, match="not listed"):
        # GL3 with the coroots of +-(e1 - e3) shifted by +-(1, 1, 1): the
        # pairing and the reflections of the roots are unchanged
        RootDatum.from_json(GL3_SHIFTED_COROOTS)
    with pytest.raises(ValueError, match="linearly dependent"):
        # SL2 with both alpha and -alpha simple
        RootDatum(1, [(2,), (-2,)], [(1,), (-1,)], [0, 1])
    with pytest.raises(ValueError, match="not listed"):
        # affine A1: the closure would run on without end
        RootDatum(2, [(1, 0), (0, 1)], [(2, -2), (-2, 2)], [0, 1])
    with pytest.raises(ValueError, match="roots and coroots must come in pairs"):
        RootDatum(1, [(2,), (-2,)], [(1,)], [0])
    with pytest.raises(ValueError, match="duplicate roots"):
        RootDatum(1, [(2,), (2,)], [(1,), (1,)], [0])
    with pytest.raises(ValueError, match=r"root \(0, 2\) is not reached from the simple roots"):
        # SL2 x SL2 with the first factor's simple root only
        RootDatum(2, [(2, 0), (-2, 0), (0, 2), (0, -2)],
                  [(1, 0), (-1, 0), (0, 1), (0, -1)], [0])
    sl3 = preset("SL3")
    with pytest.raises(ValueError, match=r"root \(-1, 2\) has mixed-sign expansion \(-1, 1\)"):
        # alpha_1 and alpha_1 + alpha_2 as the simple roots
        RootDatum(2, sl3.roots, sl3.coroots, [0, 5])


@pytest.mark.parametrize("name", PRESET_NAMES + tuple(EXPLICIT_GROUPS))
def test_positivity_follows_expansion_signs(name):
    rd = preset(name) if name in PRESET_NAMES else RootDatum.from_json(EXPLICIT_GROUPS[name])
    signs = [any(c > 0 for c in exp) for exp in rd.expansions]
    assert [rd.is_positive_root(i) for i in range(len(rd.roots))] == signs
    assert rd.positive_roots() == [i for i, p in enumerate(signs) if p]
    for i, exp in enumerate(rd.expansions):
        assert rd.is_positive_root(i) == all(c >= 0 for c in exp)
        assert tuple(
            sum(c * v[k] for c, v in zip(exp, (rd.roots[j] for j in rd.simple)))
            for k in range(rd.rank)
        ) == rd.roots[i]
        assert rd.is_positive_root(i) != rd.is_positive_root(rd.neg_index(i))
        for h in (-1, 0, 1):
            assert rd.is_positive_affine(AffineRoot(i, h)) == (h > 0 or (h == 0 and signs[i]))
