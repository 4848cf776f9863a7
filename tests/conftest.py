import pytest

from prophecke import make_context
from prophecke.verify import build_context

_CACHE = {}

# Explicit data with every root listed.  PGL3 has Omega = Z/3; the next
# two have an Omega with torsion and a free part (Z/2 x Z and Z/2 x Z^2),
# which no preset has.  PGL2xPGL2 has |mu| = 2 on both roots and elements
# with two descents, so over GF(3) a coefficient |mu| = -1 meets a second
# descent, which no preset does either.
EXPLICIT_GROUPS = {
    "PGL3": {
        "rank": 2,
        "roots": [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1]],
        "coroots": [[2, -1], [-2, 1], [-1, 2], [1, -2], [1, 1], [-1, -1]],
        "simple": [0, 2],
    },
    "PGL2xGL2": {
        "rank": 3,
        "roots": [[1, 0, 0], [-1, 0, 0], [0, 1, -1], [0, -1, 1]],
        "coroots": [[2, 0, 0], [-2, 0, 0], [0, 1, -1], [0, -1, 1]],
        "simple": [0, 2],
    },
    "PGL2xGm2": {
        "rank": 3,
        "roots": [[1, 0, 0], [-1, 0, 0]],
        "coroots": [[2, 0, 0], [-2, 0, 0]],
        "simple": [0],
    },
    "PGL2xPGL2": {
        "rank": 2,
        "roots": [[1, 0], [-1, 0], [0, 1], [0, -1]],
        "coroots": [[2, 0], [-2, 0], [0, 2], [0, -2]],
        "simple": [0, 2],
    },
}

# GL3 with the coroots of +-(e1 - e3) shifted by +-(1, 1, 1).  Each pair
# still has <coroot, root> = 2 and reflects the roots as before, but the
# simple reflections send the coroots elsewhere, so this is no root datum.
GL3_SHIFTED_COROOTS = {
    "rank": 3,
    "roots": [[1, -1, 0], [0, 1, -1], [1, 0, -1], [-1, 1, 0], [0, -1, 1], [-1, 0, 1]],
    "coroots": [[1, -1, 0], [0, 1, -1], [2, 1, 0], [-1, 1, 0], [0, -1, 1], [-2, -1, 0]],
    "simple": [0, 1],
}


def get_context(group, p, f=1, m=None):
    key = (group, p, f, m)
    if key not in _CACHE:
        _CACHE[key] = make_context(group, p, f, m)
    return _CACHE[key]


def get_explicit_context(name):
    """Context over GF(3) for one of EXPLICIT_GROUPS."""
    key = ("explicit", name)
    if key not in _CACHE:
        _CACHE[key] = build_context({"group": EXPLICIT_GROUPS[name], "field": {"p": 3, "f": 1}})
    return _CACHE[key]


@pytest.fixture(scope="session")
def ctx_factory():
    """Shared, cached construction chains keyed by (group, p, f, m)."""
    return get_context


@pytest.fixture(scope="session")
def sl2_q3(ctx_factory):
    return ctx_factory("SL2", 3)


@pytest.fixture(scope="session")
def sl3_q3(ctx_factory):
    return ctx_factory("SL3", 3)


@pytest.fixture(scope="session")
def pgl2_q3(ctx_factory):
    return ctx_factory("PGL2", 3)


@pytest.fixture(scope="session")
def sp4_q3(ctx_factory):
    return ctx_factory("Sp4", 3)
