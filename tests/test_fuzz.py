"""Random JSON into every element, field and root-datum parser.

Each parser must return or raise ValueError, the base of every error
type `prophecke.cli.main` reports as exit 2; anything else would reach
the user as a traceback.  The inputs are near-valid shapes whose every
field may instead be arbitrary JSON, so that they reach past the first
check.
"""

import pytest
from hypothesis import given, settings, strategies as st

from prophecke import make_context
from prophecke.gf import FieldSpec
from prophecke.propweyl import ProPElt
from prophecke.rootdata import PRESET_NAMES, RootDatum
from prophecke.serial import elt_from_json
from prophecke.weyl import ExtAffWeylElt

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
INT = st.integers(-3, 3) | st.integers()
VEC = st.lists(INT, max_size=3)


def shape(required, optional=None, junk=JSON):
    """An object with these fields, each possibly replaced by junk, or junk."""
    return JSON | st.fixed_dictionaries(
        {k: v | junk for k, v in required.items()},
        optional={k: v | junk for k, v in (optional or {}).items()},
    )


WEYL = shape({}, {"w0_word": VEC, "mu": VEC})
PROPWEYL = shape({"w": WEYL}, {"torus": VEC})
ELEMENT = shape(
    {"terms": st.lists(shape({"coeff": INT | VEC, "elt": PROPWEYL}), max_size=3)},
    {"basis": st.sampled_from(["tau", "phi"])},
)
# A valid spec builds its tables, so p and m are drawn from small sets and
# their junk holds no integer: orders up to 4096 are accepted, and GF(2^12)
# takes seconds and hundreds of MB to build.
FIELD = shape(
    {"p": st.sampled_from([-3, 0, 1, 2, 3, 4, 5, 4099, 2**61 - 1])},
    {"f": st.integers(-1, 3), "m": st.integers(-1, 3) | st.just(10**9), "poly": VEC},
    junk=JSON.filter(lambda v: not isinstance(v, int)),
)
GROUP = st.sampled_from(PRESET_NAMES) | shape({"preset": st.sampled_from(PRESET_NAMES)}) | shape(
    {"rank": st.integers(0, 3), "roots": st.lists(VEC, max_size=4),
     "coroots": st.lists(VEC, max_size=4), "simple": VEC}
)

PARSERS = {
    "hecke": (ELEMENT, lambda ctx, data: elt_from_json(ctx.hecke, data)),
    "top": (ELEMENT, lambda ctx, data: elt_from_json(ctx.top, data)),
    "propweyl": (PROPWEYL, lambda ctx, data: ProPElt.from_json(ctx.group, data)),
    "weyl": (WEYL, lambda ctx, data: ExtAffWeylElt.from_json(ctx.weyl, data)),
    "field": (FIELD, lambda ctx, data: FieldSpec.from_json(data)),
    "group": (GROUP, lambda ctx, data: RootDatum.from_json(data)),
}


@pytest.fixture(scope="module")
def gl2():
    # Its own context: parsing interns elements, which would renumber the
    # elements of a shared one.
    return make_context("GL2", 3)


@pytest.mark.parametrize("parser", list(PARSERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_parser_returns_or_raises_value_error(gl2, parser, data):
    strategy, parse = PARSERS[parser]
    try:
        parse(gl2, data.draw(strategy))
    except ValueError:
        pass
