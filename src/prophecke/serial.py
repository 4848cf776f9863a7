"""JSON helpers: canonical encoding and element parsing against a context."""

from __future__ import annotations

import json

from .gf import _is_int
from .hecke import accumulate
from .propweyl import ProPElt


def canonical_json(obj) -> str:
    """Deterministic bytes for a JSON-able object."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def elt_from_json(space, data):
    """Parse a {"basis"?, "terms"} object into an element of space, a
    HeckeAlgebra (tau basis) or a TopModule (phi basis).  An absent
    "basis" tag means the space's own basis; repeated terms add up.
    Malformed input raises a ValueError naming the field."""
    if not isinstance(data, dict):
        raise ValueError("an element must be a JSON object with a \"terms\" list")
    element = space.element
    tag = data.get("basis", element.symbol)
    if tag != element.symbol:
        raise ValueError(f"element has basis tag {tag!r}, but this space uses {element.symbol!r}")
    items = data.get("terms")
    if not isinstance(items, list):
        raise ValueError(f"element terms must be a list, got {items!r}")
    terms: dict = {}
    for item in items:
        if not isinstance(item, dict) or "elt" not in item or "coeff" not in item:
            raise ValueError(f"each term must be an object with \"coeff\" and \"elt\", got {item!r}")
        coeff = item["coeff"]
        if not _is_int(coeff) and not (
            isinstance(coeff, list) and all(map(_is_int, coeff))
        ):
            raise ValueError(f"term coeff must be an integer or a list of integers, got {coeff!r}")
        g = ProPElt.from_json(space.group, item["elt"])
        accumulate(terms, {g.index: 1}, space.field.elt(coeff).i, space.field)
    return element(space, terms)
