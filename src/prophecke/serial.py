"""JSON helpers: canonical encoding and element parsing against a context."""

from __future__ import annotations

import json

from .hecke import accumulate
from .propweyl import ProPElt


def canonical_json(obj) -> str:
    """Deterministic bytes for a JSON-able object."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def elt_from_json(space, data):
    """Parse a {"basis"?, "terms"} object into an element of space, a
    HeckeAlgebra (tau basis) or a TopModule (phi basis).  An absent
    "basis" tag means the space's own basis; repeated terms add up."""
    if not isinstance(data, dict):
        raise ValueError("an element must be a JSON object with a \"terms\" list")
    symbol = space.zero().symbol
    tag = data.get("basis", symbol)
    if tag != symbol:
        raise ValueError(f"element has basis tag {tag!r}, but this space uses {symbol!r}")
    terms: dict = {}
    one = space.field.one()
    for item in data["terms"]:
        g = ProPElt.from_json(space.group, item["elt"])
        accumulate(terms, {g: space.field.elt(item["coeff"])}, one)
    return space.elt(terms)
