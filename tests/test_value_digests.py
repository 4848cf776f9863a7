"""SHA-256 of the values of iota and of both actions on the top module.

A passing suite report carries no values and `export topmod_table` acts
only by single generators, so these digests pin multi-letter actions and
iota directly.  Rows, in order: for each y in basis_elements(G, L), first
iota(tau_y), then tau_y acting on phi_u for each u in basis_elements(G, Lu)
and each side, left before right.  Both tie rules for the canonical
reduced word must give the same values, hence the same digest.
"""

import hashlib

import pytest

from prophecke import HeckeAlgebra, TopModule, basis_elements
from prophecke.serial import canonical_json

from conftest import get_explicit_context

# (group, p, m, L, Lu) with q = p, and k = GF(p^m)
CASES = {
    ("SL2", 3, 1, 3, 1): (
        "034ce68dcc2b7becc69c10eaf8344835e73780f727b8097f0a4ae2a7d52561b3"
    ),
    ("PGL2", 3, 1, 3, 1): (
        "89ec95fa8b9e461ad9e1b543f9c2f989793303851957b2f8c87cfca8abde7cd6"
    ),
    ("GL2", 3, 1, 2, 1): (
        "c591e07286fa65b3ce7c93a78b5e9acd37c6664d9123078597bb5a84d7c4f008"
    ),
    ("SL3", 3, 1, 2, 1): (
        "11e24508296abe6936cbe8bbd02564f56c692d2038e1cc988e4eb9ae0f2d748f"
    ),
    ("Sp4", 3, 1, 2, 1): (
        "45a895c1ee9b7fb722954ab0b01b10c9322a2911ce4242dd452ede2fb4c170ed"
    ),
    ("G2sc", 3, 1, 2, 0): (
        "af64e91b2b92cb5eaa96253a384a1c436be559fe3f59afe65ff973b10931c2c0"
    ),
    ("GL3", 3, 1, 1, 0): (
        "3366672e995ee0ba6b01e6f5231030fd1d4e17ddc295415140bcad85ccc5d11b"
    ),
    ("SL3", 3, 2, 2, 1): (
        "ad907101edda2a3506980177072ceec32654d756437104896bcd1c596842768c"
    ),
    ("SL2xSL2", 3, 1, 2, 1): (
        "8e09e96fc54d4183a869c1f4a0ca29148fa1f0912a80fb666169d23431be1427"
    ),
}


def value_rows(H, E, L, Lu):
    G = H.group
    us = basis_elements(G, Lu)
    rows = []
    for y in basis_elements(G, L):
        ty = H.tau(y)
        rows.append(H.iota(ty).to_json())
        for u in us:
            for side in ("left", "right"):
                rows.append(E.act(ty, E.phi(u), side).to_json())
    return rows


@pytest.mark.parametrize("tie", ["min", "max"])
@pytest.mark.parametrize("case", list(CASES), ids=lambda c: "-".join(map(str, c)))
def test_value_digest(ctx_factory, case, tie):
    group, p, m, L, Lu = case
    ctx = ctx_factory(group, p, 1, m)
    H = HeckeAlgebra(ctx.group, ctx.field, word_tie=tie)
    rows = value_rows(H, TopModule(H), L, Lu)
    digest = hashlib.sha256(canonical_json(rows).encode()).hexdigest()
    assert digest == CASES[case]


# (conftest.EXPLICIT_GROUPS name, L, Lu) over GF(3)
EXPLICIT_CASES = {
    ("PGL2xPGL2", 2, 0): (
        "5ace23d8eb522e03443c0bee83708d6f1328aa0f3b07a0727091da9f6b5f684f"
    ),
}


@pytest.mark.parametrize("tie", ["min", "max"])
@pytest.mark.parametrize("case", list(EXPLICIT_CASES), ids=lambda c: "-".join(map(str, c)))
def test_explicit_value_digest(case, tie):
    name, L, Lu = case
    ctx = get_explicit_context(name)
    H = HeckeAlgebra(ctx.group, ctx.field, word_tie=tie)
    rows = value_rows(H, TopModule(H), L, Lu)
    digest = hashlib.sha256(canonical_json(rows).encode()).hexdigest()
    assert digest == EXPLICIT_CASES[case]
