"""SHA-256 of the exports, of dense products and of the supersingular
audit entries.

Suite reports carry no values, so these digests pin the values
themselves: the `hecke_table` and `topmod_table` exports (every basis
product and every generator action up to a length), the `omega` and
`characters` exports, products of two dense operands iota(tau_a)
iota(tau_b), which reach HeckeAlgebra.mul with many terms on each side,
and the eps and verdict of every class the supersingular audit visits.
"""

import hashlib
import random

import pytest

from prophecke import basis_elements, cli
from prophecke.serial import canonical_json
from prophecke.verify import run_suite

from conftest import get_explicit_context


def _digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


# (group, q, m, L) with k = GF(q^m): [hecke_table, topmod_table] at max_len L
TABLES = {
    ("SL2", 3, 1, 2): "2fd5a864a09d6528cd122d74813d3027e92f8c60599ddcba38e9a0614301db69",
    ("PGL2", 3, 1, 2): "da70bbd8e222aa0ed4fc4ade53eeeb6ab67a709f60cb332d6fe397795464f1db",
    ("SL3", 3, 1, 2): "f78ed6ab6ad787a5ff644ba437876635ab2750dde933610179eba6227c23f91f",
    ("Sp4", 3, 1, 2): "45f87e6c8832db4f0f749f48c1f8b125bb25c0cb9545766fdfb9e21bdaa53529",
    ("G2sc", 3, 1, 2): "066b41a26338fc4fb51b594ead1f6bed49f020696a8bb3d837f6d43852786dfd",
    ("SL2xSL2", 3, 1, 2): "01919697163a3a1ac8923ee2fd8fbe4ee9a5873637670f6fe92f28d2ceb12f17",
    ("GL2", 3, 1, 1): "7c0eafa3c44cd92785844af246fbffd7b557a45df15eb064894dea1703469293",
    ("GL3", 3, 1, 0): "f85944e19de51e1b59ab14ee661b72917d66ac359622730d27079ebe883aea2a",
    ("SL3", 3, 2, 1): "a39e4ff0fefc00f853b278fdf3e8928444f78c67fe71da050dae4d78194b4b89",
}

# (group, export) over GF(3) at max_len 2
EXPORTS = {
    ("SL2", "omega"): "9b240f4d729273826ced4c31a82e015e10a75b6cb99a6dd9d3ca1f78e9ec7c8f",
    ("SL2", "characters"): "62c854d82ad0ae87c6ae86a480af98af1f4e9e8640de725d1cb30a41f6787dfb",
    ("PGL2", "omega"): "92dabb52a633d533a859e9f46a49314b2125933ac079d29e6cb4c7f91d5f8570",
    ("PGL2", "characters"): "6b1d6e80bbecd16044cb30fd1cbb7366bbe2348400ad42ef6d08621f4bf2cc4e",
    ("GL2", "omega"): "5038a73c6c9def0c65777d652d6b82ff86111d78cc8562fb284f3645069e5f59",
    ("GL2", "characters"): "ba0523a3d4776e1185f52675cf3ce9e78bc5ea935e60563fc150d205bd8bd178",
    ("SL3", "omega"): "a299ad55e9d69d39d35c7ef7526bdff1c8c33ba7496339fee7ee75b104f20597",
    ("SL3", "characters"): "9f517899188cc96ae897664c8f9842aa6258e65eaa0bf5e130ef08cf1b9310b9",
    ("GL3", "omega"): "c5a45ac7dc7147f05ab671cc1f1dbf8403a21912f09a6890951a0da58c18743a",
    ("GL3", "characters"): "20150dcb487e66af12f10ceec34e017d467a583c1aeb2325fb59d7a1943ec0e9",
    ("Sp4", "omega"): "a299ad55e9d69d39d35c7ef7526bdff1c8c33ba7496339fee7ee75b104f20597",
    ("Sp4", "characters"): "145f88797e7954673638e0110cdf520bb6f723823314ed12b12b6757b80d1436",
    ("G2sc", "omega"): "a299ad55e9d69d39d35c7ef7526bdff1c8c33ba7496339fee7ee75b104f20597",
    ("G2sc", "characters"): "14321a10704afb56c3965bc7e27fedde17dc380769aa4742dade41bc176e1367",
    ("SL2xSL2", "omega"): "a299ad55e9d69d39d35c7ef7526bdff1c8c33ba7496339fee7ee75b104f20597",
    ("SL2xSL2", "characters"): "e53f1f9a362da45ed1be023a12129057e4387b11dd921f662e19a32e23766732",
}

# explicit datum over GF(3): [omega export, elements_up_to_length(2)]
EXPLICIT = {
    "PGL3": (
        "439179bb892a5b3e6ad0e91f2f17e8acdbb960fc01e3cd7420a74cf51e63e47b",
        "983391b6bc590089c5d2596bb63f2aac6a60ac2f04233784f2590c914773e16e",
    ),
    "PGL2xGL2": (
        "f4da92e4bc6741f90e54a77d2696042c4c6cab01428e894d1565791bc8714f21",
        "803a3413ae8ee9c2855e47e8441f89ebc44e4861ebd84c99be180caa633952ae",
    ),
    "PGL2xGm2": (
        "839a77da348f94db5cfb2ee6dc842d1080c2d42351d1e2f5ccf4eb5d4922e8ac",
        "0ab1134a4299a5a266d7277b958cdfaecb1df3f7c91df040a8ffbfe320ac4963",
    ),
}

# (group, p, f, m): 40 products iota(tau_a) iota(tau_b), a and b drawn in
# turn from basis_elements(G, 4) by random.Random(7)
DENSE = {
    ("SL3", 3, 1, 1): "7579a165949c25b4804672c40b04c9c5ff2267b9e442e85f7f7c168f95c65118",
    ("SL2", 3, 2, 2): "b993b1f51143caaabb11879fadf8ab4eb71f83a4d04db7cfb517baa8f36bc3b9",
    ("Sp4", 3, 1, 1): "bf1aa9abbaa73ba1d0ae43baa36d1e780805fc1c0ef3d749774588ff72e9f080",
}

# (group, max_len) over GF(3): [m, lambda, w, side, eps, verdict] per entry
SUPERSINGULAR = {
    ("SL3", 2): "24e697e3eaebb03a1276d809b1465e589c4036d56dba5916b567cf6748ae43ac",
    ("Sp4", 2): "f445ec3f4b4a4b89c69a9221c72f8b8421bb3e24c9bfafe157b20bdd10e7d3e0",
    ("G2sc", 1): "e81f021392cb308524c52f607153f4dff090e77ae4be499f5c4cf80958ec3fc3",
}


def _ids(case):
    return "-".join(map(str, case))


@pytest.mark.parametrize("case", list(TABLES), ids=_ids)
def test_table_digest(ctx_factory, case):
    group, q, m, L = case
    ctx = ctx_factory(group, q, 1, m)
    tables = [cli._export_payload(ctx, what, L) for what in ("hecke_table", "topmod_table")]
    assert _digest(tables) == TABLES[case]


@pytest.mark.parametrize("case", list(EXPORTS), ids=_ids)
def test_export_digest(ctx_factory, case):
    group, what = case
    assert _digest(cli._export_payload(ctx_factory(group, 3, 1, 1), what, 2)) == EXPORTS[case]


@pytest.mark.parametrize("name", list(EXPLICIT))
def test_explicit_datum_digest(name):
    ctx = get_explicit_context(name)
    omega = cli._export_payload(ctx, "omega", 2)
    elements = [w.to_json() for w in ctx.weyl.elements_up_to_length(2)]
    assert (_digest(omega), _digest(elements)) == EXPLICIT[name]


@pytest.mark.parametrize("case", list(DENSE), ids=_ids)
def test_dense_product_digest(ctx_factory, case):
    ctx = ctx_factory(*case)
    H = ctx.hecke
    basis = basis_elements(ctx.group, 4)
    rng = random.Random(7)
    rows = []
    for _ in range(40):
        a, b = rng.choice(basis), rng.choice(basis)
        rows.append((H.iota(H.tau(a)) * H.iota(H.tau(b))).to_json())
    assert _digest(rows) == DENSE[case]


@pytest.mark.parametrize("case", list(SUPERSINGULAR), ids=_ids)
def test_supersingular_entries_digest(ctx_factory, case):
    group, max_len = case
    report = run_suite(ctx_factory(group, 3), "supersingular", max_len=max_len)
    keys = ("m", "lambda", "w", "side", "eps", "verdict")
    rows = [[e[k] for k in keys] for e in report["entries"]]
    assert _digest(rows) == SUPERSINGULAR[case]
