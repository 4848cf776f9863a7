"""SHA-256 of the exported structure tables, of dense products and of the
supersingular audit entries.

Suite reports carry no values, so these digests pin the values
themselves: the `hecke_table` and `topmod_table` exports (every basis
product and every generator action up to a length), products of two
dense operands iota(tau_a) iota(tau_b), which reach HeckeAlgebra.mul
with many terms on each side, and the eps and verdict of every class the
supersingular audit visits.
"""

import hashlib
import random

import pytest

from prophecke import basis_elements, cli
from prophecke.serial import canonical_json
from prophecke.verify import run_suite


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
