"""SHA-256 of the canonical JSON of suite reports at fixed configs.

The first three mixes are the benchmark workloads' tiny sizes at seed 7;
the last covers the exhaustive duality branch and the seeded assoc branch,
which those mixes do not run.  Reports are byte-deterministic for a
config and seed, so a digest may change only with a deliberate change of
suite output.
"""

import hashlib
import random

import pytest

from prophecke.serial import canonical_json
from prophecke.verify import build_context, run_suite

SL3 = {"preset": "SL3"}
MIXES = {
    "hecke-algebra": (
        {"group": SL3, "field": {"p": 3, "f": 1, "m": 1}},
        [("assoc", {"max_len": 1}),
         ("involutions", {"max_len": 0, "rand_len": 2, "samples": 5})],
        "bd8fa2fdb4aa173f3ea583f61b8d4f1ed5205abe1ba3fe7c10a7c9b88fe85b3d",
    ),
    "top-module": (
        {"group": SL3, "field": {"p": 5, "f": 1, "m": 1}},
        [("bimodule", {"max_len": 0}), ("trace", {"max_len": 1}),
         ("duality", {"samples": 10})],
        "a3d32985f4d13bb747400c16e46196c61ba5cd7afead3211f8a5792abf279285",
    ),
    "coset-calculus": (
        {"group": SL3, "field": {"p": 2, "f": 2, "m": 8}},
        [("cosets", {"max_len": 1}), ("gprofile", {"max_len": 2}),
         ("length_oracle", {"max_len": 2}), ("idempotents", {})],
        "09a8c84b57ee8a21d38c0da363d6051f9304a43339e56b5255dcdbe502237881",
    ),
    "sl2-branches": (
        {"group": "SL2", "field": {"p": 3, "f": 1, "m": 1}},
        [("duality", {"max_len_tau": 1, "max_len_phi": 1}),
         ("assoc", {"max_len": 2, "samples": 40})],
        "93d789298adb3da865b295332b586ae541e6e5ffe89f9f329466385a01079315",
    ),
}


@pytest.mark.parametrize("name", list(MIXES))
def test_report_digest(name):
    config, mix, digest = MIXES[name]
    ctx = build_context(dict(config, seed=7))
    reports = [run_suite(ctx, suite, **params) for suite, params in mix]
    assert all(not r["failures"] for r in reports)
    assert hashlib.sha256(canonical_json(reports).encode()).hexdigest() == digest


def test_draws_keep_the_seeded_order():
    """A passing report does not show which cases were drawn, so the draw
    order the seed fixes is checked directly: pool by pool, sample by
    sample, from random.Random(seed); every combination when unsampled."""
    from itertools import product

    from prophecke.verify import _draws

    ctx = build_context({"seed": 7})
    pools = (list(range(5)), list("abc"), list(range(10, 17)))
    rng = random.Random(7)
    want = [tuple(rng.choice(p) for p in pools) for _ in range(50)]
    assert list(_draws(ctx, pools, 50)) == want
    assert list(_draws(ctx, pools, None)) == list(product(*pools))
