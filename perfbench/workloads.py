"""The benchmark's workloads: one group/field context plus a fixed suite mix.

Each suite entry is (suite name, run_suite parameters, expected case
count).  The case counts do not depend on the seed: seeded suites draw a
fixed number of samples, so a count that differs from the one recorded
here is a correctness failure.  The "tiny" size is what the smoke test
runs; "full" is what the benchmark measures.
"""

from __future__ import annotations

WORKLOADS = {
    "hecke-algebra": {
        "why": "SL3 over GF(3): repeated basis products through the hecke memo "
        "plus multi-term mul and iota; topmod and cosets stay idle",
        "config": {"group": {"preset": "SL3"}, "field": {"p": 3, "f": 1, "m": 1}},
        "sizes": {
            "full": [
                ("assoc", {"max_len": 2}, 64009),
                ("involutions", {"max_len": 1, "rand_len": 4, "samples": 300}, 1524),
            ],
            "tiny": [
                ("assoc", {"max_len": 1}, 4105),
                ("involutions", {"max_len": 0, "rand_len": 2, "samples": 5}, 106),
            ],
        },
    },
    "top-module": {
        "why": "SL3 over GF(5), torus of 16: generator actions on the phi basis "
        "dominate through TopModule.act; hecke does little work",
        "config": {"group": {"preset": "SL3"}, "field": {"p": 5, "f": 1, "m": 1}},
        "sizes": {
            "full": [
                ("bimodule", {"max_len": 1}, 69696),
                ("trace", {"max_len": 3}, 11856),
                ("duality", {"samples": 300}, 300),
            ],
            "tiny": [
                ("bimodule", {"max_len": 0}, 17424),
                ("trace", {"max_len": 1}, 2496),
                ("duality", {"samples": 10}, 10),
            ],
        },
    },
    "coset-calculus": {
        "why": "SL3 with q = 4 inside GF(2^8): cold group arithmetic and coset "
        "supports, write-heavy basis_mul, and the only big field table build",
        "config": {"group": {"preset": "SL3"}, "field": {"p": 2, "f": 2, "m": 8}},
        "sizes": {
            "full": [
                ("cosets", {"max_len": 2}, 8100),
                ("gprofile", {"max_len": 5}, 387),
                ("length_oracle", {"max_len": 6}, 192),
                ("idempotents", {}, 328),
            ],
            "tiny": [
                ("cosets", {"max_len": 1}, 1296),
                ("gprofile", {"max_len": 2}, 57),
                ("length_oracle", {"max_len": 2}, 30),
                ("idempotents", {}, 328),
            ],
        },
    },
}

# Every suite any workload runs; the traced run reports a time for each.
SUITES = sorted({s[0] for w in WORKLOADS.values() for size in w["sizes"].values() for s in size})
