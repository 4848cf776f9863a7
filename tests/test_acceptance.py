"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every criterion is exact (zero tolerated
failures); the two long-running ones also assert their wall-clock budget.
"""

import time

import pytest

from prophecke import verify
from prophecke.errors import DecompositionUnavailableError
from prophecke.propweyl import basis_elements

from conftest import get_context

# the preset/field matrix shared by the algebra criteria
EXHAUSTIVE_CONTEXTS = [
    ("SL2", 2, 1, 1),
    ("SL2", 3, 1, 1),
    ("SL2", 5, 1, 1),
    ("PGL2", 3, 1, 1),
    ("SL3", 3, 1, 1),
]
RANDOM_CONTEXTS = [
    ("Sp4", 3, 1, 1),
    ("SL2", 3, 2, 2),  # q = 9 inside GF(9)
]


def _announce(num, name, cases, failures, elapsed):
    status = "PASS" if not failures else "FAIL"
    print(
        f"ACCEPTANCE {num:02d} {name}: {status} "
        f"({cases} cases, {len(failures)} failures, {elapsed:.1f}s)"
    )
    assert not failures, failures[:10]


def test_criterion_01_hecke_associativity():
    t0 = time.monotonic()
    cases, failures = 0, []
    for args in EXHAUSTIVE_CONTEXTS:
        r = verify.run_suite(get_context(*args), "assoc", max_len=3, samples=None)
        cases += r["cases"]
        failures += [f"{args}: {f}" for f in r["failures"]]
    for args in RANDOM_CONTEXTS:
        r = verify.run_suite(get_context(*args), "assoc", max_len=6, samples=1000)
        cases += r["cases"]
        failures += [f"{args}: {f}" for f in r["failures"]]
    elapsed = time.monotonic() - t0
    _announce(1, "hecke-associativity", cases, failures, elapsed)
    assert elapsed < 300, "associativity sweep exceeded 5 minutes"


def test_criterion_02_quadratic_relations():
    t0 = time.monotonic()
    cases, failures = 0, []
    for args in EXHAUSTIVE_CONTEXTS + RANDOM_CONTEXTS:
        ctx = get_context(*args)
        H, G = ctx.hecke, ctx.group
        for s in range(len(G.weyl.s_aff)):
            t, th = H.tau(G.lift_s(s)), H.theta(s)
            cases += 3
            if not (t * t + th * t).is_zero():
                failures.append(f"{args}: tau^2 != -theta tau at s={s}")
            if not (t * t + t * th).is_zero():
                failures.append(f"{args}: tau^2 != -tau theta at s={s}")
            if th * th != th:
                failures.append(f"{args}: theta not idempotent at s={s}")
    _announce(2, "quadratic-relations", cases, failures, time.monotonic() - t0)


def test_criterion_03_matsumoto_independence():
    t0 = time.monotonic()
    cases, failures = 0, []
    for name in ("SL2", "SL3", "PGL2", "Sp4"):
        r = verify.run_suite(get_context(name, 3), "matsumoto", max_len=6)
        cases += r["cases"]
        failures += [f"{name}: {f}" for f in r["failures"]]
    _announce(3, "matsumoto-independence", cases, failures, time.monotonic() - t0)


def test_criterion_04_involutions():
    t0 = time.monotonic()
    cases, failures = 0, []
    for args in EXHAUSTIVE_CONTEXTS + RANDOM_CONTEXTS:
        r = verify.run_suite(
            get_context(*args), "involutions", max_len=3, rand_len=6, samples=300
        )
        cases += r["cases"]
        failures += [f"{args}: {f}" for f in r["failures"]]
    _announce(4, "involutions", cases, failures, time.monotonic() - t0)


def test_criterion_05_idempotent_calculus():
    t0 = time.monotonic()
    cases, failures = 0, []
    for args in [("SL2", 3, 1, 1), ("SL2", 5, 1, 1), ("SL3", 3, 1, 1)]:
        r = verify.run_suite(get_context(*args), "idempotents")
        cases += r["cases"]
        failures += [f"{args}: {f}" for f in r["failures"]]
    _announce(5, "idempotent-calculus", cases, failures, time.monotonic() - t0)


def test_criterion_06_top_module_bimodule():
    t0 = time.monotonic()
    cases, failures = 0, []
    for args in EXHAUSTIVE_CONTEXTS + [("Sp4", 3, 1, 1)]:
        r = verify.run_suite(get_context(*args), "bimodule", max_len=3)
        cases += r["cases"]
        failures += [f"{args}: {f}" for f in r["failures"]]
    _announce(6, "top-module-bimodule", cases, failures, time.monotonic() - t0)


def test_criterion_07_duality_adjunction():
    t0 = time.monotonic()
    cases, failures = 0, []
    r = verify.run_suite(
        get_context("SL2", 3), "duality", max_len_tau=2, max_len_phi=3, samples=None
    )
    cases += r["cases"]
    failures += [f"SL2: {f}" for f in r["failures"]]
    for name in ("SL3", "Sp4"):
        r = verify.run_suite(
            get_context(name, 3), "duality", max_len_tau=2, max_len_phi=3, samples=500
        )
        cases += r["cases"]
        failures += [f"{name}: {f}" for f in r["failures"]]
    _announce(7, "duality-adjunction", cases, failures, time.monotonic() - t0)


def test_criterion_08_trace_equivariance():
    t0 = time.monotonic()
    cases, failures = 0, []
    presets = [
        ("SL2", 3, 1, 1),
        ("PGL2", 3, 1, 1),
        ("GL2", 3, 1, 1),
        ("SL3", 3, 1, 1),
        ("GL3", 3, 1, 1),
        ("Sp4", 3, 1, 1),
        ("G2sc", 3, 1, 1),
        ("SL2xSL2", 3, 1, 1),
    ]
    for args in presets:
        r = verify.run_suite(get_context(*args), "trace", max_len=3)
        cases += r["cases"]
        failures += [f"{args}: {f}" for f in r["failures"]]
    _announce(8, "trace-equivariance", cases, failures, time.monotonic() - t0)


def test_criterion_09_splitting():
    t0 = time.monotonic()
    cases, failures = 0, []
    for name in ("SL2", "SL3", "Sp4"):
        r = verify.run_suite(get_context(name, 3), "decompose", max_len=3)
        cases += r["cases"]
        failures += [f"{name}: {f}" for f in r["failures"]]
    # |Omega| = 2 is not invertible in characteristic 2: must refuse
    ctx = get_context("PGL2", 2)
    cases += 1
    try:
        ctx.top.decompose(ctx.top.phi(ctx.group.identity()))
        failures.append("PGL2 at p=2 failed to refuse the splitting")
    except DecompositionUnavailableError:
        pass
    _announce(9, "trivial-kernel-splitting", cases, failures, time.monotonic() - t0)


def test_criterion_10_supersingular_audit():
    t0 = time.monotonic()
    cases, failures = 0, []
    for args in [("SL2", 3, 1, 1), ("SL2", 5, 1, 1), ("SL3", 3, 1, 1), ("Sp4", 3, 1, 1)]:
        r = verify.run_suite(get_context(*args), "supersingular", max_len=4)
        cases += r["cases"]
        failures += [f"{args}: {f}" for f in r["failures"]]
    elapsed = time.monotonic() - t0
    _announce(10, "supersingular-audit", cases, failures, elapsed)
    assert elapsed < 600, "audit exceeded 10 minutes"


def test_criterion_11_coset_calculus():
    t0 = time.monotonic()
    cases, failures = 0, []
    rank2 = [("SL2", 3, 1, 1), ("PGL2", 3, 1, 1), ("SL3", 3, 1, 1),
             ("SL2xSL2", 3, 1, 1), ("G2sc", 2, 1, 1)]
    for args in rank2:
        ctx = get_context(*args)
        for suite in ("cosets", "gprofile"):
            r = verify.run_suite(ctx, suite, max_len=4)
            cases += r["cases"]
            failures += [f"{args}/{r['suite']}: {f}" for f in r["failures"]]
    ctx = get_context("Sp4", 3)
    for suite in ("cosets", "gprofile"):
        r = verify.run_suite(ctx, suite, max_len=3)
        cases += r["cases"]
        failures += [f"Sp4/{r['suite']}: {f}" for f in r["failures"]]
    _announce(11, "coset-calculus", cases, failures, time.monotonic() - t0)


def test_criterion_12_length_oracle_and_parity():
    t0 = time.monotonic()
    cases, failures = 0, []
    presets = ["SL2", "PGL2", "GL2", "SL3", "GL3", "Sp4", "G2sc", "SL2xSL2"]
    for name in presets:
        ctx = get_context(name, 3)
        r = verify.run_suite(ctx, "length_oracle", max_len=6)
        cases += r["cases"]
        failures += [f"{name}: {f}" for f in r["failures"]]
        r = verify.run_suite(ctx, "lemma_even", max_len=4)
        cases += r["cases"]
        failures += [f"{name}: {f}" for f in r["failures"]]
    _announce(12, "length-oracle-and-parity", cases, failures, time.monotonic() - t0)
