"""Every verification suite reports the faults it is built to catch.

Each case breaks one piece of the library by monkeypatch on a fresh
context and pins (cases, number of failures, SHA-256 of the canonical
JSON of the whole report).  The pins were recorded before the suites'
bookkeeping moved into one tally, so they show that the case counts,
the failure strings and their order did not change with it.  The
matsumoto lift fault and the supersingular eigencheck fault reach
failure branches that no other fault does.
"""

import hashlib

import pytest

from prophecke import cosets, make_context, verify
from prophecke.gf import FieldElt
from prophecke.hecke import HeckeAlgebra, SparseComb
from prophecke.propweyl import ProPWeyl, basis_elements
from prophecke.serial import canonical_json

from conftest import get_context


def _never_equal(self, other):
    return False


def _elements_unequal(mp, ctx):
    mp.setattr(SparseComb, "__eq__", _never_equal)


def _scalars_unequal(mp, ctx):
    mp.setattr(FieldElt, "__eq__", _never_equal)


def _scalars_nonzero(mp, ctx):
    mp.setattr(FieldElt, "is_zero", lambda self: False)


def _assoc_fault(mp, ctx):
    """Elements never compare equal, and the suite's own triple products
    multiply on the left when asked for the right."""
    _elements_unequal(mp, ctx)
    orig = verify._scaled_combine
    mp.setattr(verify, "_scaled_combine", lambda H, d, other, side: orig(H, d, other, "left"))


def _lift_times_coroot_torus(mp, ctx):
    """Every canonical lift gains the torus factor alpha_0-check(zeta), so
    it differs from the product along each reduced word."""
    orig = ProPWeyl.lift_w

    def lift_w(self, w):
        return self.mul(orig(self, w), self.torus_elt(self.coroot_torus(self.rd.simple[0])))

    mp.setattr(ProPWeyl, "lift_w", lift_w)


def _grade_part_zero(mp, ctx):
    """Every graded part reads as zero, so each eigencheck fails."""
    mp.setattr(HeckeAlgebra, "grade_part", lambda self, x, n: self.zero())


def _all_unsupersingular(mp, ctx):
    mp.setattr(HeckeAlgebra, "classify_character",
               lambda self, lam, eps: {"supersingular": False})


def _support_with_stray(mp, ctx):
    """Every support gains a length-3 class, and only for the default tie,
    so the containment holds while the length bound and the tie check fail."""
    orig = cosets.support_mul
    stray = max(basis_elements(ctx.group, 3), key=lambda u: u.w.length())

    def support_mul(v, w, tie="min"):
        sup = orig(v, w, tie)
        return sup | {stray} if tie == "min" else sup

    mp.setattr(cosets, "support_mul", support_mul)


def _support_empty(mp, ctx):
    mp.setattr(cosets, "support_mul", lambda v, w, tie="min": frozenset())


def _profile_of_identity(mp, ctx):
    """Every profile reads as the identity's: the sum rule and one-step
    growth fail, monotonicity holds."""
    ident = cosets.g_profile_identity(ctx.rd)
    mp.setattr(cosets, "g_profile", lambda w: ident)


def _identity_profile_shifted(mp, ctx):
    orig = cosets.g_profile_identity
    mp.setattr(cosets, "g_profile_identity",
               lambda rd: {i: v + 1 for i, v in orig(rd).items()})


def _parity_always_fails(mp, ctx):
    mp.setattr(verify, "lemma_even", lambda w: (0, False))


def _scan_off_by_one(mp, ctx):
    mp.setattr(verify, "length_bruteforce", lambda w: w.length() + 1)


# (suite, fault) -> (group, run_suite params, fault,
#                    pinned (cases, failures, report digest))
FAULTS = {
    ("assoc", "elements+wrong-side"): (
        "SL2", {"max_len": 1}, _assoc_fault,
        (222, 82, "a00aa41b60e0b94191a5004f04b9d3a904bf1f0a5d4166bc45cb12ed459b02b7")),
    ("matsumoto", "elements"): (
        "SL3", {"max_len": 2}, _elements_unequal,
        (20, 50, "45dd6d29942f82ae10ede8478f5948781189a1656fb4ac7cb4ed67ab37e78f76")),
    ("matsumoto", "lift-times-torus"): (
        "SL3", {"max_len": 2}, _lift_times_coroot_torus,
        (20, 24, "1866e9f2df77d84f0bbce410c2b213c0a2889d6066555f0efdc475b549e17f11")),
    ("involutions", "elements"): (
        "SL2", {"max_len": 1, "rand_len": 2, "samples": 5}, _elements_unequal,
        (140, 130, "96b9b32701b797018864d0612963bffcf08ab737cc42636ab80c699d9f5518ac")),
    ("idempotents", "elements"): (
        "SL2", {}, _elements_unequal,
        (31, 31, "2c5991abfe5db659095bf0da034a6484e4a82263b6e7411eeff0879bbc2eb0fb")),
    ("bimodule", "elements"): (
        "SL2", {"max_len": 1}, _elements_unequal,
        (312, 312, "2a41ecf489a339477701adc21c97ad328c53541106d051a43f84ddb629a1b843")),
    ("duality", "scalars"): (
        "SL2", {"max_len_tau": 1, "max_len_phi": 1}, _scalars_unequal,
        (1296, 1296, "0c3614b6edb941aaef8aa025696d3e71173af44786a8e70934b119881aca69ae")),
    ("trace", "scalars"): (
        "SL2", {"max_len": 1}, _scalars_unequal,
        (54, 54, "b84853bd96059f5cdbc6c4014159fe9a7128c572dddb9502af59b49ce05d6256")),
    ("decompose", "elements"): (
        "SL2", {"max_len": 1}, _elements_unequal,
        (32, 20, "8e8a0ba8596ad1fd6ef0290673fe692452b98eacd5646f59f541849fb506899a")),
    ("decompose", "nonzero-scalars"): (
        "SL2", {"max_len": 1}, _scalars_nonzero,
        (32, 12, "8a8db92c764235fc7b433b6e1b667eebeb532fd9e67ad59cd4ad227e7381042c")),
    ("supersingular", "verdicts"): (
        "SL2", {"max_len": 1}, _all_unsupersingular,
        (10, 10, "5b667809a6355561bbc4b0efdc3057b9c364a21beb39c88144681ad21e2aa29e")),
    ("supersingular", "eigencheck-zero-grade"): (
        "SL2", {"max_len": 1}, _grade_part_zero,
        (10, 10, "2a626debe1bcc504d219410b72ff0ab633407858f2468fdcc20149b34720d2b7")),
    ("cosets", "stray-class"): (
        "SL2", {"max_len": 1}, _support_with_stray,
        (36, 72, "e70ff12ff2eba4e97067fc4fa8fea245f32dcefc43d7f70579e0793bf8e5aae9")),
    ("cosets", "empty-support"): (
        "SL2", {"max_len": 1}, _support_empty,
        (36, 36, "9870869dceb42fa054692cacc92355fa563f19a414086c0583885eccc2fe666d")),
    ("gprofile", "identity-profiles"): (
        "SL3", {"max_len": 2}, _profile_of_identity,
        (57, 30, "72367f08d652ae3bfd2b666880208613bf5f3e2deef6d97167f0a3a1ff5c5fd2")),
    ("gprofile", "shifted-identity"): (
        "SL2", {"max_len": 2}, _identity_profile_shifted,
        (23, 6, "38473fa8b279dc7188c8c1c50ee174b40905c407c32e3e9128bf83cb48dddea8")),
    ("lemma_even", "parity"): (
        "SL2", {"max_len": 2}, _parity_always_fails,
        (7, 7, "aa1bca900f842d57ba7ac14d3db9ee149c68bcf000c2bd5ffafe62eabe75281d")),
    ("length_oracle", "scan"): (
        "SL2", {"max_len": 2}, _scan_off_by_one,
        (15, 5, "9742c22db1e141213643fdc99c887bb84dfcc5de37ae43330641fc3d0ef3f116")),
}


def _run(monkeypatch, suite, fault):
    group, params, apply, _ = FAULTS[suite, fault]
    ctx = make_context(group, 3)  # fresh: faults must not meet warm memos
    apply(monkeypatch, ctx)
    return verify.run_suite(ctx, suite, **params)


def test_every_suite_has_a_fault():
    assert {suite for suite, _ in FAULTS} == set(verify.SUITES)


@pytest.mark.parametrize("suite,fault", list(FAULTS))
def test_suite_reports_forced_fault(monkeypatch, suite, fault):
    report = _run(monkeypatch, suite, fault)
    digest = hashlib.sha256(canonical_json(report).encode()).hexdigest()
    got = (report["cases"], len(report["failures"]), digest)
    assert report["failures"]
    assert got == FAULTS[suite, fault][3]


@pytest.mark.parametrize("suite,param,value", [
    ("assoc", "max_len", -1),
    ("assoc", "max_len", True),
    ("assoc", "max_len", 1.5),
    ("assoc", "max_len", None),
    ("assoc", "samples", "3"),
    ("duality", "samples", -3),
    ("duality", "max_len_tau", -1),
    ("duality", "max_len_phi", 2.0),
    ("involutions", "rand_len", -1),
    ("involutions", "samples", False),
])
def test_run_suite_rejects_a_bad_size(suite, param, value):
    """A size parameter must be an integer >= 0 (samples may be None):
    a bool, a non-integer or a negative value raises a ValueError naming
    the parameter before the suite runs."""
    with pytest.raises(ValueError, match=f"suite {suite} parameter {param} must be"):
        verify.run_suite(get_context("SL2", 3), suite, **{param: value})


def test_run_suite_takes_zero_sizes_and_exhaustive_samples():
    ctx = get_context("SL2", 3)
    assert verify.run_suite(ctx, "assoc", max_len=0)["cases"] > 0
    report = verify.run_suite(ctx, "duality", max_len_tau=0, max_len_phi=0, samples=None)
    assert report["cases"] > 0 and not report["failures"]
