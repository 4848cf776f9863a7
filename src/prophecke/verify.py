"""Property-test suites over a fixed group/field context.

run_suite runs every suite the same way and returns a plain report dict
{"suite", "group", "field", "seed", "params", "cases", "failures": [...]};
an empty failure list is the pass condition.  Suites are deterministic:
exhaustive parts iterate in canonical order and randomized parts draw
from a seeded generator whose seed is echoed in the report.

A suite is suite_<name>(ctx, t, *, size=default, ...): every size is a
keyword-only parameter with a default, so the suite's __kwdefaults__ is
its whole size table.  A size the config sets (max_len, and samples in
involutions) has the default _FROM_CONTEXT, which run_suite replaces by
the context's value of that name.  run_suite resolves the sizes (see
there) and hands the suite a fresh _Tally t: t.check(ok, msg,
*args) counts one case and records msg.format(*args) only when ok is
false.  Where one case covers several checks (matsumoto's reduced words,
cosets' products) the suite adds to t.cases itself and records through
t.fail.  A suite returns None, or a dict of extra report fields
(supersingular's entries).
"""

from __future__ import annotations

import random
from itertools import product

from . import cosets as cosets_mod
from .errors import DecompositionUnavailableError, TheoremViolationError
from .gf import FieldSpec, _check_int
from .hecke import HeckeAlgebra, accumulate
from .propweyl import ProPWeyl, basis_elements
from .rootdata import RootDatum
from .topmod import TopModule
from .weyl import WeylGroup, lemma_even, length_bruteforce

class Context:
    """The full construction chain for one group and field, built from a
    config dict, with the seed and default suite sizes the config sets
    and its echo: the resolved config, every default filled in."""

    __slots__ = ("rd", "weyl", "field", "group", "hecke", "top", "seed", "max_len",
                 "samples", "config")

    def __init__(self, config: dict):
        self.seed = _check_int("config seed", config.get("seed", 0))
        self.max_len = _check_int("config max_len", config.get("max_len", 3), 0)
        self.samples = _check_int("config samples", config.get("samples", 1000), 0)
        self.rd = RootDatum.from_json(config.get("group", "SL2"))
        self.field = FieldSpec.from_json(config.get("field", {"p": 3, "f": 1}))
        self.weyl = WeylGroup(self.rd)
        self.group = ProPWeyl(self.weyl, self.field.q)
        self.hecke = HeckeAlgebra(self.group, self.field)
        self.top = TopModule(self.hecke)
        self.config = {"group": self.rd.to_json(), "field": self.field.to_json(),
                       "seed": self.seed, "max_len": self.max_len, "samples": self.samples}


build_context = Context

# The default of a suite size that the config sets: run_suite passes the
# context's value of that name in its place.
_FROM_CONTEXT = object()


def make_context(group_name: str, p: int, f: int = 1, m: int | None = None, **kw) -> Context:
    cfg = {"group": {"preset": group_name}, "field": {"p": p, "f": f, "m": m or f}}
    cfg.update(kw)
    return Context(cfg)


class _Tally:
    """Case count and failure list of one suite run."""

    __slots__ = ("cases", "failures")

    def __init__(self):
        self.cases, self.failures = 0, []

    def check(self, ok, msg: str, *args):
        """Count one case; record msg.format(*args) unless ok.  Kept one
        body with no call out: assoc makes tens of thousands of calls."""
        self.cases += 1
        if not ok:
            self.failures.append(msg.format(*args))

    def fail(self, msg: str, *args):
        """Record a failure without counting a case."""
        self.failures.append(msg.format(*args))


def _scaled_combine(H, d, other, side):
    """Multiply index terms by a basis element on one side.  One term with
    coefficient 1 gives basis_mul's memo value itself, read-only."""
    out, elts = {}, H.group.by_index
    for u, c in d.items():
        prods = H.basis_mul(elts[u], other) if side == "right" else H.basis_mul(other, elts[u])
        if c == 1 and len(d) == 1:
            return prods
        accumulate(out, prods, c, H.field)
    return out


def _draws(ctx: Context, pools, samples: int | None):
    """Tuples with one entry from each pool: every combination in order
    when samples is None, else that many seeded random draws."""
    if samples is None:
        return product(*pools)
    rng = random.Random(ctx.seed)
    return (tuple(rng.choice(p) for p in pools) for _ in range(samples))


def _generators(ctx: Context) -> list:
    """tau of every affine simple reflection lift, then of every torus
    element: the probes of the idempotent, bimodule, trace and decompose
    suites."""
    G, H = ctx.group, ctx.hecke
    gens = [H.tau(G.lift_s(s)) for s in range(len(G.weyl.s_aff))]
    return gens + [H.tau(G.torus_elt(t)) for t in G.torus_elements()]


# -- algebra suites ------------------------------------------------------------------


def suite_assoc(ctx: Context, t: _Tally, *, max_len: int = _FROM_CONTEXT,
                samples: int | None = None):
    """Associativity on basis triples, plus the quadratic relations and
    theta idempotence on every affine simple reflection.

    samples=None runs the exhaustive triple product over the basis up to
    max_len; an integer runs that many seeded random triples instead."""
    H, G = ctx.hecke, ctx.group
    check = t.check

    for s in range(len(G.weyl.s_aff)):
        tn = H.tau(G.lift_s(s))
        th = H.theta(s)
        check((tn * tn + th * tn).is_zero(), "tau_ns^2 != -theta tau_ns at s={}", s)
        check((tn * tn + tn * th).is_zero(), "tau_ns^2 != -tau_ns theta at s={}", s)
        check(th * th == th, "theta_s not idempotent at s={}", s)

    basis = basis_elements(G, max_len)
    for x, y, z in _draws(ctx, (basis,) * 3, samples):
        lhs = _scaled_combine(H, H.basis_mul(x, y), z, "right")
        rhs = _scaled_combine(H, H.basis_mul(y, z), x, "left")
        check(lhs == rhs, "assoc fails at ({!r},{!r},{!r})", x, y, z)


def suite_matsumoto(ctx: Context, t: _Tally, *, max_len: int = _FROM_CONTEXT):
    """Lift, Hecke product, and top-module action along every reduced word
    of every element up to max_len agree with the canonical-word values;
    products are also recomputed with the opposite descent tie-break."""
    G, H, E = ctx.group, ctx.hecke, ctx.top
    H_alt = HeckeAlgebra(G, ctx.field, word_tie="max")
    phi_probes = [E.phi(G.identity())]
    if G.qm1 > 1:
        phi_probes.append(E.phi(G.torus_elt(G.coroot_torus(G.rd.simple[0]))))

    for w in G.weyl.elements_up_to_length(max_len):
        omega, _ = w.reduced_word()
        ref = G.lift_w(w)
        ref_tau = H.tau(ref)
        for rw in w.all_reduced_words():
            t.cases += 1
            x = G.lift_omega(omega)
            prod = H.tau(x)
            for i in rw:
                x = G.mul(x, G.lift_s(i))
                prod = prod * H.tau(G.lift_s(i))
            if x != ref:
                t.fail("lift differs along {} for {!r}", rw, w)
            if prod != ref_tau:
                t.fail("Hecke product differs along {} for {!r}", rw, w)
            for ph in phi_probes:
                left = ph
                for i in reversed(rw):
                    left = E.act(H.tau(G.lift_s(i)), left, "left")
                left = E.act(H.tau(G.lift_omega(omega)), left, "left")
                if left != E.act(ref_tau, ph, "left"):
                    t.fail("left top action differs along {} for {!r}", rw, w)
                right = E.act(H.tau(G.lift_omega(omega)), ph, "right")
                for i in rw:
                    right = E.act(H.tau(G.lift_s(i)), right, "right")
                if right != E.act(ref_tau, ph, "right"):
                    t.fail("right top action differs along {} for {!r}", rw, w)
        # opposite tie-break must give identical structure constants
        t.check(H_alt.basis_mul(ref, ref) == H.basis_mul(ref, ref),
                "tie-break changes tau_w^2 for {!r}", w)


def suite_involutions(ctx: Context, t: _Tally, *, max_len: int = _FROM_CONTEXT, rand_len: int = 6,
                      samples: int = _FROM_CONTEXT):
    """iota and J are involutive (anti)automorphisms exchanged through the
    trivial/sign characters."""
    G, H = ctx.group, ctx.hecke
    iota, J = H.iota, H.J
    check = t.check

    basis = basis_elements(G, max_len)
    for a in basis:
        x = H.tau(a)
        check(iota(iota(x)) == x, "iota^2 != id at {!r}", a)
        check(J(J(x)) == x, "J^2 != id at {!r}", a)
    for a in basis:
        for b in basis:
            x, y = H.tau(a), H.tau(b)
            check(iota(x * y) == iota(x) * iota(y), "iota not multiplicative at ({!r},{!r})", a, b)
            check(J(x * y) == J(y) * J(x), "J not anti-multiplicative at ({!r},{!r})", a, b)
            check(iota(J(x * y)) == J(iota(x * y)),
                  "iota and J do not commute at ({!r},{!r})", a, b)

    big = basis_elements(G, rand_len)
    for a, b in _draws(ctx, (big, big), samples):
        x, y = H.tau(a), H.tau(b)
        check(iota(x * y) == iota(x) * iota(y),
              "iota not multiplicative at random ({!r},{!r})", a, b)
        check(J(x * y) == J(y) * J(x), "J not anti-multiplicative at random ({!r},{!r})", a, b)
    for a in big:
        x = H.tau(a)
        check(H.chi_eval("sign", x) == H.chi_eval("triv", iota(x)),
              "chi_sign != chi_triv o iota at {!r}", a)


def suite_idempotents(ctx: Context, t: _Tally):
    """The torus idempotent family and its interaction with theta and with
    conjugation by basis elements."""
    G, H = ctx.group, ctx.hecke
    lams = G.torus_elements()
    es = {la: H.e_lambda(la) for la in lams}

    t.check(sum(es.values(), H.zero()) == H.one(), "sum of e_lambda != 1")

    for la in lams:
        for lb in lams:
            want = es[la] if la == lb else H.zero()
            t.check(es[la] * es[lb] == want, "e_lambda orthogonality fails at {},{}", la, lb)

    for la in lams:
        e = es[la]
        for tv in G.torus_elements():
            tt = H.tau(G.torus_elt(tv))
            want = e.scale(H.chi_lambda(la, tv))
            t.check(e * tt == want and tt * e == want,
                    "e_lambda tau_t rule fails at {},{}", la, tv)
        for s in range(len(G.weyl.s_aff)):
            want = e if H._lam_trivial_on_image(la, G.weyl.s_aff[s].root) else H.zero()
            t.check(e * H.theta(s) == want, "e_lambda theta rule fails at {},s={}", la, s)

    ws = G.weyl.elements_up_to_length(2)
    for la in lams:
        for w in ws:
            tw = H.tau(G.lift_w(w))
            t.check(tw * es[la] == es[H.conj_char(w, la)] * tw,
                    "conjugation rule fails at {},{!r}", la, w)

    gens = _generators(ctx)
    orbit_reps = {}  # orbit -> its first character
    for la in lams:
        orbit_reps.setdefault(tuple(H.char_orbit(la)), la)
    for la in orbit_reps.values():
        eg = H.e_gamma(la)
        for x in gens:
            t.check(eg * x == x * eg, "e_gamma not central at orbit of {}", la)


def suite_bimodule(ctx: Context, t: _Tally, *, max_len: int = _FROM_CONTEXT):
    """Top-module bimodule axioms for generator pairs against the phi
    basis, plus the relations-respected checks (quadratic and braid acting
    on the module).  Each generator's left and right action on each phi
    is computed once, before the pairs and the quadratic relations are
    checked."""
    G, E = ctx.group, ctx.top
    check = t.check
    gens = _generators(ctx)
    phis = [E.phi(b) for b in basis_elements(G, max_len)]
    left = [[E.act(g, ph, "left") for ph in phis] for g in gens]
    right = [[E.act(g, ph, "right") for ph in phis] for g in gens]

    for i, x in enumerate(gens):
        for j, y in enumerate(gens):
            xy = x * y
            for k, ph in enumerate(phis):
                check(E.act(xy, ph, "left") == E.act(x, left[j][k], "left"),
                      "left associativity fails")
                check(E.act(xy, ph, "right") == E.act(y, right[i][k], "right"),
                      "right associativity fails")
                check(E.act(y, left[i][k], "right") == E.act(x, right[j][k], "left"),
                      "left/right compatibility fails")

    # The simple-reflection generators come first in gens, so row s holds
    # gens[s] acting on every phi.
    for s in range(len(G.weyl.s_aff)):
        tn = gens[s]
        rel = tn * tn  # equals -theta tau_ns in H
        for k, ph in enumerate(phis):
            check(E.act(tn, left[s][k], "left") == E.act(rel, ph, "left"),
                  "quadratic relation on module fails at s={}", s)
            check(E.act(tn, right[s][k], "right") == E.act(rel, ph, "right"),
                  "right quadratic relation on module fails at s={}", s)


def suite_duality(ctx: Context, t: _Tally, *, max_len_tau: int = 2, max_len_phi: int = 3,
                  samples: int | None = None):
    """pairing(tau . phi . tau', tau'') = pairing(phi, J(tau) tau'' J(tau'));
    exhaustive when samples is None, else seeded random.  While the pair
    (tau, tau') = (tau_a, tau_b) stays fixed, as it does across the inner
    loops of the exhaustive order, tau_a phi_d tau_b is kept by d and
    J(tau_a) tau_c J(tau_b) by c; both are dropped when the pair changes,
    so memory stays flat."""
    G, H, E = ctx.group, ctx.hecke, ctx.top
    taus = basis_elements(G, max_len_tau)
    phis = basis_elements(G, max_len_phi)

    pa = pb = None
    for a, b, c, d in _draws(ctx, (taus, taus, taus, phis), samples):
        if a is not pa or b is not pb:
            pa, pb, lefts, rights = a, b, {}, {}
            t1, t2 = H.tau(a), H.tau(b)
            j1, j2 = H.J(t1), H.J(t2)
        hit = lefts.get(d)
        if hit is None:
            ph = E.phi(d)
            hit = lefts[d] = ph, E.act(t2, E.act(t1, ph, "left"), "right")
        ph, left = hit
        hit = rights.get(c)
        if hit is None:
            t3 = H.tau(c)
            hit = rights[c] = t3, j1 * t3 * j2
        t3, right = hit
        t.check(E.pairing(left, t3) == E.pairing(ph, right), "adjunction fails at {!r}",
                (a, b, c, d))


def suite_trace(ctx: Context, t: _Tally, *, max_len: int = _FROM_CONTEXT):
    """Both H-actions push through the coordinate-sum trace by the trivial
    character, and the trace is inversion-invariant."""
    G, H, E = ctx.group, ctx.hecke, ctx.top
    gens = _generators(ctx)
    for b in basis_elements(G, max_len):
        ph = E.phi(b)
        t.check(E.S_d(E.J_top(ph)) == E.S_d(ph), "S o J != S at {!r}", b)
        for tg in gens:
            want = H.chi_eval("triv", tg) * E.S_d(ph)
            t.check(E.S_d(E.act(tg, ph, "left")) == want,
                    "left trace equivariance fails at {!r}", b)
            t.check(E.S_d(E.act(tg, ph, "right")) == want,
                    "right trace equivariance fails at {!r}", b)


def suite_decompose(ctx: Context, t: _Tally, *, max_len: int = _FROM_CONTEXT):
    """The trivial/kernel splitting: projection property, H-stability of
    both summands, and vanishing trace on the kernel.  Raises
    DecompositionUnavailableError when the splitting does not exist."""
    G, H, E = ctx.group, ctx.hecke, ctx.top
    line = E.triv_line()  # raises if Omega is infinite
    if E.S_d(line).is_zero():
        raise DecompositionUnavailableError("|Omega| vanishes in k")
    gens = _generators(ctx)
    for tg in gens:
        for side in ("left", "right"):
            want = line.scale(H.chi_eval("triv", tg))
            t.check(E.act(tg, line, side) == want,
                    "trivial line not stable under {!r} on the {}", tg, side)
    simple = gens[: len(G.weyl.s_aff)]
    for b in basis_elements(G, max_len):
        ph = E.phi(b)
        triv, ker = E.decompose(ph)
        t.check(triv + ker == ph, "decompose does not sum back at {!r}", b)
        t.check(E.S_d(ker).is_zero(), "kernel part has nonzero trace at {!r}", b)
        t2, k2 = E.decompose(triv)
        t.check(t2 == triv and k2.is_zero(), "decompose not idempotent at {!r}", b)
        t.check(all(E.S_d(E.act(tg, ker, "left")).is_zero() for tg in simple),
                "kernel not stable at {!r}", b)


def suite_supersingular(ctx: Context, t: _Tally, *, max_len: int = _FROM_CONTEXT):
    """Supersingularity audit of the trace-kernel grades: for every grade
    m up to max_len, every length-m class w and every torus character
    (only the nontrivial ones at grade 0), verify the graded
    eigencharacter of e_lambda tau_w on both sides and classify it; every
    verdict must be supersingular.  The report lists one entry per case.

    Requires a semisimple simply connected group with irreducible root
    system, where the trace kernel is exhausted by these classes."""
    G, H = ctx.group, ctx.hecke
    om = G.weyl.omega()
    if G.rd.ncomp != 1 or not om.finite or om.order != 1:
        raise ValueError("audit requires a simply connected group with irreducible root system")
    entries = []
    for m in range(max_len + 1):
        for w in G.weyl.elements_of_length(m):
            lift = G.lift_w(w)
            for lam in G.torus_elements():
                if m == 0 and not any(lam):
                    continue  # the trivial-character line, split off separately
                for side in ("left", "right"):
                    entry = {"m": m, "lambda": list(lam), "w": w.to_json(), "side": side}
                    try:
                        eps = H.graded_support_char(lam, lift, side)
                        ss = H.classify_character(lam, eps)["supersingular"]
                        entry["eps"] = list(eps)
                        entry["verdict"] = "supersingular" if ss else "NOT-supersingular"
                    except TheoremViolationError as exc:
                        entry["verdict"] = f"eigencheck-failed: {exc}"
                        ss = False
                    t.check(ss, "{}", entry)
                    entries.append(entry)
    return {"entries": entries}


# -- combinatorial suites ----------------------------------------------------------


def suite_cosets(ctx: Context, t: _Tally, *, max_len: int = _FROM_CONTEXT):
    """Support containment of Hecke products in the symbolic coset union,
    the length bounds on that union, and independence of the driving
    reduced word."""
    G, H = ctx.group, ctx.hecke
    basis = basis_elements(G, max_len)
    for v in basis:
        for w in basis:
            t.cases += 1
            sup = cosets_mod.support_mul(v, w)
            prod = map(G.by_index.__getitem__, H.basis_mul(v, w))
            if not sup.issuperset(prod):
                t.fail("Hecke support escapes coset union at ({!r},{!r})", v, w)
                continue
            lv, lw = v.w.length(), w.w.length()
            for u in sup:
                if not (abs(lw - lv) <= u.w.length() <= lv + lw):
                    t.fail("length bound fails at ({!r},{!r},{!r})", v, w, u)
            if cosets_mod.support_mul(v, w, tie="max") != sup:
                t.fail("support depends on word choice at ({!r},{!r})", v, w)


def suite_gprofile(ctx: Context, t: _Tally, *, max_len: int = _FROM_CONTEXT):
    """Root-filtration profiles: identity baseline, index sum rule,
    monotonicity along length-additive products, one-step growth."""
    G, wg = ctx.group, ctx.weyl
    gid = cosets_mod.g_profile_identity(G.rd)
    t.check(cosets_mod.g_profile(wg.identity()) == gid, "identity profile wrong")
    ws = wg.elements_up_to_length(max_len)
    profiles = {w: cosets_mod.g_profile(w) for w in ws}

    for w in ws:
        t.check(sum(profiles[w][i] - gid[i] for i in gid) == w.length(),
                "sum rule fails at {!r}", w)
    for v in ws:
        for w in ws:
            vw = v * w
            if vw.length() != v.length() + w.length() or vw.length() > max_len:
                continue
            pv, pvw = profiles[v], profiles.get(vw) or cosets_mod.g_profile(vw)
            t.check(not any(pvw[i] < pv[i] for i in pv), "monotonicity fails at ({!r},{!r})", v, w)
    for w in ws:
        for si, A in enumerate(wg.s_aff):
            ws_elt = w * wg.aff_gen(si)
            if ws_elt.length() != w.length() + 1:
                continue
            B = w.act_affine(A)
            pw, pws = profiles[w], profiles.get(ws_elt) or cosets_mod.g_profile(ws_elt)
            t.check(all(pws[i] == (pw[i] + 1 if i == B.root else pw[i]) for i in pw),
                    "one-step growth fails at ({!r},s={})", w, si)


def suite_lemma_even(ctx: Context, t: _Tally, *, max_len: int = 4):
    """Negation-stable orbit count plus length is even, over the finite
    Weyl group and over all elements up to max_len.

    The parity statement is a theorem on the subgroup generated by
    reflections; a length-zero prefix contributes the determinant of its
    finite part as a defect.  For groups whose length-zero subgroup acts
    with determinant one (all semisimple simply connected presets, and
    anything with trivial Omega) the defect never appears.  The suite
    checks the sharp statement: parity holds exactly when the defect is
    trivial."""
    wg = ctx.weyl
    for w0 in range(wg.order):
        w = wg.elt(w0)
        N, ok = lemma_even(w)
        t.check(ok, "parity fails at finite element {!r} (N={})", w, N)
    for w in wg.elements_up_to_length(max_len):
        N, ok = lemma_even(w)
        omega, _ = w.reduced_word()
        defect_free = wg.length0[omega.w0] % 2 == 0
        t.check(ok == defect_free, "parity/defect mismatch at {!r} (N={}, defect-free={})",
                w, N, defect_free)


def suite_length_oracle(ctx: Context, t: _Tally, *, max_len: int = 6):
    """Closed-form length against the brute-force affine-root scan, length
    of inverses, and constancy on double cosets of the length-zero
    subgroup."""
    wg = ctx.weyl
    ws = wg.elements_up_to_length(max_len)
    for w in ws:
        t.check(w.length() == length_bruteforce(w), "closed form != scan at {!r}", w)
        t.check(w.length() == w.inv().length(), "length(w) != length(w^-1) at {!r}", w)
    omega_elts = wg.omega().window(1)
    for w in ws[: 200]:
        for o1, o2 in product(omega_elts, repeat=2):
            t.check((o1 * w * o2).length() == w.length(),
                    "length not Omega-bi-invariant at {!r}", w)


_SUITE_FNS = {
    "assoc": suite_assoc,
    "matsumoto": suite_matsumoto,
    "involutions": suite_involutions,
    "idempotents": suite_idempotents,
    "bimodule": suite_bimodule,
    "duality": suite_duality,
    "trace": suite_trace,
    "decompose": suite_decompose,
    "supersingular": suite_supersingular,
    "cosets": suite_cosets,
    "gprofile": suite_gprofile,
    "lemma_even": suite_lemma_even,
    "length_oracle": suite_length_oracle,
}
SUITES = tuple(_SUITE_FNS)

def run_suite(ctx: Context, name: str, **params) -> dict:
    """Run one suite and build its report.

    An unknown suite or a parameter the suite does not take raises a
    ValueError naming it.  Every suite parameter is a size (a length
    bound or a draw count), so its value must be an integer >= 0; only
    samples may also be None.  Any other value raises a ValueError
    naming the parameter.  A size the caller omits, and samples passed
    as None, take the suite's default, read off its keyword defaults;
    where that default is _FROM_CONTEXT (max_len, and samples in
    involutions) the size takes the context's value of that name, which
    the config sets.  samples=None therefore runs every combination,
    except in involutions.  The report's params are the sizes the suite
    ran with, in signature order."""
    if name not in _SUITE_FNS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    fn = _SUITE_FNS[name]
    takes = fn.__kwdefaults__ or {}
    for p in params:
        if p not in takes:
            raise ValueError(
                f"suite {name} takes no parameter {p}; it takes {', '.join(takes) or 'none'}")
        if params[p] is not None or p != "samples":
            _check_int(f"suite {name} parameter {p}", params[p], 0)
    sizes = {}
    for p, default in takes.items():
        value = params.get(p)
        if value is None:
            value = getattr(ctx, p) if default is _FROM_CONTEXT else default
        sizes[p] = value
    t = _Tally()
    extra = fn(ctx, t, **sizes)
    return {"suite": name, "group": ctx.rd.to_json(), "field": ctx.field.to_json(),
            "seed": ctx.seed, "params": sizes, "cases": t.cases, "failures": t.failures,
            **(extra or {})}
