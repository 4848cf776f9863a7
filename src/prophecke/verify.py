"""Property-test suites over a fixed group/field context.

Every suite runs a family of identities and returns a plain report dict
{"suite", "cases", "failures": [...], ...}; an empty failure list is the
pass condition.  Suites are deterministic: exhaustive parts iterate in
canonical order and randomized parts draw from a seeded generator whose
seed is echoed in the report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from itertools import product

from . import cosets as cosets_mod
from .errors import DecompositionUnavailableError, TheoremViolationError
from .gf import FieldSpec
from .hecke import HeckeAlgebra, accumulate
from .propweyl import ProPWeyl, basis_elements
from .rootdata import RootDatum
from .topmod import TopModule
from .weyl import WeylGroup, lemma_even, length_bruteforce

@dataclass
class Context:
    """Bundle of the full construction chain for one group and field."""

    rd: RootDatum
    weyl: WeylGroup
    field: FieldSpec
    group: ProPWeyl
    hecke: HeckeAlgebra
    top: TopModule
    seed: int = 0
    max_len: int = 3
    samples: int = 1000
    config: dict = dc_field(default_factory=dict)


def _config_int(config: dict, name: str, default: int, low: int | None = 0) -> int:
    """config[name], or default when absent; a bool, a non-int or a value
    below low (when given) raises a ValueError naming the field."""
    v = config.get(name, default)
    if isinstance(v, bool) or not isinstance(v, int) or (low is not None and v < low):
        need = "an integer" if low is None else f"an integer >= {low}"
        raise ValueError(f"config {name} must be {need}, got {v!r}")
    return v


def build_context(config: dict) -> Context:
    seed = _config_int(config, "seed", 0, low=None)
    max_len = _config_int(config, "max_len", 3)
    samples = _config_int(config, "samples", 1000)
    rd = RootDatum.from_json(config.get("group", "SL2"))
    fs = FieldSpec.from_json(config.get("field", {"p": 3, "f": 1}))
    wg = WeylGroup(rd)
    grp = ProPWeyl(wg, fs.q)
    alg = HeckeAlgebra(grp, fs)
    echo = {"group": rd.to_json(), "field": fs.to_json(), "seed": seed,
            "max_len": max_len, "samples": samples}
    return Context(rd, wg, fs, grp, alg, TopModule(alg), seed, max_len, samples, echo)


def make_context(group_name: str, p: int, f: int = 1, m: int | None = None, **kw) -> Context:
    cfg = {"group": {"preset": group_name}, "field": {"p": p, "f": f, "m": m or f}}
    cfg.update(kw)
    return build_context(cfg)


def _report(ctx: Context, suite: str, cases: int, failures: list, **params) -> dict:
    return {
        "suite": suite,
        "group": ctx.rd.to_json(),
        "field": ctx.field.to_json(),
        "seed": ctx.seed,
        "params": params,
        "cases": cases,
        "failures": failures,
    }


def _scaled_combine(H, d, other, side):
    """Multiply index terms by a basis element on one side."""
    elts = H.group.by_index
    out = {}
    for u, c in d.items():
        u = elts[u]
        prods = H.basis_mul(u, other) if side == "right" else H.basis_mul(other, u)
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


def suite_assoc(ctx: Context, max_len: int | None = None, samples: int | None = None):
    """Associativity on basis triples, plus the quadratic relations and
    theta idempotence on every affine simple reflection.

    samples=None runs the exhaustive triple product over the basis up to
    max_len; an integer runs that many seeded random triples instead."""
    H, G = ctx.hecke, ctx.group
    max_len = ctx.max_len if max_len is None else max_len
    failures = []
    cases = 0

    for s in range(len(G.weyl.s_aff)):
        t = H.tau(G.lift_s(s))
        th = H.theta(s)
        cases += 3
        if not (t * t + th * t).is_zero():
            failures.append(f"tau_ns^2 != -theta tau_ns at s={s}")
        if not (t * t + t * th).is_zero():
            failures.append(f"tau_ns^2 != -tau_ns theta at s={s}")
        if th * th != th:
            failures.append(f"theta_s not idempotent at s={s}")

    basis = basis_elements(G, max_len)
    for x, y, z in _draws(ctx, (basis,) * 3, samples):
        cases += 1
        lhs = _scaled_combine(H, H.basis_mul(x, y), z, "right")
        rhs = _scaled_combine(H, H.basis_mul(y, z), x, "left")
        if lhs != rhs:
            failures.append(f"assoc fails at ({x!r},{y!r},{z!r})")
    return _report(ctx, "assoc", cases, failures, max_len=max_len, samples=samples)


def suite_matsumoto(ctx: Context, max_len: int | None = None):
    """Lift, Hecke product, and top-module action along every reduced word
    of every element up to max_len agree with the canonical-word values;
    products are also recomputed with the opposite descent tie-break."""
    G, H, E = ctx.group, ctx.hecke, ctx.top
    max_len = ctx.max_len if max_len is None else max_len
    failures = []
    cases = 0
    H_alt = HeckeAlgebra(G, ctx.field, word_tie="max")
    phi_probes = [E.phi(G.identity())]
    if G.qm1 > 1:
        probe_t = G.coroot_torus(G.rd.simple[0])
        phi_probes.append(E.phi(G.torus_elt(probe_t)))

    for w in G.weyl.elements_up_to_length(max_len):
        omega, _ = w.reduced_word()
        ref = G.lift_w(w)
        ref_tau = H.tau(ref)
        words = w.all_reduced_words()
        for rw in words:
            cases += 1
            x = G.lift_omega(omega)
            prod = H.tau(x)
            for i in rw:
                x = G.mul(x, G.lift_s(i))
                prod = prod * H.tau(G.lift_s(i))
            if x != ref:
                failures.append(f"lift differs along {rw} for {w!r}")
            if prod != ref_tau:
                failures.append(f"Hecke product differs along {rw} for {w!r}")
            for ph in phi_probes:
                left = ph
                for i in reversed(rw):
                    left = E.act(H.tau(G.lift_s(i)), left, "left")
                left = E.act(H.tau(G.lift_omega(omega)), left, "left")
                if left != E.act(ref_tau, ph, "left"):
                    failures.append(f"left top action differs along {rw} for {w!r}")
                right = E.act(H.tau(G.lift_omega(omega)), ph, "right")
                for i in rw:
                    right = E.act(H.tau(G.lift_s(i)), right, "right")
                if right != E.act(ref_tau, ph, "right"):
                    failures.append(f"right top action differs along {rw} for {w!r}")
        # opposite tie-break must give identical structure constants
        lift_alt = G.lift_w(w)  # lift_w is tie-independent by the above
        cases += 1
        if H_alt.basis_mul(ref, lift_alt) != H.basis_mul(ref, lift_alt):
            failures.append(f"tie-break changes tau_w^2 for {w!r}")
    return _report(ctx, "matsumoto", cases, failures, max_len=max_len)


def suite_involutions(ctx: Context, max_len: int | None = None, rand_len: int = 6,
                      samples: int | None = None):
    """iota and J are involutive (anti)automorphisms exchanged through the
    trivial/sign characters."""
    G, H = ctx.group, ctx.hecke
    max_len = ctx.max_len if max_len is None else max_len
    samples = ctx.samples if samples is None else samples
    failures = []
    cases = 0

    basis = basis_elements(G, max_len)
    for a in basis:
        x = H.tau(a)
        cases += 2
        if H.iota(H.iota(x)) != x:
            failures.append(f"iota^2 != id at {a!r}")
        if H.J(H.J(x)) != x:
            failures.append(f"J^2 != id at {a!r}")
    for a in basis:
        for b in basis:
            x, y = H.tau(a), H.tau(b)
            cases += 3
            if H.iota(x * y) != H.iota(x) * H.iota(y):
                failures.append(f"iota not multiplicative at ({a!r},{b!r})")
            if H.J(x * y) != H.J(y) * H.J(x):
                failures.append(f"J not anti-multiplicative at ({a!r},{b!r})")
            if H.iota(H.J(x * y)) != H.J(H.iota(x * y)):
                failures.append(f"iota and J do not commute at ({a!r},{b!r})")

    big = basis_elements(G, rand_len)
    for a, b in _draws(ctx, (big, big), samples):
        x, y = H.tau(a), H.tau(b)
        cases += 2
        if H.iota(x * y) != H.iota(x) * H.iota(y):
            failures.append(f"iota not multiplicative at random ({a!r},{b!r})")
        if H.J(x * y) != H.J(y) * H.J(x):
            failures.append(f"J not anti-multiplicative at random ({a!r},{b!r})")
    for a in big:
        cases += 1
        x = H.tau(a)
        if H.chi_eval("sign", x) != H.chi_eval("triv", H.iota(x)):
            failures.append(f"chi_sign != chi_triv o iota at {a!r}")
    return _report(
        ctx, "involutions", cases, failures, max_len=max_len, rand_len=rand_len,
        samples=samples,
    )


def suite_idempotents(ctx: Context):
    """The torus idempotent family and its interaction with theta and with
    conjugation by basis elements."""
    G, H = ctx.group, ctx.hecke
    failures = []
    cases = 0
    lams = G.torus_elements()
    es = {la: H.e_lambda(la) for la in lams}

    total = H.zero()
    for e in es.values():
        total = total + e
    cases += 1
    if total != H.one():
        failures.append("sum of e_lambda != 1")

    for la in lams:
        for lb in lams:
            cases += 1
            prod = es[la] * es[lb]
            want = es[la] if la == lb else H.zero()
            if prod != want:
                failures.append(f"e_lambda orthogonality fails at {la},{lb}")

    for la in lams:
        e = es[la]
        for t in G.torus_elements():
            cases += 1
            tt = H.tau(G.torus_elt(t))
            want = e.scale(H.chi_lambda(la, t))
            if e * tt != want or tt * e != want:
                failures.append(f"e_lambda tau_t rule fails at {la},{t}")
        for s in range(len(G.weyl.s_aff)):
            cases += 1
            trivial = H._lam_trivial_on_image(la, G.weyl.s_aff[s].root)
            want = e if trivial else H.zero()
            if e * H.theta(s) != want:
                failures.append(f"e_lambda theta rule fails at {la},s={s}")

    ws = G.weyl.elements_up_to_length(2)
    for la in lams:
        for w in ws:
            cases += 1
            tw = H.tau(G.lift_w(w))
            if tw * es[la] != es[H.conj_char(w, la)] * tw:
                failures.append(f"conjugation rule fails at {la},{w!r}")

    gens = _generators(ctx)
    seen_orbits = set()
    for la in lams:
        orbit = tuple(H.char_orbit(la))
        if orbit in seen_orbits:
            continue
        seen_orbits.add(orbit)
        eg = H.e_gamma(la)
        for x in gens:
            cases += 1
            if eg * x != x * eg:
                failures.append(f"e_gamma not central at orbit of {la}")
    return _report(ctx, "idempotents", cases, failures)


def suite_bimodule(ctx: Context, max_len: int | None = None):
    """Top-module bimodule axioms for generator pairs against the phi
    basis, plus the relations-respected checks (quadratic and braid acting
    on the module).  Each generator's left and right action on each phi
    is computed once, before the pairs and the quadratic relations are
    checked."""
    G, E = ctx.group, ctx.top
    max_len = ctx.max_len if max_len is None else max_len
    failures = []
    cases = 0
    gens = _generators(ctx)
    phis = [E.phi(b) for b in basis_elements(G, max_len)]
    left = [[E.act(g, ph, "left") for ph in phis] for g in gens]
    right = [[E.act(g, ph, "right") for ph in phis] for g in gens]

    for i, x in enumerate(gens):
        for j, y in enumerate(gens):
            xy = x * y
            for k, ph in enumerate(phis):
                cases += 3
                if E.act(xy, ph, "left") != E.act(x, left[j][k], "left"):
                    failures.append("left associativity fails")
                if E.act(xy, ph, "right") != E.act(y, right[i][k], "right"):
                    failures.append("right associativity fails")
                if E.act(y, left[i][k], "right") != E.act(x, right[j][k], "left"):
                    failures.append("left/right compatibility fails")

    # The simple-reflection generators come first in gens, so row s holds
    # t = gens[s] acting on every phi.
    for s in range(len(G.weyl.s_aff)):
        t = gens[s]
        rel = t * t  # equals -theta tau_ns in H
        for k, ph in enumerate(phis):
            cases += 2
            if E.act(t, left[s][k], "left") != E.act(rel, ph, "left"):
                failures.append(f"quadratic relation on module fails at s={s}")
            if E.act(t, right[s][k], "right") != E.act(rel, ph, "right"):
                failures.append(f"right quadratic relation on module fails at s={s}")
    return _report(ctx, "bimodule", cases, failures, max_len=max_len)


def suite_duality(ctx: Context, max_len_tau: int = 2, max_len_phi: int = 3,
                  samples: int | None = None):
    """pairing(tau . phi . tau', tau'') = pairing(phi, J(tau) tau'' J(tau''));
    exhaustive when samples is None, else seeded random."""
    G, H, E = ctx.group, ctx.hecke, ctx.top
    failures = []
    cases = 0
    taus = basis_elements(G, max_len_tau)
    phis = basis_elements(G, max_len_phi)

    for a, b, c, d in _draws(ctx, (taus, taus, taus, phis), samples):
        cases += 1
        t1, t2, t3, ph = H.tau(a), H.tau(b), H.tau(c), E.phi(d)
        lhs = E.pairing(E.act(t2, E.act(t1, ph, "left"), "right"), t3)
        if lhs != E.pairing(ph, H.J(t1) * t3 * H.J(t2)):
            failures.append(f"adjunction fails at {(a, b, c, d)!r}")
    return _report(
        ctx, "duality", cases, failures, max_len_tau=max_len_tau,
        max_len_phi=max_len_phi, samples=samples,
    )


def suite_trace(ctx: Context, max_len: int | None = None):
    """Both H-actions push through the coordinate-sum trace by the trivial
    character, and the trace is inversion-invariant."""
    G, H, E = ctx.group, ctx.hecke, ctx.top
    max_len = ctx.max_len if max_len is None else max_len
    failures = []
    cases = 0
    gens = _generators(ctx)
    for b in basis_elements(G, max_len):
        ph = E.phi(b)
        cases += 1
        if E.S_d(E.J_top(ph)) != E.S_d(ph):
            failures.append(f"S o J != S at {b!r}")
        for tg in gens:
            cases += 2
            want = H.chi_eval("triv", tg) * E.S_d(ph)
            if E.S_d(E.act(tg, ph, "left")) != want:
                failures.append(f"left trace equivariance fails at {b!r}")
            if E.S_d(E.act(tg, ph, "right")) != want:
                failures.append(f"right trace equivariance fails at {b!r}")
    return _report(ctx, "trace", cases, failures, max_len=max_len)


def suite_decompose(ctx: Context, max_len: int | None = None):
    """The trivial/kernel splitting: projection property, H-stability of
    both summands, and vanishing trace on the kernel.  Raises
    DecompositionUnavailableError when the splitting does not exist."""
    G, H, E = ctx.group, ctx.hecke, ctx.top
    max_len = ctx.max_len if max_len is None else max_len
    failures = []
    cases = 0
    line = E.triv_line()  # raises if Omega is infinite
    if E.S_d(line).is_zero():
        raise DecompositionUnavailableError("|Omega| vanishes in k")
    gens = _generators(ctx)
    for tg in gens:
        for side in ("left", "right"):
            cases += 1
            want = line.scale(H.chi_eval("triv", tg))
            if E.act(tg, line, side) != want:
                failures.append(f"trivial line not stable under {tg!r} on the {side}")
    for b in basis_elements(G, max_len):
        ph = E.phi(b)
        triv, ker = E.decompose(ph)
        cases += 4
        if triv + ker != ph:
            failures.append(f"decompose does not sum back at {b!r}")
        if not E.S_d(ker).is_zero():
            failures.append(f"kernel part has nonzero trace at {b!r}")
        t2, k2 = E.decompose(triv)
        if t2 != triv or not k2.is_zero():
            failures.append(f"decompose not idempotent at {b!r}")
        for tg in gens[: len(G.weyl.s_aff)]:
            if not E.S_d(E.act(tg, ker, "left")).is_zero():
                failures.append(f"kernel not stable at {b!r}")
                break
    return _report(ctx, "decompose", cases, failures, max_len=max_len)


def suite_supersingular(ctx: Context, max_len: int | None = None):
    """Supersingularity audit of the trace-kernel grades: for every grade
    m up to max_len, every length-m class w and every torus character
    (only the nontrivial ones at grade 0), verify the graded
    eigencharacter of e_lambda tau_w on both sides and classify it; every
    verdict must be supersingular.  The report lists one entry per case.

    Requires a semisimple simply connected group with irreducible root
    system, where the trace kernel is exhausted by these classes."""
    G, H = ctx.group, ctx.hecke
    max_len = ctx.max_len if max_len is None else max_len
    om = G.weyl.omega()
    if G.rd.ncomp != 1 or not om.finite or om.order != 1:
        raise ValueError(
            "audit requires a simply connected group with irreducible root system"
        )
    entries = []
    failures = []
    for m in range(max_len + 1):
        for w in G.weyl.elements_of_length(m):
            lift = G.lift_w(w)
            for lam in G.torus_elements():
                if m == 0 and not any(lam):
                    continue  # the trivial-character line, split off separately
                for side in ("left", "right"):
                    entry = {"m": m, "lambda": list(lam), "w": w.to_json(), "side": side}
                    try:
                        char = H.graded_support_char(lam, lift, side)
                        ss = H.classify_character(char).is_supersingular
                        entry["eps"] = list(char.eps)
                        entry["verdict"] = "supersingular" if ss else "NOT-supersingular"
                    except TheoremViolationError as exc:
                        entry["verdict"] = f"eigencheck-failed: {exc}"
                        ss = False
                    if not ss:
                        failures.append(str(entry))
                    entries.append(entry)
    out = _report(ctx, "supersingular", len(entries), failures, max_len=max_len)
    out["entries"] = entries
    return out


# -- combinatorial suites ----------------------------------------------------------


def suite_cosets(ctx: Context, max_len: int | None = None):
    """Support containment of Hecke products in the symbolic coset union,
    the length bounds on that union, and independence of the driving
    reduced word."""
    G, H = ctx.group, ctx.hecke
    max_len = ctx.max_len if max_len is None else max_len
    failures = []
    cases = 0
    basis = basis_elements(G, max_len)
    for v in basis:
        for w in basis:
            cases += 1
            sup = cosets_mod.support_mul(v, w)
            prod = map(G.by_index.__getitem__, H.basis_mul(v, w))
            if not sup.issuperset(prod):
                failures.append(f"Hecke support escapes coset union at ({v!r},{w!r})")
                continue
            lv, lw = v.w.length(), w.w.length()
            for u in sup:
                lu = u.w.length()
                if not (abs(lw - lv) <= lu <= lv + lw):
                    failures.append(f"length bound fails at ({v!r},{w!r},{u!r})")
            if cosets_mod.support_mul(v, w, tie="max") != sup:
                failures.append(f"support depends on word choice at ({v!r},{w!r})")
    return _report(ctx, "cosets", cases, failures, max_len=max_len)


def suite_gprofile(ctx: Context, max_len: int | None = None):
    """Root-filtration profiles: identity baseline, index sum rule,
    monotonicity along length-additive products, one-step growth."""
    G = ctx.group
    wg, rd = G.weyl, G.rd
    max_len = ctx.max_len if max_len is None else max_len
    failures = []
    cases = 0
    gid = cosets_mod.g_profile_identity(rd).values
    if cosets_mod.g_profile(wg.identity()).values != gid:
        failures.append("identity profile wrong")
    cases += 1
    ws = wg.elements_up_to_length(max_len)
    profiles = {w: cosets_mod.g_profile(w).values for w in ws}
    for w in ws:
        cases += 1
        if sum(profiles[w][i] - gid[i] for i in gid) != w.length():
            failures.append(f"sum rule fails at {w!r}")
    for v in ws:
        for w in ws:
            vw = v * w
            if vw.length() != v.length() + w.length() or vw.length() > max_len:
                continue
            cases += 1
            pv, pvw = profiles[v], profiles.get(vw)
            if pvw is None:
                pvw = cosets_mod.g_profile(vw).values
            if any(pvw[i] < pv[i] for i in pv):
                failures.append(f"monotonicity fails at ({v!r},{w!r})")
    for w in ws:
        for si, A in enumerate(wg.s_aff):
            ws_elt = w * wg.aff_gen(si)
            if ws_elt.length() != w.length() + 1:
                continue
            cases += 1
            B = w.act_affine(A)
            pw = profiles[w]
            pws = profiles.get(ws_elt)
            if pws is None:
                pws = cosets_mod.g_profile(ws_elt).values
            for i in pw:
                want = pw[i] + 1 if i == B.root else pw[i]
                if pws[i] != want:
                    failures.append(f"one-step growth fails at ({w!r},s={si})")
                    break
    return _report(ctx, "gprofile", cases, failures, max_len=max_len)


def suite_lemma_even(ctx: Context, max_len: int = 4):
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
    failures = []
    cases = 0
    for w0 in range(wg.order):
        w = wg.elt(w0)
        cases += 1
        N, ok = lemma_even(w)
        if not ok:
            failures.append(f"parity fails at finite element {w!r} (N={N})")
    for w in wg.elements_up_to_length(max_len):
        cases += 1
        N, ok = lemma_even(w)
        omega, _ = w.reduced_word()
        defect_free = wg.length0[omega.w0] % 2 == 0
        if ok != defect_free:
            failures.append(
                f"parity/defect mismatch at {w!r} (N={N}, defect-free={defect_free})"
            )
    return _report(ctx, "lemma_even", cases, failures, max_len=max_len)


def suite_length_oracle(ctx: Context, max_len: int = 6):
    """Closed-form length against the brute-force affine-root scan, length
    of inverses, and constancy on double cosets of the length-zero
    subgroup."""
    wg = ctx.weyl
    failures = []
    cases = 0
    ws = wg.elements_up_to_length(max_len)
    for w in ws:
        cases += 2
        if w.length() != length_bruteforce(w):
            failures.append(f"closed form != scan at {w!r}")
        if w.length() != w.inv().length():
            failures.append(f"length(w) != length(w^-1) at {w!r}")
    omega_elts = wg.omega().window(1)
    for w in ws[: 200]:
        for o1 in omega_elts:
            for o2 in omega_elts:
                cases += 1
                if (o1 * w * o2).length() != w.length():
                    failures.append(f"length not Omega-bi-invariant at {w!r}")
    return _report(ctx, "length_oracle", cases, failures, max_len=max_len)


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
    if name not in _SUITE_FNS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return _SUITE_FNS[name](ctx, **params)
