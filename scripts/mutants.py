"""Mutation check: every listed mutant of src/ must fail a fast test subset.

Each mutant is an exact string replacement in one module.  For each, the
script copies src/ to a temporary directory, applies the replacement
there (never in the working tree), and runs SUBSET against the copy with
pytest -x.  A mutant survives when the subset passes on it; the script
then exits 1.  It exits 2 when the subset fails on the unmutated copy or
a mutant's text no longer occurs exactly once, since either makes the
check meaningless.

    python3 scripts/mutants.py

This is not part of tier-1: it runs the subset once per mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Tier-1 tests that kill every mutant below, chosen for speed.
SUBSET = [
    "tests/test_weyl.py::test_omega_groups",
    "tests/test_weyl.py::test_omega_is_exact",
    "tests/test_weyl.py::test_omega_is_exact_after_a_row_repivot",
    "tests/test_weyl.py::test_smith_normal_form_repivots",
    "tests/test_weyl.py::test_scan_root_matches_a_wide_window",
    "tests/test_weyl.py::test_construction_check_measures_every_box_element",
    "tests/test_weyl.py::test_construction_check_catches_one_wrong_length",
    "tests/test_weyl.py::test_length_and_reduced_word_memoised_on_element",
    "tests/test_weyl.py::test_reduced_word_rejects_an_unknown_tie",
    "tests/test_gf.py::test_arithmetic_rejects_a_foreign_field",
    "tests/test_gf.py::test_elt_takes_an_element_of_an_equal_field",
    "tests/test_gf.py::test_tables_match_polynomial_oracle[5-1-None]",
    "tests/test_gf.py::test_tables_match_polynomial_oracle[3-2-None]",
    "tests/test_gf.py::test_tables_match_polynomial_oracle[2-4-None]",
    "tests/test_gf.py::test_is_irreducible_at_degrees_one_and_two",
    "tests/test_cosets.py::test_support_rejects_an_unknown_tie",
    "tests/test_verify.py::test_omitted_sizes_come_from_the_context",
    "tests/test_verify.py::test_context_echoes_the_resolved_config",
    "tests/test_hecke.py::test_basis_mul_memo_hit_checks_the_group",
    "tests/test_weyl.py::test_malformed_element_rejected",
    "tests/test_propweyl.py::test_weyl_element_of_another_group_rejected",
    "tests/test_propweyl.py::test_torus_listing_bounded",
    "tests/test_hecke.py::test_elements_own_their_terms",
    "tests/test_hecke.py::test_classify_character",
    "tests/test_hecke.py::test_affine_character_invariant",
    "tests/test_hecke.py::test_foreign_operand_rejected",
    "tests/test_hecke.py::test_classify_per_component",
    "tests/test_hecke.py::test_e_lambda_matches_negated_sum",
    "tests/test_hecke.py::test_graded_support_char_checks_the_reflections",
    "tests/test_propweyl.py::test_coroot_image_matches_scan",
    "tests/test_propweyl.py::test_reflection_lift_matches_height_recursion",
    "tests/test_propweyl.py::test_bad_letter_rejected",
    "tests/test_propweyl.py::test_step_and_peel_match_definition[SL3]",
    "tests/test_propweyl.py::test_step_and_peel_repeat_from_the_tables",
    "tests/test_propweyl.py::test_memo_hit_checks_the_group",
    "tests/test_propweyl.py::test_step_rejects_what_a_miss_rejects",
    "tests/test_propweyl.py::test_peel_rejects_length_zero",
    "tests/test_gf.py::test_is_irreducible_trims_trailing_zeros",
    "tests/test_object_oracle.py",
    "tests/test_topmod.py::test_bimodule_catches_broken_actions",
    "tests/test_topmod.py::test_bimodule_on_pgl2xpgl2",
    "tests/test_topmod.py::test_triv_line_matches_omega_listing",
    "tests/test_suite_faults.py",
    "tests/test_cosets.py::test_support_keeps_no_memo",
    "tests/test_cosets.py::test_support_of_a_length_20_word",
    "tests/test_hecke.py::test_chi_lambda_reads_the_point_as_a_torus_vector",
    "tests/test_hecke.py::test_conj_char_rejects_a_foreign_weyl_element",
    "tests/test_table_digests.py::test_explicit_datum_digest",
    "tests/test_table_digests.py::test_export_digest",
    "tests/test_hecke.py::test_iota",
    "tests/test_hecke.py::test_conjugation_rule",
    "tests/test_hecke_routes.py",
    "tests/test_topmod.py::test_length_zero_base_cases_are_not_memoised[SL2]",
]

# (name, module under src/prophecke, exact text, replacement)
MUTANTS = [
    ("accumulate ignores c", "hecke.py",
     "    row, add = field._mul[c], field._add\n",
     "    row, add = field._mul[1], field._add\n"),
    ("right action recursion coefficient is 1", "topmod.py",
     "accumulate(result, self._apply_gen(s, elts[v], side), c, field)",
     "accumulate(result, self._apply_gen(s, elts[v], side), 1, field)"),
    ("smith form drops the U^-1 row swap", "weyl.py",
     "            for row in uinv:\n                row[r], row[i] = row[i], row[r]\n",
     ""),
    ("smith form drops the U^-1 row update", "weyl.py",
     "                    for row in uinv:\n                        row[r] += q * row[i]\n",
     ""),
    ("omega keeps g over min(g, g^-1)", "weyl.py",
     "gens.append(min(g, g.inv(), key=key))",
     "gens.append(g)"),
    ("omega generators unsorted", "weyl.py",
     "OmegaGroup(weyl, False, invariants, [], sorted(gens, key=key))",
     "OmegaGroup(weyl, False, invariants, [], gens)"),
    ("act returns the memo's dict", "topmod.py",
     "        out: dict = {}\n        for y, cy in tau.terms.items():\n",
     "        out: dict = {}\n"
     "        if len(tau.terms) == len(x.terms) == 1 and"
     " {*tau.terms.values(), *x.terms.values()} == {1}:\n"
     "            return TopElt(self, self._act_basis("
     "elts[next(iter(tau.terms))], elts[next(iter(x.terms))], side))\n"
     "        for y, cy in tau.terms.items():\n"),
    ("SparseSpace.elt keeps zeros", "hecke.py",
     "            if i:\n                out[g.index] = i\n",
     "            out[g.index] = i\n"),
    ("inverted skips the operand check", "hecke.py",
     "        self.own(x)\n        elts = self.group.by_index\n        return self.element(",
     "        elts = self.group.by_index\n        return self.element("),
    ("scale without its zero case", "hecke.py",
     "        if not c:\n            return type(self)(self.space, {})\n        row = ",
     "        row = "),
    ("apply_gen drops the left translates", "topmod.py",
     "        return {moved.index: 1, **{t.index: mu_c for t in translates}}\n",
     "        if side == \"left\":\n            return {moved.index: 1}\n"
     "        return {moved.index: 1, **{t.index: mu_c for t in translates}}\n"),
    ("apply_gen drops the right translates", "topmod.py",
     "        return {moved.index: 1, **{t.index: mu_c for t in translates}}\n",
     "        if side == \"right\":\n            return {moved.index: 1}\n"
     "        return {moved.index: 1, **{t.index: mu_c for t in translates}}\n"),
    ("right ascent does not annihilate", "topmod.py",
     "        if not translates:\n            return {}\n",
     "        if not translates:\n"
     "            return {moved.index: 1} if side == \"right\" else {}\n"),
    ("act_basis base case multiplies on the left on both sides", "topmod.py",
     "return (g.mul(y, u) if side == \"left\" else g.mul(u, y)).unit",
     "return g.mul(y, u).unit"),
    ("support_mul base case returns w", "cosets.py",
     "out.add(group.mul(v, w))",
     "out.add(w)"),
    ("support walk skips the translates", "cosets.py",
     "    for u in translates:\n        _collect(vp, u, tie, out)\n",
     ""),
    ("support walk drops moved", "cosets.py",
     "    _collect(vp, moved, tie, out)\n",
     ""),
    ("_Tally.check ignores ok", "verify.py",
     "        self.cases += 1\n        if not ok:\n",
     "        self.cases += 1\n        if False:\n"),
    ("closure adds the expansion step", "rootdata.py",
     "img_e = e[:j] + (e[j] - k,) + e[j + 1:]",
     "img_e = e[:j] + (e[j] + k,) + e[j + 1:]"),
    ("g_profile drops the delta(alpha) bound", "cosets.py",
     "max(neg[i], neg[perm[i]] + dot(mu, alpha))",
     "neg[perm[i]] + dot(mu, alpha)"),
    ("g_profile drops delta(w0' alpha)", "cosets.py",
     "max(neg[i], neg[perm[i]] + dot(mu, alpha))",
     "max(neg[i], dot(mu, alpha))"),
    ("lowest root by greatest height", "rootdata.py",
     "low = min(heights.values())",
     "low = max(heights.values())"),
    ("smith form drops the row re-pivot flag", "weyl.py",
     "                    if A[i][c]:\n                        clean = False\n",
     ""),
    ("smith form drops the column re-pivot flag", "weyl.py",
     "                    if A[r][j]:\n                        clean = False\n",
     ""),
    ("words0 by the max tie", "weyl.py",
     "self.elt(i).reduced_word()[1]",
     "self.elt(i).reduced_word(\"max\")[1]"),
    ("components are all supports", "rootdata.py",
     "{s for s in supports if not any(s < t for t in supports)}",
     "set(supports)"),
    ("twisted trivial ignores the torus character", "hecke.py",
     "self._lam_trivial_on_image(lam, j)",
     "True"),
    ("validity accepts eps = -1 on a nontrivial coroot image", "hecke.py",
     "v == 0 or v == -1 and self._lam_trivial_on_image(lam, A.root)",
     "v == 0 or v == -1"),
    ("|mu| without q - 1", "propweyl.py",
     "mu_size = gcd(self.qm1, *self.rd.coroots[root_index])",
     "mu_size = gcd(*self.rd.coroots[root_index])"),
    ("theta reads |mu| unnegated", "hecke.py",
     "c = self.field._neg[self.mu_coeff[s]]",
     "c = self.mu_coeff[s]"),
    ("reflection_lift conjugates through the first generator", "propweyl.py",
     "beta = wg.root_perm[wg.gen_index[k]][root_index]",
     "beta = wg.root_perm[wg.gen_index[0]][root_index]"),
    ("triv_line sums phi up to length 1", "topmod.py",
     "basis_elements(self.group, 0)",
     "basis_elements(self.group, 1)"),
    ("e_lambda multiplies by lambda(t)", "hecke.py",
     "sign / self.chi_lambda(lam, t)",
     "sign * self.chi_lambda(lam, t)"),
    ("letter check off by one", "weyl.py",
     "_is_int(s) and 0 <= s < letters",
     "_is_int(s) and 0 <= s <= letters"),
    ("aff_gen skips the letter check", "weyl.py",
     "return self._aff_gen[self.letter(i)]",
     "return self._aff_gen[i]"),
    ("simple_reflection indexes gen_index unchecked", "weyl.py",
     "return self.from_word((i,))",
     "return self.elt(self.gen_index[i])"),
    ("from_word takes a word that is not a list", "weyl.py",
     "if not isinstance(w0_word, (list, tuple)):",
     "if False:"),
    ("eigencheck drops the reflection probes", "hecke.py",
     "        probes += [(g.lift_s(i), self.field.from_int(e),"
     " f\"reflection eigenvalue fails at s={i}\")\n"
     "                   for i, e in enumerate(eps)]\n",
     ""),
    ("length check memo drops the image's positivity", "weyl.py",
     "key = (src, img, shift)",
     "key = (src, shift)"),
    ("length check flips the shift's sign", "weyl.py",
     "[-dot(mu, alpha) for alpha in self.rd.roots]",
     "[dot(mu, alpha) for alpha in self.rd.roots]"),
    ("length check skips the box's first translation", "weyl.py",
     "for mu, mu_shifts in shifts:",
     "for mu, mu_shifts in shifts[1:]:"),
    ("length check never raises", "weyl.py",
     "if w.length() != scan:",
     "if w.length() != scan and False:"),
    ("root scan window fixed at |h| <= 3", "weyl.py",
     "bound = abs(shift) + 1",
     "bound = 3"),
    ("word memo keyed without the tie", "weyl.py",
     "key = (self, tie)",
     "key = self"),
    ("FieldElt arithmetic skips the field check", "gf.py",
     "if other.field is not self.field and other.field != self.field:",
     "if False:"),
    ("torus bound off by one", "propweyl.py",
     "if size > _MAX_TORUS:",
     "if size >= _MAX_TORUS:"),
    ("an omitted size takes the built-in default, not the context's", "verify.py",
     "getattr(ctx, p)",
     "{\"max_len\": 3, \"samples\": 1000}[p]"),
    ("involutions' omitted samples run exhaustively", "verify.py",
     "samples: int = _FROM_CONTEXT)",
     "samples: int | None = None)"),
    ("a _FROM_CONTEXT default reaches the suite unresolved", "verify.py",
     "value = getattr(ctx, p) if default is _FROM_CONTEXT else default",
     "value = default"),
    ("the Context echo drops samples", "verify.py",
     "\"max_len\": self.max_len, \"samples\": self.samples}",
     "\"max_len\": self.max_len}"),
    ("params echo the caller's sizes", "verify.py",
     "\"params\": sizes,",
     "\"params\": params,"),
    ("reduced_word takes any tie", "weyl.py",
     "if tie not in (\"min\", \"max\"):",
     "if False:"),
    ("FieldSpec.elt reads a foreign field's index", "gf.py",
     "return self._elts[self.zero()._index(coeffs)]",
     "return self._elts[coeffs.i]"),
    ("addition gathers through the next digit's step row", "gf.py",
     "else y + s for y in range(n)))",
     "else y + s for y in range(n) for s in [p ** ((j + 1) % m)]))"),
    ("multiplication walk stores each row one power late", "gf.py",
     "row = mul[e] = list(times_g(row))",
     "mul[e], row = row, list(times_g(row))"),
    ("negation reads the row of 1", "gf.py",
     "self._neg = mul[p - 1]",
     "self._neg = mul[1]"),
    ("zero-constant rule fires at degree 1", "gf.py",
     "if deg >= 2 and poly[0] == 0:",
     "if deg >= 1 and poly[0] == 0:"),
    ("support_mul takes any tie", "cosets.py",
     "if tie not in (\"min\", \"max\"):",
     "if False:"),
    ("step memo read without the side", "propweyl.py",
     "hit = self._steps[side][s][y.index]",
     "hit = self._steps[\"left\"][s][y.index]"),
    ("peel memo read without the tie", "propweyl.py",
     "hit = self._peels[tie][x.index]",
     "hit = self._peels[\"min\"][x.index]"),
    ("step hit skips the group check", "propweyl.py",
     "            if y.group is self:\n                return hit\n",
     "            return hit\n"),
    ("peel hit skips the group check", "propweyl.py",
     "            if x.group is self:\n                return hit\n",
     "            return hit\n"),
    ("step stores a descent as an ascent", "propweyl.py",
     "self._steps[side][s][y.index] = result\n",
     "self._steps[side][s][y.index] = result[0], ()\n"),
    ("step takes any side", "propweyl.py",
     "if side not in (\"left\", \"right\"):",
     "if False:"),
    ("peel takes a length-zero element", "propweyl.py",
     "        if not word:\n",
     "        if False:\n"),
    ("step takes a bool letter", "propweyl.py",
     "if type(s) is not int or not 0 <= s < self._letters:",
     "if not 0 <= s < self._letters:"),
    ("conj_char takes a foreign element", "hecke.py",
     "        if w.group is not g.weyl:\n",
     "        if False:\n"),
    ("chi_lambda reads t unchecked", "hecke.py",
     "dot(g.torus(lam), g.torus(t))",
     "dot(g.torus(lam), t)"),
    ("is_irreducible reads the untrimmed degree", "gf.py",
     "poly = _poly_trim(c % p for c in poly)",
     "poly = [c % p for c in poly]"),
    ("e route acts by v instead of v^-1", "hecke.py",
     "            pv = perm[v.w0]\n",
     "            pv = perm[self.group.weyl.inv0[v.w0]]\n"),
    ("e route drops (-1)^rank", "hecke.py",
     "idem = [[sign[zeta[-e % qm1]] for e in row] for row in expo]",
     "idem = [[zeta[-e % qm1] for e in row] for row in expo]"),
    ("e route reads the constant of (w, v)", "hecke.py",
     "                u, c = self._e_const(v, w)\n",
     "                u, c = self._e_const(w, v)\n"),
    ("e transform uses lam(t)^-1", "hecke.py",
     "zip(out.get(e.w, zero), vals[pos[e.t]])",
     "zip(out.get(e.w, zero), vals[pos[self.group._t_neg(e.t)]])"),
    ("e route ignores the torus bound", "hecke.py",
     "if nx > n and ny > n and n <= _MAX_TORUS and",
     "if nx > n and ny > n and"),
    ("accumulate's empty path copies terms at every c", "hecke.py",
     "    if c == 1 and not out:\n",
     "    if not out:\n"),
    ("_scaled_combine's one-term read ignores side", "verify.py",
     "            return prods\n",
     "            return H.basis_mul(elts[u], other)\n"),
    ("right action reads the left memo rows", "topmod.py",
     "rows = self._act_cache[side]",
     "rows = self._act_cache[\"left\"]"),
    ("run_suite ignores a signature default", "verify.py",
     "else default\n",
     "else None\n"),
    ("annihilated action stored as a fresh dict", "topmod.py",
     "            result = _EMPTY\n",
     "            result = {}\n"),
    ("a basis_mul hit skips the group check", "hecke.py",
     "if cached is not None and x.group is g and y.group is g:",
     "if cached is not None:"),
    ("WeylGroup.elt accepts a short mu", "weyl.py",
     "_int_vector(mu, self.rank)",
     "_int_vector(mu, len(mu))"),
    ("lift_omega skips the group check", "propweyl.py",
     "        if w.group is not self.weyl:\n"
     "            raise GroupMismatchError(\"Weyl element from a different group\")\n"
     "        if w.length() != 0:\n",
     "        if w.length() != 0:\n"),
]


def run_subset(src: Path) -> tuple[bool, str]:
    """True when SUBSET passes against the package under src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *SUBSET],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode == 0, lines[-1] if lines else proc.stderr.strip()[-200:]


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="prophecke-mutants-") as tmp:
        ok, tail = run_subset(ROOT / "src")
        if not ok:
            print(f"subset fails on the unmutated source: {tail}")
            return 2
        survivors = []
        for name, module, old, new in MUTANTS:
            copy = Path(tmp) / "src"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
            path = copy / "prophecke" / module
            text = path.read_text()
            if text.count(old) != 1:
                print(f"mutant {name!r}: its text occurs {text.count(old)} times in {module}")
                return 2
            path.write_text(text.replace(old, new))
            t0 = time.perf_counter()
            survived, tail = run_subset(copy)
            verdict = "SURVIVED" if survived else "killed"
            print(f"{verdict:8}  {name}  ({time.perf_counter() - t0:.1f} s; {tail})")
            if survived:
                survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)}/{len(MUTANTS)} mutants killed"
          f" in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
