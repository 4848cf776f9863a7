"""Command-line driver: element arithmetic, verification suites, exports.

Exit codes: 0 success, 1 a verification suite reported failures,
2 unusable input (parse errors, mismatched group/field data, violated
suite preconditions).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import product as iproduct

from . import __version__, cosets
from .propweyl import ProPElt, basis_elements
from .serial import canonical_json, elt_from_json
from .verify import SUITES, build_context, run_suite
from .weyl import ExtAffWeylElt

SEED_ENV = "PROPHECKE_SEED"


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(ctx, payload: dict, out: str | None):
    """Every command's JSON output: payload with the context's config and
    the package version added, as canonical JSON, to the file out or to
    stdout."""
    payload.update(config=ctx.config, version=__version__)
    text = canonical_json(payload)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_seed(args, config) -> str:
    """Set config's seed from the --seed flag, else from the environment,
    and return where the seed came from; with neither, the config's own
    seed (or the context's default) stands."""
    if args.seed is not None:
        config["seed"] = args.seed
        return "flag"
    if SEED_ENV in os.environ:
        value = os.environ[SEED_ENV]
        try:
            config["seed"] = int(value)
        except ValueError:
            raise ValueError(f"{SEED_ENV} must be an integer, got {value!r}") from None
        return f"env:{SEED_ENV}"
    return "config"


def _context_from_args(args):
    config = _load_json(args.config)
    if not isinstance(config, dict):
        raise ValueError(f"config must be a JSON object, got {config!r}")
    seed_source = _resolve_seed(args, config)
    if args.max_len is not None:
        config["max_len"] = args.max_len
    if args.samples is not None:
        config["samples"] = args.samples
    ctx = build_context(config)
    ctx.config["seed_source"] = seed_source
    return ctx


def cmd_mul(args) -> int:
    ctx = _context_from_args(args)
    a = _load_json(args.a)
    b = _load_json(args.b)
    if args.algebra == "hecke":
        x = elt_from_json(ctx.hecke, a)
        y = elt_from_json(ctx.hecke, b)
        result = (x * y).to_json()
    else:
        x = ProPElt.from_json(ctx.group, a)
        y = ProPElt.from_json(ctx.group, b)
        result = ctx.group.mul(x, y).to_json()
    _emit(ctx, {"algebra": args.algebra, "result": result}, args.out)
    return 0


def cmd_verify(args) -> int:
    ctx = _context_from_args(args)
    params = {}
    if args.max_len is not None:
        params["max_len"] = args.max_len
    if args.samples is not None:
        params["samples"] = args.samples
    report = run_suite(ctx, args.suite, **params)
    if args.json or args.out:
        _emit(ctx, report, args.out)
    else:
        status = "PASS" if not report["failures"] else "FAIL"
        sys.stdout.write(
            f"{report['suite']}: {status} ({report['cases']} cases, "
            f"{len(report['failures'])} failures, seed {report['seed']})\n"
        )
        for f in report["failures"][:50]:
            sys.stdout.write(f"  {f}\n")
    return 0 if not report["failures"] else 1


def _export_payload(ctx, what: str, max_len: int):
    G, H, E = ctx.group, ctx.hecke, ctx.top
    if what == "hecke_table":
        basis = basis_elements(G, max_len)
        rows = []
        for v in basis:
            for w in basis:
                prod = H.mul(H.tau(v), H.tau(w))
                rows.append(
                    {"v": v.to_json(), "w": w.to_json(), "product": prod.to_json()["terms"]}
                )
        return {"rows": rows, "basis_size": len(basis)}
    if what == "topmod_table":
        basis = basis_elements(G, max_len)
        gens = [("n_s", s, H.tau(G.lift_s(s))) for s in range(len(G.weyl.s_aff))]
        rows = []
        for u in basis:
            ph = E.phi(u)
            for kind, s, tg in gens:
                for side in ("left", "right"):
                    rows.append(
                        {
                            "phi": u.to_json(),
                            "gen": {"kind": kind, "s": s},
                            "side": side,
                            "result": E.act(tg, ph, side).to_json()["terms"],
                        }
                    )
        return {"rows": rows, "basis_size": len(basis)}
    if what == "omega":
        om = ctx.weyl.omega()
        out = {
            "finite": om.finite,
            "invariants": list(om.invariants),
        }
        if om.finite:
            out["order"] = om.order
            out["elements"] = [w.to_json() for w in om.elements]
        else:
            out["generators"] = [w.to_json() for w in om.generators]
        return out
    if what == "characters":
        lams = G.torus_elements()
        n_aff = len(G.weyl.s_aff)
        rows = []
        for lam in lams:
            for eps in iproduct((0, -1), repeat=n_aff):
                if H.is_character(lam, eps):
                    rows.append({"lambda": list(lam), "eps": list(eps),
                                 "class": H.classify_character(lam, eps)})
        return {"rows": rows, "torus_characters": len(lams)}
    raise ValueError(f"unknown export {what!r}")


def cmd_export(args) -> int:
    ctx = _context_from_args(args)
    payload = _export_payload(ctx, args.what, ctx.max_len)
    payload["what"] = args.what
    _emit(ctx, payload, args.out)
    return 0


def cmd_coset(args) -> int:
    ctx = _context_from_args(args)
    if args.action == "support":
        if args.b is None:
            raise ValueError("coset support needs two element files")
        v = ProPElt.from_json(ctx.group, _load_json(args.a))
        w = ProPElt.from_json(ctx.group, _load_json(args.b))
        sup = cosets.support_mul(v, w)
        payload = {
            "classes": [x.to_json() for x in sorted(sup, key=ProPElt.sort_key)],
            "count": len(sup),
            "index_v": cosets.index(ctx.group, v),
            "index_w": cosets.index(ctx.group, w),
        }
    else:  # profile
        if args.b is not None:
            raise ValueError(f"coset profile takes one element file, got a second: {args.b}")
        w = ExtAffWeylElt.from_json(ctx.weyl, _load_json(args.a))
        payload = {
            "g": {str(list(ctx.rd.roots[i])): g for i, g in cosets.g_profile(w).items()},
            "length": w.length(),
            "sum_check": cosets.g_profile_sum_check(w),
        }
    _emit(ctx, payload, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="prophecke",
        description="exact pro-p Iwahori-Hecke algebra toolkit",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="run configuration JSON")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--max-len", dest="max_len", type=int, default=None)
        sp.add_argument("--samples", type=int, default=None)
        sp.add_argument("--out", default=None)

    mp = sub.add_parser("mul", help="multiply two elements")
    common(mp)
    mp.add_argument("--algebra", choices=("hecke", "propweyl"), default="hecke")
    mp.add_argument("a")
    mp.add_argument("b")
    mp.set_defaults(func=cmd_mul)

    vp = sub.add_parser("verify", help="run a verification suite")
    common(vp)
    vp.add_argument("--json", action="store_true", help="print the report as JSON")
    vp.add_argument("suite", choices=SUITES)
    vp.set_defaults(func=cmd_verify)

    ep = sub.add_parser("export", help="export deterministic tables")
    common(ep)
    ep.add_argument(
        "what", choices=("hecke_table", "topmod_table", "omega", "characters")
    )
    ep.set_defaults(func=cmd_export)

    cp = sub.add_parser("coset", help="double-coset supports and profiles")
    common(cp)
    cp.add_argument("action", choices=("support", "profile"))
    cp.add_argument("a", help="element JSON (pro-p for support, Weyl for profile)")
    cp.add_argument("b", nargs="?", default=None)
    cp.set_defaults(func=cmd_coset)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; propagate others
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # json.JSONDecodeError and the package's input errors are
        # ValueErrors; a TheoremViolationError propagates.
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
