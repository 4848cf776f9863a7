"""run_suite's size resolution, the context and the report it builds."""

import inspect

import pytest

from prophecke.verify import _FROM_CONTEXT, _SUITE_FNS, SUITES, Context, build_context, run_suite


def test_omitted_sizes_come_from_the_context():
    """A size whose keyword default is _FROM_CONTEXT (max_len, and
    samples in involutions) takes the context's value when omitted or
    None; any other size takes its default.  The report's params are the
    sizes the suite ran with."""
    ctx = build_context({"group": "SL2", "field": {"p": 3}, "max_len": 1, "samples": 4})
    implicit = run_suite(ctx, "assoc")
    assert implicit["params"] == {"max_len": 1, "samples": None}
    assert implicit == run_suite(ctx, "assoc", max_len=1)
    inv = run_suite(ctx, "involutions", rand_len=1, samples=None)
    assert inv["params"] == {"max_len": 1, "rand_len": 1, "samples": ctx.samples}
    assert inv == run_suite(ctx, "involutions", max_len=1, rand_len=1, samples=4)
    assert run_suite(ctx, "lemma_even")["params"] == {"max_len": 4}
    assert run_suite(ctx, "idempotents")["params"] == {}


def test_suites_take_every_size_as_a_keyword_with_a_default():
    """Every suite takes (ctx, t) positionally and each size keyword-only
    with a default, so its __kwdefaults__, in signature order, is its
    size table; exactly the sizes the config sets default to the context."""
    from_context = set()
    for name, fn in _SUITE_FNS.items():
        params = list(inspect.signature(fn).parameters.values())
        positional = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty
        assert [(p.name, p.kind, p.default) for p in params[:2]] == [
            ("ctx", *positional), ("t", *positional)], name
        sizes = params[2:]
        assert all(p.kind is p.KEYWORD_ONLY and p.default is not p.empty for p in sizes), name
        assert list((fn.__kwdefaults__ or {}).items()) == [(p.name, p.default) for p in sizes]
        from_context |= {(name, p.name) for p in sizes if p.default is _FROM_CONTEXT}
    assert from_context == {(name, "max_len") for name in (
        "assoc", "matsumoto", "involutions", "bimodule", "trace", "decompose",
        "supersingular", "cosets", "gprofile")} | {("involutions", "samples")}


def test_context_echoes_the_resolved_config():
    """Context(config) fills every default once: the echo holds the
    datum, the field, the seed and both default sizes, and build_context
    is the same constructor."""
    assert build_context is Context
    ctx = Context({})
    assert (ctx.seed, ctx.max_len, ctx.samples) == (0, 3, 1000)
    assert ctx.config == {"group": {"preset": "SL2"}, "field": {"p": 3, "f": 1, "m": 1,
                                                                "poly": [0, 1]},
                          "seed": 0, "max_len": 3, "samples": 1000}
    ctx = Context({"group": "SL3", "seed": 4, "max_len": 1, "samples": 7})
    assert ctx.config == {"group": {"preset": "SL3"}, "field": ctx.field.to_json(),
                          "seed": 4, "max_len": 1, "samples": 7}


def test_run_suite_rejects_an_unknown_suite():
    ctx = build_context({})
    with pytest.raises(ValueError, match="unknown suite 'nope'") as err:
        run_suite(ctx, "nope")
    assert str(SUITES) in str(err.value)


def test_report_holds_the_context_and_the_suite_extras():
    """Every report names the suite, the context's group, field and seed;
    supersingular adds its entries, one per case."""
    ctx = build_context({"group": "SL2", "field": {"p": 3}, "seed": 5})
    rep = run_suite(ctx, "supersingular", max_len=1)
    assert set(rep) == {"suite", "group", "field", "seed", "params", "cases", "failures",
                        "entries"}
    assert (rep["suite"], rep["seed"]) == ("supersingular", 5)
    assert rep["group"] == ctx.rd.to_json() and rep["field"] == ctx.field.to_json()
    assert len(rep["entries"]) == rep["cases"] > 0 and not rep["failures"]
    assert set(run_suite(ctx, "trace", max_len=0)) == set(rep) - {"entries"}


def _hand_counts(ctx) -> dict:
    """Every memo's entries, counted one key at a time."""
    wg, G, H, E = ctx.weyl, ctx.group, ctx.hecke, ctx.top
    return {
        "weyl": {"length": len(list(wg._len_cache)),
                 "reduced_word": len(list(wg._word_cache))},
        "propweyl": {
            "step": len([(side, s, y) for side, tables in G._steps.items()
                         for s, table in enumerate(tables) for y in table]),
            "peel": len([(tie, x) for tie, table in G._peels.items() for x in table]),
            "torus_action": len([(w0, t) for w0, table in enumerate(G._torus_actions)
                                 for t in table]),
            "elements": len(G._interned)},
        "hecke": {"basis_mul": len([(x, y) for x, row in H._mul_cache.items() for y in row]),
                  "iota": len(list(H._iota_cache)), "e_const": len(list(H._e_consts))},
        "topmod": {"act": len([(side, y, u) for side, rows in E._act_cache.items()
                               for y, row in rows.items() for u in row])},
    }


def test_stats_count_every_memo_entry():
    """stats() of each layer equals the hand count of its memos after a
    run that fills them all, and a second identical run leaves it as it
    was: every answer is then a memo hit."""
    ctx = build_context({"group": "SL2", "field": {"p": 3}, "max_len": 2, "samples": 20})

    def stats():
        return {"weyl": ctx.weyl.stats(), "propweyl": ctx.group.stats(),
                "hecke": ctx.hecke.stats(), "topmod": ctx.top.stats()}

    def run():
        for suite in ("assoc", "involutions", "bimodule", "cosets"):
            assert run_suite(ctx, suite)["failures"] == [], suite

    run()
    first = stats()
    assert first == _hand_counts(ctx)
    assert all(n > 0 for layer in first.values() for n in layer.values()), first
    run()
    assert stats() == first
