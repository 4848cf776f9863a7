"""run_suite's size resolution and the report it builds."""

from prophecke.verify import build_context, run_suite


def test_omitted_sizes_come_from_the_context():
    """A size with no default in the suite's signature (max_len, and
    samples in involutions) takes the context's value when omitted or
    None; a size with a default takes the default.  The report's params
    are the sizes the suite ran with."""
    ctx = build_context({"group": "SL2", "field": {"p": 3}, "max_len": 1, "samples": 4})
    implicit = run_suite(ctx, "assoc")
    assert implicit["params"] == {"max_len": 1, "samples": None}
    assert implicit == run_suite(ctx, "assoc", max_len=1)
    inv = run_suite(ctx, "involutions", rand_len=1, samples=None)
    assert inv["params"] == {"max_len": 1, "rand_len": 1, "samples": ctx.samples}
    assert inv == run_suite(ctx, "involutions", max_len=1, rand_len=1, samples=4)
    assert run_suite(ctx, "lemma_even")["params"] == {"max_len": 4}
    assert run_suite(ctx, "idempotents")["params"] == {}


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


def test_sizes_read_the_signature():
    """Parameter names after (ctx, t) in order, with the positional and
    keyword-only defaults each where it belongs."""
    from prophecke.verify import _FROM_CONTEXT, _sizes

    def suite(ctx, t, a, b=1, *, c, d=2):
        pass

    assert _sizes(suite) == {"a": _FROM_CONTEXT, "b": 1, "c": _FROM_CONTEXT, "d": 2}


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
