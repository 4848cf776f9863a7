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
