"""Command-line driver: arithmetic, verification, exports, exit codes."""

import hashlib
import json
import os
import time

import pytest

from prophecke import cli
from prophecke.cli import main
from prophecke.errors import TheoremViolationError
from prophecke.rootdata import _generate

from conftest import GL3_SHIFTED_COROOTS

SL2_CFG = {"group": {"preset": "SL2"}, "field": {"p": 3, "f": 1, "m": 1}, "seed": 0}
# Simply connected A4: |W0| = 120, past the bound on the finite Weyl group.
A4_SC = _generate(
    4, [(2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2)],
    [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], None,
).to_json()
TAUS = {
    "terms": [
        {"coeff": [1], "elt": {"torus": [0], "w": {"w0_word": [0], "mu": [0]}}}
    ]
}


@pytest.fixture()
def cfg(tmp_path):
    path = tmp_path / "sl2_q3.json"
    path.write_text(json.dumps(SL2_CFG))
    return str(path)


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_mul_quadratic_example(tmp_path, cfg, capsys):
    taus = _write(tmp_path, "taus.json", TAUS)
    rc = main(["mul", "--config", cfg, taus, taus])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert len(out["result"]["terms"]) == 2


def test_mul_identity(tmp_path, cfg, capsys):
    one = {
        "terms": [
            {"coeff": [1], "elt": {"torus": [0], "w": {"w0_word": [], "mu": [0]}}}
        ]
    }
    a = _write(tmp_path, "one.json", one)
    taus = _write(tmp_path, "taus.json", TAUS)
    rc = main(["mul", "--config", cfg, a, taus])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["result"] == TAUS


def test_mul_propweyl(tmp_path, cfg, capsys):
    elt = {"torus": [0], "w": {"w0_word": [0], "mu": [0]}}
    a = _write(tmp_path, "a.json", elt)
    rc = main(["mul", "--config", cfg, "--algebra", "propweyl", a, a])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["result"] == {"torus": [1], "w": {"w0_word": [], "mu": [0]}}


def test_mul_rejects_phi_tagged_input(tmp_path, cfg, capsys):
    phi = _write(tmp_path, "phi.json", {"basis": "phi", **TAUS})
    taus = _write(tmp_path, "taus.json", TAUS)
    assert main(["mul", "--config", cfg, phi, taus]) == 2
    err = capsys.readouterr().err
    assert "'phi'" in err


def test_mul_bad_input_exits_2(tmp_path, cfg, capsys):
    bad = _write(tmp_path, "bad.json", {"terms": [{"coeff": [1], "elt": {"torus": [0, 0], "w": {"w0_word": [5], "mu": [0]}}}]})
    taus = _write(tmp_path, "taus.json", TAUS)
    assert main(["mul", "--config", cfg, bad, taus]) == 2
    assert main(["mul", "--config", cfg, "/does/not/exist.json", taus]) == 2
    not_an_object = _write(tmp_path, "list.json", [TAUS])
    assert main(["mul", "--config", cfg, not_an_object, taus]) == 2


def _term(coeff=(1,), torus=(0,), word=(0,), mu=(0,)):
    w = {"w0_word": list(word), "mu": list(mu)}
    return {"coeff": coeff if isinstance(coeff, str) else list(coeff),
            "elt": {"torus": list(torus), "w": w}}


@pytest.mark.parametrize(
    "element,name",
    [
        ({"terms": 5}, "element terms"),
        ({"terms": [{"coeff": [1]}]}, '"coeff" and "elt"'),
        ({"terms": [_term(coeff="x")]}, "term coeff"),
        ({"terms": [_term(mu=(0, 0))]}, "element mu"),
        ({"terms": [_term(word=(5,))]}, "element w0_word"),
        ({"terms": [_term(torus=(0, 0))]}, "element torus"),
        ({"terms": [{"coeff": [1], "elt": {"torus": [0]}}]}, '"w" field'),
    ],
)
def test_mul_malformed_element_names_the_field(tmp_path, cfg, capsys, element, name):
    from prophecke import make_context
    from prophecke.serial import elt_from_json

    with pytest.raises(ValueError, match=name):
        elt_from_json(make_context("SL2", 3).hecke, element)
    bad = _write(tmp_path, "bad.json", element)
    taus = _write(tmp_path, "taus.json", TAUS)
    assert main(["mul", "--config", cfg, bad, taus]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err


@pytest.mark.parametrize(
    "field,name",
    [
        ({"p": 3, "m": 2, "poly": [1, 0.5, 1]}, "field poly"),
        ({"p": "3"}, "field p"),
        ({"p": 5, "f": None}, "field f"),
        ({"f": 1}, "field p"),
        ([3], "field must be a JSON object"),
        ({"p": 2**61 - 1}, "exceeds desk scale"),
        ({"p": 2, "m": 10**9}, "exceeds desk scale"),
        ({"p": 2, "m": 13}, "exceeds desk scale"),
    ],
)
def test_malformed_field_exits_2_naming_it(tmp_path, capsys, field, name):
    cfg = _write(tmp_path, "bad_field.json", {"group": "SL2", "field": field})
    assert main(["verify", "assoc", "--config", cfg, "--max-len", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err


@pytest.mark.parametrize(
    "config,name",
    [
        ({"seed": "x"}, "config seed"),
        ({"seed": 1.5}, "config seed"),
        ({"seed": True}, "config seed"),
        ({"max_len": "2"}, "config max_len"),
        ({"max_len": -1}, "config max_len"),
        ({"samples": 2.0}, "config samples"),
        ({"samples": False}, "config samples"),
        ({"group": 5}, "group must be"),
        ({"group": []}, "group must be"),
        ({"group": {"preset": ["SL2"]}}, "unknown preset"),
        ({"group": {"rank": 2}}, "group roots"),
        ([SL2_CFG], "config must be"),
        ({"group": {"rank": "x", "roots": 5, "coroots": [], "simple": []}}, "group rank"),
        ({"group": {"rank": 1, "roots": 5, "coroots": [], "simple": []}}, "group roots"),
        ({"group": {"rank": 1, "roots": [[2], [-2]], "coroots": [[1], [-1]],
                    "simple": [5]}}, "group simple"),
        ({"group": {"rank": 2, "roots": [[2], [-2]], "coroots": [[1], [-1]],
                    "simple": [0]}}, "group roots"),
        ({"group": {"rank": 5, "roots": [], "coroots": [], "simple": []}}, "group rank"),
        ({"group": A4_SC}, "Weyl group"),
        ({"group": GL3_SHIFTED_COROOTS}, "not listed"),
        ({"group": {"rank": 1, "roots": [[2], [-2]], "coroots": [[1], [-1]],
                    "simple": [0, 1]}}, "linearly dependent"),
    ],
)
def test_malformed_config_exits_2_naming_it(tmp_path, capsys, monkeypatch, config, name):
    monkeypatch.delenv("PROPHECKE_SEED", raising=False)
    if isinstance(config, dict):
        config = {**SL2_CFG, **config}
    path = _write(tmp_path, "bad_config.json", config)
    start = time.perf_counter()
    assert main(["verify", "assoc", "--config", path]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err


def test_verify_assoc_pass(cfg, capsys):
    rc = main(["verify", "assoc", "--config", cfg, "--max-len", "2"])
    out = capsys.readouterr().out
    assert rc == 0 and "PASS" in out


def test_verify_decompose_refuses_on_gl2(tmp_path, capsys):
    cfg = _write(tmp_path, "gl2.json", {"group": "GL2", "field": {"p": 3}})
    assert main(["verify", "decompose", "--config", cfg]) == 2
    assert capsys.readouterr().err == "error: Omega is infinite\n"


def test_verify_decompose_refuses_on_pgl2_in_characteristic_2(tmp_path, capsys):
    cfg = _write(tmp_path, "pgl2.json", {"group": "PGL2", "field": {"p": 2}})
    assert main(["verify", "decompose", "--config", cfg]) == 2
    assert capsys.readouterr().err == "error: |Omega| vanishes in k\n"


def test_verify_supersingular_requires_sc(tmp_path, capsys):
    cfg = _write(tmp_path, "pgl2.json", {"group": "PGL2", "field": {"p": 3}})
    assert main(["verify", "supersingular", "--config", cfg, "--max-len", "1"]) == 2


@pytest.mark.parametrize("suite,flag,name", [
    ("duality", "--max-len", "max_len"),
    ("idempotents", "--max-len", "max_len"),
    ("lemma_even", "--samples", "samples"),
])
def test_verify_flag_the_suite_does_not_take_exits_2(cfg, capsys, suite, flag, name):
    assert main(["verify", suite, "--config", cfg, flag, "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and suite in err
    assert "Traceback" not in err


@pytest.mark.parametrize("group,argv,size", [
    ("SL2", ["idempotents"], 255),
    ("SL3", ["trace", "--max-len", "0"], 65025),
    ("SL2", ["bimodule", "--max-len", "0"], 255),
])
def test_verify_refuses_a_torus_past_the_bound(tmp_path, capsys, group, argv, size):
    """Over GF(2^8) these suites would list a torus of 255^rank vectors and
    run without end; they exit 2 at once, naming |T_q|."""
    path = _write(tmp_path, "gf256.json", {"group": group, "field": {"p": 2, "f": 8}})
    start = time.perf_counter()
    assert main(["verify", *argv, "--config", path]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"|T_q| = {size} " in err


def test_export_rejects_json_flag(cfg, capsys):
    """--json changes only verify's output, so only verify takes it."""
    assert main(["export", "omega", "--config", cfg, "--json"]) == 2
    assert "--json" in capsys.readouterr().err


def test_verify_json_report(tmp_path, cfg):
    out = str(tmp_path / "report.json")
    rc = main(
        ["verify", "lemma_even", "--config", cfg, "--json", "--out", out, "--max-len", "3"]
    )
    assert rc == 0
    rep = json.loads(open(out).read())
    assert rep["suite"] == "lemma_even" and rep["failures"] == []
    assert rep["config"]["seed_source"] == "config"


def test_seed_env_override_echoed(tmp_path, cfg, capsys):
    os.environ["PROPHECKE_SEED"] = "99"
    try:
        out = str(tmp_path / "r.json")
        main(["verify", "lemma_even", "--config", cfg, "--json", "--out", out])
        rep = json.loads(open(out).read())
        assert rep["seed"] == 99
        assert rep["config"]["seed_source"] == "env:PROPHECKE_SEED"
    finally:
        del os.environ["PROPHECKE_SEED"]


def test_seed_env_not_an_integer_exits_2_naming_it(cfg, capsys, monkeypatch):
    monkeypatch.setenv("PROPHECKE_SEED", "abc")
    assert main(["verify", "lemma_even", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "PROPHECKE_SEED" in err and "'abc'" in err


def test_verify_report_byte_determinism(tmp_path, cfg):
    outs = []
    for name in ("r1.json", "r2.json"):
        out = str(tmp_path / name)
        rc = main(
            ["verify", "cosets", "--config", cfg, "--json", "--out", out,
             "--max-len", "2", "--seed", "5"]
        )
        assert rc == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]


def test_export_hecke_table_size_and_determinism(tmp_path, cfg):
    out1, out2 = str(tmp_path / "t1.json"), str(tmp_path / "t2.json")
    assert main(["export", "hecke_table", "--config", cfg, "--max-len", "2", "--out", out1]) == 0
    assert main(["export", "hecke_table", "--config", cfg, "--max-len", "2", "--out", out2]) == 0
    b1, b2 = open(out1, "rb").read(), open(out2, "rb").read()
    assert b1 == b2
    table = json.loads(b1)
    # basis of length <= 2: 5 classes in W times 2 torus elements
    assert table["basis_size"] == 10
    assert len(table["rows"]) == 100


def test_export_omega_pgl2(tmp_path, capsys):
    cfg = _write(tmp_path, "pgl2.json", {"group": "PGL2", "field": {"p": 3}})
    rc = main(["export", "omega", "--config", cfg])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["finite"] and out["order"] == 2
    assert len(out["elements"]) == 2


def test_export_characters_sl2(tmp_path, cfg, capsys):
    rc = main(["export", "characters", "--config", cfg])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["torus_characters"] == 2
    # 4 consistent assignments over the trivial character, 1 over the other
    assert len(out["rows"]) == 5
    sup = {(tuple(r["lambda"]), tuple(r["eps"])): r["class"]["supersingular"] for r in out["rows"]}
    assert sup[((0,), (0, 0))] is False       # trivial character
    assert sup[((0,), (-1, -1))] is False     # sign character
    assert sup[((1,), (0, 0))] is True


def test_export_topmod_table(tmp_path, cfg):
    out = str(tmp_path / "top.json")
    assert main(["export", "topmod_table", "--config", cfg, "--max-len", "1", "--out", out]) == 0
    table = json.loads(open(out).read())
    assert table["rows"] and all("side" in r for r in table["rows"])


def test_internal_error_is_not_exit_2(cfg, monkeypatch):
    def broken(ctx, what, max_len):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "_export_payload", broken)
    with pytest.raises(KeyError):
        main(["export", "omega", "--config", cfg])


def test_theorem_violation_is_not_exit_2(cfg, monkeypatch):
    def broken(ctx, what, max_len):
        raise TheoremViolationError("identity fails")

    monkeypatch.setattr(cli, "_export_payload", broken)
    with pytest.raises(TheoremViolationError):
        main(["export", "omega", "--config", cfg])


def test_malformed_config_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    assert main(["export", "omega", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_export_reads_max_len_from_config(tmp_path, cfg):
    from_config = _write(tmp_path, "cfg1.json", {**SL2_CFG, "max_len": 1})
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["export", "hecke_table", "--config", from_config, "--out", a]) == 0
    assert main(["export", "hecke_table", "--config", cfg, "--max-len", "1", "--out", b]) == 0
    assert open(a).read() == open(b).read()


def test_unknown_suite_usage_error(cfg):
    # argparse reports usage errors with exit code 2
    assert main(["verify", "frobnicate", "--config", cfg]) == 2


def test_coset_support_command(tmp_path, cfg, capsys):
    elt = {"torus": [0], "w": {"w0_word": [0], "mu": [0]}}
    a = _write(tmp_path, "a.json", elt)
    rc = main(["coset", "support", "--config", cfg, a, a])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["count"] == 3 and len(out["classes"]) == 3
    assert out["index_v"] == 3


def test_coset_profile_command(tmp_path, cfg, capsys):
    w = _write(tmp_path, "w.json", {"w0_word": [0], "mu": [0]})
    rc = main(["coset", "profile", "--config", cfg, w])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["sum_check"] is True and out["length"] == 1
    assert set(out["g"].values()) == {1}


@pytest.mark.parametrize(
    "elt,name",
    [({"w0_word": [-1], "mu": [0]}, "element w0_word"),
     ({"w0_word": [0], "mu": [0, 0]}, "element mu"),
     ([0], "element w must be a JSON object")],
)
def test_coset_profile_malformed_element_names_the_field(tmp_path, cfg, capsys, elt, name):
    w = _write(tmp_path, "w.json", elt)
    assert main(["coset", "profile", "--config", cfg, w]) == 2
    assert name in capsys.readouterr().err


def test_coset_support_needs_two_files(tmp_path, cfg):
    w = _write(tmp_path, "w.json", {"torus": [0], "w": {"w0_word": [0], "mu": [0]}})
    assert main(["coset", "support", "--config", cfg, w]) == 2


def test_coset_profile_rejects_a_second_file(tmp_path, cfg, capsys):
    w = _write(tmp_path, "w.json", {"w0_word": [0], "mu": [0]})
    junk = _write(tmp_path, "junk.json", {"w0_word": [0], "mu": [0]})
    assert main(["coset", "profile", "--config", cfg, w, junk]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "junk.json" in err
    assert "Traceback" not in err


# SHA-256 of the stdout of fixed commands.  The CLI promises byte-identical
# output for the same config and seed, so a digest may change only with a
# deliberate change of output format.
STDOUT_SHA256 = {
    "mul": "005506b845630f3b410b1b55a17c61d838660e69376f152984d30e4aa9fe53cb",
    "hecke_table": "5ae98fc6933ed4c1ead086a7e7fcdae711cc0ad9233a3144ba4c28ae4def2e4e",
    "topmod_table": "9b2feaf813e1cb7da47187b2fc9ae2fecb317674b73ac33b992a87804fcd9629",
    "verify_assoc": "bd12f5f9be0adca35193753f5e69b23fa0b120fb4738cd3505eb1356d54da2bd",
    "coset_support": "9fb1823af8a9d784d740c83a5738ae457bd8122f4d309754bc58005f099534e6",
    "coset_profile": "c20cb3f5992cd792ca1f0c8c39a49f1623612eae049abdf1d7777f3c940c48f1",
    "hecke_table_gf9": "0e85a2bc36a8962fca0683c6146cbfe82a407f5a3d7f901b52f8472e7175b681",
}


def test_stdout_bytes_are_stable(tmp_path, cfg, capsys, monkeypatch):
    monkeypatch.delenv("PROPHECKE_SEED", raising=False)
    cfg9 = _write(tmp_path, "sl2_gf9.json", {**SL2_CFG, "field": {"p": 3, "f": 1, "m": 2}})
    taus = _write(tmp_path, "taus.json", TAUS)
    ns = _write(tmp_path, "ns.json", {"torus": [0], "w": {"w0_word": [0], "mu": [0]}})
    w = _write(tmp_path, "w.json", {"w0_word": [0], "mu": [1]})
    commands = {
        "mul": ["mul", "--config", cfg, taus, taus],
        "hecke_table": ["export", "hecke_table", "--config", cfg, "--max-len", "2"],
        "topmod_table": ["export", "topmod_table", "--config", cfg, "--max-len", "2"],
        "verify_assoc": ["verify", "assoc", "--config", cfg, "--json", "--max-len", "2"],
        "coset_support": ["coset", "support", "--config", cfg, ns, ns],
        "coset_profile": ["coset", "profile", "--config", cfg, w],
        "hecke_table_gf9": ["export", "hecke_table", "--config", cfg9, "--max-len", "1"],
    }
    for name, argv in commands.items():
        assert main(argv) == 0, name
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[name], name
