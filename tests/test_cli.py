"""Command-line interface: exit codes, config validation, output formats,
and byte-level determinism."""

import json
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from negdep_qmc import (
    SCHEMES,
    ValidationError,
    describe_scheme,
    load_pointset,
    net_points,
    save_pointset,
    star_discrepancy_exact,
)
from negdep_qmc.cli import main, parse_scheme


def write_json(path, payload):
    # a str is written as it stands: JSON text that no dict can hold
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# sample


def test_sample_writes_loadable_pointset(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {"scheme": {"kind": "lhs"}, "n": 8, "d": 2})
    out = tmp_path / "pts.txt"
    code, _, _ = run(["sample", cfg, "--seed", "5", "--out", str(out)], capsys)
    assert code == 0
    ps = load_pointset(out)
    assert ps.n == 8 and ps.d == 2


def test_sample_stdout_matches_file_output(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {"scheme": {"kind": "mc"}, "n": 4, "d": 2, "seed": 9})
    code, text, _ = run(["sample", cfg], capsys)
    assert code == 0
    out = tmp_path / "pts.txt"
    run(["sample", cfg, "--out", str(out)], capsys)
    assert text == out.read_text()
    # the same with the seed given by the flag
    _, text, _ = run(["sample", cfg, "--seed", "6"], capsys)
    run(["sample", cfg, "--seed", "6", "--out", str(out)], capsys)
    assert text.startswith("2 4\n") and text == out.read_text()


def test_sample_rerun_is_byte_identical(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {"scheme": {"kind": "rsj"}, "n": 5, "d": 2, "seed": 3})
    _, first, _ = run(["sample", cfg], capsys)
    _, second, _ = run(["sample", cfg], capsys)
    assert first == second
    _, other, _ = run(["sample", cfg, "--seed", "4"], capsys)
    assert first != other


# ---------------------------------------------------------------------------
# discrepancy


def test_discrepancy_roundtrip_from_sample(tmp_path, capsys):
    scfg = write_json(tmp_path / "s.json", {"scheme": {"kind": "lhs"}, "n": 10, "d": 2, "seed": 7})
    pts = tmp_path / "pts.txt"
    run(["sample", scfg, "--out", str(pts)], capsys)
    dcfg = write_json(tmp_path / "d.json", {"points": str(pts), "exact": True})
    code, text, _ = run(["discrepancy", dcfg], capsys)
    assert code == 0
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    row = lines[1].split(",")
    value = float(row[header.index("value")])
    expected = star_discrepancy_exact(load_pointset(pts)).value
    assert value == pytest.approx(expected, abs=1e-15)


def test_discrepancy_budget_exit_code(tmp_path, capsys):
    scfg = write_json(tmp_path / "s.json", {"scheme": {"kind": "mc"}, "n": 60, "d": 2, "seed": 1})
    pts = tmp_path / "pts.txt"
    run(["sample", scfg, "--out", str(pts)], capsys)
    dcfg = write_json(tmp_path / "d.json", {"points": str(pts), "exact": True, "budget": 100})
    code, _, err = run(["discrepancy", dcfg], capsys)
    assert code == 3
    assert "budget" in err.lower()


def test_discrepancy_schema_sidecar(tmp_path, capsys):
    scfg = write_json(tmp_path / "s.json", {"scheme": {"kind": "mc"}, "n": 6, "d": 1, "seed": 2})
    pts = tmp_path / "pts.txt"
    run(["sample", scfg, "--out", str(pts)], capsys)
    dcfg = write_json(tmp_path / "d.json", {"points": str(pts), "delta": 0.2})
    out = tmp_path / "disc.csv"
    code, _, _ = run(["discrepancy", dcfg, "--out", str(out)], capsys)
    assert code == 0
    sidecar = json.loads((tmp_path / "disc.csv.schema.json").read_text())
    assert sidecar["subcommand"] == "discrepancy"
    assert sidecar["columns"][0] == "quantity"
    assert "version" in sidecar


# ---------------------------------------------------------------------------
# negdep


def test_negdep_upper_with_oracle_column(tmp_path, capsys):
    cfg = write_json(tmp_path / "n.json", {
        "scheme": {"kind": "lhs"}, "n": 6, "d": 2, "test": "upper",
        "anchors": [[0.5, 0.5]], "t_values": [1, 2], "reps": 4000, "seed": 12,
    })
    code, text, _ = run(["negdep", cfg, "--oracle"], capsys)
    assert code == 0
    import csv as csvmod
    import io

    parsed = list(csvmod.reader(io.StringIO(text)))
    header, rows = parsed[0], parsed[1:]
    assert header[-1] == "oracle"
    assert len(rows) == 2
    oracle_t2 = float(rows[1][header.index("oracle")])
    assert 0 < oracle_t2 < 0.0625


def test_negdep_expect_holds_exit_code_on_violation(tmp_path, capsys):
    cfg = write_json(tmp_path / "n.json", {
        "scheme": {"kind": "mincopula"}, "n": 2, "d": 1, "test": "pairwise",
        "q_anchors": [[0.75]], "r_anchors": [[0.25]], "reps": 1, "seed": 1,
    })
    code, text, _ = run(["negdep", cfg, "--expect-holds"], capsys)
    assert code == 4
    assert "violated" in text
    code, _, _ = run(["negdep", cfg], capsys)
    assert code == 0  # without the flag a violation still reports cleanly


def test_negdep_conditional_table(tmp_path, capsys):
    cfg = write_json(tmp_path / "n.json", {
        "scheme": {"kind": "fourslot"}, "n": 2, "d": 2, "test": "conditional",
        "i": 2, "a_box": {"kind": "corner1", "lower": [0.5]},
        "b_box": {"kind": "corner1", "lower": [0.5]},
        "alphas": [0.5], "betas": [0.25, 0.5], "reps": 1, "seed": 1,
    })
    code, text, _ = run(["negdep", cfg], capsys)
    assert code == 0
    assert len(text.strip().split("\n")) == 3  # header + 2 grid rows


def test_negdep_ci_writes_factorization_sidecar(tmp_path, capsys):
    cfg = write_json(tmp_path / "n.json", {
        "scheme": {"kind": "lhs"}, "n": 4, "d": 2, "test": "ci",
        "i": 2, "q_values": [0.5], "r_values": [0.5], "reps": 4000, "seed": 8,
    })
    out = tmp_path / "ci.csv"
    code, _, _ = run(["negdep", cfg, "--out", str(out)], capsys)
    assert code == 0
    factor = (tmp_path / "ci.csv.factorization.csv").read_text().strip().split("\n")
    assert factor[0].startswith("scheme,n,d,")
    assert len(factor) > 1


# ---------------------------------------------------------------------------
# bounds / variance / net-check


def test_bounds_grid_rows(tmp_path, capsys):
    cfg = write_json(tmp_path / "b.json", {
        "formula": "corner_theta",
        "grid": {"n": [64, 256], "d": [2, 3], "theta": [0.9]},
    })
    code, text, _ = run(["bounds", cfg], capsys)
    assert code == 0
    lines = text.strip().split("\n")
    assert len(lines) == 5  # header + 2*2 grid
    header = lines[0].split(",")
    i_val = header.index("bound_value")
    values = [float(line.split(",")[i_val]) for line in lines[1:]]
    assert all(v > 0 for v in values)


def test_bounds_rejects_unknown_formula(tmp_path, capsys):
    cfg = write_json(tmp_path / "b.json", {"formula": "nope", "grid": {"n": [4], "d": [1], "c": [1]}})
    code, _, err = run(["bounds", cfg], capsys)
    assert code == 2
    assert "formula" in err


def test_variance_row(tmp_path, capsys):
    cfg = write_json(tmp_path / "v.json", {
        "scheme": {"kind": "lhs"}, "function": {"kind": "product_coords"},
        "n": 16, "d": 2, "reps": 200, "seed": 3,
    })
    code, text, _ = run(["variance", cfg], capsys)
    assert code == 0
    header, row = text.strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["scheme"] == "lhs"
    assert float(cells["ratio"]) < 1.0


def test_net_check_raw_and_scrambled(tmp_path, capsys):
    cfg = write_json(tmp_path / "nc.json", {"b": 2, "m": 3, "s": 2})
    code, text, _ = run(["net-check", cfg], capsys)
    assert code == 0 and ",true" in text
    cfg2 = write_json(tmp_path / "nc2.json", {"b": 2, "m": 3, "s": 2, "scramble": True, "seed": 4})
    code, text, _ = run(["net-check", cfg2], capsys)
    assert code == 0 and ",true" in text


# ---------------------------------------------------------------------------
# output bytes: every deterministic layout, empty columns included

_BOUNDS_HEADER = ("formula,n,d,rho,c,theta,t,gamma,bound_value,success_prob,clamped,"
                  "raw_success_prob,xi,eta,c_effective\n")
_NEGDEP_HEADER = ("notion,scheme,n,d,event,lhs,rhs,ci_halfwidth,verdict,replications,gamma,"
                  "confidence,method,oracle\n")
_PRODUCT_WEIGHTS = {"kind": "product", "gamma": [1, 0.5]}
_GSS_CELLS = {"kind": "gss", "beta": 5, "strata": {"kind": "cells", "g": [1, 2], "n": 5}}

# p.txt is the 8-point net(2, 3, 2) the test writes
PINNED = [
    pytest.param(
        "bounds", {"formula": "hoeffding", "grid": {"n": [64, 256], "t": 8}},
        _BOUNDS_HEADER
        + "hoeffding,64,,,,,8.0,1.0,0.2706705664732254,,,,,,\n"
        + "hoeffding,256,,,,,8.0,1.0,1.2130613194252668,,,,,,\n",
        id="bounds-hoeffding"),
    pytest.param(
        "bounds", {"formula": "corner", "grid": {"n": 64, "d": [2, 3], "c": 1}},
        _BOUNDS_HEADER
        + "corner_c,64,2,0.0,1.0,,,,0.3290961059667699,0.0,true,-531.0120391230067,"
          "3.4657359027997265,,\n"
        + "corner_c,64,3,0.0,1.0,,,,0.3787481927365027,0.0,true,-8675.951950817076,"
          "3.060270794691562,,\n",
        id="bounds-corner"),
    pytest.param(
        "bounds", {"formula": "corner_theta", "grid": {"n": [64, 1024], "d": 2, "theta": 0.9}},
        _BOUNDS_HEADER
        + "corner_theta,64,2,0.0,,0.9,,,0.568033006937395,0.9,false,0.9,,39.04511665233527,\n"
        + "corner_theta,1024,2,0.0,,0.9,,,0.15994235182955993,0.9,false,0.9,,"
          "156.18046660934107,\n",
        id="bounds-corner-theta"),
    pytest.param(
        "bounds", {"formula": "mixed_theta", "grid": {"n": 256, "d": 2, "rho": [0, 0.5],
                                                      "theta": 0.9}},
        _BOUNDS_HEADER
        + "mixed_theta,256,2,0.0,,0.9,,,0.4704442005043962,0.9,false,0.9,,,\n"
        + "mixed_theta,256,2,0.5,,0.9,,,0.4802621377377886,0.9,false,0.9,,,\n",
        id="bounds-mixed-theta"),
    pytest.param(
        "bounds", {"formula": "weighted_theta", "grid": {"n": 256, "d": 2, "theta": 0.9},
                   "weights": _PRODUCT_WEIGHTS},
        _BOUNDS_HEADER
        + "weighted_theta,256,2,0.0,,0.9,,,0.13387125065659303,0.9,false,0.9,,,"
          "2.1419400105054884\n",
        id="bounds-weighted-theta"),
    pytest.param(
        "discrepancy", {"points": "p.txt", "exact": True, "delta": 0.25,
                        "weights": _PRODUCT_WEIGHTS},
        "quantity,n,d,value,lower,upper,delta,witness,witness_side\n"
        "exact,8,2,0.3125,,,,0.75 0.75,closed\n"
        "cover,8,2,,0.109375,0.359375,0.25,,\n"
        "weighted,8,2,0.15625,,,,,\n",
        id="discrepancy-exact-cover-weighted"),
    pytest.param(
        "net-check", {"b": 2, "m": 3, "s": 2},
        "source,b,m,s,t,n,is_net\nraw,2,3,2,0,8,true\n",
        id="net-check-raw"),
    pytest.param(
        "negdep", {"scheme": {"kind": "swap"}, "n": 2, "d": 2, "test": "pairwise",
                   "q_anchors": [[0.5, 0.5]], "r_anchors": [[0.5, 0.5], [0.25, 0.75]],
                   "reps": 1},
        _NEGDEP_HEADER
        + 'pairwise_nd,swap,2,2,"p1 in [(0.5,0.5),1), p2 in [(0.5,0.5),1)",0.25,0.0625,0.0,'
          "violated,0,1.0,0.99,exact,\n"
        + 'pairwise_nd,swap,2,2,"p1 in [0,(0.5,0.5)), p2 in [0,(0.5,0.5))",0.25,0.0625,0.0,'
          "violated,0,1.0,0.99,exact,\n"
        + 'pairwise_nd,swap,2,2,"p1 in [(0.5,0.5),1), p2 in [(0.25,0.75),1)",0.125,0.046875,'
          "0.0,violated,0,1.0,0.99,exact,\n"
        + 'pairwise_nd,swap,2,2,"p1 in [0,(0.5,0.5)), p2 in [0,(0.25,0.75))",0.125,0.046875,'
          "0.0,violated,0,1.0,0.99,exact,\n",
        id="negdep-swap-pairwise"),
    pytest.param(
        "negdep", {"scheme": {"kind": "fourslot"}, "n": 2, "d": 2, "test": "conditional",
                   "i": 2, "a_box": {"kind": "corner1", "lower": [0.5]},
                   "b_box": {"kind": "corner1", "lower": [0.5]},
                   "alphas": [0.5], "betas": [0.25, 0.5], "reps": 1},
        _NEGDEP_HEADER
        + 'conditional_nqd,fourslot,2,2,"coord 2: p1 >= 0.5 and p2 >= 0.25 | p1[1:1] in '
          '[(0.5),1), p2[1:1] in [(0.5),1)",0.4166666666666667,0.375,0.0,violated,0,1.0,0.99,'
          "exact,\n"
        + 'conditional_nqd,fourslot,2,2,"coord 2: p1 >= 0.5 and p2 >= 0.5 | p1[1:1] in '
          '[(0.5),1), p2[1:1] in [(0.5),1)",0.3333333333333333,0.25,0.0,violated,0,1.0,0.99,'
          "exact,\n",
        id="negdep-fourslot-conditional"),
    pytest.param(
        "negdep", {"scheme": {"kind": "swap"}, "n": 2, "d": 2, "test": "ci", "i": 1,
                   "q_values": 0.5, "r_values": 0.5, "reps": 1},
        _NEGDEP_HEADER
        + "ci_nqd,swap,2,2,coord 1: p1 >= 0.5 and p2 >= 0.5,0.25,0.25,0.0,holds,0,1.0,0.99,"
          "exact,\n"
        + "\n"
        + "scheme,n,d,coord_i,coord_j,q,r,s,t2,joint,product,deviation,halfwidth,consistent\n"
        + "swap,2,2,1,2,0.5,0.5,0.25,0.25,0.25,0.140625,0.109375,0.0,false\n"
        + "swap,2,2,1,2,0.5,0.5,0.5,0.5,0.25,0.0625,0.1875,0.0,false\n"
        + "swap,2,2,1,2,0.5,0.5,0.75,0.75,0.0625,0.015625,0.046875,0.0,false\n",
        id="negdep-swap-ci"),
    pytest.param(
        "sample", {"scheme": _GSS_CELLS, "n": 3, "d": 2, "seed": 3},
        "2 3\n"
        "0.7927945274836089 0.32016620637643245\n"
        "0.85034145165960551 0.81435492324061431\n"
        "0.075456506729150885 0.54214120395396381\n",
        id="sample-gss-cells"),
    pytest.param(
        "negdep", {"scheme": _GSS_CELLS, "n": 3, "d": 2, "test": "upper",
                   "anchors": [[0.5, 0.7]], "t_values": [1, 2], "reps": 50, "oracle": True,
                   "seed": 4},
        _NEGDEP_HEADER
        + 'upper_nd,"gss(beta=5,cells(g=(1, 2),n=5))",3,2,"points 1..1 all in [0,(0.5,0.7))",'
          "0.3,0.35,0.18202084606365782,inconclusive,50,1.0,0.99,empirical,0.3500000000000001\n"
        + 'upper_nd,"gss(beta=5,cells(g=(1, 2),n=5))",3,2,"points 1..2 all in [0,(0.5,0.7))",'
          "0.1,0.12249999999999998,0.15973078959568401,inconclusive,50,1.0,0.99,empirical,"
          "0.10967187500000004\n",
        id="negdep-gss-cells-upper-oracle"),
    pytest.param(
        "discrepancy", {"points": "p.txt", "weights": {"kind": "explicit", "table": {
            "1": 1.0, "2": 0.5, "1,2": 0.25}}},
        "quantity,n,d,value,lower,upper,delta,witness,witness_side\n"
        "weighted,8,2,0.125,,,,,\n",
        id="discrepancy-explicit-weights"),
]


@pytest.mark.parametrize("command, cfg, expected", PINNED)
def test_csv_bytes_are_pinned(tmp_path, capsys, monkeypatch, command, cfg, expected):
    monkeypatch.chdir(tmp_path)
    save_pointset(net_points(2, 3, 2), tmp_path / "p.txt")
    config = write_json(tmp_path / "c.json", cfg)
    code, text, _ = run([command, config], capsys)
    assert code == 0
    assert text == expected
    # --out writes the same bytes; a ci test's factorization table goes to its own file
    code, _, _ = run([command, config, "--out", "o.csv"], capsys)
    assert code == 0
    main_part, blank, factor_part = expected.partition("\n\n")
    main_part += "\n" if blank else ""
    assert (tmp_path / "o.csv").read_text() == main_part
    sidecar = tmp_path / "o.csv.schema.json"
    if command == "sample":  # a point-set file, not a CSV: no schema sidecar
        assert not sidecar.exists()
    else:
        columns = json.loads(sidecar.read_text())["columns"]
        assert columns == main_part.split("\n", 1)[0].split(",")
    factor_file = tmp_path / "o.csv.factorization.csv"
    assert (factor_file.read_text() if factor_file.exists() else "") == factor_part


# ---------------------------------------------------------------------------
# config validation and report


def test_unknown_top_level_key_is_rejected(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {"scheme": {"kind": "mc"}, "n": 4, "d": 1, "sneaky": 1})
    code, _, err = run(["sample", cfg], capsys)
    assert code == 2
    assert "sneaky" in err


def test_unknown_nested_key_is_rejected(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {"scheme": {"kind": "mc", "extra": 2}, "n": 4, "d": 1})
    code, _, err = run(["sample", cfg], capsys)
    assert code == 2
    assert "extra" in err


def test_missing_required_key_is_rejected(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {"scheme": {"kind": "mc"}, "n": 4})
    code, _, err = run(["sample", cfg], capsys)
    assert code == 2
    assert "'d'" in err


def test_invalid_json_is_a_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["sample", str(bad)], capsys)
    assert code == 2


def test_scheme_validation_error_exit_code(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {"scheme": {"kind": "rsj"}, "n": 6, "d": 2, "seed": 1})
    code, _, err = run(["sample", cfg], capsys)  # 6 is not prime
    assert code == 2


_SAMPLE = {"scheme": {"kind": "mc"}, "n": 4, "d": 2}
_DISC = {"scheme": {"kind": "mc"}, "n": 8, "d": 2}
_UPPER = {"scheme": {"kind": "lhs"}, "n": 4, "d": 2, "test": "upper",
          "anchors": [[0.5, 0.5]], "t_values": [1], "reps": 100}
_COND = {"scheme": {"kind": "lhs"}, "n": 4, "d": 2, "test": "conditional", "i": 2,
         "alphas": [0.5], "betas": [0.5], "reps": 100}
_PAIR = {"scheme": {"kind": "lhs"}, "n": 4, "d": 2, "test": "pairwise",
         "q_anchors": [[0.5, 0.5]], "r_anchors": [[0.5, 0.5]], "reps": 100}
_CORNER = {"formula": "corner", "grid": {"n": 64, "d": 2, "c": 1}}
_CELLS_G3 = {"kind": "gss", "beta": 31, "strata": {"kind": "cells", "g": [1, 2, 3], "n": 31}}
_TABLE_D2 = {"1": 1.0, "2": 1.0, "1,2": 1.0}
_NAN = float("nan")  # json.dumps writes it as the constant NaN

MALFORMED = [
    # values that used to crash with a traceback
    pytest.param("sample", {**_SAMPLE, "scheme": _CELLS_G3, "n": 5}, [], id="cells-g-3-entries"),
    pytest.param("sample", {**_SAMPLE, "n": "abc"}, [], id="n-string"),
    pytest.param("negdep", {**_UPPER, "anchors": [0.5, 0.5]}, [], id="anchors-flat"),
    pytest.param("negdep", {**_COND, "a_box": {"kind": "corner0", "upper": 0.5}}, [],
                 id="box-upper-scalar"),
    pytest.param("discrepancy", {**_DISC, "weights": {"kind": "explicit", "table": [1, 2]}}, [],
                 id="weights-table-list"),
    pytest.param("discrepancy", {**_DISC, "weights": {"kind": "explicit", "table": {"1": "x"}}},
                 [], id="weights-table-string-value"),
    pytest.param("discrepancy", {"points": "no-such-dir/points.txt"}, [], id="points-missing"),
    pytest.param("sample", _SAMPLE, ["--seed", "-1"], id="seed-flag-negative"),
    # values that used to be coerced silently
    pytest.param("sample", {**_SAMPLE, "n": 2.7}, [], id="n-fraction"),
    pytest.param("sample", {**_SAMPLE, "n": True}, [], id="n-boolean"),
    pytest.param("sample", {**_SAMPLE, "seed": 1.9}, [], id="seed-fraction"),
    pytest.param("discrepancy", {**_DISC, "exact": "false", "delta": 0.1}, [],
                 id="exact-string"),
    pytest.param("negdep", {**_UPPER, "oracle": "no"}, [], id="oracle-string"),
    pytest.param("negdep", {**_UPPER, "threads": 2}, [], id="threads-unknown-key"),
    pytest.param("discrepancy", {**_DISC, "delta": "0.1"}, [], id="delta-string"),
    pytest.param("discrepancy", {**_DISC, "budget": 1.5}, [], id="budget-fraction"),
    # keys that the chosen test or formula does not read, which used to be ignored
    pytest.param("negdep", {**_PAIR, "gamma": 7}, [], id="pairwise-gamma"),
    pytest.param("negdep", {**_PAIR, "alphas": [0.5]}, [], id="pairwise-alphas"),
    pytest.param("negdep", {**_PAIR, "t_values": [2]}, [], id="pairwise-t-values"),
    pytest.param("negdep", {**_PAIR, "oracle": True}, [], id="pairwise-oracle-key"),
    pytest.param("negdep", _PAIR, ["--oracle"], id="pairwise-oracle-flag"),
    pytest.param("negdep", {**_UPPER, "test": "lower", "oracle": True}, [], id="lower-oracle-key"),
    pytest.param("bounds", {**_CORNER, "grid": {**_CORNER["grid"], "theta": [0.9]}}, [],
                 id="corner-grid-theta"),
    pytest.param("bounds", {**_CORNER, "grid": {**_CORNER["grid"], "t": [0.1]}}, [],
                 id="corner-grid-t"),
    pytest.param("bounds", {**_CORNER, "gamma": 2.0}, [], id="corner-gamma"),
    pytest.param("bounds", {**_CORNER, "weights": {"kind": "product", "gamma": [1.0, 1.0]}}, [],
                 id="corner-weights"),
    pytest.param("bounds", {"formula": "hoeffding", "grid": {"n": 64, "t": 0.1, "d": 2}}, [],
                 id="hoeffding-grid-d"),
    pytest.param("report", {"criteria": []}, [], id="report-no-criteria"),
    # keys that a points file makes meaningless, which used to be ignored;
    # p.txt is the 8-point net(2, 3, 2) the test writes
    pytest.param("discrepancy", {"points": "p.txt", "scheme": {"kind": "mc"}, "n": 99, "d": 7}, [],
                 id="discrepancy-points-and-scheme"),
    pytest.param("net-check", {"points": "p.txt", "b": 2, "m": 3, "s": 2, "scramble": True}, [],
                 id="net-check-points-and-scramble"),
    # a seed where nothing is drawn, which used to be ignored
    pytest.param("bounds", {**_CORNER, "seed": 3}, [], id="bounds-seed"),
    pytest.param("bounds", _CORNER, ["--seed", "4"], id="bounds-seed-flag"),
    pytest.param("discrepancy", {"points": "p.txt", "exact": True, "seed": 5}, [],
                 id="discrepancy-points-seed"),
    pytest.param("net-check", {"b": 2, "m": 3, "s": 2, "seed": 6}, [], id="net-check-raw-seed"),
    pytest.param("net-check", {"points": "p.txt", "b": 2, "m": 3, "s": 2}, ["--seed", "7"],
                 id="net-check-points-seed"),
    # non-finite numbers, which Python's json accepts and which used to reach the CSV
    pytest.param("bounds", {"formula": "hoeffding", "grid": {"n": 64, "t": _NAN}}, [],
                 id="hoeffding-t-nan"),
    pytest.param("bounds", {"formula": "hoeffding", "grid": {"n": 64, "t": 1}, "gamma": _NAN}, [],
                 id="hoeffding-gamma-nan"),
    pytest.param("negdep", {**_UPPER, "gamma": _NAN}, [], id="upper-gamma-nan"),
    pytest.param("discrepancy", {**_DISC, "weights": {"kind": "product", "gamma": [_NAN, 1]}}, [],
                 id="product-weights-nan"),
    pytest.param("bounds", {**_CORNER, "grid": {**_CORNER["grid"], "c": float("inf")}}, [],
                 id="corner-c-infinity"),
    # explicit weight tables that used to be read silently
    pytest.param("discrepancy", {"points": "p.txt", "weights": {
        "kind": "explicit", "table": {**_TABLE_D2, "2,1": 7.0}}}, [],
        id="explicit-weights-repeated-subset"),
    pytest.param("discrepancy", {"points": "p.txt", "weights": {
        "kind": "explicit", "table": {"1,1": 5.0, "2": 1.0, "1,2": 1.0}}}, [],
        id="explicit-weights-repeated-coordinate"),
    pytest.param("discrepancy", {"points": "p.txt", "weights": {
        "kind": "explicit", "table": {**_TABLE_D2, "7": 1.0}}}, [],
        id="explicit-weights-coordinate-above-d"),
    pytest.param("bounds", {"formula": "weighted", "grid": {"n": 64, "d": 2, "c": 1},
                            "weights": {"kind": "explicit", "table": {**_TABLE_D2, "7": 1.0}}},
                 [], id="weighted-bound-coordinate-above-d"),
    # a key given twice in one object, of which json kept the last
    pytest.param("sample", '{"scheme": {"kind": "mc"}, "n": 4, "n": 2, "d": 1}', [],
                 id="duplicate-key-top"),
    pytest.param("sample", '{"scheme": {"kind": "mc", "kind": "lhs"}, "n": 4, "d": 2}', [],
                 id="duplicate-key-nested"),
    # an exact dependence test, which never read reps
    pytest.param("negdep", {"scheme": {"kind": "swap"}, "n": 2, "d": 2, "test": "pairwise",
                            "q_anchors": [[0.5, 0.5]], "r_anchors": [[0.5, 0.5]], "reps": -3},
                 [], id="swap-reps-negative"),
]


@pytest.mark.parametrize("command, cfg, argv", MALFORMED)
def test_malformed_config_value_exits_2(tmp_path, capsys, monkeypatch, command, cfg, argv):
    monkeypatch.chdir(tmp_path)
    save_pointset(net_points(2, 3, 2), tmp_path / "p.txt")
    code, _, err = run([command, write_json(tmp_path / "c.json", cfg), *argv], capsys)
    assert code == 2
    assert err.startswith("error: ")


# point-set files that must be refused whichever subcommand reads them; each
# is one defect away from GOOD_POINTS, a file both subcommands accept
GOOD_POINTS = "2 2\n0.5 0.25\n0.25 0.75\n"
BAD_POINTS = [
    pytest.param("2 2\n0.5 0.25\n0.25\n", id="short-row"),
    pytest.param("2 2\n0.5 0.25\n0.25 0.75 0.5\n", id="long-row"),
    pytest.param("2 2\n0.5 0.25 0.25\n0.75\n", id="long-and-short-rows"),
    pytest.param("2 3\n0.5 0.25\n0.25 0.75\n", id="fewer-rows"),
    pytest.param("2 1\n0.5 0.25\n0.25 0.75\n", id="more-rows"),
    pytest.param("3 2\n0.5 0.25\n0.25 0.75\n", id="rows-narrower-than-the-header"),
    pytest.param("2\n0.5 0.25\n0.25 0.75\n", id="one-token-header"),
    pytest.param("2 2 2\n0.5 0.25\n0.25 0.75\n", id="three-token-header"),
    pytest.param("2 2.0\n0.5 0.25\n0.25 0.75\n", id="non-integer-header"),
    pytest.param("2 0\n", id="zero-rows"),
    pytest.param("0 2\n\n\n", id="zero-dimension"),
    pytest.param("-2 2\n0.5 0.25\n0.25 0.75\n", id="negative-dimension"),
    pytest.param("2 2\n0.5 abc\n0.25 0.75\n", id="non-numeric"),
    pytest.param("2 2\n0.5 #\n0.25 0.75\n", id="hash-token"),
    pytest.param("2 2\n# a comment\n0.5 0.25\n0.25 0.75\n", id="comment-line"),
    pytest.param("2 2\n0.5 1.0\n0.25 0.75\n", id="coordinate-one"),
    pytest.param("2 2\n0.5 -0.25\n0.25 0.75\n", id="negative-coordinate"),
    pytest.param("2 2\n0.5 nan\n0.25 0.75\n", id="nan"),
    pytest.param("2 2\n0.5 inf\n0.25 0.75\n", id="infinity"),
    pytest.param("", id="empty-file"),
    pytest.param("2 2\n", id="header-only"),
    # Python's float() reads "0.1_5" as 0.15; numpy's parser, which reads the rows, does not
    pytest.param("2 2\n0.5 0.1_5\n0.25 0.75\n", id="underscore-digits"),
]
_POINTS_COMMANDS = [
    pytest.param("discrepancy", {"points": "p.txt", "exact": True}, id="discrepancy"),
    pytest.param("net-check", {"points": "p.txt", "b": 2, "m": 1, "s": 2}, id="net-check"),
]


@pytest.mark.filterwarnings("error")  # a warning would reach stderr before the error line
@pytest.mark.parametrize("command, cfg", _POINTS_COMMANDS)
@pytest.mark.parametrize("text", BAD_POINTS)
def test_malformed_points_file_exits_2(tmp_path, capsys, monkeypatch, command, cfg, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.txt").write_text(text)
    code, out, err = run([command, write_json(tmp_path / "c.json", cfg)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read points file: ") and err.count("\n") == 1
    with pytest.raises(ValidationError):
        load_pointset("p.txt")


@pytest.mark.parametrize("command, cfg", _POINTS_COMMANDS)
def test_points_file_skips_blank_lines_and_takes_any_whitespace(tmp_path, capsys, monkeypatch,
                                                                command, cfg):
    monkeypatch.chdir(tmp_path)
    config = write_json(tmp_path / "c.json", cfg)
    (tmp_path / "p.txt").write_text(GOOD_POINTS)
    code, expected, _ = run([command, config], capsys)
    assert code == 0
    (tmp_path / "p.txt").write_bytes(b"2\t2\r\n\n0.5   0.25 \r\n \t\n\t0.25\t.75\n\n")
    assert run([command, config], capsys) == (0, expected, "")


def test_overflowing_config_number_exits_2(tmp_path, capsys):
    cfg = tmp_path / "b.json"
    cfg.write_text('{"formula": "corner", "grid": {"n": 64, "d": 2, "c": 1e999}}')
    code, _, err = run(["bounds", str(cfg)], capsys)
    assert code == 2
    assert "finite" in err


@pytest.mark.parametrize("text, key", [
    pytest.param('{"formula": "corner", "grid": {"n": 64, "d": 2, "c": 1}, "formula": "hoeffding"}',
                 "formula", id="top"),
    pytest.param('{"formula": "corner", "grid": {"n": 64, "d": 2, "c": 1, "n": 32}}', "n",
                 id="nested"),
])
def test_repeated_config_key_is_named(tmp_path, capsys, text, key):
    cfg = tmp_path / "b.json"
    cfg.write_text(text)
    code, _, err = run(["bounds", str(cfg)], capsys)
    assert code == 2
    assert f"repeats the key '{key}'" in err


def test_float_fields_accept_json_integers(tmp_path, capsys):
    grid = {"n": 64, "d": 2, "c": [1]}  # integers where numbers are expected
    cfg = write_json(tmp_path / "b.json", {"formula": "corner", "grid": grid})
    code, text, _ = run(["bounds", cfg], capsys)
    assert code == 0
    assert len(text.strip().split("\n")) == 2


# one config per registered scheme kind, with its label (the CSV scheme column)
SCHEME_EXAMPLES = {
    "mc": ({"kind": "mc"}, "mc"),
    "sss": ({"kind": "sss"}, "sss"),
    "lhs": ({"kind": "lhs"}, "lhs"),
    "rsj": ({"kind": "rsj"}, "rsj"),
    "gss": ({"kind": "gss", "beta": 31, "strata": {"kind": "cells", "g": [1, 5], "n": 31}},
            "gss(beta=31,cells(g=(1, 5),n=31))"),
    "net": ({"kind": "net", "b": 5, "m": 2, "s": 2}, "net(b=5,m=2,s=2)"),
    "mixed": ({"kind": "mixed", "left": {"kind": "lhs"}, "d_left": 2,
               "right": {"kind": "gss", "beta": 8, "strata": {"kind": "stripes", "count": 8}},
               "d_right": 1},
              "mixed(lhs|2+gss(beta=8,stripes)|1)"),
    "mincopula": ({"kind": "mincopula"}, "mincopula"),
    "fourslot": ({"kind": "fourslot"}, "fourslot"),
    "swap": ({"kind": "swap"}, "swap"),
}


def _to_config(spec):
    cfg = {"kind": spec.kind}
    for f in fields(spec):
        value = getattr(spec, f.name)
        cfg[f.name] = _to_config(value) if is_dataclass(value) else (
            list(value) if isinstance(value, tuple) else value)
    return cfg


@pytest.mark.parametrize("kind", sorted(SCHEMES))
def test_parse_scheme_round_trip(kind):
    cfg, label = SCHEME_EXAMPLES[kind]  # a new kind needs an example here
    spec = parse_scheme(cfg)
    assert type(spec) is SCHEMES[kind]
    assert describe_scheme(spec) == label
    assert _to_config(spec) == cfg
    assert parse_scheme(_to_config(spec)) == spec


def test_report_subset_runs_and_writes(tmp_path, capsys):
    cfg = write_json(tmp_path / "r.json", {"criteria": [1, 2, 3], "out_dir": str(tmp_path / "acc")})
    code, text, _ = run(["report", cfg], capsys)
    assert code == 0
    assert text.count("PASS") == 3
    data = json.loads((tmp_path / "acc" / "acceptance.json").read_text())
    assert data["all_passed"] is True
    assert [c["cid"] for c in data["criteria"]] == [1, 2, 3]
    csv_text = (tmp_path / "acc" / "acceptance.csv").read_text()
    assert csv_text.splitlines()[0] == "cid,name,passed,details"


def test_report_rejects_bad_criterion_ids(tmp_path, capsys):
    cfg = write_json(tmp_path / "r.json", {"criteria": [0, 13]})
    code, _, err = run(["report", cfg], capsys)
    assert code == 2


def test_report_rejects_the_out_key(tmp_path, capsys, monkeypatch):
    # report writes a directory, named by out_dir or --out; "out" used to be ignored
    monkeypatch.chdir(tmp_path)
    cfg = write_json(tmp_path / "r.json", {"criteria": [1], "out": "x.csv"})
    code, text, err = run(["report", cfg], capsys)
    assert code == 2
    assert err.startswith("error: ") and "out_dir" in err
    assert text == "" and not (tmp_path / "x.csv").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "negdep-qmc" in capsys.readouterr().out
