"""Command-line front end: exit codes, output contracts, configuration."""

import json
import pathlib

import pytest

from detcomp.cli import main
from detcomp.fields import Fp
from detcomp.jsonio import load_matrix_map, read_json, validate_payload, write_json
from detcomp.matmap import AffineMatrixMap
from detcomp.poly import Polynomial, varset

pytest.importorskip("jsonschema")

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, argv, schema=None):
    """Invoke the CLI in-process; return (exit code, stdout, stderr)."""
    rc = main(argv)
    captured = capsys.readouterr()
    if schema is not None:
        validate_payload(json.loads(captured.out), schema)
    return rc, captured.out, captured.err


# ------------------------------------------------------------------ verdicts


def test_parse_canonical_form(capsys):
    rc, out, _ = run(capsys, ["parse", "--poly", "y + x", "--vars", "x,y"])
    assert rc == 0
    assert out.strip() == "x + y"
    rc, out, _ = run(capsys,
                     ["parse", "--poly", "y + x", "--vars", "x,y",
                      "--format", "json"], schema="parse")
    payload = json.loads(out)
    assert payload["poly"] == "x + y"
    assert payload["degree"] == 1
    assert payload["terms"] == 2
    assert payload["homogeneous"] is True


def test_parse_alias_forms(capsys):
    rc, out, _ = run(capsys, ["parse", "--poly", "fermat:3:5", "--format", "json"],
                     schema="parse")
    payload = json.loads(out)
    assert rc == 0
    assert payload["poly"] == "x1^3 + x2^3 + x3^3 + x4^3 + x5^3"
    for alias, degree, terms in (("perm3", 3, 6), ("det3", 3, 6), ("cubic", 3, 3)):
        rc, out, _ = run(capsys, ["parse", "--poly", alias, "--format", "json"],
                         schema="parse")
        payload = json.loads(out)
        assert rc == 0
        assert payload["degree"] == degree and payload["terms"] == terms


def test_verify_catalog_expression(capsys):
    rc, out, _ = run(capsys,
                     ["verify", "--map", "catalog:cubic_5x5", "--poly", "cubic",
                      "--format", "json"], schema="verification")
    assert rc == 0
    assert json.loads(out)["ok"] is True
    rc, out, _ = run(capsys,
                     ["verify", "--map", "catalog:cubic_5x5", "--poly", "cubic",
                      "--mode", "probabilistic", "--format", "json"],
                     schema="verification")
    payload = json.loads(out)
    assert rc == 0
    assert payload["mode"] == "probabilistic"
    assert payload["failure_bound"] < 1e-12


def test_verify_broken_map_exits_one(capsys, tmp_path):
    from detcomp.expressions import catalog_get
    from detcomp.jsonio import dump_matrix_map

    mapping, _ = catalog_get("cubic_5x5")
    data = dump_matrix_map(mapping)
    data["entries"][0][0] = data["entries"][0][0] + " + 1"
    path = tmp_path / "broken.json"
    write_json(str(path), data)
    rc, out, _ = run(capsys,
                     ["verify", "--map", str(path), "--poly", "cubic",
                      "--format", "json"], schema="verification")
    payload = json.loads(out)
    assert rc == 1
    assert payload["ok"] is False
    assert payload["witness_monomial"]


def test_codim_and_certify(capsys):
    rc, out, _ = run(capsys,
                     ["codim", "--poly", "cubic", "--format", "json",
                      "--deterministic"], schema="codim")
    payload = json.loads(out)
    assert rc == 0
    assert payload["codim"] == 3
    rc, out, _ = run(capsys,
                     ["certify", "--poly", "fermat:3:5", "--format", "json",
                      "--deterministic"], schema="certificate")
    payload = json.loads(out)
    assert rc == 0
    assert payload["statement"] == "dc(f) >= 6"
    assert payload["bound"] == 6


def test_certify_not_applicable_exits_one(capsys):
    rc, out, _ = run(capsys,
                     ["certify", "--poly", "x*y", "--vars", "x,y",
                      "--format", "json", "--deterministic"], schema="certificate")
    payload = json.loads(out)
    assert rc == 1
    assert payload["verdict"] == "NotApplicable"
    assert "degree 2" in payload["reason"]


def test_analyze_and_avoid_check(capsys):
    rc, out, _ = run(capsys,
                     ["analyze", "--map", "catalog:grenet_perm_3",
                      "--poly", "perm3", "--format", "json"], schema="analysis")
    assert rc == 0
    assert json.loads(out)["branch"] == "corank_one"
    rc, out, _ = run(capsys,
                     ["avoid-check", "--map", "catalog:grenet_perm_3",
                      "--poly", "perm3", "--mode", "probabilistic",
                      "--trials", "50", "--format", "json"], schema="avoidance")
    assert rc == 0
    assert json.loads(out)["avoids"] is not False


def test_grenet_writes_map(capsys, tmp_path):
    out_path = tmp_path / "grenet2.json"
    rc, out, _ = run(capsys,
                     ["grenet", "--n", "2", "--field", "Fp:5",
                      "--out", str(out_path), "--format", "json"], schema="grenet")
    payload = json.loads(out)
    assert rc == 0
    assert payload["size"] == 3
    assert payload["verified"] is True
    mapping = load_matrix_map(read_json(str(out_path)))
    assert mapping.size == 3
    assert mapping.field == Fp(5)


def test_catalog_listing_and_entry(capsys, tmp_path):
    rc, out, _ = run(capsys, ["catalog", "--format", "json"], schema="catalog")
    names = json.loads(out)["names"]
    assert rc == 0
    assert names == ["cubic_5x5", "quadric_2x2", "grenet_perm_2", "grenet_perm_3"]
    rc, text_out, _ = run(capsys, ["catalog"])
    assert text_out.strip().splitlines() == names
    out_path = tmp_path / "quadric.json"
    rc, out, _ = run(capsys,
                     ["catalog", "--name", "quadric_2x2", "--out", str(out_path),
                      "--format", "json"], schema="catalog")
    payload = json.loads(out)
    assert rc == 0
    assert payload["verified"] is True
    assert load_matrix_map(read_json(str(out_path))).size == 2


def test_coefficient_equations_outputs(capsys):
    rc, out, _ = run(capsys, ["coeff-eqs", "--format", "json"], schema="equations")
    payload = json.loads(out)
    assert rc == 0
    assert payload["count"] == 6
    assert payload["equations"][0]["rendered"] == "x*y^2: beta*X23 - gamma*X43 = 1"
    rc, out, _ = run(capsys,
                     ["coeff-eqs", "--template", "cubic_rank3_full",
                      "--filter", "deg3", "--format", "json"], schema="equations")
    assert rc == 0
    assert json.loads(out)["count"] == 16


def test_cubic_case_negative_by_design(capsys):
    rc, out, _ = run(capsys, ["cubic-case", "--format", "json"],
                     schema="case_analysis")
    payload = json.loads(out)
    assert rc == 1
    assert payload["six_matches_claim"] is False


def test_search_and_dc(capsys):
    rc, out, _ = run(capsys,
                     ["search", "--poly", "x*y", "--vars", "x,y",
                      "--field", "Fp:2", "--size", "2", "--format", "json"],
                     schema="search")
    payload = json.loads(out)
    assert rc == 0
    assert len(payload["witnesses"]) == 1
    witness = load_matrix_map(payload["witnesses"][0])
    from detcomp.matmap import symbolic_det
    assert str(symbolic_det(witness)) == "x*y"
    rc, out, _ = run(capsys,
                     ["dc", "--poly", "x*y", "--vars", "x,y", "--field", "Fp:2",
                      "--m-max", "3", "--format", "json"], schema="dc")
    payload = json.loads(out)
    assert rc == 0
    assert payload["value"] == 2
    assert payload["witness"] is not None


def test_search_exhausted_without_witness_exits_one(capsys):
    rc, out, _ = run(capsys,
                     ["search", "--poly", "x^3", "--vars", "x", "--field", "Fp:2",
                      "--size", "2", "--format", "json"], schema="search")
    payload = json.loads(out)
    assert rc == 1
    assert payload["exhausted"] is True
    assert payload["witnesses"] == []


def test_bertini_with_csv_export(capsys, tmp_path):
    csv_path = tmp_path / "hist.csv"
    rc, out, _ = run(capsys,
                     ["bertini", "--n", "2", "--m", "2", "--p", "11",
                      "--trials", "5", "--csv", str(csv_path),
                      "--format", "json"], schema="sample")
    payload = json.loads(out)
    assert rc == 0
    assert payload["violations"] == []
    assert csv_path.read_text().startswith("codim,count")


def test_cone_reduce_command(capsys, tmp_path):
    from detcomp.jsonio import dump_matrix_map

    vs = varset("x1", "x2", "x3")
    F = Fp(7)
    rows = [
        [Polynomial.parse(c, vars=vs, field=F) for c in row]
        for row in (("x1", "0"), ("0", "x1"))
    ]
    in_path = tmp_path / "map.json"
    out_path = tmp_path / "reduced.json"
    write_json(str(in_path), dump_matrix_map(AffineMatrixMap.from_rows(vs, F, rows)))
    rc, out, _ = run(capsys,
                     ["cone-reduce", "--map", str(in_path), "--out", str(out_path),
                      "--format", "json"], schema="cone_reduce")
    payload = json.loads(out)
    assert rc == 0
    assert payload["kernel_dim"] == 2
    assert payload["reduced_vars"] == ["y1"]
    assert len(load_matrix_map(read_json(str(out_path))).vars) == 1


# ----------------------------------------------------------------- failures


def test_syntax_error_exits_two(capsys):
    rc, _, err = run(capsys, ["parse", "--poly", "x + @", "--vars", "x"])
    assert rc == 2
    assert "parse error" in err


def test_input_errors_exit_two(capsys, tmp_path):
    rc, _, err = run(capsys, ["catalog", "--name", "nonsense"])
    assert rc == 2 and "unknown catalog entry" in err
    rc, _, err = run(capsys, ["parse", "--poly", "x", "--field", "Fp:4"])
    assert rc == 2 and "prime" in err
    rc, _, err = run(capsys,
                     ["verify", "--map", str(tmp_path / "missing.json"),
                      "--poly", "x"])
    assert rc == 2
    rc, _, err = run(capsys,
                     ["verify", "--map", "catalog:cubic_5x5", "--poly", "perm2"])
    assert rc == 2 and "lives in variables" in err


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["codim"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_resource_caps_exit_three(capsys):
    rc, _, err = run(capsys, ["codim", "--poly", "det2", "--max-pairs", "0"])
    assert rc == 3
    assert "resource cap" in err
    rc, out, _ = run(capsys,
                     ["dc", "--poly", "x*y", "--vars", "x,y", "--field", "Fp:3",
                      "--m-max", "3", "--max-candidates", "10",
                      "--format", "json"], schema="dc")
    assert rc == 3
    assert json.loads(out)["capped_at"] == 2


# ------------------------------------------------------------- configuration


def test_environment_caps_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("DETCOMP_MAX_PAIRS", "0")
    rc, _, _ = run(capsys, ["codim", "--poly", "det2"])
    assert rc == 3
    rc, _, _ = run(capsys, ["codim", "--poly", "det2", "--max-pairs", "100000"])
    assert rc == 0
    monkeypatch.setenv("DETCOMP_MAX_PAIRS", "abc")
    rc, _, err = run(capsys, ["codim", "--poly", "det2"])
    assert rc == 2
    assert "DETCOMP_MAX_PAIRS" in err


def test_deterministic_output_is_reproducible(capsys):
    argv = ["codim", "--poly", "cubic", "--format", "json", "--deterministic"]
    _, first, _ = run(capsys, argv, schema="codim")
    _, second, _ = run(capsys, argv, schema="codim")
    assert first == second
    assert "wall_time" not in first
    _, timed, _ = run(capsys, ["codim", "--poly", "cubic", "--format", "json"],
                      schema="codim")
    assert "wall_time" in timed


# byte-exact outputs recorded from the CLI; the second codim has an empty
# singular locus (dim -1, codim n + 1)
GOLDEN = [
    ("codim_perm3_Fp32003.json", "codim",
     ["codim", "--poly", "perm3", "--field", "Fp:32003"], 0),
    ("codim_xy_plus_1.json", "codim", ["codim", "--poly", "x*y + 1"], 0),
    ("avoid_check_cubic_5x5.json", "avoidance",
     ["avoid-check", "--map", "catalog:cubic_5x5", "--poly", "cubic"], 1),
    ("bertini_n3_m3_t5.json", "sample",
     ["bertini", "--n", "3", "--m", "3", "--trials", "5"], 0),
]


@pytest.mark.parametrize("name, schema, argv, code", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_json_outputs(capsys, name, schema, argv, code):
    rc, out, _ = run(capsys, argv + ["--format", "json", "--deterministic"], schema=schema)
    assert rc == code
    assert out == (DATA / name).read_text()


@pytest.mark.parametrize("argv", [
    ["verify", "--map", "catalog:quadric_2x2", "--poly", "x^2 + y*z + x",
     "--mode", "probabilistic", "--trials", "0"],
    ["verify", "--map", "catalog:quadric_2x2", "--poly", "x^2 + y*z + x",
     "--mode", "probabilistic", "--trials", "-3"],
    ["avoid-check", "--map", "catalog:cubic_5x5", "--poly", "cubic",
     "--mode", "probabilistic", "--trials", "0"],
    ["search", "--poly", "x*y", "--vars", "x,y", "--field", "Fp:2",
     "--size", "2", "--max-found", "0"],
])
def test_counts_below_one_are_a_usage_error(capsys, argv):
    flag = argv[-2]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("jobs", ["0", "-5", "two", "4"])
def test_jobs_below_one_is_a_usage_error(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["parse", "--poly", "x", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--max-pairs", "--max-basis", "--max-degree", "--time-limit"])
@pytest.mark.parametrize("value", ["-1", "nan"])
def test_negative_cap_flag_is_a_usage_error(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--poly", "perm3", "--field", "Fp:32003", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("name", ["MAX_PAIRS", "MAX_BASIS", "MAX_DEGREE", "TIME_LIMIT"])
@pytest.mark.parametrize("value", ["-1", "nan"])
def test_negative_cap_environment_is_an_input_error(capsys, monkeypatch, name, value):
    monkeypatch.setenv("DETCOMP_" + name, value)
    rc, _, err = run(capsys, ["certify", "--poly", "perm3", "--field", "Fp:32003"])
    assert rc == 2
    assert "DETCOMP_" + name in err
    # a valid flag still takes precedence over the environment
    flag = "--" + name.lower().replace("_", "-")
    rc, _, _ = run(capsys, ["certify", "--poly", "perm3", "--field", "Fp:32003", flag, "100000"])
    assert rc == 0


def test_zero_caps_are_valid_and_hit(capsys):
    rc, _, err = run(capsys, ["certify", "--poly", "perm3", "--field", "Fp:32003", "--time-limit", "0"])
    assert rc == 3 and "resource cap" in err
