"""Command-line front end: exit codes, output contracts, configuration."""

import argparse
import json
import math
import pathlib

import pytest

from detcomp.cli import main, make_parser
from detcomp.fields import Fp
from detcomp.jsonio import load_matrix_map, read_json, validate_payload, write_json
from detcomp.matmap import AffineMatrixMap
from detcomp.parsing import parse_polynomial
from detcomp.poly import varset

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


def test_verify_failure_bound_underflow_stays_positive(capsys):
    """(7/65)^600 is below the smallest positive float; the bound must not
    read 0.0, which would claim that no false accept is possible."""
    argv = ["verify", "--map", "catalog:grenet_perm_3", "--poly", "perm3",
            "--mode", "probabilistic", "--trials", "600"]
    rc, out, _ = run(capsys, argv + ["--format", "json"], schema="verification")
    payload = json.loads(out)
    assert rc == 0 and payload["ok"] is True
    assert payload["failure_bound"] == math.ulp(0.0) > 0
    assert payload["notes"] == ["false-accept probability <= (7/65)^600"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert f"consistent after 600 trials (failure bound {math.ulp(0.0)})" in out
    assert "failure bound 0.0" not in out


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


@pytest.mark.parametrize("document, named", [
    ({"field": "Q", "vars": ["x"], "m": 1, "entries": 5}, "entries"),
    ([1, 2], "object"),
    ({"field": "Q", "vars": [1], "m": 1, "entries": [["x"]]}, "vars"),
    ({"field": "Q", "vars": "xy", "m": 1, "entries": [["x"]]}, "vars"),
    ({"field": {"Fp": "7"}, "vars": ["x"], "m": 1, "entries": [["x"]]}, "field"),
    ({"field": {"Fp": 7.9}, "vars": ["x"], "m": 1, "entries": [["x"]]}, "field"),
    ({"field": {"Fp": True}, "vars": ["x"], "m": 1, "entries": [["x"]]}, "field"),
    ({"field": "Q", "vars": ["x"], "m": 1, "entries": [[3]]}, "entries"),
    ({"field": "Q", "vars": ["x"], "m": 1, "entries": [["x"]], "note": "x"}, "note"),
], ids=["entries_int", "list", "vars_of_ints", "vars_string", "prime_string", "prime_float",
        "prime_bool", "entry_int", "extra_key"])
def test_verify_malformed_map_exits_two(capsys, tmp_path, document, named):
    """A map file of the wrong shape is an input error (exit 2), not a
    negative verdict (exit 1) or a success, for every command that reads
    one, and the message names the offending key."""
    path = tmp_path / "malformed.json"
    write_json(str(path), document)
    for argv in (["verify", "--poly", "x"], ["analyze", "--poly", "x"],
                 ["avoid-check", "--poly", "x"], ["cone-reduce"]):
        rc, out, err = run(capsys, argv + ["--map", str(path)])
        assert rc == 2 and not out
        assert err.startswith("error:") and named in err


@pytest.mark.parametrize("field", ["Q", {"Fp": 7}], ids=["Q", "F_7"])
def test_avoid_check_probabilistic_witness_is_printed_as_field_values(capsys, tmp_path, field):
    """x in one corner of a 2x2 map, zeros elsewhere: the rank drops to 0
    where x = 0, which the seeded sampler meets. The verdict is negative
    (exit 1), and the witness coordinates are strings in JSON."""
    path = tmp_path / "corner.json"
    write_json(str(path), {"field": field, "vars": ["x", "y"], "m": 2,
                           "entries": [["x", "0"], ["0", "0"]]})
    argv = ["avoid-check", "--map", str(path), "--poly", "0", "--mode", "probabilistic"]
    rc, out, _ = run(capsys, argv + ["--format", "json"], schema="avoidance")
    payload = json.loads(out)
    assert rc == 1
    assert payload["avoids"] is False
    point = payload["witness_point"]
    assert len(point) == 2 and all(isinstance(x, str) for x in point)
    rc, out, _ = run(capsys, argv)
    assert rc == 1
    assert f"witness point: ({', '.join(point)})" in out


def test_zero_denominator_exits_two(capsys, tmp_path):
    for argv in (["parse", "--poly", "1/0*x"],
                 ["parse", "--poly", "1/7*x + y", "--field", "Fp:7"]):
        rc, out, err = run(capsys, argv)
        assert rc == 2 and not out
        assert "parse error" in err and "divides by zero" in err
    path = tmp_path / "map.json"
    write_json(str(path), {"field": {"Fp": 7}, "vars": ["x", "y"], "m": 1,
                           "entries": [["1/7*x + y"]]})
    rc, out, err = run(capsys, ["verify", "--map", str(path), "--poly", "x + y"])
    assert rc == 2 and not out
    assert "divides by zero" in err


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
    rc, out, _ = run(capsys, ["search", "--poly", "x*y", "--vars", "x,y",
                              "--field", "Fp:2", "--size", "2"])
    assert out.splitlines()[-1] == (
        "1 witness(es) shown, search stopped early,"
        f" {payload['full_evaluations']} full-size candidates decided")
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


def test_non_monic_targets_are_found(capsys):
    # The scalar of a hit is det[key] / f[key]: reading it as det[key] alone
    # turned every target whose key coefficient is not 1 into a false
    # nonexistence proof (dc = > 2 for 2*x*y, though x*y has dc 2).
    from detcomp.matmap import symbolic_det

    rc, out, _ = run(capsys,
                     ["dc", "--poly", "2*x*y", "--vars", "x,y", "--field", "Fp:3",
                      "--m-max", "2", "--format", "json"], schema="dc")
    payload = json.loads(out)
    assert rc == 0
    assert payload["value"] == 2
    assert str(symbolic_det(load_matrix_map(payload["witness"]))) == "2*x*y"
    rc, out, _ = run(capsys,
                     ["search", "--poly", "2*x", "--vars", "x", "--field", "Fp:3",
                      "--size", "1", "--format", "json"], schema="search")
    payload = json.loads(out)
    assert rc == 0
    assert [str(symbolic_det(load_matrix_map(w))) for w in payload["witnesses"]] == ["2*x"]


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
        [parse_polynomial(c, vars=vs, field=F) for c in row]
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
    rc, out, err = run(capsys, ["search", "--poly", "x*y", "--vars", "x,y", "--field", "Fp:2",
                                "--size", "2", "--max-candidates", "10"])
    assert rc == 3 and out == ""
    assert "enumeration cap: estimated 768 candidates exceeds cap 10" in err


def test_cubic_case_cap_exits_three(capsys):
    rc, out, _ = run(capsys, ["cubic-case", "--max-pairs", "0", "--format", "json"],
                     schema="case_analysis")
    payload = json.loads(out)
    assert rc == 3
    assert [v["status"] for v in payload["six_verdicts"]] == ["cap"] * 3
    assert payload["six_matches_claim"] is None


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


class ReadRecorder(argparse.Namespace):
    """A namespace that records each attribute read once reads is set."""

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


def test_every_flag_is_read(capsys, tmp_path):
    """Each subcommand's handler reads every option its parser accepts, so
    no option is parsed and then ignored. Each argv takes the branch that
    reads the most: catalog with a name, search that finds a witness."""
    out = str(tmp_path / "out.json")
    argvs = [
        ["parse", "--poly", "x*y", "--vars", "x,y", "--field", "Fp:5"],
        ["verify", "--map", "catalog:quadric_2x2", "--poly", "x^2 + y*z",
         "--mode", "probabilistic", "--trials", "5"],
        ["codim", "--poly", "x*y + 1"],
        ["certify", "--poly", "fermat:3:3"],
        ["analyze", "--map", "catalog:cubic_5x5", "--poly", "cubic"],
        ["avoid-check", "--map", "catalog:grenet_perm_3", "--poly", "perm3",
         "--mode", "probabilistic", "--trials", "5"],
        ["grenet", "--n", "2", "--out", out],
        ["catalog", "--name", "quadric_2x2", "--out", out],
        ["coeff-eqs"],
        ["cubic-case"],
        ["search", "--poly", "x*y", "--vars", "x,y", "--field", "Fp:2", "--size", "2"],
        ["dc", "--poly", "x*y", "--vars", "x,y", "--field", "Fp:2", "--m-max", "2"],
        ["bertini", "--n", "2", "--m", "2", "--p", "11", "--trials", "2",
         "--csv", str(tmp_path / "hist.csv")],
        ["cone-reduce", "--map", "catalog:quadric_2x2", "--out", out],
    ]
    parser = make_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert [argv[0] for argv in argvs] == list(subparsers)
    unread = []
    for argv in argvs:
        args = parser.parse_args(argv, namespace=ReadRecorder())
        args.reads = set()
        args.handler(args)
        unread += [(argv[0], action.option_strings[0])
                   for action in subparsers[argv[0]]._actions
                   if not isinstance(action, argparse._HelpAction)
                   and action.dest not in args.reads]
    capsys.readouterr()
    assert unread == [], f"options no handler reads: {unread}"


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--map", "catalog:quadric_2x2", "--poly", "x^2 + y*z", "--field", "Fp:7"],
     "--field"),
    (["search", "--poly", "x*y", "--vars", "x,y", "--field", "Fp:2", "--size", "2",
      "--deterministic"], "--deterministic"),
    (["parse", "--poly", "x", "--jobs", "4"], "--jobs"),
])
def test_unread_options_are_rejected(capsys, argv, flag):
    """A map fixes the field, search carries no wall time to strip, and
    detcomp runs in one process."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and flag in err


# byte-exact outputs recorded from the CLI; the second codim has an empty
# singular locus (dim -1, codim n + 1), and analyze takes the lower-rank branch.
# The search outputs were recorded with one first-row expansion per candidate.
# The failing probabilistic verify and avoid-check hold witness points, whose
# coordinates JSON writes as strings.
GOLDEN = [
    ("codim_perm3_Fp32003.json", "codim",
     ["codim", "--poly", "perm3", "--field", "Fp:32003", "--deterministic"], 0),
    ("codim_xy_plus_1.json", "codim", ["codim", "--poly", "x*y + 1", "--deterministic"], 0),
    ("avoid_check_cubic_5x5.json", "avoidance",
     ["avoid-check", "--map", "catalog:cubic_5x5", "--poly", "cubic"], 1),
    ("bertini_n3_m3_t5.json", "sample",
     ["bertini", "--n", "3", "--m", "3", "--trials", "5"], 0),
    ("bertini_n4_m4_t3_s7.json", "sample",
     ["bertini", "--n", "4", "--m", "4", "--trials", "3", "--seed", "7"], 0),
    ("cubic_case.json", "case_analysis", ["cubic-case"], 1),
    ("coeff_eqs_cubic_rank3.json", "equations", ["coeff-eqs"], 0),
    ("coeff_eqs_full_deg3.json", "equations",
     ["coeff-eqs", "--template", "cubic_rank3_full", "--filter", "deg3"], 0),
    ("analyze_cubic_5x5.json", "analysis",
     ["analyze", "--map", "catalog:cubic_5x5", "--poly", "cubic"], 0),
    ("analyze_grenet_perm_3.json", "analysis",
     ["analyze", "--map", "catalog:grenet_perm_3", "--poly", "perm3"], 0),
    ("avoid_check_grenet_perm_3.json", "avoidance",
     ["avoid-check", "--map", "catalog:grenet_perm_3", "--poly", "perm3"], 0),
    ("dc_x2_plus_yz_Fp3.json", "dc",
     ["dc", "--poly", "x^2 + y*z", "--vars", "x,y,z", "--field", "Fp:3", "--m-max", "2"], 0),
    ("catalog_quadric_2x2.json", "catalog", ["catalog", "--name", "quadric_2x2"], 0),
    ("bertini_n2_m2_p11_t5.json", "sample",
     ["bertini", "--n", "2", "--m", "2", "--p", "11", "--trials", "5",
      "--time-limit", "10"], 0),
    ("search_xy_plus_zt_Fp2_m2.json", "search",
     ["search", "--poly", "x*y + z*t", "--vars", "x,y,z,t", "--field", "Fp:2",
      "--size", "2", "--max-found", "100"], 0),
    ("search_x3_Fp2_m3.json", "search",
     ["search", "--poly", "x^3", "--vars", "x", "--field", "Fp:2", "--size", "3",
      "--max-found", "1000"], 0),
    ("search_xy_plus_1_Fp2_m2.json", "search",
     ["search", "--poly", "x*y + 1", "--vars", "x,y", "--field", "Fp:2", "--size", "2"], 0),
    ("grenet_n3.json", "grenet", ["grenet", "--n", "3"], 0),
    ("cone_reduce_quadric_2x2.json", "cone_reduce",
     ["cone-reduce", "--map", "catalog:quadric_2x2"], 0),
    ("verify_cubic_5x5.json", "verification",
     ["verify", "--map", "catalog:cubic_5x5", "--poly", "cubic"], 0),
    ("verify_quadric_2x2_x2_probabilistic.json", "verification",
     ["verify", "--map", "catalog:quadric_2x2", "--poly", "x^2", "--mode", "probabilistic",
      "--trials", "5"], 1),
    ("avoid_check_corner_2x2_probabilistic.json", "avoidance",
     ["avoid-check", "--map", str(DATA / "corner_2x2.json"), "--poly", "0",
      "--mode", "probabilistic"], 1),
]


@pytest.mark.parametrize("name, schema, argv, code", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_json_outputs(capsys, name, schema, argv, code):
    rc, out, _ = run(capsys, argv + ["--format", "json"], schema=schema)
    assert rc == code
    assert out == (DATA / name).read_text()


TEXT_GOLDEN = [
    ("cubic_case.txt", ["cubic-case"], 1),
    ("analyze_cubic_5x5.txt", ["analyze", "--map", "catalog:cubic_5x5", "--poly", "cubic"], 0),
    ("analyze_grenet_perm_3.txt",
     ["analyze", "--map", "catalog:grenet_perm_3", "--poly", "perm3"], 0),
]


@pytest.mark.parametrize("name, argv, code", TEXT_GOLDEN, ids=[g[0] for g in TEXT_GOLDEN])
def test_golden_text_outputs(capsys, name, argv, code):
    rc, out, _ = run(capsys, argv)
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


@pytest.mark.parametrize("argv, message", [
    (["search", "--poly", "x*y", "--vars", "x,y", "--field", "Fp:2", "--size", "2",
      "--max-candidates", "-1"], "max_candidates"),
    (["dc", "--poly", "x*y", "--vars", "x,y", "--field", "Fp:2", "--m-max", "2",
      "--max-candidates", "-1"], "max_candidates"),
    (["dc", "--poly", "x*y", "--vars", "x,y", "--field", "Fp:2", "--m-max", "0"], "m_max"),
])
def test_out_of_range_search_bounds_are_input_errors(capsys, argv, message):
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert message in err
    assert out == ""


def test_grenet_and_catalog_compute_one_determinant(capsys, monkeypatch):
    import detcomp.expressions
    import detcomp.matmap

    sizes = []
    original = detcomp.matmap.symbolic_det

    def counted(mapping, *args, **kwargs):
        sizes.append(mapping.size)
        return original(mapping, *args, **kwargs)

    monkeypatch.setattr(detcomp.matmap, "symbolic_det", counted)
    monkeypatch.setattr(detcomp.expressions, "symbolic_det", counted)
    rc, out, _ = run(capsys, ["grenet", "--n", "4", "--format", "json"])
    assert rc == 0 and json.loads(out)["verified"] is True
    assert sizes == [15]
    sizes.clear()
    rc, out, _ = run(capsys, ["catalog", "--name", "grenet_perm_3", "--format", "json"])
    assert rc == 0 and json.loads(out)["verified"] is True
    assert sizes == [7]


def test_dc_over_q_is_an_input_error_even_when_the_degree_bound_settles_it(capsys):
    # x^3 needs size 3, so m-max 2 never reaches the search itself
    for poly, names in (("x^3", "x"), ("x*y", "x,y")):
        rc, out, err = run(capsys, ["dc", "--poly", poly, "--vars", names, "--m-max", "2",
                                    "--format", "json"])
        assert rc == 2
        assert "search runs over prime fields only" in err
        assert out == ""


def test_dc_searches_once(capsys, monkeypatch):
    import detcomp.search

    calls = []
    original = detcomp.search.search_expressions

    def counted(*args, **kwargs):
        calls.append(args[0].size)
        return original(*args, **kwargs)

    monkeypatch.setattr(detcomp.search, "search_expressions", counted)
    f = parse_polynomial("x^2 + y*z", vars=varset("x", "y", "z"), field=Fp(3))
    detcomp.search.dc_exact(f, 2)
    library_calls = len(calls)
    calls.clear()
    rc, _, _ = run(capsys, ["dc", "--poly", "x^2 + y*z", "--vars", "x,y,z",
                            "--field", "Fp:3", "--m-max", "2"])
    assert rc == 0
    assert 0 < len(calls) <= library_calls


def test_analyze_takes_no_caps(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--map", "catalog:cubic_5x5", "--poly", "cubic", "--max-pairs", "0"])
    assert exc.value.code == 2
    assert "--max-pairs" in capsys.readouterr().err


def test_bertini_caps_apply_per_sample(capsys, monkeypatch):
    argv = ["bertini", "--n", "2", "--m", "2", "--p", "11", "--trials", "5",
            "--format", "json"]
    rc, out, _ = run(capsys, argv + ["--max-pairs", "0"], schema="sample")
    payload = json.loads(out)
    assert rc == 0
    assert payload["timeouts"] == 5 - payload["degenerate"] > 0
    assert payload["histogram"] == {}
    monkeypatch.setenv("DETCOMP_MAX_PAIRS", "-1")
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert "DETCOMP_MAX_PAIRS" in err
    assert out == ""


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
