"""On-disk JSON formats and the shipped output schemas."""

from importlib import resources

import pytest

from detcomp.fields import QQ, Fp
from detcomp.jsonio import (
    dump_matrix_map,
    load_matrix_map,
    load_schema,
    read_json,
    validate_payload,
    write_json,
)
from detcomp.matmap import AffineMatrixMap
from detcomp.parsing import parse_polynomial
from detcomp.poly import varset

SCHEMA_NAMES = (
    "analysis", "avoidance", "case_analysis", "catalog", "certificate",
    "codim", "cone_reduce", "dc", "equations", "grenet", "matrix_map",
    "parse", "sample", "search", "verification",
)


def demo_map(field=QQ):
    vs = varset("x", "y")
    rows = [
        [parse_polynomial("x + 1", vars=vs, field=field),
         parse_polynomial("y", vars=vs, field=field)],
        [parse_polynomial("-y", vars=vs, field=field),
         parse_polynomial("x", vars=vs, field=field)],
    ]
    return AffineMatrixMap.from_rows(vs, field, rows)


def test_matrix_map_round_trip_rational():
    mapping = demo_map()
    data = dump_matrix_map(mapping)
    assert data["field"] == "Q"
    assert data["vars"] == ["x", "y"]
    assert data["m"] == 2
    back = load_matrix_map(data)
    assert back == mapping


def test_matrix_map_round_trip_modular():
    mapping = demo_map(field=Fp(7))
    data = dump_matrix_map(mapping)
    assert data["field"] == {"Fp": 7}
    assert load_matrix_map(data) == mapping


def test_matrix_map_load_rejects_higher_degree():
    data = dump_matrix_map(demo_map())
    data["entries"][0][0] = "x^2"
    with pytest.raises(ValueError, match="degree"):
        load_matrix_map(data)


def test_matrix_map_load_rejects_ragged_grid():
    data = dump_matrix_map(demo_map())
    data["entries"][1] = ["x"]
    with pytest.raises(ValueError, match="grid"):
        load_matrix_map(data)
    data = dump_matrix_map(demo_map())
    data["entries"] = data["entries"][:1]
    with pytest.raises(ValueError, match="grid"):
        load_matrix_map(data)


@pytest.mark.parametrize("changes", [
    None,
    {"vars": [1]},
    {"vars": "xy"},
    {"m": "2"},
    {"entries": 5},
], ids=["list", "vars_of_ints", "vars_string", "m_string", "entries_int"])
def test_matrix_map_load_rejects_malformed_documents(changes):
    """What the schema rejects raises ValueError, not TypeError, and a string
    of vars is not split into letters. None: a list in place of the object."""
    data = [1, 2] if changes is None else {**dump_matrix_map(demo_map()), **changes}
    with pytest.raises(ValueError):
        load_matrix_map(data)


def test_file_round_trip(tmp_path):
    path = tmp_path / "map.json"
    payload = dump_matrix_map(demo_map(field=Fp(5)))
    write_json(str(path), payload)
    text = path.read_text()
    assert text.endswith("\n")
    again = read_json(str(path))
    assert again == payload
    assert load_matrix_map(again) == demo_map(field=Fp(5))


def test_every_shipped_schema_loads():
    for name in SCHEMA_NAMES:
        schema = load_schema(name)
        assert schema["$schema"].startswith("http://json-schema.org/")
        assert schema["$id"] == f"detcomp/{name}"
        assert schema.get("type") == "object" or "oneOf" in schema


def test_shipped_schemas_are_exactly_the_known_set():
    shipped = resources.files("detcomp").joinpath("schemas").iterdir()
    names = {p.name.removesuffix(".schema.json") for p in shipped if p.name.endswith(".schema.json")}
    assert names == set(SCHEMA_NAMES)


def test_unknown_schema_name():
    with pytest.raises(FileNotFoundError):
        load_schema("nonsense")


def test_validate_payload_accepts_and_rejects():
    jsonschema = pytest.importorskip("jsonschema")
    payload = dump_matrix_map(demo_map())
    validate_payload(payload, "matrix_map")
    del payload["entries"]
    with pytest.raises(jsonschema.ValidationError):
        validate_payload(payload, "matrix_map")

