"""The on-disk JSON format for matrix maps, plus schema validation.

Matrix-map format:
    {"field": "Q" | {"Fp": p}, "vars": [names], "m": int,
     "entries": [[polynomial strings]]}
Entries are re-parsed in the header ring and rejected unless degree <= 1.

Schemas for every machine-readable output ship in the package under
schemas/; validate_payload checks a payload against one by name (requires
the optional jsonschema dependency, which the test extra installs).
"""

from __future__ import annotations

import json

from .fields import field_from_tag, field_tag
from .matmap import AffineMatrixMap
from .parsing import parse_polynomial
from .poly import VarSet


def dump_matrix_map(mapping: AffineMatrixMap) -> dict:
    return {
        "field": field_tag(mapping.field),
        "vars": list(mapping.vars),
        "m": mapping.size,
        "entries": [[str(p) for p in row] for row in mapping.entries],
    }


def load_matrix_map(data: dict) -> AffineMatrixMap:
    """The map a parsed matrix-map document describes; ValueError, naming the
    offending key, for a document of the wrong shape (see
    schemas/matrix_map.schema.json)."""
    if not isinstance(data, dict):
        raise ValueError("a matrix map is a JSON object")
    keys = sorted(data.keys() ^ {"field", "vars", "m", "entries"})
    if keys:
        raise ValueError(f"unexpected or missing key(s) {keys}:"
                         " a matrix map has field, vars, m and entries")
    field = field_from_tag(data["field"])
    names, m, entries = data["vars"], data["m"], data["entries"]
    if not _strings(names):
        raise ValueError("vars must be a list of strings")
    if type(m) is not int or m < 1:
        raise ValueError(f"m must be an integer >= 1, got {m!r}")
    if not isinstance(entries, list) or not all(map(_strings, entries)):
        raise ValueError("entries must be a list of lists of strings")
    if len(entries) != m or any(len(row) != m for row in entries):
        raise ValueError(f"entries must form an {m} x {m} grid")
    names = VarSet(tuple(names))
    return AffineMatrixMap(names, field, tuple(
        tuple(parse_polynomial(text, vars=names, field=field) for text in row) for row in entries))


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_schema(name: str) -> dict:
    from importlib import resources

    ref = resources.files("detcomp").joinpath("schemas", f"{name}.schema.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def validate_payload(payload: dict, schema_name: str) -> None:
    """Raise jsonschema.ValidationError if the payload breaks its contract."""
    import jsonschema

    jsonschema.validate(payload, load_schema(schema_name))
