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
from importlib import resources

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
    field = field_from_tag(data["field"])
    names = VarSet(tuple(data["vars"]))
    m = int(data["m"])
    entries = data["entries"]
    if len(entries) != m or any(len(row) != m for row in entries):
        raise ValueError(f"entries must form an {m} x {m} grid")
    rows = []
    for i, row in enumerate(entries):
        out = []
        for j, text in enumerate(row):
            p = parse_polynomial(str(text), vars=names, field=field)
            if p.degree() > 1:
                raise ValueError(
                    f"entry ({i + 1},{j + 1}) has degree {p.degree()}; affine entries only"
                )
            out.append(p)
        rows.append(tuple(out))
    return AffineMatrixMap(names, field, tuple(rows))


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_schema(name: str) -> dict:
    ref = resources.files("detcomp").joinpath("schemas", f"{name}.schema.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def validate_payload(payload: dict, schema_name: str) -> None:
    """Raise jsonschema.ValidationError if the payload breaks its contract."""
    import jsonschema

    jsonschema.validate(payload, load_schema(schema_name))
