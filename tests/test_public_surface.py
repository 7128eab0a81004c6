"""Every function, class and method of the package has a caller.

A name counts as called when it occurs as a code token in src/detcomp or in
bench/, outside its own definition line. Comments, docstrings and message
text do not count, but a string literal that is exactly the name does: the
benchmark's tracer rebinds functions by name. Exports in __init__.py do not
count, and neither do uses inside a definition that is itself uncalled, so a
helper that only dead code calls is flagged with it. Tests are no callers:
code that only tests reach is deleted, or moved into the test that needs it.
"""

import ast
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "detcomp"

# names kept without a caller, each with its reason
ALLOWED = {
    "load_schema": "reads a shipped output schema, for validate_payload",
    "validate_payload": "checks a payload against its shipped schema; the CLI tests run it on every JSON output",
}


def _modules():
    return [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]


def _definitions():
    """(path, first line, last line, name) of each module-level function and
    class, and of each method that is not a dunder."""
    for path in _modules():
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield path, node.lineno, node.end_lineno, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        yield path, item.lineno, item.end_lineno, item.name


def _uses():
    """(path, line, word) of each name token, and of each string literal that
    is exactly an identifier."""
    for path in _modules() + sorted((ROOT / "bench").glob("*.py")):
        with tokenize.open(path) as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type == tokenize.NAME:
                    yield path, tok.start[0], tok.string
                elif tok.type == tokenize.STRING:
                    literal = re.fullmatch(r"""(['"])(\w+)\1""", tok.string)
                    if literal:
                        yield path, tok.start[0], literal.group(2)


def uncalled(allowed=ALLOWED):
    defs = list(_definitions())
    def_sites = {(path, first, name) for path, first, _, name in defs}
    uses = [use for use in _uses() if use not in def_sites]
    dead: list = []
    while True:
        called = {
            word
            for path, line, word in uses
            if not any(path == p and first <= line <= last for p, first, last, _ in dead)
        }
        now = [d for d in defs if d[3] not in called and d[3] not in allowed]
        if now == dead:
            return dead
        dead = now


def test_every_public_name_has_a_caller():
    dead = [f"{path.name}:{first} {name}" for path, first, _, name in uncalled()]
    assert not dead, "defined but called nowhere in src/detcomp or bench/: " + ", ".join(dead)


def test_allowlist_names_exist():
    assert set(ALLOWED) <= {name for *_, name in _definitions()}


def test_allowlist_has_no_stale_entries():
    """Each allowed name is one the walk would flag without the allowlist."""
    flagged = {name for *_, name in uncalled(allowed=())}
    stale = sorted(set(ALLOWED) - flagged)
    assert not stale, "allowlisted but called: " + ", ".join(stale)
