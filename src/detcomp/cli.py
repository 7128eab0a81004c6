"""Command-line front end.

Exit codes: 0 verdict computed and affirmative, 1 verdict computed and
negative (mismatch, no bound, violation found), 2 usage or input error,
3 resource cap hit.

Caps and timeouts come from flags first, then DETCOMP_* environment
variables, then built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .expressions import (
    CATALOG_NAMES,
    MONOMIAL_FILTERS,
    catalog_get,
    cubic_case_analysis,
    cubic_rank3_template,
    extract_coefficient_equations,
    grenet_expression,
)
from .fields import Field, Fp, QQ, field_tag
from .groebner import DEFAULT_LIMITS, EngineLimits, ResourceCapError
from .jsonio import (
    dump_matrix_map,
    load_matrix_map,
    read_json,
    write_json,
)
from .matmap import generic_det_polynomial, perm_polynomial, verify_expression
from .parsing import PolynomialSyntaxError, parse_polynomial
from .poly import Polynomial, VarSet, mono_str, sum_of_products
from .search import (
    DEFAULT_CANDIDATE_CAP,
    EnumerationCapError,
    SearchSpec,
    dc_exact,
    search_report,
)
from .singularity import (
    analyze_expression,
    certify_lower_bound,
    check_avoids_singular_locus,
)

ENV_PREFIX = "DETCOMP_"


def _env(name: str, cast, default):
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError:
        raise ValueError(f"bad {ENV_PREFIX}{name}={raw!r}") from None


def build_limits(args, base: EngineLimits = DEFAULT_LIMITS) -> EngineLimits:
    """Flag > environment > base, per knob; a bad or negative cap is an input error.

    Flags are range-checked by argparse, so a negative value here came from
    the environment.
    """
    values = {}
    for knob, cast in (("max_pairs", int), ("max_basis", int),
                       ("max_degree", int), ("time_limit", float)):
        flag = getattr(args, knob)
        value = flag if flag is not None else _env(knob.upper(), cast, getattr(base, knob))
        if value is not None and not value >= 0:
            raise ValueError(f"{ENV_PREFIX}{knob.upper()} must be >= 0, got {value}")
        values[knob] = value
    return EngineLimits(**values)


def parse_field(text: str) -> Field:
    if text == "Q":
        return QQ
    if text.lower().startswith("fp:"):
        p = int(text[3:])
        return Fp(p)
    raise ValueError(f"field must be Q or Fp:<prime>, got {text!r}")


def resolve_poly(text: str, field: Field, vars: VarSet | None = None) -> Polynomial:
    """Inline polynomial string over vars (inferred when None), or one of the
    built-in aliases, which bring their own variables."""
    t = text.strip()
    if t in ("perm2", "perm3", "perm4"):
        return perm_polynomial(int(t[-1]), field)
    if t in ("det2", "det3"):
        return generic_det_polynomial(int(t[-1]), field)
    if t == "cubic":
        return parse_polynomial("x*y^2 + y*t^2 + z^3",
                                vars=VarSet(("x", "y", "z", "t")), field=field)
    if t.startswith("fermat:"):
        parts = t.split(":")
        if len(parts) != 3:
            raise ValueError("fermat alias is fermat:<degree>:<variables>")
        d, n = int(parts[1]), int(parts[2])
        names = VarSet(tuple(f"x{i + 1}" for i in range(n)))
        return sum_of_products(names, field, (),
                               [Polynomial.variable(names, field, i) ** d for i in range(n)])
    return parse_polynomial(t, vars=vars, field=field)


def load_map_arg(value: str):
    if value.startswith("catalog:"):
        mapping, _ = catalog_get(value[len("catalog:"):])
        return mapping
    return load_matrix_map(read_json(value))


def poly_arg(args) -> Polynomial:
    """--poly in the ring that --vars and --field fix."""
    vars = VarSet(tuple(args.vars.split(","))) if args.vars else None
    return resolve_poly(args.poly, parse_field(args.field), vars)


def map_and_poly_args(args):
    """(--map, --poly in the map's ring): the map fixes the field and the variables."""
    mapping = load_map_arg(args.map)
    f = resolve_poly(args.poly, mapping.field, mapping.vars)
    if tuple(f.vars) != tuple(mapping.vars):  # an alias brings its own
        raise ValueError(f"alias {args.poly.strip()!r} lives in variables {tuple(f.vars)},"
                         f" the map in {tuple(mapping.vars)}")
    return mapping, f


def emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def emit_map(args, payload: dict, mapping, text: str) -> None:
    """Emit a map command's payload with the map's document as "map", and
    write that same document to --out when one is given."""
    payload["map"] = dump_matrix_map(mapping)
    if args.out:
        write_json(args.out, payload["map"])
    emit(args, payload, text)


def point_text(point) -> str:
    """A witness point as (0, -27): each coordinate as the field prints it."""
    return "(" + ", ".join(map(str, point)) + ")"


# -- subcommand handlers ---------------------------------------------------------


def cmd_parse(args) -> int:
    f = poly_arg(args)
    payload = {
        "poly": str(f),
        "field": field_tag(f.field),
        "vars": list(f.vars),
        "degree": max(f.degree(), 0),
        "terms": len(f.terms),
        "homogeneous": f.is_homogeneous(),
    }
    emit(args, payload, str(f))
    return 0


def cmd_verify(args) -> int:
    mapping, f = map_and_poly_args(args)
    report = verify_expression(mapping, f, mode=args.mode,
                               trials=args.trials, seed=args.seed)
    lines = [f"mode: {report.mode}", f"ok: {report.ok}"]
    if report.witness_monomial:
        lines.append(f"witness monomial: {report.witness_monomial}")
    if report.witness_point:
        lines.append("witness point: " + point_text(report.witness_point))
    if report.mode == "probabilistic" and report.ok:
        lines.append(f"consistent after {report.trials} trials"
                     f" (failure bound {report.failure_bound})")
    emit(args, report.to_json(), "\n".join(lines))
    return 0 if report.ok else 1


def cmd_codim(args) -> int:
    f = poly_arg(args)
    cert = certify_lower_bound(f, limits=build_limits(args))
    n, codim, empty = len(f.vars), cert.codim, cert.singular_locus_empty
    payload = {
        "poly": str(f),
        "field": field_tag(f.field),
        "vars": list(f.vars),
        "n": n,
        "codim": codim,
        "dim": n - codim,
        "singular_locus_empty": empty,
    }
    if not args.deterministic:
        payload["wall_time"] = cert.wall_time
    text = f"codim(Sing(f)) = {codim}" + (" (singular locus empty)" if empty else "")
    emit(args, payload, text)
    return 0


def cmd_certify(args) -> int:
    f = poly_arg(args)
    cert = certify_lower_bound(f, limits=build_limits(args))
    emit(args, cert.to_json(deterministic=args.deterministic), cert.render_text())
    return 0 if cert.applicable else 1


def cmd_analyze(args) -> int:
    mapping, f = map_and_poly_args(args)
    report = analyze_expression(mapping, f)
    ok = (report.all_proof_checks_pass() if report.branch == "corank_one"
          else report.window_consistent)
    emit(args, report.to_json(), report.render_text())
    return 0 if ok else 1


def cmd_avoid_check(args) -> int:
    mapping, f = map_and_poly_args(args)
    report = check_avoids_singular_locus(
        mapping, f, mode=args.mode, trials=args.trials, seed=args.seed,
        limits=build_limits(args))
    lines = [f"mode: {report.mode}", f"avoids rank <= m-2 locus: {report.avoids}"]
    if report.witness_point is not None:
        lines.append("witness point: " + point_text(report.witness_point))
    for note in report.notes:
        lines.append(f"note: {note}")
    emit(args, report.to_json(), "\n".join(lines))
    if report.avoids is False:
        return 1
    return 0


def cmd_grenet(args) -> int:
    field = parse_field(args.field)
    mapping, _, report = grenet_expression(args.n, field)
    emit_map(args, {"n": args.n, "size": mapping.size, "verified": report.ok}, mapping,
             f"size {mapping.size} expression, exact: {report.ok}")
    return 0 if report.ok else 1


def cmd_catalog(args) -> int:
    if not args.name:
        payload = {"names": list(CATALOG_NAMES)}
        emit(args, payload, "\n".join(CATALOG_NAMES))
        return 0
    field = parse_field(args.field)
    mapping, target = catalog_get(args.name, field)  # raises unless verified exactly
    emit_map(args, {"name": args.name, "target": str(target), "verified": True}, mapping,
             f"{args.name}: size {mapping.size}, det = {target}, exact: True")
    return 0


def cmd_coeff_eqs(args) -> int:
    field = parse_field(args.field)
    template, target = cubic_rank3_template(
        field, include_lower_coeffs=args.template == "cubic_rank3_full")
    equations = extract_coefficient_equations(
        template, target, monomial_filter=MONOMIAL_FILTERS[args.filter])
    names = tuple(template.main_vars)
    payload = {
        "template": args.template,
        "monomial_filter": args.filter if args.filter != "none" else None,
        "count": len(equations),
        "equations": [
            {
                "monomial": mono_str(eq.monomial, names),
                "lhs": str(eq.lhs),
                "rhs": str(eq.rhs),
                "rendered": eq.render(),
            }
            for eq in equations
        ],
    }
    emit(args, payload, "\n".join(eq.render() for eq in equations))
    return 0


def cmd_cubic_case(args) -> int:
    report = cubic_case_analysis(
        limits=build_limits(args),
        include_full=args.include_full,
        include_complete=args.include_complete,
    )
    emit(args, report.to_json(), report.render_text())
    all_verdicts = (report.six_verdicts + report.full_verdicts
                    + report.complete_verdicts)
    if any(v.status == "cap" for v in all_verdicts):
        return 3
    return 0 if report.six_matches_claim else 1


def cmd_search(args) -> int:
    f = poly_arg(args)
    report = search_report(SearchSpec(f, args.size, max_candidates=args.max_candidates),
                           args.max_found)
    payload = report.to_json()
    payload["witnesses"] = [dump_matrix_map(w) for w in report.found]
    state = "exhausted" if report.exhausted else "stopped early"
    lines = [f"witness {k}:\n{witness}" for k, witness in enumerate(report.found, 1)]
    lines.append(f"{len(report.found)} witness(es) shown, search {state},"
                 f" {report.full_evaluations} full-size candidates decided")
    emit(args, payload, "\n".join(lines))
    return 0 if report.found else 1


def cmd_dc(args) -> int:
    f = poly_arg(args)
    result = dc_exact(f, args.m_max, max_candidates=args.max_candidates)
    payload = result.to_json()
    payload["witness"] = None if result.witness is None else dump_matrix_map(result.witness)
    emit(args, payload, f"dc = {result.render()}")
    if result.capped_at is not None:
        return 3
    return 0 if result.value is not None else 1


def cmd_bertini(args) -> int:
    from .explore import SAMPLE_TIME_LIMIT, sample_codim

    limits = build_limits(args, EngineLimits(time_limit=SAMPLE_TIME_LIMIT))
    report = sample_codim(args.n, args.m, args.p, args.trials, seed=args.seed,
                          sample_limits=limits)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
    emit(args, report.to_json(), report.render_text())
    return 1 if report.violations else 0


def cmd_cone_reduce(args) -> int:
    from .explore import cone_reduce

    mapping = load_map_arg(args.map)
    reduced, kernel_dim = cone_reduce(mapping)
    payload = {"kernel_dim": kernel_dim, "original_vars": list(mapping.vars),
               "reduced_vars": list(reduced.vars)}
    emit_map(args, payload, reduced,
             f"kernel dimension {kernel_dim}; reduced to {len(reduced.vars)} variable(s)")
    return 0


# -- argument wiring -------------------------------------------------------------


def _at_least(cast, minimum):
    """argparse type: cast the text, then reject values below minimum (or NaN)."""
    def parse(text):
        value = cast(text)
        if not value >= minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text!r}")
        return value
    parse.__name__ = cast.__name__  # argparse names the type in "invalid int value"
    return parse


def _add_common(sp, caps=True, timed=False):
    sp.add_argument("--format", choices=("text", "json"), default="text",
                    help="output rendering (default text)")
    if timed:  # only the codim and certify payloads carry a wall time
        sp.add_argument("--deterministic", action="store_true",
                        help="strip the wall-clock time from JSON output")
    if caps:
        count, seconds = _at_least(int, 0), _at_least(float, 0)
        sp.add_argument("--max-pairs", type=count, default=None,
                        help=f"S-pair cap (env {ENV_PREFIX}MAX_PAIRS)")
        sp.add_argument("--max-basis", type=count, default=None,
                        help=f"basis-size cap (env {ENV_PREFIX}MAX_BASIS)")
        sp.add_argument("--max-degree", type=count, default=None,
                        help=f"S-polynomial degree cap (env {ENV_PREFIX}MAX_DEGREE)")
        sp.add_argument("--time-limit", type=seconds, default=None,
                        help=f"wall-clock cap in seconds (env {ENV_PREFIX}TIME_LIMIT)")


_POLY_HELP = "polynomial string, or alias perm2/perm3/perm4, det2/det3, cubic, fermat:<d>:<n>"


def _add_field(sp):
    """--field, read by parse_field."""
    sp.add_argument("--field", default="Q", help="Q (default) or Fp:<prime>")


def _add_out(sp):
    """--out, read by emit_map."""
    sp.add_argument("--out", default=None, help="also write the map to this JSON file")


def _add_poly(sp):
    """--poly in the ring that --vars and --field fix (read by poly_arg)."""
    sp.add_argument("--poly", required=True, help=_POLY_HELP)
    sp.add_argument("--vars", default=None,
                    help="comma-separated variable names fixing the ring")
    _add_field(sp)


def _add_map_and_poly(sp):
    """--map and --poly in the map's ring (read by map_and_poly_args)."""
    sp.add_argument("--map", required=True, help="matrix-map JSON file or catalog:<name>")
    sp.add_argument("--poly", required=True, help=_POLY_HELP)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detcomp",
        description="exact certificates, verification and search for"
                    " determinantal expressions of polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse a polynomial and print its canonical form")
    _add_poly(sp)
    _add_common(sp, caps=False)
    sp.set_defaults(handler=cmd_parse)

    sp = sub.add_parser("verify", help="check det(L(x)) == f exactly or probabilistically")
    _add_map_and_poly(sp)
    sp.add_argument("--mode", choices=("exact", "probabilistic"), default="exact")
    sp.add_argument("--trials", type=_at_least(int, 1), default=100)
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp, caps=False)
    sp.set_defaults(handler=cmd_verify)

    sp = sub.add_parser("codim", help="codimension of the singular locus")
    _add_poly(sp)
    _add_common(sp, timed=True)
    sp.set_defaults(handler=cmd_codim)

    sp = sub.add_parser("certify", help="complexity lower bound from the codimension")
    _add_poly(sp)
    _add_common(sp, timed=True)
    sp.set_defaults(handler=cmd_certify)

    sp = sub.add_parser("analyze", help="structural analysis of a verified expression")
    _add_map_and_poly(sp)
    _add_common(sp, caps=False)
    sp.set_defaults(handler=cmd_analyze)

    sp = sub.add_parser("avoid-check",
                        help="does the image avoid the rank <= m-2 locus?")
    _add_map_and_poly(sp)
    sp.add_argument("--mode", choices=("exact", "probabilistic"), default="exact")
    sp.add_argument("--trials", type=_at_least(int, 1), default=1000)
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(handler=cmd_avoid_check)

    sp = sub.add_parser("grenet", help="branching-program expression of the permanent")
    sp.add_argument("--n", type=int, required=True, choices=(1, 2, 3, 4))
    _add_field(sp)
    _add_out(sp)
    _add_common(sp, caps=False)
    sp.set_defaults(handler=cmd_grenet)

    sp = sub.add_parser("catalog", help="list or emit built-in verified expressions")
    sp.add_argument("--name", default=None)
    _add_field(sp)
    _add_out(sp)
    _add_common(sp, caps=False)
    sp.set_defaults(handler=cmd_catalog)

    sp = sub.add_parser("coeff-eqs",
                        help="coefficient equations of the rank-3 cubic template")
    sp.add_argument("--template", choices=("cubic_rank3", "cubic_rank3_full"),
                    default="cubic_rank3")
    sp.add_argument("--filter", choices=tuple(MONOMIAL_FILTERS), default="deg3-x1")
    _add_field(sp)
    _add_common(sp, caps=False)
    sp.set_defaults(handler=cmd_coeff_eqs)

    sp = sub.add_parser("cubic-case",
                        help="feasibility case analysis of the coefficient equations")
    sp.add_argument("--include-full", action="store_true",
                    help="also decide the full degree-3 system (slow unrestricted case)")
    sp.add_argument("--include-complete", action="store_true",
                    help="also decide the all-degrees system (slowest)")
    _add_common(sp)
    sp.set_defaults(handler=cmd_cubic_case)

    sp = sub.add_parser("search", help="enumerate size-m expressions over a prime field")
    _add_poly(sp)
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--max-found", type=_at_least(int, 1), default=1)
    sp.add_argument("--max-candidates", type=int, default=DEFAULT_CANDIDATE_CAP)
    _add_common(sp, caps=False)
    sp.set_defaults(handler=cmd_search)

    sp = sub.add_parser("dc", help="exact determinantal complexity by exhaustion")
    _add_poly(sp)
    sp.add_argument("--m-max", type=int, required=True)
    sp.add_argument("--max-candidates", type=int, default=DEFAULT_CANDIDATE_CAP)
    _add_common(sp, caps=False)
    sp.set_defaults(handler=cmd_dc)

    sp = sub.add_parser("bertini", help="sample the codimension law on random linear maps")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--p", type=int, default=101)
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--csv", default=None, help="write the histogram to this CSV file")
    _add_common(sp)
    sp.set_defaults(handler=cmd_bertini)

    sp = sub.add_parser("cone-reduce", help="eliminate the kernel of a linear map")
    sp.add_argument("--map", required=True)
    _add_out(sp)
    _add_common(sp, caps=False)
    sp.set_defaults(handler=cmd_cone_reduce)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except EnumerationCapError as exc:
        print(f"enumeration cap: {exc}", file=sys.stderr)
        return 3
    except PolynomialSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
