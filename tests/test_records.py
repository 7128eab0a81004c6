"""The record classes' contract: the package's value types are plain classes
on fields.Record, immutable, and compared and hashed by class and fields."""

from fractions import Fraction

import pytest

from detcomp.explore import SampleReport
from detcomp.expressions import (
    CaseAnalysisReport, CaseVerdict, catalog_get, cubic_rank3_template, extract_coefficient_equations, grenet_abp,
)
from detcomp.fields import QQ, FieldElement, Fp, Record
from detcomp.groebner import EngineLimits, Ideal, StaircaseBound, buchberger
from detcomp.matmap import perm_polynomial, verify_expression
from detcomp.parsing import _tokenize, parse_polynomial
from detcomp.poly import VarSet, varset
from detcomp.search import SearchReport, SearchSpec, dc_exact
from detcomp.singularity import analyze_expression, certify_lower_bound, check_avoids_singular_locus


def _grenet_perm_2():
    return catalog_get("grenet_perm_2")


def _staircase_bound():
    xy = varset("x", "y")
    gens = tuple(parse_polynomial(g, xy) for g in ("x", "y"))
    return StaircaseBound(2, buchberger(Ideal(xy, QQ, gens)).stats)


# one instance of each formerly frozen record, from the call that builds it where one does
FROZEN = {
    "FieldElement": lambda: FieldElement(Fp(5), 3),
    "VarSet": lambda: varset("x", "y"),
    "_Token": lambda: _tokenize("x")[0],
    "EngineLimits": lambda: EngineLimits(max_pairs=10),
    "Ideal": lambda: Ideal(varset("x"), QQ, (parse_polynomial("x", varset("x")),)),
    "GroebnerStats": lambda: _staircase_bound().stats,
    "StaircaseBound": _staircase_bound,
    "GroebnerBasis": lambda: buchberger(Ideal(varset("x"), QQ, (parse_polynomial("x", varset("x")),))),
    "AffineMatrixMap": lambda: _grenet_perm_2()[0],
    "VerificationReport": lambda: verify_expression(*_grenet_perm_2()[:2]),
    "SampleReport": lambda: SampleReport(n=2, m=2, p=5, trials=1, seed=0, histogram=((2, 1),),
                                         degenerate=0, timeouts=0, violations=()),
    "ABP": lambda: grenet_abp(2),
    "ParamTemplate": lambda: cubic_rank3_template()[0],
    "Equation": lambda: extract_coefficient_equations(*cubic_rank3_template())[0],
    "CaseVerdict": lambda: CaseVerdict("a = 0", "infeasible", 1, 0),
    "CaseAnalysisReport": lambda: CaseAnalysisReport((), (), 0, (), True, "claim", None, None),
    "SearchSpec": lambda: SearchSpec(parse_polynomial("x*y", varset("x", "y"), Fp(2)), 2),
    "DcResult": lambda: dc_exact(parse_polynomial("x*y", varset("x", "y"), Fp(2)), 2),
    "Certificate": lambda: certify_lower_bound(perm_polynomial(2, QQ)),
    "AvoidanceReport": lambda: check_avoids_singular_locus(*_grenet_perm_2()[:2]),
    "AnalysisReport": lambda: analyze_expression(*catalog_get("grenet_perm_3")[:2]),
}


def test_every_record_class_is_covered():
    records = {cls.__name__ for cls in Record.__subclasses__() if cls.__module__.startswith("detcomp.")}
    assert records == set(FROZEN) | {"SearchReport"}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_reject_assignment(name):
    record = FROZEN[name]()
    assert type(record).__name__ == name
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        setattr(record, "extra", 1)
    with pytest.raises(AttributeError):
        delattr(record, first)


@pytest.mark.parametrize("make, fields", [
    (lambda: VarSet(("x", "y")), lambda r: (r.names,)),
    (lambda: FieldElement(QQ, Fraction(1, 2)), lambda r: (r.field, r.value)),
    (lambda: _grenet_perm_2()[0], lambda r: (r.vars, r.field, r.entries)),
], ids=["VarSet", "FieldElement", "AffineMatrixMap"])
def test_value_records_compare_and_hash_by_class_and_fields(make, fields):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(fields(a))
    assert {a: 1}[b] == 1
    # a record equals neither its fields nor a record of another class with the same fields
    twin = type("Twin", (Record,), {"__annotations__": dict.fromkeys(a._fields, object)})(*fields(a))
    assert twin._values() == a._values()
    assert a != fields(a) and a != twin and twin != a
    assert a not in [fields(a), twin, None, 0]


def test_search_reports_never_share_found():
    spec = FROZEN["SearchSpec"]()
    a, b = SearchReport(spec), SearchReport(spec)
    a.found.append("hit")
    assert b.found == [] and a.found is not b.found
    assert SearchReport(spec, found=None).found == []
    # a report is updated as the search runs, so it is mutable and unhashable
    a.blocks_pruned = 3
    assert a.blocks_pruned == 3 and a != b
    with pytest.raises(TypeError):
        hash(a)
