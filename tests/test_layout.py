"""The package's layout: product modules on arrays, the reference apart.

The paper-literal objects live in :mod:`zccs.reference`, which the tests
check the builders and the engine against.  No product module may import
it at module level, so a product call never depends on it; the one
product-side entry is ``CodeSet.codes``.  The reference takes nothing
from the engine but its direct count, ``correlate._count``, so what the
engine is checked against never runs the engine.  The public names stay
where they were: ``zccs.__all__`` re-exports each one from its defining
module.  No module checks with ``assert``, which ``python -O`` strips.
"""
import ast
import importlib
from pathlib import Path

import numpy as np

import zccs

SRC = Path(zccs.__file__).parent
PRODUCT = ("algebra", "boolfn", "construct", "correlate", "verify", "cli", "errors", "__main__")

# Every public name and the module that defines it.
PUBLIC = {
    "CycInt": "algebra", "cyclotomic_poly": "algebra", "is_prime": "algebra",
    "FunctionGraph": "boolfn", "GeneralizedBooleanFunction": "boolfn", "PathCertificate": "boolfn",
    "check_path_after_deletion": "boolfn", "graph_of": "boolfn", "min_blocks_exponent": "boolfn",
    "parse_gbf": "boolfn",
    "CodeLabel": "construct", "CodeSet": "construct", "CodeSetParams": "construct", "build_ccc": "construct",
    "build_zccs": "construct", "build_zccs_by_concatenation": "construct",
    "VerificationReport": "verify", "ZccsCheck": "verify", "check_ccc": "verify", "check_optimal": "verify",
    "check_zccs": "verify", "max_zcz": "verify", "verify_code_set": "verify",
    "Code": "reference", "CorrelationProfile": "reference", "PbfSpec": "reference", "RootSequence": "reference",
    "accf": "reference", "code_accf": "reference", "codeword_function": "reference", "pbf_sequence": "reference",
    "profile": "reference", "root_sum": "reference", "sequence_of": "reference",
}


def _reference_imports(module: str) -> list[str]:
    """Where ``module`` imports zccs.reference: the dotted name of each
    enclosing function or class, "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.ImportFrom):
                relative = child.level == 1 and (child.module == "reference" or child.module is None and any(
                    a.name == "reference" for a in child.names))
                if relative or child.module == "zccs.reference":
                    found.append(".".join(scope))
            elif isinstance(child, ast.Import) and any(a.name == "zccs.reference" for a in child.names):
                found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse((SRC / f"{module}.py").read_text()), ())
    return found


def test_every_module_is_either_product_or_reference():
    assert {p.stem for p in SRC.glob("*.py")} == set(PRODUCT) | {"__init__", "reference"}


def test_product_modules_reach_the_reference_only_through_codeset_codes():
    found = {module: _reference_imports(module) for module in PRODUCT}
    assert found == {module: ["CodeSet.codes"] if module == "construct" else [] for module in PRODUCT}
    assert _reference_imports("__init__") == [""]


def test_the_public_names_are_unchanged_and_come_from_their_modules():
    assert sorted(zccs.__all__) == sorted([*PUBLIC, "errors"])
    assert len(zccs.__all__) == 35
    assert zccs.errors is importlib.import_module("zccs.errors")
    for name, module in PUBLIC.items():
        defining = importlib.import_module(f"zccs.{module}")
        assert getattr(zccs, name) is getattr(defining, name), name
        assert getattr(zccs, name).__module__ == defining.__name__, name


def test_codes_reads_the_reference_objects():
    from zccs.reference import Code, RootSequence

    cs = zccs.build_ccc(zccs.parse_gbf("x0*x1", 2, 2), [])
    assert all(type(code) is Code for code in cs.codes)
    assert all(type(seq) is RootSequence for code in cs.codes for seq in code.sequences)
    assert np.shares_memory(cs.codes[1].sequences[0].exponents, cs.exponents)
    assert zccs.algebra.CycInt is zccs.CycInt


def test_the_reference_takes_only_the_direct_count_from_the_engine():
    imported = [
        alias.name
        for node in ast.walk(ast.parse((SRC / "reference.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.module in ("correlate", "zccs.correlate")
        for alias in node.names
    ]
    assert imported == ["_count"]


def test_no_module_checks_with_assert():
    # python -O strips assert statements, so every check must raise.
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
