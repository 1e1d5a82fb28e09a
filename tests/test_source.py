"""Rules on the package source itself."""

import ast
from pathlib import Path

import pytest

import g2frob


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so none may serve as a runtime check
    found = []
    for path in sorted(Path(g2frob.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


def test_no_module_imports_dataclasses_or_typing():
    # both cost start-up time on the `curve`/`torsion` path (dataclasses
    # imports inspect), for records a class with __slots__ writes as well
    found = []
    for path in sorted(Path(g2frob.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for n in ast.walk(tree):
            names = ([a.name for a in n.names] if isinstance(n, ast.Import)
                     else [n.module] if isinstance(n, ast.ImportFrom) and not n.level else [])
            found += [f"{path.name}:{n.lineno}" for name in names
                      if name.split(".")[0] in ("dataclasses", "typing")]
    assert found == []


def test_lazy_names_are_the_defining_modules_objects():
    # the names of formulas, verify and pcurvature, and the three submodules,
    # resolve on first access to the defining module's objects; an unknown
    # name is an AttributeError
    import importlib

    lazy = {"formulas": ["counts", "mu_r", "nagata_segre", "nu_r"],
            "verify": ["LemmaReport", "RigiditySolutionSet", "check_offdiag_closed_forms",
                       "check_two_sums", "recheck", "rigidity_scan"],
            "pcurvature": ["CoefficientTable", "ConnectionMatrix", "PCurvature",
                           "coefficient_table", "p_curvature_matrix", "p_curvature_rank1",
                           "second_fundamental_form"]}
    for module_name, names in lazy.items():
        module = getattr(g2frob, module_name)
        assert module is importlib.import_module(f"g2frob.{module_name}")
        for name in names:
            assert getattr(g2frob, name) is getattr(module, name), name
            assert name in dir(g2frob)
    from g2frob import counts

    assert counts is g2frob.formulas.counts
    with pytest.raises(AttributeError, match="no_such_name"):
        g2frob.no_such_name
