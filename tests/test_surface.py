"""The public surface: a public definition in src is there because src uses
it, a module imports a name because it uses it, and the benchmark's tracer
finds the functions and parameters it binds."""

from __future__ import annotations

import ast
from pathlib import Path

import quasilab

SRC = Path(quasilab.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

# Public definitions that no src code reaches, only tests.  An oracle of
# that kind belongs in tests/oracles.py, so the set stays empty.
TEST_ONLY = set()


def unreferenced_public_definitions(src: Path) -> set[str]:
    """Public module-level functions and classes of src/*.py, and public
    methods of those classes, that no src code names, reads as an attribute
    or imports; __init__ is not counted."""
    defined, used = set(), set()
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defined |= {m.name for m in node.body
                            if isinstance(m, functions)
                            and not m.name.startswith("_")}
        defined |= {node.name for node in tree.body
                    if isinstance(node, (*functions, ast.ClassDef))
                    and not node.name.startswith("_")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    return defined - used


def test_no_new_test_only_public_definitions():
    assert unreferenced_public_definitions(SRC) == TEST_ONLY


def test_unreferenced_check_sees_methods(tmp_path):
    (tmp_path / "m.py").write_text(
        "class A:\n    def used(self): pass\n    def unused(self): pass\n"
        "    def _private(self): pass\n"
        "A().used()\n")
    assert unreferenced_public_definitions(tmp_path) == {"unused"}


def unused_imports(path: Path) -> list[str]:
    """Names that path's module-level imports bind and that the module never
    names; `from __future__` binds none."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - named)


def test_no_unused_imports():
    # __init__ modules import to re-export, so they are not scanned.
    found = {f"{path.parent.name}/{path.name}": unused_imports(path)
             for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")])
             if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def test_unused_import_check_sees_each_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "import os.path\nimport json as js\n"
                      "from math import pi, tau as turn\n"
                      "def f(x: pi) -> None:\n    os.sep\n")
    assert unused_imports(module) == ["js", "turn"]


# Layers whose spans bench/spans.py names from the traced call's arguments,
# each with the work count it derives from them (None: calls only).
TRACED_LAYERS = {
    "quasimode.synthesize_on_axes.2d": "terms",
    "quasimode.verify_joint_quasimode": "cells",
    "oscint.evaluate": "points",
    "fio.flattening_reports": None,
    "grids.ft_axis": "points",
    "experiments.write_csv": "bytes",
}


def test_tracer_binds_the_traced_names(tmp_path, monkeypatch):
    # The tracer binds each traced function's parameters by name; a renamed
    # function or parameter drops its layer or raises KeyError mid-run.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import spans
    from quasilab import experiments

    tracer = spans.Tracer()
    with tracer.active():
        # Through the module attributes, which the tracer patches.
        for name in ("sharp_largep_n2_k3", "fio_n2_k1", "wavelet_flat_n2_k3",
                     "vdc_d1", "contact_axis_k3"):
            experiments.run_experiment(
                experiments.parse_config(ROOT / "configs" / f"{name}.cfg"),
                tmp_path / name)
    totals = spans.layer_totals(tracer.spans)
    for layer, count in TRACED_LAYERS.items():
        assert totals.get(layer, {}).get("calls", 0) >= 1, layer
        assert count is None or count in totals[layer], layer
