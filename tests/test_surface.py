"""The public surface: a public definition in src is there because src uses
it, a module imports a name because it uses it, the benchmark finds what it
calls and its tracer the functions and parameters it binds, and the runs
agree with the benchmark's stored references."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import quasilab
from quasilab import experiments, oscint

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


def unread_private_names(src: Path) -> set[str]:
    """"module.name" for each private module-level function, class or
    assigned name of src/*.py that no src module reads.  A name is read when
    its own module loads it, or when another module imports it or reads an
    attribute of that name."""
    defined, loaded, reached = {}, {}, {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names |= {n.id for t in targets for n in ast.walk(t)
                          if isinstance(n, ast.Name)}
        module = path.stem
        defined[module] = {n for n in names
                           if n.startswith("_") and not n.startswith("__")}
        loaded[module] = {n.id for n in ast.walk(tree)
                          if isinstance(n, ast.Name)
                          and isinstance(n.ctx, ast.Load)}
        reached[module] = (
            {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
            | {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
               for a in n.names})
    return {f"{module}.{name}" for module, names in defined.items()
            for name in names - loaded[module]
            if not any(name in reached[other] for other in reached
                       if other != module)}


def test_no_unread_private_names():
    assert unread_private_names(SRC) == set()


def test_unread_private_name_check_sees_each_form(tmp_path):
    (tmp_path / "a.py").write_text(
        "import b\nfrom b import _imported\n"
        "_READ = 1\n_UNREAD = 2\n_T1, _T2 = 1, 2\n_ann: int = 0\n"
        "__dunder__ = 0\n"
        "def _called():\n    return _READ + _T1\n"
        "def _unused():\n    pass\n"
        "class _Unused:\n    pass\n"
        "def public():\n    return _called(), b._as_attribute\n")
    (tmp_path / "b.py").write_text(
        "_imported = 1\n_as_attribute = 2\n_stored = 3\n")
    assert unread_private_names(tmp_path) == {
        "a._UNREAD", "a._T2", "a._ann", "a._unused", "a._Unused",
        "b._stored"}


# Fields that src computes and fills in but no run reads or reports yet.
# A run that reports one drops it from the set, and a new field that
# nothing reads fails the scan.
COMPUTED_NOT_REPORTED = {
    "LpNorm.tail_estimate", "ScalingReport.slope_stderr",
    "EvalResult.error_estimate", "VdcReport.reason",
    "VdcReport.critical_point", "VdcReport.hess_det", "VdcReport.admissible",
    "VdcReport.slope_stderr", "KernelValue.b_overlap",
    "CurvatureReport.hessian", "GraphForm.xi1_coeff",
    "MixedPartialReport.offending"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
            return True
    return False


def unread_record_fields(src: Path) -> set[str]:
    """"Class.field" for each public field of a dataclass of src/*.py that
    no src code reads.  A field is read where src code loads an attribute
    of its name, or names it in a string constant, as KEY_SECTIONS names
    the sections that parse_config reads through getattr.  The scan
    matches by name alone, so a field escapes it when an attribute of the
    same name is loaded anywhere in src: a field named `mean` would, since
    analysis loads numpy's `.mean`."""
    fields, read = set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields |= {(node.name, item.target.id) for item in node.body
                           if isinstance(item, ast.AnnAssign)
                           and isinstance(item.target, ast.Name)
                           and not item.target.id.startswith("_")}
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                                ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return {f"{cls}.{name}" for cls, name in fields if name not in read}


def test_no_new_unread_record_fields():
    assert unread_record_fields(SRC) == COMPUTED_NOT_REPORTED


def test_unread_record_field_check_sees_each_form(tmp_path):
    (tmp_path / "m.py").write_text(
        "import dataclasses\nfrom dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass A:\n    read: int\n    unread: int\n"
        "    named: int\n    _private: int\n    stored: int\n"
        "@dataclasses.dataclass\nclass B:\n    unread: int\n"
        "class Plain:\n    unread: int\n"
        "def f(a, b):\n    a.stored = 1\n"
        "    return a.read, getattr(a, 'named'), b.other\n")
    assert unread_record_fields(tmp_path) == {"A.unread", "A.stored",
                                              "B.unread"}


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


def resolve(dotted: str):
    """The module or module attribute that a dotted quasilab name names."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module, _, attr = dotted.rpartition(".")
        return getattr(resolve(module), attr)


def bench_uses(bench: Path) -> tuple[set[str], set[tuple[str, str]]]:
    """What bench/*.py takes from quasilab by name: the dotted name of every
    quasilab module it imports and of every attribute it reads on one, and
    (function, attribute) for every attribute it reads on a name that the
    same function binds to the result of calling such a function."""
    names, results = set(), set()
    for path in sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "quasilab":
                        names.add(a.name)
                        modules[a.asname or "quasilab"] = (
                            a.name if a.asname else "quasilab")
            elif (isinstance(node, ast.ImportFrom) and node.module
                  and node.module.split(".")[0] == "quasilab"):
                for a in node.names:
                    modules[a.asname or a.name] = f"{node.module}.{a.name}"
        names |= set(modules.values())

        def dotted(node) -> str | None:
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                return f"{modules[node.value.id]}.{node.attr}"
            return None

        names |= {dotted(node) for node in ast.walk(tree) if dotted(node)}
        for scope in ast.walk(tree):
            if not isinstance(scope, ast.FunctionDef):
                continue
            calls = {node.targets[0].id: dotted(node.value.func)
                     for node in ast.walk(scope)
                     if isinstance(node, ast.Assign) and len(node.targets) == 1
                     and isinstance(node.targets[0], ast.Name)
                     and isinstance(node.value, ast.Call)
                     and dotted(node.value.func)}
            results |= {(calls[node.value.id], node.attr)
                        for node in ast.walk(scope)
                        if isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in calls}
    return names, results


def test_bench_calls_resolve(tmp_path):
    # bench/worker.py calls into quasilab by name and reads the result of
    # run_experiment; a name deleted or renamed in src fails every
    # benchmark run, so each one must still resolve.
    names, results = bench_uses(ROOT / "bench")
    assert {"quasilab.cli", "quasilab.experiments.parse_config",
            "quasilab.experiments.run_experiment",
            "quasilab.wavelets.make_mother_wavelet"} <= names
    for name in sorted(names):
        resolve(name)
    assert results == {("quasilab.experiments.run_experiment", "passed")}
    result = experiments.run_experiment(
        experiments.parse_config(ROOT / "configs" / "delta_curves_n3.cfg"),
        tmp_path)
    assert result.passed is True


def test_bench_use_scan_sees_each_form(tmp_path):
    (tmp_path / "m.py").write_text(
        "import quasilab.cli\nfrom quasilab import experiments as ex\n"
        "def f():\n    r = ex.run_experiment(1, 2)\n    return r.passed\n"
        "def g(r):\n    return r.keys, ex.gone\n")
    assert bench_uses(tmp_path) == (
        {"quasilab.cli", "quasilab", "quasilab.experiments",
         "quasilab.experiments.run_experiment", "quasilab.experiments.gone"},
        {("quasilab.experiments.run_experiment", "passed")})
    with pytest.raises(AttributeError):
        resolve("quasilab.experiments.gone")


def test_declared_even_axes_are_even(tmp_path, monkeypatch):
    # The quadrature sums one half of each axis an integrand declares even
    # (oscint._slabs), so a wrong declaration changes the value without a
    # sign.  Every integrand the four shipped oscint configs and a TT* run
    # with an odd symbol hand evaluate must have a phase and an amplitude
    # that are even, to rounding, in each declared axis, on a seeded probe
    # mesh of the box and of the amplitude's support cube within it.
    seen = []
    evaluate = oscint.evaluate

    def spy(integrand, h):
        seen.append((integrand, h))
        return evaluate(integrand, h)

    monkeypatch.setattr(oscint, "evaluate", spy)
    cubic = tmp_path / "ttstar_cubic.cfg"
    cubic.write_text((ROOT / "configs" / "ttstar_n2.cfg").read_text()
                     .replace("a1 = x1^2", "a1 = x1^3"))
    for config in [ROOT / "configs" / f"{name}.cfg" for name in (
            "vdc_d1", "vdc_d1_resonant", "vdc_d2", "ttstar_n2")] + [cubic]:
        experiments.run_experiment(experiments.parse_config(config),
                                   tmp_path / config.stem)
    rng = np.random.default_rng(45)
    declared = 0
    for integrand, h in seen:
        lo, hi = np.array(integrand.box).T
        reach = min(integrand.amplitude.support_radius(h), float(hi.min()))
        pts = np.concatenate([rng.uniform(lo, hi, (256, integrand.d)),
                              rng.uniform(-reach, reach, (256, integrand.d))])
        phase = integrand.phase(pts)
        amp = integrand.amplitude.values(pts, h)
        assert np.abs(amp).max() > 0
        for k in integrand.even:
            flipped = pts.copy()
            flipped[:, k] *= -1.0
            np.testing.assert_allclose(
                integrand.phase(flipped), phase, rtol=1e-12,
                atol=1e-12 * np.abs(phase).max())
            np.testing.assert_allclose(
                integrand.amplitude.values(flipped, h), amp, rtol=1e-12,
                atol=1e-12 * np.abs(amp).max())
            declared += 1
    assert declared > 0
    assert {i.even for i, _ in seen} == {frozenset(), frozenset({0}),
                                         frozenset({0, 1})}


REFERENCE = ROOT / "bench" / "reference"


@pytest.mark.parametrize("stem", sorted(p.name for p in REFERENCE.iterdir()))
def test_outputs_match_bench_reference(tmp_path, monkeypatch, stem):
    # The benchmark's reference check on each shipped config and each n = 3
    # sweep, written as bench/workloads.py writes them at its default seed.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import check
    import workloads

    configs = [path for name in ("shipped-configs", "lp-sweep-n3")
               for path in workloads.WORKLOADS[name].write_configs(
                   ROOT, workloads.DEFAULT_SEED, tmp_path / "configs")]
    config, = [path for path in configs if path.stem == stem]
    experiments.run_experiment(experiments.parse_config(config),
                               tmp_path / stem)
    assert check.reference_mismatch(tmp_path / stem, REFERENCE / stem) is None
