"""Every function and class defined in ``src/shapecal`` has a caller there,
and every name a module of it imports is read in that module.

A name counts as referenced when some module of the package loads it as a
bare name or reads it as an attribute.  Dunder methods are called by the
language itself and are not checked.  The package ``__init__`` imports
only to re-export, so its imports are not checked.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "shapecal"

# The definitions kept without a reference in the package, each with why.
DEMOS_AND_GATE = "public API: the demos and the acceptance gate call it"
ALLOWED = {
    "IntervalCertificate": DEMOS_AND_GATE,
    "certificate_to_poly": DEMOS_AND_GATE,
    "univariate_coeffs": DEMOS_AND_GATE,
    "relative_gap": DEMOS_AND_GATE,
    "almost_equal": "public API: the acceptance gate calls it",
    "distort": "public API: demos/04_distortion_models.py calls it",
    "undistort": "public API: demos/04_distortion_models.py calls it",
    "is_valid": "public API: the check certificate_to_poly's caller makes",
    "from_json": "reads back the report that `shapecal experiment` writes",
    "scene_from_json": "reads back the scene that `shapecal synth` writes",
    "add_equality": "bench/tracing.BUILDER_METHODS looks it up at install",
    "L_derivatives": "public API: the raising form of evaluate(r, 2), which "
                     "the curve command's test oracle calls",
}


def _definitions_and_references():
    defined, referenced = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def test_every_definition_has_a_caller_in_src():
    defined, referenced = _definitions_and_references()
    assert sorted(defined - referenced - set(ALLOWED)) == []


def test_the_allowlist_names_only_unreferenced_definitions():
    defined, referenced = _definitions_and_references()
    assert set(ALLOWED) <= defined
    assert sorted(set(ALLOWED) & referenced) == []


def _unread_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0]
                         for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_every_import_is_read_in_its_module():
    unread = {path.name: _unread_imports(path)
              for path in sorted(SRC.glob("*.py"))
              if path.name != "__init__.py"}
    assert {name: names for name, names in unread.items() if names} == {}
