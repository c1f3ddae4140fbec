"""Every function and class defined in ``src/shapecal`` has a caller there,
every name a module of it imports is read in that module, and every class
it defines is constructed or subclassed in ``src``, ``tests``, ``demos`` or
``bench``, and every parameter or dataclass field of it with a default is
set by some call there.

A name counts as referenced when some module of the package loads it as a
bare name or reads it as an attribute.  Dunder methods are called by the
language itself and are not checked.  The package ``__init__`` imports
only to re-export, so its imports are not checked.
"""

import ast
import math
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "shapecal"
# The code that may construct a class of the package.
USERS = [ROOT / "src", ROOT / "tests", ROOT / "demos", ROOT / "bench"]

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


# The classes kept without a construction or subclass, each with why; none
# at present.
UNCONSTRUCTED = {}


def _classes_and_uses():
    """Class names defined in the package, and the names of every class
    called (by name or as an attribute), subclassed, or called as ``cls``
    in one of its own classmethods in the code of ``USERS``."""
    defined, used = set(), set()
    for path in sorted(p for d in USERS for p in d.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    used.add(func.id)
                elif isinstance(func, ast.Attribute):
                    used.add(func.attr)
            elif isinstance(node, ast.ClassDef):
                if SRC in path.parents:
                    defined.add(node.name)
                used |= {b.id if isinstance(b, ast.Name) else b.attr
                         for b in node.bases
                         if isinstance(b, (ast.Name, ast.Attribute))}
                used |= _classmethod_constructions(node)
    return defined, used


def _classmethod_constructions(cls_node):
    """{the class's name} when one of its classmethods calls its first
    argument, as ``SymbolicGram.create`` calls ``cls``; else empty."""
    for fn in cls_node.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.args.args
                and any(isinstance(d, ast.Name) and d.id == "classmethod"
                        for d in fn.decorator_list)):
            continue
        first = fn.args.args[0].arg
        if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
               and n.func.id == first for n in ast.walk(fn)):
            return {cls_node.name}
    return set()


def test_every_class_is_constructed_or_subclassed():
    defined, used = _classes_and_uses()
    assert sorted(defined - used) == sorted(UNCONSTRUCTED)


# The parameters and dataclass fields with a default that no call sets,
# each with why.
UNSET_DEFAULTS = {
    "LmiBuilder.add_equality(constant)": "the method is kept whole for "
                                         "bench/tracing.BUILDER_METHODS",
}


def _is_dataclass(cls_node):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in cls_node.decorator_list)


def _field_default(value):
    """Whether a dataclass field's assigned value gives it a default, or
    None for a ``field(init=False)``, which is no parameter."""
    if not (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "field"):
        return value is not None
    keywords = {k.arg: k.value for k in value.keywords}
    if isinstance(keywords.get("init"), ast.Constant) \
            and keywords["init"].value is False:
        return None
    return "default" in keywords or "default_factory" in keywords


def _signatures():
    """(label, call name, parameters, defaulted parameters) of every
    function, method and class of the package.  A class is called by its
    name, with its dataclass fields or its ``__init__``'s parameters; a
    method's parameters leave out ``self`` or ``cls``."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                child.parent = parent
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields = [(s.target.id, _field_default(s.value))
                          for s in node.body if isinstance(s, ast.AnnAssign)]
                fields = [(name, d) for name, d in fields if d is not None]
                out.append((node.name + ".{}", node.name,
                            [name for name, _ in fields],
                            {name for name, d in fields if d}))
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs,
                                                args.kw_defaults) if d]
            owner = node.parent
            if isinstance(owner, ast.ClassDef):
                if not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                           for d in node.decorator_list):
                    positional = positional[1:]
                if node.name == "__init__":
                    out.append((owner.name + "({})", owner.name,
                                positional, set(defaulted)))
                    continue
                label = f"{owner.name}.{node.name}({{}})"
            else:
                label = node.name + "({})"
            out.append((label, node.name, positional, set(defaulted)))
    return out


def _calls():
    """(name, positional arguments, whether one is starred, keyword names)
    of every call in the code of ``USERS``; a call ``f(...)`` or
    ``x.f(...)`` is named ``f``."""
    calls = []
    for path in sorted(p for d in USERS for p in d.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = getattr(node.func, "id", None) or node.func.attr
                calls.append((name, len(node.args),
                              any(isinstance(a, ast.Starred)
                                  for a in node.args),
                              {k.arg for k in node.keywords if k.arg}))
    return calls


def _unset_defaults():
    """Labels of the defaulted parameters and fields that no call of their
    name sets, by keyword or by position (a starred argument sets every
    position), and, for a dataclass field, no ``replace`` call sets by
    keyword.  Calls match by name alone, whatever they are called on."""
    calls = _calls()
    unset = set()
    for label, name, positional, defaulted in _signatures():
        for param in defaulted:
            i = positional.index(param) if param in positional else math.inf
            if not any(n == name and (param in kw or i < count or starred)
                       or n == "replace" and label.endswith(".{}")
                       and param in kw
                       for n, count, starred, kw in calls):
                unset.add(label.format(param))
    return unset


def test_every_default_is_set_by_some_call():
    # A default that no call overrides is a constant with a name: each one
    # left is listed with its reason.
    assert sorted(_unset_defaults()) == sorted(UNSET_DEFAULTS)
