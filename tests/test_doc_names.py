"""Every backquoted dotted name in README.md and in the package docstrings resolves.

A name counts when its first part is `posstab` or one of its modules
(`operators._cw_bounds`, `posstab.reverify_witness`); it resolves when it
is a posstab module or an attribute of one.  A renamed or deleted helper
that a document still names fails here.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import posstab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(posstab.__file__).resolve().parent
MODULES = {m.name for m in pkgutil.iter_modules([str(PACKAGE)])}

# a backquoted span that is a dotted name, optionally followed by call arguments
_SPAN = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")


def _package_names(text):
    """The backquoted dotted names in text whose first part is posstab or a posstab module."""
    return {n for n in _SPAN.findall(text) if n.split(".")[0] in MODULES | {"posstab"}}


def _resolves(name):
    parts = name.split(".")
    if parts[0] == "posstab":
        parts.pop(0)
    obj = posstab
    if parts and parts[0] in MODULES:
        obj = importlib.import_module(f"posstab.{parts.pop(0)}")
    for attr in parts:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def _docstrings(path):
    tree = ast.parse(path.read_text())
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return [ast.get_docstring(node) or "" for node in ast.walk(tree) if isinstance(node, kinds)]


def test_span_pattern_finds_package_names():
    text = "`operators._cw_bounds` and `posstab.reverify_witness(T, cone, v)`, not `np.linalg.norm`"
    assert _package_names(text) == {"operators._cw_bounds", "posstab.reverify_witness"}
    assert _resolves("operators._cw_bounds") and _resolves("posstab.norms")
    assert _resolves("posstab.reverify_witness") and _resolves("posstab.operators.apply")
    assert not _resolves("norms._ORD") and not _resolves("iss.a")


def test_readme_names_resolve():
    names = _package_names((ROOT / "README.md").read_text())
    assert names  # the README names package functions
    assert sorted(n for n in names if not _resolves(n)) == []


def test_docstring_names_resolve():
    bad = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = set().union(*map(_package_names, _docstrings(path)))
        missing = sorted(n for n in names if not _resolves(n))
        if missing:
            bad[path.name] = missing
    assert bad == {}
