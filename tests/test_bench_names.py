"""Every function the benchmark tracer times must exist in posstab.

certbench/tracer.py looks each name up with getattr(posstab.<module>,
<function>), so renaming or deleting one breaks `certbench/run.py --trace 1`.
The TRACED table is read from the source without importing it.
"""

import ast
import pathlib

import pytest

import posstab

TRACER = pathlib.Path(__file__).resolve().parents[1] / "certbench" / "tracer.py"


def _traced():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("TRACED not found in certbench/tracer.py")


@pytest.mark.parametrize(
    "module, name", [(m, f) for m, fs in _traced().items() for f in fs]
)
def test_traced_name_is_callable(module, name):
    assert callable(getattr(getattr(posstab, module), name))
