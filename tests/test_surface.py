"""The package namespace: the README's library example runs as written,
and the names the engine no longer carries stay gone."""

import ast
import re
from pathlib import Path

import pytest

import derham

README = Path(__file__).resolve().parent.parent / "README.md"

# one way to do each job: SubmoduleSolver answers every Groebner query,
# mv_tensor_cech builds MV(F) and C(G) as its cases, and test-only helpers
# live in their modules
REMOVED = ["TermOrder", "GroebnerBasis", "groebner_basis", "normal_form",
           "submodule_membership", "syzygies", "kernel_of_map",
           "cech_complex", "family_for_cech", "strictify_ses",
           "strictify_two_ses", "QuotientSES", "StrictSESWitness", "DModMap",
           "cohomology_presentation"]


def library_surface_block():
    text = README.read_text()
    section = text.split("## Library surface", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_surface_runs():
    block = library_surface_block()
    lines = block.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            # an expression line states its value in a trailing comment
            expected = ast.literal_eval(lines[stmt.end_lineno - 1].split("#", 1)[1])
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"),
                         namespace)
            assert value == expected, ast.get_source_segment(block, stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == 4


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_not_exported(name):
    assert not hasattr(derham, name)
