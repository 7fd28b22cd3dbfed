"""The package namespace: the README's library example runs as written,
and the names the engine no longer carries stay gone."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import derham

README = Path(__file__).resolve().parent.parent / "README.md"

# one way to do each job: SubmoduleSolver answers every Groebner query,
# mv_tensor_cech builds MV(F) and C(G) as its cases, the strict complex is
# strictify_complex(c).total, phase two's short exact sequences are block
# offsets, and test-only helpers live in their modules
REMOVED = ["TermOrder", "GroebnerBasis", "groebner_basis", "normal_form",
           "submodule_membership", "syzygies", "kernel_of_map",
           "cech_complex", "family_for_cech", "strictify_ses",
           "strictify_two_ses", "QuotientSES", "StrictSESWitness", "DModMap",
           "cohomology_presentation", "v_strict_complex", "SubmoduleSES",
           "FreeCoverDiagram", "free_cover_ses", "ResolutionStep"]


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


def public_callables():
    """(qualified name, function) for every public function of derham and
    its modules, and every method defined on their public classes."""
    modules = [derham] + [importlib.import_module(f"derham.{m.name}")
                          for m in pkgutil.iter_modules(derham.__path__)]
    seen = set()
    for mod in modules:
        for name, obj in vars(mod).items():
            if name.startswith("_") or id(obj) in seen or \
                    not getattr(obj, "__module__", "").startswith("derham"):
                continue
            seen.add(id(obj))
            if inspect.isfunction(obj):
                yield f"{obj.__module__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)
                    if inspect.isfunction(fn):
                        yield f"{obj.__module__}.{name}.{attr}", fn


def test_only_solvers_take_a_filtration_spec():
    # n is the only input to the V-filtration, and every other caller reads
    # it off its inputs; compute_derham's spec is a ProblemSpec
    takers = []
    for qual, fn in public_callables():
        spec = inspect.signature(fn).parameters.get("spec")
        if spec is not None and spec.annotation != "ProblemSpec":
            takers.append(qual)
    assert sorted(takers) == ["derham.groebner.SolverCache.__init__",
                              "derham.groebner.SubmoduleSolver.__init__"]


def test_operator_matrix_carries_no_shifts():
    # shifts live on the modules of a complex
    params = inspect.signature(derham.OperatorMatrix.__init__).parameters
    assert "source_shift" not in params and "target_shift" not in params


def test_solver_caches_are_passed_not_defaulted():
    # a caller hands its SolverCache down; no callee builds a fresh one
    defaulted = []
    for qual, fn in public_callables():
        solvers = inspect.signature(fn).parameters.get("solvers")
        if solvers is not None and solvers.default is not solvers.empty:
            defaulted.append(qual)
    assert defaulted == []
