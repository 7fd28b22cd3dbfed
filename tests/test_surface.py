"""The package namespace: the README's library example runs as written,
the names the engine no longer carries stay gone, and every public
function has a caller or is a named oracle."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import derham

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# one way to do each job: SubmoduleSolver answers every Groebner query
# that reads a basis, cofactor, syzygy or normal form,
# mv_tensor_cech builds MV(F) and C(G) as its cases, the strict complex is
# strictify_complex(c).total, strictify_complex alone rewrites short exact
# sequences, phase two's are block offsets, what no stage called is gone,
# and packed monomials replaced the tuple order keys (with their
# `descending` forms), the tuple divisibility and lcm helpers and the lead
# scan.  Every division ends by construction, so the step budget and its
# error are gone, and a solver answers cofactor queries, not
# normal_form_with_cofactor.  Phase two takes one horseshoe step per level,
# not two nested free covers.  The annihilator of f^s is eliminated in
# D_n<s, dt> and re-based in D_{n+1}, with no u, v pairs to weigh or test,
# and a localized module no longer keeps it.  Each solver belongs to the
# step whose submodule it solves, with no cache between them, and the
# b-function's boundary solver is the solver of the differential below.
# localize is the family of one factor, the only constructor of a
# localized module, which no longer moves to another exponent.  The
# b-function certificate reads the search's own (kappa, lam, shift,
# boundary solver) tuples, not a record class.
# A dotted name is a method or field of a class that stays
REMOVED = ["TermOrder", "GroebnerBasis", "groebner_basis", "normal_form",
           "submodule_membership", "syzygies", "kernel_of_map",
           "cech_complex", "family_for_cech", "strictify_ses",
           "strictify_two_ses", "StrictSESWitness", "_spot_check_ses",
           "_block_incl", "_block_proj", "DModMap", "cohomology_presentation",
           "CohomologyData", "v_strict_resolution",
           "DModPresentation.is_zero_module", "ChainComplexPres.from_json",
           "apply_to_laurent", "euler_characteristic", "v_strict_complex",
           "SubmoduleSES", "FreeCoverDiagram", "MVIndex",
           "DModPresentation.solver", "DModPresentation.contains_relation",
           "_rewrite_pair", "_RewriteResult", "_lift_poly",
           "ThetaPolynomial.variable", "BFunctionDetail.factor",
           "v_order_key", "block_elim_key", "_lead", "_mono_divides",
           "lcm_mono", "ReductionLimitError", "DEFAULT_REDUCTION_LIMIT",
           "GBEngine.limit", "SubmoduleSolver.normal_form_with_cofactor",
           "SolverCache.basis", "free_cover_ses", "_is_uv_free", "_weight",
           "LocalizedModule.ann_s", "_as_fraction", "SolverCache",
           "_boundary_solver", "LocalizedModule.at_exponent",
           "LocalizedModule.from_user", "LocalizationFamily.module",
           "_annihilator_and_b", "OperatorMatrix.identity",
           "TruncationWindow.widen", "ThetaPolynomial.is_one",
           "_minimal_b_for_generator", "_divmod_poly", "ThetaPolynomial.gcd",
           "ThetaPolynomial.lcm", "ThetaPolynomial.taylor_shift",
           "BFunctionDetail"]

# kept in derham.strictify for phase two and the SES oracle, but not
# exported from the package
UNEXPORTED = ["QuotientSES", "horseshoe_step", "ResolutionStep"]

# public functions that only tests call: the certificates and the graded
# Koszul exactness oracle
ORACLES = ("verify_v_strict", "verify_strict_ses", "certify_b_function",
           "graded_koszul")


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


def package_modules():
    """derham and each of its modules."""
    return [derham] + [importlib.import_module(f"derham.{m.name}")
                       for m in pkgutil.iter_modules(derham.__path__)]


def carries(obj, dotted):
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


@pytest.mark.parametrize("name", REMOVED + UNEXPORTED)
def test_removed_name_is_not_exported(name):
    assert not carries(derham, name)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_in_no_module(name):
    assert [mod.__name__ for mod in package_modules() if carries(mod, name)] == []


def referenced_names(tree, skip=None):
    """Identifiers read through Name and Attribute nodes, outside `skip`."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_public_function_has_a_caller_or_is_an_oracle():
    # a reference from the engine outside the function's own definition,
    # or from the bench, counts; __init__.py's re-exports and strings do
    # not.  ORACLES must list exactly the rest, so an oracle that gains a
    # caller leaves the list
    src = ROOT / "src" / "derham"
    trees = {path: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
             if path.name != "__init__.py"}
    refs = {path: referenced_names(tree) for path, tree in trees.items()}
    uncalled = []
    for path, tree in trees.items():
        if path.parent != src:
            continue
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            if fn.name not in referenced_names(tree, skip=fn) and \
                    not any(fn.name in names for other, names in refs.items()
                            if other != path):
                uncalled.append(fn.name)
    assert sorted(uncalled) == sorted(ORACLES)


def public_callables():
    """(qualified name, function) for every public function of derham and
    its modules, and every method defined on their public classes."""
    seen = set()
    for mod in package_modules():
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
    assert takers == ["derham.groebner.SubmoduleSolver.__init__"]


def test_operator_matrix_carries_no_shifts():
    # shifts live on the modules of a complex
    params = inspect.signature(derham.OperatorMatrix.__init__).parameters
    assert "source_shift" not in params and "target_shift" not in params



@pytest.mark.parametrize("path", sorted((ROOT / "src" / "derham").glob("*.py")),
                         ids=lambda path: path.name)
def test_source_is_ascii(path):
    # names with accents are spelled out: Briancon, Moeller
    assert path.read_bytes().isascii()
