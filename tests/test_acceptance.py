"""Acceptance suite: classical-topology oracles plus property batteries.

Every criterion prints one pass/fail line; wall-clock limits are part of
the assertions.
"""

import time

import pytest

import test_properties as props
from derham import (ChainComplexPres, DModPresentation, FiltrationSpec, ModuleElement,
                    OperatorMatrix, ProblemSpec, ThetaPolynomial, WeylElement,
                    compute_derham, compute_derham_support, parse_operator,
                    restriction_b_function_module, verify_v_strict)
from derham.groebner import SubmoduleSolver
from derham.restriction import generator_membership_holds


def _check(number, ok, detail, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} ({detail}; {elapsed:.1f}s, limit {limit}s)")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_1_punctured_line():
    t0 = time.monotonic()
    report = compute_derham(ProblemSpec(["x"], ["x"]))
    elapsed = time.monotonic() - t0
    _check(1, report.dims == [1, 1, 0], f"dims {report.dims}", elapsed, 10)


def test_criterion_2_two_punctures():
    t0 = time.monotonic()
    report = compute_derham(ProblemSpec(["x"], ["x*(x - 1)"]))
    elapsed = time.monotonic() - t0
    _check(2, report.dims == [1, 2, 0], f"dims {report.dims}", elapsed, 30)


def test_criterion_3_torus():
    t0 = time.monotonic()
    report = compute_derham(ProblemSpec(["x", "y"], ["x*y"]))
    elapsed = time.monotonic() - t0
    _check(3, report.dims == [1, 2, 1, 0, 0], f"dims {report.dims}", elapsed, 300)


def test_criterion_4_punctured_plane():
    t0 = time.monotonic()
    report = compute_derham(ProblemSpec(["x", "y"], ["x", "y"]))
    elapsed = time.monotonic() - t0
    _check(4, report.dims == [1, 0, 0, 1, 0], f"dims {report.dims}", elapsed, 300)


def test_criterion_5_cusp():
    t0 = time.monotonic()
    report = compute_derham(ProblemSpec(["x", "y"], ["y^2 - x^3"]))
    elapsed = time.monotonic() - t0
    ok = report.dims == [1, 1, 0, 0, 0] and report.euler() == 0
    _check(5, ok, f"dims {report.dims}, euler {report.euler()}", elapsed, 1800)


SUPPORT_EXAMPLES = [
    (["x", "y"], ["x"], ["y"], [0, 0, 1, 1, 0]),
    (["x", "y"], ["1"], ["x"], [0, 0, 1, 0, 0]),
    (["x", "y"], ["x"], ["1"], [0, 0, 0, 0, 0]),
]


def test_criterion_6_support_and_les():
    t0 = time.monotonic()
    report = compute_derham_support(ProblemSpec(["x", "y"], ["x"],
                                                support_polys=["y"]))
    ok = report.dims == [0, 0, 1, 1, 0]
    detail = f"dims {report.dims}"
    # Euler consistency against the long exact sequence of the pair, for
    # every shipped support example
    for names, F, G, expected in SUPPORT_EXAMPLES:
        sup = compute_derham_support(ProblemSpec(names, F, support_polys=G))
        ok = ok and sup.dims == expected
        chi_u = compute_derham(ProblemSpec(names, F)).euler()
        products = [f"({f})*({g})" for f in F for g in G]
        chi_uz = compute_derham(ProblemSpec(names, products)).euler()
        ok = ok and (sup.euler() == chi_u - chi_uz)
        detail += f"; chi({F},{G}) {sup.euler()} = {chi_u} - {chi_uz}"
    elapsed = time.monotonic() - t0
    _check(6, ok, detail, elapsed, 600)


@pytest.mark.parametrize("relation,expected", [
    ("d1", "s"),
    ("x1", "s + 1"),
    ("1", "1"),
])
def test_criterion_7_b_function_units(relation, expected):
    t0 = time.monotonic()
    pres = DModPresentation.cyclic(1, [parse_operator(relation, 1)], shift=(0,))
    b = restriction_b_function_module(pres)
    ok = str(b) == expected
    # certificate: the membership holds for b and fails for every proper
    # divisor obtained by dropping an integer root
    solver = SubmoduleSolver(FiltrationSpec(1), 1, pres.relations, (0,)) \
        if pres.relations else None
    gen = ModuleElement.unit(1, 1, 0)
    ok = ok and generator_membership_holds(b, gen, 0, solver, (0,))
    for root in b.integer_roots():
        dropped = b.exact_divide(ThetaPolynomial([-root, 1]))
        ok = ok and not generator_membership_holds(dropped, gen, 0, solver, (0,))
    elapsed = time.monotonic() - t0
    _check(7, ok, f"b({relation}) = {b}", elapsed, 5)


def test_criterion_8_strictness_counterexample():
    t0 = time.monotonic()
    d1 = WeylElement.d(0, 1)
    mods = [DModPresentation.free(1, 2, (1, 1)), DModPresentation.free(1, 1, (0,))]
    mat = OperatorMatrix(1, 1, [ModuleElement(1, [d1]),
                                ModuleElement(1, [d1 - 1])])
    tot = ChainComplexPres(1, -1, mods, [mat])
    report = verify_v_strict(tot)
    ok = not report.passed
    witness_ok = False
    for f in report.failures:
        if f.kind == "not-strict" and f.position == 0 and f.level == 0 and \
                [str(c) for c in f.witness.components] == ["1"]:
            witness_ok = True
    elapsed = time.monotonic() - t0
    _check(8, ok and witness_ok,
           f"failures {[repr(f) for f in report.failures]}", elapsed, 10)


@pytest.mark.parametrize("name,runner,minimum", [
    ("weyl-algebra", props.run_weyl_algebra_suite, 200),
    ("fourier", props.run_fourier_suite, 200),
    ("chain-property", props.run_chain_property_suite, 200),
    ("window-widening", props.run_window_widening_suite, 200),
    ("vanishing", props.run_vanishing_suite, 1),
    ("exactness-propagation", props.run_exactness_propagation_suite, 200),
    ("graded-koszul", props.run_koszul_suite, 200),
])
def test_criterion_9_property_suites(name, runner, minimum):
    t0 = time.monotonic()
    cases = runner()
    elapsed = time.monotonic() - t0
    _check(9, cases >= minimum, f"{name}: {cases} cases", elapsed, 600)
