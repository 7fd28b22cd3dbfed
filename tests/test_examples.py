"""Golden end-to-end examples against classical topology.

Expected values come from singular cohomology of the complements: Kunneth
for products, the Gysin sequence for smooth closed supports, and Euler
characteristics of plane curves.
"""

import pytest

from derham import (ProblemSpec, b_function_of_complex, certify_b_function,
                    compute_derham, compute_derham_support, family_for_mv,
                    family_for_support, fourier_complex, minimize_complex,
                    mv_complex, mv_tensor_cech, strictify_complex,
                    verify_v_strict)

GOLDEN = [
    (["x"], ["x"], [1, 1, 0]),
    (["x"], ["x^2 - x"], [1, 2, 0]),
    (["x"], ["x^3 - x"], [1, 3, 0]),
    (["x"], ["x", "x"], [1, 1, 0]),                 # duplicate polynomials
    (["x", "y"], ["x*y"], [1, 2, 1, 0, 0]),         # torus
    (["x", "y"], ["x", "y"], [1, 0, 0, 1, 0]),      # complement of the origin
    (["x", "y"], ["x", "y", "x + y"], [1, 0, 0, 1, 0]),
    (["x", "y"], ["x*y", "x + y"], [1, 0, 0, 1, 0]),
    (["x", "y"], ["x*y - 1"], [1, 1, 1, 0, 0]),     # hyperbola complement
    (["x", "y"], ["y - x^2"], [1, 1, 0, 0, 0]),     # parabola = line complement
    (["x", "y"], ["x*y*(x + y)"], [1, 3, 2, 0, 0]),  # three-line arrangement
    (["x", "y"], ["x*(x - 1)", "y"], [1, 0, 0, 2, 0]),  # two points removed
    (["x", "y"], ["y^2 - x^3"], [1, 1, 0, 0, 0]),   # cuspidal cubic
    (["x", "y"], ["y^2 - x^3 - x^2"], [1, 1, 1, 0, 0]),  # nodal cubic
    (["x", "y"], ["x^2 + y^2 - 1"], [1, 1, 1, 0, 0]),    # smooth conic
    (["x", "y"], ["(x*y - 1)*x"], [1, 2, 1, 0, 0]),      # line plus hyperbola
    (["x", "y"], ["y^2 - x^5"], [1, 1, 0, 0, 0]),        # higher cusp
    (["x", "y", "z"], ["x"], [1, 1, 0, 0, 0, 0, 0]),
    (["x", "y", "z"], ["x*y*z"], [1, 3, 3, 1, 0, 0, 0]),  # three-torus
    (["x", "y", "z"], ["x", "y", "z"], [1, 0, 0, 0, 0, 1, 0]),  # S^5
    # r = 4: the common zero locus is the two points (0,0) and (1,1)
    pytest.param(["x", "y"], ["x*(x - 1)", "x*(y - 1)", "y*(x - 1)", "y*(y - 1)"],
                 [1, 0, 0, 2, 0], marks=pytest.mark.slow),
]

GOLDEN_SUPPORT = [
    (["x", "y"], ["x"], ["y"], [0, 0, 1, 1, 0]),
    (["x", "y"], ["1"], ["x"], [0, 0, 1, 0, 0]),
    (["x", "y"], ["x"], ["1"], [0, 0, 0, 0, 0]),
    (["x", "y"], ["x*y"], ["x - y"], [0, 0, 1, 1, 0]),  # diagonal in the torus
    (["x", "y"], ["x", "y"], ["x - 1"], [0, 0, 1, 0, 0]),  # line missing the origin
    (["x", "y"], ["x", "y"], ["x - 1", "y - 1"], [0, 0, 0, 0, 1]),  # point support
]


@pytest.mark.parametrize("names,polys,expected", GOLDEN,
                         ids=[" ".join(getattr(c, "values", c)[1]) for c in GOLDEN])
def test_golden_cohomology(names, polys, expected):
    report = compute_derham(ProblemSpec(names, polys))
    assert report.dims == expected


@pytest.mark.parametrize("names,polys,support,expected", GOLDEN_SUPPORT,
                         ids=[" ".join(c[1] + ["|"] + c[2]) for c in GOLDEN_SUPPORT])
def test_golden_support(names, polys, support, expected):
    report = compute_derham_support(ProblemSpec(names, polys,
                                                support_polys=support))
    assert report.dims == expected


ORACLE_CASES = [
    pytest.param(*getattr(c, "values", c)[:2], None, marks=getattr(c, "marks", ()),
                 id=" ".join(getattr(c, "values", c)[1]))
    for c in GOLDEN] + [
    pytest.param(names, polys, support, id=" ".join(polys + ["|"] + support))
    for names, polys, support, _ in GOLDEN_SUPPORT]


@pytest.mark.parametrize("names,polys,support", ORACLE_CASES)
def test_minimal_complex_keeps_the_b_function(names, polys, support):
    spec = ProblemSpec(names, polys, support_polys=support)
    if support:
        family = family_for_support(spec.n, spec.polys, spec.support_polys, {})
        c = fourier_complex(mv_tensor_cech(family, len(polys), len(support)))
    else:
        family = family_for_mv(spec.n, spec.polys, {})
        c = fourier_complex(mv_complex(family, len(polys)))
    total = strictify_complex(c).total
    minimal = minimize_complex(total)
    minimal.check_chain()
    assert verify_v_strict(minimal).passed
    positions = list(c.degrees())
    details = []
    b = b_function_of_complex(minimal, positions=positions, details=details)
    assert str(b) == str(b_function_of_complex(total, positions=positions))
    assert certify_b_function(b, details)


def test_single_hypersurface_special_case():
    # r = 1 inputs run through the degenerate Mayer-Vietoris complex
    single = compute_derham(ProblemSpec(["x", "y"], ["x*y"]))
    assert single.dims == [1, 2, 1, 0, 0]
    assert single.window.k0 is not None


def test_negative_b_degree_bound_is_invalid_input():
    from derham import InvalidInputError
    # rejected before any stage runs, not as a b-bound failure at the end
    with pytest.raises(InvalidInputError, match="max_b_degree") as err:
        ProblemSpec(["x"], ["x"], max_b_degree=-1)
    assert err.value.stage is None


def test_pipeline_errors_name_their_stage():
    import pytest
    from derham import BBoundExceededError
    with pytest.raises(BBoundExceededError) as err:
        compute_derham(ProblemSpec(["x"], ["x"], max_b_degree=0))
    assert err.value.stage == "b-function"
