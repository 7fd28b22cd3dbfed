import pytest

from derham import (InvalidInputError, WeylElement, parse_operator,
                    parse_polynomial, weyl_mul)


def test_polynomial_with_names():
    p = parse_polynomial("x^2 - y", 2, names=["x", "y"])
    assert p == (WeylElement.x(0, 2) ** 2) - WeylElement.x(1, 2)


def test_operator_normal_orders():
    # products evaluate in the Weyl algebra, left to right
    p = parse_operator("d1*x1", 1)
    assert p == weyl_mul(WeylElement.x(0, 1), WeylElement.d(0, 1)) + 1


def test_named_derivatives():
    p = parse_operator("dx*x", 1, names=["x"])
    assert p == parse_operator("d1*x1", 1)


def test_rational_coefficients():
    from fractions import Fraction
    p = parse_polynomial("1/2*x1 + 3/4", 1)
    assert p == WeylElement.x(0, 1).scale(Fraction(1, 2)) + Fraction(3, 4)


def test_parentheses_and_powers():
    p = parse_polynomial("(x1 - 1)^2", 1)
    x = WeylElement.x(0, 1)
    assert p == x * x - x.scale(2) + 1


def test_parse_errors():
    with pytest.raises(InvalidInputError):
        parse_polynomial("x +", 1, names=["x"])
    with pytest.raises(InvalidInputError):
        parse_polynomial("3x", 1, names=["x"])
    with pytest.raises(InvalidInputError):
        parse_polynomial("z", 2, names=["x", "y"])
    with pytest.raises(InvalidInputError):
        parse_polynomial("d1", 1)  # not a polynomial
    with pytest.raises(InvalidInputError):
        parse_operator("x1 / d1", 1)
    with pytest.raises(InvalidInputError):
        parse_operator("x1 ^ d1", 1)


def test_parse_error_positions_point_at_the_character():
    with pytest.raises(InvalidInputError, match=r"'\$' at position 5"):
        parse_operator("x1 + $", 1)
    with pytest.raises(InvalidInputError, match="'@' at position 3"):
        parse_operator("x1 @ d1", 1)


def test_duplicate_variable_names_rejected():
    from derham.parsing import variable_table
    with pytest.raises(InvalidInputError, match="declared twice"):
        variable_table(["x", "x"], 2)
    # the second name used to shadow the first: "x" parsed as x2
    with pytest.raises(InvalidInputError, match="declared twice"):
        parse_polynomial("x", 2, names=["x", "x"])
    with pytest.raises(InvalidInputError, match="declared twice"):
        parse_operator("dy", 3, names=["x", "y", "y"])
