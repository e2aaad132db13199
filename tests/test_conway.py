import pytest

from thomplink import (
    ConwayCode,
    LaurentPolynomial,
    component_count,
    continued_fraction,
    equivalent_up_to_units,
    kauffman_bracket,
    two_bridge_diagram,
)


def fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_code_validation():
    with pytest.raises(ValueError):
        ConwayCode([])
    with pytest.raises(ValueError):
        ConwayCode([1, 0])
    with pytest.raises(ValueError):
        ConwayCode([-2])
    assert ConwayCode.parse("1, 2, 3").entries == (1, 2, 3)
    for bad in ("\u0663,1", "1,+2", "1,-2", "1,2.0", "1,\u00b2"):  # Arabic-Indic 3, superscript 2
        with pytest.raises(ValueError):
            ConwayCode.parse(bad)
    assert str(ConwayCode([1, 1])) == "C(1,1)"


def test_continued_fraction_values():
    assert continued_fraction(ConwayCode([1, 1])) == (2, 1)
    assert continued_fraction(ConwayCode([1, 1, 1, 1])) == (5, 3)
    assert continued_fraction(ConwayCode([1, 1, 1, 1, 1, 1])) == (13, 8)
    assert continued_fraction(ConwayCode([3])) == (3, 1)
    assert continued_fraction(ConwayCode([2, 3])) == (7, 3)


def test_all_ones_gives_fibonacci():
    for n in range(1, 7):
        p, q = continued_fraction(ConwayCode([1] * (2 * n)))
        assert (p, q) == (fib(2 * n + 1), fib(2 * n))


def test_crossing_number_and_bound():
    for entries in ([1, 1], [2, 3], [1, 1, 1, 1]):
        code = ConwayCode(entries)
        assert two_bridge_diagram(code).crossing_count == sum(entries)
    with pytest.raises(ValueError):
        two_bridge_diagram(ConwayCode([20, 20]), max_crossings=24)


def test_component_parity_matches_fraction():
    for entries in ([1, 1], [2], [3], [4], [1, 1, 1, 1], [2, 3], [1, 1, 1, 1, 1, 1], [3, 2, 1]):
        code = ConwayCode(entries)
        p, _ = continued_fraction(code)
        expected = 1 if p % 2 else 2
        assert component_count(two_bridge_diagram(code)) == expected, code


def test_hopf_and_figure_eight_values():
    hopf = LaurentPolynomial({4: -1, -4: -1})
    assert equivalent_up_to_units(kauffman_bracket(two_bridge_diagram(ConwayCode([1, 1]))), hopf, 0)
    fig8 = LaurentPolynomial({8: 1, 4: -1, 0: 1, -4: -1, -8: 1})
    b = kauffman_bracket(two_bridge_diagram(ConwayCode([1, 1, 1, 1])))
    assert equivalent_up_to_units(b, fig8, 0)


def test_c2_same_class_as_c11():
    b2 = kauffman_bracket(two_bridge_diagram(ConwayCode([2])))
    b11 = kauffman_bracket(two_bridge_diagram(ConwayCode([1, 1])))
    assert equivalent_up_to_units(b2, b11, 0)


def test_trefoil_value():
    # C(3): span 12 with three terms; chirality per the recorded convention
    b = kauffman_bracket(two_bridge_diagram(ConwayCode([3])))
    assert b == LaurentPolynomial({7: 1, 3: -1, -5: -1})
