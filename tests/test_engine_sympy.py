"""The engine's G, G_shift and alt_qsum against their definitions, in sympy.

The oracle restates the definition in the module docstring of
`qgenocchi.engine` and shares no code with the engine: with x = q**(1/2)
and y = x**j, every bracket [m]_Q is (Y - 1) / (X - 1) for Y = Q**m and
X = Q; the t**n/n! coefficient n * sum_j (-1)**(j-1) * weight_j *
arg_j**(n-1) is expanded as a Laurent polynomial in y; each y**beta, that
is q**(beta*j/2), is replaced by its regularized alternating sum
-1 / (1 + x**beta), which is -1/2 at beta = 0; and sympy cancels the result.
The finite alternating q-power sum `alt_qsum` is restated as the direct
sum over j < k in its docstring, and lim_{q -> 1} G(n, k) = -n * E_n is
taken by sympy's `limit` with E_n = `sympy.euler(n, 0)`.
The only thing read from the engine is the value each check compares.
sympy is a test-only oracle: the module is skipped where it is not installed.
"""

from itertools import product

import pytest

from qgenocchi import CONVENTIONS, alt_qsum, q_genocchi_number, q_genocchi_number_shifted

sympy = pytest.importorskip("sympy")

x, y = sympy.symbols("x y")


def bracket(Y, X):
    return (Y - 1) / (X - 1)


def defined_value(n: int, k: int, shifted: bool, base_power: int):
    """The regularized t**n/n! coefficient of the plain or shifted family."""
    q, qj, b = x**2, y**2, base_power  # qj is q**j
    if shifted:
        weight = (-1) ** k * bracket(q**2, q) * qj**-1 * bracket(q ** (2 * k) * qj**2, q**2)
        arg = bracket(q ** (b * k) * qj**b, q**b) * y**-1
    else:
        weight = bracket(q**2, q) * q**k * qj**-1 * bracket(qj**2, q**2)
        arg = bracket(qj**b, q**b) * x**k * y**-1
    shift = n + 1  # y**shift clears every negative power of y
    laurent = sympy.Poly(sympy.expand(n * weight * arg ** (n - 1) * y**shift), y)
    total = sum(
        c * (sympy.Rational(-1, 2) if beta == shift else -1 / (1 + x ** (beta - shift)))
        for (beta,), c in laurent.terms()
    )
    return sympy.cancel(total)


def to_sympy(value):
    num, den = (sum(c * x**i for i, c in enumerate(p.coeffs)) for p in (value.num, value.den))
    return num / den


CELLS = list(product(range(1, 6), range(4), CONVENTIONS))


@pytest.mark.parametrize(
    "n, k, conv", CELLS, ids=[f"n{n}-k{k}-{conv.value}" for n, k, conv in CELLS]
)
def test_engine_matches_the_definition(n, k, conv):
    for shifted, family in ((False, q_genocchi_number), (True, q_genocchi_number_shifted)):
        expected = defined_value(n, k, shifted, conv.base_power)
        got = to_sympy(family(n, k, conv).value)
        assert sympy.cancel(got - expected) == 0, (n, k, conv, shifted)


def alt_sum_value(n: int, k: int, base_power: int):
    """sum_{j<k} [j]_{q**2} (-1)**(j-1) [j]_{q**b}**(n-1) q**((k-j)(n+1)/2)."""
    q, b = x**2, base_power
    return sympy.cancel(
        sum(
            bracket(q ** (2 * j), q**2) * (-1) ** (j - 1) * bracket(q ** (b * j), q**b) ** (n - 1)
            * x ** ((k - j) * (n + 1))
            for j in range(k)
        )
    )


ALT_CELLS = list(product(range(1, 5), range(5), CONVENTIONS))


@pytest.mark.parametrize(
    "n, k, conv", ALT_CELLS, ids=[f"n{n}-k{k}-{conv.value}" for n, k, conv in ALT_CELLS]
)
def test_alt_qsum_matches_the_direct_sum(n, k, conv):
    expected = alt_sum_value(n, k, conv.base_power)
    assert sympy.cancel(to_sympy(alt_qsum(n, k, conv)) - expected) == 0


LIMIT_CELLS = [(1, 0), (2, 3), (3, 1), (4, 2), (5, 2)]


@pytest.mark.parametrize("conv", CONVENTIONS, ids=[conv.value for conv in CONVENTIONS])
@pytest.mark.parametrize("n, k", LIMIT_CELLS)
def test_limit_of_g_at_q_one_is_minus_n_euler(n, k, conv):
    got = sympy.limit(to_sympy(q_genocchi_number(n, k, conv).value), x, 1)
    assert got == -n * sympy.euler(n, sympy.Integer(0)), (n, k, conv)
