"""Classical Bernoulli, Euler, and Genocchi families, computed exactly.

The number tables are built on Python integers by three unrelated
algorithms, so the relations between B, E and G stay a real check: B
from the zigzag numbers of the Seidel-Entringer-Arnold boustrophedon, G
from Seidel's Genocchi triangle (both by additions only), and E from the
tangent numbers by Brent and Harvey's in-place recurrence ("Fast
computation of Bernoulli, Tangent and Secant numbers", 2011).  The
order-r tables come from E by one derivative step per order.  The Euler
and Genocchi polynomial values are read off the order-1 table at x.

Conventions:

* Bernoulli numbers from t/(exp(t)-1), so B_1 = -1/2.
* Euler numbers from 2/(exp(t)+1): the rational sequence E_0 = 1,
  E_1 = -1/2, E_2 = 0, E_3 = 1/4, ... (values of the Euler polynomials at 0,
  not the integer secant numbers).
* Genocchi numbers from 2t/(exp(t)+1): G_0 = 0, G_1 = 1, G_2 = -1, and the
  odd values G_3, G_5, ... vanish.
* Order-r Genocchi polynomials from 2*(1/(1+exp(t)))**r * exp(x*t).

Power sums f_k(n) = 1^k + ... + n^k and their alternating variants
-1^k + 2^k - ... are provided both as brute-force loops and through the
Bernoulli/Euler closed forms, so each route can verify the other.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial

from .records import VerificationRecord, record_from_difference


class NumberTable:
    """An immutable run of exactly computed numbers, indexed from 0."""

    __slots__ = ("kind", "values")

    def __init__(self, kind: str, values: tuple[Fraction, ...]) -> None:
        self.kind = kind
        self.values = values

    def __getitem__(self, n: int) -> Fraction:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NumberTable):
            return self.kind == other.kind and self.values == other.values
        return NotImplemented

    def __repr__(self) -> str:
        return f"NumberTable({self.kind!r}, {[str(v) for v in self.values]})"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _exact_quotient(numerator: int, divisor: int) -> int:
    """numerator / divisor, which must be an integer; raises otherwise."""
    quotient, remainder = divmod(numerator, divisor)
    if remainder:
        raise ArithmeticError(f"{numerator}/{divisor} is not an integer")
    return quotient


@lru_cache(maxsize=None)
def _scaled_euler(n_max: int) -> tuple[int, ...]:
    """The integers e_n = 2**n * E_n for n = 0 .. n_max, from tangent numbers.

    Their EGF is 2/(exp(2t)+1) = 1 - tanh(t), so e_0 = 1,
    e_(2m-1) = (-1)**m * T_m and the other e_n vanish.  T_1 .. T_m come
    from Brent and Harvey's in-place recurrence: t_j starts at j!, and
    each pass k rewrites t_j = (j-k)*t_(j-1) + (j-k+2)*t_j for j >= k,
    which multiplies only by small integers.
    """
    m = (n_max + 1) // 2
    t = [factorial(j) for j in range(m)]  # t[j] ends as T_(j+1)
    for k in range(1, m):
        for j in range(k, m):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    e = [0] * (n_max + 1)
    e[0] = 1
    e[1::2] = [-v if j % 2 == 0 else v for j, v in enumerate(t)]
    return tuple(e)


def _boustrophedon(n_max: int):
    """Rows 0 .. n_max of the Seidel-Entringer-Arnold boustrophedon.

    Row 0 is [1]; row_n[0] = 0 and row_n[i] = row_n[i-1] + row_(n-1)[n-i],
    so row n ends with the zigzag number A_n (A_(2m-1) = T_m, the tangent
    numbers).
    """
    row = [1]
    for _ in range(n_max + 1):
        yield row
        row = [0, *accumulate(reversed(row))]


@lru_cache(maxsize=None)
def bernoulli_numbers(n_max: int) -> NumberTable:
    """B_0 .. B_n_max from t/(exp(t)-1); B_1 = -1/2.

    B_2m = (-1)**(m-1) * 2m * A_(2m-1) / (4**m * (4**m - 1)) with the zigzag
    numbers A_n of the boustrophedon; the odd B_n above B_1 vanish.
    """
    _require(n_max >= 0, "n_max must be >= 0")
    b = [Fraction(0)] * (n_max + 1)
    b[0] = Fraction(1)
    if n_max:
        b[1] = Fraction(-1, 2)
    for n, row in enumerate(_boustrophedon(n_max - 1)):
        if n % 2:
            m = (n + 1) // 2
            power = 4**m
            b[n + 1] = Fraction((-1) ** (m - 1) * 2 * m * row[-1], power * (power - 1))
    return NumberTable("B", tuple(b))


@lru_cache(maxsize=None)
def euler_numbers(n_max: int) -> NumberTable:
    """E_0 .. E_n_max from 2/(exp(t)+1); E_1 = -1/2."""
    _require(n_max >= 0, "n_max must be >= 0")
    # One term more than needed, the walk order_r_genocchi(2, n_max) asks
    # for too: `numbers` then runs the tangent recurrence once.
    e = _scaled_euler(n_max + 1)
    return NumberTable("E", tuple(Fraction(e[n], 1 << n) for n in range(n_max + 1)))


def _seidel_rows(m_max: int):
    """Rows 1 .. m_max of Seidel's triangle for the Genocchi numbers (Seidel
    1877; Dumont, Duke Math. J. 41, 1974); row m ends with |G_2m|.

    Row 1 is the suffix sums of [1], and row m+1 the suffix sums of the
    prefix sums of row m with the last prefix sum repeated.
    """
    row = [1]
    for _ in range(m_max):
        row = [*accumulate(reversed(row))][::-1]
        yield row
        row = [*accumulate(row)]
        row.append(row[-1])


@lru_cache(maxsize=None)
def genocchi_numbers(n_max: int) -> NumberTable:
    """G_0 .. G_n_max from 2t/(exp(t)+1); G_1 = 1, odd values above vanish.

    G_2m = (-1)**m * |G_2m| with |G_2m| from Seidel's triangle.
    """
    _require(n_max >= 0, "n_max must be >= 0")
    g = [0] * (n_max + 1)
    if n_max:
        g[1] = 1
    for m, row in enumerate(_seidel_rows(n_max // 2), 1):
        g[2 * m] = -row[-1] if m % 2 else row[-1]
    return NumberTable("G", tuple(Fraction(v) for v in g))


@lru_cache(maxsize=None)
def order_r_genocchi(r: int, n_max: int, x: Fraction = Fraction(0)) -> NumberTable:
    """G^(r)_0(x) .. G^(r)_n_max(x) from 2*(1/(1+exp(t)))**r * exp(x*t).

    The scaled numbers h^(r)_n = 2**(n+r-1) * G^(r)_n(0) are integers with
    EGF (2/(exp(2t)+1))**r.  Since u = 1/(1+exp(s)) has u' = u**2 - u,
    u**(r+1) = u**r + (1/r) * d/ds u**r, which reads
    h^(r+1)_n = 2*h^(r)_n + h^(r)_(n+1) / r: one exact pass per order,
    starting from h^(1) = e.  With x = a/b in lowest terms, G^(r)_n(x) is
    c_n / (2**(n+r-1) * b**n), c_n = sum_i C(n, i) * h_i * b**i * (2a)**(n-i):
    a binomial transform (the EGF times exp(2a*t)), done in place with no
    binomials: from c_i = h_i * b**i, pass k = 1 .. n_max adds 2a * c_(n-1)
    to c_n for n = n_max down to k.  At x = 0, c = h.
    """
    _require(r >= 1, "order r must be >= 1")
    _require(n_max >= 0, "n_max must be >= 0")
    h = _scaled_euler(n_max + r - 1)
    for s in range(1, r):
        h = [2 * v + _exact_quotient(w, s) for v, w in zip(h, h[1:])]
    a, b = Fraction(x).as_integer_ratio()
    if a:
        h = [v * b**i for i, v in enumerate(h)]
        for k in range(1, n_max + 1):
            for n in range(n_max, k - 1, -1):
                h[n] += 2 * a * h[n - 1]
    values = tuple(Fraction(v, b**n << (n + r - 1)) for n, v in enumerate(h))
    return NumberTable(f"G^({r})", values)


def genocchi_poly(n: int, x: Fraction) -> Fraction:
    """Genocchi polynomial G_n(x) from 2t/(exp(t)+1) * exp(x*t): n * E_{n-1}(x)."""
    _require(n >= 0, "n must be >= 0")
    return n * euler_poly(n - 1, x) if n else Fraction(0)


def euler_poly(k: int, x: Fraction) -> Fraction:
    """Euler polynomial E_k(x) from 2*exp(x*t)/(exp(t)+1): G^(1)_k(x)."""
    _require(k >= 0, "k must be >= 0")
    return order_r_genocchi(1, k, Fraction(x))[k]


def genocchi_relations_check(m: int) -> VerificationRecord:
    """Exact three-way comparison at even index 2m:

    G_{2m}  ==  2*(1 - 2**(2m)) * B_{2m}  ==  2m * E_{2m-1},

    each side from its own table's recurrence; the "series" detail holds
    G_{2m}.  All three tables are read at 2m rounded up to a power of two,
    so a loop over m = 1 .. M builds each at most ceil(log2(2M)) times.
    """
    _require(m >= 1, "m must be >= 1")
    size = 1 << (2 * m - 1).bit_length()
    g = genocchi_numbers(size)[2 * m]
    via_bernoulli = 2 * (1 - 2 ** (2 * m)) * bernoulli_numbers(size)[2 * m]
    via_euler = 2 * m * euler_numbers(size)[2 * m - 1]
    difference = g - via_bernoulli
    if not difference:
        difference = g - via_euler
    return record_from_difference(
        "genocchi_relations",
        {"m": m},
        difference,
        details={
            "series": str(g),
            "via_bernoulli": str(via_bernoulli),
            "via_euler": str(via_euler),
        },
    )


def power_sum(k: int, n: int) -> Fraction:
    """1**k + 2**k + ... + n**k by direct summation."""
    _require(k >= 1, "power k must be >= 1")
    _require(n >= 0, "n must be >= 0")
    return Fraction(sum(j**k for j in range(1, n + 1)))


def faulhaber_sum(n: int, k: int) -> Fraction:
    """Sum of the first k-1 n-th powers via the Bernoulli closed form.

    f_n(k-1) = (1/(n+1)) * sum_{i=0}^{n} binom(n+1, i) * B_i * k**(n+1-i).
    """
    _require(n >= 1, "power n must be >= 1")
    _require(k >= 1, "k must be >= 1")
    table = bernoulli_numbers(n)
    total = sum(
        (comb(n + 1, i) * table[i] * k ** (n + 1 - i) for i in range(n + 1)),
        Fraction(0),
    )
    return total / (n + 1)


def alt_power_sum(k: int, n: int) -> Fraction:
    """-1**k + 2**k - 3**k + ... + (-1)**(n-1) * (n-1)**k by direct summation."""
    _require(k >= 1, "power k must be >= 1")
    _require(n >= 2, "n must be >= 2")
    return Fraction(sum((-1) ** j * j**k for j in range(1, n)))


def alt_power_sum_via_euler(k: int, n: int) -> Fraction:
    """The same alternating sum through Euler polynomial values.

    Using j**k = (E_k(j+1) + E_k(j))/2, the sum telescopes to
    (-E_k(1) - (-1)**n * E_k(n)) / 2.
    """
    _require(k >= 1, "power k must be >= 1")
    _require(n >= 2, "n must be >= 2")
    value = -euler_poly(k, Fraction(1)) - (-1) ** n * euler_poly(k, Fraction(n))
    return value / 2


def euler_alt_formula(n: int, k: int) -> Fraction:
    """Literal evaluation of the alternating-sum formula in its printed shape:

    ((-1)**(k+1)/2) * sum_{l=0}^{k-1} binom(n,l) E_l k**(n-l)
      + (E_n/2) * (1 + (-1)**(k+1)).

    The caller chooses which integer plays n and which plays k, so both the
    literal reading and the index-swapped reading can be evaluated.  The
    Euler table is read at a power of two, so a column of k builds it
    O(log k) times, not k times.
    """
    _require(n >= 1 and k >= 1, "n and k must be >= 1")
    table = euler_numbers(1 << max(n, k - 1).bit_length())
    sign = (-1) ** (k + 1)
    total = Fraction(0)
    for l in range(k):
        c = comb(n, l)
        if not c:
            continue  # also avoids negative powers of k when l > n
        total += c * table[l] * k ** (n - l)
    return Fraction(sign, 2) * total + Fraction(table[n], 2) * (1 + sign)


def alt_sum_formula_check(k: int, n: int, transposed: bool = False) -> VerificationRecord:
    """Compare the literal formula against the brute-force alternating sum.

    With transposed=True the two index roles are exchanged before
    substitution, documenting whether the swap repairs the formula.
    """
    brute = alt_power_sum(k, n)
    rhs = euler_alt_formula(k, n) if transposed else euler_alt_formula(n, k)
    identity = "alt_sum_formula_transposed" if transposed else "alt_sum_formula"
    return record_from_difference(identity, {"k": k, "n": n}, rhs - brute)
