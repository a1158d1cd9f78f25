"""Host-speed reference of the benchmark: a fixed computation on the standard
library alone, independent of qgenocchi.

Bernoulli numbers B_0 .. B_N by the Akiyama-Tanigawa algorithm over
`fractions.Fraction`, the same kind of big-rational arithmetic the package
does.  The benchmark runs it cold, interleaved with the workload, to scale
its timings to a fixed host speed.  Prints B_N.
"""

from fractions import Fraction

N = 140

a = [Fraction(0)] * (N + 1)
for m in range(N + 1):
    a[m] = Fraction(1, m + 1)
    for j in range(m, 0, -1):
        a[j - 1] = j * (a[j - 1] - a[j])
print(a[0])
