"""Exact gamma at half-integers agrees with the recurrence gamma(s+1) = s*gamma(s).

``gamma_exact`` writes the value down from Legendre's closed form; the
reference here climbs and descends from gamma(1/2) = sqrt(pi) one step at a
time, and both must store the same term ``((0, 1), q)`` with q a Fraction.
"""

import time
from fractions import Fraction

from kreinosc import gamma_exact

HALF = Fraction(1, 2)


def recurrence_table(top: int) -> dict:
    """{arg: q} with gamma(arg) = q*sqrt(pi) for every half-integer |arg| <= top + 1/2."""
    table = {HALF: Fraction(1)}
    s, q = HALF, Fraction(1)
    for _ in range(top):  # gamma(s + 1) = s * gamma(s)
        s, q = s + 1, q * s
        table[s] = q
    s, q = HALF, Fraction(1)
    for _ in range(top + 1):  # gamma(s - 1) = gamma(s) / (s - 1)
        s, q = s - 1, q / (s - 1)
        table[s] = q
    return table


def stored(arg):
    terms = gamma_exact(arg).terms()
    assert len(terms) == 1
    (grade, q), = terms
    assert type(q) is Fraction
    return grade, q


def test_gamma_matches_the_recurrence_up_to_200():
    table = recurrence_table(200)
    assert len(table) == 402
    for arg, q in table.items():
        assert stored(arg) == ((0, 1), q), arg


def test_gamma_matches_the_recurrence_at_the_bound():
    start = time.perf_counter()
    table = recurrence_table(4095)
    for arg in (Fraction(8191, 2), Fraction(-8191, 2)):
        assert stored(arg) == ((0, 1), table[arg])
    assert time.perf_counter() - start < 2.0
