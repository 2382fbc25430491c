"""The exact Gram congruence on blocks that are not already diagonal.

The preset and eps sectors give diagonal Gram blocks, so they never
reach the elimination steps of ``_congruence_diagonalize``.  Seeds
omega:L,M under all four generators give blocks with off-diagonal
entries (col_op); hand-built matrices with zero pivots reach col_swap
and the pivot repair that adds a column.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
import pytest

from kreinosc.algebra2d import omega
from kreinosc.scalars import GS_ZERO, GradedScalar
from kreinosc.sectors import GENERATOR_ORDER, _congruence_diagonalize, generate_sector, quotient_report

SEEDS = ((Fraction(1, 2), 3), (Fraction(7, 2), 8), (Fraction(5, 2), 1), (Fraction(2), 0))


def _mp(g: GradedScalar):
    return mpmath.fsum(
        mpmath.mpf(q.numerator) / q.denominator * mpmath.sqrt(2) ** j * mpmath.pi ** (mpmath.mpf(k) / 2)
        for (j, k), q in g._terms.items()
    )


def _eig_signature(entries) -> tuple:
    """(plus, minus, zero) eigenvalue counts at 60 digits."""
    with mpmath.workdps(60):
        mat = mpmath.matrix([[_mp(c) for c in row] for row in entries])
        scale = max([abs(x) for x in mat] + [mpmath.mpf(1)])
        eigs = mpmath.eigsy(mat, eigvals_only=True)
        tol = scale * mpmath.mpf(10) ** -40
        return (
            sum(1 for x in eigs if x > tol),
            sum(1 for x in eigs if x < -tol),
            sum(1 for x in eigs if abs(x) <= tol),
        )


def _apply(entries, vec) -> list:
    return [sum((c * v for c, v in zip(row, vec)), GS_ZERO) for row in entries]


def _blocks():
    for lam, mu in SEEDS:
        lattice = generate_sector(omega(lam, mu), GENERATOR_ORDER, 3)
        yield from quotient_report(lattice).blocks


def test_off_diagonal_blocks_match_a_numeric_eigen_count_and_have_exact_kernels():
    blocks = list(_blocks())
    assert len(blocks) == 28
    n_off = 0
    for b in blocks:
        n = len(b.entries)
        n_off += any(b.entries[i][j] for i in range(n) for j in range(n) if i != j)
        assert b.signature == _eig_signature(b.entries)
        assert len(b.kernel) == b.signature[2]
        for vec in b.kernel:
            assert any(vec)
            assert not any(_apply(b.entries, vec))
    assert n_off == 21


def _terms(x: GradedScalar) -> list:
    """Stored terms of a scalar, in stored order."""
    return [(g, str(q)) for g, q in x._terms.items()]


PI = GradedScalar.pi()
ONE = GradedScalar.one()
R2 = GradedScalar.sqrt2()
Z = GS_ZERO
A = ONE + R2 * PI
B = PI + R2

ZERO_PIVOT_CASES = [
    pytest.param(
        # a zero pivot with a later nonzero diagonal: swap
        [[Z, PI], [PI, ONE]],
        [[((0, 0), "1")], [((0, 4), "-1")]],
        [[[], [((0, 0), "1")]], [[((0, 0), "1")], [((0, 2), "-1")]]],
        id="swap",
    ),
    pytest.param(
        # no nonzero diagonal left: add the column of an off-diagonal entry
        [[Z, ONE], [ONE, Z]],
        [[((0, 0), "2")], [((0, 0), "-2")]],
        [[[((0, 0), "1")], [((0, 0), "1")]], [[((0, 0), "-1")], [((0, 0), "1")]]],
        id="add",
    ),
    pytest.param(
        [[Z, A, B], [A, Z, Z], [B, Z, Z]],
        [
            [((0, 0), "2"), ((1, 2), "2")],
            [((0, 0), "-2"), ((1, 2), "-6"), ((0, 4), "-12"), ((1, 6), "-4")],
            [],
        ],
        [
            [[((0, 0), "1")], [((0, 0), "1")], []],
            [[((0, 0), "-1"), ((1, 2), "-1")], [((0, 0), "1"), ((1, 2), "1")], []],
            [
                [],
                [((0, 2), "28"), ((1, 4), "36"), ((0, 6), "40"), ((1, 8), "8"), ((1, 0), "4")],
                [((0, 0), "-4"), ((1, 2), "-16"), ((0, 4), "-48"), ((1, 6), "-32"), ((0, 8), "-16")],
            ],
        ],
        id="add-with-kernel",
    ),
]


@pytest.mark.parametrize("mat, diag, cols", ZERO_PIVOT_CASES)
def test_zero_pivot_congruence_is_pinned(mat, diag, cols):
    d, ecols = _congruence_diagonalize(mat)
    assert [_terms(x) for x in d] == diag
    assert [[_terms(x) for x in col] for col in ecols] == cols
    n = len(mat)
    for i in range(n):
        # E^T mat E is the diagonal: column i pairs to d[i] with itself, 0 with the rest
        image = _apply(mat, ecols[i])
        for k in range(n):
            pair = sum((x * y for x, y in zip(ecols[k], image)), GS_ZERO)
            assert pair == (d[i] if k == i else GS_ZERO)
