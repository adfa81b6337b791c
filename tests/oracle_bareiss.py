"""Dense fraction-free (Bareiss) elimination, the oracle for solve_exact.

Test-only.  This is the solver ``algebra.solve_exact`` used before it
became sparse; the production path never imports this module.  Both
walk the columns left to right and set the free columns to 0, so they
must return the same solution, list for list, or both None.
"""

from fractions import Fraction
from math import lcm
from typing import List, Optional, Tuple


def bareiss_solve(rows: List[List[Fraction]], rhs: List[Fraction]
                  ) -> Optional[List[Fraction]]:
    """One exact solution of A x = b over the rationals, or None.

    Clears denominators row by row and runs fraction-free (Bareiss)
    elimination on the integer matrix, so no intermediate rounding can
    occur.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    m: List[List[int]] = []
    for row, b in zip(rows, rhs):
        denom = lcm(*(v.denominator for v in list(row) + [b]))
        m.append([int(v * denom) for v in list(row) + [b]])
    prev = 1
    piv_rows: List[Tuple[int, int]] = []   # (row, col) of pivots
    r = 0
    for c in range(n_cols):
        piv = None
        for i in range(r, n_rows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, n_rows):
            for j in range(c + 1, n_cols + 1):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        piv_rows.append((r, c))
        r += 1
        if r == n_rows:
            break
    for i in range(r, n_rows):
        if m[i][n_cols] != 0:
            return None
    solution = [Fraction(0)] * n_cols
    for row, col in reversed(piv_rows):
        acc = Fraction(m[row][n_cols])
        for j in range(col + 1, n_cols):
            acc -= m[row][j] * solution[j]
        solution[col] = acc / m[row][col]
    return solution
