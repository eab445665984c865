"""Exact integer matrix normal forms, invariant factors, kernels and lattice
membership.

Entries are plain Python integers, so intermediate values never overflow.
:func:`invariant_factors` and :func:`rank_over_q` read sparse rows, one
``{column: value}`` dict per row in which a zero value counts as absent
(:data:`SparseRow`), and work on copies, so shared rows come back unchanged;
everything else works on row-major ``list[list[int]]`` matrices.  The one Smith elimination pivots on the minimal nonzero entry,
taking the first unit it meets, and never builds a left transform;
:func:`kernel_basis` keeps its right transform and certifies ``A·v == 0``
for every kernel vector.  :func:`invariant_factors` builds no transforms: it
eliminates ±1 pivots, deleting each pivot's row and column, and divides the
remainder by its content whenever no unit is left (SNF(g·B) = g·SNF(B));
only a remainder of content 1 without a unit goes through the dense
elimination.  :func:`rank_over_q` is the independent cross-check of the
Smith-form rank.
Hermite normal form is the canonical row-echelon form (positive pivots,
entries above a pivot reduced into ``[0, pivot)``); :func:`solve_left`
decides membership by back-substitution against it, and :func:`membership`
multiplies its certificate back before it answers yes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Matrix = list[list[int]]
Vector = list[int]
SparseRow = Mapping[int, int]


class DimensionMismatchError(ValueError):
    pass


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatchError("inner dimensions differ")
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
            for i in range(len(a))]


def transpose(a: Sequence[Sequence[int]]) -> Matrix:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def bareiss_determinant(a: Sequence[Sequence[int]]) -> int:
    """Exact determinant via fraction-free elimination."""
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise DimensionMismatchError("determinant of non-square matrix")
    m = [list(map(int, row)) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# ---- Smith normal form ----------------------------------------------------


def _swap_rows(m: Matrix, i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def _smith_reduce(a: Sequence[Sequence[int]], with_right: bool
                  ) -> tuple[tuple[int, ...], Matrix | None]:
    """Diagonalize a copy of ``a`` to Smith form; return ``(diag, right_t)``.

    The one Smith elimination, behind :func:`kernel_basis` (with the right
    transform) and the dense remainder of :func:`invariant_factors`
    (without).  ``diag`` has ``min(rows, cols)`` entries, d1 | d2 | ...
    then zeros.  ``right_t`` holds the columns of the right transform as
    rows, so each column operation is a row operation on it; it is None
    unless ``with_right`` is set.  No left transform is built.

    Once pivot ``t`` is done, row ``t`` and column ``t`` are zero off the
    diagonal, so later row operations on ``d`` touch only columns ``>= t``
    and later column operations only rows ``>= t``.
    """
    rows = len(a)
    cols = len(a[0]) if a else 0
    d = [list(map(int, row)) for row in a]
    if any(len(row) != cols for row in d):
        raise DimensionMismatchError("ragged matrix")
    right_t = identity(cols) if with_right else None
    k = min(rows, cols)
    t = 0
    while t < k:
        # Entry of minimal nonzero magnitude in the trailing block, the first
        # in row-major order on ties.  Nothing beats a unit, so the search
        # stops at the first one: the pivot a full scan would pick.
        best = 0
        for i in range(t, rows):
            row = d[i]
            for j in range(t, cols):
                x = row[j]
                if x and (best == 0 or abs(x) < best):
                    best, pi, pj = abs(x), i, j
                    if best == 1:
                        break
            if best == 1:
                break
        if best == 0:
            break
        if pi != t:
            _swap_rows(d, t, pi)
        if pj != t:
            for row in d[t:]:
                row[t], row[pj] = row[pj], row[t]
            if right_t is not None:
                _swap_rows(right_t, t, pj)
        top = d[t]
        p = top[t]
        dirty = False
        for i in range(t + 1, rows):
            row = d[i]
            if row[t]:
                q = row[t] // p
                for j in range(t, cols):
                    row[j] -= q * top[j]
                if row[t]:
                    dirty = True
        for j in range(t + 1, cols):
            if top[j]:
                q = top[j] // p
                for row in d[t:]:
                    row[j] -= q * row[t]
                if right_t is not None:
                    right_t[j] = [x - q * y for x, y in zip(right_t[j], right_t[t])]
                if top[j]:
                    dirty = True
        if dirty:
            continue
        if best != 1:
            # The pivot must divide the whole trailing block for the
            # invariant chain; a unit always does.
            fix = None
            for i in range(t + 1, rows):
                row = d[i]
                for j in range(t + 1, cols):
                    if row[j] % p != 0:
                        fix = i
                        break
                if fix is not None:
                    break
            if fix is not None:
                row = d[fix]
                for j in range(t, cols):
                    top[j] += row[j]
                continue
        if p < 0:
            top[t] = -p
        t += 1
    return tuple(d[i][i] for i in range(k)), right_t


def invariant_factors(rows: Sequence[SparseRow], cols: int) -> tuple[int, ...]:
    """Smith invariant factors of the ``len(rows) x cols`` matrix whose rows
    are the sparse ``rows``: the divisibility chain, then zeros,
    ``min(len(rows), cols)`` entries in all, equal to the diagonal of the
    dense Smith elimination of the matrix.

    Each row is a ``{col: value}`` dict with ``0 <= col < cols``; a column
    out of range raises :class:`DimensionMismatchError`.  The elimination
    works on copies of the rows (``dict(row)``, O(nonzeros) each; zero
    values dropped), so the caller's rows come back unchanged.  A pivot of value ±1 is
    eliminated with its row and column deleted, and contributes one factor
    equal to the current scale.  When no unit is left, the remainder is
    divided by its content ``g > 1`` and the scale multiplied by ``g``, which
    is exact because SNF(g·B) = g·SNF(B).  Only a remainder of content 1
    without a unit goes to the dense Smith elimination, which builds no
    transform.
    """
    live: dict[int, dict[int, int]] = {}
    where: dict[int, set[int]] = {}  # column -> live rows nonzero there
    for i, row in enumerate(rows):
        entries = dict(row)
        if 0 in entries.values():
            entries = {j: x for j, x in entries.items() if x}
        if entries:
            live[i] = entries
            for j in entries:
                where.setdefault(j, set()).add(i)
    if where and (min(where) < 0 or max(where) >= cols):
        raise DimensionMismatchError(f"a row has a column outside 0..{cols - 1}")
    factors: list[int] = []
    scale = 1
    while live:
        found = _unit_pivots(live, where)
        factors.extend([scale] * found)
        if found:
            continue
        g = 0
        for entries in live.values():
            g = math.gcd(g, *entries.values())
        if g == 1:
            break
        for entries in live.values():
            for j in entries:
                entries[j] //= g
        scale *= g
    if live:
        rest = sorted(where)
        dense = [[entries.get(j, 0) for j in rest] for entries in live.values()]
        diag, _ = _smith_reduce(dense, with_right=False)
        factors.extend(scale * x for x in diag if x)
    return tuple(factors) + (0,) * (min(len(rows), cols) - len(factors))


def _unit_pivots(live: dict[int, dict[int, int]],
                 where: dict[int, set[int]]) -> int:
    """One sweep over the rows, eliminating on ±1 entries; return how many.

    Each pivot row and column is deleted from ``live`` and ``where``.  Row
    ``k`` loses ``q`` times the pivot row, where ``q`` clears its entry in the
    pivot column; that column is then zero off the pivot, so the column
    operations that clear the rest of the pivot row touch nothing else.  Of a
    row's units the one in the sparsest column is taken, to limit fill-in.
    """
    count = 0
    for i in list(live):
        prow = live.get(i)
        if prow is None:
            continue
        units = [j for j, x in prow.items() if x == 1 or x == -1]
        if not units:
            continue
        j = min(units, key=lambda c: len(where[c]))
        u = prow.pop(j)
        del live[i]
        for c in prow:
            where[c].discard(i)
        targets = where.pop(j)
        targets.discard(i)
        for k in targets:
            row = live[k]
            q = row.pop(j) * u
            for c, x in prow.items():
                v = row.get(c, 0) - q * x
                if v:
                    if c not in row:
                        where[c].add(k)
                    row[c] = v
                elif c in row:
                    del row[c]
                    where[c].discard(k)
            if not row:
                del live[k]
        for c in prow:
            if not where[c]:
                del where[c]
        count += 1
    return count


def rank_over_q(rows: Iterable[SparseRow]) -> int:
    """Row rank over Q of the sparse ``{col: value}`` rows; the cross-check
    of the Smith-form rank.

    Fraction-free integer forward elimination, independent of the Smith
    code: each row is reduced against an echelon basis keyed by leading
    column, divided by its content after each step, and joins the basis when
    its leading column is new.  There is no back-substitution.  Each row is
    read into a copy (zero values dropped), and every reduction step builds
    a new dict, so the caller's rows come back unchanged.
    """
    echelon: dict[int, dict[int, int]] = {}
    for row in rows:
        entries = dict(row)
        if 0 in entries.values():
            entries = {j: x for j, x in entries.items() if x}
        while entries:
            lead = min(entries)
            base = echelon.get(lead)
            if base is None:
                echelon[lead] = entries
                break
            g = math.gcd(base[lead], entries[lead])
            p, x = base[lead] // g, entries[lead] // g
            reduced = {j: p * v for j, v in entries.items()}
            for j, v in base.items():
                w = reduced.get(j, 0) - x * v
                if w:
                    reduced[j] = w
                else:
                    del reduced[j]
            content = math.gcd(*reduced.values()) if reduced else 1
            entries = {j: v // content for j, v in reduced.items()}
    return len(echelon)


def kernel_basis(a: Sequence[Sequence[int]]) -> list[Vector]:
    """Basis of {v : A v = 0}; the spanned lattice is saturated.

    The basis is the columns of the Smith right transform beyond the rank.
    Each vector is certified by ``A v == 0`` before it is returned.
    """
    rows = len(a)
    cols = len(a[0]) if a else 0
    if rows == 0:
        return [row[:] for row in identity(cols)]
    diag, right_t = _smith_reduce(a, with_right=True)
    kernel = right_t[sum(1 for x in diag if x):]
    for row in a:
        for v in kernel:
            if sum(map(operator.mul, row, v)):
                raise ArithmeticError("kernel vector not annihilated by the matrix")
    return kernel


# ---- Hermite normal form ---------------------------------------------------


def hermite_normal_form(gens: Sequence[Sequence[int]],
                        with_transform: bool = False):
    """Canonical row HNF.  Returns the nonzero rows; optionally also a
    unimodular transform U (len(gens) x len(gens)) such that hnf row i equals
    U[i] @ gens."""
    m = len(gens)
    n = len(gens[0]) if m else 0
    if any(len(row) != n for row in gens):
        raise DimensionMismatchError("generators of mixed lengths")
    h = [list(map(int, row)) for row in gens]
    u = identity(m)
    pivot_row = 0
    for col in range(n):
        # Combine rows so a single nonzero remains in this column below pivot_row.
        found = None
        for i in range(pivot_row, m):
            if h[i][col]:
                found = i
                break
        if found is None:
            continue
        if found != pivot_row:
            _swap_rows(h, pivot_row, found)
            _swap_rows(u, pivot_row, found)
        for i in range(pivot_row + 1, m):
            if h[i][col]:
                g, x, y = xgcd(h[pivot_row][col], h[i][col])
                p, q = h[pivot_row][col] // g, h[i][col] // g
                new_top = [x * a + y * b for a, b in zip(h[pivot_row], h[i])]
                new_bot = [-q * a + p * b for a, b in zip(h[pivot_row], h[i])]
                h[pivot_row], h[i] = new_top, new_bot
                new_top_u = [x * a + y * b for a, b in zip(u[pivot_row], u[i])]
                new_bot_u = [-q * a + p * b for a, b in zip(u[pivot_row], u[i])]
                u[pivot_row], u[i] = new_top_u, new_bot_u
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-x for x in h[pivot_row]]
            u[pivot_row] = [-x for x in u[pivot_row]]
        for i in range(pivot_row):
            q = h[i][col] // h[pivot_row][col]
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[pivot_row])]
                u[i] = [a - q * b for a, b in zip(u[i], u[pivot_row])]
        pivot_row += 1
        if pivot_row == m:
            break
    nonzero = [row[:] for row in h[:pivot_row]]
    if not with_transform:
        return nonzero
    return nonzero, u


# ---- solving and membership -------------------------------------------------


def solve_left(target: Sequence[int], gens: Sequence[Sequence[int]]) -> Vector | None:
    """Integer row vector x with x @ gens == target, or None."""
    if not gens:
        return [] if all(t == 0 for t in target) else None
    n = len(gens[0])
    if len(target) != n:
        raise DimensionMismatchError("target length differs from generators")
    h, u = hermite_normal_form(gens, with_transform=True)
    residue = list(map(int, target))
    coeffs = [0] * len(gens)
    for r, row in enumerate(h):
        pivot_col = next(j for j, x in enumerate(row) if x)
        if residue[pivot_col] % row[pivot_col] != 0:
            return None
        q = residue[pivot_col] // row[pivot_col]
        if q:
            residue = [a - q * b for a, b in zip(residue, row)]
            coeffs = [a + q * b for a, b in zip(coeffs, u[r])]
    if any(residue):
        return None
    return coeffs


def solve_left_rational(target: Sequence[int],
                        gens: Sequence[Sequence[int]]) -> list[Fraction] | None:
    """Rational solution of x @ gens == target, or None when inconsistent."""
    if not gens:
        return [] if all(t == 0 for t in target) else None
    m = len(gens)
    n = len(gens[0])
    # Solve gens^T y = target by Gauss-Jordan over Q, tracking columns.
    aug = [[Fraction(gens[i][j]) for i in range(m)] + [Fraction(target[j])]
           for j in range(n)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(m):
        pivot_row = None
        for i in range(r, n):
            if aug[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
    for i in range(r, n):
        if aug[i][m]:
            return None
    solution = [Fraction(0)] * m
    for row, col in pivots:
        solution[col] = aug[row][m]
    return solution


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    certificate: tuple[int, ...] | None


def membership(target: Sequence[int], gens: Sequence[Sequence[int]],
               modulus: int | None = None) -> MembershipResult:
    """Decide lattice (or Z/m-module) membership with a verifiable certificate.

    A yes is believed only after the certificate is multiplied back into
    the generators and reproduces the target (mod ``modulus`` if given);
    a mismatch raises ``ArithmeticError``.
    """
    gens = [list(map(int, g)) for g in gens]
    target = list(map(int, target))
    for g in gens:
        if len(g) != len(target):
            raise DimensionMismatchError("generator length differs from target")
    if modulus is None:
        x = solve_left(target, gens)
        if x is None:
            return MembershipResult(False, None)
        certificate = tuple(x)
    else:
        n = len(target)
        extended = [g[:] for g in gens]
        for i in range(n):
            row = [0] * n
            row[i] = modulus
            extended.append(row)
        x = solve_left([t % modulus for t in target], extended)
        if x is None:
            return MembershipResult(False, None)
        certificate = tuple(c % modulus for c in x[:len(gens)])
    combined = [sum(c * g[j] for c, g in zip(certificate, gens))
                for j in range(len(target))]
    if modulus is not None:
        combined = [v % modulus for v in combined]
        target = [t % modulus for t in target]
    if combined != target:
        raise ArithmeticError("membership certificate does not reproduce the target")
    return MembershipResult(True, certificate)
