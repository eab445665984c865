"""Exact integer matrix normal forms, invariant factors, kernels and lattice
membership.

Entries are plain Python integers, so intermediate values never overflow.
:func:`invariant_factors` reads sparse rows, one ``{column: value}`` dict
per row in which a zero value counts as absent (:data:`SparseRow`), and
works on copies, so shared rows come back unchanged; everything else works
on row-major ``list[list[int]]`` matrices.

Two eliminations, one job each.  The Smith elimination gives invariant
factors only and builds no transform: :func:`invariant_factors` retires
each singleton row ``±g·e_j``, ``g`` the content of all rows, before it
indexes the rest, then takes the content ``g`` of the remainder and sweeps
the rows once for ±g pivots (SNF(g·B) = g·SNF(B)), deleting each pivot's
row and column, and repeats; nothing is divided, and no sweep is spent on
rows that cannot hold a pivot.  Only a remainder in which a sweep finds no
pivot goes, divided by its content, through the dense elimination, which
pivots on the minimal nonzero entry, taking the first unit it meets; a
caller can cap the width of that remainder, the one cost that no input
bound limits.  The Hermite elimination is the only one with a transform,
and every solve and kernel reads it (Cohen, *A Course in Computational
Algebraic Number Theory*, 1993, §2.4): :func:`hermite_normal_form` returns
the canonical row-echelon form (positive pivots, entries above a pivot
reduced into ``[0, pivot)``) with a unimodular ``u``;
:func:`left_kernel` returns the rows of ``u`` beyond the rank, certified by
matrix products and a determinant, with no call to the Smith elimination;
and :func:`solve_left_rational` and :func:`solve_left` read their answer off
the certified kernel of ``[-target; gens]``, with no back-substitution; a
rational answer ``y / g`` is the pair of integers ``(y, g)``.
:func:`membership` decides membership modulo ``m``: it looks for a
separating vector before it answers no, and multiplies its certificate back
before it answers yes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

Matrix = list[list[int]]
Vector = list[int]
SparseRow = Mapping[int, int]


class DimensionMismatchError(ValueError):
    pass


class DenseWidthError(ValueError):
    """The remainder left for the dense Smith elimination is wider than the
    caller's ``dense_limit``; ``width`` is its column count."""

    def __init__(self, width: int, limit: int):
        super().__init__(f"dense remainder of {width} columns, over the "
                         f"limit of {limit}")
        self.width = width


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatchError("inner dimensions differ")
    return [[sum(map(operator.mul, row, col)) for col in zip(*b)] for row in a]


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


def _smith_reduce(a: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Diagonalize a copy of ``a`` to Smith form and return the diagonal.

    The one Smith elimination, behind the dense remainder of
    :func:`invariant_factors`.  The diagonal has ``min(rows, cols)``
    entries, d1 | d2 | ... then zeros.  No transform is built.

    Once pivot ``t`` is done, row ``t`` and column ``t`` are zero off the
    diagonal, so later row operations on ``d`` touch only columns ``>= t``
    and later column operations only rows ``>= t``.
    """
    rows = len(a)
    cols = len(a[0]) if a else 0
    d = [list(map(int, row)) for row in a]
    if any(len(row) != cols for row in d):
        raise DimensionMismatchError("ragged matrix")
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
            d[t], d[pi] = d[pi], d[t]
        if pj != t:
            for row in d[t:]:
                row[t], row[pj] = row[pj], row[t]
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
    return tuple(d[i][i] for i in range(k))


def invariant_factors(rows: Sequence[SparseRow], cols: int,
                      dense_limit: int | None = None) -> tuple[int, ...]:
    """Smith invariant factors of the ``len(rows) x cols`` matrix whose rows
    are the sparse ``rows``: the divisibility chain, then zeros,
    ``min(len(rows), cols)`` entries in all, equal to the diagonal of the
    dense Smith elimination of the matrix.

    Each row is a ``{col: value}`` dict with ``0 <= col < cols``; a column
    out of range raises :class:`DimensionMismatchError`.  The elimination
    works on copies of the rows (``dict(row)``, O(nonzeros) each; zero
    values dropped), so the caller's rows come back unchanged.

    The load pass takes the content ``g`` of all rows and sets aside,
    uncopied, each row with one nonzero entry.  A singleton ``±g·e_j`` is a
    pivot that clears column ``j`` from every other row and touches nothing
    else, so each distinct such column is deleted from the copied rows for
    one factor ``g``; the other singletons join them unless their column
    went.  Each round then sweeps once for pivots ``±g``, ``g`` the content
    of the remainder (a gcd that stops at 1), deleting each pivot's row and
    column for one factor ``g``, as SNF(g·B) = g·SNF(B): the factors a
    sweep-first order would give, since a content above 1 rules out a unit.
    Only a remainder in which a sweep finds no pivot goes, divided by its
    content, to the dense Smith elimination, which builds no transform; if
    it has more than ``dense_limit`` columns, :class:`DenseWidthError` is
    raised before the elimination starts.
    """
    live: dict[int, dict[int, int]] = {}
    where: dict[int, set[int]] = {}  # column -> live rows nonzero there
    singles: list[tuple[int, int, int]] = []  # (row, column, value)
    g = 0
    for i, row in enumerate(rows):
        if len(row) == 1:
            for j, x in row.items():
                if x:
                    singles.append((i, j, x))
                    g = math.gcd(g, x)
            continue
        entries = dict(row)
        if 0 in entries.values():
            entries = {j: x for j, x in entries.items() if x}
        if entries:
            if g != 1:
                g = math.gcd(g, *entries.values())
            live[i] = entries
            for j in entries:
                rows_at = where.get(j)
                if rows_at is None:
                    where[j] = {i}
                else:
                    rows_at.add(i)
    used = where.keys() | {j for _, j, _ in singles} if singles else where
    if used and (min(used) < 0 or max(used) >= cols):
        raise DimensionMismatchError(f"a row has a column outside 0..{cols - 1}")
    factors: list[int] = []
    if singles:
        pivots = {j for _, j, x in singles if x == g or x == -g}
        for j in pivots:
            for k in where.pop(j, ()):
                row = live[k]
                del row[j]
                if not row:
                    del live[k]
        for i, j, x in singles:
            if j not in pivots:
                live[i] = {j: x}
                where.setdefault(j, set()).add(i)
        if pivots:
            factors = [g] * len(pivots)
            g = _content(live)
    while live:
        found = _unit_pivots(live, where, g)
        if not found:
            break
        factors.extend([g] * found)
        g = _content(live)
    if live:
        rest = sorted(where)
        if dense_limit is not None and len(rest) > dense_limit:
            raise DenseWidthError(len(rest), dense_limit)
        dense = [[entries.get(j, 0) for j in rest] for entries in live.values()]
        if g > 1:
            dense = [[x // g for x in row] for row in dense]
        diag = _smith_reduce(dense)
        factors.extend(g * x for x in diag if x)
    return tuple(factors) + (0,) * (min(len(rows), cols) - len(factors))


def _content(live: dict[int, dict[int, int]]) -> int:
    """The gcd of the entries of ``live`` (0 if none), stopping once it is 1."""
    g = 0
    for entries in live.values():
        g = math.gcd(g, *entries.values())
        if g == 1:
            break
    return g


def _unit_pivots(live: dict[int, dict[int, int]],
                 where: dict[int, set[int]], unit: int) -> int:
    """One sweep over the rows, eliminating on entries ``±unit``, where
    ``unit`` divides every entry; return how many.

    Each pivot row and column is deleted from ``live`` and ``where``.  Row
    ``k`` loses ``q`` times the pivot row, where ``q`` clears its entry in the
    pivot column; that column is then zero off the pivot, and ``unit``
    divides the rest of the pivot row, so the column operations that clear
    it touch nothing else.  Of a row's pivot entries the one in the sparsest
    column is taken, to limit fill-in.
    """
    neg = -unit
    count = 0
    for i in list(live):
        prow = live.get(i)
        if prow is None:
            continue
        units = [j for j, x in prow.items() if x == unit or x == neg]
        if not units:
            continue
        j = (units[0] if len(units) == 1
             else min(units, key=lambda c: len(where[c])))
        u = prow.pop(j)
        del live[i]
        for c in prow:
            where[c].discard(i)
        targets = where.pop(j)
        targets.discard(i)
        for k in targets:
            row = live[k]
            q = row.pop(j) // u
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


# ---- Hermite normal form: every solve and kernel ---------------------------


def hermite_normal_form(gens: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix]:
    """Canonical row HNF of ``gens`` with its unimodular transform.

    Returns ``(h, u)``: ``h`` holds the ``r`` nonzero rows, a Z-basis of the
    row lattice; ``u`` is ``len(gens) x len(gens)`` and unimodular, with
    ``u[i]·gens == h[i]`` for ``i < r``, and its rows ``u[r:]`` annihilate
    ``gens``.  Only row operations of determinant ±1 are applied to both.
    """
    m = len(gens)
    n = len(gens[0]) if m else 0
    if any(len(row) != n for row in gens):
        raise DimensionMismatchError("generators of mixed lengths")
    h = [list(map(int, row)) for row in gens]
    u = identity(m)
    pivot_row = 0
    for col in range(n):
        # Combine rows so a single nonzero remains in this column below pivot_row.
        found = next((i for i in range(pivot_row, m) if h[i][col]), None)
        if found is None:
            continue
        if found != pivot_row:
            h[pivot_row], h[found] = h[found], h[pivot_row]
            u[pivot_row], u[found] = u[found], u[pivot_row]
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
    return h[:pivot_row], u


def left_kernel(gens: Sequence[Sequence[int]]) -> list[Vector]:
    """Basis of the lattice {v : v·gens == 0}: the rows of the Hermite
    transform beyond the rank, certified by the transform itself.

    Three checks, each raising ``ArithmeticError`` when it fails: ``u·gens``
    is ``h`` followed by zero rows; each row of ``h`` starts strictly to the
    right of the row above, so the rows of ``h`` are independent; and
    :func:`bareiss_determinant` (no code shared with either elimination)
    gives ``|det u| = 1``.  Then the rows of ``u`` are a basis of ``Z^m``,
    and ``c·u`` kills ``gens`` exactly when ``c[:r]·h == 0``, that is when
    ``c[:r] == 0``: the rows ``u[r:]`` span the whole kernel, and it is
    saturated.
    """
    h, u = hermite_normal_form(gens)
    r = len(h)
    cols = len(gens[0]) if gens else 0
    if matmul(u, gens) != h + [[0] * cols for _ in range(len(gens) - r)]:
        raise ArithmeticError("the transform does not carry the generators "
                              "to their Hermite form over zero rows")
    starts = [next((j for j, x in enumerate(row) if x), cols) for row in h]
    if any(a >= b for a, b in zip([-1] + starts, starts + [cols])):
        raise ArithmeticError("the Hermite form is not in echelon form")
    if abs(bareiss_determinant(u)) != 1:
        raise ArithmeticError("the Hermite transform is not unimodular")
    return u[r:]


# ---- solving and membership -------------------------------------------------


def solve_left_rational(target: Sequence[int], gens: Sequence[Sequence[int]]
                        ) -> tuple[Vector, int] | None:
    """The canonical rational x with x @ gens == target as the integers
    ``(y, g)``, ``x = y / g`` with ``g >= 1``, or None when inconsistent.

    The vectors of :func:`left_kernel` of ``[-target; gens]`` are the
    ``(a, x)`` with ``a·target == x·gens``.  That basis is certified whole,
    so the gcd ``g`` of its first coordinates is the gcd over the entire
    kernel: a rational solution exists exactly when ``g != 0``, and an
    integral one exactly when ``g == 1``.  Row 0 of the Hermite form of the
    basis is ``(g, y)``, and the rows after it are the Hermite basis of the
    syzygies, so the entries of ``y`` at the syzygy pivots lie in
    ``[0, pivot)``: the answer ``y / g`` is canonical.  That row is believed
    only with ``g`` in front and after ``y·gens == g·target`` is multiplied
    back; a mismatch raises ``ArithmeticError``.
    """
    if not gens:
        return ([], 1) if all(t == 0 for t in target) else None
    if len(target) != len(gens[0]):
        raise DimensionMismatchError("target length differs from generators")
    kernel = left_kernel([[-t for t in target], *gens])
    g = math.gcd(*(v[0] for v in kernel))
    if g == 0:
        return None
    h, _ = hermite_normal_form(kernel)
    y = h[0][1:]
    if h[0][0] != g or matmul([y], gens)[0] != [g * t for t in target]:
        raise ArithmeticError("the Hermite form of the kernel does not "
                              "give a solution over the kernel's gcd")
    return y, g


def solve_left(target: Sequence[int], gens: Sequence[Sequence[int]]) -> Vector | None:
    """The canonical integer row vector x with x @ gens == target, or None:
    its entries at the pivots of the syzygies' Hermite form lie in
    ``[0, pivot)``."""
    solution = solve_left_rational(target, gens)
    return solution[0] if solution is not None and solution[1] == 1 else None


@dataclass(frozen=True)
class MembershipResult:
    """``certificate`` is the coefficient vector of a yes, and the
    separating vector ``y`` of :func:`membership` for a no."""

    member: bool
    certificate: tuple[int, ...]


def membership(target: Sequence[int], gens: Sequence[Sequence[int]],
               modulus: int) -> MembershipResult:
    """Decide membership in the Z/m-module spanned by ``gens``, with a
    verifiable certificate; :func:`solve_left` answers it over Z.

    A no is believed only with a separating vector ``y``: ``g·y ≡ 0`` for
    every generator and ``target·y ≢ 0`` (mod ``modulus``), which no
    combination of the generators can satisfy.  It is looked for first, and
    the search is complete: when no basis vector separates, no vector of
    their span does.  Only then is the augmented system solved, for the
    coefficients of a yes, which is believed only after they are multiplied
    back into the generators and reproduce the target mod ``modulus``.  A
    mismatch, or neither a separating vector nor a solution, raises
    ``ArithmeticError``.
    """
    gens = [list(map(int, g)) for g in gens]
    n = len(target)
    if any(len(g) != n for g in gens):
        raise DimensionMismatchError("generator length differs from target")
    target = [int(t) % modulus for t in target]
    y = _separating_vector(target, gens, modulus)
    if y is not None:
        return MembershipResult(False, tuple(y))
    x = solve_left(target, gens + [[modulus if i == j else 0 for j in range(n)]
                                   for i in range(n)])
    if x is None:
        raise ArithmeticError("neither a separating vector nor a solution")
    certificate = tuple(c % modulus for c in x[:len(gens)])
    combined = [sum(c * g[j] for c, g in zip(certificate, gens)) % modulus
                for j in range(n)]
    if combined != target:
        raise ArithmeticError("membership certificate does not reproduce the target")
    return MembershipResult(True, certificate)


def _separating_vector(target: Sequence[int], gens: Sequence[Sequence[int]],
                       modulus: int) -> Vector | None:
    """``y`` mod ``modulus`` with ``g·y ≡ 0`` for every generator and
    ``target·y ≢ 0``, checked by dot products, or None.

    The vectors ``(y, z)`` of :func:`left_kernel` of the columns of
    ``[G | -m·I]`` (one row of ``G`` per generator) solve ``G·y = m·z``, and
    their ``y`` span every ``y`` with ``G·y ≡ 0``; one basis vector is tried
    after another.
    """
    k = len(gens)
    columns = [[g[j] for g in gens] for j in range(len(target))]
    columns += [[-modulus if i == j else 0 for i in range(k)] for j in range(k)]
    for v in left_kernel(columns):
        y = [c % modulus for c in v[:len(target)]]
        if (sum(map(operator.mul, target, y)) % modulus
                and not any(sum(map(operator.mul, g, y)) % modulus for g in gens)):
            return y
    return None
