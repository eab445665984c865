"""Smith and Hermite normal forms, invariant factors, kernels, membership."""

import math
import random
from fractions import Fraction
from typing import Iterable

import pytest

from pgl3chow import intlinalg as la
from pgl3chow.intlinalg import SparseRow
from pgl3chow.presented import eliminate_unit_generators, rstar_presentation
from presented_oracle import tuple_relation_rows


def smith_diag(a):
    return la._smith_reduce(a)


def sparse_rows(a):
    """The rows of a dense matrix as ``{col: value}`` dicts of their nonzero
    entries, the input format of ``invariant_factors`` and ``rank_over_q``."""
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def dense_invariant_factors(a):
    """``invariant_factors`` of a dense matrix."""
    return la.invariant_factors(sparse_rows(a), len(a[0]) if a else 0)


def rank_over_q(rows: Iterable[SparseRow]) -> int:
    """Row rank over Q of the sparse ``{col: value}`` rows; the independent
    rational-rank oracle that the tests hold the Smith-form rank against.

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


def assert_hermite_transform_certifies(a):
    """Check the Hermite transform of ``a``: ``u`` is unimodular,
    ``u[:r]·a == h`` and ``u[r:]·a == 0``."""
    h, u = la.hermite_normal_form(a)
    r = len(h)
    assert abs(la.bareiss_determinant(u)) == 1
    assert la.matmul(u[:r], a) == h
    assert all(x == 0 for row in la.matmul(u[r:], a) for x in row)


def back_substitution_solve_rational(target, gens):
    """The back-substitution that ``solve_left_rational`` replaced, kept as
    an oracle: the unique rational ``y`` with ``y·h == target`` against the
    Hermite form ``h``, then ``x = y·u[:r]``; None when inconsistent."""
    if not gens:
        return [] if all(t == 0 for t in target) else None
    h, u = la.hermite_normal_form(gens)
    residue = list(map(int, target))
    x = [0] * len(gens)
    den = 1  # residue and x are held as den times their values
    for row, transform in zip(h, u):
        pivot_col = next(j for j, v in enumerate(row) if v)
        scale = row[pivot_col] // math.gcd(residue[pivot_col], row[pivot_col])
        if scale != 1:
            den *= scale
            residue = [scale * a for a in residue]
            x = [scale * a for a in x]
        q = residue[pivot_col] // row[pivot_col]
        if q:
            residue = [a - q * b for a, b in zip(residue, row)]
            x = [a + q * b for a, b in zip(x, transform)]
    return None if any(residue) else [Fraction(a, den) for a in x]


def reduced_back_substitution_solve(target, gens):
    """The oracle's integral answer Hermite-reduced against the syzygy
    lattice, one row after another, as ``express_in`` once did; or None."""
    x = back_substitution_solve_rational(target, gens)
    if x is None or any(c.denominator != 1 for c in x):
        return None
    x = [int(c) for c in x]
    syzygies = la.left_kernel(gens)
    if syzygies:
        reduced, _ = la.hermite_normal_form(syzygies)
        for row in reduced:
            pivot = next(j for j, v in enumerate(row) if v)
            q = x[pivot] // row[pivot]
            if q:
                x = [a - q * b for a, b in zip(x, row)]
    return x


class TestSmith:
    def test_diag_2_3(self):
        assert smith_diag([[2, 0], [0, 3]]) == (1, 6)

    def test_zero_matrix(self):
        assert smith_diag([[0, 0, 0], [0, 0, 0]]) == (0, 0)

    def test_identity(self):
        assert smith_diag(la.identity(4)) == (1, 1, 1, 1)

    def test_certifying_identity(self):
        # A square nonsingular matrix: the invariant factors multiply to the
        # absolute determinant, which Bareiss elimination computes apart.
        a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        diag = smith_diag(a)
        assert diag == (2, 2, 156)
        assert math.prod(diag) == abs(la.bareiss_determinant(a))

    def test_divisibility_chain(self):
        assert smith_diag([[6, 0], [0, 4]]) == (2, 12)

    def test_golden_transforms(self):
        # The first unit (row 1, column 2) comes after larger entries in
        # row-major order; the diagonal is pinned, not only its certificate.
        a = [[6, 4, 10, 8], [4, -3, 1, 2], [8, 6, 14, 12], [2, 4, 2, 4],
             [9, 3, 15, 6]]
        assert smith_diag(a) == (1, 1, 2, 4)
        assert dense_invariant_factors(a) == (1, 1, 2, 4)


class TestInvariantFactors:
    def test_content_division_needs_no_dense_form(self, monkeypatch):
        # No unit: pivot on the 2, the content, and the 1x1 remainder -4
        # has content 4.
        def dense(a):
            raise AssertionError("dense Smith form reached")
        monkeypatch.setattr(la, "_smith_reduce", dense)
        assert dense_invariant_factors([[2, 4], [6, 8]]) == (2, 4)

    def test_dense_remainder_scaled(self, monkeypatch):
        a = [[2, 0, 0], [0, 4, 6], [0, 6, 4]]
        expected = smith_diag(a)
        seen = []
        dense = la._smith_reduce

        def spy(rest):
            seen.append(rest)
            return dense(rest)
        monkeypatch.setattr(la, "_smith_reduce", spy)
        # Content 2: the singleton 2·e_0 retires column 0, and what is
        # left, 2·[[2, 3], [3, 2]], has content 2 and no pivot ±2, so it
        # goes to the dense form divided by 2 and is scaled back by 2.
        assert dense_invariant_factors(a) == expected == (2, 2, 10)
        assert seen == [[[2, 3], [3, 2]]]

    def test_empty_and_zero(self):
        assert la.invariant_factors([], 0) == ()
        assert la.invariant_factors([], 3) == ()
        assert la.invariant_factors([{}, {}], 0) == ()
        assert la.invariant_factors([{}, {}], 3) == (0, 0)
        # Explicit zero values count as absent entries.
        assert la.invariant_factors([{0: 0}, {1: 0, 2: 0}], 3) == (0, 0)
        assert la.invariant_factors([{0: 0, 1: 2}], 3) == (2,)
        assert rank_over_q([]) == 0
        assert rank_over_q([{0: 0}, {}, {1: 0, 2: 5}]) == 1

    def test_ragged_rejected(self):
        # The sparse form of a ragged matrix: a column beyond the width.
        with pytest.raises(la.DimensionMismatchError):
            la.invariant_factors([{0: 1, 1: 2}, {2: 3}], 2)
        with pytest.raises(la.DimensionMismatchError):
            la.invariant_factors([{-1: 1}], 2)

    def test_input_rows_unchanged(self):
        # Singletons, unit pivots and the dense remainder all run on
        # copies: rows shared between the two routes must survive both.
        # The singleton e_3 retires column 3 of {2: 3, 3: 9}; 3·e_1 joins.
        rows = [{0: 2, 1: 4}, {0: 6, 2: 8}, {1: 1, 2: -1}, {}, {2: 3, 3: 9},
                {3: 1}, {1: 3}]
        before = [dict(row) for row in rows]
        assert la.invariant_factors(rows, 4) == smith_diag(
            [[row.get(j, 0) for j in range(4)] for row in rows])
        assert rows == before
        assert rank_over_q(rows) == 4
        assert rows == before


def sweep_first_invariant_factors(rows, cols):
    """The order ``invariant_factors`` replaced, kept as an oracle: sweep for
    units first, and take the content only after a sweep finds none."""
    live = {i: {j: x for j, x in row.items() if x} for i, row in enumerate(rows)}
    live = {i: entries for i, entries in live.items() if entries}
    where = {}
    for i, entries in live.items():
        for j in entries:
            where.setdefault(j, set()).add(i)
    factors, scale = [], 1
    while live:
        found = la._unit_pivots(live, where, 1)
        factors.extend([scale] * found)
        if found:
            continue
        g = math.gcd(*(x for entries in live.values() for x in entries.values()))
        if g == 1:
            break
        live = {i: {j: x // g for j, x in e.items()} for i, e in live.items()}
        scale *= g
    if live:
        rest = sorted(where)
        diag = smith_diag([[e.get(j, 0) for j in rest] for e in live.values()])
        factors.extend(scale * x for x in diag if x)
    return tuple(factors) + (0,) * (min(len(rows), cols) - len(factors))


def count_sweeps(monkeypatch):
    """Spy on ``_unit_pivots``: the returned list gets the count of pivots
    of each sweep."""
    sweeps = []
    real = la._unit_pivots

    def spy(live, where, unit):
        sweeps.append(real(live, where, unit))
        return sweeps[-1]

    monkeypatch.setattr(la, "_unit_pivots", spy)
    return sweeps


def singleton_rows(rng, trials=200):
    """Matrices ``(rows, cols)`` of content ``g`` with singleton rows.

    Each column of ``pivots`` holds a singleton ``±g``, one of them two; a
    singleton ``2g``, ``-3g`` or ``6g`` sits on a pivot column, and a zero
    singleton ``{j: 0}`` anywhere.  Off the pivot columns every entry is a
    multiple of ``g·h``: each ``lead`` row has ``±g·h`` on a column of its
    own and ``±2g·h`` or ``±3g·h`` on ``free`` columns, and ``free`` columns
    may hold singletons ``±g·h``.  So once the pivot columns go, the content
    rises from ``g`` to ``g·h``, and every row left has a pivot ``±g·h``: no
    dense elimination is needed.
    """
    for _ in range(trials):
        g, h = rng.choice((1, 2, 3)), rng.choice((1, 2, 3))
        m = rng.randint(2, 8)
        cols = rng.sample(range(m), m)
        p = rng.randint(1, m - 1)
        pivots, rest = cols[:p], cols[p:]
        lead = rest[:rng.randint(0, len(rest))]
        free = rest[len(lead):]
        rows = [{j: rng.choice((g, -g))} for j in pivots]
        rows.append({rng.choice(pivots): rng.choice((g, -g))})
        rows.append({rng.choice(pivots): rng.choice((2, -3, 6)) * g})
        rows.append({rng.randrange(m): 0})
        for c in lead:
            row = {c: rng.choice((1, -1)) * g * h}
            row.update((f, rng.choice((2, -2, 3, -3)) * g * h)
                       for f in free if rng.random() < 0.5)
            row.update((j, rng.randint(-4, 4) * g)
                       for j in pivots if rng.random() < 0.5)
            rows.append(row)
        for _ in range(rng.randint(0, 2)):
            rows.append({j: rng.randint(-4, 4) * g for j in pivots})
        rows.extend({f: rng.choice((1, -1)) * g * h}
                    for f in free if rng.random() < 0.5)
        rng.shuffle(rows)
        yield [{j: x for j, x in row.items() if x or len(row) == 1}
               for row in rows], m


class TestContentFirst:
    """``invariant_factors`` takes the content before each sweep and pivots
    on ±content, so a sweep is never spent on rows that cannot hold a pivot,
    and the singleton rows ±content·e_j are retired before any sweep."""

    def test_rstar_degree_28_takes_one_sweep(self, monkeypatch):
        # Every row of the eliminated R* presentation has content 3.  The
        # singletons 3·e_j retire their columns before the sweep, and one
        # sweep on ±3 pivots on every other row of the rank.
        basis, rows = tuple_relation_rows(
            eliminate_unit_generators(rstar_presentation()), 28)
        expected = sweep_first_invariant_factors(rows, len(basis))
        sweeps = count_sweeps(monkeypatch)
        factors = la.invariant_factors(rows, len(basis))
        assert factors == expected
        assert set(factors) == {3, 0}
        singles = {j for row in rows if len(row) == 1
                   for j, x in row.items() if abs(x) == 3}
        assert singles and len(sweeps) == 1
        assert sweeps[0] + len(singles) == sum(1 for f in factors if f)

    def test_content_after_unit_eliminations(self, monkeypatch):
        # Content 1 at first; eliminating the unit of row 0 leaves content
        # 6, and eliminating two more units after dividing leaves content 3.
        rows = [{0: 1, 1: 2}, {0: 1, 1: 8, 2: 6}, {2: 6, 3: 12}, {3: 18}]
        dense = [[row.get(j, 0) for j in range(4)] for row in rows]
        sweeps = count_sweeps(monkeypatch)
        assert la.invariant_factors(rows, 4) == smith_diag(dense) == (1, 6, 6, 18)
        assert sweeps == [1, 2, 1]

    def test_content_then_dense_remainder(self, monkeypatch):
        # After the content 2 is divided out no unit is left: one sweep
        # finds nothing and the remainder goes to the dense elimination.
        rows = [{0: 4, 1: 6}, {0: 6, 1: 4}]
        sweeps = count_sweeps(monkeypatch)
        assert la.invariant_factors(rows, 2) == smith_diag([[4, 6], [6, 4]]) \
            == (2, 10)
        assert sweeps == [0]

    def test_matches_the_sweep_first_order(self):
        # Rows of a few contents, each with a unit after dividing, mixed so
        # that contents appear only after the units of other rows go; then
        # the singleton family, whose remainder needs no dense elimination,
        # so a stale content, which finds no pivot, trips the limit 0.
        rng = random.Random(16)
        for _ in range(200):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            rows = []
            for _ in range(n):
                g = rng.choice((1, 1, 2, 3, 6))
                row = {j: g * rng.randint(-3, 3) for j in range(m)}
                rows.append({j: x for j, x in row.items() if x})
            dense = [[row.get(j, 0) for j in range(m)] for row in rows]
            assert la.invariant_factors(rows, m) \
                == sweep_first_invariant_factors(rows, m) == smith_diag(dense)
        for rows, m in singleton_rows(random.Random(7)):
            dense = [[row.get(j, 0) for j in range(m)] for row in rows]
            assert la.invariant_factors(rows, m, dense_limit=0) \
                == sweep_first_invariant_factors(rows, m) == smith_diag(dense)


class TestKernel:
    """``left_kernel`` of the transposed matrix: the kernel ``{v : A v = 0}``."""

    def test_sum_vector(self):
        kernel = la.left_kernel(la.transpose([[1, 1, 1]]))
        assert len(kernel) == 2
        expected, _ = la.hermite_normal_form([[1, -1, 0], [0, 1, -1]])
        assert la.hermite_normal_form(kernel)[0] == expected

    def test_identity_has_trivial_kernel(self):
        assert la.left_kernel(la.transpose(la.identity(3))) == []

    def test_saturation(self):
        kernel = la.left_kernel(la.transpose([[2, -2]]))
        assert la.hermite_normal_form(kernel)[0] == [[1, 1]]
        assert dense_invariant_factors(kernel) == (1,)

    def test_kernel_vectors_annihilate(self):
        a = [[3, 1, -2, 0], [1, 0, 4, 2]]
        for v in la.left_kernel(la.transpose(a)):
            assert la.matmul(a, [[c] for c in v]) == [[0], [0]]

    def test_certificate_failure_raises(self, monkeypatch):
        # Each corruption of the Hermite transform is caught by one check
        # alone: a doubled kernel row keeps u·gens = h over zero rows but
        # doubles det u; a dropped or replaced row breaks u·gens (the
        # replaced one keeps det u = ±1); and for gens = [[1], [1]] the pair
        # h = [[1], [1]], u = I passes both, but h is not in echelon form.
        hermite = la.hermite_normal_form
        cases = (
            ([[1], [1], [1]], lambda h, u: (h, u[:-1] + [[2 * x for x in u[-1]]]),
             "not unimodular"),
            ([[1], [1], [1]], lambda h, u: (h, u[:-1]), "zero rows"),
            ([[1], [1], [1]], lambda h, u: (h, u[:-1] + [[1, 0, 0]]), "zero rows"),
            ([[1], [1]], lambda h, u: ([[1], [1]], la.identity(2)),
             "not in echelon form"),
        )
        for gens, corrupt, message in cases:
            monkeypatch.setattr(la, "hermite_normal_form",
                                lambda g, corrupt=corrupt: corrupt(*hermite(g)))
            with pytest.raises(ArithmeticError, match=message):
                la.left_kernel(gens)

    def test_hermite_transform_certifies(self):
        for a in ([[1, 1], [1, 1], [2, 0]], [[2, 4, 4], [-6, 6, 12]], [[0, 0]],
                  [[3], [5], [7]], []):
            assert_hermite_transform_certifies(a)


class TestMembership:
    """Lattice membership: over Z by ``solve_left``, whose answer is
    multiplied back here, and modulo ``m`` by ``membership``."""

    def test_simple_member(self):
        assert la.solve_left([1, 1], [[1, 0], [0, 1]]) == [1, 1]

    def test_index_two_nonmember(self):
        assert la.solve_left([1, 0], [[2, 0]]) is None

    def test_modular_membership(self):
        # 2*(2,1) = (4,2) == (1,2) mod 3
        result = la.membership([1, 2], [[2, 1]], modulus=3)
        assert result.member
        recombined = [sum(c * g[j] for c, g in zip(result.certificate, [[2, 1]]))
                      % 3 for j in range(2)]
        assert recombined == [1, 2]

    def test_certificate_recombines(self):
        # The generators have determinant 5; (3, 4, 3) = (1, 2, 1)·gens is
        # a member, and (3, 5, 1) is not.
        gens = [[1, 2, 0], [0, 1, 1], [2, 0, 1]]
        target = [3, 4, 3]
        x = la.solve_left(target, gens)
        assert [sum(c * g[j] for c, g in zip(x, gens))
                for j in range(3)] == target
        assert la.solve_left([3, 5, 1], gens) is None

    def test_dimension_mismatch(self):
        with pytest.raises(la.DimensionMismatchError):
            la.membership([1, 0, 0], [[1, 0]], modulus=3)

    def test_wrong_certificate_raises(self, monkeypatch):
        solve = la.solve_left

        def off_by_one(target, gens):
            x = solve(target, gens)
            return None if x is None else [x[0] + 1] + x[1:]

        monkeypatch.setattr(la, "solve_left", off_by_one)
        with pytest.raises(ArithmeticError):
            la.membership([1, 2], [[2, 1]], modulus=3)
        # A non-member is answered by its separating vector, not the solve.
        assert not la.membership([1, 0], [[1, 1]], modulus=3).member

    def test_modular_certificate_checked_mod_m(self, monkeypatch):
        # A certificate off by the modulus still reproduces the target mod m.
        solve = la.solve_left
        monkeypatch.setattr(la, "solve_left",
                            lambda t, g: [c + 3 for c in solve(t, g)])
        result = la.membership([1, 2], [[2, 1]], modulus=3)
        assert result.member and result.certificate == (2,)


    def test_modular_nonmember_has_separating_vector(self):
        # (1, 0) is outside the F3-span of (1, 1); y = (1, 2) separates.
        gens = [[1, 1]]
        result = la.membership([1, 0], gens, modulus=3)
        assert not result.member
        y = result.certificate
        assert sum(t * c for t, c in zip([1, 0], y)) % 3
        assert all(sum(g * c for g, c in zip(row, y)) % 3 == 0 for row in gens)
        # A member has no separating vector to claim.
        assert la._separating_vector([2, 2], gens, 3) is None

    def test_nonmember_needs_no_solve(self, monkeypatch):
        # The separating vector is looked for first, so a no takes one
        # elimination and never reaches the solve.
        def no_solve(target, gens):
            raise AssertionError("solve reached for a non-member")
        monkeypatch.setattr(la, "solve_left", no_solve)
        assert not la.membership([1, 0], [[1, 1]], modulus=3).member

    def test_unproven_nonmember_raises(self, monkeypatch):
        monkeypatch.setattr(la, "_separating_vector", lambda t, g, m: None)
        with pytest.raises(ArithmeticError):
            la.membership([1, 0], [[1, 1]], modulus=3)


class TestSolvers:
    def test_solve_left_none_when_unsolvable(self):
        assert la.solve_left([1], [[2]]) is None

    def test_rational_fallback(self):
        solution = la.solve_left_rational([1], [[2]])
        assert solution is not None
        assert solution == ([1], 2)

    def test_canonical_under_a_syzygy(self):
        # -4*x1 - 3*x2 = 5: the back-substitution finds (-5, 5); the
        # syzygies are spanned by (3, -4), so the canonical answer has its
        # first entry in [0, 3).
        gens = [[-4], [-3]]
        assert back_substitution_solve_rational([5], gens) == [-5, 5]
        assert la.solve_left([5], gens) == [1, -3]
        assert la.solve_left([5], gens) == reduced_back_substitution_solve([5], gens)

    def test_rational_over_a_kernel_gcd_above_one(self):
        # a·(1, 1) = x·gens needs 6 | a, so g = 6; the syzygy (2, 1, -1)
        # reduces the first entry of y = (1, 1, 1) into [0, 2).
        gens = [[2, 0], [0, 3], [4, 3]]
        assert math.gcd(*(v[0] for v in la.left_kernel([[-1, -1]] + gens))) == 6
        assert la.solve_left_rational([1, 1], gens) == ([1] * 3, 6)
        assert la.solve_left([1, 1], gens) is None

    def test_uncertified_hermite_row_raises(self, monkeypatch):
        # The first Hermite call is the one left_kernel certifies; the
        # second, of the kernel basis, is only believed when its row 0 is
        # (g, y) with y·gens == g·target.  Dropping row 0 leaves a syzygy
        # row with leading 0 (g is 1 here), and a changed y, or a leading
        # entry other than g, is caught as well.
        hermite = la.hermite_normal_form
        corruptions = (
            lambda h: h[1:],
            lambda h: [[h[0][0], h[0][1] + 1] + h[0][2:]] + h[1:],
            lambda h: [[0] + h[0][1:]] + h[1:],
        )
        for corrupt in corruptions:
            calls = []

            def second_call_corrupted(g, corrupt=corrupt, calls=calls):
                calls.append(g)
                h, u = hermite(g)
                return (corrupt(h), u) if len(calls) == 2 else (h, u)

            monkeypatch.setattr(la, "hermite_normal_form", second_call_corrupted)
            with pytest.raises(ArithmeticError, match="kernel's gcd"):
                la.solve_left_rational([3], [[1], [1]])

    def test_rational_solution_multiplies_back(self):
        # Dependent rows, so the rational solution is not unique.
        gens = [[2, 0], [0, 3], [4, 3]]
        target = [1, 1]
        y, g = la.solve_left_rational(target, gens)
        assert g != 1
        assert [sum(c * row[j] for c, row in zip(y, gens))
                for j in range(2)] == [g * t for t in target]
        assert la.solve_left(target, gens) is None

    def test_rational_none_when_inconsistent(self):
        assert la.solve_left_rational([1, 1], [[1, 0]]) is None

    def test_rank_over_q_matches_snf_rank(self):
        a = [[2, 4], [1, 2], [0, 3]]
        rows = sparse_rows(a)
        assert rank_over_q(rows) == sum(
            1 for d in la.invariant_factors(rows, 2) if d) == 2
