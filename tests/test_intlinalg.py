"""Smith and Hermite normal forms, invariant factors, kernels, membership."""

import pytest

from pgl3chow import intlinalg as la


def as_diag_matrix(diag, rows, cols):
    return [[diag[i] if i == j and i < len(diag) else 0 for j in range(cols)]
            for i in range(rows)]


class TestSmith:
    def test_diag_2_3(self):
        form = la.smith_normal_form([[2, 0], [0, 3]])
        assert form.diag == (1, 6)

    def test_zero_matrix(self):
        form = la.smith_normal_form([[0, 0, 0], [0, 0, 0]])
        assert form.diag == (0, 0)

    def test_identity(self):
        form = la.smith_normal_form(la.identity(4))
        assert form.diag == (1, 1, 1, 1)

    def test_certifying_identity(self):
        a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        form = la.smith_normal_form(a)
        product = la.matmul(la.matmul(form.left, a), form.right)
        assert product == as_diag_matrix(form.diag, 3, 3)
        assert abs(la.bareiss_determinant(form.left)) == 1
        assert abs(la.bareiss_determinant(form.right)) == 1

    def test_divisibility_chain(self):
        form = la.smith_normal_form([[6, 0], [0, 4]])
        assert form.diag == (2, 12)

    def test_golden_transforms(self):
        # The first unit (row 1, column 2) comes after larger entries in
        # row-major order; diag and both transforms are pinned, not only
        # their certifying identity.
        a = [[6, 4, 10, 8], [4, -3, 1, 2], [8, 6, 14, 12], [2, 4, 2, 4],
             [9, 3, 15, 6]]
        form = la.smith_normal_form(a)
        assert form.diag == (1, 1, 2, 4)
        assert form.left == [[0, 1, 0, 0, 0],
                             [0, -37, 0, 26, -1],
                             [-11, -32086, 0, 22548, -860],
                             [49, -824, -28, 573, -28],
                             [-132, 6, 75, 12, 16]]
        assert form.right == [[0, 107, 52, -4080],
                              [0, 53, 27, -2118],
                              [1, -269, -105, 8248],
                              [0, 0, -11, 859]]


class TestInvariantFactors:
    def test_content_division_needs_no_dense_form(self, monkeypatch):
        # No unit: divide by the content 2, pivot on the 1, and the 1x1
        # remainder -2 has content 2 again.
        def dense(a):
            raise AssertionError("dense Smith form reached")
        monkeypatch.setattr(la, "smith_normal_form", dense)
        assert la.invariant_factors([[2, 4], [6, 8]]) == (2, 4)

    def test_dense_remainder_scaled(self, monkeypatch):
        a = [[2, 0, 0], [0, 4, 6], [0, 6, 4]]
        expected = la.smith_normal_form(a).diag
        seen = []
        dense = la.smith_normal_form

        def spy(rest):
            seen.append(rest)
            return dense(rest)
        monkeypatch.setattr(la, "smith_normal_form", spy)
        # Content 2, one unit pivot, then [[2, 3], [3, 2]]: content 1 and
        # no unit, so it goes to the dense form, scaled back by 2.
        assert la.invariant_factors(a) == expected == (2, 2, 10)
        assert seen == [[[2, 3], [3, 2]]]

    def test_empty_and_zero(self):
        assert la.invariant_factors([]) == ()
        assert la.invariant_factors([[], []]) == ()
        assert la.invariant_factors([[0, 0, 0], [0, 0, 0]]) == (0, 0)
        assert la.rank_over_q([]) == 0

    def test_ragged_rejected(self):
        with pytest.raises(la.DimensionMismatchError):
            la.invariant_factors([[1, 2], [3]])


class TestKernel:
    def test_sum_vector(self):
        kernel = la.kernel_basis([[1, 1, 1]])
        assert len(kernel) == 2
        expected = la.hermite_normal_form([[1, -1, 0], [0, 1, -1]])
        assert la.hermite_normal_form(kernel) == expected

    def test_identity_has_trivial_kernel(self):
        assert la.kernel_basis(la.identity(3)) == []

    def test_saturation(self):
        kernel = la.kernel_basis([[2, -2]])
        assert la.hermite_normal_form(kernel) == [[1, 1]]
        assert la.invariant_factors(kernel) == (1,)

    def test_kernel_vectors_annihilate(self):
        a = [[3, 1, -2, 0], [1, 0, 4, 2]]
        for v in la.kernel_basis(a):
            assert la.matmul(a, [[c] for c in v]) == [[0], [0]]

    def test_certificate_failure_raises(self, monkeypatch):
        reduce = la._smith_reduce

        def corrupted(a, with_left):
            diag, left, right_t = reduce(a, with_left)
            right_t[-1] = [1] + [0] * (len(right_t) - 1)
            return diag, left, right_t

        monkeypatch.setattr(la, "_smith_reduce", corrupted)
        with pytest.raises(ArithmeticError):
            la.kernel_basis([[1, 1, 1]])


class TestMembership:
    def test_simple_member(self):
        result = la.membership([1, 1], [[1, 0], [0, 1]])
        assert result.member
        assert result.certificate == (1, 1)

    def test_index_two_nonmember(self):
        result = la.membership([1, 0], [[2, 0]])
        assert not result.member

    def test_modular_membership(self):
        # 2*(2,1) = (4,2) == (1,2) mod 3
        result = la.membership([1, 2], [[2, 1]], modulus=3)
        assert result.member
        recombined = [sum(c * g[j] for c, g in zip(result.certificate, [[2, 1]]))
                      % 3 for j in range(2)]
        assert recombined == [1, 2]

    def test_certificate_recombines(self):
        gens = [[1, 2, 0], [0, 1, 1], [2, 0, 1]]
        target = [3, 5, 1]
        result = la.membership(target, gens)
        if result.member:
            combined = [sum(c * g[j] for c, g in zip(result.certificate, gens))
                        for j in range(3)]
            assert combined == target

    def test_dimension_mismatch(self):
        with pytest.raises(la.DimensionMismatchError):
            la.membership([1, 0, 0], [[1, 0]])


class TestSolvers:
    def test_solve_left_none_when_unsolvable(self):
        assert la.solve_left([1], [[2]]) is None

    def test_rational_fallback(self):
        solution = la.solve_left_rational([1], [[2]])
        assert solution is not None
        from fractions import Fraction
        assert solution == [Fraction(1, 2)]

    def test_rational_none_when_inconsistent(self):
        assert la.solve_left_rational([1, 1], [[1, 0]]) is None

    def test_rank_over_q_matches_snf_rank(self):
        a = [[2, 4], [1, 2], [0, 3]]
        assert la.rank_over_q(a) == sum(1 for d in la.invariant_factors(a) if d) == 2
