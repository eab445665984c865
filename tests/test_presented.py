"""Graded components and rational ranks of presented rings."""

import pytest

from pgl3chow.poly import NotHomogeneousError, Polynomial, context
from pgl3chow.presented import (
    GradedComponent,
    RingPresentation,
    graded_component,
    rational_rank_table,
    rstar_presentation,
)


class TestGradedComponents:
    def test_degree_zero(self):
        comp = graded_component(rstar_presentation(), 0)
        assert comp == GradedComponent(0, 1, ())

    def test_degree_two(self):
        comp = graded_component(rstar_presentation(), 2)
        assert comp == GradedComponent(2, 1, ())

    def test_degree_four_torsion(self):
        comp = graded_component(rstar_presentation(), 4)
        assert comp == GradedComponent(4, 1, (3,))
        assert comp.render() == "Z ⊕ Z/3"

    def test_single_generator_oracle(self):
        for n in (2, 3, 5):
            pres = RingPresentation.from_strings([("g", 1)], [f"{n}*g"])
            for d in range(1, 7):
                assert graded_component(pres, d) == GradedComponent(d, 0, (n,))
            assert graded_component(pres, 0) == GradedComponent(0, 1, ())

    def test_implied_relation_changes_nothing(self):
        base = rstar_presentation()
        augmented = RingPresentation.from_strings(
            [(n, d) for n, d in base.generators],
            [r.render() for r in base.relations] + ["3*rho^2 - 3*c8"],
        )
        for d in range(17):
            assert graded_component(base, d) == graded_component(augmented, d)

    def test_relations_must_be_homogeneous(self):
        with pytest.raises(NotHomogeneousError):
            RingPresentation.from_strings([("g", 1), ("h", 2)], ["g + h"])


class TestRationalRanks:
    def test_table_matches_free_ranks(self):
        pres = rstar_presentation()
        for d, rank in rational_rank_table(pres, 16):
            assert rank == graded_component(pres, d).free_rank

    def test_degree_six_rank_two(self):
        assert dict(rational_rank_table(rstar_presentation(), 6))[6] == 2

    def test_degree_five_rank_one(self):
        assert dict(rational_rank_table(rstar_presentation(), 5))[5] == 1

    def test_degree_one_rank_zero(self):
        assert dict(rational_rank_table(rstar_presentation(), 1))[1] == 0


class TestReduceInQuotient:
    def test_point_class_identity_needs_no_rewrite(self):
        ctx = context(("l", "u1", "u2"))
        l = Polynomial.variable(ctx, "l")
        u1 = Polynomial.variable(ctx, "u1")
        u2 = Polynomial.variable(ctx, "u2")
        u3 = -u1 - u2
        assert (l - u2) * (l - u3) == l ** 2 + l * u1 + u2 * u3
