"""Graded components, rational ranks and unit-generator elimination of
presented rings."""

import operator

import pytest

from pgl3chow.poly import INTEGERS, NotHomogeneousError, Polynomial
from pgl3chow.presented import (
    GradedComponent,
    RingPresentation,
    eliminate_unit_generators,
    graded_component,
    partition_series,
    relation_rows,
    rstar_presentation,
)
from test_intlinalg import rank_over_q


def rational_rank(pres, d):
    """Rank of the degree-d piece after tensoring with Q, by the
    ``rank_over_q`` cross-check."""
    basis, rows = relation_rows(pres, d)
    return len(basis) - rank_over_q(rows)


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


class TestRelationRows:
    def test_rows_are_sparse_products(self):
        # Row k is rel * mono for the k-th (relation, monomial) pair, with
        # only nonzero entries, each at the index of its product monomial.
        pres = rstar_presentation()
        ctx = pres.context
        for d in range(13):
            basis, rows = relation_rows(pres, d)
            products = [
                rel * Polynomial(ctx, INTEGERS, {mono: 1})
                for rel in pres.relations
                for mono in ctx.monomials_of_degree(d - rel.weighted_degree())]
            assert len(rows) == len(products), d
            for row, product in zip(rows, products):
                assert 0 not in row.values()
                assert all(0 <= j < len(basis) for j in row)
                assert {basis[j]: c for j, c in row.items()} == product.terms


def tuple_relation_rows(pres, d):
    """The tuple-keyed builder that ``relation_rows`` replaced, kept as an
    oracle: each product monomial is ``mono + e`` added as a tuple."""
    ctx = pres.context
    basis = ctx.monomials_of_degree(d)
    index = {e: i for i, e in enumerate(basis)}
    rows = []
    for rel in pres.relations:
        rel_degree = rel.weighted_degree()
        if rel_degree is None or rel_degree > d:
            continue
        for mono in ctx.monomials_of_degree(d - rel_degree):
            rows.append({index[tuple(map(operator.add, mono, e))]: c
                         for e, c in rel.terms.items()})
    return basis, rows


class TestPackedRelationRows:
    # The field width of the packing is d.bit_length(); it changes after
    # these degrees and at them.
    WIDTH_STEPS = (1, 2, 3, 4, 7, 8, 15, 16, 31, 32)

    def test_rstar_rows_match_the_tuple_builder(self):
        raw = rstar_presentation()
        for pres in (raw, eliminate_unit_generators(raw)):
            for d in range(41):
                assert relation_rows(pres, d) == tuple_relation_rows(pres, d), d

    def test_exponents_at_the_top_of_the_field(self):
        # Weight-1 generators reach the exponent d itself, so a field one
        # bit too narrow would carry into the next variable.
        pres = RingPresentation.from_strings(
            [("x", 1), ("y", 1), ("z", 2)],
            ["2*x", "x*y - 3*z", "y^3 - x*z"])
        for d in (0, *self.WIDTH_STEPS, 40):
            basis, rows = relation_rows(pres, d)
            assert (0, d, 0) in basis
            assert (basis, rows) == tuple_relation_rows(pres, d), d


class TestPartitionSeries:
    def test_counts_the_monomial_basis(self):
        ctx = rstar_presentation().context
        widths = partition_series(ctx.weights, 24)
        assert widths == [len(ctx.monomials_of_degree(d)) for d in range(25)]


class TestRationalRanks:
    def test_table_matches_free_ranks(self):
        pres = rstar_presentation()
        for d in range(17):
            assert rational_rank(pres, d) == graded_component(pres, d).free_rank

    def test_degree_six_rank_two(self):
        assert rational_rank(rstar_presentation(), 6) == 2

    def test_degree_five_rank_one(self):
        assert rational_rank(rstar_presentation(), 5) == 1

    def test_degree_one_rank_zero(self):
        assert rational_rank(rstar_presentation(), 1) == 0


def relation_texts(pres):
    return sorted(r.render() for r in pres.relations)


class TestEliminateUnitGenerators:
    def test_non_unit_coefficient_keeps_the_generator(self):
        pres = RingPresentation.from_strings([("a", 1), ("g", 2)],
                                             ["2*g + a^2"])
        assert eliminate_unit_generators(pres) == pres

    def test_bare_generator_is_dropped(self):
        pres = RingPresentation.from_strings([("a", 1), ("g", 2)],
                                             ["g", "3*a*g", "2*a^2"])
        reduced = eliminate_unit_generators(pres)
        assert reduced.generators == (("a", 1),)
        assert relation_texts(reduced) == ["2*a^2"]

    def test_chained_unit_relations_are_both_used(self):
        pres = RingPresentation.from_strings([("a", 1), ("g", 1), ("h", 2)],
                                             ["h - g^2", "g - a"])
        reduced = eliminate_unit_generators(pres)
        # g - a may spend either generator; one of degree 1 is left.
        assert [d for _, d in reduced.generators] == [1]
        assert reduced.relations == ()
        for d in range(6):
            assert graded_component(reduced, d) == graded_component(pres, d)

    def test_rstar_loses_c8_and_the_implied_relation(self):
        # 3*c8 becomes 3*rho^2 = rho*(3*rho), a multiple of 3*rho.
        reduced = eliminate_unit_generators(rstar_presentation())
        assert reduced.generators == (("lam", 2), ("c3", 3), ("rho", 4),
                                      ("chi", 6), ("c6", 6))
        expected = RingPresentation.from_strings(
            reduced.generators,
            ["3*rho", "3*chi", "81*c6 - 3*c3^2 - 12*lam^3"])
        assert reduced.relations == expected.relations

    def test_monomial_multiples_and_duplicates_are_dropped(self):
        pres = RingPresentation.from_strings(
            [("a", 1), ("b", 1)],
            ["2*a^2 - 3*b^2",        # kept: no other relation divides it
             "-6*a^3*b + 9*a*b^3",   # -3*a*b times the first: dropped
             "4*a*b",                # kept
             "-4*a*b",               # equal to the last up to sign: dropped
             "a^3 + b^3",            # kept: not a multiple of anything
             "8*a^2*b^2",            # 2*a*b times 4*a*b: dropped
             "2*a^2 - 3*b^2 + a*b",  # kept: not a multiple of the first
             "2*a^2 - 3*b^2"])       # a duplicate of the first: dropped
        reduced = eliminate_unit_generators(pres)
        assert reduced.generators == pres.generators
        assert [r.render() for r in reduced.relations] == [
            "2*a^2 - 3*b^2", "4*a*b", "a^3 + b^3", "2*a^2 + a*b - 3*b^2"]
        for d in range(8):
            assert graded_component(reduced, d) == graded_component(pres, d)

    def test_later_divisor_drops_an_earlier_multiple(self):
        pres = RingPresentation.from_strings([("a", 1), ("b", 2)],
                                             ["6*a^2*b", "3*b", "3*b"])
        reduced = eliminate_unit_generators(pres)
        assert [r.render() for r in reduced.relations] == ["3*b"]

    def test_constant_multiples_without_generators(self):
        # g is used up, leaving constants over no generators: 6 = 2*3.
        pres = RingPresentation.from_strings([("g", 1)], ["g", "6", "3"])
        reduced = eliminate_unit_generators(pres)
        assert reduced.generators == ()
        assert [r.render() for r in reduced.relations] == ["3"]
