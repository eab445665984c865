"""Graded components, the every-degree certificate, rational ranks and
unit-generator elimination of presented rings."""

import pytest

from pgl3chow import intlinalg
from pgl3chow.intlinalg import DenseWidthError
from pgl3chow.poly import (
    INTEGERS,
    NotHomogeneousError,
    Polynomial,
    graded_bases,
    packing,
)
from pgl3chow.presented import (
    GradedComponent,
    RingPresentation,
    eliminate_unit_generators,
    free_summand_certificate,
    graded_components,
    partition_series,
    rstar_presentation,
)
from presented_oracle import component_oracle, tuple_relation_rows
from test_checks import _series
from test_intlinalg import rank_over_q
from test_poly import recursive_monomials


def rational_rank(pres, d):
    """Rank of the degree-d piece after tensoring with Q, by the
    ``rank_over_q`` cross-check."""
    basis, rows = tuple_relation_rows(pres, d)
    return len(basis) - rank_over_q(rows)


def components(pres, bound):
    return list(graded_components(pres, bound))


def capture_eliminations(monkeypatch):
    """The ``(cols, rows)`` of each ``invariant_factors`` call, in order."""
    calls = []
    real = intlinalg.invariant_factors

    def spy(rows, cols, dense_limit=None):
        calls.append((cols, [dict(row) for row in rows]))
        return real(rows, cols, dense_limit)

    monkeypatch.setattr(intlinalg, "invariant_factors", spy)
    return calls


# The field width of the packing is bound.bit_length(); it changes after
# these bounds and at them.
WIDTH_STEPS = (0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 64)


class TestGradedComponents:
    def test_degree_zero(self):
        assert components(rstar_presentation(), 0) == [GradedComponent(0, 1, ())]

    def test_degree_two(self):
        comp = components(rstar_presentation(), 2)[2]
        assert comp == GradedComponent(2, 1, ())

    def test_degree_four_torsion(self):
        comp = components(rstar_presentation(), 4)[4]
        assert comp == GradedComponent(4, 1, (3,))
        assert comp.render() == "Z ⊕ Z/3"

    def test_single_generator_oracle(self):
        for n in (2, 3, 5):
            pres = RingPresentation.from_strings([("g", 1)], [f"{n}*g"])
            assert components(pres, 6) == [GradedComponent(0, 1, ())] + [
                GradedComponent(d, 0, (n,)) for d in range(1, 7)]

    def test_implied_relation_changes_nothing(self):
        base = rstar_presentation()
        augmented = RingPresentation.from_strings(
            [(n, d) for n, d in base.generators],
            [r.render() for r in base.relations] + ["3*rho^2 - 3*c8"],
        )
        assert components(base, 16) == components(augmented, 16)

    def test_relations_must_be_homogeneous(self):
        with pytest.raises(NotHomogeneousError):
            RingPresentation.from_strings([("g", 1), ("h", 2)], ["g + h"])

    def test_dense_limit_stops_at_the_first_wide_degree(self, monkeypatch):
        # 4*a + 6*b and 6*a + 4*b have content 2 and, divided by it, no
        # unit: every degree d >= 1 leaves d + 1 columns for the dense
        # elimination, so a limit of 3 passes degrees 0..2 and stops at 3.
        pres = RingPresentation.from_strings([("a", 1), ("b", 1)],
                                             ["4*a + 6*b", "6*a + 4*b"])
        calls = capture_eliminations(monkeypatch)
        yielded = []
        with pytest.raises(DenseWidthError) as exc:
            for comp in graded_components(pres, 10, dense_limit=3):
                yielded.append(comp)
        assert [c.degree for c in yielded] == [0, 1, 2]
        assert exc.value.width == 4
        assert [cols for cols, _ in calls] == [1, 2, 3, 4]


class TestPackedBases:
    """The bases :func:`graded_components` reads, from the one enumerator
    ``poly.graded_bases``, against the independent tuple recursion."""

    def check_bases(self, weights, bounds):
        expected = recursive_monomials(weights, max(bounds))
        for bound in bounds:
            pack, unpack = packing(len(weights), bound)
            bases = list(graded_bases(weights, bound, pack))
            assert len(bases) == bound + 1
            for d, keys in enumerate(bases):
                # Largest first, so the rows come in the tuple builder's order.
                assert [unpack(k) for k in keys] == list(expected[d]), \
                    (weights, bound, d)

    def test_rstar_weights_at_every_field_width(self):
        raw = rstar_presentation()
        for pres in (raw, eliminate_unit_generators(raw)):
            self.check_bases(pres.context.weights, WIDTH_STEPS)

    def test_weights_one_two_three_at_every_field_width(self):
        self.check_bases((1, 2, 3), WIDTH_STEPS)

    def test_twelve_weight_one_variables(self):
        # Weight-1 variables reach the exponent ``bound`` itself, so a field
        # one bit too narrow would carry into the next variable.
        self.check_bases((1,) * 12, (0, 1, 2, 3, 4))

    def test_no_variables(self):
        pack, _ = packing(0, 5)
        assert list(graded_bases((), 5, pack)) == [[0], [], [], [], [], []]


class TestComponentsAgainstTheOracle:
    def test_rstar_raw_and_eliminated(self):
        raw = rstar_presentation()
        for pres in (raw, eliminate_unit_generators(raw)):
            assert components(pres, 40) == [component_oracle(pres, d)
                                            for d in range(41)]

    def test_single_generator_family(self):
        for n in (2, 3, 5, 6):
            pres = RingPresentation.from_strings([("g", 2)], [f"{n}*g^2"])
            assert components(pres, 12) == [component_oracle(pres, d)
                                             for d in range(13)]

    def test_remainder_reaching_the_dense_elimination(self, monkeypatch):
        # Content 2, then 2*a + 3*b and 3*a + 2*b hold no unit, so the
        # rows of every degree from 1 on go to _smith_reduce.
        pres = RingPresentation.from_strings([("a", 1), ("b", 1)],
                                             ["4*a + 6*b", "6*a + 4*b"])
        reduced = []
        real = intlinalg._smith_reduce

        def spy(a):
            reduced.append(len(a))
            return real(a)

        monkeypatch.setattr(intlinalg, "_smith_reduce", spy)
        got = components(pres, 8)
        assert len(reduced) == 8
        monkeypatch.undo()
        assert got == [component_oracle(pres, d) for d in range(9)]
        assert got[1] == GradedComponent(1, 0, (2, 10))  # det -20, content 2


class TestRelationRows:
    def test_rows_are_sparse_products(self):
        # The oracle's row k is rel * mono for the k-th (relation, monomial)
        # pair, with only nonzero entries, each at the index of its product
        # monomial.
        pres = rstar_presentation()
        ctx = pres.context
        for d in range(13):
            basis, rows = tuple_relation_rows(pres, d)
            products = [
                rel * Polynomial(ctx, INTEGERS, {mono: 1})
                for rel in pres.relations
                for mono in ctx.monomials_of_degree(d - rel.weighted_degree())]
            assert len(rows) == len(products), d
            for row, product in zip(rows, products):
                assert 0 not in row.values()
                assert all(0 <= j < len(basis) for j in row)
                assert {basis[j]: c for j, c in row.items()} == product.terms


class TestPackedRelationRows:
    """The matrix ``graded_components`` eliminates in each degree is the
    tuple builder's, column for column and row for row."""

    def test_rstar_rows_match_the_tuple_builder(self, monkeypatch):
        raw = rstar_presentation()
        for pres in (raw, eliminate_unit_generators(raw)):
            calls = capture_eliminations(monkeypatch)
            components(pres, 40)
            assert len(calls) == 41
            for d, (cols, rows) in enumerate(calls):
                basis, expected = tuple_relation_rows(pres, d)
                assert (cols, rows) == (len(basis), expected), d
            monkeypatch.undo()

    def test_exponents_at_the_top_of_the_field(self, monkeypatch):
        # Weight-1 generators reach the exponent ``bound`` itself, so a
        # field one bit too narrow would carry into the next variable.
        pres = RingPresentation.from_strings(
            [("x", 1), ("y", 1), ("z", 2)],
            ["2*x", "x*y - 3*z", "y^3 - x*z"])
        bounds = (*WIDTH_STEPS[:-1], 40)
        oracle = [tuple_relation_rows(pres, d) for d in range(max(bounds) + 1)]
        for bound in bounds:
            calls = capture_eliminations(monkeypatch)
            components(pres, bound)
            assert len(calls) == bound + 1
            for d, (cols, rows) in enumerate(calls):
                basis, expected = oracle[d]
                assert (0, d, 0) in basis
                assert (cols, rows) == (len(basis), expected), (bound, d)
            monkeypatch.undo()


def certified_components(pres, cert, bound):
    """The components ``Z^(s_d) ⊕ (Z/c)^(n_d - s_d)`` that the certificate
    ``(c, L)`` gives for ``d = 0..bound``, with ``sum s_d t^d = prod(1 -
    t^l) / prod(1 - t^w)`` expanded by hand."""
    c, leads = cert
    numerator = {0: 1}
    for lead in leads:
        product = dict(numerator)
        for n, a in numerator.items():
            product[n + lead] = product.get(n + lead, 0) - a
        numerator = product
    weights = pres.context.weights
    free = _series(numerator, weights, bound)
    widths = partition_series(weights, bound)
    return [GradedComponent(d, free[d], (c,) * (widths[d] - free[d]) if c > 1
                            else ()) for d in range(bound + 1)]


RSTAR_REDUCED = [("lam", 2), ("c3", 3), ("rho", 4), ("chi", 6), ("c6", 6)]
Q3 = "81*c6 - 3*c3^2 - 12*lam^3"
CONTENT = "every relation has the same content"
UNIT = "in some lex order every leading coefficient is ±c"
COPRIME = "in such an order the leading monomials are pairwise coprime"


def certificate(generators, relations):
    return free_summand_certificate(
        RingPresentation.from_strings(generators, relations))


class TestFreeSummandCertificate:
    def test_rstar_after_elimination(self):
        pres = eliminate_unit_generators(rstar_presentation())
        # The order with c3 first leads with rho, chi and c3^2.
        cert = free_summand_certificate(pres)
        assert cert == (3, (4, 6, 6))
        assert certified_components(pres, cert, 20) == components(pres, 20)

    def test_reads_neither_the_order_nor_the_signs(self):
        assert certificate(RSTAR_REDUCED, ["-3*chi", Q3, "3*rho"]) \
            == (3, (6, 6, 4))
        assert certificate(RSTAR_REDUCED, ["3*chi", "-" + Q3, "-3*rho"]) \
            == (3, (6, 6, 4))

    @pytest.mark.parametrize("relations, failure", [
        (["3*rho", "9*chi", Q3], CONTENT),
        (["3*rho", "6*chi", Q3], CONTENT),
        # Only -2*c3^2 leads in c3, and 27*c6 and -4*lam^3 in the others.
        (["3*rho", "3*chi", "81*c6 - 6*c3^2 - 12*lam^3"], UNIT),
        # chi - c3^2 leads with c3^2 wherever q leads with a unit.
        (["3*rho", "3*chi - 3*c3^2", Q3], COPRIME),
        (["3*rho", "3*chi", "3*rho^2", Q3], COPRIME),
    ])
    def test_rstar_mutants_fail_their_hypothesis(self, relations, failure):
        assert certificate(RSTAR_REDUCED, relations) == failure

    def test_q_plus_a_multiple_of_rho_passes(self):
        # (rho, chi, q + rho*lam) = (rho, chi, q), and c3^2 still leads.
        pres = RingPresentation.from_strings(
            RSTAR_REDUCED, ["3*rho", "3*chi", Q3 + " + 3*rho*lam"])
        cert = free_summand_certificate(pres)
        assert cert == (3, (4, 6, 6))
        assert certified_components(pres, cert, 16) == components(pres, 16)

    def test_c5_of_degree_five(self):
        # The order with lam first leads with lam*c3; the degrees differ
        # from R*, which only rstar-structure asks about.
        pres = RingPresentation.from_strings(
            [("lam", 2), ("c3", 3), ("rho", 4), ("chi", 6), ("c5", 5)],
            ["3*rho", "3*chi", "3*c5 - 3*lam*c3"])
        cert = free_summand_certificate(pres)
        assert cert == (3, (4, 6, 5))
        assert certified_components(pres, cert, 16) == components(pres, 16)

    def test_zero_relations_are_dropped(self):
        assert certificate(RSTAR_REDUCED, ["0", "3*rho", "3*chi", Q3, "0"]) \
            == (3, (4, 6, 6))
        assert certificate(RSTAR_REDUCED, ["0"]) == (1, ())

    def test_no_relations_is_free(self):
        pres = RingPresentation.from_strings(RSTAR_REDUCED, [])
        assert free_summand_certificate(pres) == (1, ())
        assert certified_components(pres, (1, ()), 12) == components(pres, 12)
        assert certificate([], []) == (1, ())

    def test_constant_one_leaves_every_component_zero(self):
        pres = RingPresentation.from_strings(RSTAR_REDUCED, ["1"])
        cert = free_summand_certificate(pres)
        assert cert == (1, (0,))
        assert certified_components(pres, cert, 12) == components(pres, 12) \
            == [GradedComponent(d, 0, ()) for d in range(13)]
        assert certificate([], ["3"]) == (3, (0,))

    def test_weyl_invariants_are_free(self):
        # The gamma-syzygy identity: free with the Molien series.
        pres = RingPresentation.from_strings(
            [("gamma2", 2), ("gamma3", 3), ("gamma6", 6)],
            ["gamma3^2 - 4*gamma2^3 + 27*gamma6"])
        cert = free_summand_certificate(pres)
        assert cert == (1, (6,))
        expected = certified_components(pres, cert, 24)
        assert [comp.free_rank for comp in expected] \
            == partition_series((2, 3), 24)
        assert expected == components(pres, 24)


class TestPartitionSeries:
    def test_counts_the_monomial_basis(self):
        ctx = rstar_presentation().context
        widths = partition_series(ctx.weights, 24)
        assert widths == [len(ctx.monomials_of_degree(d)) for d in range(25)]


class TestRationalRanks:
    def test_table_matches_free_ranks(self):
        pres = rstar_presentation()
        for comp in graded_components(pres, 16):
            assert rational_rank(pres, comp.degree) == comp.free_rank

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
        assert components(reduced, 5) == components(pres, 5)

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
        assert components(reduced, 7) == components(pres, 7)

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
