"""Weight multisets, Chern classes, restrictions and generator expressions."""

import itertools

import pytest

from pgl3chow.checks import gamma_generators
from pgl3chow.poly import (
    INTEGERS,
    ContextMismatchError,
    Polynomial,
    RingMap,
    RingMismatchError,
    context,
    elementary_symmetric,
    integers_mod,
)
from pgl3chow.repcalc import (
    A3MU3_AB,
    ExpressError,
    T_GL3,
    T_SL3_U,
    TO_SL3,
    TO_XY,
    LatticeMap,
    RepresentationError,
    VirtualRep,
    chern_classes,
    direct_sum,
    dual,
    express_in,
    restrict_poly,
    restrict_rep,
    standard,
    subtract,
    sym_power,
    trivial,
    twist,
)


def multiplicity(rep, coords):
    """The multiplicity of a weight in ``rep``, the weight normalised in its
    lattice first, so a mod-3 weight may be given by any representative."""
    return dict(rep.weights).get(rep.lattice.normalize_weight(coords), 0)


def dimension(rep):
    return sum(m for _, m in rep.weights)


class TestConstructors:
    def test_sym_cube_dimension_and_weights(self):
        e = standard("E")
        s3e = sym_power(e, 3)
        assert dimension(s3e) == 10
        assert multiplicity(s3e, (3, 0, 0)) == 1
        assert multiplicity(s3e, (1, 1, 1)) == 1
        assert multiplicity(s3e, (2, 1, 0)) == 1

    def test_dual_of_trivial(self):
        t = trivial(T_GL3)
        assert dual(t) == t

    def test_adjoint_weights(self):
        sl3 = standard("sl3")
        assert dimension(sl3) == 8
        assert multiplicity(sl3, (0, 0, 0)) == 2
        assert multiplicity(sl3, (1, -1, 0)) == 1
        assert multiplicity(sl3, (-1, 0, 1)) == 1

    def test_subtract_requires_containment(self):
        e = standard("E")
        with pytest.raises(RepresentationError):
            subtract(trivial(T_GL3), e)

    def test_dimension_formulas(self):
        e = standard("E")
        from math import comb
        for k in range(5):
            assert dimension(sym_power(e, k)) == comb(3 + k - 1, k)

    def test_twist_shifts_weights(self):
        e = standard("E")
        shifted = twist(e, (-1, -1, -1))
        assert multiplicity(shifted, (0, -1, -1)) == 1

    def test_pgl3_sym_cube_is_shift_invariant(self):
        sym3 = standard("Sym3E_PGL3")
        for c in chern_classes(sym3)[1:]:
            assert not c.directional_derivative((1, 1, 1))


def tuple_chern_classes(r):
    """``chern_classes(r)`` by the tuple-keyed ``e[k] += e[k-1]*form``
    recurrence the packed ``poly.elementary_symmetric`` replaced, kept as
    its oracle."""
    lattice = r.lattice
    e = [Polynomial.constant(lattice.ctx, 1, lattice.ring)]
    for w, m in r.genuine_weights():
        form = Polynomial.linear_form(lattice.ctx, list(w), lattice.ring)
        for _ in range(m):
            e.append(e[-1] * form)
            for k in range(len(e) - 2, 0, -1):
                e[k] = e[k] + e[k - 1] * form
    return tuple(e)


def cauchy_product(p, q):
    """Coefficients of (sum_j p_j t^j)(sum_k q_k t^k): the right side of the
    Whitney formula c(r + s) = c(r)*c(s), degree by degree."""
    out = [Polynomial.zero(p[0].context, p[0].ring)] * (len(p) + len(q) - 1)
    for j, pj in enumerate(p):
        for k, qk in enumerate(q):
            out[j + k] = out[j + k] + pj * qk
    return tuple(out)


def alternating_signs(c):
    """(c_0, -c_1, c_2, ...): the Chern classes of the dual."""
    return tuple(ci if i % 2 == 0 else -ci for i, ci in enumerate(c))


class TestChernClasses:
    def test_c1_of_adjoint_vanishes(self):
        assert not chern_classes(standard("sl3"))[1]

    def test_c0_and_beyond_dimension(self):
        # The tuple stops at the dimension: there is no class beyond c_3.
        c = chern_classes(standard("E"))
        assert len(c) == 4
        assert c[0] == Polynomial.constant(T_GL3.ctx, 1)

    def test_virtual_input_rejected(self):
        virtual = VirtualRep(T_GL3, (((1, 0, 0), -1),))
        with pytest.raises(RepresentationError):
            chern_classes(virtual)

    def test_matches_products_over_weight_subsets(self):
        # c_i is the sum over i-element sub-multisets of the product of the
        # weights' linear forms: an oracle sharing nothing with the one-pass
        # update, and seeing repeated weights as separate factors.
        for name in ("E", "sl3", "W_A3mu3", "sl3_A3mu3"):
            rep = standard(name)
            lattice = rep.lattice
            forms = [Polynomial.linear_form(lattice.ctx, list(w), lattice.ring)
                     for w, m in rep.weights for _ in range(m)]
            expected = []
            for i in range(len(forms) + 1):
                total = Polynomial.zero(lattice.ctx, lattice.ring)
                for subset in itertools.combinations(forms, i):
                    term = Polynomial.constant(lattice.ctx, 1, lattice.ring)
                    for form in subset:
                        term = term * form
                    total = total + term
                expected.append(total)
            assert chern_classes(rep) == tuple(expected), name

    def test_every_catalogued_rep_matches_the_tuple_recurrence(self):
        from pgl3chow import repcalc
        for name, rep in repcalc.REPRESENTATIONS.items():
            if all(m > 0 for _, m in rep.weights):
                assert chern_classes(rep) == tuple_chern_classes(rep), name

    def test_zero_weights_give_zero_top_classes(self):
        # sl3 has the zero weight twice: c_7 = c_8 = 0, and the tuple still
        # has length dimension + 1.
        c = chern_classes(standard("sl3"))
        assert len(c) == 9
        assert not c[7] and not c[8] and c[6]
        assert chern_classes(trivial(T_GL3)) == (
            Polynomial.constant(T_GL3.ctx, 1), Polynomial.zero(T_GL3.ctx))

    def test_truncated_classes_are_the_prefix(self):
        # Asked for c_0..c_top, chern_classes forms no higher class and gives
        # the same prefix as the total class, for top beyond the dimension
        # too; the zero classes of skipped zero weights stay in place.
        from pgl3chow import repcalc
        for name, rep in repcalc.REPRESENTATIONS.items():
            full = chern_classes(rep)
            for top in range(len(full) + 2):
                assert chern_classes(rep, top) == full[:top + 1], (name, top)
        ctx, ring = A3MU3_AB.ctx, A3MU3_AB.ring
        weights = [((3, 0), 1), ((1, 1), 3)]
        full = elementary_symmetric(ctx, ring, weights)
        for top in range(len(full) + 2):
            assert elementary_symmetric(ctx, ring, weights, top) == full[:top + 1]

    def test_elementary_symmetric_edge_cases(self):
        empty = context(())
        one, zero = Polynomial.constant(empty, 1), Polynomial.zero(empty)
        assert elementary_symmetric(empty, INTEGERS, [((), 2)]) == (one, zero, zero)
        assert elementary_symmetric(T_GL3.ctx, INTEGERS, []) == (
            Polynomial.constant(T_GL3.ctx, 1),)
        ctx, ring = A3MU3_AB.ctx, A3MU3_AB.ring
        a = Polynomial.variable(ctx, "a", ring)
        b = Polynomial.variable(ctx, "b", ring)
        one, zero = Polynomial.constant(ctx, 1, ring), Polynomial.zero(ctx, ring)
        # The form a + b taken 3 times: n = 3 = 2^2 - 1, so the 2-bit fields
        # fill exactly in a^3 + b^3.
        assert elementary_symmetric(ctx, ring, [((1, 1), 3)]) == (
            one, zero, zero, a ** 3 + b ** 3)
        # The weight (3, 0) is the zero form mod 3: skipped, it leaves a zero
        # class on top.
        assert elementary_symmetric(ctx, ring, [((3, 0), 1), ((1, 1), 3)]) == (
            one, zero, zero, a ** 3 + b ** 3, zero)
        with pytest.raises(ValueError, match="wrong arity"):
            elementary_symmetric(T_GL3.ctx, INTEGERS, [((1, 0), 1)])

    def test_c2_of_w_over_a3mu3(self):
        ring = A3MU3_AB.ring
        a = Polynomial.variable(A3MU3_AB.ctx, "a", ring)
        assert chern_classes(standard("W_A3mu3"))[2] == -(a ** 2)

    def test_c8_of_adjoint_over_a3mu3(self):
        ring = A3MU3_AB.ring
        a = Polynomial.variable(A3MU3_AB.ctx, "a", ring)
        b = Polynomial.variable(A3MU3_AB.ctx, "b", ring)
        assert chern_classes(standard("sl3_A3mu3"))[8] == \
            (a * b) ** 2 * (b ** 2 - a ** 2) ** 2

    def test_whitney_spot_check(self):
        e = standard("E")
        s = dual(e)
        assert chern_classes(direct_sum(e, s)) == \
            cauchy_product(chern_classes(e), chern_classes(s))

    def test_duality_signs(self):
        sym3 = standard("Sym3E_PGL3")
        assert chern_classes(dual(sym3)) == alternating_signs(chern_classes(sym3))


# The torus characters u1, u2, u3 restrict to b+a, b-a, b on A3 x mu3.
TO_A3MU3 = LatticeMap(T_SL3_U, A3MU3_AB, ((1, -1), (1, 1)))


class TestRestriction:
    def test_naturality_through_catalogued_maps(self):
        for rep_name, lattice_map in (("sl3", TO_SL3), ("E", TO_XY),
                                      ("W_A3T", TO_A3MU3)):
            rep = standard(rep_name)
            c = chern_classes(rep)
            restricted = chern_classes(restrict_rep(rep, lattice_map))
            for i in range(1, 4):
                assert restrict_poly(c[i], lattice_map) == restricted[i]

    def test_c2_sl3_to_sl3_torus(self):
        e_sl3 = restrict_rep(standard("E"), TO_SL3)
        a2 = chern_classes(e_sl3)[2]
        restricted = restrict_poly(chern_classes(standard("sl3"))[2], TO_SL3)
        assert restricted == 6 * a2

    def test_c3_sym3_to_sl3_torus(self):
        e_sl3 = restrict_rep(standard("E"), TO_SL3)
        a3 = chern_classes(e_sl3)[3]
        restricted = restrict_poly(chern_classes(standard("Sym3E_PGL3"))[3], TO_SL3)
        assert restricted == 27 * a3

    def test_ring_map_is_built_once_per_lattice_map(self):
        for lattice_map in (TO_SL3, TO_XY, TO_A3MU3):
            assert lattice_map.ring_map is lattice_map.ring_map
            assert lattice_map.ring_map.target_ring == lattice_map.target.ring

    def test_identity_lattice_map(self):
        ident = LatticeMap(T_SL3_U, T_SL3_U, ((1, 0), (0, 1)))
        w = standard("W_A3T")
        assert restrict_rep(w, ident) == w
        c2w = chern_classes(w)[2]
        assert restrict_poly(c2w, ident) == c2w

    def test_w_restriction_weights(self):
        restricted = restrict_rep(standard("W_A3T"), TO_A3MU3)
        assert restricted == standard("W_A3mu3")


class TestCatalog:
    def test_catalogued_names(self):
        from pgl3chow import repcalc
        assert set(repcalc.REPRESENTATIONS) == {
            "E", "E_dual", "sl3", "Sym3E_PGL3", "Sym3E_dual_PGL3",
            "W_A3T", "W_A3mu3", "reg_A3mu3", "sl3_A3mu3", "Sym3E_A3mu3"}

    def test_finite_adjoint_and_sym_cube(self):
        reg = standard("reg_A3mu3")
        assert standard("sl3_A3mu3") == subtract(reg, trivial(A3MU3_AB))
        assert standard("Sym3E_A3mu3") == direct_sum(reg, trivial(A3MU3_AB))

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            standard("nope")

    def test_mod3_map_is_identity_on_the_finite_lattice(self):
        mod3 = LatticeMap(A3MU3_AB, A3MU3_AB, ((1, 0), (0, 1)))
        w = standard("W_A3mu3")
        assert restrict_rep(w, mod3) == w
        c2w = chern_classes(w)[2]
        assert restrict_poly(c2w, mod3) == c2w

    def test_mod3_lattice_uses_symmetric_representatives(self):
        rep = VirtualRep.from_weights(A3MU3_AB, [(2, 4), (-2, -4)])
        assert multiplicity(rep, (-1, 1)) == 1
        assert multiplicity(rep, (1, -1)) == 1


class TestExpressIn:
    def test_c2_sl3_in_gammas(self):
        gammas = gamma_generators()
        result = express_in(chern_classes(standard("sl3"))[2], gammas)
        assert result.ok
        assert result.expression.render() == "-2*gamma2"

    def test_c2_sym3_in_gammas(self):
        gammas = gamma_generators()
        result = express_in(chern_classes(standard("Sym3E_PGL3"))[2], gammas)
        assert result.ok
        assert result.expression.render() == "-5*gamma2"

    def test_gamma2_in_itself(self):
        gammas = gamma_generators()
        result = express_in(gammas["gamma2"], {"gamma2": gammas["gamma2"]})
        assert result.ok
        assert result.expression.render() == "gamma2"

    def test_certificates_reexpand(self):
        gammas = gamma_generators()
        c_sl3 = chern_classes(standard("sl3"))
        for target in (c_sl3[2], c_sl3[6],
                       gammas["gamma2"] * gammas["gamma3"]):
            result = express_in(target, gammas)
            assert result.ok
            images = tuple(gammas[n] for n in result.expression.context.names)
            rm = RingMap(result.expression.context, T_GL3.ctx, images, INTEGERS)
            assert rm.apply(result.expression) == target

    def test_deterministic_despite_syzygy(self):
        gammas = gamma_generators()
        target = chern_classes(standard("sl3"))[6]
        first = express_in(target, gammas)
        second = express_in(target, gammas)
        assert first.ok and first.expression == second.expression
        assert first.expression.render() == "-gamma6"

    def test_rational_diagnostic_for_torsion_denominator(self):
        ctx = T_GL3.ctx
        x1 = Polynomial.variable(ctx, "x1")
        result = express_in(x1, {"g": 3 * x1})
        assert not result.ok
        assert result.expression is None
        assert result.rational_expression == "1/3*g"
        # Each coefficient is reduced on its own, with the sign in front.
        x2 = Polynomial.variable(ctx, "x2")
        result = express_in(3 * x1 - x2, {"g": 2 * x1, "h": 6 * x2})
        assert result.rational_expression == "3/2*g + -1/6*h"

    def test_no_expression_at_all(self):
        ctx = T_GL3.ctx
        x1 = Polynomial.variable(ctx, "x1")
        x2 = Polynomial.variable(ctx, "x2")
        result = express_in(x1, {"g": x2})
        assert not result.ok
        assert result.rational_expression is None

    def test_no_generators(self):
        ctx = T_GL3.ctx
        for target in (Polynomial.variable(ctx, "x1"), Polynomial.constant(ctx, 5),
                       Polynomial.zero(ctx)):
            with pytest.raises(ExpressError, match="no generators"):
                express_in(target, {})

    def test_generator_over_another_context_is_rejected(self):
        x1 = Polynomial.variable(T_GL3.ctx, "x1")
        with pytest.raises(ContextMismatchError):
            express_in(x1, {"g": Polynomial.variable(T_SL3_U.ctx, "u1")})

    def test_generator_over_another_ring_is_rejected(self):
        # Not a verdict: x1 over Z is not "g" for g = x1 over Z/3.
        x1 = Polynomial.variable(T_GL3.ctx, "x1")
        g = Polynomial.variable(T_GL3.ctx, "x1", integers_mod(3))
        with pytest.raises(RingMismatchError):
            express_in(x1, {"g": g})

    def test_zero_or_inhomogeneous_generator_is_rejected(self):
        ctx = T_GL3.ctx
        x1 = Polynomial.variable(ctx, "x1")
        for g in (Polynomial.zero(ctx), x1 + x1 ** 2):
            with pytest.raises(ExpressError, match="generator g is not homogeneous"):
                express_in(x1, {"g": g})
        with pytest.raises(ExpressError, match="target is not homogeneous"):
            express_in(x1 + x1 ** 2, {"g": x1})
