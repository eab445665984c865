"""Polynomial arithmetic, grading, substitution and the text format."""

import pytest

from pgl3chow.checks import s3_on_u, s3_on_x, s3_on_xy
from pgl3chow.poly import (
    INTEGERS,
    CoefficientRing,
    ContextMismatchError,
    NotHomogeneousError,
    Polynomial,
    PolynomialParseError,
    RingMap,
    RingMismatchError,
    context,
    integers_mod,
    packing,
    parse,
    power_product_rows,
)
from pgl3chow.repcalc import TO_SL3, TO_XY, restrict_poly

X3 = context(("x1", "x2", "x3"))


def tuple_power(p, n):
    """``p ** n`` by binary powering through tuple-keyed ``*``: the loop the
    packed ``Polynomial.__pow__`` replaced, kept as its oracle."""
    if n < 0:
        raise ValueError("negative power")
    result = Polynomial.constant(p.context, 1, p.ring)
    base = p
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def tuple_apply(rm, p):
    """``rm.apply(p)`` with tuple-keyed image powers: the loop the packed
    ``RingMap.apply`` replaced, kept as its oracle."""
    if p.context != rm.source:
        raise ContextMismatchError("polynomial not over the map's source context")
    if p.ring != rm.target_ring and p.ring.kind != "Z":
        raise RingMismatchError(
            f"cannot map coefficients from {p.ring} into {rm.target_ring}")
    powers = [[img] for img in rm.images]  # powers[i][k] = images[i]^(k+1)
    constant = (0,) * rm.target.arity
    out = {}
    get = out.get
    for exp, c in p.terms.items():
        term = None
        for i, e in enumerate(exp):
            if e:
                cache = powers[i]
                while len(cache) < e:
                    cache.append(cache[-1] * cache[0])
                term = cache[e - 1] if term is None else term * cache[e - 1]
        if term is None:
            out[constant] = get(constant, 0) + c
        else:
            for e2, c2 in term.terms.items():
                out[e2] = get(e2, 0) + c * c2
    return Polynomial._clean(rm.target, rm.target_ring, out)


def xvars(ring=INTEGERS):
    return tuple(Polynomial.variable(X3, n, ring) for n in X3.names)


def gammas():
    x1, x2, x3 = xvars()
    s1 = x1 + x2 + x3
    s2 = x1 * x2 + x1 * x3 + x2 * x3
    s3 = x1 * x2 * x3
    g2 = s1 ** 2 - 3 * s2
    g3 = 2 * s1 ** 3 - 9 * s1 * s2 + 27 * s3
    g6 = ((x1 - x2) * (x1 - x3) * (x2 - x3)) ** 2
    return g2, g3, g6


class TestArithmetic:
    def test_difference_of_squares(self):
        x1, x2, _ = xvars()
        assert (x1 + x2) * (x1 - x2) == x1 ** 2 - x2 ** 2

    def test_gamma_syzygy_difference(self):
        g2, g3, g6 = gammas()
        assert g2 ** 3 - g3 ** 2 == -3 * (g2 ** 3 - 9 * g6)

    def test_square_mod_three(self):
        ctx = context(("a", "b"))
        ring = integers_mod(3)
        a = Polynomial.variable(ctx, "a", ring)
        b = Polynomial.variable(ctx, "b", ring)
        expected = parse("a^2 + 2*a*b + b^2", ctx, ring)
        assert (a + b) * (a + b) == expected

    def test_context_mismatch_rejected(self):
        other = context(("y1", "y2", "y3"))
        with pytest.raises(ContextMismatchError):
            xvars()[0] + Polynomial.variable(other, "y1")

    def test_ring_mismatch_rejected(self):
        with pytest.raises(RingMismatchError):
            xvars()[0] + Polynomial.variable(X3, "x1", integers_mod(3))

    def test_only_integer_coefficient_rings(self):
        with pytest.raises(ValueError, match="unknown ring kind"):
            CoefficientRing("Q")

    def test_canonical_form_idempotent(self):
        g2, _, _ = gammas()
        rebuilt = Polynomial(g2.context, g2.ring, dict(g2.terms))
        assert rebuilt == g2
        assert rebuilt.terms == g2.terms

    def test_constructor_validates_input(self):
        with pytest.raises(ValueError, match="wrong arity"):
            Polynomial(X3, INTEGERS, {(1, 0): 1})
        with pytest.raises(ValueError, match="negative exponent"):
            Polynomial(X3, INTEGERS, {(1, -1, 0): 1})
        p = Polynomial(X3, integers_mod(3), {(1, 0, 0): 7, (0, 1, 0): 3,
                                             (0, 0, 1): -1})
        assert p.terms == {(1, 0, 0): 1, (0, 0, 1): 2}

    def test_cancellation_leaves_no_zero_terms(self):
        for ring in (INTEGERS, integers_mod(3), integers_mod(4)):
            x = Polynomial.variable(X3, "x1", ring)
            one = Polynomial.constant(X3, 1, ring)
            zero = (x + one) * (x - one) - x ** 2 + one
            assert zero.terms == {}
        x = Polynomial.variable(X3, "x1", integers_mod(3))
        assert (3 * x).terms == (x * 3).terms == (x + x + x).terms == {}
        assert (-x).terms == {(1, 0, 0): 2}

    def test_point_class_identity_needs_no_rewrite(self):
        ctx = context(("l", "u1", "u2"))
        l = Polynomial.variable(ctx, "l")
        u1 = Polynomial.variable(ctx, "u1")
        u2 = Polynomial.variable(ctx, "u2")
        u3 = -u1 - u2
        assert (l - u2) * (l - u3) == l ** 2 + l * u1 + u2 * u3


class TestSubstitution:
    def test_two_variable_gamma2(self):
        g2, _, _ = gammas()
        ctx = context(("x", "y"))
        x = Polynomial.variable(ctx, "x")
        y = Polynomial.variable(ctx, "y")
        rm = RingMap(X3, ctx, (x, y, Polynomial.zero(ctx)), INTEGERS)
        assert rm.apply(g2) == (x + y) ** 2 - 3 * x * y

    def test_identity_substitution(self):
        g2, g3, _ = gammas()
        rm = RingMap(X3, X3, xvars(), INTEGERS)
        assert rm.apply(g2 * g3) == g2 * g3

    def test_linear_relation_elimination(self):
        ctx = context(("u1", "u2", "u3"))
        u1 = Polynomial.variable(ctx, "u1")
        u2 = Polynomial.variable(ctx, "u2")
        u3 = Polynomial.variable(ctx, "u3")
        rm = RingMap(ctx, ctx, (u1, u2, -u1 - u2), INTEGERS)
        assert not rm.apply(u1 + u2 + u3)

    def test_reduction_cancels_multiples_of_the_modulus(self):
        ring = integers_mod(3)
        red = RingMap(X3, X3, xvars(ring), ring)
        x1, x2, _ = xvars()
        assert red.apply(3 * x1 ** 2 - 6 * x1 * x2 + 4 * x2).terms == {(0, 1, 0): 1}
        z3 = Polynomial.zero(X3, ring)
        with pytest.raises(RingMismatchError):
            RingMap(X3, X3, xvars(), INTEGERS).apply(z3)

    def test_matrix_columns_are_the_images(self):
        # Variable j goes to the form read off column j: the SL3 torus
        # restriction x1 -> u1, x2 -> u2, x3 -> -u1 - u2, also over Z/3.
        u = context(("u1", "u2"))
        for ring in (INTEGERS, integers_mod(3)):
            rm = RingMap.from_matrix(X3, u, ((1, 0, -1), (0, 1, -1)), ring)
            u1 = Polynomial.variable(u, "u1", ring)
            u2 = Polynomial.variable(u, "u2", ring)
            assert rm == RingMap(X3, u, (u1, u2, -u1 - u2), ring)

    def test_reduction_compatibility(self):
        g2, g3, _ = gammas()
        ring = integers_mod(3)
        red = RingMap(X3, X3, xvars(ring), ring)
        assert red.apply(g2 * g3) == red.apply(g2) * red.apply(g3)
        assert red.apply(g2 + g3) == red.apply(g2) + red.apply(g3)


class TestPackedKernels:
    def test_packing_round_trip_and_field_layout(self):
        pack, unpack = packing(3, 15)
        assert pack((1, 0, 0)) == 1 << 8
        assert pack((0, 0, 1)) == 1
        for e in ((0, 0, 0), (15, 15, 15), (15, 0, 7), (1, 2, 3)):
            assert unpack(pack(e)) == e
        assert pack((7, 8, 0)) + pack((8, 7, 15)) == pack((15, 15, 15))

    def test_zero_polynomial_and_zeroth_power(self):
        for ring in (INTEGERS, integers_mod(3)):
            zero = Polynomial.zero(X3, ring)
            one = Polynomial.constant(X3, 1, ring)
            x1 = Polynomial.variable(X3, "x1", ring)
            assert zero ** 0 == one
            assert zero ** 5 == zero
            assert (x1 + one) ** 0 == one
            assert (x1 ** 2 + one) ** 1 == x1 ** 2 + one
        with pytest.raises(ValueError, match="negative power"):
            Polynomial.variable(X3, "x1") ** -1
        rm = RingMap(X3, X3, xvars(), INTEGERS)
        assert rm.apply(Polynomial.zero(X3)) == Polynomial.zero(X3)

    def test_context_with_no_variables(self):
        empty = context(())
        for ring, expected in ((INTEGERS, 125), (integers_mod(3), 2)):
            five = Polynomial.constant(empty, 5, ring)
            assert (five ** 3).terms == {(): expected}
            assert (five ** 0).terms == {(): 1}
        ctx = context(("x",))
        x = Polynomial.variable(ctx, "x")
        into_empty = RingMap(ctx, empty, (Polynomial.constant(empty, 2),), INTEGERS)
        assert into_empty.apply(x ** 3 - 3 * x).terms == {(): 2}
        from_empty = RingMap(empty, ctx, (), INTEGERS)
        assert from_empty.apply(Polynomial.constant(empty, -4)) == \
            Polynomial.constant(ctx, -4)

    def test_power_reaching_the_top_of_a_field(self):
        # top = 5 * 3 = 15 = 2^4 - 1: every field is 4 bits and full.
        x1, x2, x3 = xvars()
        assert (x1 ** 3) ** 5 == Polynomial(X3, INTEGERS, {(15, 0, 0): 1})
        assert (x3 ** 3) ** 5 == Polynomial(X3, INTEGERS, {(0, 0, 15): 1})
        p = x1 * x3 ** 3 + 2 * x2 ** 3
        assert p ** 5 == tuple_power(p, 5)
        assert (p ** 5).terms[(5, 0, 15)] == 1
        assert (p ** 5).terms[(0, 15, 0)] == 32

    def test_substitution_reaching_the_top_of_a_field(self):
        # Source degree 5 times image exponent 3: the largest target
        # exponent is 15 = 2^4 - 1, in the last and in the first field.
        ctx = context(("s", "t"))
        s = Polynomial.variable(ctx, "s")
        t = Polynomial.variable(ctx, "t")
        xy = context(("x", "y"))
        x = Polynomial.variable(xy, "x")
        y = Polynomial.variable(xy, "y")
        rm = RingMap(ctx, xy, (x * y ** 3 + x ** 3, y ** 2 - x), INTEGERS)
        for p in (s ** 5, s ** 4 * t, s * t ** 4 - 7 * s ** 2 + t):
            assert rm.apply(p) == tuple_apply(rm, p)
        image = rm.apply(s ** 5)
        assert image.terms[(5, 15)] == 1 and image.terms[(15, 0)] == 1

    def test_weyl_groups_move_the_gammas_by_exponent_arithmetic(self):
        # Every element of s3_on_x() permutes the variables, so each image
        # is one term; s3_on_u() and s3_on_xy() mix one- and two-term images.
        gens = gammas()
        restricted = {group: tuple(restrict_poly(g, to) for g in gens)
                      for group, to in ((s3_on_u(), TO_SL3), (s3_on_xy(), TO_XY))}
        for group, polys in ((s3_on_x(), gens), *restricted.items()):
            for label, rm in zip(group.labels(), group._ring_maps):
                if group is s3_on_x():
                    assert all(len(img.terms) == 1 for img in rm.images), label
                for p in polys:
                    assert group.act(label, p) == tuple_apply(rm, p), label

    def test_scaled_one_term_image_mod_three(self):
        ring = integers_mod(3)
        s = Polynomial.variable(context(("s",)), "s", ring)
        xy = context(("x", "y"))
        rm = RingMap(s.context, xy, (2 * Polynomial.variable(xy, "y", ring),), ring)
        assert rm.apply(s ** 5) == tuple_apply(rm, s ** 5)
        assert rm.apply(s ** 5).terms == {(0, 5): 2}  # 2^5 = 32 = 2 mod 3

    def test_one_term_image_reaching_the_top_of_a_field(self):
        # x1 -> y^3 and x2 -> x^3 on degree 5: shifted keys land on 15 = 2^4 - 1
        # in the last and in the first field, also beside a two-term image.
        xy = context(("x", "y"))
        x = Polynomial.variable(xy, "x")
        y = Polynomial.variable(xy, "y")
        rm = RingMap(X3, xy, (y ** 3, x ** 3, x + y), INTEGERS)
        x1, x2, x3 = xvars()
        assert rm.apply(x1 ** 5).terms == {(0, 15): 1}
        assert rm.apply(x2 ** 5).terms == {(15, 0): 1}
        for p in (x1 ** 5, x2 ** 5, x1 ** 4 * x3, x1 ** 2 * x2 ** 3 - x3 ** 5):
            assert rm.apply(p) == tuple_apply(rm, p)

    def test_power_product_rows_mod_three(self):
        # f^a * g^b with f of weight 1 and g of weight 2, against tuple-keyed
        # products; a factor with a term outside its weight is rejected, and
        # the zero factor is homogeneous of every weight.
        ring = integers_mod(3)
        x1, x2, x3 = xvars(ring)
        f, g = x1 + x2, 2 * x3 ** 2
        exponents = context(("f", "g"), (1, 2))
        every = {d: exponents.monomials_of_degree(d) for d in range(7)}
        for d, (width, rows) in power_product_rows((f, g), (1, 2), every).items():
            basis = X3.monomials_of_degree(d)
            assert width == len(basis)
            assert rows == [{basis.index(e): c for e, c in (f ** a * g ** b).terms.items()}
                            for a, b in exponents.monomials_of_degree(d)]
        with pytest.raises(NotHomogeneousError, match="degree 2"):
            power_product_rows((f, g + x1), (1, 2), {3: every[3]})
        with pytest.raises(NotHomogeneousError, match="degree 1"):
            power_product_rows((f, g), (1, 1), {})
        for d, (width, rows) in power_product_rows((f, 0 * g), (1, 2), every).items():
            basis = X3.monomials_of_degree(d)
            assert rows == [{basis.index(e): c for e, c in (f ** a).terms.items()}
                            if b == 0 else {}
                            for a, b in exponents.monomials_of_degree(d)], d

    def test_large_power_mod_three_is_canonical(self):
        ctx = context(("a", "b"))
        ring = integers_mod(3)
        a = Polynomial.variable(ctx, "a", ring)
        b = Polynomial.variable(ctx, "b", ring)
        result = (a + b) ** 200
        assert all(0 < c < 3 for c in result.terms.values())
        assert result == Polynomial(ctx, ring, dict(result.terms))
        assert result == tuple_power(a + b, 200)
        # Lucas: 200 = 2*81 + 27 + 9 + 2*1, so (a + b)^200 is a product of
        # Frobenius powers, each a binomial mod 3.
        frobenius = [parse(f"a^{q} + b^{q}", ctx, ring) for q in (81, 81, 27, 9, 1, 1)]
        expected = Polynomial.constant(ctx, 1, ring)
        for f in frobenius:
            expected = expected * f
        assert result == expected


def recursive_monomials(weights, bound):
    """The exponent vectors of weighted degree ``d``, graded-lex largest
    first, for each ``d = 0..bound``: every exponent of every variable is
    tried in turn, the last one included.  A recursion on tuples, run once
    for all degrees, kept as an oracle for the order and content of
    :func:`graded_bases`."""
    by_degree = [[] for _ in range(bound + 1)]

    def rec(i, degree, prefix):
        if i == len(weights):
            by_degree[degree].append(prefix)
            return
        for e in range((bound - degree) // weights[i], -1, -1):
            rec(i + 1, degree + e * weights[i], prefix + (e,))

    rec(0, 0, ())
    return [tuple(monomials) for monomials in by_degree]


class TestGrading:
    def test_monomials_match_the_recursive_enumerator(self):
        for weights in ((2, 3, 4, 6, 6), (2, 3, 4, 6, 6, 8), (1, 1),
                        (1, 1, 1), (2, 3), ()):
            ctx = context([f"v{i}" for i in range(len(weights))], weights)
            expected = recursive_monomials(weights, 80)
            for d in range(81):
                assert ctx.monomials_of_degree(d) == expected[d], (weights, d)
            assert ctx.monomials_of_degree(-1) == ()

    def test_coefficient_vector_example(self):
        x1, x2, _ = xvars()
        basis, vec = (x1 * x2).coefficient_vector(2)
        names = [X3.render_monomial(e) for e in basis]
        assert names == ["x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3", "x3^2"]
        assert vec == [0, 1, 0, 0, 0, 0]

    def test_degree_six_monomial_count(self):
        assert len(X3.monomials_of_degree(6)) == 28

    def test_weighted_monomial_count(self):
        ctx = context(("lam", "c3", "rho", "chi", "c6", "c8"),
                      (2, 3, 4, 6, 6, 8))
        assert len(ctx.monomials_of_degree(6)) == 5

    def test_coefficient_vector_requires_homogeneous(self):
        x1, x2, _ = xvars()
        with pytest.raises(NotHomogeneousError):
            (x1 ** 2 + x2).coefficient_vector(2)

    def test_directional_derivative(self):
        g2, _, _ = gammas()
        assert not g2.directional_derivative((1, 1, 1))
        x1, _, _ = xvars()
        assert (x1 ** 2).directional_derivative((1, 0, 0)) == 2 * x1


class TestTextFormat:
    def test_render_matches_canonical_example(self):
        x1, x2, x3 = xvars()
        p = 2 * x1 ** 3 - 9 * x1 * x2 + 27 * x3
        assert p.render() == "2*x1^3 - 9*x1*x2 + 27*x3"

    def test_zero_renders_as_zero(self):
        assert Polynomial.zero(X3).render() == "0"
        assert parse("0", X3, INTEGERS) == Polynomial.zero(X3)

    def test_round_trip_examples(self):
        g2, g3, g6 = gammas()
        for p in (g2, g3, g6, g2 * g3 - g6, -g2):
            assert parse(p.render(), X3, INTEGERS) == p

    def test_round_trip_mod(self):
        ctx = context(("a", "b"))
        ring = integers_mod(3)
        p = parse("2*a^2 + b", ctx, ring)
        assert parse(p.render(), ctx, ring) == p

    def test_rejects_unknown_variable(self):
        with pytest.raises(PolynomialParseError):
            parse("z + 1", X3, INTEGERS)

    def test_rejects_fraction_over_z(self):
        for ring in (INTEGERS, integers_mod(3)):
            with pytest.raises(PolynomialParseError, match="fractional coefficient"):
                parse("1/2*x1", X3, ring)

    def test_rejects_garbage(self):
        for bad in ("", "+", "x1 +", "2**x1", "x1^", "*x1"):
            with pytest.raises(PolynomialParseError):
                parse(bad, X3, INTEGERS)
