"""Randomized law checking: ring homomorphisms, group actions, Chern-class
identities, integer normal forms, the elimination of unit generators from
presented rings, the every-degree certificate of presented rings against
their Smith tables and the packed-exponent kernels against the tuple-based
loops they replaced, each over at least 200 instances."""

from hypothesis import given, settings, strategies as st

from pgl3chow import intlinalg as la
from pgl3chow.checks import a3_on_u, s3_on_u, s3_on_x, s3_on_xy
from pgl3chow.groups import alternating_subgroup
from pgl3chow.poly import INTEGERS, Polynomial, RingMap, context, integers_mod, parse
from pgl3chow.presented import (
    RingPresentation,
    eliminate_unit_generators,
    free_summand_certificate,
    graded_components,
)
from pgl3chow.repcalc import (
    A3MU3_AB,
    T_GL3,
    TO_SL3,
    TO_XY,
    VirtualRep,
    chern_classes,
    direct_sum,
    dual,
    restrict_poly,
    restrict_rep,
)
from test_intlinalg import (
    assert_hermite_transform_certifies,
    back_substitution_solve_rational,
    dense_invariant_factors,
    rank_over_q,
    reduced_back_substitution_solve,
    sparse_rows,
)
from test_poly import tuple_apply, tuple_power
from test_presented import certified_components
from test_repcalc import alternating_signs, cauchy_product, tuple_chern_classes

LAW_SETTINGS = settings(max_examples=200, deadline=None)

X3 = T_GL3.ctx
XY = context(("x", "y"))


def polynomials(ctx, max_exp=3, max_terms=4, coeff_bound=9, ring=INTEGERS):
    exponents = st.tuples(*(st.integers(0, max_exp) for _ in range(ctx.arity)))
    return st.dictionaries(exponents, st.integers(-coeff_bound, coeff_bound),
                           max_size=max_terms).map(
        lambda terms: Polynomial(ctx, ring, terms))


def image_polynomials():
    return polynomials(XY, max_exp=2, max_terms=3, coeff_bound=3)


@st.composite
def one_term_images(draw):
    """``c*x^a`` with ``c`` in -2..2: scaled monomials, the zero image
    (``c = 0``) and constant images (``a = 0``), which ``RingMap.apply``
    handles by exponent arithmetic or, for zero, by its power cache."""
    a = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    return Polynomial(XY, INTEGERS, {a: draw(st.integers(-2, 2))})


@st.composite
def ring_maps(draw):
    """About half of the images come from ``one_term_images``."""
    images = tuple(draw(one_term_images() if draw(st.booleans())
                        else image_polynomials())
                   for _ in range(X3.arity))
    return RingMap(X3, XY, images, INTEGERS)


@st.composite
def genuine_reps(draw, max_weights=3, lattice=T_GL3):
    n = draw(st.integers(1, max_weights))
    weights = []
    for _ in range(n):
        coords = tuple(draw(st.integers(-2, 2)) for _ in range(lattice.rank))
        mult = draw(st.integers(1, 2))
        weights.append((coords, mult))
    return VirtualRep.from_weights(lattice, weights)


def int_matrices(max_dim=4, bound=9):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
                min_size=m, max_size=m)))


@st.composite
def salted_matrices(draw, max_dim=7):
    """Sparse rows rich in what the unit-pivot route branches on: ±1
    entries, a common factor, zero rows and zero columns.  Returns the rows,
    the width and the dense matrix they stand for; now and then a row keeps
    an explicit zero value, which must count as an absent entry."""
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    entry = st.one_of(st.sampled_from([0, 0, 1, -1]), st.integers(-9, 9))
    a = [[draw(entry) for _ in range(n)] for _ in range(m)]
    factor = draw(st.sampled_from([1, 1, 2, 3, -6]))
    a = [[factor * x for x in row] for row in a]
    if draw(st.booleans()):
        a[draw(st.integers(0, m - 1))] = [0] * n
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in a:
            row[j] = 0
    rows = sparse_rows(a)
    if draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = 0
        a = [[row.get(j, 0) for j in range(n)] for row in rows]
    return rows, n, a


class TestSubstituteHomomorphism:
    @LAW_SETTINGS
    @given(polynomials(X3), polynomials(X3), ring_maps())
    def test_multiplicative(self, p, q, rm):
        assert rm.apply(p * q) == rm.apply(p) * rm.apply(q)

    @LAW_SETTINGS
    @given(polynomials(X3), polynomials(X3), ring_maps())
    def test_additive(self, p, q, rm):
        assert rm.apply(p + q) == rm.apply(p) + rm.apply(q)


def _label_of_product(group, la_, lb):
    """Label of the element whose matrix is matrix(la_) @ matrix(lb)."""
    prod = la.matmul(group.matrix(la_), group.matrix(lb))
    return next(label for label, m in group.elements
                if [list(r) for r in m] == prod)


class TestGroupActionLaws:
    @LAW_SETTINGS
    @given(st.sampled_from(range(6)), st.sampled_from(range(6)),
           polynomials(X3, max_exp=2, max_terms=3))
    def test_composition_on_x(self, i, j, p):
        group = s3_on_x()
        labels = group.labels()
        la_, lb = labels[i], labels[j]
        prod = _label_of_product(group, la_, lb)
        composed = group.act(la_, group.act(lb, p))
        assert group.act(prod, p) == composed

    @LAW_SETTINGS
    @given(st.sampled_from(range(6)), st.sampled_from(range(6)),
           polynomials(context(("u1", "u2")), max_exp=2, max_terms=3))
    def test_composition_on_twisted_u(self, i, j, p):
        group = s3_on_u()
        p = Polynomial(group.ctx, INTEGERS, dict(p.terms))
        labels = group.labels()
        la_, lb = labels[i], labels[j]
        prod = _label_of_product(group, la_, lb)
        composed = group.act(la_, group.act(lb, p))
        assert group.act(prod, p) == composed


class TestMoversLaw:
    @LAW_SETTINGS
    @given(st.sampled_from((s3_on_x, s3_on_xy, s3_on_u, a3_on_u)),
           st.sampled_from(("as drawn", "group orbit sum", "A3 orbit sum")),
           st.data())
    def test_movers_are_the_elements_that_move(self, build, kind, data):
        # Orbit sums are fixed by every element, or by the rotations alone,
        # so the generators' shortcut and the fallback to every element are
        # both taken.
        group = build()
        p = data.draw(polynomials(group.ctx, max_exp=2, max_terms=3))
        if kind == "group orbit sum":
            p = group.orbit_sum(p)
        elif kind == "A3 orbit sum":
            p = alternating_subgroup(group).orbit_sum(p)
        movers = group.movers(p)
        expected = [l for l in group.labels() if group.act(l, p) != p]
        assert list(movers) == expected
        assert all(movers[l] == group.act(l, p) for l in expected)


class TestChernLaws:
    @LAW_SETTINGS
    @given(genuine_reps(), genuine_reps())
    def test_whitney_formula(self, r, s):
        assert chern_classes(direct_sum(r, s)) == \
            cauchy_product(chern_classes(r), chern_classes(s))

    @LAW_SETTINGS
    @given(genuine_reps())
    def test_duality_signs(self, r):
        assert chern_classes(dual(r)) == alternating_signs(chern_classes(r))

    @LAW_SETTINGS
    @given(genuine_reps(), st.sampled_from([TO_XY, TO_SL3]))
    def test_naturality(self, r, lattice_map):
        restricted = chern_classes(restrict_rep(r, lattice_map))
        for i, c in enumerate(chern_classes(r)[:4]):
            assert restrict_poly(c, lattice_map) == restricted[i]


class TestNormalFormLaws:
    @LAW_SETTINGS
    @given(int_matrices())
    def test_hermite_transform_certifying_identity(self, a):
        assert_hermite_transform_certifies(a)

    @LAW_SETTINGS
    @given(int_matrices())
    def test_kernel_saturation(self, a):
        kernel = la.left_kernel(a)
        for v in kernel:
            assert all(x == 0 for x in la.matmul([v], a)[0])
        assert len(kernel) == len(a) - sum(1 for d in dense_invariant_factors(a) if d)
        if kernel:
            assert all(d == 1 for d in dense_invariant_factors(kernel))

    @LAW_SETTINGS
    @given(salted_matrices())
    def test_invariant_factors_match_smith_and_rational_rank(self, salted):
        rows, n, a = salted
        before = [dict(row) for row in rows]
        factors = la.invariant_factors(rows, n)
        assert factors == la._smith_reduce(a)
        assert rank_over_q(rows) == sum(1 for d in factors if d)
        assert rows == before

    @LAW_SETTINGS
    @given(int_matrices())
    def test_kernel_is_hermite_rows_beyond_rank(self, a):
        h, u = la.hermite_normal_form(a)
        assert la.left_kernel(a) == u[len(h):]
        assert len(h) == sum(1 for d in dense_invariant_factors(a) if d)

    @LAW_SETTINGS
    @given(int_matrices())
    def test_hnf_is_canonical_for_the_lattice(self, a):
        h, _ = la.hermite_normal_form(a)
        doubled, _ = la.hermite_normal_form(a + [row[:] for row in a])
        assert h == doubled
        shuffled, _ = la.hermite_normal_form(list(reversed(a)))
        assert h == shuffled

    @LAW_SETTINGS
    @given(int_matrices(max_dim=3, bound=5),
           st.lists(st.integers(-5, 5), min_size=3, max_size=3))
    def test_membership_certificates_recombine(self, gens, coeffs):
        """Integral membership: ``solve_left`` answers a member of the
        lattice, and its answer multiplies back to the target."""
        gens = [row[:3] + [0] * (3 - len(row[:3])) for row in gens]
        target = [sum(c * g[j] for c, g in zip(coeffs, gens))
                  for j in range(3)]
        x = la.solve_left(target, gens)
        assert x is not None
        recombined = [sum(c * g[j] for c, g in zip(x, gens))
                      for j in range(3)]
        assert recombined == target

    @LAW_SETTINGS
    @given(int_matrices(max_dim=4, bound=4), st.booleans(),
           st.lists(st.integers(-4, 4), min_size=4, max_size=4))
    def test_solve_matches_the_back_substitution(self, gens, member, drawn):
        """``solve_left`` is the back-substitution oracle's answer reduced
        against the syzygies; ``solve_left_rational`` is None exactly when
        the oracle's is, and otherwise multiplies back."""
        n = len(gens[0])
        target = ([sum(c * g[j] for c, g in zip(drawn, gens)) for j in range(n)]
                  if member else drawn[:n])
        assert la.solve_left(target, gens) == reduced_back_substitution_solve(
            target, gens)
        x = la.solve_left_rational(target, gens)
        assert (x is None) == (back_substitution_solve_rational(target, gens) is None)
        if x is not None:
            y, g = x
            assert [sum(c * row[j] for c, row in zip(y, gens))
                    for j in range(n)] == [g * t for t in target]


RINGS = (INTEGERS, integers_mod(3), integers_mod(4))


@st.composite
def polynomial_pairs(draw):
    """A ring from RINGS and two small polynomials over it in x, y, with
    few exponents and coefficients so that sums and products cancel."""
    ring = draw(st.sampled_from(RINGS))
    small = polynomials(XY, max_exp=2, max_terms=4, coeff_bound=4, ring=ring)
    return ring, draw(small), draw(small)


def assert_canonical(r, ring):
    """No zero coefficient, residues in [0, m), and unchanged by the
    validating constructor."""
    assert r.ring == ring
    for c in r.terms.values():
        assert c != 0
        assert ring.modulus is None or 0 <= c < ring.modulus
    assert r == Polynomial(r.context, ring, dict(r.terms))


class TestCanonicalForms:
    @LAW_SETTINGS
    @given(polynomial_pairs(), st.integers(-6, 6), st.integers(0, 3),
           st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    def test_arithmetic_results_are_canonical(self, drawn, k, n, direction):
        ring, p, q = drawn
        for r in (p + q, p - q, -p, p * k, k * p, p * q, p ** n,
                  p.derivative(0), p.derivative(1),
                  p.directional_derivative(direction)):
            assert_canonical(r, ring)

    @LAW_SETTINGS
    @given(polynomials(X3, coeff_bound=6), ring_maps())
    def test_ring_map_results_are_canonical(self, p, rm):
        assert_canonical(rm.apply(p), INTEGERS)
        ring = integers_mod(3)
        images = tuple(Polynomial(XY, ring, dict(img.terms)) for img in rm.images)
        assert_canonical(RingMap(X3, XY, images, ring).apply(p), ring)

    @LAW_SETTINGS
    @given(polynomials(X3))
    def test_renormalization_is_identity(self, p):
        assert Polynomial(p.context, p.ring, dict(p.terms)) == p

    @LAW_SETTINGS
    @given(polynomials(X3))
    def test_text_round_trip(self, p):
        assert parse(p.render(), X3, INTEGERS) == p

    @LAW_SETTINGS
    @given(polynomials(X3), polynomials(X3))
    def test_mod3_reduction_commutes_with_arithmetic(self, p, q):
        from pgl3chow.poly import integers_mod
        ring = integers_mod(3)
        red = RingMap(X3, X3, tuple(Polynomial.variable(X3, n, ring)
                                    for n in X3.names), ring)
        assert red.apply(p * q) == red.apply(p) * red.apply(q)
        assert red.apply(p - q) == red.apply(p) - red.apply(q)


KERNEL_RINGS = (INTEGERS, integers_mod(3))


@st.composite
def ring_and_polynomial(draw, ctx, **kwargs):
    """A ring from KERNEL_RINGS and a small polynomial over it."""
    ring = draw(st.sampled_from(KERNEL_RINGS))
    return ring, draw(polynomials(ctx, ring=ring, **kwargs))


class TestPackedKernelsMatchTupleOracles:
    """``**``, ``RingMap.apply`` and ``chern_classes`` run on packed keys;
    each equals the tuple-based loop it replaced, over Z and Z/3."""

    @LAW_SETTINGS
    @given(ring_and_polynomial(X3), st.integers(0, 6))
    def test_power(self, drawn, n):
        _, p = drawn
        assert p ** n == tuple_power(p, n)

    @LAW_SETTINGS
    @given(ring_and_polynomial(X3, coeff_bound=6), ring_maps(), st.booleans())
    def test_apply(self, drawn, rm, source_over_z):
        ring, p = drawn
        images = tuple(Polynomial(XY, ring, dict(img.terms)) for img in rm.images)
        rm = RingMap(X3, XY, images, ring)
        if source_over_z:
            p = Polynomial(X3, INTEGERS, dict(p.terms))
        assert rm.apply(p) == tuple_apply(rm, p)

    @LAW_SETTINGS
    @given(st.one_of(genuine_reps(max_weights=4),
                     genuine_reps(max_weights=4, lattice=A3MU3_AB)))
    def test_chern_classes(self, r):
        assert chern_classes(r) == tuple_chern_classes(r)

    @LAW_SETTINGS
    @given(polynomial_pairs())
    def test_subtraction_adds_the_negation(self, drawn):
        _, p, q = drawn
        assert p - q == p + (-q)


# Up to three (monomial index, coefficient) pairs; the index is reduced
# modulo the number of monomials of the degree at hand.
SMALL_TERMS = st.lists(st.tuples(st.integers(0, 63), st.integers(-3, 3)),
                       max_size=3)


@st.composite
def presentations_with_unit_generator(draw):
    """One to two generators of degree 1..3, plus a generator ``g`` defined
    by a relation ``±g + p``, among zero to two random homogeneous relations
    that may mention ``g``."""
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    names = [f"a{i}" for i in range(len(degrees))]
    at = draw(st.integers(0, len(degrees)))
    names.insert(at, "g")
    degrees.insert(at, draw(st.integers(1, 3)))
    ctx = context(names, degrees)

    def homogeneous(monomials):
        terms = {}
        if monomials:
            for k, c in draw(SMALL_TERMS):
                terms[monomials[k % len(monomials)]] = c
        return Polynomial(ctx, INTEGERS, terms)

    g_degree = degrees[at]
    p = homogeneous([m for m in ctx.monomials_of_degree(g_degree) if not m[at]])
    sign = draw(st.sampled_from((1, -1)))
    relations = [homogeneous(ctx.monomials_of_degree(d))
                 for d in draw(st.lists(st.integers(1, 4), max_size=2))]
    relations.insert(draw(st.integers(0, len(relations))),
                     sign * Polynomial.variable(ctx, "g") + p)
    return RingPresentation(tuple(zip(names, degrees)), tuple(relations))


class TestPresentationLaws:
    @LAW_SETTINGS
    @given(presentations_with_unit_generator())
    def test_unit_elimination_keeps_every_component(self, pres):
        reduced = eliminate_unit_generators(pres)
        assert len(reduced.generators) < len(pres.generators)
        assert list(graded_components(reduced, 8)) \
            == list(graded_components(pres, 8))


@st.composite
def certified_presentations(draw):
    """Two to four generators of degree 1..3 and up to three relations
    ``c*(±m + lower terms)`` for one content ``c`` in 1..4.  The leading
    monomials ``m`` have disjoint supports, so they are pairwise coprime,
    and the lower terms are random monomials of the same degree below ``m``
    in the lex order with a drawn generator first."""
    degrees = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    names = [f"a{i}" for i in range(len(degrees))]
    ctx = context(names, degrees)
    first = draw(st.integers(0, len(degrees) - 1))
    content = draw(st.integers(1, 4))
    owners = draw(st.lists(st.integers(-1, 2), min_size=len(degrees),
                           max_size=len(degrees)))
    relations = []
    for r in sorted(set(owners) - {-1}):
        lead = tuple(draw(st.integers(1, 2)) if o == r else 0 for o in owners)
        lower = [m for m in ctx.monomials_of_degree(ctx.weighted_degree(lead))
                 if (m[first], m) < (lead[first], lead)]
        terms = {lower[k % len(lower)]: c for k, c in draw(SMALL_TERMS)
                 } if lower else {}
        terms[lead] = draw(st.sampled_from((1, -1)))
        relations.append(Polynomial(ctx, INTEGERS, {
            e: content * c for e, c in terms.items()}))
    return RingPresentation(tuple(zip(names, degrees)), tuple(relations))


class TestCertificateLaws:
    @LAW_SETTINGS
    @given(certified_presentations())
    def test_certified_components_match_the_smith_table(self, pres):
        cert = free_summand_certificate(pres)
        assert not isinstance(cert, str), cert
        assert certified_components(pres, cert, 8) \
            == list(graded_components(pres, 8))
