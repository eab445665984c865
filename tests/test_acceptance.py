"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

All assertions are exact (tolerance zero).  Criterion 2 is expected to be red:
the published restriction table lists c6(sl3) = gamma6, but the sixth
elementary symmetric polynomial of the sl3 root multiset is minus the
discriminant, i.e. -gamma6 (in agreement with the published footnote that
c6(sl3) restricts to 4*a2^3 + 27*a3^2 on the SL3 torus, where +gamma6 would
restrict to -4*a2^3 - 27*a3^2).  The harness reports the computation rather
than the typo; see the failure message.
"""

import random

from pgl3chow import checks, intlinalg as la
from pgl3chow.checks import (
    chi_torus,
    delta_torus,
    gamma_generators,
    s3_on_u,
    s3_on_x,
    theta_torus,
    w_chern_torus,
)
from pgl3chow.poly import INTEGERS, Polynomial, RingMap, context
from pgl3chow.presented import graded_components, rstar_presentation
from pgl3chow.repcalc import (
    A3MU3_AB,
    T_GL3,
    TO_SL3,
    TO_XY,
    VirtualRep,
    chern_classes,
    direct_sum,
    dual,
    express_in,
    restrict_poly,
    restrict_rep,
    standard,
)
from test_intlinalg import (
    assert_hermite_transform_certifies,
    dense_invariant_factors,
    rank_over_q,
)
from presented_oracle import tuple_relation_rows
from test_repcalc import alternating_signs, cauchy_product, dimension


def _verdict_line(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_01_gamma_generation():
    result = checks.run_check("gamma-generation", 12)
    ok = result.verdict == "pass"
    _verdict_line(1, "gamma-generation (lattice equality for d <= 12)", ok)
    assert ok, result.witness_dict()


def test_criterion_02_hsurj_restrictions():
    gammas = gamma_generators()
    c_sl3 = chern_classes(standard("sl3"))
    c_sym3 = chern_classes(standard("Sym3E_PGL3"))
    targets = [
        (c_sl3[2], "gamma2"),
        (c_sym3[2], "gamma2"),
        (c_sym3[3], "gamma3"),
        (c_sl3[6], "gamma6"),
    ]
    computed = []
    for target, gen_name in targets:
        result = express_in(target, {gen_name: gammas[gen_name]})
        assert result.ok, f"no integral expression for {gen_name} target"
        computed.append(result.expression.terms.get((1,), 0))
    expected = (-2, -5, 1, 1)
    ok = tuple(computed) == expected
    _verdict_line(2, "hsurj-restrictions (published coefficients -2, -5, 1, 1)", ok)
    assert ok, (
        f"computed coefficients {tuple(computed)} differ from the published "
        f"{expected}: c6(sl3) is the product of the six roots x_i - x_j, "
        f"which is minus the discriminant, so c6(sl3) = -gamma6; the "
        f"published +gamma6 contradicts its own SL3 restriction "
        f"4*a2^3 + 27*a3^2 and cannot be reproduced")


def test_criterion_03_gamma_syzygy():
    g = gamma_generators()
    difference = (g["gamma2"] ** 3 - g["gamma3"] ** 2
                  + 3 * g["gamma2"] ** 3 - 27 * g["gamma6"])
    ok = not difference
    _verdict_line(3, "gamma-syzygy (exact zero expansion)", ok)
    assert ok, difference.render()


def test_criterion_04_chi_vanishes_and_delta_discriminant():
    c2w, c3w = w_chern_torus()
    chi = chi_torus(theta_torus(), c2w, c3w)
    delta = delta_torus()
    identity = delta ** 2 + 4 * c2w ** 3 + 27 * c3w ** 2
    ok = (not chi) and (not identity)
    _verdict_line(4, "chi-underline-vanishes / delta-discriminant", ok)
    assert not chi, chi.render()
    assert not identity, identity.render()


def test_criterion_05_a3mu3_chern_and_rho_squared():
    ring = A3MU3_AB.ring
    ctx = A3MU3_AB.ctx
    a = Polynomial.variable(ctx, "a", ring)
    b = Polynomial.variable(ctx, "b", ring)
    c_w = chern_classes(standard("W_A3mu3"))
    c2w, c3w = c_w[2], c_w[3]
    c8 = chern_classes(standard("sl3_A3mu3"))[8]
    ok = (c2w == -(a ** 2)
          and c3w == b * (b ** 2 - a ** 2)
          and c8 == (a * b) ** 2 * (b ** 2 - a ** 2) ** 2
          and not ((a * c3w) ** 2 - c8))
    _verdict_line(5, "a3mu3-chern and rho-squared (B = 1)", ok)
    assert c2w == -(a ** 2), c2w.render()
    assert c3w == b * (b ** 2 - a ** 2), c3w.render()
    assert c8 == (a * b) ** 2 * (b ** 2 - a ** 2) ** 2, c8.render()
    assert not ((a * c3w) ** 2 - c8)


def test_criterion_06_alphabeta_nonmembership():
    ring = A3MU3_AB.ring
    ctx = A3MU3_AB.ctx
    a = Polynomial.variable(ctx, "a", ring)
    b = Polynomial.variable(ctx, "b", ring)
    multiplier = -(a ** 2)
    degree2 = ctx.monomials_of_degree(2)
    image_vectors = [
        [int(c) for c in (Polynomial(ctx, ring, {e: 1}) * multiplier)
         .coefficient_vector(4)[1]]
        for e in degree2
    ]
    basis, target = (a * b ** 3).coefficient_vector(4)
    assert len(basis) == 5
    result = la.membership([int(c) for c in target], image_vectors, modulus=3)
    ok = not result.member
    _verdict_line(6, "alphabeta-nonmembership (a*b^3 outside the image)", ok)
    assert ok, f"unexpected certificate {result.certificate}"
    # The no is certified by y = e(a*b^3): it kills every image generator
    # mod 3 and not the target.  The member a^4 has no such vector.
    y = result.certificate
    assert y == (0, 0, 0, 1, 0)
    assert all(sum(g * c for g, c in zip(row, y)) % 3 == 0 for row in image_vectors)
    assert sum(int(t) * c for t, c in zip(target, y)) % 3
    assert la._separating_vector([1, 0, 0, 0, 0], image_vectors, 3) is None


def test_criterion_07_sl3_restriction():
    c_sl3 = chern_classes(standard("sl3"))
    c_sym3 = chern_classes(standard("Sym3E_PGL3"))
    c_e = chern_classes(restrict_rep(standard("E"), TO_SL3))
    a2, a3 = c_e[2], c_e[3]
    ok = True
    ok &= restrict_poly(c_sl3[2], TO_SL3) == 6 * a2
    ok &= restrict_poly(c_sym3[2], TO_SL3) == 15 * a2
    ok &= restrict_poly(c_sym3[3], TO_SL3) == 27 * a3
    lam_printed = 2 * c_sl3[2] - c_sym3[2]
    lam_printed_image = restrict_poly(lam_printed, TO_SL3)
    ok &= lam_printed_image == -3 * a2
    print("ACCEPTANCE 07 note: computed image of 2*c2(sl3) - c2(Sym3E) is "
          "-3*a2; the published remark prints lambda -> 3*a2 (informational "
          "sign discrepancy, not a failure)")
    # The torsion relation holds for the lambda with restriction +3*a2,
    # i.e. lambda = c2(Sym3E) - 2*c2(sl3).
    lam = -lam_printed
    relation = 27 * c_sl3[6] - c_sym3[3] ** 2 - 4 * lam ** 3
    ok &= not restrict_poly(relation, TO_SL3)
    _verdict_line(7, "sl3-restriction (6*a2, 15*a2, 27*a3, relation -> 0)", ok)
    assert restrict_poly(c_sl3[2], TO_SL3) == 6 * a2
    assert restrict_poly(c_sym3[2], TO_SL3) == 15 * a2
    assert restrict_poly(c_sym3[3], TO_SL3) == 27 * a3
    assert lam_printed_image == -3 * a2
    assert not restrict_poly(relation, TO_SL3)


def test_criterion_08_repring_generators():
    result = checks.run_check("repring-generators", 9)
    ok = result.verdict == "pass"
    _verdict_line(8, "repring-generators (character identities, monoid <= 9)", ok)
    assert ok, result.witness_dict()


def test_criterion_09_regular_rep_vanishing():
    sl3_finite = standard("sl3_A3mu3")
    sym3_finite = standard("Sym3E_A3mu3")
    assert dimension(sl3_finite) == 8
    assert dimension(sym3_finite) == 10
    ok = all(not c for rep in (sl3_finite, sym3_finite)
             for c in chern_classes(rep)[1:5])
    _verdict_line(9, "regular-rep-vanishing (c1..c4 = 0 over Z/3)", ok)
    assert ok


def test_criterion_10_rstar_structure():
    pres = rstar_presentation()
    ranks = {}
    for d in range(17):
        basis, rows = tuple_relation_rows(pres, d)
        ranks[d] = len(basis) - rank_over_q(rows)
    comps = list(graded_components(pres, 16))
    ok = True
    for d in range(17):
        comp = comps[d]
        expected = sum(1 for aa in range(d // 2 + 1) if (d - 2 * aa) % 3 == 0)
        ok &= comp.free_rank == expected == ranks[d]
        if d == 4:
            ok &= comp.torsion == (3,)
            # Matches the cohomology row H^8 = Z + Z/3 under A^n <-> H^{2n}.
            ok &= comp.render() == "Z ⊕ Z/3"
    _verdict_line(10, "rstar-structure (free ranks and degree-4 torsion)", ok)
    for d in range(17):
        comp = comps[d]
        expected = sum(1 for aa in range(d // 2 + 1) if (d - 2 * aa) % 3 == 0)
        assert comp.free_rank == expected == ranks[d], (d, comp)
    assert comps[4].torsion == (3,)
    assert comps[4].render() == "Z ⊕ Z/3"


# ---- criterion 11: randomized law suites ---------------------------------------

N_INSTANCES = 200


def _random_polynomial(rng, ctx, max_exp=2, max_terms=3, bound=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in range(ctx.arity))
        terms[exp] = rng.randint(-bound, bound)
    return Polynomial(ctx, INTEGERS, terms)


def _random_rep(rng, max_weights=3):
    weights = []
    for _ in range(rng.randint(1, max_weights)):
        coords = tuple(rng.randint(-2, 2) for _ in range(3))
        weights.append((coords, rng.randint(1, 2)))
    return VirtualRep.from_weights(T_GL3, weights)


def _random_matrix(rng, max_dim=4, bound=9):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def test_criterion_11_property_suites():
    rng = random.Random(226)
    xy = context(("x", "y"))

    for _ in range(N_INSTANCES):  # substitute is a ring homomorphism
        p = _random_polynomial(rng, T_GL3.ctx)
        q = _random_polynomial(rng, T_GL3.ctx)
        images = tuple(_random_polynomial(rng, xy, max_exp=2, max_terms=2,
                                          bound=3) for _ in range(3))
        rm = RingMap(T_GL3.ctx, xy, images, INTEGERS)
        assert rm.apply(p * q) == rm.apply(p) * rm.apply(q)
        assert rm.apply(p + q) == rm.apply(p) + rm.apply(q)

    groups = (s3_on_x(), s3_on_u())
    for _ in range(N_INSTANCES):  # action composition law
        group = groups[rng.randint(0, 1)]
        labels = group.labels()
        ga, gb = rng.choice(labels), rng.choice(labels)
        p = _random_polynomial(rng, group.ctx)
        prod = la.matmul(group.matrix(ga), group.matrix(gb))
        gab = next(label for label, m in group.elements
                   if [list(r) for r in m] == prod)
        assert group.act(gab, p) == group.act(ga, group.act(gb, p))

    for _ in range(N_INSTANCES):  # Whitney formula
        r = _random_rep(rng, 2)
        s = _random_rep(rng, 2)
        assert chern_classes(direct_sum(r, s)) == \
            cauchy_product(chern_classes(r), chern_classes(s))

    for _ in range(N_INSTANCES):  # duality sign rule
        r = _random_rep(rng)
        assert chern_classes(dual(r)) == alternating_signs(chern_classes(r))

    maps = (TO_XY, TO_SL3)
    for _ in range(N_INSTANCES):  # chern/restrict naturality
        r = _random_rep(rng)
        lattice_map = maps[rng.randint(0, 1)]
        restricted = chern_classes(restrict_rep(r, lattice_map))
        for i, c in enumerate(chern_classes(r)[:4]):
            assert restrict_poly(c, lattice_map) == restricted[i]

    for _ in range(N_INSTANCES):  # Hermite transform certificate
        assert_hermite_transform_certifies(_random_matrix(rng))

    for _ in range(N_INSTANCES):  # kernel saturation
        a = _random_matrix(rng)
        kernel = la.left_kernel(a)
        for v in kernel:
            assert all(x == 0 for x in la.matmul([v], a)[0])
        assert len(kernel) == len(a) - sum(1 for d in dense_invariant_factors(a) if d)
        if kernel:
            assert all(d == 1 for d in dense_invariant_factors(kernel))

    _verdict_line(11, "property suites (7 laws x 200 randomized instances)", True)
