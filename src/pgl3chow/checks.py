"""Named verification checks for the Chow ring computation of B(PGL3).

Each check mechanically re-derives one computational claim used in the
determination of the Chow ring of the classifying stack of PGL3: the
generators of the Weyl-invariant subring, the Chern-class restriction values,
the torus-level transfer identities, the mod-3 identities over the finite
subgroup A3 x mu3, the representation-ring generators, and the graded
structure of the candidate presented ring.  A check either passes, fails with
a minimal counterexample witness, or errors; all verdicts and witnesses are
deterministic and rendered in the canonical polynomial text format.

Several checks read the same inputs: the gammas feed six of them, the Chern
classes of sl3 and Sym3 E both restriction tables, theta and c(W) three
torus identities.  Every check is handed a per-run store, ``_Run``, that
forms each such input on first use and keeps it; ``run_all`` shares one among
all its checks, so each input is formed once per run.

One published value is knowingly contradicted by the computation: the
restriction table prints c6(sl3) = gamma6, but the sixth elementary symmetric
polynomial of the root multiset of sl3 is minus the discriminant, so
c6(sl3) = -gamma6 (consistently with the published footnote that c6(sl3)
restricts to 4*a2^3 + 27*a3^2 on the SL3 torus).  The hsurj-restrictions
check keeps the published expectation and therefore fails, carrying the
computed certificate as its counterexample.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from . import intlinalg
from .config import check_degree_bound
from .groups import (
    MatrixGroup,
    alternating_subgroup,
    literally_shift_invariant,
    symmetric_group_s3,
    transported_group,
)
from .poly import (
    INTEGERS,
    Polynomial,
    RingMap,
    context,
    parse,
    power_product_rows,
)
from .presented import (
    eliminate_unit_generators,
    free_summand_certificate,
    graded_components,
    partition_series,
    rstar_presentation,
)
from .repcalc import (
    A3MU3_AB,
    T_GL3,
    T_PGL3_XY,
    T_SL3_U,
    TO_SL3,
    TO_XY,
    TWIST_EMBEDDING,
    XY_EMBEDDING,
    chern_classes,
    express_in,
    restrict_poly,
    restrict_rep,
    standard,
)


class UnknownCheckError(KeyError):
    pass


@dataclass(frozen=True)
class CheckSpec:
    name: str
    description: str
    paper_anchor: str
    default_max_degree: int | None = None


@dataclass(frozen=True)
class CheckResult:
    name: str
    verdict: str  # pass | fail | error
    witnesses: tuple[tuple[str, str], ...]
    elapsed: float

    def witness_dict(self) -> dict[str, str]:
        return dict(self.witnesses)


@dataclass(frozen=True)
class Report:
    results: tuple[CheckResult, ...]

    @property
    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "error": 0}
        for r in self.results:
            out[r.verdict] += 1
        return out

    @property
    def all_passed(self) -> bool:
        return all(r.verdict == "pass" for r in self.results)


# ---- shared torus data -------------------------------------------------------


def gamma_generators() -> dict[str, Polynomial]:
    """gamma2 = s1^2 - 3 s2, gamma3 = 2 s1^3 - 9 s1 s2 + 27 s3, gamma6 = the
    discriminant; the generators of the shift-invariant Weyl invariants."""
    ctx = T_GL3.ctx
    x1, x2, x3 = (Polynomial.variable(ctx, n) for n in ctx.names)
    s1 = x1 + x2 + x3
    s2 = x1 * x2 + x1 * x3 + x2 * x3
    s3 = x1 * x2 * x3
    gamma2 = s1 ** 2 - 3 * s2
    gamma3 = 2 * s1 ** 3 - 9 * s1 * s2 + 27 * s3
    gamma6 = ((x1 - x2) * (x1 - x3) * (x2 - x3)) ** 2
    return {"gamma2": gamma2, "gamma3": gamma3, "gamma6": gamma6}


SHIFT_DIRECTION = (1, 1, 1)


@functools.cache
def s3_on_x() -> MatrixGroup:
    return symmetric_group_s3(T_GL3.ctx)


@functools.cache
def s3_on_xy() -> MatrixGroup:
    return transported_group(s3_on_x(), XY_EMBEDDING, T_PGL3_XY.ctx)


@functools.cache
def s3_on_u() -> MatrixGroup:
    """The Weyl action transported to SL3-torus coordinates; on the
    alternating subgroup it is the plain cyclic permutation of u1, u2, u3,
    while the transposition acquires signs."""
    return transported_group(s3_on_x(), TWIST_EMBEDDING, T_SL3_U.ctx)


@functools.cache
def a3_on_u() -> MatrixGroup:
    return alternating_subgroup(s3_on_u())


def u_variables() -> tuple[Polynomial, Polynomial, Polynomial]:
    ctx = T_SL3_U.ctx
    u1 = Polynomial.variable(ctx, "u1")
    u2 = Polynomial.variable(ctx, "u2")
    return u1, u2, -u1 - u2


def theta_torus() -> Polynomial:
    """Torus restriction of the transfer class theta = tsf(u2^2 u3): the
    alternating orbit sum of u2^2 u3."""
    u1, u2, u3 = u_variables()
    return a3_on_u().orbit_sum(u2 ** 2 * u3)


def w_chern_torus() -> tuple[Polynomial, Polynomial]:
    c = chern_classes(standard("W_A3T"))
    return c[2], c[3]


def delta_torus() -> Polynomial:
    u1, u2, u3 = u_variables()
    return (u1 - u2) * (u2 - u3) * (u1 - u3)


def chi_torus(theta: Polynomial, c2w: Polynomial, c3w: Polynomial) -> Polynomial:
    """chi = (2*theta + 3*c3(W))^2 + 4*c2(W)^3 + 27*c3(W)^2 from its inputs,
    :func:`theta_torus` and :func:`w_chern_torus`."""
    return (2 * theta + 3 * c3w) ** 2 + 4 * c2w ** 3 + 27 * c3w ** 2


def describe_substitution(group: MatrixGroup, label: str) -> str:
    ring_map = RingMap.from_matrix(group.ctx, group.ctx, group.matrix(label))
    return ", ".join(f"{name} -> {image.render()}"
                     for name, image in zip(group.ctx.names, ring_map.images))


# ---- the per-run store ---------------------------------------------------------

Witnesses = list[tuple[str, str]]


class _Run:
    """The inputs and derivations that several checks read, each formed on
    first use and kept for one run: ``run_all`` shares one among all its
    checks, and ``run_check`` alone builds a fresh one.  A member holds an
    input or a derivation, never a verdict, so each check still decides for
    itself; within ``run_all`` a shared derivation's time is charged to the
    first check that reads it.  Mappings are handed out read-only."""

    def __init__(self) -> None:
        # catalogue name -> (the top it was formed to, None for all; classes)
        self._chern: dict[str, tuple[int | None, tuple[Polynomial, ...]]] = {}

    @functools.cached_property
    def gammas(self) -> Mapping[str, Polynomial]:
        """The module's :func:`gamma_generators`, looked up at first use."""
        return MappingProxyType(gamma_generators())

    @functools.cached_property
    def invariance(self) -> Mapping[str, tuple[tuple[str, str], ...]]:
        """Per gamma, its :func:`_invariance_counterexamples` under
        ``s3_on_x()`` and the shift; empty for an invariant gamma."""
        group = s3_on_x()
        return MappingProxyType({
            name: tuple(_invariance_counterexamples(name, g, group))
            for name, g in self.gammas.items()})

    @functools.cached_property
    def gammas_xy(self) -> Mapping[str, Polynomial]:
        """The gammas' images under ``TO_XY``: x1 -> x, x2 -> y, x3 -> 0."""
        return MappingProxyType({name: restrict_poly(g, TO_XY)
                                 for name, g in self.gammas.items()})

    def chern(self, name: str, top: int | None = None) -> tuple[Polynomial, ...]:
        """``chern_classes(standard(name), top)``: formed at most once per
        run unless a later call wants more classes than an earlier one
        formed; otherwise the prefix of what was formed."""
        kept = self._chern.get(name)
        if kept is None or (kept[0] is not None and (top is None or top > kept[0])):
            kept = top, chern_classes(standard(name), top)
            self._chern[name] = kept
        return kept[1][:None if top is None else top + 1]

    @functools.cached_property
    def sl3_chern(self) -> Mapping[str, Polynomial]:
        """c2, c6 of sl3 and c2, c3 of Sym3 E on the GL3 torus, the classes
        the two restriction tables read; no higher class is formed."""
        c_sl3 = self.chern("sl3", 6)
        c_sym3 = self.chern("Sym3E_PGL3", 3)
        return MappingProxyType({
            "c2_sl3": c_sl3[2],
            "c6_sl3": c_sl3[6],
            "c2_sym3": c_sym3[2],
            "c3_sym3": c_sym3[3],
        })

    @functools.cached_property
    def theta(self) -> Polynomial:
        return theta_torus()

    @functools.cached_property
    def w_chern(self) -> tuple[Polynomial, Polynomial]:
        return w_chern_torus()

    @functools.cached_property
    def chi(self) -> Polynomial:
        return chi_torus(self.theta, *self.w_chern)


def _compare(wit: Witnesses, label: str, name: str, computed: Polynomial,
             expected: Polynomial) -> bool:
    """Append ``label: computed`` and, when it is not ``expected``, the
    ``counterexample NAME: expected ...`` witness; true when they agree."""
    wit.append((label, computed.render()))
    if computed != expected:
        wit.append((f"counterexample {name}", f"expected {expected.render()}"))
    return computed == expected


def _express(wit: Witnesses, name: str, target: Polynomial,
             gens: Mapping[str, Polynomial]) -> Polynomial | None:
    """``express_in(target, gens)``'s integral expression, or None after the
    ``counterexample NAME: no integral expression; rational: ...`` witness."""
    result = express_in(target, gens)
    if not result.ok:
        wit.append((f"counterexample {name}", "no integral expression; "
                    f"rational: {result.rational_expression}"))
    return result.expression


# ---- individual checks ---------------------------------------------------------


def _invariance_counterexamples(name: str, g: Polynomial,
                                group: MatrixGroup) -> Witnesses:
    """Witnesses of every element of ``group`` that moves ``g`` and of a
    nonzero derivative of ``g`` along ``SHIFT_DIRECTION``; empty when ``g``
    is invariant under both."""
    wit: Witnesses = [(f"counterexample {name} under {label}", (moved - g).render())
                      for label, moved in group.movers(g).items()]
    derivative = g.directional_derivative(SHIFT_DIRECTION)
    if derivative:
        wit.append((f"counterexample shift derivative of {name}",
                    derivative.render()))
    return wit


def _check_gamma_invariance(run: _Run, max_degree: int | None
                            ) -> tuple[bool, Witnesses]:
    ok = True
    wit: Witnesses = []
    for name, g in run.gammas.items():
        counterexamples = run.invariance[name]
        if counterexamples:
            ok = False
            wit.extend(counterexamples)
        if not literally_shift_invariant(g, SHIFT_DIRECTION):
            ok = False
            wit.append((f"counterexample literal shift of {name}", "not invariant"))
        wit.append((name, g.render()))
    return ok, wit


def _molien_ranks(group: MatrixGroup, bound: int) -> list[int]:
    """``[t^d] (1/|G|) sum_g 1/det(I - t*g)`` for ``d = 0..bound``: the
    dimensions of the invariant forms of each degree (Molien's formula) for
    a finite group of 2x2 matrices.

    For a 2x2 matrix ``det(I - t*g) = 1 - tr(g)*t + det(g)*t^2``, so the
    coefficients of its inverse obey ``c_n = tr(g)*c_{n-1} - det(g)*c_{n-2}``
    from ``c_0 = 1``, ``c_{-1} = 0``, all in integers.  For a group every
    sum is divisible by the order; a sum that is not means the elements do
    not form a group, and raises ``ArithmeticError``.
    """
    totals = [0] * (bound + 1)
    for _, ((a, b), (c, d)) in group.elements:
        trace, det = a + d, a * d - b * c
        previous, current = 0, 1
        for n in range(bound + 1):
            totals[n] += current
            previous, current = current, trace * current - det * previous
    ranks = []
    for degree, total in enumerate(totals):
        rank, remainder = divmod(total, len(group))
        if remainder:
            raise ArithmeticError(
                f"Molien sum {total} in degree {degree} is not divisible by "
                f"the order {len(group)}: the elements do not form a group")
        ranks.append(rank)
    return ranks


def _check_gamma_generation(run: _Run, bound: int) -> tuple[bool, Witnesses]:
    """Certify, degree by degree up to ``bound``, that the monomials in the
    gammas span the whole lattice of shift-invariant S3-invariants.

    Let ``I_d`` be the lattice of integral forms of degree ``d`` in
    ``x1, x2, x3`` that are fixed by S3 and killed by the derivative along
    the shift ``(1, 1, 1)``, and ``L_d`` the span of the gamma monomials of
    degree ``d``, both in the coordinates ``Z^n`` of the degree-``d``
    monomials.

    * ``L_d ⊆ I_d``: each gamma is verified to be fixed by every element
      of ``s3_on_x()`` and to have zero shift derivative (the witnesses of
      ``run.invariance``, which ``gamma-invariance`` reads too and which are
      formed here when this check runs alone), and both properties pass to
      products (the action is a ring map; the derivative obeys the Leibniz
      rule).
    * ``rank I_d`` is the Molien coefficient of ``s3_on_xy()``.  Over Q a
      form is killed by the shift derivative exactly when it is a polynomial
      in ``x1 - x3`` and ``x2 - x3``, so the shift-invariant part of
      ``Q[x1, x2, x3]`` is ``Q[x, y]`` with ``x = x1 - x3``, ``y = x2 - x3``,
      on which S3 acts through the matrices of ``s3_on_xy()``.  The
      dimension of its invariants of degree ``d`` is
      ``[t^d] (1/6) sum_g 1/det(I - t*g)``, computed exactly in integers.
    * If every nonzero invariant factor of the span vectors is 1, then
      ``L_d`` is saturated: ``(L_d ⊗ Q) ∩ Z^n = L_d``.  If moreover their
      number, ``rank L_d``, equals the Molien rank, then ``L_d ⊗ Q`` is all
      of ``I_d ⊗ Q``, so ``I_d ⊆ (L_d ⊗ Q) ∩ Z^n = L_d`` and ``L_d = I_d``.
    * The span vectors are taken in ``Z[x, y]_d``, which has ``d + 1``
      monomials instead of ``(d + 1)(d + 2)/2``, through the restriction
      ``TO_XY`` (``x1 -> x``, ``x2 -> y``, ``x3 -> 0``).  Let ``S_d`` be the
      shift-invariant integral forms of degree ``d``.  ``S_d`` is a kernel,
      so it is saturated in ``Z^n`` and a direct summand of it, and the
      invariant factors of ``L_d ⊆ S_d`` are the same in ``S_d`` as in
      ``Z^n``.  The restriction maps ``S_d`` isomorphically onto
      ``Z[x, y]_d``: its inverse is ``g ↦ g(x1 - x3, x2 - x3)``, because
      over Q ``f(x + t(1, 1, 1)) = f(x)``; set ``t = -x3``.  It is a ring
      map, so it sends each gamma monomial to the same monomial in the
      restricted gammas, and the invariant factors of ``L_d`` are those of
      its image.  This needs the gammas in ``S_d``, which is why the
      invariance check comes before the span.

    * The table is built on the products with ``gamma3`` exponent ``b <= 1``
      when ``gamma3^2`` is an integral polynomial ``P(gamma2, gamma6)``, as
      :func:`repcalc.express_in` checks on the ``x, y`` images (for the real
      gammas ``P = 4*gamma2^3 - 27*gamma6``, the ``gamma-syzygy`` identity
      rearranged).  Those rows span ``L_d``, by induction on ``b``: for
      ``b >= 2``, ``gamma2^a gamma3^b gamma6^c = gamma2^a gamma3^(b-2)
      gamma6^c * P`` is an integral combination of products of degree ``d``
      with ``gamma3`` exponent ``b - 2``.  The row lattice is the same, so
      its invariant factors, and the verdict and witnesses, are those of the
      full product span, with ``f_d`` rows instead of all of them.  When
      ``gamma3^2`` is not integral in ``gamma2, gamma6`` (or one of them is
      zero, which ``express_in`` does not take), the full span is formed, so
      the witnesses are the same either way.

    A degree where either condition fails is reported with its Molien rank,
    the span rank and the non-unit invariant factors.  Saturation is needed
    beyond the rank count: a span of full rank may still have index > 1.
    """
    wit: Witnesses = [w for found in run.invariance.values() for w in found]
    if wit:
        return False, wit
    ranks = _molien_ranks(s3_on_xy(), bound)
    # gamma2^a * gamma3^b * gamma6^c of each degree as sparse rows over
    # Z[x, y]_d, those with b <= 1 first; a gamma not homogeneous of its
    # degree is rejected there, before express_in reads them.
    gen_ctx = context(("gamma2", "gamma3", "gamma6"), (2, 3, 6))
    g2, g3, g6 = in_xy = [run.gammas_xy[n] for n in gen_ctx.names]
    every = {d: gen_ctx.monomials_of_degree(d) for d in range(bound + 1)}
    spans = power_product_rows(in_xy, gen_ctx.weights, {
        d: [e for e in exps if e[1] <= 1] for d, exps in every.items()})
    if not (g2 and g6 and express_in(g3 ** 2, {"gamma2": g2, "gamma6": g6}).ok):
        spans = power_product_rows(in_xy, gen_ctx.weights, every)
    summary = []
    for d, (rank, (width, span)) in enumerate(zip(ranks, spans.values())):
        factors = [f for f in intlinalg.invariant_factors(span, width) if f]
        non_units = [f for f in factors if f != 1]
        if non_units or len(factors) != rank:
            wit.append((f"counterexample at degree {d}",
                        "the gamma span is not the invariant lattice"))
            wit.append((f"Molien rank at degree {d}", str(rank)))
            wit.append((f"span rank at degree {d}", str(len(factors))))
            wit.append((f"non-unit factors at degree {d}",
                        " ".join(map(str, non_units)) or "none"))
            return False, wit
        summary.append(f"{d}:{rank}")
    wit.append(("lattice ranks by degree", " ".join(summary)))
    wit.append(("checked degrees", f"0..{bound}"))
    return True, wit


def _check_gamma_syzygy(run: _Run, max_degree: int | None) -> tuple[bool, Witnesses]:
    g = run.gammas
    gamma2_cubed = g["gamma2"] ** 3
    lhs = gamma2_cubed - g["gamma3"] ** 2
    rhs = -3 * (gamma2_cubed - 9 * g["gamma6"])
    difference = lhs - rhs
    wit: Witnesses = [("gamma2^3 - gamma3^2 + 3*(gamma2^3 - 9*gamma6)",
                       difference.render())]
    return not difference, wit


_TWO_VARIABLE_EXPECTED = {
    "gamma2": "x^2 - x*y + y^2",
    "gamma3": "2*x^3 - 3*x^2*y - 3*x*y^2 + 2*y^3",
    "gamma6": "x^4*y^2 - 2*x^3*y^3 + x^2*y^4",
}


def _check_two_variable_gammas(run: _Run, max_degree: int | None
                               ) -> tuple[bool, Witnesses]:
    ok = True
    wit: Witnesses = []
    for name, image in run.gammas_xy.items():
        expected = parse(_TWO_VARIABLE_EXPECTED[name], T_PGL3_XY.ctx, INTEGERS)
        ok = _compare(wit, f"{name} in x,y", name, image, expected) and ok
    return ok, wit


_TWISTACTION_XY = {
    "(12)": ((0, 1), (1, 0)),
    "(123)": ((0, 1), (-1, -1)),
}


def _check_twistaction_group(run: _Run, max_degree: int | None
                             ) -> tuple[bool, Witnesses]:
    group = s3_on_xy()
    ok = True
    wit: Witnesses = []
    violations = group.closure_check()
    wit.append(("closure", f"ok={not violations} order={len(group)}"))
    if violations or len(group) != 6:
        ok = False
        wit.append(("counterexample closure",
                    "; ".join(violations) or f"order {len(group)} != 6"))
    for label, expected in _TWISTACTION_XY.items():
        derived = group.matrix(label) == expected
        ok = ok and derived
        wit.append((f"derived {label}" if derived else
                    f"counterexample derived action {label}",
                    describe_substitution(group, label)))
    for name, text in _TWO_VARIABLE_EXPECTED.items():
        for label, moved in group.movers(parse(text, T_PGL3_XY.ctx, INTEGERS)).items():
            ok = False
            wit.append((f"counterexample {name} moved by {label}", moved.render()))
    return ok, wit


_HSURJ_PUBLISHED = {
    "c2_sl3": "-2*gamma2",
    "c2_sym3": "-5*gamma2",
    "c3_sym3": "gamma3",
    "c6_sl3": "gamma6",
}


def _check_hsurj_restrictions(run: _Run, max_degree: int | None
                              ) -> tuple[bool, Witnesses]:
    gammas = run.gammas
    data = run.sl3_chern
    gen_ctx = context(tuple(gammas), (2, 3, 6))
    ok = True
    wit: Witnesses = []
    for key in ("c2_sl3", "c2_sym3", "c3_sym3", "c6_sl3"):
        expression = _express(wit, key, data[key], gammas)
        if expression is None:
            ok = False
            continue
        computed = expression.render()
        wit.append((f"{key} in gammas", computed))
        expected = parse(_HSURJ_PUBLISHED[key], gen_ctx, INTEGERS)
        if expression != expected:
            ok = False
            wit.append((f"counterexample {key}",
                        f"computed {computed}, published {expected.render()}"))
    if not ok:
        wit.append(("note",
                    "c6(sl3) is the product of the six roots x_i - x_j (i != j), "
                    "which is minus the discriminant: the published sign is "
                    "inconsistent with its own SL3 restriction 4*a2^3 + 27*a3^2"))
    return ok, wit


def _check_transfer_laws(run: _Run, max_degree: int | None) -> tuple[bool, Witnesses]:
    ok = True
    wit: Witnesses = []
    group = a3_on_u()
    u1, u2, u3 = u_variables()
    sample = u1 ** 2 * u2
    summed = group.orbit_sum(sample)
    for label, moved in group.movers(summed).items():
        ok = False
        wit.append((f"counterexample invariance under {label}",
                    (moved - summed).render()))
    wit.append(("orbit sum of u1^2*u2", summed.render()))

    gammas = run.gammas
    sym_group = s3_on_x()
    scaled = sym_group.orbit_sum(gammas["gamma2"])
    if scaled != 6 * gammas["gamma2"]:
        ok = False
        wit.append(("counterexample invariant scaling",
                    (scaled - 6 * gammas["gamma2"]).render()))
    else:
        wit.append(("orbit sum of invariant gamma2", "6*gamma2"))

    for name, u in (("u1", u1), ("u2", u2), ("u3", u3)):
        s = group.orbit_sum(u)
        wit.append((f"orbit sum of {name}", s.render()))
        if s:
            ok = False
            wit.append((f"counterexample orbit sum {name}", s.render()))
    return ok, wit


def _check_chi_underline_vanishes(run: _Run, max_degree: int | None
                                  ) -> tuple[bool, Witnesses]:
    theta = run.theta
    chi = run.chi
    wit: Witnesses = [
        ("theta on the torus", theta.render()),
        ("chi on the torus", chi.render()),
    ]
    return not chi, wit


def _check_theta_epsilon(run: _Run, max_degree: int | None) -> tuple[bool, Witnesses]:
    group = s3_on_u()
    theta = run.theta
    _, c3w = run.w_chern
    theta_eps = group.act("(12)", theta)
    difference = theta_eps - theta - 3 * c3w
    wit: Witnesses = [
        ("derived (12) on u", describe_substitution(group, "(12)")),
        ("derived (123) on u", describe_substitution(group, "(123)")),
        ("theta^eps", theta_eps.render()),
        ("theta^eps - theta - 3*c3(W)", difference.render()),
    ]
    return not difference, wit


def _check_delta_discriminant(run: _Run, max_degree: int | None
                              ) -> tuple[bool, Witnesses]:
    delta = delta_torus()
    c2w, c3w = run.w_chern
    identity = delta ** 2 + 4 * c2w ** 3 + 27 * c3w ** 2
    combination = 2 * run.theta + 3 * c3w
    if combination == delta:
        sign = "+1"
    elif combination == -delta:
        sign = "-1"
    else:
        sign = None
    wit: Witnesses = [
        ("delta", delta.render()),
        ("delta^2 + 4*c2(W)^3 + 27*c3(W)^2", identity.render()),
        ("sign of (2*theta + 3*c3(W)) / delta", sign or "not proportional"),
    ]
    ok = (not identity) and sign is not None
    if sign is None:
        wit.append(("counterexample 2*theta + 3*c3(W)", combination.render()))
    return ok, wit


def _check_point_class(run: _Run, max_degree: int | None) -> tuple[bool, Witnesses]:
    ctx = context(("l", "u1", "u2"))
    l, u1, u2 = (Polynomial.variable(ctx, n) for n in ctx.names)
    u3 = -u1 - u2
    product = (l - u2) * (l - u3)
    expected = l ** 2 + l * u1 + u2 * u3
    difference = product - expected
    wit: Witnesses = [
        ("(l - u2)*(l - u3)", product.render()),
        ("l^2 + l*u1 + u2*u3", expected.render()),
    ]
    if difference:
        wit.append(("counterexample difference", difference.render()))
    return not difference, wit


def _a3mu3_variables() -> tuple[Polynomial, Polynomial]:
    ctx = A3MU3_AB.ctx
    ring = A3MU3_AB.ring
    return (Polynomial.variable(ctx, "a", ring),
            Polynomial.variable(ctx, "b", ring))


def _check_a3mu3_chern(run: _Run, max_degree: int | None) -> tuple[bool, Witnesses]:
    a, b = _a3mu3_variables()
    c_w = run.chern("W_A3mu3")
    c_sl3 = run.chern("sl3_A3mu3")
    cases = [
        ("c2(W)", c_w[2], -(a ** 2)),
        ("c3(W)", c_w[3], b * (b ** 2 - a ** 2)),
        ("c8(sl3)", c_sl3[8], (a * b) ** 2 * (b ** 2 - a ** 2) ** 2),
    ]
    ok = True
    wit: Witnesses = []
    for name, computed, expected in cases:
        ok = _compare(wit, name, name, computed, expected) and ok
    return ok, wit


def _check_rho_squared(run: _Run, max_degree: int | None) -> tuple[bool, Witnesses]:
    a, _ = _a3mu3_variables()
    rho_restricted = a * run.chern("W_A3mu3")[3]
    rho_squared = rho_restricted ** 2
    c8 = run.chern("sl3_A3mu3")[8]
    difference = rho_squared - c8
    wit: Witnesses = [
        ("rho restricted: a*c3(W)", rho_restricted.render()),
        ("(a*c3(W))^2", rho_squared.render()),
        ("c8(sl3)", c8.render()),
        ("difference", difference.render()),
    ]
    return not difference, wit


def _check_alphabeta_nonmembership(run: _Run, max_degree: int | None
                                   ) -> tuple[bool, Witnesses]:
    ctx = A3MU3_AB.ctx
    a, b = _a3mu3_variables()
    multiplier = -(a ** 2)
    images = [Polynomial(ctx, A3MU3_AB.ring, {exp: 1}) * multiplier
              for exp in ctx.monomials_of_degree(2)]
    basis, target = (a * b ** 3).coefficient_vector(4)
    result = intlinalg.membership(
        target, [image.coefficient_vector(4)[1] for image in images], modulus=3)
    wit: Witnesses = [
        ("degree-4 basis", ", ".join(ctx.render_monomial(e) for e in basis)),
        ("image generators", "; ".join(image.render() for image in images)),
        ("a*b^3 in image", str(result.member)),
    ]
    if result.member:
        wit.append(("counterexample certificate", str(result.certificate)))
    return not result.member, wit


_SL3_EXPECTED = {
    "c2_sl3": "6*a2",
    "c2_sym3": "15*a2",
    "c3_sym3": "27*a3",
    "c6_sl3": "4*a2^3 + 27*a3^2",
}


def _check_sl3_restriction(run: _Run, max_degree: int | None
                           ) -> tuple[bool, Witnesses]:
    data = run.sl3_chern
    c_e = chern_classes(restrict_rep(standard("E"), TO_SL3))
    gens = {"a2": c_e[2], "a3": c_e[3]}
    gen_ctx = context(("a2", "a3"), (2, 3))
    ok = True
    wit: Witnesses = []
    for key, expected_text in _SL3_EXPECTED.items():
        expression = _express(wit, key, restrict_poly(data[key], TO_SL3), gens)
        if expression is None or not _compare(
                wit, f"{key} restricted", key, expression,
                parse(expected_text, gen_ctx, INTEGERS)):
            ok = False

    lam_printed = 2 * data["c2_sl3"] - data["c2_sym3"]
    lam_image = express_in(restrict_poly(lam_printed, TO_SL3), gens)
    if lam_image.ok:
        wit.append(("image of 2*c2(sl3) - c2(Sym3E)", lam_image.expression.render()))
        if lam_image.expression != parse("-3*a2", gen_ctx, INTEGERS):
            ok = False
            wit.append(("counterexample lambda image",
                        f"computed {lam_image.expression.render()}, expected -3*a2"))
    else:
        ok = False
        wit.append(("counterexample lambda image", "no integral expression"))
    wit.append(("informational sign discrepancy",
                "the published remark prints lambda -> 3*a2 while the printed "
                "combination 2*c2(sl3) - c2(Sym3E) restricts to -3*a2; the "
                "torsion relation below is therefore evaluated with lambda = "
                "c2(Sym3E) - 2*c2(sl3), whose image is 3*a2"))

    lam_used = -lam_printed
    relation = (27 * data["c6_sl3"] - data["c3_sym3"] ** 2 - 4 * lam_used ** 3)
    relation_restricted = restrict_poly(relation, TO_SL3)
    wit.append(("27*c6(sl3) - c3(Sym3E)^2 - 4*lam^3 restricted",
                relation_restricted.render()))
    if relation_restricted:
        ok = False
        wit.append(("counterexample torsion relation",
                    relation_restricted.render()))
    return ok, wit


def _laurent_reduce(p: Polynomial) -> Polynomial:
    """Canonical form in Z[x1,x2,x3]/(x1*x2*x3 - 1): shift every exponent
    vector by multiples of (1,1,1) until its minimum entry is zero."""
    terms: dict = {}
    for e, c in p.terms.items():
        m = min(e)
        key = tuple(x - m for x in e)
        terms[key] = terms.get(key, 0) + c
    return Polynomial(p.context, p.ring, terms)


def _check_repring_generators(run: _Run, bound: int) -> tuple[bool, Witnesses]:
    ctx = T_GL3.ctx
    x = [Polynomial.variable(ctx, n) for n in ctx.names]
    one = Polynomial.constant(ctx, 1)
    s1 = x[0] + x[1] + x[2]
    s2 = x[0] * x[1] + x[0] * x[2] + x[1] * x[2]
    duals = [x[1] * x[2], x[0] * x[2], x[0] * x[1]]

    def h3(vals: Sequence[Polynomial]) -> Polynomial:
        return sum((u * v * w for u, v, w in
                    itertools.combinations_with_replacement(vals, 3)),
                   Polynomial.zero(ctx))

    cases = [
        ("sl3 character", s1 * (duals[0] + duals[1] + duals[2]) - one,
         s1 * s2 - one),
        ("Sym3E character", h3(x), s1 ** 3 - 2 * s1 * s2 + one),
        ("Sym3E-dual character", h3(duals), s2 ** 3 - 2 * s1 * s2 + one),
    ]
    ok = True
    wit: Witnesses = []
    for name, computed, expected in cases:
        delta = _laurent_reduce(computed - expected)
        wit.append((name, _laurent_reduce(computed).render()))
        if delta:
            ok = False
            wit.append((f"counterexample {name}", delta.render()))

    # s1^a*s2^b is admissible when a + 2b = a - b = 0 (mod 3).  Each such
    # (a, b) is i*(3,0) + j*(1,1) + k*(0,3) with j = a mod 3, i = (a - j)/3
    # and k = (b - j)/3: b = j (mod 3) rules out 0 <= b < j <= 2, so k >= 0.
    # Every admissible pair decomposes, and the count is all there is to check.
    decomposed = sum((a - b) % 3 == 0
                     for a in range(bound + 1) for b in range(bound + 1 - a))
    wit.append(("admissible monomials decomposed",
                f"{decomposed} up to total degree {bound}"))
    return ok, wit


def _check_regular_rep_vanishing(run: _Run, max_degree: int | None
                                 ) -> tuple[bool, Witnesses]:
    ok = True
    wit: Witnesses = []
    for name, key in (("sl3 = reg - 1", "sl3_A3mu3"), ("Sym3E = reg + 1", "Sym3E_A3mu3")):
        for i, value in enumerate(run.chern(key, 4)[1:], 1):
            wit.append((f"c{i} of {name}", value.render()))
            if value:
                ok = False
                wit.append((f"counterexample c{i} of {name}", value.render()))
    return ok, wit


# Generator degrees of the closed-form tables of rstar-structure: the free
# ranks of R* and the dimensions of R*/3R*.
_RSTAR_FREE_DEGREES = (2, 3)
_RSTAR_MOD3_DEGREES = (2, 3, 4, 6, 6)


def _check_rstar_structure(run: _Run, bound: int) -> tuple[bool, Witnesses]:
    """Certify the graded components of ``R*``: in every degree by
    :func:`presented.free_summand_certificate`, and degree by degree up to
    ``bound`` against the closed-form table, free rank and whole torsion.

    * ``R* ⊗ Q = Q[lam, c3]``, so the free rank of ``R*_d`` is
      ``f_d = [t^d] 1/((1-t^2)(1-t^3))``.
    * Mod 3 the relations ``3*rho``, ``3*chi``, ``3*c8`` and
      ``81*c6 - 3*c3^2 - 12*lam^3`` vanish, and ``rho^2 - c8`` eliminates
      ``c8``, so ``R*/3R* = F3[lam, c3, rho, chi, c6]`` and
      ``dim_F3 R*_d/3 = m_d = [t^d] 1/((1-t^2)(1-t^3)(1-t^4)(1-t^6)^2)``.
    * ``R*_d/3`` has one ``F3`` per free summand and per cyclic summand of
      order divisible by 3.  So ``R*_d`` has ``m_d - f_d`` such summands,
      and when every invariant factor is 3 its torsion is exactly
      ``(Z/3)^(m_d - f_d)``.

    :func:`presented.eliminate_unit_generators` uses up ``rho^2 - c8`` and
    drops the implied ``3*rho^2``, leaving 3 times ``rho``, ``chi`` and
    ``q = 27*c6 - c3^2 - 4*lam^3``.  Then the certificate gives ``R*_d =
    Z^(s_d) ⊕ (Z/c)^(n_d - s_d)`` in every degree, which with ``c = 3`` is
    the table when ``s_d = f_d`` and ``n_d = m_d``.  These are identities
    of quotients of products of ``(1 - t^k)``, which are equal only when
    their multisets of ``k`` are (once common factors cancel, the largest
    ``k`` left brings a cyclotomic factor that the other side lacks), so
    the degrees are compared as multisets.  A failed hypothesis adds one
    counterexample witness after those of the degree loop, and a degree off
    the table adds one; a pass adds neither.
    """
    pres = eliminate_unit_generators(rstar_presentation())
    free_ranks = partition_series(_RSTAR_FREE_DEGREES, bound)
    mod3_dims = partition_series(_RSTAR_MOD3_DEGREES, bound)
    ok = True
    wit: Witnesses = []
    lines = []
    # Cross-check: the Smith table below and the certificate after it share
    # no algorithm.
    for d, comp in enumerate(graded_components(pres, bound)):
        expected = free_ranks[d]
        lines.append(f"{d}: {comp.render()}")
        if comp.free_rank != expected:
            ok = False
            wit.append((f"counterexample free rank at degree {d}",
                        f"free rank {comp.free_rank}, expected {expected}"))
        threes = mod3_dims[d] - expected
        if comp.torsion != (3,) * threes:
            ok = False
            wit.append((f"counterexample torsion at degree {d}",
                        f"invariant factors {comp.torsion}, expected {threes} "
                        f"factors equal to 3"))
        if d == 4 and comp.torsion != (3,):
            ok = False
            wit.append(("counterexample degree-4 torsion",
                        f"invariant factors {comp.torsion}, expected (3,) to "
                        f"match H^8 = Z + Z/3"))
    cert = free_summand_certificate(pres)
    if isinstance(cert, str):
        failure = cert
    elif cert[0] != 3:
        failure = "the content is 3"
    elif not (sorted(cert[1] + _RSTAR_FREE_DEGREES) == sorted(
            pres.context.weights) == sorted(_RSTAR_MOD3_DEGREES)):
        failure = ("the leading degrees plus 2, 3 and the generator degrees "
                   "are both 2, 3, 4, 6, 6")
    else:
        failure = None
    if failure is not None:
        ok = False
        wit.append(("counterexample every-degree proof",
                    f"hypothesis fails: {failure}"))
    wit.append(("graded components", "; ".join(lines)))
    return ok, wit


# ---- registry ------------------------------------------------------------------


@dataclass(frozen=True)
class _Entry:
    spec: CheckSpec
    run: Callable[[_Run, int | None], tuple[bool, Witnesses]]


_REGISTRY: tuple[_Entry, ...] = (
    _Entry(CheckSpec(
        "gamma-invariance",
        "gamma2, gamma3, gamma6 are S3-invariant and shift-invariant",
        "Weyl invariants: 'gamma2, gamma3 and gamma6 are indeed in the "
        "invariant subring'"),
        _check_gamma_invariance),
    _Entry(CheckSpec(
        "gamma-generation",
        "monomials in gamma2, gamma3, gamma6 span the full lattice of "
        "shift-invariant S3-invariants in every degree",
        "Weyl-invariant subring of the PGL3 torus 'is generated by' gamma2, "
        "gamma3, gamma6", 12),
        _check_gamma_generation),
    _Entry(CheckSpec(
        "gamma-syzygy",
        "gamma2^3 - gamma3^2 equals -3*(gamma2^3 - 9*gamma6)",
        "'(gamma2^3 - gamma3^2) = -3(gamma2^3 - 9 gamma6)'"),
        _check_gamma_syzygy),
    _Entry(CheckSpec(
        "two-variable-gammas",
        "images of the gammas under x1->x, x2->y, x3->0 match the "
        "two-variable presentation",
        "'gamma2 = (x+y)^2 - 3xy', 'gamma3 = -9(x+y)xy + 2(x+y)^3', "
        "'gamma6 = (x+y)^2 x^2 y^2 - 4 x^3 y^3'"),
        _check_two_variable_gammas),
    _Entry(CheckSpec(
        "twistaction-group",
        "the two-variable Weyl action closes to a group of order 6 fixing "
        "the gamma images",
        "'(12)x = y, (12)y = x', '(123)x = -y, (123)y = x - y'"),
        _check_twistaction_group),
    _Entry(CheckSpec(
        "hsurj-restrictions",
        "restriction values of c2(sl3), c2(Sym3E), c3(Sym3E), c6(sl3) "
        "against the gamma generators",
        "'c2(sl3) = -2 gamma2', 'c2(Sym3E) = -5 gamma2', 'c3(Sym3E) = "
        "gamma3', 'c6(sl3) = gamma6' (published table)"),
        _check_hsurj_restrictions),
    _Entry(CheckSpec(
        "transfer-laws",
        "orbit sums are invariant, scale invariants by the group order, and "
        "kill the torus characters u_i",
        "'res tsf(xi) = sum over f of f_* xi' and '(#F) . ' on invariants"),
        _check_transfer_laws),
    _Entry(CheckSpec(
        "chi-underline-vanishes",
        "chi = (2*theta + 3*c3(W))^2 + 4*c2(W)^3 + 27*c3(W)^2 restricts to "
        "zero on the SL3 torus",
        "'chi restricted to the torus is 0'"),
        _check_chi_underline_vanishes),
    _Entry(CheckSpec(
        "theta-epsilon",
        "the transposition twist sends theta to theta + 3*c3(W) at the "
        "torus level",
        "'theta^eps = theta + 3 c3(W)'"),
        _check_theta_epsilon),
    _Entry(CheckSpec(
        "delta-discriminant",
        "delta^2 + 4*c2(W)^3 + 27*c3(W)^2 = 0 with 2*theta + 3*c3(W) "
        "proportional to delta",
        "'delta = (u1-u2)(u2-u3)(u1-u3)'"),
        _check_delta_discriminant),
    _Entry(CheckSpec(
        "point-class",
        "the class of the chosen fixed point on P(W) is l^2 + l*u1 + u2*u3",
        "'(l - u2)(l - u3) = l^2 + l u1 + u2 u3'"),
        _check_point_class),
    _Entry(CheckSpec(
        "a3mu3-chern",
        "over Z/3 the Chern roots b+a, b-a, b give c2(W) = -a^2, c3(W) = "
        "b(b^2 - a^2), c8(sl3) = a^2 b^2 (b^2 - a^2)^2",
        "'c2(W) = -a^2' and 'c8(sl3) = a^2 b^2 (b^2 - a^2)^2'"),
        _check_a3mu3_chern),
    _Entry(CheckSpec(
        "rho-squared",
        "(a*c3(W))^2 equals c8(sl3) over A3 x mu3, certifying rho^2 = "
        "c8(sl3) with unit coefficient",
        "'rho restricted = a c3(W)'; 'prove that B = 1'"),
        _check_rho_squared),
    _Entry(CheckSpec(
        "alphabeta-nonmembership",
        "a*b^3 is outside the image of multiplication by -a^2 in degree 4 "
        "of Z/3[a,b]",
        "'a b^3 not in the image of multiplication by -a^2'"),
        _check_alphabeta_nonmembership),
    _Entry(CheckSpec(
        "sl3-restriction",
        "SL3-restriction values 6*a2, 15*a2, 27*a3 and the vanishing of the "
        "restricted torsion relation",
        "'c2(sl3) -> 6 a2', 'c2(Sym3E) -> 15 a2', 'c3(Sym3E) -> 27 a3'; "
        "c6(sl3) 'restricts to minus the discriminant, 4 a2^3 + 27 a3^2'"),
        _check_sl3_restriction),
    _Entry(CheckSpec(
        "repring-generators",
        "representation-ring identities for sl3, Sym3E, Sym3E-dual and the "
        "monoid decomposition of admissible monomials",
        "'sl3 = s1 s2 - 1', 'Sym3E = s1^3 - 2 s1 s2 + 1', 'Sym3E-dual = "
        "s2^3 - 2 s1 s2 + 1'", 9),
        _check_repring_generators),
    _Entry(CheckSpec(
        "regular-rep-vanishing",
        "c1..c4 of the 8- and 10-weight regular-representation multisets "
        "vanish over Z/3",
        "'c_i(sl3) = c_j(Sym3E) = 0 over A3 x mu3 for i, j = 1..4'"),
        _check_regular_rep_vanishing),
    _Entry(CheckSpec(
        "rstar-structure",
        "degree-wise structure of the candidate presented ring matches "
        "Q[lam, c3] rationally with Z/3 torsion in degree 4",
        "candidate ring 'Z[lam, c3(Sym3E), rho, chi, c6(sl3), c8(sl3)] "
        "modulo the torsion relations'; 'R* tensor Q = Q[lam, c3(Sym3E)]'",
        16),
        _check_rstar_structure),
)

_BY_NAME = {entry.spec.name: entry for entry in _REGISTRY}


def list_checks() -> list[CheckSpec]:
    return [entry.spec for entry in _REGISTRY]


def run_check(name: str, max_degree: int | None = None, *,
              run: _Run | None = None) -> CheckResult:
    """Run one check to ``max_degree`` (its default bound when None).  The
    check reads shared inputs and derivations from ``run``: ``run_all``
    passes the one it shares among its checks, and without it the check
    builds its own."""
    try:
        entry = _BY_NAME[name]
    except KeyError:
        raise UnknownCheckError(name) from None
    if max_degree is not None:
        check_degree_bound(max_degree, "max degree")
    start = time.perf_counter()
    try:
        bound = max_degree if max_degree is not None else entry.spec.default_max_degree
        ok, witnesses = entry.run(run if run is not None else _Run(), bound)
        verdict = "pass" if ok else "fail"
    except Exception as exc:  # pragma: no cover - defensive
        witnesses = [("error", f"{type(exc).__name__}: {exc}")]
        verdict = "error"
    elapsed = time.perf_counter() - start
    return CheckResult(name, verdict, tuple(witnesses), elapsed)


def validate_overrides(max_degree_overrides: Mapping[str, int]) -> None:
    """Reject degree-bound overrides that name no registered check."""
    for key in max_degree_overrides:
        if key not in _BY_NAME:
            raise UnknownCheckError(key)


def run_all(max_degree_overrides: Mapping[str, int] | None = None,
            global_max_degree: int | None = None) -> Report:
    overrides = dict(max_degree_overrides or {})
    validate_overrides(overrides)
    run = _Run()
    results = []
    for entry in _REGISTRY:
        bound = overrides.get(entry.spec.name, global_max_degree)
        results.append(run_check(entry.spec.name, bound, run=run))
    return Report(tuple(results))
