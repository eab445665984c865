"""Virtual representations as signed weight multisets, Chern classes,
restriction along character-lattice maps, and the built-in catalog of tori,
finite-subgroup lattices, representations and maps used by the checks.

A weight is an integer coordinate vector in a named lattice; a virtual
representation is a finite multiset of weights with (possibly negative)
multiplicities.  Chern classes of genuine representations are elementary
symmetric polynomials in the weights' first Chern classes, computed in the
lattice's polynomial context.  Mod-3 lattices keep weight coordinates in
{-1, 0, 1} so negation-symmetric multisets stay visibly symmetric.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import intlinalg
from .poly import (
    INTEGERS,
    CoefficientRing,
    NotHomogeneousError,
    Polynomial,
    RingMap,
    VariableContext,
    context,
    elementary_symmetric,
    integers_mod,
    power_product_rows,
)

Weight = tuple[int, ...]


@dataclass(frozen=True)
class Lattice:
    """A character lattice with a polynomial context and coefficient ring."""

    name: str
    ctx: VariableContext
    ring: CoefficientRing

    @property
    def rank(self) -> int:
        return self.ctx.arity

    def normalize_weight(self, coords: Sequence[int]) -> Weight:
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.rank:
            raise ValueError(f"weight {coords} has wrong rank for {self.name}")
        if self.ring.kind == "Zmod":
            m = self.ring.modulus
            half = m // 2
            coords = tuple(((c + half) % m) - half for c in coords)
        return coords


class RepresentationError(ValueError):
    pass


@dataclass(frozen=True)
class VirtualRep:
    """Finite weight multiset with nonzero integer multiplicities."""

    lattice: Lattice
    weights: tuple[tuple[Weight, int], ...]

    @staticmethod
    def from_weights(lattice: Lattice,
                     weights: Iterable[Sequence[int] | tuple[Sequence[int], int]]
                     ) -> "VirtualRep":
        acc: dict[Weight, int] = {}
        for item in weights:
            if (isinstance(item, tuple) and len(item) == 2
                    and isinstance(item[1], int) and not isinstance(item[0], int)):
                coords, mult = item
            else:
                coords, mult = item, 1
            w = lattice.normalize_weight(coords)
            acc[w] = acc.get(w, 0) + mult
        return VirtualRep(lattice, tuple(sorted(
            (w, m) for w, m in acc.items() if m != 0)))

    def genuine_weights(self) -> tuple[tuple[Weight, int], ...]:
        """The (weight, multiplicity) pairs; only for genuine representations."""
        if any(m < 0 for _, m in self.weights):
            raise RepresentationError("virtual representation has negative multiplicities")
        return self.weights


# ---- constructors ----------------------------------------------------------


def trivial(lattice: Lattice) -> VirtualRep:
    return VirtualRep.from_weights(lattice, [((0,) * lattice.rank, 1)])


def dual(r: VirtualRep) -> VirtualRep:
    return VirtualRep.from_weights(
        r.lattice, [(tuple(-c for c in w), m) for w, m in r.weights])


def direct_sum(r: VirtualRep, s: VirtualRep) -> VirtualRep:
    if r.lattice != s.lattice:
        raise RepresentationError("direct sum across different lattices")
    return VirtualRep.from_weights(r.lattice, list(r.weights) + list(s.weights))


def subtract(r: VirtualRep, s: VirtualRep) -> VirtualRep:
    """Remove s's weights from r; s must be a sub-multiset of r."""
    if r.lattice != s.lattice:
        raise RepresentationError("subtraction across different lattices")
    acc = dict(r.weights)
    for w, m in s.weights:
        if acc.get(w, 0) < m:
            raise RepresentationError(
                f"subtrahend weight {w} (x{m}) not contained in the minuend")
        acc[w] -= m
    return VirtualRep.from_weights(r.lattice, [(w, m) for w, m in acc.items()])


def tensor(r: VirtualRep, s: VirtualRep) -> VirtualRep:
    if r.lattice != s.lattice:
        raise RepresentationError("tensor across different lattices")
    items = []
    for w1, m1 in r.weights:
        for w2, m2 in s.weights:
            items.append((tuple(a + b for a, b in zip(w1, w2)), m1 * m2))
    return VirtualRep.from_weights(r.lattice, items)


def sym_power(r: VirtualRep, k: int) -> VirtualRep:
    ws = [w for w, m in r.genuine_weights() for _ in range(m)]
    items = []
    for combo in itertools.combinations_with_replacement(ws, k):
        items.append(tuple(sum(cs) for cs in zip(*combo)) if combo else (0,) * r.lattice.rank)
    return VirtualRep.from_weights(r.lattice, items)


def twist(r: VirtualRep, w: Sequence[int]) -> VirtualRep:
    shift = r.lattice.normalize_weight(w)
    return VirtualRep.from_weights(
        r.lattice, [(tuple(a + b for a, b in zip(weight, shift)), m)
                    for weight, m in r.weights])


# ---- Chern classes ----------------------------------------------------------


def chern_classes(r: VirtualRep, top: int | None = None) -> tuple[Polynomial, ...]:
    """Total Chern class ``(c_0, ..., c_n)`` of a genuine representation of
    dimension ``n``: the elementary symmetric polynomials of its weights'
    linear forms, each weight taken with its multiplicity.  Given ``top``,
    only ``(c_0, ..., c_top)`` (all of them when ``top >= n``) are formed,
    which equals the same prefix of the total class."""
    return elementary_symmetric(r.lattice.ctx, r.lattice.ring, r.genuine_weights(),
                                top)


# ---- lattice maps -----------------------------------------------------------


@dataclass(frozen=True)
class LatticeMap:
    """Linear map of character lattices, optionally reducing coefficients."""

    source: Lattice
    target: Lattice
    matrix: tuple[tuple[int, ...], ...]  # target.rank rows x source.rank columns

    def __post_init__(self) -> None:
        if len(self.matrix) != self.target.rank or any(
                len(row) != self.source.rank for row in self.matrix):
            raise ValueError("lattice map matrix has wrong shape")

    def map_weight(self, w: Sequence[int]) -> Weight:
        w = self.source.normalize_weight(w)
        image = [sum(self.matrix[i][j] * w[j] for j in range(self.source.rank))
                 for i in range(self.target.rank)]
        return self.target.normalize_weight(image)

    @functools.cached_property
    def ring_map(self) -> RingMap:
        """The substitution on Chern classes, built on first use and kept
        with the map."""
        return RingMap.from_matrix(self.source.ctx, self.target.ctx, self.matrix,
                                   self.target.ring)


def restrict_rep(r: VirtualRep, m: LatticeMap) -> VirtualRep:
    if r.lattice != m.source:
        raise RepresentationError(
            f"representation over {r.lattice.name}, map from {m.source.name}")
    return VirtualRep.from_weights(
        m.target, [(m.map_weight(w), mult) for w, mult in r.weights])


def restrict_poly(p: Polynomial, m: LatticeMap) -> Polynomial:
    return m.ring_map.apply(p)


# ---- expressing classes in named generators ----------------------------------


@dataclass(frozen=True)
class ExpressResult:
    expression: Polynomial | None
    rational_expression: str | None

    @property
    def ok(self) -> bool:
        return self.expression is not None


class ExpressError(ValueError):
    pass


def express_in(target: Polynomial, gens: Mapping[str, Polynomial]) -> ExpressResult:
    """Write a homogeneous polynomial as an integer polynomial in generators.

    Solves degree-wise over Z.  The rows are the generator monomials of the
    target's degree from :func:`poly.power_product_rows`, which forms that
    degree alone and makes the one test of the generators' homogeneity, and
    the target's coordinates are read off the same degree's monomial basis.
    There must be at least one generator, and every generator must be a
    nonzero homogeneous polynomial over the target's context and ring.  One
    call to :func:`intlinalg.solve_left_rational` gives the canonical
    coordinate vector: when several expressions exist, its entries at the
    pivots of the syzygy lattice's Hermite form, in graded-lex coordinate
    order, are reduced, so the result is deterministic.
    When only a rational combination exists it is reported in
    ``rational_expression``, each coefficient a reduced fraction (``1/3``,
    ``-1/2``), and ``ok`` is False.
    """
    if not gens:
        raise ExpressError("no generators to express in")
    names = list(gens)
    polys = [gens[n] for n in names]
    for name, g in zip(names, polys):
        if not g:
            raise ExpressError(f"generator {name} is not homogeneous and nonzero")
        target._check_compatible(g)
    # A generator's degree is read off one term; power_product_rows tests
    # every term against it, the one homogeneity pass.
    degrees = [g.context.weighted_degree(next(iter(g.terms))) for g in polys]
    gen_ctx = context(names, degrees)
    d = target.weighted_degree() if target.is_homogeneous() else None
    wanted = {} if d is None else {d: gen_ctx.monomials_of_degree(d)}
    try:
        spans = power_product_rows(polys, degrees, wanted)
    except NotHomogeneousError:
        name = next(n for n, g, w in zip(names, polys, degrees)
                    if not g.is_homogeneous(w))
        raise ExpressError(
            f"generator {name} is not homogeneous and nonzero") from None
    if not target:
        return ExpressResult(Polynomial.zero(gen_ctx, target.ring), None)
    if d is None:
        raise ExpressError("target is not homogeneous")
    monomials = wanted[d]
    width, sparse = spans[d]
    _, t_vec = target.coefficient_vector(d)
    rows = [[row.get(j, 0) for j in range(width)] for row in sparse]
    # x = y/g; g == 0 means no rational solution, and then no terms either.
    y, g = intlinalg.solve_left_rational(t_vec, rows) or ((), 0)
    if g != 1:
        text = " + ".join(
            f"{c // math.gcd(c, g)}/{g // math.gcd(c, g)}".removesuffix("/1")
            + f"*{gen_ctx.render_monomial(exp) or '1'}"
            for exp, c in zip(monomials, y) if c)
        return ExpressResult(None, text or None)
    expression = Polynomial(gen_ctx, target.ring, dict(zip(monomials, y)))
    return ExpressResult(expression, None)


# ---- built-in catalog ---------------------------------------------------------

T_GL3 = Lattice("T_GL3", context(("x1", "x2", "x3")), INTEGERS)
T_PGL3_XY = Lattice("T_PGL3_xy", context(("x", "y")), INTEGERS)
T_SL3_U = Lattice("T_SL3_u", context(("u1", "u2")), INTEGERS)
A3MU3_AB = Lattice("A3mu3_ab", context(("a", "b")), integers_mod(3))

# x1 -> x, x2 -> y, x3 -> 0: inverse of the embedding x = x1 - x3, y = x2 - x3;
# canonical on translation-invariant polynomials.
TO_XY = LatticeMap(T_GL3, T_PGL3_XY, ((1, 0, 0), (0, 1, 0)))

# Restriction along the inclusion of the SL3 torus: x3 = -x1 - x2.
TO_SL3 = LatticeMap(T_GL3, T_SL3_U, ((1, 0, -1), (0, 1, -1)))

# The embedding of SL3-torus characters into GL3-torus characters induced by
# [t1,t2,t3] -> (t2/t3, t3/t1, t1/t2); one column per u-variable.  Transporting
# the permutation action through it yields the signed action on u1, u2.
TWIST_EMBEDDING = ((0, -1), (1, 0), (-1, 1))

# Same device for the two-variable presentation x = x1 - x3, y = x2 - x3.
XY_EMBEDDING = ((1, 0), (0, 1), (-1, -1))


def _build_reps() -> dict[str, VirtualRep]:
    e3 = VirtualRep.from_weights(T_GL3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    e3_dual = dual(e3)
    sl3 = subtract(tensor(e3, e3_dual), trivial(T_GL3))
    sym3 = twist(sym_power(e3, 3), (-1, -1, -1))
    w_torus = VirtualRep.from_weights(T_SL3_U, [(1, 0), (0, 1), (-1, -1)])
    w_a3mu3 = VirtualRep.from_weights(A3MU3_AB, [(1, 1), (-1, 1), (0, 1)])
    reg = VirtualRep.from_weights(
        A3MU3_AB, [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)])
    return {
        "E": e3,
        "E_dual": e3_dual,
        "sl3": sl3,
        "Sym3E_PGL3": sym3,
        "Sym3E_dual_PGL3": dual(sym3),
        "W_A3T": w_torus,
        "W_A3mu3": w_a3mu3,
        "reg_A3mu3": reg,
        # Restricted to A3 x mu3 the adjoint is reg - 1 and Sym3E is reg + 1.
        "sl3_A3mu3": subtract(reg, trivial(A3MU3_AB)),
        "Sym3E_A3mu3": direct_sum(reg, trivial(A3MU3_AB)),
    }


REPRESENTATIONS: dict[str, VirtualRep] = _build_reps()


def standard(name: str) -> VirtualRep:
    try:
        return REPRESENTATIONS[name]
    except KeyError:
        raise KeyError(f"no catalogued representation {name!r}") from None
