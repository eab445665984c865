"""Finitely generated graded rings over Z presented by homogeneous relations.

The degree-d component of Z[g1..gn]/(r1..rk) is the quotient of the free
lattice on degree-d generator monomials by the span of every product
relation * monomial landing in degree d; since the relation ideal is
homogeneous this span is exactly the ideal's degree-d part, so a Smith normal
form gives the component's free rank and invariant factors without any
Groebner machinery.  The products are built as sparse ``{column: value}``
rows, the input format of :func:`intlinalg.invariant_factors` and
:func:`intlinalg.rank_over_q`, so one set of rows per degree can feed both.

Unit generators are eliminated before any rows are built: callers that loop
over degrees first pass the presentation through
:func:`eliminate_unit_generators`, where a relation ``±g + p`` removes the
generator ``g`` and itself by ``g -> ∓p``.  That is an isomorphism of graded
rings, so every component is unchanged, while every degree's rows lose the
columns of monomials containing ``g`` and the rows of ``±g + p``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from . import intlinalg
from .poly import (
    INTEGERS,
    Exponent,
    NotHomogeneousError,
    Polynomial,
    RingMap,
    VariableContext,
    context,
    parse,
)


@dataclass(frozen=True)
class RingPresentation:
    """Named generators with positive degrees and homogeneous Z-relations."""

    generators: tuple[tuple[str, int], ...]
    relations: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        ctx = self.context
        for rel in self.relations:
            if rel.context != ctx:
                raise ValueError("relation not over the generator context")
            if rel.ring != INTEGERS:
                raise ValueError("relations must have integer coefficients")
            if not rel.is_homogeneous():
                raise NotHomogeneousError(
                    f"relation {rel.render()} is not homogeneous")

    @property
    def context(self) -> VariableContext:
        names = tuple(n for n, _ in self.generators)
        degrees = tuple(d for _, d in self.generators)
        return context(names, degrees)

    @staticmethod
    def from_strings(generators: Sequence[tuple[str, int]],
                     relations: Sequence[str]) -> "RingPresentation":
        gens = tuple((str(n), int(d)) for n, d in generators)
        ctx = context(tuple(n for n, _ in gens), tuple(d for _, d in gens))
        rels = tuple(parse(text, ctx, INTEGERS) for text in relations)
        return RingPresentation(gens, rels)


@dataclass(frozen=True)
class GradedComponent:
    degree: int
    free_rank: int
    torsion: tuple[int, ...]

    def render(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " ⊕ ".join(parts) if parts else "0"


def partition_series(parts: Sequence[int], bound: int) -> list[int]:
    """``[t^d] prod_k 1/(1 - t^k)`` over ``k`` in ``parts``, for
    ``d = 0..bound``: the number of monomials of degree ``d`` in generators
    of degrees ``parts``, exactly in integers."""
    coeffs = [1] + [0] * bound
    for k in parts:
        for n in range(k, bound + 1):
            coeffs[n] += coeffs[n - k]
    return coeffs


def eliminate_unit_generators(pres: RingPresentation) -> RingPresentation:
    """An isomorphic presentation with no relation of the form ``±g + p``.

    While some relation has a term ``±1·g`` for a generator ``g`` (the first
    such relation, and in it the first such generator), substitute
    ``g -> ∓p`` into the other relations, then drop ``g``, that relation and
    every relation that became zero.  Homogeneity with positive degrees keeps
    ``g`` out of ``p``: any other term containing ``g`` would have a larger
    degree.  Relations made redundant by the substitution stay, so every
    graded component is the same, and the relation rows of each degree are
    narrower and fewer.
    """
    generators = pres.generators
    relations = list(pres.relations)
    while True:
        unit = _first_unit_term(relations)
        if unit is None:
            return pres
        k, i, sign = unit
        rel = relations.pop(k)
        generators = generators[:i] + generators[i + 1:]
        target = context(tuple(n for n, _ in generators),
                         tuple(d for _, d in generators))
        # rel = sign*g + p, so g -> -sign*p; p has no g to drop.
        g_image = Polynomial(target, INTEGERS, {
            e[:i] + e[i + 1:]: -sign * c
            for e, c in rel.terms.items() if e[i] == 0})
        images = [Polynomial.variable(target, n) for n, _ in generators]
        images.insert(i, g_image)
        substitute = RingMap(pres.context, target, tuple(images), INTEGERS)
        relations = [r for r in map(substitute.apply, relations) if r]
        pres = RingPresentation(generators, tuple(relations))


def _first_unit_term(relations: Sequence[Polynomial]
                     ) -> tuple[int, int, int] | None:
    """``(relation index, generator index, ±1)`` of the first term ``±1·g``
    with ``g`` a single generator, or None."""
    for k, rel in enumerate(relations):
        units = [(e.index(1), c) for e, c in rel.terms.items()
                 if abs(c) == 1 and sum(e) == 1]
        if units:
            return (k, *min(units))
    return None


def relation_rows(pres: RingPresentation, d: int
                  ) -> tuple[tuple[Exponent, ...], list[dict[int, int]]]:
    """Degree-d monomial basis and the sparse rows of the relation*monomial
    products, one ``{column: value}`` dict per product.

    The row of ``rel * mono`` maps the index of ``mono + e`` to the
    coefficient of each term ``e`` of ``rel``; distinct terms land on
    distinct monomials, so no entries add, and the coefficients of a
    polynomial are nonzero, so neither are the entries.  A row has as many
    entries as its relation has terms, whatever the width of the basis.
    """
    ctx = pres.context
    basis = ctx.monomials_of_degree(d)
    index = {e: i for i, e in enumerate(basis)}
    rows: list[dict[int, int]] = []
    for rel in pres.relations:
        rel_degree = rel.weighted_degree()
        if rel_degree is None or rel_degree > d:
            continue
        terms = rel.terms.items()
        for mono in ctx.monomials_of_degree(d - rel_degree):
            rows.append({index[tuple(map(operator.add, mono, e))]: c
                         for e, c in terms})
    return basis, rows


def component_of_rows(d: int, basis: Sequence[Exponent],
                      rows: Sequence[intlinalg.SparseRow]) -> GradedComponent:
    """The degree-d component presented by the lattice on ``basis`` modulo
    the sparse relation ``rows``, from their Smith invariant factors."""
    diag = intlinalg.invariant_factors(rows, len(basis))
    nonzero = [x for x in diag if x != 0]
    free_rank = len(basis) - len(nonzero)
    torsion = tuple(x for x in nonzero if x > 1)
    return GradedComponent(d, free_rank, torsion)


def graded_component(pres: RingPresentation, d: int) -> GradedComponent:
    if d < 0:
        raise ValueError("degree must be non-negative")
    return component_of_rows(d, *relation_rows(pres, d))


def rstar_presentation() -> RingPresentation:
    """The candidate Chow ring of the PGL3 classifying stack: generators
    lam, c3, rho, chi, c6, c8 of degrees 2,3,4,6,6,8 with the 3-torsion
    relations and rho^2 = c8."""
    return RingPresentation.from_strings(
        [("lam", 2), ("c3", 3), ("rho", 4), ("chi", 6), ("c6", 6), ("c8", 8)],
        [
            "3*rho",
            "3*chi",
            "3*c8",
            "81*c6 - 3*c3^2 - 12*lam^3",
            "rho^2 - c8",
        ],
    )


BUILTIN_PRESENTATIONS = {
    "Rstar": rstar_presentation,
}
