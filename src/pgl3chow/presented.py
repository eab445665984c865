"""Finitely generated graded rings over Z presented by homogeneous relations.

Two ways to the graded components, which share no code and so check each
other:

* :func:`graded_components` walks the degrees up to a bound once.  The
  degree-d component is the lattice on the degree-d monomials modulo every
  relation * monomial of degree d, the ideal being homogeneous; it reads
  each basis as packed keys from :func:`poly.graded_bases`, the one
  enumerator of monomial bases, and takes the Smith invariant factors of
  sparse ``{column: value}`` rows by :func:`intlinalg.invariant_factors`.
* :func:`free_summand_certificate` covers every degree when the relations
  are one content times a Gröbner basis over Z with pairwise coprime
  leading monomials, a check made once on the relations.

Unit generators and implied relations are eliminated first: callers pass
the presentation through :func:`eliminate_unit_generators`, where a
relation ``±g + p`` removes the generator ``g`` and itself by ``g -> ∓p``,
and then every relation that is an integer times a monomial times another
relation is dropped.  Both keep the graded ring, up to isomorphism, while
every degree's rows lose the columns of monomials containing ``g`` and the
rows of ``±g + p`` and of the implied relations.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

from . import intlinalg
from .poly import (
    INTEGERS,
    NotHomogeneousError,
    Polynomial,
    RingMap,
    VariableContext,
    context,
    graded_bases,
    packing,
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

    @functools.cached_property
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
    """An isomorphic presentation with no relation of the form ``±g + p`` and
    no relation implied by a single other one.

    While some relation has a term ``±1·g`` for a generator ``g`` (the first
    such relation, and in it the first such generator), substitute
    ``g -> ∓p`` into the other relations, then drop ``g``, that relation and
    every relation that became zero.  Homogeneity with positive degrees keeps
    ``g`` out of ``p``: any other term containing ``g`` would have a larger
    degree.  Then :func:`_drop_implied` removes every relation that is an
    integer times a monomial times another.  Neither step changes the ideal,
    so every graded component is the same, and the relation rows of each
    degree are narrower and fewer.
    """
    generators = pres.generators
    relations = list(pres.relations)
    while True:
        unit = _first_unit_term(relations)
        if unit is None:
            break
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
    kept = _drop_implied(pres.relations)
    if len(kept) == len(pres.relations):
        return pres
    return RingPresentation(pres.generators, kept)


def _drop_implied(relations: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
    """The relations, in order, without those that are ``c·x^a`` times
    another relation for an integer ``c`` and a monomial ``x^a``; of
    relations that are such multiples of each other (equal up to sign), the
    first stays.

    Being a multiple is transitive, and two relations are multiples of each
    other only when they are equal up to sign, so every dropped relation is
    a multiple of a kept one and the ideal is unchanged.
    """
    kept = []
    for k, rel in enumerate(relations):
        for j, other in enumerate(relations):
            if j == k or not _is_multiple(rel, other):
                continue
            if j < k or not _is_multiple(other, rel):
                break
        else:
            kept.append(rel)
    return tuple(kept)


def _is_multiple(rel: Polynomial, other: Polynomial) -> bool:
    """Whether ``rel == c·x^a·other`` for an integer ``c`` and a monomial
    ``x^a``; the zero relation is ``0`` times any.  Multiplying by ``x^a``
    keeps the lexicographic order of the terms, so ``x^a`` and ``c`` can
    only be those that match the two lexicographically largest terms."""
    if not rel.terms:
        return True
    if len(rel.terms) != len(other.terms):
        return False
    lead = max(rel.terms)
    other_lead = max(other.terms)
    shift = tuple(map(operator.sub, lead, other_lead))
    if any(x < 0 for x in shift):
        return False
    c, r = divmod(rel.terms[lead], other.terms[other_lead])
    if r:
        return False
    return all(rel.terms.get(tuple(map(operator.add, e, shift))) == c * v
               for e, v in other.terms.items())


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


def graded_components(pres: RingPresentation, bound: int,
                      dense_limit: int | None = None):
    """Yield the degree-d component for ``d = 0..bound``: the lattice on the
    degree-d monomials modulo the relation * monomial rows, by their Smith
    invariant factors (``dense_limit`` as in :func:`intlinalg.invariant_factors`).

    One packing with ``top = bound`` serves the run: weights are at least 1,
    so no exponent reaches past ``bound``.  Each relation is weighed and
    packed once, and each basis of :func:`poly.graded_bases` is kept for the
    later degrees.  The row of ``rel * mono`` maps the index of ``mono + e``
    to the coefficient of each term ``e`` of ``rel``; distinct terms land on
    distinct monomials, so a row has one entry per term of its relation.
    """
    pack, _ = packing(pres.context.arity, bound)
    relations = []
    for rel in pres.relations:
        degree = rel.weighted_degree()
        if degree is not None and degree <= bound:
            relations.append((degree, [(pack(e), c) for e, c in rel.terms.items()]))
    bases: list[list[int]] = []
    for d, basis in enumerate(graded_bases(pres.context.weights, bound, pack)):
        bases.append(basis)
        index = dict(zip(basis, range(len(basis))))
        rows = [{index[key + k]: c for k, c in terms}
                for degree, terms in relations if degree <= d
                for key in bases[d - degree]]
        nonzero = [x for x in intlinalg.invariant_factors(
            rows, len(basis), dense_limit) if x]
        yield GradedComponent(d, len(basis) - len(nonzero),
                              tuple(x for x in nonzero if x > 1))


def free_summand_certificate(pres: RingPresentation
                             ) -> tuple[int, tuple[int, ...]] | str:
    """``(c, L)`` when the relations certify every graded component of
    ``pres``, else the text of the first hypothesis they fail.  Zero
    relations aside, (1) every relation is ``c·p_i`` for one content ``c``,
    and for some generator ``i``, in the lex order with ``i`` first and ties
    broken by lex in the written order, (2) each ``p_i`` has a leading
    coefficient ±1 and (3) the leading monomials are pairwise coprime.

    By Buchberger's first criterion, which carries over to Z with unit
    leading coefficients, the ``p_i`` are then a Gröbner basis, and
    ``Z[g]/(p_i)`` is free on the monomials that no leading monomial divides
    (Adams and Loustaunau, GSM 3, §1.7 and ch. 4).  So ``R_d = Z^(s_d) ⊕
    (Z/c)^(n_d - s_d)``, ``n_d`` the number of monomials of degree ``d``,
    with ``sum s_d t^d = prod(1 - t^l) / prod(1 - t^w)`` over the degrees
    ``l`` in ``L`` of the leading monomials and the generator weights ``w``.
    No degree bound enters.
    """
    terms = [rel.terms for rel in pres.relations if rel.terms]
    contents = {math.gcd(*t.values()) for t in terms}
    if len(contents) > 1:
        return "every relation has the same content"
    c = contents.pop() if contents else 1
    failure = "in some lex order every leading coefficient is ±c"
    # The slice keeps one order to try when there are no generators.
    for i in range(max(pres.context.arity, 1)):
        leads = [max(t, key=lambda e: (e[i:i + 1], e)) for t in terms]
        if any(abs(t[e]) != c for t, e in zip(terms, leads)):
            continue
        failure = "in such an order the leading monomials are pairwise coprime"
        if not any(any(map(min, a, b))
                   for a, b in itertools.combinations(leads, 2)):
            return c, tuple(map(pres.context.weighted_degree, leads))
    return failure


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
