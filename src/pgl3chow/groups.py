"""Finite matrix groups acting on polynomial rings by linear substitution.

An element matrix acts on the character lattice by multiplying column
coordinate vectors, so variable ``i`` is substituted by the linear form read
off column ``i``.  With that convention ``act(g*h, p) == act(g, act(h, p))``
when the product ``g*h`` is the ordinary matrix product.

:meth:`MatrixGroup.movers` is the one test of which elements move a
polynomial.  It acts with a generating set first: the elements picked
greedily in element order, each one that is not yet a product of those
before it, kept with the group.  The set is certified once per group: the
closure of the picked matrices under matrix product, the identity included,
must be exactly the element set.  A ring map then fixes ``p`` under every
element as soon as it fixes it under each generator, so for S3 two
substitutions stand in for six.  When a generator moves ``p``, or the
certificate fails (the element list is not closed), every element acts, and
the movers are read off all of them.

:meth:`MatrixGroup.closure_check` is the full group test behind a verdict:
it lists every violation, and none means a group of order ``len(group)``.

Orbit sums model the composite of a transfer with the restriction back to the
subring: ``orbit_sum(G, p) = sum(act(g, p) for g in G)``, which is fixed by
every element and multiplies invariants by the group order.

Shift-invariance along a direction vector is the vanishing of the
directional derivative; over a torsion-free coefficient ring this is the same
polynomial condition as literal invariance under translation by an auxiliary
parameter, which :func:`literally_shift_invariant` provides as a cross-check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from . import intlinalg
from .poly import (
    ContextMismatchError,
    Polynomial,
    RingMap,
    VariableContext,
    context,
)

MatrixRows = tuple[tuple[int, ...], ...]


def _freeze(matrix: Sequence[Sequence[int]]) -> MatrixRows:
    return tuple(tuple(int(x) for x in row) for row in matrix)


@dataclass(frozen=True)
class MatrixGroup:
    """Explicit element list of unimodular matrices acting on a context over Z."""

    ctx: VariableContext
    elements: tuple[tuple[str, MatrixRows], ...]

    def labels(self) -> list[str]:
        return [label for label, _ in self.elements]

    def matrix(self, label: str) -> MatrixRows:
        for name, m in self.elements:
            if name == label:
                return m
        raise KeyError(f"no element labeled {label!r}")

    def __len__(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def _ring_maps(self) -> tuple[RingMap, ...]:
        """One substitution map per element, in element order, built on
        first use and kept with the group."""
        return tuple(RingMap.from_matrix(self.ctx, self.ctx, matrix)
                     for _, matrix in self.elements)

    @functools.cached_property
    def _generators(self) -> tuple[int, ...] | None:
        """Positions of the greedy generating set in element order, or None
        when the closure of those matrices under matrix product, from the
        identity, is not exactly the element set."""
        allowed = {m for _, m in self.elements}
        closure = {_freeze(intlinalg.identity(self.ctx.arity))}
        picked: list[int] = []
        for i, (_, m) in enumerate(self.elements):
            if m in closure:
                continue
            picked.append(i)
            frontier = list(closure)
            while frontier:
                a = frontier.pop()
                for j in picked:
                    prod = _freeze(intlinalg.matmul(a, self.elements[j][1]))
                    if prod not in closure:
                        if prod not in allowed:
                            return None
                        closure.add(prod)
                        frontier.append(prod)
        return tuple(picked) if closure == allowed else None

    def movers(self, p: Polynomial) -> dict[str, Polynomial]:
        """The elements that move ``p``, in element order, each with its
        image of ``p``; empty when every element fixes ``p``.  Only the
        certified generators act unless one of them moves ``p``."""
        if p.context != self.ctx:
            raise ContextMismatchError("polynomial not over the group's context")
        maps = self._ring_maps
        if self._generators is not None and all(
                maps[i].apply(p) == p for i in self._generators):
            return {}
        moved = ((label, ring_map.apply(p))
                 for label, ring_map in zip(self.labels(), maps))
        return {label: image for label, image in moved if image != p}

    def act(self, label: str, p: Polynomial) -> Polynomial:
        if p.context != self.ctx:
            raise ContextMismatchError("polynomial not over the group's context")
        for (name, _), ring_map in zip(self.elements, self._ring_maps):
            if name == label:
                return ring_map.apply(p)
        raise KeyError(f"no element labeled {label!r}")

    def orbit_sum(self, p: Polynomial) -> Polynomial:
        if p.context != self.ctx:
            raise ContextMismatchError("polynomial not over the group's context")
        total = Polynomial.zero(self.ctx)
        for ring_map in self._ring_maps:
            total = total + ring_map.apply(p)
        return total

    def closure_check(self) -> list[str]:
        violations: list[str] = []
        n = self.ctx.arity
        mats = [m for _, m in self.elements]
        if len(set(mats)) != len(mats):
            violations.append("duplicate element matrices")
        ident = _freeze(intlinalg.identity(n))
        if ident not in mats:
            violations.append("identity element missing")
        for label, m in self.elements:
            if len(m) != n or any(len(row) != n for row in m):
                violations.append(f"{label}: not {n}x{n}")
                continue
            det = intlinalg.bareiss_determinant(m)
            if det not in (1, -1):
                violations.append(f"{label}: determinant {det} not a unit")
        mat_set = set(mats)
        for la, ma in self.elements:
            for lb, mb in self.elements:
                if _freeze(intlinalg.matmul(ma, mb)) not in mat_set:
                    violations.append(f"product {la}*{lb} escapes the element set")
        for label, m in self.elements:
            if not any(_freeze(intlinalg.matmul(m, other)) == ident for other in mats):
                violations.append(f"{label}: no inverse in the element set")
        return violations


def literally_shift_invariant(p: Polynomial, direction: Sequence[int]) -> bool:
    """Check f(x + t*direction) == f(x) with an explicit auxiliary variable.

    The cross-check of the directional-derivative test: the shift is a
    literal substitution, not a derivative.
    """
    ctx = p.context
    parameter = "t_shift" if "t" in ctx.names else "t"
    extended = context(ctx.names + (parameter,), ctx.weights + (1,))
    t = Polynomial.variable(extended, parameter, p.ring)
    images = []
    for i, name in enumerate(ctx.names):
        img = Polynomial.variable(extended, name, p.ring)
        if direction[i]:
            img = img + t * direction[i]
        images.append(img)
    shift = RingMap(ctx, extended, tuple(images), p.ring)
    embedded = Polynomial(extended, p.ring, {e + (0,): c for e, c in p.terms.items()})
    return shift.apply(p) == embedded


def transported_group(group: MatrixGroup, embedding: Sequence[Sequence[int]],
                      target_ctx: VariableContext) -> MatrixGroup:
    """Transport a lattice action through an injective lattice embedding.

    ``embedding`` has one column per target variable, giving its coordinates
    in the source lattice.  Each source matrix M must preserve the embedded
    sublattice; the transported matrix N solves M @ F == F @ N exactly over Z.
    """
    f = [list(map(int, row)) for row in embedding]
    f_rows_as_gens = intlinalg.transpose(f)  # one generator per target basis vector
    elements = []
    for label, m in group.elements:
        mf = intlinalg.matmul(m, f)
        cols = []
        for j in range(target_ctx.arity):
            target_vec = [mf[i][j] for i in range(len(mf))]
            x = intlinalg.solve_left(target_vec, f_rows_as_gens)
            if x is None:
                raise ValueError(
                    f"element {label} does not preserve the embedded sublattice")
            cols.append(x)
        n = [[cols[j][i] for j in range(target_ctx.arity)]
             for i in range(target_ctx.arity)]
        elements.append((label, _freeze(n)))
    return MatrixGroup(target_ctx, tuple(elements))


def symmetric_group_s3(ctx: VariableContext) -> MatrixGroup:
    """S3 permuting three variables; sigma sends variable i to variable
    sigma^{-1}(i), so cycles act on linear forms the usual way."""
    if ctx.arity != 3:
        raise ValueError("S3 permutation action needs three variables")
    perms = {
        "e": (0, 1, 2),
        "(12)": (1, 0, 2),
        "(13)": (2, 1, 0),
        "(23)": (0, 2, 1),
        "(123)": (1, 2, 0),
        "(132)": (2, 0, 1),
    }
    elements = []
    for label, perm in perms.items():
        # Column i carries variable i to variable perm^{-1}(i); as a lattice
        # matrix this is the permutation matrix with 1 at (perm^{-1}(i), i),
        # i.e. at (j, perm(j)).
        m = [[0] * 3 for _ in range(3)]
        for j in range(3):
            m[j][perm[j]] = 1
        elements.append((label, _freeze(m)))
    return MatrixGroup(ctx, tuple(elements))


def alternating_subgroup(group: MatrixGroup) -> MatrixGroup:
    picked = tuple((label, group.matrix(label)) for label in ("e", "(123)", "(132)"))
    return MatrixGroup(group.ctx, picked)
