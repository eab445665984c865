"""Per-degree oracles for the graded components of presented rings, shared
by the tests of ``presented`` and ``intlinalg``.

The package builds every degree in one loop over packed keys; these build a
single degree from exponent tuples, as the package once did, so that each
degree's matrix and component can be compared with the loop's.
"""

import operator

from pgl3chow import intlinalg
from pgl3chow.presented import GradedComponent


def tuple_relation_rows(pres, d):
    """The degree-d monomial basis and one ``{column: value}`` row per
    relation * monomial product of degree ``d``, relation by relation and
    each monomial graded-lex largest first; each product monomial is
    ``mono + e`` added as a tuple."""
    ctx = pres.context
    basis = ctx.monomials_of_degree(d)
    index = {e: i for i, e in enumerate(basis)}
    rows = []
    for rel in pres.relations:
        rel_degree = rel.weighted_degree()
        if rel_degree is None or rel_degree > d:
            continue
        for mono in ctx.monomials_of_degree(d - rel_degree):
            rows.append({index[tuple(map(operator.add, mono, e))]: c
                         for e, c in rel.terms.items()})
    return basis, rows


def component_oracle(pres, d):
    """The degree-d component from the invariant factors of
    :func:`tuple_relation_rows`."""
    basis, rows = tuple_relation_rows(pres, d)
    nonzero = [x for x in intlinalg.invariant_factors(rows, len(basis)) if x]
    return GradedComponent(d, len(basis) - len(nonzero),
                           tuple(x for x in nonzero if x > 1))
