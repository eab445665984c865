"""Exact sparse multivariate polynomials over Z and Z/m with weighted grading.

A polynomial is a finite map from exponent vectors to nonzero coefficients,
kept in canonical form: no zero coefficients are stored and Z/m coefficients
are canonical residues in [0, m).  Iteration, printing and basis enumeration
all follow graded-lex order (weighted degree first, then lexicographic on
exponent vectors, largest first), so every rendering of a value is
deterministic.  :func:`graded_bases` is the one enumerator of those bases:
it forms each degree's monomials as packed keys from lower degrees, and
:meth:`VariableContext.monomials_of_degree` unpacks its last degree.

There are two ways to build a polynomial.  The public constructor validates
its input (exponent arity, no negative exponents, coefficients normalised
into the ring, repeated exponents merged); everything built from outside
input goes through it: :func:`parse`, config presentations and the
``constant``/``variable``/``linear_form`` helpers.  Results of arithmetic on
canonical operands (``+``, ``-``, ``*``, ``**``, derivatives and
:meth:`RingMap.apply`) go through the private ``Polynomial._clean``
instead, which trusts the exponent tuples and only drops zero coefficients
and, over Z/m, reduces residues.

Loops that chain many products run on packed keys instead of tuples
(Monagan and Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", 2007): :func:`packing` turns an exponent vector
into one integer with a fixed-width bit field per variable, wide enough for
every exponent the loop can reach, so adding exponents is one integer
addition and :func:`_convolve` multiplies ``{packed key: coefficient}``
dicts.  ``**`` (binary powering), :meth:`RingMap.apply` (images and their
power cache) and :func:`elementary_symmetric` pack their inputs once, work
on ints throughout and unpack once into ``Polynomial._clean``;
:func:`presented.graded_components` reads every degree's basis from
:func:`graded_bases` as packed keys.
:meth:`RingMap.apply` moves a one-term image ``c*x^a``, such as every image
of a permutation of the variables, by exponent arithmetic alone: a source
exponent ``e`` adds ``e*pack(a)`` to the key and multiplies the
coefficient by ``c^e``.  :func:`power_product_rows` is the one producer of
generator monomials (the gamma span of ``gamma-generation`` and the rows of
``repcalc.express_in``): it rejects a factor that is not homogeneous of its
weight, forms only the monomials asked for, each from the one a step lower,
on packed keys and never unpacks, and reads each product as a sparse row
through a packed index of its degree's basis, for the degrees asked for
alone.  :meth:`RingMap.from_matrix` is the one reading of a matrix
as a linear substitution, variable ``j`` to the form in column ``j``.
A single ``*`` stays tuple-based on purpose: it would pack and unpack for
only one convolution, and packing every ``*`` made a pass over the 16 light
checks slower (21.5 -> 23.3 ms, in-process medians on CPython 3.11).

The text format used in reports is ``coeff*var^exp`` with explicit ``*`` and
``^``, e.g. ``2*x1^3 - 9*x1*x2 + 27*x3``; :func:`parse` inverts
:meth:`Polynomial.render` exactly.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

Exponent = tuple[int, ...]


class ContextMismatchError(ValueError):
    """Operands live over different variable contexts."""


class RingMismatchError(ValueError):
    """Operands live over different coefficient rings."""


class NotHomogeneousError(ValueError):
    """A homogeneous polynomial was required."""


@dataclass(frozen=True)
class CoefficientRing:
    """Z or Z/m (m >= 2); arithmetic is exact and unbounded."""

    kind: str
    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("Z", "Zmod"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "Zmod":
            if self.modulus is None or self.modulus < 2:
                raise ValueError("modulus must be >= 2")
        elif self.modulus is not None:
            raise ValueError("modulus only makes sense for Zmod")

    def normalize(self, c) -> int:
        if self.kind == "Zmod":
            return int(c) % self.modulus
        return int(c)

    def __str__(self) -> str:
        if self.kind == "Zmod":
            return f"Z/{self.modulus}"
        return self.kind


INTEGERS = CoefficientRing("Z")


def integers_mod(m: int) -> CoefficientRing:
    return CoefficientRing("Zmod", m)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class VariableContext:
    """An ordered variable alphabet with a positive integer weight per variable."""

    names: tuple[str, ...]
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        for name in self.names:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad variable name {name!r}")
        if len(self.weights) != len(self.names):
            raise ValueError("one weight per variable required")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be >= 1")

    @property
    def arity(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def weighted_degree(self, exponent: Exponent) -> int:
        return sum(map(operator.mul, exponent, self.weights))

    @functools.lru_cache(maxsize=1024)
    def monomials_of_degree(self, d: int) -> tuple[Exponent, ...]:
        """All exponent vectors of weighted degree d, graded-lex (largest first):
        the last table of :func:`graded_bases`, unpacked.

        Memoised on the context and the degree; the result is a shared tuple.
        """
        if d < 0:
            return ()
        pack, unpack = packing(self.arity, d)
        *_, keys = graded_bases(self.weights, d, pack)
        return tuple(map(unpack, keys))

    def render_monomial(self, exponent: Exponent) -> str:
        factors = []
        for name, e in zip(self.names, exponent):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        return "*".join(factors)


def context(names: Sequence[str], weights: Sequence[int] | None = None) -> VariableContext:
    names = tuple(names)
    if weights is None:
        weights = (1,) * len(names)
    return VariableContext(names, tuple(weights))


class Polynomial:
    """Immutable sparse polynomial over a :class:`VariableContext` and ring."""

    __slots__ = ("context", "ring", "terms")

    def __init__(self, ctx: VariableContext, ring: CoefficientRing,
                 terms: Mapping[Exponent, object]):
        cleaned: dict[Exponent, object] = {}
        for exp, c in terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != ctx.arity:
                raise ValueError(f"exponent {exp} has wrong arity for {ctx.names}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            c = ring.normalize(c)
            if c != 0:
                if exp in cleaned:
                    c = ring.normalize(cleaned[exp] + c)
                    if c == 0:
                        del cleaned[exp]
                        continue
                cleaned[exp] = c
        object.__setattr__(self, "context", ctx)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def _clean(cls, ctx: VariableContext, ring: CoefficientRing,
               terms: dict[Exponent, int]) -> "Polynomial":
        """Wrap an arithmetic result whose exponents are already canonical.

        Only for terms computed from canonical operands: the exponent tuples
        are trusted as they are, so this drops zero coefficients and, over
        Z/m, reduces residues into [0, m), and checks nothing else.
        """
        m = ring.modulus
        if m is None:
            cleaned = {e: c for e, c in terms.items() if c}
        else:
            cleaned = {e: r for e, c in terms.items() if (r := c % m)}
        self = object.__new__(cls)
        object.__setattr__(self, "context", ctx)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", cleaned)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    # ---- construction helpers -------------------------------------------------

    @staticmethod
    def zero(ctx: VariableContext, ring: CoefficientRing = INTEGERS) -> "Polynomial":
        return Polynomial(ctx, ring, {})

    @staticmethod
    def constant(ctx: VariableContext, value, ring: CoefficientRing = INTEGERS) -> "Polynomial":
        return Polynomial(ctx, ring, {(0,) * ctx.arity: value})

    @staticmethod
    def variable(ctx: VariableContext, name: str, ring: CoefficientRing = INTEGERS) -> "Polynomial":
        exp = [0] * ctx.arity
        exp[ctx.index(name)] = 1
        return Polynomial(ctx, ring, {tuple(exp): 1})

    @staticmethod
    def linear_form(ctx: VariableContext, coeffs: Sequence[int],
                    ring: CoefficientRing = INTEGERS) -> "Polynomial":
        terms = {}
        for i, c in enumerate(coeffs):
            exp = [0] * ctx.arity
            exp[i] = 1
            terms[tuple(exp)] = c
        return Polynomial(ctx, ring, terms)

    # ---- basic protocol -------------------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.context is other.context and self.ring is other.ring:
            return
        if self.context != other.context:
            raise ContextMismatchError(
                f"contexts differ: {self.context.names} vs {other.context.names}")
        if self.ring != other.ring:
            raise RingMismatchError(f"rings differ: {self.ring} vs {other.ring}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.context == other.context and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.context, self.ring, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return Polynomial._clean(self.context, self.ring, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._clean(self.context, self.ring,
                                 {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) - c
        return Polynomial._clean(self.context, self.ring, out)

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial._clean(self.context, self.ring,
                                     {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out: dict[Exponent, int] = {}
        get = out.get
        add = operator.add
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return Polynomial._clean(self.context, self.ring, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int) -> "Polynomial":
        """Binary powering on packed keys; no exponent of ``self ** n``
        or of a squared base exceeds ``n`` times the largest of ``self``."""
        if n < 0:
            raise ValueError("negative power")
        top = n * max(itertools.chain.from_iterable(self.terms), default=0)
        pack, unpack = packing(self.context.arity, top)
        m = self.ring.modulus
        base = {pack(e): c for e, c in self.terms.items()}
        result = {0: 1}
        while n:
            if n & 1:
                result = _trim(_convolve(result, base), m)
            n >>= 1
            if n:
                base = _trim(_convolve(base, base), m)
        return Polynomial._clean(self.context, self.ring,
                                 {unpack(k): c for k, c in result.items()})

    # ---- grading --------------------------------------------------------------

    def ordered_exponents(self) -> list[Exponent]:
        ctx = self.context
        return sorted(self.terms, key=lambda e: (ctx.weighted_degree(e), e),
                      reverse=True)

    def weighted_degree(self) -> int | None:
        """Top weighted degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(self.context.weighted_degree(e) for e in self.terms)

    def is_homogeneous(self, d: int | None = None) -> bool:
        degrees = {self.context.weighted_degree(e) for e in self.terms}
        if not degrees:
            return True
        if d is None:
            return len(degrees) == 1
        return degrees == {d}

    def coefficient_vector(self, d: int) -> tuple[tuple[Exponent, ...], list]:
        """Coordinates of a degree-d homogeneous polynomial in the graded-lex basis.

        Returns the full degree-d monomial basis of the context together with
        this polynomial's coordinates in it.
        """
        if not self.is_homogeneous(d) and self.terms:
            raise NotHomogeneousError(f"not homogeneous of degree {d}: {self.render()}")
        basis = self.context.monomials_of_degree(d)
        vec = [self.terms.get(e, 0) for e in basis]
        return basis, vec

    # ---- calculus -------------------------------------------------------------

    def derivative(self, i: int) -> "Polynomial":
        out: dict[Exponent, int] = {}
        for e, c in self.terms.items():
            if e[i] > 0:
                ne = list(e)
                ne[i] -= 1
                key = tuple(ne)
                out[key] = out.get(key, 0) + c * e[i]
        return Polynomial._clean(self.context, self.ring, out)

    def directional_derivative(self, direction: Sequence[int]) -> "Polynomial":
        if len(direction) != self.context.arity:
            raise ValueError("direction has wrong arity")
        result = Polynomial.zero(self.context, self.ring)
        for i, d in enumerate(direction):
            if d:
                result = result + self.derivative(i) * d
        return result

    # ---- rendering ------------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exp in self.ordered_exponents():
            c = self.terms[exp]
            negative = c < 0
            mag = -c if negative else c
            mon = self.context.render_monomial(exp)
            if mon and mag == 1:
                body = mon
            elif mon:
                body = f"{mag}*{mon}"
            else:
                body = str(mag)
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<Polynomial {self.render()} over {self.ring}>"


# ---- packed exponent kernels --------------------------------------------------


def packing(arity: int, top: int):
    """``(pack, unpack)`` between exponent vectors of length ``arity`` with
    entries in ``[0, top]`` and ints holding one ``top.bit_length()``-bit
    field per variable, the first variable in the highest field.

    Packing is additive while no sum leaves ``[0, top]``: ``pack(e1) +
    pack(e2) == pack(e1 + e2)``, so the caller's ``top`` must bound every
    exponent its loop produces.
    """
    width = top.bit_length()
    mask = (1 << width) - 1
    shifts = tuple(width * (arity - 1 - i) for i in range(arity))

    def pack(exponent: Exponent) -> int:
        key = 0
        for e in exponent:
            key = (key << width) | e
        return key

    def unpack(key: int) -> Exponent:
        return tuple([(key >> s) & mask for s in shifts])

    return pack, unpack


def graded_bases(weights: Sequence[int], bound: int, pack):
    """Yield the packed keys of the monomials of each weighted degree
    ``0..bound``, graded-lex largest first: the one enumerator of monomial
    bases.  ``pack`` comes from :func:`packing` with ``top >= bound``, which
    holds every exponent, as no weight is below 1.

    ``tables[i][d]`` holds those in the variables ``i..``: the keys of
    ``tables[i][d - w_i]`` plus ``pack(e_i)``, then the smaller ones without
    variable ``i``, ``tables[i + 1][d]``; so each key is one addition.
    """
    n = len(weights)
    units = [pack(tuple(int(j == i) for j in range(n))) for i in range(n)]
    tables: list[list[list[int]]] = [[] for _ in range(n)]
    for d in range(bound + 1):
        keys = [0] if d == 0 else []
        for i in reversed(range(n)):
            if d >= weights[i]:
                keys = [k + units[i] for k in tables[i][d - weights[i]]] + keys
            tables[i].append(keys)
        yield keys


def _convolve(a: dict[int, int], b: dict[int, int],
              out: dict[int, int] | None = None) -> dict[int, int]:
    """Add the product of two packed-key dicts into ``out`` (a new dict by
    default) and return it.  The outer loop runs over the smaller dict."""
    if out is None:
        out = {}
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return out


def _trim(terms: dict[int, int], m: int | None) -> dict[int, int]:
    """Drop zero coefficients and, over Z/m, reduce residues into [0, m),
    so chained products stay small."""
    if m is None:
        return {k: c for k, c in terms.items() if c}
    return {k: r for k, c in terms.items() if (r := c % m)}


def elementary_symmetric(ctx: VariableContext, ring: CoefficientRing,
                         weight_multiplicities: Sequence[tuple[Sequence[int], int]],
                         top: int | None = None) -> tuple[Polynomial, ...]:
    """``(e_0, ..., e_top)`` of the linear forms ``sum_i w_i * x_i``, each
    taken with its multiplicity; ``top`` defaults to, and is capped at, ``n``,
    the sum of the multiplicities.

    One pass of ``e[k] += e[k-1]*form`` per form copy on packed keys, over
    ``k <= top`` only, so no class above ``top`` is formed and no exponent
    exceeds ``top``.  Zero forms are skipped, so their classes are the zero
    polynomials at the top of the tuple.
    """
    n = sum(mult for _, mult in weight_multiplicities)
    top = n if top is None else min(top, n)
    pack, unpack = packing(ctx.arity, top)
    variables = [pack(tuple(int(i == j) for j in range(ctx.arity)))
                 for i in range(ctx.arity)]
    e: list[dict[int, int]] = [{0: 1}]
    for w, mult in weight_multiplicities:
        if len(w) != ctx.arity:
            raise ValueError(f"weight {tuple(w)} has wrong arity for {ctx.names}")
        form = {k: c for k, x in zip(variables, w) if (c := ring.normalize(x))}
        if not form:
            continue
        for _ in range(mult):
            grown = len(e) <= top
            if grown:
                e.append(_convolve(e[-1], form))
            for k in range(len(e) - 1 - grown, 0, -1):
                _convolve(e[k - 1], form, e[k])
    classes = [Polynomial._clean(ctx, ring, {unpack(k): c for k, c in t.items()})
               for t in e]
    zero = Polynomial._clean(ctx, ring, {})
    return tuple(classes) + (zero,) * (top + 1 - len(classes))


def power_product_rows(factors: Sequence[Polynomial], weights: Sequence[int],
                       wanted: Mapping[int, Sequence[Exponent]]
                       ) -> dict[int, tuple[int, list[dict[int, int]]]]:
    """The products ``prod_i factors[i]^a_i`` for the exponent vectors ``a``
    that ``wanted`` lists under their weighted degree ``d``, ``factors[i]``
    weighing ``weights[i]``, as sparse ``{column: coefficient}`` rows over
    the degree-d monomial basis of the factors' context, in the order
    asked; one ``(width of the basis, rows)`` pair per degree of
    ``wanted``.

    This is the one place generator monomials are formed, for the gamma
    span of ``gamma-generation`` and for ``repcalc.express_in``.  A product
    is formed on demand, once, as the product one step lower (one less of
    the first factor with a nonzero exponent) times that factor, on packed
    keys throughout; so no product is formed that neither ``wanted`` nor a
    chain down to the empty product needs, and no basis is indexed for a
    degree not asked for.  Each factor must be homogeneous of its weight in
    the context's grading, or :class:`NotHomogeneousError` is raised, also
    when ``wanted`` is empty; the zero polynomial is, and its products are
    empty rows.  So every product and basis monomial of degree ``d`` is
    homogeneous of degree ``d``, and as no variable weighs less than 1, none
    has an exponent beyond the largest degree asked for.  A factor heavier
    than that takes part in no product and is not packed.
    """
    ctx, ring = factors[0].context, factors[0].ring
    weights = tuple(weights)
    for f, w in zip(factors, weights):
        f._check_compatible(factors[0])
        if not f.is_homogeneous(w):
            raise NotHomogeneousError(f"not homogeneous of degree {w}: {f.render()}")
    top = max(wanted, default=0)
    pack, _ = packing(ctx.arity, top)
    m = ring.modulus
    packed = [{pack(e): c for e, c in f.terms.items()} if w <= top else None
              for f, w in zip(factors, weights)]
    products = {(0,) * len(factors): {0: 1}}

    def product(exp: Exponent) -> dict[int, int]:
        chain = []
        while exp not in products:
            i = next(i for i, e in enumerate(exp) if e)
            chain.append((exp, i))
            exp = exp[:i] + (exp[i] - 1,) + exp[i + 1:]
        terms = products[exp]
        for exp, i in reversed(chain):
            terms = products[exp] = _trim(_convolve(terms, packed[i]), m)
        return terms

    out = {}
    for d, exponents in wanted.items():
        index = {pack(e): j for j, e in enumerate(ctx.monomials_of_degree(d))}
        out[d] = len(index), [{index[k]: c for k, c in product(exp).items()}
                              for exp in exponents]
    return out


# ---- ring maps ----------------------------------------------------------------


@dataclass(frozen=True)
class RingMap:
    """A ring homomorphism given by one image polynomial per source variable."""

    source: VariableContext
    target: VariableContext
    images: tuple[Polynomial, ...]
    target_ring: CoefficientRing

    def __post_init__(self) -> None:
        if len(self.images) != self.source.arity:
            raise ValueError("one image per source variable required")
        for img in self.images:
            if img.context != self.target:
                raise ContextMismatchError("image not over target context")
            if img.ring != self.target_ring:
                raise RingMismatchError("image not over target ring")

    @staticmethod
    def from_matrix(source: VariableContext, target: VariableContext,
                    matrix: Sequence[Sequence[int]],
                    ring: CoefficientRing = INTEGERS) -> "RingMap":
        """The linear substitution sending source variable ``j`` to the
        linear form in the target variables read off column ``j`` of
        ``matrix``, which has one row per target variable."""
        return RingMap(source, target, tuple(
            Polynomial.linear_form(target, [row[j] for row in matrix], ring)
            for j in range(source.arity)), ring)

    def apply(self, p: Polynomial) -> Polynomial:
        """Substitute the images into ``p`` in one pass.

        Each term's coefficient times the product of cached image powers is
        accumulated into one dict of packed keys, which is unpacked and
        cleaned once at the end.  A one-term image ``c*x^a`` needs no power:
        a source exponent ``e`` adds ``e*pack(a)`` to the term's key and
        multiplies its coefficient by ``c^e``, so a permutation of the
        variables is pure exponent arithmetic.  A source over Z maps into
        any target ring (reduced by the final clean); otherwise the rings
        must agree.
        """
        if p.context != self.source:
            raise ContextMismatchError("polynomial not over the map's source context")
        if p.ring != self.target_ring and p.ring.kind != "Z":
            raise RingMismatchError(
                f"cannot map coefficients from {p.ring} into {self.target_ring}")
        # An image of a term of total degree D has no exponent beyond D times
        # the largest exponent of any image.
        top = (max(map(sum, p.terms), default=0)
               * max((x for img in self.images for e in img.terms for x in e),
                     default=0))
        pack, unpack = packing(self.target.arity, top)
        m = self.target_ring.modulus
        # powers[i][k] = images[i]^(k+1), packed; single[i] = (key, coefficient)
        # of a one-term image, whose powers are never built
        powers = [[{pack(e): c for e, c in img.terms.items()}]
                  for img in self.images]
        single = [next(iter(cache[0].items())) if len(cache[0]) == 1 else None
                  for cache in powers]
        out: dict[int, int] = {}
        get = out.get
        for exp, c in p.terms.items():
            shift = 0
            term = None
            for i, e in enumerate(exp):
                if e:
                    one = single[i]
                    if one is not None:
                        key, a = one
                        shift += e * key
                        c *= pow(a, e, m)
                        continue
                    cache = powers[i]
                    while len(cache) < e:
                        cache.append(_trim(_convolve(cache[-1], cache[0]), m))
                    term = (cache[e - 1] if term is None
                            else _trim(_convolve(term, cache[e - 1]), m))
            if term is None:
                out[shift] = get(shift, 0) + c
            else:
                for k, c2 in term.items():
                    k += shift
                    out[k] = get(k, 0) + c * c2
        return Polynomial._clean(self.target, self.target_ring,
                                 {unpack(k): c for k, c in out.items()})


# ---- text format --------------------------------------------------------------

_TERM_RE = re.compile(
    r"""\A
    (?P<coeff>\d+(?:/\d+)?)?            # optional magnitude
    (?P<star>\*)?                       # separator when both parts present
    (?P<monomial>
        [A-Za-z_][A-Za-z0-9_]*(?:\^\d+)?
        (?:\*[A-Za-z_][A-Za-z0-9_]*(?:\^\d+)?)*
    )?
    \Z""",
    re.VERBOSE,
)


class PolynomialParseError(ValueError):
    pass


def _parse_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than sys.get_int_max_str_digits()
        raise PolynomialParseError(
            f"number with {len(digits)} digits is too long") from None


def parse(text: str, ctx: VariableContext,
          ring: CoefficientRing = INTEGERS) -> Polynomial:
    """Parse the canonical text format back into a polynomial."""
    stripped = text.strip()
    if not stripped:
        raise PolynomialParseError("empty polynomial text")
    if stripped == "0":
        return Polynomial.zero(ctx, ring)
    # Tokenize into signed terms; signs are the only top-level separators.
    pieces = re.split(r"\s*([+-])\s*", stripped)
    if pieces[0] == "":
        pieces = pieces[1:]
    else:
        pieces = ["+"] + pieces
    if len(pieces) % 2 != 0:
        raise PolynomialParseError(f"cannot parse {text!r}")
    terms: dict[Exponent, object] = {}
    for sign, body in zip(pieces[0::2], pieces[1::2]):
        match = _TERM_RE.match(body)
        if not match or (match.group("coeff") is None and match.group("monomial") is None):
            raise PolynomialParseError(f"bad term {body!r} in {text!r}")
        if match.group("star") and (match.group("coeff") is None
                                    or match.group("monomial") is None):
            raise PolynomialParseError(f"bad term {body!r} in {text!r}")
        coeff_text = match.group("coeff")
        if coeff_text is None:
            coeff = 1
        elif "/" in coeff_text:
            raise PolynomialParseError(f"fractional coefficient over {ring}")
        else:
            coeff = _parse_int(coeff_text)
        if sign == "-":
            coeff = -coeff
        exp = [0] * ctx.arity
        mono_text = match.group("monomial")
        if mono_text:
            for factor in mono_text.split("*"):
                if "^" in factor:
                    name, power = factor.split("^")
                    e = _parse_int(power)
                else:
                    name, e = factor, 1
                if name not in ctx.names:
                    raise PolynomialParseError(f"unknown variable {name!r}")
                exp[ctx.index(name)] += e
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + coeff
    return Polynomial(ctx, ring, terms)
