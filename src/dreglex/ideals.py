"""Monomial ideals: minimal generators, exact member counts, structural
predicates, and the two classical lexifications (Macaulay's Lex and
Kruskal-Katona's SqLex).

Counting has one engine: the numerator N of the Hilbert series
N(z) / (1 - z)^q of k[x1..xq]/I_q, with I_q generated by the generators of I
supported on x1..xq (for squarefree counts only the squarefree ones, since a
divisor of a squarefree monomial is squarefree).  It is computed once per
ideal and q by the pivot recursion N(S/I) = N(S/(I + (p))) + z^deg(p)
N(S/(I : p)) (Bayer-Stillman 1992, Bigatti 1997).  It needs no enumeration
and no cap.  N is kept sparse, as its (degree, coefficient) terms sorted by
degree with no zero term, so its size follows the number of terms and not
the generator degrees: x1^(3*10^12) costs two terms.  It is read two ways.
Point reads, ``MonomialIdeal.count``, take exact binomial sums over the
terms of degree at most t: one degree of the Hilbert function, the counts by
max index of the degreewise Betti formulas and of Lex(I, A) (at heights up
to 10^9, where no prefix could be built), and the squarefree counts of
SqLex.  Prefix reads, ``MonomialIdeal.hilbert_through``, take H(0..T) at
once by n running sums over the coefficients through z^T, O(n T) additions
and no binomials: the Hilbert files of ``hilb``, ``lexd``, the regularity
range and the check of every d-lexsegment built.  The three stability classes
(stable, strongly stable, squarefree strongly stable) share one
move-closure check on the minimal generators, and both strong-stability
classes need only the adjacent moves x_q -> x_(q-1).  ``degree_slice``
lists the members of one degree by testing every monomial of that degree, the
reference the counts are checked against; no library path calls it.

Divisibility has one index, built once per ideal on first use
(``MonomialIdeal.threshold_index``): for each variable x_k the sorted
distinct exponents values[k], 0 included, and masks[k][r], the bitmask of the
generators g with g_k <= values[k][r].  Rows are rank-compressed, so their
length is the number of distinct exponents, however large those are.  The
generators dividing m are the AND over k of the rows at the largest value
not above m_k: ``contains``, and through it the stability predicates, read
it, and so does the Koszul oracle.  ``minimalize`` builds the same index over
its candidates below the top degree and keeps a candidate iff none of lower
degree divides it.  The colon step of the pivot recursion keeps its direct
scan: its generator lists change at every step, and an index per step
measured 1.4 to 1.9 times slower there.

Both lexifications are built generator by generator from lex ranks, with only
the sizes of the spans computed; SqLex takes the lex prefixes of degree t in
n - t + 1 variables and carries them onto the squarefree ones through phi.
Their layers, the d-lexsegment layers of ``dlex`` and ``squarefree`` and
those of Lex(I, A) in ``areas`` are minimal by construction (new generators
lie outside the span of the slice below), so they enter the ideal through
``MonomialIdeal._from_minimal``, which only sorts them into canonical order.
User input always goes through the minimalizing constructor.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from math import comb
from operator import attrgetter, itemgetter, le, or_
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

from .errors import DomainError, FormatError, RingMismatch
from .macaulay import binom, up
from .monomials import (
    GroundRing,
    Monomial,
    count_monomials,
    enumerate_degree,
    format_monomial,
    lex_prefix,
    parse_decimal,
    parse_monomial,
    phi,
)

T = TypeVar("T")


def minimalize(ring: GroundRing, gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Divisibility-minimal subset of a generating set, in canonical order;
    idempotent.  A candidate is redundant iff a candidate of strictly lower
    degree divides it; by transitivity that divisor need not be kept itself,
    so one threshold index over the candidates below the top degree, the
    only possible divisors, answers every test: a candidate's divisors among
    them, masked to the candidates before its degree."""
    unique = _canonical(set(gens))
    for m in unique:
        if m.num_vars != ring.num_vars:
            raise RingMismatch(f"generator over {m.num_vars} variables in ring with {ring.num_vars}")
    degrees = list(map(_DEGREE, unique))
    below_top = bisect_left(degrees, degrees[-1]) if unique else 0
    if not below_top:
        return unique
    index = _threshold_index([m.exponents for m in unique[:below_top]], ring.num_vars)
    kept = list(unique[:bisect_right(degrees, degrees[0])])  # the lowest degree has no divisor
    for m, d in zip(unique[len(kept):], degrees[len(kept):]):
        if not _divisors(index, m.exponents) & ((1 << bisect_left(degrees, d)) - 1):
            kept.append(m)
    return tuple(kept)


def _canonical(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """The monomials by degree, lex-descending within each degree: a stable
    sort by degree after a descending sort by exponent vector."""
    return tuple(sorted(sorted(gens, key=_EXPONENTS, reverse=True), key=_DEGREE))


_EXPONENTS = attrgetter("exponents")
_DEGREE = attrgetter("degree")

# values[k], masks[k] for each variable x_k: see ``_threshold_index``
ThresholdIndex = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]


def _threshold_index(gens: Sequence[tuple[int, ...]], num_vars: int) -> ThresholdIndex:
    """(values, masks) for the exponent vectors ``gens``: values[k] the sorted
    distinct exponents of x_k, 0 included, and masks[k][r] the bitmask of the
    g (bit i for gens[i]) with g_k <= values[k][r].  A row has one entry per
    distinct exponent, however large the exponents are."""
    if not gens:
        return ((0,),) * num_vars, ((0,),) * num_vars
    values, masks = [], []
    for col in zip(*gens):
        row = dict.fromkeys(sorted({0, *col}), 0)  # exponent -> the g with g_k equal to it
        bit = 1
        for e in col:
            row[e] |= bit
            bit <<= 1
        values.append(tuple(row))
        masks.append(tuple(itertools.accumulate(row.values(), or_)))
    return tuple(values), tuple(masks)


def _divisors(index: ThresholdIndex, exponents: tuple[int, ...]) -> int:
    """The bitmask of the indexed generators dividing x^exponents: the AND
    over k of the row at the largest value of x_k not above e_k."""
    values, masks = index
    hit = -1
    for e, vals, row in zip(exponents, values, masks):
        hit &= row[bisect_right(vals, e) - 1]
    return hit


def series_coefficient(num_vars: int, numerator: Iterable[tuple[int, int]], t: int) -> int:
    """The degree-t coefficient of numerator(z) / (1 - z)^num_vars, the
    numerator given as (degree, coefficient) terms; num_vars >= 1.  Only the
    terms of degree at most t contribute.  A negative t raises DomainError."""
    if t < 0:
        raise DomainError(f"negative degree {t}")
    return sum(c * comb(num_vars - 1 + t - k, num_vars - 1) for k, c in numerator if k <= t)


def _numerator(gens: list[tuple[int, ...]]) -> dict[int, int]:
    """Hilbert-series numerator of S/I for the ideal minimally generated by
    the exponent vectors ``gens``, as a dict degree -> coefficient that may
    hold zero coefficients.

    The pivot p = x_i^e takes the variable x_i dividing the most generators
    and e its least positive exponent among them.  Then I + (p) is generated
    by p and the generators without x_i, which p is coprime to, and I : p by
    the generators with x_i lowered by e plus those without x_i that none of
    the lowered ones divides.  Both sides have a smaller generator degree sum.
    The recursion stops at pairwise coprime generators, where
    N = prod (1 - z^deg g).  The colon side is followed in a loop, so the
    call depth is at most the number of variables: the generators of each
    I + (p) call avoid x_i.  Each step adds z^shift (1 - z^e) N(I + (p))
    term by term, so the work and the memory follow the number of terms,
    not the degrees.
    """
    out: dict[int, int] = {}
    shift = 0
    while gens:
        columns = list(zip(*gens))
        counts = [len(c) - c.count(0) for c in columns]
        most = max(counts)
        if most < 2:
            break
        i = counts.index(most)
        e = min(filter(None, columns[i]))
        rest = [g for g in gens if not g[i]]
        lowered = [g[:i] + (g[i] - e,) + g[i + 1:] for g in gens if g[i]]
        for k, c in _numerator(rest).items():
            k += shift
            out[k] = out.get(k, 0) + c
            out[k + e] = out.get(k + e, 0) - c
        shift += e
        gens = lowered + [h for h in rest if not any(all(map(le, r, h)) for r in lowered)]
    base = {shift: 1}
    for g in gens:
        d = sum(g)
        for k, c in list(base.items()):
            base[k + d] = base.get(k + d, 0) - c
    if not out:
        return base
    for k, c in base.items():
        out[k] = out.get(k, 0) + c
    return out


@dataclass(frozen=True, slots=True, init=False)
class MonomialIdeal:
    """A monomial ideal kept in canonical form: a minimal generating set,
    sorted by degree and lex-descending within each degree.

    The zero ideal has no generators; the unit ideal is generated by 1 and is
    rejected by the operations whose mathematics assumes a proper ideal.
    """

    ring: GroundRing
    gens: tuple[Monomial, ...]
    _cache: dict = field(compare=False)

    def __init__(self, ring: GroundRing, gens: Iterable[Monomial] = ()):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gens", minimalize(ring, gens))
        object.__setattr__(self, "_cache", {})

    @classmethod
    def _from_minimal(cls, ring: GroundRing, gens: Iterable[Monomial]) -> MonomialIdeal:
        """The ideal generated by ``gens``, which the caller guarantees to be a
        minimal generating set over ``ring``, as the lexsegment builders'
        outputs are by construction: only put in canonical order, never
        minimalized."""
        I = cls.__new__(cls)
        object.__setattr__(I, "ring", ring)
        object.__setattr__(I, "gens", _canonical(gens))
        object.__setattr__(I, "_cache", {})
        return I

    @classmethod
    def zero(cls, ring: GroundRing) -> MonomialIdeal:
        return cls._from_minimal(ring, ())

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return any(g.is_one for g in self.gens)

    @property
    def is_squarefree(self) -> bool:
        return all(g.is_squarefree for g in self.gens)

    @property
    def max_gen_degree(self) -> int:
        if self.is_zero:
            raise DomainError("the zero ideal has no generators")
        return max(g.degree for g in self.gens)

    @property
    def min_gen_degree(self) -> int:
        if self.is_zero:
            raise DomainError("the zero ideal has no generators")
        return min(g.degree for g in self.gens)

    def contains(self, m: Monomial) -> bool:
        if m.num_vars != self.ring.num_vars:
            raise RingMismatch("monomial from a different ring")
        return _divisors(self.threshold_index(), m.exponents) != 0

    def threshold_index(self) -> ThresholdIndex:
        """The ``_threshold_index`` (values, masks) of the generators, built
        on first use; bit i of a mask stands for gens[i]."""
        return self.memo("index", lambda: _threshold_index([g.exponents for g in self.gens], self.ring.num_vars))

    def __add__(self, other: MonomialIdeal) -> MonomialIdeal:
        if self.ring != other.ring:
            raise RingMismatch("cannot add ideals over different rings")
        return MonomialIdeal(self.ring, self.gens + other.gens)

    def __repr__(self) -> str:
        body = ", ".join(format_monomial(g) for g in self.gens)
        return f"MonomialIdeal(n={self.ring.num_vars}, ({body}))"

    # -- slices and counting -------------------------------------------------

    def degree_slice(self, t: int) -> tuple[Monomial, ...]:
        """All degree-t members, lex-descending."""
        return tuple(m for m in enumerate_degree(self.ring, t) if self.contains(m))

    def hilbert(self, t: int) -> int:
        """dim of the degree-t component of the ideal."""
        return self.count(t)

    def hilbert_quotient(self, t: int) -> int:
        """dim of the degree-t component of the quotient ring."""
        return count_monomials(self.ring.num_vars, t) - self.hilbert(t)

    def hilbert_through(self, top: int, quotient: bool = False) -> tuple[int, ...]:
        """H(0), ..., H(top) of the ideal (of the quotient ring with
        ``quotient``): the coefficients of (1 - N(z)) / (1 - z)^n (of
        N(z) / (1 - z)^n) through z^top, by n running sums."""
        if top < 0:
            raise DomainError(f"negative degree {top}")
        N = dict(self.numerator())
        series = [N.get(k, 0) if quotient else (k == 0) - N.get(k, 0) for k in range(top + 1)]
        for _ in range(self.ring.num_vars):
            series = itertools.accumulate(series)
        return tuple(series)

    def count(self, t: int, num_vars: int | None = None, squarefree: bool = False) -> int:
        """The number of degree-t members of I (squarefree members with
        ``squarefree``) in the first q = ``num_vars`` variables (default all),
        read off the numerator N of I_q: C(q + t - 1, t) minus the series
        coefficient, or C(q, t) - f_{t-1} for the face numbers f of the
        Stanley-Reisner complex, sum_i f_{i-1} w^i = sum_k N_k w^k (1 + w)^(q - k).
        A negative t, or a q outside 0..n, raises DomainError."""
        if t < 0:
            raise DomainError(f"negative degree {t}")
        q = self.ring.num_vars if num_vars is None else num_vars
        if q == 0:
            return int(t == 0 and self.is_unit)
        N = self.numerator(q, squarefree)
        if squarefree:
            return binom(q, t) - sum(c * binom(q - k, t - k) for k, c in N if k <= t)
        return count_monomials(q, t) - series_coefficient(q, N, t)

    def numerator(self, num_vars: int | None = None, squarefree: bool = False) -> tuple[tuple[int, int], ...]:
        """The terms (k, N_k) of N with Hilbert series N(z) / (1 - z)^q of
        k[x1..xq]/I_q, sorted by degree k and with no zero coefficient, so
        ideals over one ring have equal Hilbert functions iff their
        numerators are equal; q = num_vars (default n)."""
        q = self.ring.num_vars if num_vars is None else num_vars
        if not 0 <= q <= self.ring.num_vars:
            raise DomainError(f"num_vars {q} out of range 0..{self.ring.num_vars}")
        # the unit ideal's I_0 would reach _numerator as one empty exponent vector
        return self.memo(("numerator", q, squarefree), lambda: () if q == 0 and self.is_unit else tuple(sorted(filter(
            itemgetter(1), _numerator([
                e[:q] for e in (g.exponents for g in self.gens)
                if not any(e[q:]) and not (squarefree and max(e) > 1)
            ]).items()
        ))))

    def memo(self, key: Hashable, compute: Callable[[], T]) -> T:
        """The value cached under ``key``, computed by ``compute()`` on the
        first request.  Only for values fixed by the generators, so threads
        racing on a first request store equal values."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    # -- structural predicates -----------------------------------------------
    #
    # The three stability classes are closures under exchange moves
    # x_q -> x_p, p < q, and share one check, ``_closed_under``, run on the
    # minimal generators only.  That suffices (Herzog-Hibi, Monomial Ideals,
    # GTM 260, ch. 7): a member is u * w with u a generator, and the exchange
    # lands in I either through u or through w.  Both strong-stability classes
    # need only the adjacent moves x_q -> x_(q-1) (see ``_closed_under``);
    # stability's moves all leave x_max(u) and do not chain.

    def _closed_under(self, key: str, moves: Callable[[Monomial], Iterable[tuple[int, int]]]) -> bool:
        """Whether x_p * u / x_q lies in I for every generator u and every
        move (p, q) in moves(u), memoized under ``key``.

        Adjacent moves give every move.  Strongly stable: x_p * u / x_q is
        the chain x_q -> x_(q-1) -> ... -> x_p, each step a move on a member
        of I.  Squarefree strongly stable, with the moves x_q -> x_(q-1)
        only onto a free x_(q-1): these reach every squarefree member m by
        the u * w argument above (w is coprime to u, so an index free in m
        is free in u).  Let x_q be in m, x_p not, p < q, and induct on
        q - p.  If x_(q-1) is not in m, step m to the squarefree member
        m' = x_(q-1) * m / x_q, then (if p < q - 1) move x_(q-1) -> x_p in
        m'.  If it is, p < q - 1: move x_(q-1) -> x_p in m first, which
        frees x_(q-1), then step x_q -> x_(q-1).  Either way each step goes
        to a free index, and the result is x_p * m / x_q.
        """
        return self.memo(key, lambda: all(
            self.contains(u.exchange(p, q)) for u in self.gens for p, q in moves(u)
        ))

    def is_stable(self) -> bool:
        """Closure under the exchanges x_p * u / x_max(u), p < max(u)."""
        return self._closed_under("stable", lambda u: ((p, m) for m in (u.max_index,) for p in range(1, m)))

    def is_strongly_stable(self) -> bool:
        """Closure under every exchange x_q -> x_p with p < q, tested on the
        moves x_q -> x_(q-1)."""
        result = self._closed_under("strongly_stable", _adjacent_moves)
        if result:
            self.memo("stable", lambda: True)
        return result

    def is_lexsegment(self, through_degree: int | None = None) -> bool:
        """True iff every degree slice up to the max generator degree (or the
        supplied degree) is an initial lex segment; by induction on the
        degree, iff each degree's generators are those of the lexsegment
        ideal with I's Hilbert function."""
        if self.is_zero or self.is_unit:
            return True
        limit = self.max_gen_degree if through_degree is None else through_degree
        layers = lex_layers(self.ring, map(self.hilbert, range(1, limit + 1)))
        return all(
            new == tuple(g for g in self.gens if g.degree == t)
            for t, new in enumerate(layers, start=1)
        )

    # -- squarefree stability ------------------------------------------------

    def is_squarefree_strongly_stable(self) -> bool:
        """Squarefree, and closed under the squarefree exchanges x_q -> x_p
        with p < q and x_p outside the support, tested on the moves
        x_q -> x_(q-1) with x_(q-1) outside the support."""
        return self.is_squarefree and self._closed_under("sq_strongly_stable", lambda u: (
            (p, q) for p, q in _adjacent_moves(u) if not u.exponents[p - 1]
        ))


def _adjacent_moves(u: Monomial) -> Iterator[tuple[int, int]]:
    """The moves x_q -> x_(q-1) of u, as (q - 1, q) for q > 1 in its support."""
    return ((q - 1, q) for q in u.support if q > 1)


# -- lexification ---------------------------------------------------------------


def lex_layers(ring: GroundRing, sizes: Iterable[int]) -> Iterator[tuple[Monomial, ...]]:
    """The generators, degree t = 1, 2, ... in turn, of the lexsegment ideal
    whose degree-t slice has size ``sizes[t - 1]``: the lex prefix of that
    size less the span of the previous slice, the lex prefix of size
    up(previous size, n - 1)."""
    prev = 0
    for t, size in enumerate(sizes, start=1):
        span = up(prev, ring.num_vars - 1)
        if span > size:
            raise DomainError(f"Hilbert data violates Macaulay growth at degree {t}")
        yield lex_prefix(ring, t, size, start=span)
        prev = size


def lexify(I: MonomialIdeal) -> MonomialIdeal:
    """The unique lexsegment ideal with the Hilbert function of I.

    Built degree by degree by ``lex_layers`` from H(I, t), t = 1, 2, ...,
    up to the first degree t past the max generator degree g of I that adds
    no generators.  That stop is exact: an empty layer t means H(I, t) is
    the span up(H(I, t - 1), n - 1) of the slice below, and with I
    generated in degrees <= t - 1, Gotzmann persistence (Bruns-Herzog,
    Cohen-Macaulay Rings, 4.3) makes every later slice the span of the
    previous one, so no layer past t adds a generator.  The loop always
    ends: Lex(I) is finitely generated, so every layer past both g and its
    top generator degree is empty.
    """
    if I.is_unit:
        raise DomainError("the unit ideal has no lexsegment companion here")
    if I.is_zero:
        return I
    g = I.max_gen_degree
    gens: list[Monomial] = []
    for t, new in enumerate(lex_layers(I.ring, map(I.hilbert, itertools.count(1))), start=1):
        if t > g and not new:
            return MonomialIdeal._from_minimal(I.ring, gens)
        gens.extend(new)


def sq_lex_layers(ring: GroundRing, sizes: Iterable[int]) -> Iterator[tuple[Monomial, ...]]:
    """The generators, degree t = 1, ..., n in turn, of the squarefree
    lexsegment ideal whose squarefree degree-t slice has size ``sizes[t - 1]``,
    built as ``lex_layers`` builds the plain ones: phi carries the degree-t
    lex prefixes in n - t + 1 variables in order onto the squarefree ones in
    n, and the span of a squarefree lex prefix is again one (Aramova-Herzog-
    Hibi, Math. Z. 228, 1998).  w is in the span of a prefix P of degree
    t - 1 iff w / x_max(w) is in P, so the span has sum_{u in P} (n - max u)
    members: through phi, the plain span up(|P|, n - t + 1) less the |P|
    multiples u * x_max(u)."""
    n = ring.num_vars
    prev = 0
    for t, size in enumerate(sizes, start=1):
        span = up(prev, n - t + 1) - prev
        if span > size:
            raise DomainError(f"squarefree counts violate Kruskal-Katona growth at degree {t}")
        yield tuple(phi(u, n) for u in lex_prefix(GroundRing(n - t + 1), t, size, start=span))
        prev = size


def sq_lexify(I: MonomialIdeal) -> MonomialIdeal:
    """The unique squarefree lexsegment ideal with the Hilbert function of I
    (Kruskal-Katona), built generator by generator by ``sq_lex_layers`` from
    the squarefree member counts of I in degrees 1..n."""
    if not I.is_squarefree:
        raise DomainError("sq_lexify needs a squarefree monomial ideal")
    if I.is_unit:
        raise DomainError("the unit ideal has no squarefree lexsegment companion here")
    if I.is_zero:
        return I
    layers = sq_lex_layers(I.ring, squarefree_counts(I)[1:])
    return MonomialIdeal._from_minimal(I.ring, [m for layer in layers for m in layer])


def squarefree_counts(I: MonomialIdeal) -> tuple[int, ...]:
    """The squarefree member counts of I in degrees 0..n."""
    return tuple(I.count(t, squarefree=True) for t in range(I.ring.num_vars + 1))


# -- text format ------------------------------------------------------------------


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse the ideal file format: header ``n=<int>``, one monomial per line,
    ``#`` comments; an empty body is the zero ideal."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise FormatError("empty ideal file (missing n=<int> header)")
    header = lines[0]
    if not header.startswith("n="):
        raise FormatError(f"bad ideal header {header!r}")
    try:
        n = parse_decimal(header[2:])
    except ValueError as exc:
        raise FormatError(f"bad ideal header {header!r}") from exc
    try:
        ring = GroundRing(n)
    except DomainError as exc:
        raise FormatError(str(exc)) from exc
    return MonomialIdeal(ring, (parse_monomial(ln, ring) for ln in lines[1:]))


def format_ideal(I: MonomialIdeal) -> str:
    lines = [f"n={I.ring.num_vars}"]
    lines.extend(format_monomial(g) for g in I.gens)
    return "\n".join(lines) + "\n"
