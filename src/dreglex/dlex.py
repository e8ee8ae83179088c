"""The d-regular lexsegment machinery: per-max-index generator counts of
degree-d strongly stable ideals, the d-linear lexsegment construction they
pin down, d-lexsegment ideals, the Hilbert-function characterization of
d-regular ideals, and the regularity range of a Hilbert function.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .betti import BettiDiagram, ahh_betti, ek_betti
from .errors import DomainError
from .ideals import MonomialIdeal, lex_layers, lexify
from .koszul import koszul_betti
from .macaulay import HilbertSpec, binom, is_m_vector, up
from .monomials import GroundRing, Monomial, lex_prefix, lex_prefix_counts


@dataclass(frozen=True)
class LSequence:
    """The vector (l_1, ..., l_n) counting generators by largest variable in a
    degree-d strongly stable generating set."""

    entries: tuple[int, ...]
    degree: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.degree < 1:
            raise DomainError("the attached degree must be positive")
        if any(v < 0 for v in self.entries):
            raise DomainError("counts must be nonnegative")

    @property
    def num_vars(self) -> int:
        return len(self.entries)

    @property
    def total(self) -> int:
        return sum(self.entries)


def single_degree(I: MonomialIdeal) -> int:
    """The one degree all generators of a nonzero, nonunit ideal share."""
    if I.is_zero or I.is_unit:
        raise DomainError("need a nonzero, nonunit ideal generated in one degree")
    d = I.max_gen_degree
    if I.min_gen_degree != d:
        raise DomainError("generators must all have the same degree")
    return d


def l_sequence(I: MonomialIdeal) -> LSequence:
    """The max-index generator counts of a strongly stable ideal generated in
    a single degree."""
    d = single_degree(I)
    if not I.is_strongly_stable():
        raise DomainError("l-sequences are only meaningful for strongly stable sets")
    counts = [0] * I.ring.num_vars
    for g in I.gens:
        counts[g.max_index - 1] += 1
    return LSequence(tuple(counts), d)


def is_admissible_l(l: LSequence) -> bool:
    """True iff some strongly stable degree-d generating set realizes l:
    an M-vector whose second entry is at most the degree."""
    if not is_m_vector(l.entries):
        return False
    if l.num_vars >= 2 and l.entries[1] > l.degree:
        return False
    return True


def dlinear_lex_from_l(l: LSequence, ring: GroundRing) -> MonomialIdeal:
    """The unique d-linear lexsegment ideal with the given counts: generated by
    the union over k of x_k * B_k, B_k the size-l_k lex prefix of degree d-1
    in the first k variables."""
    require_realizable(l, ring)
    return MonomialIdeal._from_minimal(ring, dlinear_layer(l, ring, itertools.repeat(0)))


def require_realizable(l: LSequence, ring: GroundRing) -> None:
    """Raise DomainError unless a degree-d strongly stable generating set over
    ``ring`` realizes l."""
    if l.num_vars != ring.num_vars:
        raise DomainError(f"sequence has {l.num_vars} slots, ring has {ring.num_vars} variables")
    if not is_admissible_l(l):
        raise DomainError(f"{l.entries} is not realizable in degree {l.degree}")


def dlinear_layer(l: LSequence, ring: GroundRing, below: Iterable[int]) -> list[Monomial]:
    """The degree-d generators x_k * b, b in B_k less its first below[k - 1]
    members, of a d-lexsegment ideal whose degree-(d-1) slice holds exactly
    those first members of each B_k (none for the d-linear one); l must be
    realizable over ``ring``.  The generators with largest variable x_k are
    distinct, so the layer is minimal."""
    return [
        b.times_var(k)
        for k, (size, c) in enumerate(zip(l.entries, below), start=1)
        # c > size: no d-lex ideal has these counts; the caller's check fails
        for b in lex_prefix(ring, l.degree - 1, size, max_var=k, start=min(c, size))
    ]


def hilbert_from_l(l: LSequence, num_vars: int, t: int) -> int:
    """Hilbert function of a degree-d-generated strongly stable ideal with
    counts l:  H(t) = sum_k l_k * C(n-k+t-d, n-k), valid for t >= d."""
    if t < l.degree:
        raise DomainError(f"the count formula only covers degrees >= {l.degree}")
    if l.num_vars != num_vars:
        raise DomainError("slot count does not match the ring")
    n = num_vars
    d = l.degree
    return sum(
        l.entries[k - 1] * binom(n - k + t - d, n - k) for k in range(1, n + 1)
    )


def l_from_hilbert_tail(H: HilbertSpec, d: int) -> LSequence:
    """Invert the count formula from the n tail values H(d), ..., H(d+n-1).

    The tail's generating function sum_m H(d+m) z^m is
    sum_k l_k / (1 - z)^(n-k+1); times (1 - z)^n it is the polynomial
    P(z) = sum_k l_k (1 - z)^(k-1) of degree < n, so its coefficients
    p_0, ..., p_{n-1} need only the n tail values; z -> 1 - w turns P into
    sum_k l_k w^(k-1).  Both steps are invertible over the integers, so
    every integer tail has exactly one integer solution.

    Any further supplied values are verified against the recovered sequence;
    a mismatch or a negative solution means no degree-d generated strongly
    stable ideal matches.
    """
    n = H.num_vars
    if d < 1:
        raise DomainError("d must be positive")
    if H.top < d + n - 1:
        raise DomainError(f"need H through degree {d + n - 1}, have {H.top}")
    p = [
        sum((-1) ** i * binom(n, i) * H.value(d + m - i) for i in range(m + 1))
        for m in range(n)
    ]
    entries = tuple(
        (-1) ** k * sum(p[j] * binom(j, k) for j in range(k, n)) for k in range(n)
    )
    if any(x < 0 for x in entries):
        raise DomainError(
            f"tail {tuple(H.values[d:d + n])} is not the Hilbert tail of a degree-{d} strongly stable ideal"
        )
    l = LSequence(entries, d)
    for t in range(d + n, H.top + 1):
        if hilbert_from_l(l, n, t) != H.value(t):
            raise DomainError(f"supplied H({t}) deviates from the sequence recovered from the tail")
    return l


@dataclass(frozen=True)
class Verdict:
    """Outcome of the Hilbert-function characterization: on success the
    witness sequence is attached, on failure the first broken condition."""

    admissible: bool
    witness_l: LSequence | None = None
    failed_condition: str | None = None


def characterize(H: HilbertSpec, d: int, exact: bool = False) -> Verdict:
    """Decide whether H is the Hilbert function of a nonzero, nonunit graded
    ideal of regularity <= d (or exactly d with ``exact``).

    Conditions, reported by the tag of the first failure:
      (i)(b)  the tail H(d), ..., H(d+n-1) comes from a max-index count vector
              and any extra values match it;
      (i)(a)  that vector is an M-vector with second entry <= d;
      (i)(c)  H(d-1) <= l_n;
      (ii)    H(0) = 0 and up(H(t), n-1) <= H(t+1) for t < d-1;
      (iii)   (exact only) up(H(d-1), n-1) < H(d).
    """
    if H.role != "ideal":
        raise DomainError("characterize needs an ideal-side Hilbert specification")
    if d < 1:
        raise DomainError("d must be positive")
    n = H.num_vars
    if H.top < d + n - 1:
        raise DomainError(f"need H through degree {d + n - 1}, have {H.top}")
    try:
        l = l_from_hilbert_tail(H, d)
    except DomainError:
        return Verdict(False, failed_condition="(i)(b)")
    if not is_admissible_l(l):
        return Verdict(False, failed_condition="(i)(a)")
    if H.value(d - 1) > l.entries[n - 1]:
        return Verdict(False, failed_condition="(i)(c)")
    if H.value(0) != 0:
        return Verdict(False, failed_condition="(ii)")
    for t in range(0, d - 1):
        if up(H.value(t), n - 1) > H.value(t + 1):
            return Verdict(False, failed_condition="(ii)")
    if exact and up(H.value(d - 1), n - 1) >= H.value(d):
        return Verdict(False, failed_condition="(iii)")
    return Verdict(True, witness_l=l)


def characterize_exact(H: HilbertSpec, d: int) -> Verdict:
    return characterize(H, d, exact=True)


def dlex_from_hilbert(H: HilbertSpec, d: int) -> MonomialIdeal:
    """The unique d-lexsegment ideal realizing an admissible H: plain lex
    prefixes below degree d plus the d-linear lexsegment part matching the
    recovered counts l.  A stable set's span holds x_k * b with
    max(x_k * b) = k iff it holds b, so the degree-d generators with largest
    variable x_k are x_k times the size-l_k lex prefix in x1..xk less the c_k
    members of the degree-(d-1) slice there, the lex prefix of size H(d-1)
    (``lex_prefix_counts``)."""
    verdict = characterize(H, d)
    if not verdict.admissible:
        raise DomainError(f"H is not the Hilbert function of a {d}-regular ideal: condition {verdict.failed_condition}")
    ring = GroundRing(H.num_vars)
    gens = [m for new in lex_layers(ring, H.values[1:d]) for m in new]
    gens += dlinear_layer(verdict.witness_l, ring, lex_prefix_counts(ring, d - 1, H.value(d - 1)))
    J = MonomialIdeal._from_minimal(ring, gens)
    for t, (got, want) in enumerate(zip(J.hilbert_through(H.top), H.values)):
        if got != want:
            raise AssertionError(f"constructed ideal misses H({t}); construction bug or inconsistent input")
    return J


def regularity(I: MonomialIdeal) -> int:
    """Castelnuovo-Mumford regularity via the cheapest valid Betti backend."""
    return betti_auto(I).regularity()


def betti_auto(I: MonomialIdeal) -> BettiDiagram:
    """EK for stable ideals, the squarefree generator formula for squarefree
    strongly stable ideals, otherwise the exact Koszul oracle."""
    if I.is_stable():
        return ek_betti(I)
    if I.is_squarefree_strongly_stable():
        return ahh_betti(I)
    return koszul_betti(I)


def lexd(I: MonomialIdeal, d: int) -> MonomialIdeal:
    """The unique d-lexsegment ideal with the Hilbert function H of I, defined
    exactly when some ideal with Hilbert function H has regularity <= d; a
    property of H, so reg(I) itself is never computed.  The candidate is
    built from H through degree d + n - 1 (``dlex_from_hilbert``), is stable
    and generated in degrees <= d, so it has regularity <= d; it is the
    answer iff its Hilbert series, its numerator, is I's."""
    if I.is_zero or I.is_unit:
        raise DomainError("need a nonzero, nonunit ideal")
    if d < 1:
        raise DomainError("d must be positive")
    n = I.ring.num_vars
    J = dlex_from_hilbert(HilbertSpec(n, I.hilbert_through(d + n - 1), "ideal"), d)
    if J.numerator() != I.numerator():
        raise DomainError(f"H is not the Hilbert function of a {d}-regular ideal: the only candidate leaves it past degree {d + n - 1}")
    return J


def regularity_range(I: MonomialIdeal) -> dict[int, MonomialIdeal]:
    """Witnesses for every achievable regularity with the Hilbert function of
    I: r -> a monomial ideal of regularity exactly r, for r from reg(I) (the
    caller asserts the input realizes the minimum) up to reg(Lex(I)).

    Everything past reg(I) comes from H alone: Lex(I) ends where H says
    (see ``lexify``), its regularity is its top generator degree b (EK), and
    each witness Lex^(r)(I) is built from H(0), ..., H(r + n - 1), read once
    through degree b + n - 1.  Every witness is verified to have regularity
    exactly r via its stable Betti diagram.
    """
    if I.is_zero or I.is_unit:
        raise DomainError("need a nonzero, nonunit ideal")
    a = regularity(I)
    b = lexify(I).max_gen_degree
    n = I.ring.num_vars
    values = I.hilbert_through(b + n - 1)
    out: dict[int, MonomialIdeal] = {}
    for r in range(a, b + 1):
        witness = dlex_from_hilbert(HilbertSpec(n, values[:r + n], "ideal"), r)
        got = ek_betti(witness).regularity()
        if got != r:
            raise AssertionError(f"witness for r={r} has regularity {got}")
        out[r] = witness
    return out
