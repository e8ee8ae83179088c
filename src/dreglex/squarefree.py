"""The squarefree world: the degree-preserving bijection between monomials and
squarefree monomials, transport of the d-linear lexsegment machinery along it,
squarefree d-lexsegment ideals, simplicial complexes with their f- and
h-vectors, Alexander duality, the Stanley-Reisner translation, and the
Eagon-Reiner Cohen-Macaulay test.

Complexes are handled through their Stanley-Reisner ideals, with no vertex
subset scan and no cap: I_Δ is the intersection of the primes
P_{[n] - F} = (x_i : i not in F) over the facets F, a vertex set is a face
iff its squarefree monomial lies outside I_Δ, and the dual complex has the
ideal (x^{[n] - F} : F facet) (Miller-Sturmfels, Combinatorial Commutative
Algebra, ch. 1; Eagon-Reiner, JPAA 130, 1998).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .betti import ahh_betti
from .dlex import LSequence, dlinear_layer, regularity, require_realizable, single_degree
from .errors import DomainError, FormatError
from .ideals import MonomialIdeal, sq_lex_layers, squarefree_counts
from .macaulay import binom
from .monomials import MAX_VARIABLES, GroundRing, Monomial, lex_prefix_counts, parse_decimal, phi, phi_inv

# -- the squarefree operation (phi and phi_inv on monomials: ``monomials``) ---


def phi_ideal(I: MonomialIdeal) -> MonomialIdeal:
    """Generator-wise spreading of a strongly stable ideal generated in one
    degree d; lands squarefree strongly stable in n + d - 1 variables."""
    d = single_degree(I)
    if not I.is_strongly_stable():
        raise DomainError("phi transports strongly stable ideals only")
    target = GroundRing(I.ring.num_vars + d - 1)
    return MonomialIdeal(target, (phi(g, target.num_vars) for g in I.gens))


def phi_inv_ideal(J: MonomialIdeal) -> MonomialIdeal:
    """Generator-wise inverse spreading of a squarefree strongly stable ideal
    generated in one degree d; lands strongly stable in n - d + 1 variables."""
    d = single_degree(J)
    if not J.is_squarefree_strongly_stable():
        raise DomainError("phi_inv transports squarefree strongly stable ideals only")
    target = GroundRing(J.ring.num_vars - d + 1)
    return MonomialIdeal(target, (phi_inv(g, target.num_vars) for g in J.gens))


def phi_tilde(I: MonomialIdeal) -> MonomialIdeal:
    """Spreading into the same ring, defined for strongly stable ideals whose
    Betti numbers vanish above internal degree n; equivalently every generator
    satisfies max(u) + deg(u) - 1 <= n.  Preserves all graded Betti numbers."""
    if I.is_zero:
        return I
    if I.is_unit:
        raise DomainError("the unit ideal is outside the spreading phi_tilde")
    if not I.is_strongly_stable():
        raise DomainError("phi_tilde needs a strongly stable ideal")
    n = I.ring.num_vars
    for g in I.gens:
        if g.max_index + g.degree - 1 > n:
            raise DomainError(f"generator {g} violates max(u) + deg(u) - 1 <= n; Betti support exceeds degree n")
    return MonomialIdeal(I.ring, (phi(g, n) for g in I.gens))


# -- l*-sequences and squarefree d-lexsegment ideals ---------------------------


def l_star(I: MonomialIdeal) -> LSequence:
    """The shifted max-index counts of a squarefree strongly stable ideal
    generated in one degree: slot k of n - d + 1 counts the generators with
    max(u) = k + d - 1, which are the plain counts of the unspread ideal."""
    d = single_degree(I)
    if not I.is_squarefree_strongly_stable():
        raise DomainError("l* is only meaningful for squarefree strongly stable ideals")
    n = I.ring.num_vars
    counts = [0] * (n - d + 1)
    for g in I.gens:
        counts[g.max_index - d] += 1
    return LSequence(tuple(counts), d)


def _l_star_from_counts(counts: tuple[int, ...], n: int, d: int) -> LSequence:
    """Recover the shifted count vector from the squarefree member counts at
    degrees d..n, inverting
        count(d + m) = sum_k l*_k C(n - d + 1 - k, m).
    With a_j = l*_{n-d+1-j} that reads sum_m count(d + m) x^m =
    sum_j a_j (1 + x)^j, and x -> w - 1 gives the a_j as integer sums.
    """
    slots = n - d + 1
    # m starts at s: C(m, s) vanishes below, where (-1) ** (m - s) is a float
    entries = tuple(
        sum((-1) ** (m - s) * binom(m, s) * counts[d + m] for m in range(s, slots))
        for s in reversed(range(slots))
    )
    if any(x < 0 for x in entries):
        raise DomainError(f"squarefree counts do not match any degree-{d} squarefree strongly stable tail")
    return LSequence(entries, d)


def sq_dlinear_from_l_star(ls: LSequence, ring: GroundRing) -> MonomialIdeal:
    """The unique d-linear squarefree lexsegment ideal with the given counts,
    built by spreading the d-linear lexsegment ideal with the same counts."""
    return MonomialIdeal._from_minimal(ring, _sq_dlinear_layer(ls, ring, itertools.repeat(0)))


def _sq_dlinear_layer(ls: LSequence, ring: GroundRing, below: Iterable[int]) -> list[Monomial]:
    """phi of ``dlinear_layer`` in the n - d + 1 variables the counts live in:
    the d-linear squarefree lexsegment generators less, with largest inner
    variable x_k, the first below[k - 1]; phi is injective, so the layer is
    minimal."""
    n = ring.num_vars
    slots = n - ls.degree + 1
    if ls.entries == (0,) * slots:
        return []
    inner_ring = GroundRing(slots)
    require_realizable(ls, inner_ring)
    return [phi(g, n) for g in dlinear_layer(ls, inner_ring, below)]


def sq_lexd(I: MonomialIdeal, d: int) -> MonomialIdeal:
    """The unique squarefree d-lexsegment ideal with the Hilbert function of a
    squarefree ideal I, defined exactly when some squarefree ideal with I's
    Hilbert function has regularity <= d (squarefree algebraic shifting keeps
    the Hilbert function and the regularity: Aramova-Herzog-Hibi, J. Algebraic
    Combin. 12, 2000): squarefree lex prefixes below degree d plus the
    d-linear squarefree lexsegment part with the counts recovered from I's
    squarefree member counts, which in degrees 0..n are the whole Hilbert
    function.  reg(I) itself is never computed."""
    _require_proper_squarefree(I)
    n = I.ring.num_vars
    if not 1 <= d <= n:
        raise DomainError(f"d must lie in 1..{n}")
    return _sq_lexd_from_counts(I.ring, squarefree_counts(I), d)


def _require_proper_squarefree(I: MonomialIdeal) -> None:
    if not I.is_squarefree:
        raise DomainError("need a squarefree monomial ideal")
    if I.is_zero or I.is_unit:
        raise DomainError("need a nonzero, nonunit ideal")


def _sq_lexd_from_counts(ring: GroundRing, counts: tuple[int, ...], d: int) -> MonomialIdeal:
    """The squarefree d-lexsegment ideal whose squarefree member counts per
    degree 0..n are ``counts``.  DomainError, from the construction or from
    the comparison of every count at the end, exactly when no squarefree
    ideal of regularity <= d has these counts."""
    n = ring.num_vars
    low = [m for layer in sq_lex_layers(ring, counts[1:d]) for m in layer]
    # a degree-d squarefree w is in the span of the degree-(d-1) slice, phi of
    # the lex prefix P of size counts[d - 1] in n - d + 2 variables, iff
    # w / x_max(w) is; for w = phi(x_k * b) that is phi(b), so iff b is among
    # the members of P in x1..xk, a lex prefix there (``dlex_from_hilbert``)
    below = lex_prefix_counts(GroundRing(n - d + 2), d - 1, counts[d - 1])
    J = MonomialIdeal._from_minimal(ring, low + _sq_dlinear_layer(_l_star_from_counts(counts, n, d), ring, below))
    for t in range(n + 1):
        if J.count(t, squarefree=True) != counts[t]:
            raise DomainError(f"the squarefree counts are not those of a {d}-regular ideal: the only candidate misses degree {t}")
    return J


def sq_regularity_range(I: MonomialIdeal) -> dict[int, MonomialIdeal]:
    """Witnesses r -> squarefree ideal of regularity exactly r sharing I's
    Hilbert function, for every r that some squarefree ideal with that
    Hilbert function has: from the least such r, which is at most reg(I), up
    to reg(SqLex(I)), the largest (Aramova-Herzog-Hibi, Math. Z. 228, 1998).

    The range is decided by the squarefree member counts alone, read once.
    For r = 1, 2, ... the squarefree r-lexsegment candidate is built from
    them: it is refused until r reaches the least regularity (squarefree
    algebraic shifting keeps the counts and the regularity), then it has AHH
    regularity exactly r, and the first candidate of regularity below r is
    SqLex(I), which ends the range.  reg(I) itself is never computed."""
    _require_proper_squarefree(I)
    counts = squarefree_counts(I)
    out: dict[int, MonomialIdeal] = {}
    for r in range(1, I.ring.num_vars + 1):
        try:
            witness = _sq_lexd_from_counts(I.ring, counts, r)
        except DomainError as exc:
            if out:
                raise AssertionError(f"no witness for r={r} although r={r - 1} has one") from exc
            continue
        got = ahh_betti(witness).regularity()
        if got > r:
            raise AssertionError(f"witness for r={r} has regularity {got}")
        if got < r:
            break
        out[r] = witness
    return out


# -- simplicial complexes -------------------------------------------------------


@dataclass(frozen=True, slots=True, init=False)
class SimplicialComplex:
    """A simplicial complex on 1..n, stored by its facets.  Ghost vertices are
    allowed (a vertex need not be a face).  The void complex (not even the
    empty face) and the irrelevant complex (only the empty face) are distinct."""

    vertex_count: int
    facets: tuple[frozenset[int], ...]

    def __init__(self, vertex_count: int, facets=()):
        if vertex_count < 1:
            raise DomainError("need at least one vertex slot")
        if vertex_count > MAX_VARIABLES:
            raise DomainError(f"a complex allows at most {MAX_VARIABLES} vertex slots, got {vertex_count}")
        fs = {frozenset(f) for f in facets}
        for f in fs:
            if any(not 1 <= v <= vertex_count for v in f):
                raise DomainError(f"facet {sorted(f)} out of vertex range 1..{vertex_count}")
        maximal = {f for f in fs if not any(f < g for g in fs)}
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(
            self, "facets", tuple(sorted(maximal, key=lambda f: (len(f), sorted(f))))
        )

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int:
        if self.is_void:
            raise DomainError("the void complex has no dimension")
        return max(len(f) for f in self.facets) - 1

    def __repr__(self) -> str:
        body = ", ".join("{" + ",".join(map(str, sorted(f))) + "}" for f in self.facets)
        return f"SimplicialComplex(n={self.vertex_count}, [{body}])"


def _dual_ideal(ring: GroundRing, supports: Iterable[Iterable[int]]) -> MonomialIdeal:
    """The intersection of the primes (x_i : i in S) over the vertex sets S in
    ``supports``, the unit ideal when there are none.  A squarefree J meets
    (x_i : i in S) in its generators that meet S and x_i * g, i in S, for the
    others g.  Generators are kept as vertex sets, minimalized after each
    prime so the intermediate antichains stay small."""
    gens = [frozenset()]
    for S in map(frozenset, supports):
        grown = {g for g in gens if g & S} | {g | {i} for g in gens if not g & S for i in S}
        gens = [g for g in grown if not any(h < g for h in grown)]
    return MonomialIdeal(ring, map(ring.squarefree, gens))


def _complement_complex(I: MonomialIdeal) -> SimplicialComplex:
    """The complex whose facets are the complements of I's generator supports."""
    full = frozenset(range(1, I.ring.num_vars + 1))
    return SimplicialComplex(I.ring.num_vars, (full.difference(g.support) for g in I.gens))


def f_vector(complex_: SimplicialComplex) -> tuple[int, ...]:
    """(f_0, ..., f_{dim}): face counts by dimension, f_{i-1} = C(n, i) minus
    the squarefree degree-i members of the Stanley-Reisner ideal.
    f_{-1} = 1 is implicit.  The void complex has an empty f-vector."""
    if complex_.is_void:
        return ()
    n = complex_.vertex_count
    I = stanley_reisner(complex_)
    return tuple(binom(n, i) - I.count(i, squarefree=True) for i in range(1, complex_.dim + 2))


def h_vector(complex_: SimplicialComplex) -> tuple[int, ...]:
    """(h_0, ..., h_d) with d = dim + 1, by the alternating binomial transform
    of the f-vector.  Undefined for the void complex."""
    if complex_.is_void:
        raise DomainError("the void complex has no h-vector")
    f = (1,) + f_vector(complex_)
    d = complex_.dim + 1
    return tuple(
        sum((-1) ** (k - i) * binom(d - i, k - i) * f[i] for i in range(k + 1))
        for k in range(d + 1)
    )


def alexander_dual(complex_: SimplicialComplex) -> SimplicialComplex:
    """A set is a face of the dual iff its complement is a non-face; the
    facets are the complements of the generator supports of the
    Stanley-Reisner ideal.  An involution."""
    return _complement_complex(stanley_reisner(complex_))


def stanley_reisner(complex_: SimplicialComplex) -> MonomialIdeal:
    """The ideal spanned by the non-face monomials, the intersection of the
    primes P_{[n] - F} over the facets F; its minimal generators are the
    minimal non-face monomials.  The void complex gives the unit ideal."""
    full = frozenset(range(1, complex_.vertex_count + 1))
    return _dual_ideal(GroundRing(complex_.vertex_count), (full - f for f in complex_.facets))


def complex_from_ideal(I: MonomialIdeal) -> SimplicialComplex:
    """Inverse of the Stanley-Reisner translation: the facets are the
    complements of the supports of the generators of the Alexander dual
    ideal, the intersection of the primes of I's generator supports."""
    if not I.is_squarefree:
        raise DomainError("Stanley-Reisner inverse needs a squarefree ideal")
    return _complement_complex(_dual_ideal(I.ring, (g.support for g in I.gens)))


def eagon_reiner_cm(complex_: SimplicialComplex) -> bool:
    """Cohen-Macaulayness via the dual ideal: true iff the Stanley-Reisner
    ideal (x^{[n] - F} : F facet) of the Alexander dual is generated in a
    single degree d and has regularity d (a d-linear resolution)."""
    if complex_.is_void:
        raise DomainError("the void complex has no Cohen-Macaulay verdict here")
    ring = GroundRing(complex_.vertex_count)
    full = frozenset(range(1, ring.num_vars + 1))
    dual_ideal = MonomialIdeal(ring, (ring.squarefree(full - f) for f in complex_.facets))
    if dual_ideal.is_unit:
        raise DomainError("degenerate dual (unit ideal); verdict undefined")
    d = dual_ideal.max_gen_degree
    return dual_ideal.min_gen_degree == d and regularity(dual_ideal) == d


# -- complex file format ----------------------------------------------------------


def parse_complex(text: str) -> SimplicialComplex:
    """Parse the complex file format: header ``vertices=<n>``, one facet per
    line as comma-separated 1-based indices; ``{}`` is the empty facet."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise FormatError("empty complex file (missing vertices=<n> header)")
    header = lines[0]
    if not header.startswith("vertices="):
        raise FormatError(f"bad complex header {header!r}")
    try:
        n = parse_decimal(header[len("vertices="):])
    except ValueError as exc:
        raise FormatError(f"bad complex header {header!r}") from exc
    facets = []
    for ln in lines[1:]:
        if ln == "{}":
            facets.append(frozenset())
            continue
        try:
            facets.append(frozenset(map(parse_decimal, ln.split(","))))
        except ValueError as exc:
            raise FormatError(f"bad facet line {ln!r}") from exc
    try:
        return SimplicialComplex(n, facets)
    except DomainError as exc:
        raise FormatError(str(exc)) from exc


def format_complex(complex_: SimplicialComplex) -> str:
    lines = [f"vertices={complex_.vertex_count}"]
    for f in complex_.facets:
        lines.append(",".join(map(str, sorted(f))) if f else "{}")
    return "\n".join(lines) + "\n"
