"""Shared generators for the randomized suites.

Everything is seeded; a test that wants fresh data derives its own Random
from a fixed seed so failures reproduce.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable

import pytest

from dreglex.errors import DomainError
from dreglex.ideals import MonomialIdeal
from dreglex.macaulay import binom
from dreglex.monomials import GroundRing, Monomial, lex_rank


def random_monomial(rng: random.Random, n: int, d: int) -> Monomial:
    e = [0] * n
    for _ in range(d):
        e[rng.randrange(n)] += 1
    return Monomial(tuple(e))


def random_squarefree_monomial(rng: random.Random, n: int, d: int) -> Monomial:
    supp = rng.sample(range(n), d)
    e = [0] * n
    for i in supp:
        e[i] = 1
    return Monomial(tuple(e))


def lex_desc(mons: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """The distinct monomials, lex-descending: the library's form of a
    degree slice."""
    return tuple(sorted(set(mons), key=lambda m: m.exponents, reverse=True))


# -- set-level references: each takes single-degree monomials over one ring ----


def strongly_stable_closure(mons: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Smallest strongly stable superset in the same degree."""
    seen = set(mons)
    frontier = list(seen)
    while frontier:
        m = frontier.pop()
        for q in m.support:
            for p in range(1, q):
                w = m.exchange(p, q)
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
    return lex_desc(seen)


def is_strongly_stable(mons: Iterable[Monomial]) -> bool:
    """True iff every exchange move x_q -> x_p (p < q) on every member stays
    among the members."""
    members = set(mons)
    return all(m.exchange(p, q) in members for m in members for q in m.support for p in range(1, q))


def dk_decompose(mons: Iterable[Monomial]) -> tuple[tuple[Monomial, ...], ...]:
    """The decomposition by largest variable: entry k-1 holds
    { u / x_k : u in V, max(u) = k }, a set of degree d-1 monomials supported
    on x1..xk, one entry per variable of the members' ring (none for the
    empty set).  The union of x_k * D_k reconstructs V exactly."""
    members = tuple(mons)
    if any(m.is_one for m in members):
        raise DomainError("degree-0 sets have no max-index decomposition")
    buckets: list[list[Monomial]] = [[] for _ in range(members[0].num_vars if members else 0)]
    for m in members:
        buckets[m.max_index - 1].append(m.div_var(m.max_index))
    return tuple(lex_desc(b) for b in buckets)


def m_le_k(mons: Iterable[Monomial], k: int) -> tuple[Monomial, ...]:
    """The members u with max(u) <= k, in their given order."""
    members = tuple(mons)
    if members and not 1 <= k <= members[0].num_vars:
        raise DomainError(f"k={k} out of range 1..{members[0].num_vars}")
    return tuple(m for m in members if m.max_index <= k)


def is_lexsegment_set(mons: Iterable[Monomial], max_var: int | None = None) -> bool:
    """True iff the members form an initial lex segment of their degree within
    the first ``max_var`` variables (default: their whole ring): they live
    there and the lex-smallest has position len - 1."""
    members = lex_desc(mons)
    if not members:
        return True
    k = members[0].num_vars if max_var is None else max_var
    return all(m.max_index <= k for m in members) and lex_rank(members[-1], k) == len(members) - 1


def is_dlinear_lex(mons: Iterable[Monomial]) -> bool:
    """True iff the set is strongly stable and every max-index slice D_k is a
    lex segment in the first k variables."""
    members = tuple(mons)
    return is_strongly_stable(members) and all(
        is_lexsegment_set(Dk, max_var=k) for k, Dk in enumerate(dk_decompose(members), start=1)
    )


def truncate_geq(I: MonomialIdeal, k: int) -> MonomialIdeal:
    """The ideal generated by the members of I of degree >= k: its degree-k
    slice and its generators above k."""
    return MonomialIdeal(I.ring, I.degree_slice(k) + tuple(g for g in I.gens if g.degree > k))


# -- random generators ----------------------------------------------------------


def random_strongly_stable_set(rng: random.Random, n: int, d: int, seeds: int = 2) -> tuple[Monomial, ...]:
    return strongly_stable_closure(random_monomial(rng, n, d) for _ in range(seeds))


def sq_strongly_stable_closure(seeds) -> set[Monomial]:
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        m = frontier.pop()
        supp = set(m.support)
        for q in supp:
            for p in range(1, q):
                if p not in supp:
                    w = m.exchange(p, q)
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
    return seen


def random_sq_strongly_stable_set(rng: random.Random, n: int, d: int, seeds: int = 2) -> tuple[Monomial, ...]:
    mons = [random_squarefree_monomial(rng, n, d) for _ in range(seeds)]
    return lex_desc(sq_strongly_stable_closure(mons))


def stable_closure(seeds) -> set[Monomial]:
    """Fixpoint of only the max-variable exchange (weaker than strong
    stability)."""
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        m = frontier.pop()
        q = m.max_index
        for p in range(1, q):
            w = m.exchange(p, q)
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def random_stable_ideal(rng: random.Random, n: int, dmax: int, parts: int = 2) -> MonomialIdeal:
    ring = GroundRing(n)
    gens: list[Monomial] = []
    for _ in range(parts):
        d = rng.randint(1, dmax)
        gens.extend(stable_closure([random_monomial(rng, n, d)]))
    return MonomialIdeal(ring, gens)


def random_strongly_stable_ideal(
    rng: random.Random, n: int, dmax: int, parts: int = 2
) -> MonomialIdeal:
    """A sum of strongly stable closures in random degrees; strongly stable."""
    ring = GroundRing(n)
    gens: list[Monomial] = []
    for _ in range(parts):
        d = rng.randint(1, dmax)
        gens.extend(random_strongly_stable_set(rng, n, d, seeds=rng.randint(1, 2)))
    return MonomialIdeal(ring, gens)


def random_sq_strongly_stable_ideal(
    rng: random.Random, n: int, dmax: int, parts: int = 2
) -> MonomialIdeal:
    ring = GroundRing(n)
    gens: list[Monomial] = []
    for _ in range(parts):
        d = rng.randint(1, min(dmax, n))
        gens.extend(random_sq_strongly_stable_set(rng, n, d, seeds=rng.randint(1, 2)))
    return MonomialIdeal(ring, gens)


def random_monomial_ideal(rng: random.Random, n: int, dmax: int, count: int = 3) -> MonomialIdeal:
    ring = GroundRing(n)
    return MonomialIdeal(
        ring, (random_monomial(rng, n, rng.randint(1, dmax)) for _ in range(count))
    )


def random_squarefree_ideal(rng: random.Random, n: int, dmax: int, count: int = 3) -> MonomialIdeal:
    ring = GroundRing(n)
    return MonomialIdeal(
        ring,
        (random_squarefree_monomial(rng, n, rng.randint(1, min(dmax, n))) for _ in range(count)),
    )


def squarefree_slice(I: MonomialIdeal, t: int) -> tuple[Monomial, ...]:
    """The squarefree degree-t members of I, lex-descending, by testing each
    of the C(n, t) supports: the reference for the squarefree counts."""
    n = I.ring.num_vars
    if t < 0 or t > n:
        return ()
    out = []
    for supp in itertools.combinations(range(n), t):
        m = Monomial(tuple(int(i in supp) for i in range(n)))
        if I.contains(m):
            out.append(m)
    return tuple(sorted(out, key=lambda m: m.exponents, reverse=True))


def sq_prefix(ring: GroundRing, degree: int, size: int) -> tuple[Monomial, ...]:
    """The squarefree lexsegment of the given size in one degree, by walking
    the supports in combinations order: the reference for the squarefree
    lex prefixes."""
    n = ring.num_vars
    if size < 0 or size > binom(n, degree):
        raise DomainError(f"no squarefree lexsegment of size {size} in degree {degree} over {n} variables")
    out = []
    for supp in itertools.combinations(range(1, n + 1), degree):
        if len(out) == size:
            break
        out.append(ring.squarefree(supp))
    return tuple(out)


def sq_lex_layers_by_shadow(ring: GroundRing, sizes):
    """The generators, degree t = 1, 2, ... in turn, of the squarefree
    lexsegment ideal whose degree-t squarefree slice has size
    ``sizes[t - 1]``: each squarefree lex prefix less the whole upper shadow
    of the previous one, both built as sets, which must lie inside it
    (Kruskal-Katona).  The reference for ``sq_lex_layers``."""
    n = ring.num_vars
    prev: tuple[Monomial, ...] = ()
    for t, size in enumerate(sizes, start=1):
        span = {m.times_var(i) for m in prev for i in range(1, n + 1) if not m.exponents[i - 1]}
        prefix = sq_prefix(ring, t, size)
        if not span.issubset(prefix):
            raise DomainError(f"squarefree counts violate Kruskal-Katona growth at degree {t}")
        yield tuple(m for m in prefix if m not in span)
        prev = prefix


def faces(complex_) -> set[frozenset[int]]:
    """All faces of a simplicial complex, the empty face included when it is
    nonvoid, by listing the subsets of every facet: the reference for the
    face counts."""
    return {
        frozenset(sub)
        for f in complex_.facets
        for r in range(len(f) + 1)
        for sub in itertools.combinations(sorted(f), r)
    }


def minimal_nonfaces(complex_) -> list[frozenset[int]]:
    """The inclusion-minimal vertex sets that are no face, by scanning all
    2^n subsets by size: the reference for the Stanley-Reisner generators."""
    out: list[frozenset[int]] = []
    for size in range(complex_.vertex_count + 1):
        for cand in itertools.combinations(range(1, complex_.vertex_count + 1), size):
            f = frozenset(cand)
            if not any(f <= g for g in complex_.facets) and not any(nf <= f for nf in out):
                out.append(f)
    return out


def complex_by_face_scan(I: MonomialIdeal):
    """The Stanley-Reisner complex of a squarefree ideal by scanning all 2^n
    vertex sets, largest first, for maximal ones containing no generator
    support: the reference for ``complex_from_ideal``."""
    from dreglex.squarefree import SimplicialComplex

    n = I.ring.num_vars
    supports = [frozenset(g.support) for g in I.gens]
    facets: list[frozenset[int]] = []
    for size in range(n, -1, -1):
        for cand in itertools.combinations(range(1, n + 1), size):
            f = frozenset(cand)
            if not any(s <= f for s in supports) and not any(f <= g for g in facets):
                facets.append(f)
    return SimplicialComplex(n, facets)


@pytest.fixture
def ring4() -> GroundRing:
    return GroundRing(4)
