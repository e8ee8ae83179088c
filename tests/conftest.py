"""Shared generators for the randomized suites.

Everything is seeded; a test that wants fresh data derives its own Random
from a fixed seed so failures reproduce.
"""

from __future__ import annotations

import itertools
import random

import pytest

from dreglex.errors import DomainError
from dreglex.ideals import MonomialIdeal
from dreglex.macaulay import binom
from dreglex.monomials import GroundRing, Monomial, MonomialSet, strongly_stable_closure


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


def random_strongly_stable_set(rng: random.Random, n: int, d: int, seeds: int = 2) -> MonomialSet:
    ring = GroundRing(n)
    mons = [random_monomial(rng, n, d) for _ in range(seeds)]
    return strongly_stable_closure(MonomialSet(ring, d, mons))


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


def random_sq_strongly_stable_set(rng: random.Random, n: int, d: int, seeds: int = 2) -> MonomialSet:
    ring = GroundRing(n)
    mons = [random_squarefree_monomial(rng, n, d) for _ in range(seeds)]
    return MonomialSet(ring, d, sq_strongly_stable_closure(mons))


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
        gens.extend(random_strongly_stable_set(rng, n, d, seeds=rng.randint(1, 2)).members)
    return MonomialIdeal(ring, gens)


def random_sq_strongly_stable_ideal(
    rng: random.Random, n: int, dmax: int, parts: int = 2
) -> MonomialIdeal:
    ring = GroundRing(n)
    gens: list[Monomial] = []
    for _ in range(parts):
        d = rng.randint(1, min(dmax, n))
        gens.extend(random_sq_strongly_stable_set(rng, n, d, seeds=rng.randint(1, 2)).members)
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
