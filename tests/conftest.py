"""Shared generators for the randomized suites.

Everything is seeded; a test that wants fresh data derives its own Random
from a fixed seed so failures reproduce.
"""

from __future__ import annotations

import itertools
import random

import pytest

from dreglex.ideals import MonomialIdeal
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


@pytest.fixture
def ring4() -> GroundRing:
    return GroundRing(4)
