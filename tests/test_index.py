"""The divisibility index and the trusted constructor: ``minimalize`` against
the pairwise scan, index-backed membership against a scan of the
generators, the rank-compressed rows, and the lexsegment builders' outputs,
which skip minimalization, against the same generators minimalized."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dreglex.dlex import dlinear_lex_from_l, l_sequence, lexd, regularity_range
from dreglex.errors import RingMismatch
from dreglex.ideals import MonomialIdeal, lexify, minimalize, sq_lexify
from dreglex.koszul import koszul_betti
from dreglex.monomials import GroundRing, Monomial
from dreglex.squarefree import l_star, sq_dlinear_from_l_star, sq_lexd, sq_regularity_range
from tests.conftest import (
    random_monomial,
    random_monomial_ideal,
    random_sq_strongly_stable_set,
    random_squarefree_ideal,
    random_strongly_stable_ideal,
    random_strongly_stable_set,
    scan_minimalize,
)


@st.composite
def candidate_lists(draw):
    """n <= 6 and up to 14 exponent vectors with entries up to 5, the unit
    among them now and then, each repeated up to twice more."""
    n = draw(st.integers(1, 6))
    vectors = draw(st.lists(st.tuples(*[st.integers(0, 5)] * n), max_size=14))
    repeats = draw(st.lists(st.integers(0, 2), min_size=len(vectors), max_size=len(vectors)))
    gens = [Monomial(v) for v, r in zip(vectors, repeats) for _ in range(r + 1)]
    return GroundRing(n), draw(st.permutations(gens))


class TestMinimalize:
    @given(candidate_lists())
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_scan(self, case):
        ring, gens = case
        got = minimalize(ring, gens)
        assert got == scan_minimalize(ring, gens)
        assert minimalize(ring, got) == got

    @given(candidate_lists())
    @settings(max_examples=50, deadline=None)
    def test_ring_mismatch_message(self, case):
        ring, gens = case
        stranger = Monomial((1,) * (ring.num_vars + 1))
        with pytest.raises(RingMismatch) as expected:
            scan_minimalize(ring, gens + [stranger])
        with pytest.raises(RingMismatch, match=str(expected.value)):
            minimalize(ring, gens + [stranger])

    def test_multi_degree_chains(self):
        """Divisor chains across three or more degrees, where the divisor of
        a candidate may itself be redundant."""
        rng = random.Random(1401)
        for _ in range(200):
            n = rng.randint(1, 5)
            ring = GroundRing(n)
            gens = [random_monomial(rng, n, rng.randint(0, 6)) for _ in range(rng.randint(1, 25))]
            gens += [g.times_var(rng.randint(1, n)) for g in rng.sample(gens, len(gens) // 2)]
            assert minimalize(ring, gens) == scan_minimalize(ring, gens)


def scan_contains(I: MonomialIdeal, m: Monomial) -> bool:
    return any(g.divides(m) for g in I.gens)


class TestContains:
    def test_matches_generator_scan(self):
        """Random ideals and monomials up to two past every generator's
        exponent in each variable; the zero and the unit ideal too."""
        rng = random.Random(1403)
        above = 0
        for _ in range(150):
            n = rng.randint(1, 6)
            I = random_monomial_ideal(rng, n, 5, count=rng.randint(0, 8))
            top = [max((g.exponents[k] for g in I.gens), default=0) for k in range(n)]
            for _ in range(25):
                m = Monomial(tuple(rng.randint(0, t + 2) for t in top))
                assert I.contains(m) == scan_contains(I, m), (I, m)
                above += all(e > t for e, t in zip(m.exponents, top))
        assert above >= 100
        ring = GroundRing(3)
        assert not MonomialIdeal.zero(ring).contains(Monomial((4, 0, 2)))
        assert MonomialIdeal(ring, [ring.one()]).contains(ring.one())

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatch):
            MonomialIdeal(GroundRing(2), [Monomial((1, 0))]).contains(Monomial((1, 0, 0)))


class TestIndexRows:
    def test_large_exponent_rows_are_rank_compressed(self):
        N = 10**6
        I = MonomialIdeal(GroundRing(3), [Monomial((N, 0, 0)), Monomial((1, 1, 0)), Monomial((0, 3, 1))])
        values, masks = I.threshold_index()
        assert values == ((0, 1, N), (0, 1, 3), (0, 1))
        for k, (vals, row) in enumerate(zip(values, masks)):
            assert len(row) == len(vals) == len({0, *(g.exponents[k] for g in I.gens)})
        assert I.contains(Monomial((N, 0, 7))) and not I.contains(Monomial((N - 1, 0, 7)))

    def test_rows_against_direct_scan(self):
        rng = random.Random(1405)
        for _ in range(100):
            n = rng.randint(1, 6)
            I = random_monomial_ideal(rng, n, 6, count=rng.randint(1, 8))
            values, masks = I.threshold_index()
            assert I.threshold_index() is I.threshold_index()
            for k in range(n):
                assert values[k] == tuple(sorted({0, *(g.exponents[k] for g in I.gens)}))
                assert masks[k] == tuple(
                    sum(1 << i for i, g in enumerate(I.gens) if g.exponents[k] <= v) for v in values[k]
                )

    def test_oracle_reads_the_index(self):
        """The oracle's answer does not depend on who built the index first."""
        rng = random.Random(1407)
        for _ in range(30):
            I = random_monomial_ideal(rng, rng.randint(2, 4), 4, count=rng.randint(1, 5))
            if I.is_unit:
                continue
            fresh = MonomialIdeal(I.ring, I.gens)
            fresh.contains(I.ring.one())
            assert koszul_betti(fresh) == koszul_betti(MonomialIdeal(I.ring, I.gens))


def assert_trusted(J: MonomialIdeal) -> None:
    """J, built without minimalization, has a minimal generating set in
    canonical order: the same ideal through the minimalizing constructor."""
    again = MonomialIdeal(J.ring, J.gens)
    assert again.gens == J.gens, J


class TestTrustedBuilders:
    def test_lexify_and_dlex(self):
        rng = random.Random(1409)
        for _ in range(60):
            n = rng.randint(2, 4)
            I = random_monomial_ideal(rng, n, 3, count=rng.randint(1, 4))
            if I.is_zero or I.is_unit:
                continue
            assert_trusted(lexify(I))
            witnesses = regularity_range(I)
            for J in witnesses.values():
                assert_trusted(J)
            assert_trusted(lexd(I, max(witnesses) + 1))

    def test_dlinear_lex(self):
        rng = random.Random(1411)
        for _ in range(60):
            n, d = rng.randint(1, 5), rng.randint(1, 4)
            I = MonomialIdeal(GroundRing(n), random_strongly_stable_set(rng, n, d, seeds=rng.randint(1, 3)))
            assert_trusted(dlinear_lex_from_l(l_sequence(I), I.ring))
            J = random_strongly_stable_ideal(rng, n, 3)
            assert_trusted(lexd(J, max(regularity_range(J)) + rng.randint(0, 1)))

    def test_squarefree_builders(self):
        rng = random.Random(1413)
        cases = 0
        while cases < 60:
            n = rng.randint(3, 7)
            I = random_squarefree_ideal(rng, n, 3, count=rng.randint(1, 5))
            if I.is_zero or I.is_unit:
                continue
            assert_trusted(sq_lexify(I))
            witnesses = sq_regularity_range(I)
            for J in witnesses.values():
                assert_trusted(J)
            for d in range(min(witnesses), n + 1):
                assert_trusted(sq_lexd(I, d))
            d = rng.randint(1, min(3, n))
            V = MonomialIdeal(I.ring, random_sq_strongly_stable_set(rng, n, d, seeds=rng.randint(1, 3)))
            assert_trusted(sq_dlinear_from_l_star(l_star(V), V.ring))
            cases += 1
