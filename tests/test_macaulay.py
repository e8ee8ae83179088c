"""Binomial calculus: representations, shift operators, admissibility."""

import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dreglex.errors import DomainError, FormatError
from dreglex.ideals import MonomialIdeal
from dreglex.macaulay import (
    HilbertSpec,
    admissible_ideal,
    admissible_quotient,
    down,
    format_hilbert,
    is_m_vector,
    macaulay_rep,
    parse_hilbert,
    up,
)
from dreglex.monomials import GroundRing, count_monomials, enumerate_degree, lex_prefix


def brute_macaulay_rep(a, d):
    """Independent oracle: exhaustive search over strictly-decreasing binomial
    term sequences with lower indices stepping down from d."""
    for j in range(d, 0, -1):
        tops_ranges = []
        # bound each top loosely; sums are tiny for the oracle sizes
        for i in range(d, j - 1, -1):
            tops_ranges.append(range(i, a + d + 1))
        for tops in itertools.product(*tops_ranges):
            if any(tops[k] <= tops[k + 1] for k in range(len(tops) - 1)):
                continue
            terms = list(zip(tops, range(d, j - 1, -1)))
            if any(t < i for t, i in terms):
                continue
            if sum(comb(t, i) for t, i in terms) == a:
                return tuple(terms)
    return None


class TestMacaulayRep:
    @pytest.mark.parametrize(
        "a,d,expected",
        [
            (6, 2, ((4, 2),)),
            (8, 3, ((4, 3), (3, 2), (1, 1))),
            (1, 1, ((1, 1),)),
        ],
    )
    def test_known_values(self, a, d, expected):
        assert macaulay_rep(a, d).terms == expected
        assert brute_macaulay_rep(a, d) == expected

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            macaulay_rep(0, 2)

    def test_matches_bruteforce(self):
        for a in range(1, 25):
            for d in range(1, 4):
                assert macaulay_rep(a, d).terms == brute_macaulay_rep(a, d)

    def test_roundtrip(self):
        for a in range(1, 5001):
            for d in range(1, 9):
                rep = macaulay_rep(a, d)
                assert rep.value() == a
                tops = [t for t, _ in rep.terms]
                lows = [i for _, i in rep.terms]
                assert tops == sorted(tops, reverse=True) and len(set(tops)) == len(tops)
                assert lows == list(range(d, d - len(lows), -1))
                assert all(t >= i for t, i in rep.terms)

    def test_large_values(self):
        # a up to 10^30 in degrees up to 12, tops up to 10^30 (degree 1); the
        # representation is unique, so these conditions pin it
        rng = random.Random(20)
        cases = [(10**30, d) for d in range(1, 13)]
        cases += [(rng.randint(1, min(2 ** rng.randint(1, 100), 10**30)), rng.randint(1, 12)) for _ in range(3000)]
        for a, d in cases:
            rep = macaulay_rep(a, d)
            assert rep.value() == a
            tops = [t for t, _ in rep.terms]
            assert all(s > t for s, t in zip(tops, tops[1:]))
            assert all(t >= i for t, i in rep.terms)
            assert [i for _, i in rep.terms] == list(range(d, d - len(tops), -1))


class TestLargeValuesWork:
    """The greedy expansion behind macaulay_rep, up and lex_prefix takes
    O(log) binomials a term; raising a top, or unranking a degree, one step
    at a time takes 10^12 or 10^6 steps on these inputs."""

    def test_macaulay_rep_of_a_trillion(self, comb_budget):
        assert macaulay_rep(10**12, 1).terms == ((10**12, 1),)
        assert comb_budget() < 100

    def test_up_and_down_of_a_trillion(self, comb_budget):
        assert up(10**12, 1) == 10**12 + 1
        assert down(10**12, 1) == comb(10**12 + 1, 2)
        assert comb_budget() < 200

    def test_lex_prefix_in_degree_a_million(self, comb_budget):
        ring, degree = GroundRing(6), 10**6
        for r in (count_monomials(6, degree) // 3, count_monomials(6, degree) - 1, 12345):
            (m,) = lex_prefix(ring, degree, r + 1, start=r)
            assert m.degree == degree
        assert comb_budget() < 1000


class TestShiftOperators:
    def test_zero_conventions(self):
        for d in range(1, 6):
            assert up(0, d) == 0
            assert down(0, d) == 0

    @pytest.mark.parametrize("a,d,expected", [(6, 2, 10), (8, 3, 18)])
    def test_up_values(self, a, d, expected):
        assert up(a, d) == expected

    @pytest.mark.parametrize("a,d,expected", [(6, 2, 10), (8, 3, 10)])
    def test_down_values(self, a, d, expected):
        assert down(a, d) == expected

    def test_up_is_lex_span_size(self):
        """up(a, n-1) is exactly the size of the next-degree span of the
        lexsegment of size a, by direct monomial enumeration."""
        for n in range(2, 5):
            ring = GroundRing(n)
            for d in range(1, 5):
                total = len(enumerate_degree(ring, d))
                for a in range(0, total + 1):
                    L = lex_prefix(ring, d, a)
                    span = {m.times_var(i) for m in L for i in range(1, n + 1)}
                    assert len(span) == up(a, n - 1)

    @given(st.integers(0, 400), st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_monotone(self, a, d):
        assert up(a + 1, d) >= up(a, d)
        assert down(a + 1, d) >= down(a, d)


class TestMVector:
    def test_examples(self):
        assert is_m_vector((1, 3, 3, 1))
        assert not is_m_vector((2, 1))
        assert not is_m_vector((1, 0, 1))

    def test_zero_tail_allowed(self):
        assert is_m_vector((1, 4, 0, 0))

    def test_quotient_realizability(self):
        """Sanity against the defining property: the quotient Hilbert function
        of any lexsegment ideal is an M-vector."""
        from dreglex.monomials import count_monomials

        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(1, 3)
            ring = GroundRing(n)
            gens = lex_prefix(ring, 2, rng.randint(0, count_monomials(n, 2)))
            I = MonomialIdeal(ring, gens)
            vec = tuple(I.hilbert_quotient(t) for t in range(5))
            assert is_m_vector(vec)


class TestAdmissibility:
    def test_polynomial_ring_quotient(self):
        H = HilbertSpec(2, (1, 2, 3, 4, 5), "quotient")
        assert admissible_quotient(H)

    def test_ideal_side_wrong_start(self):
        H = HilbertSpec(3, (1, 1), "ideal")
        assert not admissible_ideal(H)

    def test_quotient_growth_violation(self):
        assert not admissible_quotient(HilbertSpec(4, (1, 4, 11), "quotient"))

    def test_role_enforced(self):
        with pytest.raises(DomainError):
            admissible_quotient(HilbertSpec(2, (0, 1), "ideal"))

    def test_ideal_side_matches_enumeration(self):
        """Oracle equivalence: the ideal-side growth window accepted by the
        formula matches what actual lexsegment spans realize."""
        for n in range(2, 5):
            ring = GroundRing(n)
            for d in range(1, 5):
                total = len(enumerate_degree(ring, d))
                for a in range(0, total + 1):
                    L = lex_prefix(ring, d, a)
                    span_size = len({m.times_var(i) for m in L for i in range(1, n + 1)})
                    values = [0] * d + [a, span_size]
                    assert admissible_ideal(HilbertSpec(n, tuple(values), "ideal"))
                    # minimal growth accepted, anything smaller rejected
                    if span_size > 0:
                        bad = [0] * d + [a, span_size - 1]
                        assert not admissible_ideal(HilbertSpec(n, tuple(bad), "ideal"))


class TestHilbertFile:
    def test_roundtrip(self):
        H = HilbertSpec(4, (0, 0, 2, 8, 19), "ideal")
        assert parse_hilbert(format_hilbert(H)) == H

    def test_parse_errors(self):
        with pytest.raises(FormatError):
            parse_hilbert("")
        with pytest.raises(FormatError):
            parse_hilbert("n=4\n1\n2\n")
        with pytest.raises(FormatError):
            parse_hilbert("n=x role=ideal\n0\n")
        with pytest.raises(FormatError):
            parse_hilbert("n=4 role=ideal\n0\n-3\n")

    @pytest.mark.parametrize("header", [
        "n=2 n=3 role=ideal", "n=3 role=ideal role=quotient", "n=3 role=ideal n", "n=3 role=ideal x=1", "n=3",
    ])
    def test_header_needs_exactly_n_and_role(self, header):
        with pytest.raises(FormatError, match="bad Hilbert header"):
            parse_hilbert(f"{header}\n0\n1\n")
