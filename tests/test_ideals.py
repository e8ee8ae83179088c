"""Monomial ideals: minimal generators, Hilbert counting, predicates,
truncations, and the two classical lexifications."""

import itertools
import math
import random
import sys
import tracemalloc

import pytest

import dreglex.ideals
from dreglex.betti import ek_betti
from dreglex.errors import DomainError, FormatError
from dreglex.ideals import (
    MonomialIdeal,
    format_ideal,
    lexify,
    parse_ideal,
    sq_lex_layers,
    sq_lexify,
    squarefree_counts,
)
from dreglex.koszul import koszul_betti
from dreglex.monomials import GroundRing, Monomial, parse_monomial
from dreglex.squarefree import complex_from_ideal
from tests.conftest import (
    faces,
    is_lexsegment_set,
    is_sq_strongly_stable_all_moves,
    numerator_by_pivot_key,
    random_monomial,
    random_monomial_ideal,
    random_sq_strongly_stable_ideal,
    random_squarefree_ideal,
    random_squarefree_monomial,
    random_stable_ideal,
    random_strongly_stable_ideal,
    sq_lex_layers_by_shadow,
    sq_strongly_stable_closure,
    squarefree_slice,
    strongly_stable_closure,
    truncate_geq,
)
from tests.test_dlex import prefix_scan_lexify

R2 = GroundRing(2)
R4 = GroundRing(4)


def ideal(ring, *texts):
    return MonomialIdeal(ring, [parse_monomial(t, ring) for t in texts])


def gens_of(I):
    return [str(g) for g in I.gens]


def brute_slice(I, t):
    """Independent counting oracle: enumerate all exponent vectors of degree t
    and test divisibility against the generators directly."""
    n = I.ring.num_vars
    out = []
    for e in itertools.product(range(t + 1), repeat=n):
        if sum(e) != t:
            continue
        if any(all(g.exponents[k] <= e[k] for k in range(n)) for g in I.gens):
            out.append(e)
    return out


def slice_scan(I, closed, members_of):
    """The slice-scan definition of a closure predicate: every member of
    every degree from the min to the max generator degree stays in its slice
    under the moves ``closed`` allows."""
    if I.is_zero or I.is_unit:
        return True
    for t in range(I.min_gen_degree, I.max_gen_degree + 1):
        members = set(members_of(I, t))
        if not all(closed(m, members) for m in members):
            return False
    return True


def stable_by_slices(I):
    return slice_scan(
        I,
        lambda m, S: all(m.exchange(p, m.max_index) in S for p in range(1, m.max_index)),
        MonomialIdeal.degree_slice,
    )


def strongly_stable_by_slices(I):
    return slice_scan(
        I,
        lambda m, S: all(m.exchange(p, q) in S for q in m.support for p in range(1, q)),
        MonomialIdeal.degree_slice,
    )


def sq_strongly_stable_by_slices(I):
    return I.is_squarefree and slice_scan(
        I,
        lambda m, S: all(
            m.exchange(p, q) in S for q in m.support for p in range(1, q) if p not in m.support
        ),
        squarefree_slice,
    )


class TestMinimalize:
    def test_absorbs_multiples(self):
        assert gens_of(ideal(R4, "x1", "x1*x2")) == ["x1"]

    def test_incomparable_kept(self):
        assert gens_of(ideal(R4, "x1*x2", "x3*x4")) == ["x1*x2", "x3*x4"]

    def test_closure_union(self):
        R3 = GroundRing(3)
        V = strongly_stable_closure([parse_monomial("x1*x3", R3)])
        I = MonomialIdeal(R3, list(V) + [parse_monomial("x1^2*x2", R3)])
        assert gens_of(I) == ["x1^2", "x1*x2", "x1*x3"]

    def test_idempotent(self):
        rng = random.Random(2)
        for _ in range(30):
            I = random_monomial_ideal(rng, 4, 4)
            assert MonomialIdeal(I.ring, I.gens) == I


class TestHilbert:
    def test_spec_values(self):
        I = ideal(R4, "x1*x2", "x3*x4")
        assert I.hilbert(2) == 2
        assert I.hilbert(3) == 8
        assert I.hilbert(5) == 36

    def test_matches_enumeration_oracle(self):
        rng = random.Random(17)
        for _ in range(40):
            I = random_monomial_ideal(rng, rng.randint(2, 4), 3)
            for t in range(0, 6):
                assert I.hilbert(t) == len(brute_slice(I, t))

    def test_stable_fast_path_matches(self):
        rng = random.Random(19)
        for _ in range(30):
            I = random_strongly_stable_ideal(rng, rng.randint(2, 4), 4)
            if I.is_zero:
                continue
            assert I.is_stable()
            for t in range(0, 7):
                assert I.hilbert(t) == len(brute_slice(I, t))

    def test_zero_and_unit(self):
        assert MonomialIdeal.zero(R4).hilbert(3) == 0
        assert ideal(R4, "1").hilbert(2) == 10

    def test_non_stable_with_34_generators(self):
        # 34 incomparable generators on a non-stable ideal
        from dreglex.monomials import enumerate_degree

        R5 = GroundRing(5)
        gens = [m for m in enumerate_degree(R5, 3) if str(m) != "x1^3"]
        I = MonomialIdeal(R5, gens)
        assert len(I.gens) == 34
        assert not I.is_stable()
        assert I.hilbert(3) == 34
        assert I.hilbert(4) == 69  # every quartic except x1^4

    def test_matches_enumeration_past_twenty_generators(self):
        rng = random.Random(37)
        largest = 0
        for _ in range(25):
            n, d = rng.randint(4, 5), rng.randint(3, 4)
            gens = [random_monomial(rng, n, d) for _ in range(rng.randint(20, 60))]
            gens += [random_monomial(rng, n, d - 1) for _ in range(rng.randint(0, 2))]
            I = MonomialIdeal(GroundRing(n), gens)
            largest = max(largest, len(I.gens))
            for t in range(0, 6):
                assert I.hilbert(t) == len(brute_slice(I, t))
        assert largest > 20

    def test_numerator_is_koszul_k_polynomial(self):
        """The numerator of S/I equals the K-polynomial of the oracle's
        Betti diagram, term by term: its non-zero terms by degree."""
        rng = random.Random(41)
        for _ in range(30):
            I = random_monomial_ideal(rng, rng.randint(2, 5), 3, count=rng.randint(2, 6))
            D = koszul_betti(I)
            k_poly = {0: 1}
            for (i, j), v in D.entries.items():
                k_poly[j] = k_poly.get(j, 0) + (v if i % 2 else -v)
            assert I.numerator() == tuple(sorted((j, c) for j, c in k_poly.items() if c))
            for t in range(0, 8):
                assert I.hilbert_quotient(t) == D.hilbert_quotient(t)

    def test_numerator_never_ends_in_zero(self):
        """The numerator is its (degree, coefficient) terms, sorted by degree
        and with no zero term, so ideals with one Hilbert function read one
        tuple: an ideal and its lexification agree, although the latter's
        generators reach higher degrees."""
        assert MonomialIdeal.zero(R4).numerator() == ((0, 1),)
        assert ideal(R4, "1").numerator() == ()
        assert ideal(R4, "x1*x2", "x3*x4").numerator() == ((0, 1), (2, -2), (4, 1))
        rng = random.Random(43)
        checked = 0
        for _ in range(60):
            n = rng.randint(2, 4)
            I = random_monomial_ideal(rng, n, 4, count=rng.randint(2, 5))
            if I.is_zero or I.is_unit:
                continue
            for q in range(1, n + 1):
                for squarefree in (False, True):
                    N = I.numerator(q, squarefree)
                    assert all(c for _, c in N), (I, q, squarefree)
                    assert [k for k, _ in N] == sorted({k for k, _ in N}), (I, q, squarefree)
            assert I.numerator() == lexify(I).numerator(), I
            checked += 1
        assert checked >= 50

    def test_edge_ideal_past_the_enumeration_cap(self):
        # 21 edges in 8 variables; degree 21 has 1 184 040 monomials, and
        # the count needs no enumeration of them
        R8 = GroundRing(8)
        edges = "12 13 14 16 17 23 24 25 26 27 28 36 37 38 46 47 48 56 67 68 78".split()
        I = ideal(R8, *(f"x{a}*x{b}" for a, b in edges))
        assert len(I.gens) == 21
        # H(S/I, t) = sum_i f_i C(t - 1, i) over the Stanley-Reisner complex,
        # its faces listed from the facets rather than counted by the numerator
        sizes = [len(F) for F in faces(complex_from_ideal(I)) if F]
        quotient = sum(math.comb(20, k - 1) for k in sizes)
        assert I.hilbert_quotient(21) == quotient
        assert I.hilbert(21) == math.comb(28, 7) - quotient

    def test_staircase_deeper_than_the_recursion_limit(self):
        # every monomial of degree N in two variables: N pivot steps deep
        N = sys.getrecursionlimit() + 100
        I = MonomialIdeal(R2, [Monomial((k, N - k)) for k in range(N + 1)])
        assert I.hilbert(N - 1) == 0
        assert I.hilbert(N) == N + 1
        assert I.hilbert(N + 5) == N + 6

    def test_quotient(self):
        I = ideal(R4, "x1*x2", "x3*x4")
        assert I.hilbert_quotient(2) == 10 - 2

    def test_prefix_reads_equal_point_reads(self):
        """H(0..T) by running sums over the numerator equals the binomial
        sum of each degree, for the ideal and for the quotient."""
        rng = random.Random(53)
        ideals = [MonomialIdeal.zero(R4), ideal(R4, "1"), MonomialIdeal.zero(GroundRing(1)), ideal(R2, "x1^3", "x2^2")]
        ideals += [random_monomial_ideal(rng, rng.randint(1, 6), 5, count=rng.randint(1, 6)) for _ in range(80)]
        for I in ideals:
            assert I.hilbert_through(40) == tuple(I.hilbert(t) for t in range(41)), I
            assert I.hilbert_through(40, quotient=True) == tuple(I.hilbert_quotient(t) for t in range(41)), I
            assert I.hilbert_through(0) == (I.hilbert(0),)
        with pytest.raises(DomainError, match="negative degree -1"):
            ideals[-1].hilbert_through(-1)

    @pytest.mark.parametrize("t", [-1, -2, -5])
    def test_negative_degree_is_a_domain_error(self, t):
        """Every point read of the Hilbert function refuses a negative
        degree, the squarefree count included, which would otherwise sum no
        term and answer 0."""
        I = ideal(GroundRing(3), "x1^2", "x1*x2", "x2^3")
        D = koszul_betti(I)
        for read in (I.count, I.hilbert, I.hilbert_quotient, D.hilbert_quotient, lambda t: I.count(t, squarefree=True)):
            with pytest.raises(DomainError, match=f"^negative degree {t}$"):
                read(t)

    @pytest.mark.parametrize("q", [-1, 4, 5])
    def test_num_vars_out_of_range_is_a_domain_error(self, q):
        """A count or numerator in the first q variables refuses q outside
        0..n: q = -1 would reach math.comb's ValueError, and a q past n would
        slice the exponent vectors silently and count in a larger ring."""
        I = ideal(GroundRing(3), "x1^2", "x1*x2", "x2^3")
        for read in (lambda: I.count(2, q), lambda: I.count(2, q, squarefree=True), lambda: I.numerator(q)):
            with pytest.raises(DomainError, match=f"^num_vars {q} out of range 0..3$"):
                read()
        assert [I.count(2, k) for k in range(4)] == [0, 1, 2, 2]
        assert I.numerator(0) == ((0, 1),) and ideal(GroundRing(3), "1").numerator(0) == ()

    def test_huge_exponent_numerator_in_kilobytes(self):
        """The numerator holds one entry per term, not per degree: four for
        (x1^(10^7), x2^2).  A dense list of its 10^7 + 3 coefficients, with
        the copies the pivot step made, peaked near 245 MiB."""
        I = ideal(R2, f"x1^{10**7}", "x2^2")
        tracemalloc.start()
        try:
            assert I.count(3) == 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert I.numerator() == ((0, 1), (2, -1), (10**7, -1), (10**7 + 2, 1))

    def test_exponent_past_any_dense_list(self):
        # a dense numerator of this ideal would need 3 * 10^12 entries
        e = 2999999999999
        I = ideal(R2, f"x1^{e}", "x2^2")
        assert I.count(3) == 2 and I.count(e) == e and I.count(e + 2) == e + 3
        assert I.hilbert_through(4) == (0, 0, 1, 2, 3)
        assert I.numerator() == ((0, 1), (2, -1), (e, -1), (e + 2, 1))

    def test_pivot_steps_match_the_first_bookkeeping(self, monkeypatch):
        """The pivot step counts columns and picks the pivot more cheaply
        than the reference does, but takes the same pivots: the same
        recursive calls in the same order, and the same numerator."""
        calls = []
        real = dreglex.ideals._numerator
        monkeypatch.setattr(dreglex.ideals, "_numerator", lambda gens: calls.append(tuple(gens)) or real(gens))
        cases = [
            [(0, 0, 0)],  # the unit generator
            [(0, 1, 0)],  # a lone variable
            [(1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0), (0, 1, 0, 1)],  # every count 2
            [(0, 2, 1), (1, 1, 0), (1, 0, 2), (0, 1, 1)],  # x2 and x3 tie behind x1's 2
            [(10**6, 0)],
        ]
        rng = random.Random(59)
        for _ in range(2000):
            n = rng.randint(1, 8)
            gens = [Monomial(tuple(rng.choice((0, 0, 1, 2, 3, 4)) for _ in range(n))) for _ in range(rng.randint(1, 8))]
            cases.append([g.exponents for g in MonomialIdeal(GroundRing(n), gens).gens])
        ties = 0
        for gens in cases:
            calls.clear()
            reference_calls = []
            terms = tuple(sorted(term for term in dreglex.ideals._numerator(list(gens)).items() if term[1]))
            assert terms == numerator_by_pivot_key(list(gens), reference_calls), gens
            assert calls == reference_calls, gens
            counts = [sum(map(bool, column)) for column in zip(*gens)]
            ties += counts.count(max(counts)) > 1 and max(counts) > 1
        assert len(cases) >= 2000 and ties >= 200

    def test_degree_slice_sizes(self):
        I = ideal(R4, "x1*x2", "x3*x4")
        assert [len(I.degree_slice(t)) for t in (2, 3, 5)] == [2, 8, 36]


class TestPredicates:
    def test_strongly_stable_example(self):
        assert ideal(R2, "x1^2", "x1*x2", "x2^3").is_strongly_stable()

    def test_not_stable(self):
        assert not ideal(R4, "x1*x2", "x3*x4").is_stable()

    def test_lexsegment_example(self):
        assert ideal(R4, "x1^2", "x1*x2").is_lexsegment()
        assert not ideal(R4, "x1^2", "x1*x3").is_lexsegment()

    def test_lexsegment_through_degree(self):
        # prefix slices in degrees 1..2, but the degree-3 slice has a gap
        I = ideal(R4, "x1^2", "x1*x2", "x2^4")
        assert I.is_lexsegment(through_degree=2)
        assert not I.is_lexsegment(through_degree=4)
        assert not I.is_lexsegment()

    def test_stable_not_strongly_stable(self):
        # max-exchange closure of x2^2*x3; the interior exchange x1*x2*x3 is missing
        I = ideal(GroundRing(3), "x2^2*x3", "x1*x2^2", "x2^3", "x1^2*x2", "x1^3")
        assert I.is_stable()
        assert not I.is_strongly_stable()

    def test_squarefree(self):
        assert ideal(R4, "x1*x2", "x3*x4").is_squarefree
        assert not ideal(R4, "x1^2").is_squarefree

    def test_generator_checks_match_slice_scans(self):
        rng = random.Random(43)
        seen = {"stable": set(), "strongly_stable": set(), "sq": set()}
        for _ in range(150):
            n = rng.randint(2, 5)
            I = rng.choice([
                lambda: random_monomial_ideal(rng, n, 3),
                lambda: random_stable_ideal(rng, n, 3),
                lambda: random_strongly_stable_ideal(rng, n, 3),
                lambda: random_squarefree_ideal(rng, n, 3),
                lambda: random_sq_strongly_stable_ideal(rng, n, 3),
            ])()
            for key, by_gens, by_slices in (
                ("stable", I.is_stable, stable_by_slices),
                ("strongly_stable", I.is_strongly_stable, strongly_stable_by_slices),
                ("sq", I.is_squarefree_strongly_stable, sq_strongly_stable_by_slices),
            ):
                verdict = by_gens()
                assert verdict == by_slices(I), (key, I)
                seen[key].add(verdict)
        # both verdicts occur for each predicate
        assert all(v == {True, False} for v in seen.values())

    def test_squarefree_adjacent_moves_match_all_moves(self):
        # the squarefree predicate tests x_q -> x_(q-1) only onto a free
        # x_(q-1); the reference tests every p < q outside the support.
        # Seeds have gapped supports; a third of the ideals are closed under
        # the moves, a third are closures less one member (near misses)
        rng = random.Random(26)
        verdicts = []
        for k in range(2400):
            n = rng.randint(2, 7)
            seeds = [random_squarefree_monomial(rng, n, rng.randint(1, n)) for _ in range(rng.randint(1, 6))]
            gens = set(seeds) if k % 3 == 0 else sq_strongly_stable_closure(seeds)
            if k % 3 == 2 and len(gens) > 1:
                gens.remove(rng.choice(sorted(gens, key=lambda m: m.exponents)))
            I = MonomialIdeal(GroundRing(n), gens)
            verdict = I.is_squarefree_strongly_stable()
            assert verdict == is_sq_strongly_stable_all_moves(I), I
            verdicts.append(verdict)
        assert verdicts[1::3] == [True] * 800
        assert verdicts.count(False) > 400 and verdicts[2::3].count(False) > 100

    def test_squarefree_move_below_a_full_run(self):
        # x2*x3: x3 -> x2 is blocked, and x2 -> x1 gives x1*x3, not in I
        I = ideal(GroundRing(3), "x2*x3")
        assert not I.is_squarefree_strongly_stable()
        assert not is_sq_strongly_stable_all_moves(I)

    def test_squarefree_predicate_tests_free_adjacent_moves_only(self, monkeypatch):
        # SqLex of the 12-cycle, 199 generators: one membership test per
        # q > 1 in supp(u) with x_(q-1) outside it, 549 in all; testing every
        # p < q outside the support made 3672
        n = 12
        ring = GroundRing(n)
        cycle = MonomialIdeal(ring, [parse_monomial(f"x{i}*x{i % n + 1}", ring) for i in range(1, n + 1)])
        I = MonomialIdeal(ring, sq_lexify(cycle).gens)
        tested = []
        contains = MonomialIdeal.contains
        monkeypatch.setattr(MonomialIdeal, "contains", lambda self, m: tested.append(m) or contains(self, m))
        assert I.is_squarefree_strongly_stable()
        moves = sum(1 for u in I.gens for q in u.support if q > 1 and not u.exponents[q - 2])
        assert (len(I.gens), moves, len(tested)) == (199, 549, 549)


class TestTruncations:
    """The degree->=k truncation the regularity tests build on."""

    def test_geq_example(self):
        I = ideal(R2, "x1", "x2^2")
        assert gens_of(truncate_geq(I, 2)) == ["x1^2", "x1*x2", "x2^2"]

    def test_geq_at_generation_degree(self):
        I = ideal(R4, "x1*x2", "x3*x4")
        assert truncate_geq(I, 2) == I

    def test_geq_slice(self):
        I = ideal(R4, "x1*x2", "x3*x4")
        J = truncate_geq(I, 3)
        assert len(J.gens) == 8
        assert all(g.degree == 3 for g in J.gens)


class TestLexify:
    def test_fixpoint_on_lexsegment(self):
        I = ideal(R4, "x1^2", "x1*x2")
        assert lexify(I) == I

    def test_running_example_reaches_degree_six(self):
        L = lexify(ideal(R4, "x1*x2", "x3*x4"))
        assert L.max_gen_degree == 6

    def test_reg17_case(self):
        R5 = GroundRing(5)
        I = ideal(R5, "x1^2", "x1*x2", "x1*x3", "x1*x4", "x2^2", "x2*x3^3", "x3^4")
        L = lexify(I)
        assert ek_betti(L).regularity() == 17
        assert len(L.gens) == 38

    def test_hilbert_preserved_and_lexsegment(self):
        rng = random.Random(23)
        for _ in range(25):
            I = random_monomial_ideal(rng, rng.randint(2, 4), 4)
            if I.is_zero or I.is_unit:
                continue
            L = lexify(I)
            assert L.is_lexsegment()
            top = L.max_gen_degree + I.ring.num_vars
            for t in range(top + 1):
                assert L.hilbert(t) == I.hilbert(t)

    def test_is_lexsegment_matches_slice_scan(self):
        # the generator comparison against the definition: every degree
        # slice through T is a lex prefix
        rng = random.Random(47)
        seen = set()
        for _ in range(60):
            I = random_monomial_ideal(rng, rng.randint(2, 4), 3)
            if I.is_zero or I.is_unit:
                continue
            for J in (I, lexify(I), lexify(I) + I):
                for T in (1, J.max_gen_degree, J.max_gen_degree + 2):
                    verdict = J.is_lexsegment(through_degree=T)
                    assert verdict == all(is_lexsegment_set(J.degree_slice(t)) for t in range(1, T + 1)), (J, T)
                    seen.add(verdict)
        assert seen == {True, False}

    def test_ends_where_hilbert_function_says(self):
        # no degree cap: Lex(I) here ends in degree 81
        I = ideal(GroundRing(3), "x1^9", "x2^9")
        L = lexify(I)
        assert L.max_gen_degree == 81
        assert len(L.gens) == 130
        assert L == prefix_scan_lexify(I)

    def test_unit_rejected(self):
        with pytest.raises(DomainError):
            lexify(ideal(R4, "1"))

    def test_betti_dominance(self):
        """The lexsegment ideal has entrywise-maximal Betti numbers; checked
        against the exact oracle on the original ideal."""
        rng = random.Random(29)
        checked = 0
        for _ in range(30):
            I = random_monomial_ideal(rng, rng.randint(2, 4), 3)
            if I.is_zero or I.is_unit:
                continue
            L = lexify(I)
            assert ek_betti(L).dominates(koszul_betti(I))
            checked += 1
        assert checked >= 20


class TestSqLexify:
    def test_fixpoint(self):
        I = ideal(GroundRing(2), "x1*x2")
        assert sq_lexify(I) == I

    def test_section4_example(self):
        R6 = GroundRing(6)
        I = ideal(R6, "x1*x3*x5", "x1*x3*x6", "x1*x4*x6", "x2*x4*x6")
        expected = ideal(
            R6,
            "x1*x2*x3", "x1*x2*x4", "x1*x2*x5", "x1*x2*x6",
            "x1*x3*x4*x5", "x1*x3*x4*x6", "x1*x3*x5*x6", "x2*x3*x4*x5*x6",
        )
        assert sq_lexify(I) == expected

    def test_squarefree_counts_preserved(self):
        from tests.conftest import random_squarefree_ideal, sq_prefix

        rng = random.Random(31)
        for _ in range(40):
            I = random_squarefree_ideal(rng, rng.randint(2, 6), 4)
            if I.is_zero or I.is_unit:
                continue
            L = sq_lexify(I)
            n = I.ring.num_vars
            for t in range(n + 1):
                slice_ = squarefree_slice(L, t)
                assert len(slice_) == len(squarefree_slice(I, t))
                # each squarefree slice is an initial segment
                assert slice_ == sq_prefix(I.ring, t, len(slice_))
            # full Hilbert functions agree as well
            for t in range(n + 3):
                assert L.hilbert(t) == I.hilbert(t)

    def test_non_squarefree_rejected(self):
        with pytest.raises(DomainError):
            sq_lexify(ideal(R4, "x1^2"))

    def test_unit_rejected(self):
        with pytest.raises(DomainError, match="unit ideal"):
            sq_lexify(ideal(R4, "1"))
        assert sq_lexify(MonomialIdeal.zero(R4)).is_zero

    def test_layers_match_shadow_reference(self):
        # rank-built layers through phi against prefixes and whole upper
        # shadows built as sets
        rng = random.Random(1105)
        for _ in range(400):
            n = rng.randint(1, 8)
            I = random_squarefree_ideal(rng, n, n, count=rng.randint(1, 6))
            sizes = squarefree_counts(I)[1:]
            assert list(sq_lex_layers(I.ring, sizes)) == list(sq_lex_layers_by_shadow(I.ring, sizes))

    def test_growth_error_on_the_same_size_pairs(self):
        # every pair of slice sizes (s1, s2) in consecutive degrees t, t + 1,
        # one past the ring's range included, for n <= 5
        fired = 0
        for n in range(2, 6):
            ring = GroundRing(n)
            for t in range(1, n):
                for s1 in range(math.comb(n, t) + 2):
                    for s2 in range(math.comb(n, t + 1) + 2):
                        sizes = [0] * (t - 1) + [s1, s2]
                        got = _layers_or_error(sq_lex_layers, ring, sizes)
                        assert got == _layers_or_error(sq_lex_layers_by_shadow, ring, sizes), (n, t, s1, s2)
                        fired += got is DomainError
        assert fired > 0


def _layers_or_error(layers, ring, sizes):
    try:
        return list(layers(ring, sizes))
    except DomainError:
        return DomainError


class TestSquarefreeCounts:
    def test_match_squarefree_slice(self):
        # the f-vector transform of the squarefree generators' numerator
        # against the scan of all C(n, t) supports
        rng = random.Random(67)
        ideals = [MonomialIdeal.zero(R4), ideal(R4, "1"), ideal(R4, "x1^2", "x2^3*x3")]
        for _ in range(120):
            n = rng.randint(1, 8)
            if rng.random() < 0.5:
                ideals.append(random_monomial_ideal(rng, n, 4, count=rng.randint(1, 6)))
            else:
                ideals.append(random_squarefree_ideal(rng, n, 4, count=rng.randint(1, 6)))
        assert sum(not I.is_squarefree for I in ideals) > 30
        for I in ideals:
            n = I.ring.num_vars
            assert squarefree_counts(I) == tuple(len(squarefree_slice(I, t)) for t in range(n + 1)), I


class TestFileFormat:
    def test_roundtrip(self):
        I = ideal(R4, "x1^2", "x1*x2", "x2^3")
        assert parse_ideal(format_ideal(I)) == I

    def test_zero_ideal(self):
        assert parse_ideal("n=3\n") == MonomialIdeal.zero(GroundRing(3))

    def test_comments_and_blank_lines(self):
        text = "n=4\n# generated\nx1*x2\n\nx3*x4  # tail\n"
        assert parse_ideal(text) == ideal(R4, "x1*x2", "x3*x4")

    def test_errors(self):
        with pytest.raises(FormatError):
            parse_ideal("")
        with pytest.raises(FormatError):
            parse_ideal("m=4\nx1\n")
        with pytest.raises(FormatError):
            parse_ideal("n=4\ny1\n")
