"""The d-regular lexsegment machinery: counts, constructions, the
characterization theorem, and regularity ranges."""

import itertools
import random
from fractions import Fraction

import pytest

from dreglex import dlex, koszul
from dreglex.betti import ek_betti
from dreglex.dlex import (
    LSequence,
    characterize,
    characterize_exact,
    dlex_from_hilbert,
    dlinear_lex_from_l,
    hilbert_from_l,
    is_admissible_l,
    l_from_hilbert_tail,
    l_sequence,
    lexd,
    regularity,
    regularity_range,
)
from dreglex.errors import DomainError
from dreglex.ideals import MonomialIdeal, lexify
from dreglex.koszul import koszul_betti
from dreglex.macaulay import HilbertSpec, binom, up
from dreglex.monomials import GroundRing, Monomial, iter_degree_desc, parse_monomial
from dreglex.squarefree import _l_star_from_counts
from tests.conftest import (
    is_dlinear_lex,
    is_lexsegment_set,
    lex_desc,
    random_monomial_ideal,
    random_strongly_stable_ideal,
    random_strongly_stable_set,
    strongly_stable_closure,
    truncate_geq,
)

R3 = GroundRing(3)
R4 = GroundRing(4)


def ideal(ring, *texts):
    return MonomialIdeal(ring, [parse_monomial(t, ring) for t in texts])


def mset(ring, *texts):
    return lex_desc(parse_monomial(t, ring) for t in texts)


V_EX1 = mset(R4, "x1^3", "x1^2*x2", "x1*x2^2", "x2^3", "x1^2*x3", "x1*x2*x3", "x2^2*x3", "x1^2*x4")
RUNNING = ideal(R4, "x1*x2", "x3*x4")


def hspec_of(I, d):
    n = I.ring.num_vars
    return HilbertSpec(n, tuple(I.hilbert(t) for t in range(d + n)), "ideal")


class TestLSequence:
    def test_example_counts(self):
        I = MonomialIdeal(R4, V_EX1)
        assert l_sequence(I).entries == (1, 3, 3, 1)

    def test_principal_power(self):
        assert l_sequence(ideal(R4, "x1^3")).entries == (1, 0, 0, 0)

    def test_closure_of_x1x3(self):
        V = strongly_stable_closure(mset(R3, "x1*x3"))
        assert l_sequence(MonomialIdeal(R3, V)).entries == (1, 1, 1)

    def test_mixed_degrees_rejected(self):
        with pytest.raises(DomainError):
            l_sequence(ideal(R4, "x1", "x2^2"))

    def test_non_strongly_stable_rejected(self):
        with pytest.raises(DomainError):
            l_sequence(ideal(R4, "x2^2"))


class TestAdmissibility:
    def test_witnessed_sequence(self):
        assert is_admissible_l(LSequence((1, 3, 3, 1), 3))

    def test_second_entry_bound(self):
        assert not is_admissible_l(LSequence((1, 4, 0, 0), 3))

    def test_leading_one_required(self):
        assert not is_admissible_l(LSequence((0, 1, 0, 0), 3))

    def test_matches_realizability(self):
        """Admissible sequences are exactly the count vectors of strongly
        stable degree-d sets (sampled both ways)."""
        rng = random.Random(101)
        for _ in range(80):
            n, d = rng.randint(2, 4), rng.randint(1, 4)
            V = random_strongly_stable_set(rng, n, d)
            assert is_admissible_l(l_sequence(MonomialIdeal(GroundRing(n), V)))
        for _ in range(80):
            n, d = rng.randint(2, 4), rng.randint(1, 3)
            entries = tuple(rng.randint(0, 4) for _ in range(n))
            l = LSequence(entries, d)
            if is_admissible_l(l):
                J = dlinear_lex_from_l(l, GroundRing(n))
                assert l_sequence(J).entries == entries


class TestDLinearConstruction:
    def test_principal(self):
        l = LSequence((1, 0, 0, 0), 5)
        assert dlinear_lex_from_l(l, R4) == ideal(R4, "x1^5")

    def test_three_slots(self):
        J = dlinear_lex_from_l(LSequence((1, 2, 1), 2), R3)
        assert J == ideal(R3, "x1^2", "x1*x2", "x2^2", "x1*x3")
        assert J.is_strongly_stable()

    def test_ex1_counts(self):
        J = dlinear_lex_from_l(LSequence((1, 3, 3, 1), 3), R4)
        expected = mset(
            R4,
            "x1^3", "x1^2*x2", "x1*x2^2", "x2^3", "x1^2*x3", "x1*x2*x3", "x1*x3^2", "x1^2*x4",
        )
        assert set(J.gens) == set(expected)
        assert is_dlinear_lex(J.gens)
        # unique with these counts: exhaustive search over d-linear subsets
        found = self._search_dlinear(R4, 3, (1, 3, 3, 1))
        assert found == [set(expected)]

    @staticmethod
    def _search_dlinear(ring, d, counts):
        """Brute-force uniqueness oracle: enumerate all unions of per-slot lex
        prefixes with the given sizes and keep the d-linear lexsegment ones."""
        from dreglex.monomials import lex_prefix

        # d-linear lexsegment sets are unions of x_k * (lex prefix in k vars);
        # sizes are forced, so at most one candidate can exist
        gens = []
        for k, size in enumerate(counts, start=1):
            gens.extend(m.times_var(k) for m in lex_prefix(ring, d - 1, size, max_var=k))
        return [set(gens)] if is_dlinear_lex(gens) else []

    def test_inadmissible_rejected(self):
        with pytest.raises(DomainError):
            dlinear_lex_from_l(LSequence((1, 4, 0), 3), R3)

    def test_oversized_slot_rejected(self):
        with pytest.raises(DomainError):
            dlinear_lex_from_l(LSequence((2, 0, 0), 2), R3)


class TestExhaustiveSmallWorlds:
    @staticmethod
    def all_strongly_stable_subsets(n, d):
        """Every strongly stable subset of the degree-d monomials, by closing
        each subset of the (few) closure generators: strongly stable sets are
        exactly the unions of closures of their members."""
        from dreglex.monomials import enumerate_degree

        ring = GroundRing(n)
        members = list(enumerate_degree(ring, d))
        closures = [frozenset(strongly_stable_closure([m])) for m in members]
        seen = set()
        out = []
        frontier = [frozenset()]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            out.append(current)
            for c in closures:
                nxt = current | c
                if nxt not in seen:
                    frontier.append(nxt)
        return ring, out

    def test_admissibility_is_exactly_realizability(self):
        """Exhaustive: over every strongly stable subset in small worlds, the
        realized count vectors are precisely the admissible ones."""
        from dreglex.macaulay import binom

        for n, d in ((2, 2), (2, 4), (3, 2), (3, 3)):
            ring, subsets = self.all_strongly_stable_subsets(n, d)
            realized = set()
            for s in subsets:
                if s:
                    realized.add(l_sequence(MonomialIdeal(ring, s)).entries)
            bounds = [binom(k + d - 2, d - 1) for k in range(1, n + 1)]
            for entries in _grid(bounds):
                l = LSequence(entries, d)
                assert is_admissible_l(l) == (entries in realized), (n, d, entries)

    def test_characterization_matches_class_minimum_exhaustively(self):
        """Complete world: every monomial ideal of two variables generated in
        degrees <= 4 (staircases there have at most five minimal generators).
        The verdict, given enough Hilbert values to pin the function, must
        accept exactly the classes whose minimal achievable regularity is
        <= d; the exact variant must accept the regularities the witness
        sweep actually achieves."""
        import itertools

        from dreglex.monomials import enumerate_degree

        ring = GroundRing(2)
        monomials = [m for t in (1, 2, 3, 4) for m in enumerate_degree(ring, t)]
        world = set()
        for r in range(1, 6):
            for combo in itertools.combinations(monomials, r):
                I = MonomialIdeal(ring, combo)
                if not I.is_zero and not I.is_unit:
                    world.add(I)
        # ideals sharing H through degree 8 share it everywhere here:
        # both functions are polynomial past their regularity (<= 5)
        top = 8
        classes: dict[tuple[int, ...], list] = {}
        for I in world:
            vec = tuple(I.hilbert(t) for t in range(top + 1))
            classes.setdefault(vec, []).append(regularity(I))
        assert len(world) == 130 and len(classes) == 42  # the complete world
        for vec, regs in classes.items():
            min_reg = min(regs)
            H = HilbertSpec(2, vec, "ideal")
            rep = next(I for I in world if tuple(I.hilbert(t) for t in range(top + 1)) == vec and regularity(I) == min_reg)
            max_reg = ek_betti(lexify(rep)).regularity()
            for d in range(1, top - 1):
                verdict = characterize(H, d)
                assert verdict.admissible == (min_reg <= d), (vec, d, min_reg)
                exact = characterize_exact(H, d)
                assert exact.admissible == (min_reg <= d <= max_reg), (vec, d, min_reg, max_reg)


def _grid(bounds):
    import itertools

    return itertools.product(*(range(b + 1) for b in bounds))


class TestDLinearPredicate:
    def test_paper_examples(self):
        L = mset(R3, "x1^3", "x1^2*x2", "x1*x2^2", "x2^3", "x1^2*x3")
        assert is_dlinear_lex(L)
        assert not is_dlinear_lex(V_EX1)  # its top slice is not a lex prefix
        assert is_dlinear_lex(())


class TestHilbertFromCounts:
    def test_at_generation_degree(self):
        l = LSequence((1, 3, 3, 1), 3)
        assert hilbert_from_l(l, 4, 3) == 8

    def test_one_step_up(self):
        l = LSequence((1, 3, 3, 1), 3)
        assert hilbert_from_l(l, 4, 4) == 20
        # enumeration oracle on the witness set
        I = MonomialIdeal(R4, V_EX1)
        assert I.hilbert(4) == 20

    def test_principal(self):
        l = LSequence((1, 0, 0, 0), 2)
        for m in range(5):
            assert hilbert_from_l(l, 4, 2 + m) == binom(3 + m, 3)

    def test_below_degree_rejected(self):
        with pytest.raises(DomainError):
            hilbert_from_l(LSequence((1, 0), 3), 2, 2)


class TestTailInversion:
    def test_ex1_tail(self):
        # 38 and 63 computed by the independent enumeration oracle below
        H = HilbertSpec(4, (0, 0, 0, 8, 20, 38, 63), "ideal")
        assert l_from_hilbert_tail(H, 3).entries == (1, 3, 3, 1)
        I = MonomialIdeal(R4, V_EX1)
        assert (I.hilbert(5), I.hilbert(6)) == (38, 63)
        import itertools

        for t, expected in ((5, 38), (6, 63)):
            count = 0
            for e in itertools.product(range(t + 1), repeat=4):
                if sum(e) == t and any(g.divides(R4.monomial(e)) for g in I.gens):
                    count += 1
            assert count == expected

    def test_principal_tail(self):
        I = ideal(R4, "x1^2")
        H = hspec_of(I, 2)
        assert l_from_hilbert_tail(H, 2).entries == (1, 0, 0, 0)

    def test_decreasing_tail_rejected(self):
        H = HilbertSpec(2, (0, 1, 0), "ideal")
        with pytest.raises(DomainError):
            l_from_hilbert_tail(H, 1)

    def test_roundtrip(self):
        rng = random.Random(103)
        for _ in range(60):
            n, d = rng.randint(2, 4), rng.randint(1, 4)
            V = random_strongly_stable_set(rng, n, d)
            I = MonomialIdeal(GroundRing(n), V)
            H = hspec_of(I, d)
            assert l_from_hilbert_tail(H, d).entries == l_sequence(I).entries


class TestDlexFromHilbert:
    def test_running_example_d4(self):
        J = dlex_from_hilbert(hspec_of(RUNNING, 4), 4)
        assert J == ideal(R4, "x1^2", "x1*x2", "x1*x3^2", "x2^4")

    def test_running_example_d5(self):
        J = dlex_from_hilbert(hspec_of(RUNNING, 5), 5)
        assert J == ideal(R4, "x1^2", "x1*x2", "x1*x3^2", "x1*x3*x4^2", "x2^5", "x2^4*x3")

    def test_principal_unique(self):
        I = ideal(R4, "x1^3")
        assert dlex_from_hilbert(hspec_of(I, 3), 3) == I


class TestLexD:
    def test_running_example_d3_erratum(self):
        J = lexd(RUNNING, 3)
        assert J == ideal(R4, "x1^2", "x1*x2", "x2^3")
        D = ek_betti(J)
        assert D.entry(0, 2) == 2 and D.entry(1, 3) == 1
        assert D.entry(0, 3) == 1 and D.entry(1, 4) == 1
        assert D.totals() == (3, 2)

    def test_lexsegment_below_regularity_is_identity(self):
        I = ideal(R4, "x1^2", "x1*x2")
        assert lexd(I, 5) == I

    def test_agrees_with_full_lexification(self):
        assert lexd(RUNNING, 6) == lexify(RUNNING)

    def test_regularity_precondition(self):
        with pytest.raises(DomainError):
            lexd(RUNNING, 2)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_domain_is_the_hilbert_function(self, d):
        # Lex(RUNNING) has regularity 6 but RUNNING's Hilbert function, which
        # RUNNING realizes with regularity 3
        assert lexd(lexify(RUNNING), d) == lexd(RUNNING, d)

    def test_cut_hilbert_function_is_not_enough(self):
        # a lex ideal of regularity 5 whose H through degree d + n - 1 = 4
        # passes the characterization for d = 3; only the whole Hilbert
        # series, compared through the numerators, refuses it
        I = ideal(GroundRing(2), "x1^3", "x1^2*x2^3")
        assert I.is_lexsegment() and ek_betti(I).regularity() == 5
        assert characterize(hspec_of(I, 3), 3).admissible
        with pytest.raises(DomainError, match="3-regular"):
            lexd(I, 3)
        assert [d for d in range(1, 7) if characterize(hspec_of(I, max(d, 5)), d).admissible] == [5, 6]
        assert lexd(I, 5) == I

    def test_answers_iff_characterize_admits_the_whole_function(self):
        """From the top degree b of Lex(I) on, H and the Hilbert function of
        any candidate generated in degrees <= d are polynomials of degree
        < n, so H through max(d, b) + n - 1 is all of it: characterize on
        that much of H is the reference for lexd's domain, on I and on
        Lex(I) alike."""
        rng = random.Random(419)
        answered = refused = widened = 0
        for _ in range(150):
            n = rng.randint(2, 4)
            I = random_monomial_ideal(rng, n, 4, count=rng.randint(2, 4))
            if I.is_zero or I.is_unit:
                continue
            L = lexify(I)
            b = L.max_gen_degree
            for J, reg in ((I, regularity(I)), (L, b)):
                for d in range(1, b + 2):
                    H = hspec_of(I, max(d, b))
                    verdict = characterize(H, d)
                    if not verdict.admissible:
                        with pytest.raises(DomainError):
                            lexd(J, d)
                        refused += 1
                        continue
                    K = lexd(J, d)
                    assert K == dlex_from_hilbert(H, d), (J, d)
                    assert K.numerator() == I.numerator() and ek_betti(K).regularity() <= d
                    answered += 1
                    widened += d < reg
        assert answered >= 600 and refused >= 300 and widened >= 100

    def test_never_reaches_a_betti_backend(self, monkeypatch):
        """reg(I) is never computed: with the Betti backends failing, lexd
        still answers and refuses on non-stable inputs."""
        monkeypatch.setattr(dlex, "betti_auto", lambda *a: pytest.fail("betti_auto called"))
        monkeypatch.setattr(koszul, "koszul_betti", lambda *a, **k: pytest.fail("koszul_betti called"))
        assert not RUNNING.is_stable()
        assert lexd(RUNNING, 3) == ideal(R4, "x1^2", "x1*x2", "x2^3")
        with pytest.raises(DomainError):
            lexd(RUNNING, 2)
        rng = random.Random(421)
        answered = 0
        for _ in range(30):
            I = random_monomial_ideal(rng, 3, 3)
            if I.is_zero or I.is_unit or I.is_stable():
                continue
            for d in range(1, 6):
                try:
                    answered += lexd(I, d).numerator() == I.numerator()
                except DomainError:
                    pass
        assert answered >= 20


class TestCharacterize:
    def test_running_example_accepts(self):
        verdict = characterize(hspec_of(RUNNING, 3), 3)
        assert verdict.admissible
        assert verdict.witness_l.entries == (1, 3, 2, 2)
        assert RUNNING.hilbert(2) <= verdict.witness_l.entries[-1]

    def test_nonzero_start_rejected(self):
        H = HilbertSpec(4, (1, 4, 10, 20, 35, 56, 84), "ideal")
        assert characterize(H, 3).failed_condition == "(ii)"

    def test_exact_variant_on_low_regularity(self):
        """A lexsegment ideal of regularity < d fails the strict growth
        condition at d."""
        I = ideal(R4, "x1^2", "x1*x2")  # regularity 2
        verdict = characterize_exact(hspec_of(I, 4), 4)
        assert not verdict.admissible
        assert verdict.failed_condition == "(iii)"
        assert characterize(hspec_of(I, 4), 4).admissible

    def test_exact_variant_accepts_at_regularity(self):
        verdict = characterize_exact(hspec_of(RUNNING, 3), 3)
        assert verdict.admissible

    def test_growth_violation_tagged(self):
        # up(1, 1) = 2 > H(2) = 1 breaks the low-degree growth condition
        H = HilbertSpec(2, (0, 1, 1, 4, 5), "ideal")
        assert characterize(H, 3).failed_condition == "(ii)"

    def test_inconsistent_tail_tagged(self):
        # H(5) = 10 deviates from the counts recovered from H(3), H(4)
        H = HilbertSpec(2, (0, 0, 0, 2, 3, 10), "ideal")
        assert characterize(H, 3).failed_condition == "(i)(b)"

    @pytest.mark.parametrize("d", [0, -2])
    def test_nonpositive_d_is_an_error_not_a_verdict(self, d):
        H = hspec_of(RUNNING, 3)
        for check in (characterize, characterize_exact):
            with pytest.raises(DomainError, match="d must be positive"):
                check(H, d)

    def test_roundtrip_random(self):
        """characterize accepts every genuinely d-regular strongly stable
        ideal and the construction reproduces its Hilbert function."""
        rng = random.Random(107)
        for _ in range(60):
            I = random_strongly_stable_ideal(rng, rng.randint(2, 4), 4)
            if I.is_zero:
                continue
            d = I.max_gen_degree  # = regularity for strongly stable ideals
            H = hspec_of(I, d)
            verdict = characterize(H, d)
            assert verdict.admissible, (I, verdict)
            J = dlex_from_hilbert(H, d)
            for t in range(H.top + 1):
                assert J.hilbert(t) == I.hilbert(t)


class TestEquivalenceTriad:
    def test_hilbert_iff_betti_iff_counts(self):
        rng = random.Random(109)
        pairs = 0
        for _ in range(120):
            n, d = rng.randint(2, 4), rng.randint(1, 3)
            V1 = random_strongly_stable_set(rng, n, d)
            V2 = random_strongly_stable_set(rng, n, d)
            I1 = MonomialIdeal(GroundRing(n), V1)
            I2 = MonomialIdeal(GroundRing(n), V2)
            same_l = l_sequence(I1).entries == l_sequence(I2).entries
            same_betti = ek_betti(I1) == ek_betti(I2)
            same_hilbert = all(I1.hilbert(t) == I2.hilbert(t) for t in range(d + n + 1))
            assert same_l == same_betti == same_hilbert
            pairs += same_l
        assert pairs  # the sweep did hit equal pairs

    def test_linear_strand_from_counts(self):
        """beta_{i,i+d} = sum_k l_k C(k-1, i) for degree-d strongly stable ideals."""
        rng = random.Random(113)
        for _ in range(60):
            n, d = rng.randint(2, 4), rng.randint(1, 4)
            V = random_strongly_stable_set(rng, n, d)
            I = MonomialIdeal(GroundRing(n), V)
            l = l_sequence(I).entries
            D = ek_betti(I)
            for i in range(n):
                assert D.entry(i, i + d) == sum(l[k - 1] * binom(k - 1, i) for k in range(1, n + 1))


class TestDLexsegmentBasics:
    def test_outputs_strongly_stable_and_d_regular(self):
        rng = random.Random(127)
        for _ in range(40):
            I = random_strongly_stable_ideal(rng, rng.randint(2, 4), 4)
            if I.is_zero:
                continue
            d = I.max_gen_degree + rng.randint(0, 2)
            J = lexd(I, d)
            assert J.is_strongly_stable()
            assert ek_betti(J).regularity() <= d

    def test_uniqueness_from_hilbert_data(self):
        rng = random.Random(131)
        for _ in range(40):
            I = random_strongly_stable_ideal(rng, rng.randint(2, 4), 4)
            if I.is_zero:
                continue
            d = I.max_gen_degree + rng.randint(0, 1)
            assert lexd(I, d) == lexd(lexd(I, d), d) == lexd(lexify(I), d)

    def test_outputs_have_the_d_lexsegment_shape(self):
        """Slices below d are lex prefixes; the part from degree d on is
        generated by a d-linear lexsegment set."""
        rng = random.Random(133)
        for _ in range(30):
            I = random_strongly_stable_ideal(rng, rng.randint(2, 4), 3)
            if I.is_zero:
                continue
            d = I.max_gen_degree + rng.randint(0, 1)
            J = lexd(I, d)
            for t in range(1, d):
                assert is_lexsegment_set(J.degree_slice(t))
            high = truncate_geq(J, d)
            if not high.is_zero:
                assert high.min_gen_degree == high.max_gen_degree == d
                assert is_dlinear_lex(high.gens)

    def test_low_regularity_output_is_lexsegment(self):
        rng = random.Random(137)
        for _ in range(40):
            I = random_strongly_stable_ideal(rng, rng.randint(2, 4), 3)
            if I.is_zero:
                continue
            d = I.max_gen_degree + 2
            J = lexd(I, d)
            if ek_betti(J).regularity() < d:
                assert J.is_lexsegment()
                assert J == lexify(I)


class TestExactRegularityPreservation:
    def test_exact_regularity_preserved(self):
        rng = random.Random(139)
        for _ in range(50):
            I = random_strongly_stable_ideal(rng, rng.randint(2, 4), 4)
            if I.is_zero:
                continue
            d = ek_betti(I).regularity()
            assert ek_betti(lexd(I, d)).regularity() == d


class TestDominance:
    def test_low_rows_match_full_lexification(self):
        rng = random.Random(149)
        for _ in range(40):
            I = random_strongly_stable_ideal(rng, rng.randint(2, 4), 4)
            if I.is_zero:
                continue
            d = I.max_gen_degree + rng.randint(0, 1)
            Dd = ek_betti(lexd(I, d))
            Dfull = ek_betti(lexify(I))
            for (i, j), v in Dfull.entries.items():
                if j - i < d:
                    assert Dd.entry(i, j) == v
            for (i, j), v in Dd.entries.items():
                if j - i < d:
                    assert Dfull.entry(i, j) == v

    def test_dominates_arbitrary_ideals(self):
        rng = random.Random(151)
        checked = 0
        for _ in range(40):
            I = random_monomial_ideal(rng, rng.randint(2, 4), 3)
            if I.is_zero or I.is_unit:
                continue
            D = koszul_betti(I)
            d = D.regularity() + rng.randint(0, 1)
            assert ek_betti(lexd(I, d)).dominates(D)
            checked += 1
        assert checked >= 25


class TestTruncationLinearity:
    def test_regular_iff_truncation_has_linear_resolution(self):
        """d-regularity is equivalent to the degree->=d truncation being
        generated in degree d with regularity exactly d; swept with the exact
        oracle on both sides."""
        rng = random.Random(241)
        checked = 0
        for _ in range(30):
            I = random_monomial_ideal(rng, rng.randint(2, 3), 3)
            if I.is_zero or I.is_unit:
                continue
            r = koszul_betti(I).regularity()
            for d in (max(r - 1, 1), r, r + 1):
                J = truncate_geq(I, d)
                single = J.min_gen_degree == J.max_gen_degree == d
                linear = single and koszul_betti(J).regularity() == d
                assert linear == (d >= r), (I, d, r)
            checked += 1
        assert checked >= 20


class TestRegularityRange:
    def test_running_example(self):
        witnesses = regularity_range(RUNNING)
        assert sorted(witnesses) == [3, 4, 5, 6]
        for r, J in witnesses.items():
            assert ek_betti(J).regularity() == r

    def test_lexsegment_is_singleton(self):
        I = ideal(R4, "x1^2", "x1*x2")
        witnesses = regularity_range(I)
        assert sorted(witnesses) == [2]
        assert witnesses[2] == I

    def test_linear_ideal(self):
        I = ideal(GroundRing(2), "x1", "x2")
        assert sorted(regularity_range(I)) == [1]

    def test_regularity_helper(self):
        assert regularity(RUNNING) == 3
        assert regularity(ideal(R4, "x1*x2*x3")) == 3

    def test_matches_per_witness_lexd(self):
        # the range builds every witness from one read of H; lexd, which
        # reads H anew for each r and decides by comparing Hilbert series,
        # is the reference
        rng = random.Random(611)
        checked = 0
        for _ in range(25):
            I = random_monomial_ideal(rng, rng.randint(2, 5), 3, count=2)
            if I.is_zero or I.is_unit:
                continue
            for r, J in regularity_range(I).items():
                assert J == lexd(I, r), (I, r)
                checked += 1
        assert checked >= 60

    def test_regularity_computed_once(self, monkeypatch):
        calls = []
        real = dlex.betti_auto
        monkeypatch.setattr(dlex, "betti_auto", lambda *a: calls.append(a) or real(*a))
        assert sorted(regularity_range(RUNNING)) == [3, 4, 5, 6]
        assert len(calls) == 1


def prefix_scan(ring, degree, size, k):
    """The size-``size`` lex prefix of the given degree in x1..xk, read off
    the enumeration order of iter_degree_desc."""
    pad = (0,) * (ring.num_vars - k)
    return [Monomial(e + pad) for e in itertools.islice(iter_degree_desc(k, degree), size)]


def prefix_scan_layers(ring, sizes):
    """Reference for the lexsegment generators below a degree: each lex
    prefix enumerated whole, less the first up(previous size) members."""
    gens, prev = [], 0
    for t, size in enumerate(sizes, start=1):
        gens.extend(prefix_scan(ring, t, size, ring.num_vars)[up(prev, ring.num_vars - 1):])
        prev = size
    return gens


def prefix_scan_lexify(I):
    """Reference Lex(I) by enumeration, up to the first degree past the max
    generator degree whose next slice grows by up() alone."""
    n, t = I.ring.num_vars, I.max_gen_degree
    while I.hilbert(t + 1) != up(I.hilbert(t), n - 1):
        t += 1
    return MonomialIdeal(I.ring, prefix_scan_layers(I.ring, [I.hilbert(s) for s in range(1, t + 1)]))


def prefix_scan_lexd(I, d):
    """Reference Lex^(d)(I) by enumeration: the lex prefixes below degree d,
    then the whole d-linear set x_k * (size-l_k prefix in x1..xk), left to
    minimalization."""
    n = I.ring.num_vars
    H = HilbertSpec(n, tuple(I.hilbert(t) for t in range(d + n)), "ideal")
    gens = prefix_scan_layers(I.ring, H.values[1:d])
    for k, size in enumerate(l_from_hilbert_tail(H, d).entries, start=1):
        gens.extend(b.times_var(k) for b in prefix_scan(I.ring, d - 1, size, k))
    return MonomialIdeal(I.ring, gens)


class TestAgainstPrefixScan:
    """The rank-built constructions against the enumeration references."""

    def test_lexify(self):
        rng = random.Random(404)
        checked = 0
        for _ in range(60):
            n = rng.randint(2, 5)
            I = rng.choice([random_monomial_ideal, random_strongly_stable_ideal])(rng, n, 4)
            if I.is_zero or I.is_unit:
                continue
            assert lexify(I) == prefix_scan_lexify(I), I
            checked += 1
        assert checked >= 50

    def test_lexd(self):
        rng = random.Random(405)
        checked = 0
        for _ in range(40):
            n = rng.randint(2, 5)
            I = random_strongly_stable_ideal(rng, n, 4)
            if I.is_zero or I.is_unit:
                continue
            r = regularity(I)
            for d in range(r, r + 3):
                assert lexd(I, d) == prefix_scan_lexd(I, d), (I, d)
                checked += 1
        for I in (RUNNING, ideal(R4, "x1*x3", "x2^2*x4")):
            r = regularity(I)
            assert lexd(I, r) == prefix_scan_lexd(I, r)
        assert checked >= 100


def gauss_solve(rows, rhs):
    """Reference: Gauss-Jordan elimination over the rationals; None when the
    system is singular."""
    n = len(rows)
    m = [[Fraction(v) for v in rows[i]] + [Fraction(rhs[i])] for i in range(n)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return None
        m[c], m[pivot] = m[pivot], m[c]
        inv = 1 / m[c][c]
        m[c] = [v * inv for v in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return [m[r][n] for r in range(n)]


def _random_signed_counts(rng, size):
    """Counts in 0..5, each turned negative with probability 1/6, so about
    half the vectors of up to six slots are nonnegative."""
    return [-rng.randint(1, 3) if rng.random() < 1 / 6 else rng.randint(0, 5) for _ in range(size)]


class TestInversionAgainstElimination:
    """The integer binomial transforms against a rational linear solve of the
    same systems: on any integer data the solve is integral, and the
    transforms return it when it is nonnegative and raise otherwise."""

    def _check(self, solve, reference, counts):
        assert reference is not None and all(x.denominator == 1 for x in reference)
        if min(reference) >= 0:
            assert solve().entries == tuple(map(int, reference))
            counts[0] += 1
        else:
            with pytest.raises(DomainError):
                solve()
            counts[1] += 1

    def test_hilbert_tail(self):
        rng = random.Random(506)
        counts = [0, 0]
        while sum(counts) < 300:
            n, d = rng.randint(1, 6), rng.randint(1, 4)
            if rng.random() < 0.5:
                tail = [rng.randint(0, 40) for _ in range(n)]
            else:
                l = _random_signed_counts(rng, n)
                tail = [sum(l[k - 1] * binom(n - k + m, n - k) for k in range(1, n + 1)) for m in range(n)]
                if min(tail) < 0:
                    continue
            H = HilbertSpec(n, (0,) * d + tuple(tail), "ideal")
            rows = [[binom(n - k + m, n - k) for k in range(1, n + 1)] for m in range(n)]
            self._check(lambda: l_from_hilbert_tail(H, d), gauss_solve(rows, tail), counts)
        assert min(counts) >= 100, counts

    def test_squarefree_counts(self):
        rng = random.Random(507)
        counts = [0, 0]
        while sum(counts) < 300:
            n = rng.randint(1, 7)
            d = rng.randint(1, n)
            slots = n - d + 1
            if rng.random() < 0.5:
                tail = [rng.randint(0, 30) for _ in range(slots)]
            else:
                ls = _random_signed_counts(rng, slots)
                tail = [sum(ls[k - 1] * binom(slots - k, m) for k in range(1, slots + 1)) for m in range(slots)]
                if min(tail) < 0:
                    continue
            sq_counts = [rng.randint(0, 5) for _ in range(d)] + tail
            rows = [[binom(slots - k, m) for k in range(1, slots + 1)] for m in range(slots)]
            self._check(lambda: _l_star_from_counts(sq_counts, n, d), gauss_solve(rows, tail), counts)
        assert min(counts) >= 100, counts
