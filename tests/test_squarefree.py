"""The squarefree world: spreading maps, squarefree d-lexsegment ideals,
simplicial complexes, duality, and the Cohen-Macaulay test."""

import itertools
import math
import random

import pytest

from dreglex import dlex, koszul, squarefree
from dreglex.betti import ahh_betti, ek_betti
from dreglex.dlex import l_sequence, regularity
from dreglex.errors import DomainError, FormatError
from dreglex.ideals import MonomialIdeal, sq_lexify, squarefree_counts
from dreglex.koszul import koszul_betti
from dreglex.monomials import GroundRing, Monomial, enumerate_degree, parse_monomial
from dreglex.squarefree import (
    SimplicialComplex,
    alexander_dual,
    complex_from_ideal,
    eagon_reiner_cm,
    f_vector,
    format_complex,
    h_vector,
    l_star,
    parse_complex,
    phi,
    phi_ideal,
    phi_inv,
    phi_inv_ideal,
    phi_tilde,
    sq_lexd,
    sq_regularity_range,
    stanley_reisner,
)
from tests.conftest import (
    complex_by_face_scan,
    faces,
    minimal_nonfaces,
    random_sq_strongly_stable_ideal,
    random_strongly_stable_set,
    random_squarefree_ideal,
)

R2 = GroundRing(2)
R4 = GroundRing(4)
R6 = GroundRing(6)


def ideal(ring, *texts):
    return MonomialIdeal(ring, [parse_monomial(t, ring) for t in texts])


SECTION4 = ideal(R6, "x1*x3*x5", "x1*x3*x6", "x1*x4*x6", "x2*x4*x6")


class TestPhi:
    def test_cube_of_first_variable(self):
        R1 = GroundRing(1)
        u = parse_monomial("x1^3", R1)
        assert phi(u) == parse_monomial("x1*x2*x3", GroundRing(3))

    def test_degree_one_fixed(self):
        u = parse_monomial("x1", R4)
        assert phi(u, 4) == u

    def test_roundtrip_all_small(self):
        for n in range(1, 5):
            ring = GroundRing(n)
            for d in range(1, 6):
                for u in enumerate_degree(ring, d):
                    v = phi(u)
                    assert v.is_squarefree and v.degree == d
                    assert phi_inv(v, n) == u

    def test_preserves_lex_order(self):
        rng = random.Random(157)
        for _ in range(100):
            n, d = rng.randint(2, 4), rng.randint(1, 5)
            members = list(enumerate_degree(GroundRing(n), d))
            u, v = rng.sample(members, 2)
            assert (u.exponents > v.exponents) == (phi(u).exponents > phi(v).exponents)

    def test_non_squarefree_rejected(self):
        with pytest.raises(DomainError):
            phi_inv(parse_monomial("x1^2", R4))

    def test_target_too_small(self):
        with pytest.raises(DomainError):
            phi(parse_monomial("x2^2", R2), 2)


class TestPhiIdeal:
    def test_full_square(self):
        I = ideal(R2, "x1^2", "x1*x2", "x2^2")
        J = phi_ideal(I)
        assert J == ideal(GroundRing(3), "x1*x2", "x1*x3", "x2*x3")
        assert J.is_squarefree_strongly_stable()

    def test_principal_power(self):
        I = ideal(GroundRing(1), "x1^4")
        assert phi_ideal(I) == ideal(R4, "x1*x2*x3*x4")

    def test_roundtrip_and_count_transport(self):
        rng = random.Random(163)
        for _ in range(100):
            n, d = rng.randint(2, 4), rng.randint(1, 4)
            V = random_strongly_stable_set(rng, n, d)
            I = MonomialIdeal(GroundRing(n), V)
            J = phi_ideal(I)
            assert J.is_squarefree_strongly_stable()
            assert phi_inv_ideal(J) == I
            assert l_star(J).entries == l_sequence(I).entries


class TestPhiTilde:
    def test_small_example(self):
        I = ideal(R4, "x1^2", "x1*x2")
        J = phi_tilde(I)
        assert J == ideal(R4, "x1*x2", "x1*x3")
        for D in (ek_betti(I), ahh_betti(J)):
            assert D.entry(0, 2) == 2 and D.entry(1, 3) == 1

    def test_single_variable(self):
        I = ideal(GroundRing(1), "x1")
        assert phi_tilde(I) == I

    def test_betti_preserved(self):
        rng = random.Random(167)
        checked = 0
        for _ in range(120):
            n = rng.randint(3, 5)
            V = random_strongly_stable_set(rng, n, rng.randint(1, 3), seeds=1)
            I = MonomialIdeal(GroundRing(n), V)
            if I.is_zero or any(g.max_index + g.degree - 1 > n for g in I.gens):
                continue
            J = phi_tilde(I)
            assert ahh_betti(J) == ek_betti(I)
            checked += 1
        assert checked >= 40

    def test_support_condition_enforced(self):
        with pytest.raises(DomainError):
            phi_tilde(ideal(R2, "x1*x2"))  # max 2 + deg 2 - 1 = 3 > 2

    def test_unit_ideal_rejected(self):
        with pytest.raises(DomainError, match="unit ideal"):
            phi_tilde(ideal(R4, "1"))


class TestLStar:
    def test_sqlex3_counts(self):
        I = ideal(R6, "x1*x2*x3", "x1*x2*x4", "x1*x3*x4", "x2*x3*x4")
        assert l_star(I).entries == (1, 3, 0, 0)

    def test_full_product(self):
        I = ideal(R4, "x1*x2*x3*x4")
        assert l_star(I).entries == (1,)


def _is_dlinear_sq_lex(I):
    """Generator-set predicate: squarefree strongly stable and every
    max-index slice a squarefree lexsegment in the variables below it."""
    from tests.conftest import dk_decompose, sq_prefix

    if not I.is_squarefree_strongly_stable():
        return False
    d = I.max_gen_degree
    for k, Dk in enumerate(dk_decompose(I.gens), start=1):
        if len(Dk) == 0 or d == 1:  # degree-1 slices are singleton units
            continue
        sub = GroundRing(k - 1)
        members = tuple(Monomial(m.exponents[: k - 1]) for m in Dk)
        if set(members) != set(sq_prefix(sub, d - 1, len(members))):
            return False
    return True


class TestDLinearCorrespondence:
    def test_spreading_preserves_the_d_linear_lex_shape(self):
        """An ideal is d-linear lexsegment exactly when its spread is d-linear
        squarefree lexsegment; swept over constructed and perturbed inputs."""
        from tests.conftest import is_dlinear_lex

        rng = random.Random(271)
        hits = {True: 0, False: 0}
        for _ in range(100):
            n, d = rng.randint(2, 4), rng.randint(1, 4)
            V = random_strongly_stable_set(rng, n, d)
            I = MonomialIdeal(GroundRing(n), V)
            left = is_dlinear_lex(I.gens)
            right = _is_dlinear_sq_lex(phi_ideal(I))
            assert left == right
            hits[left] += 1
        assert hits[True] and hits[False]


class TestSqLexD:
    def test_section4_d3(self):
        J = sq_lexd(SECTION4, 3)
        assert J == ideal(R6, "x1*x2*x3", "x1*x2*x4", "x1*x3*x4", "x2*x3*x4")

    def test_section4_d4(self):
        J = sq_lexd(SECTION4, 4)
        assert J == ideal(
            R6,
            "x1*x2*x3", "x1*x2*x4", "x1*x2*x5", "x1*x2*x6",
            "x1*x3*x4*x5", "x1*x3*x4*x6", "x2*x3*x4*x5",
        )

    def test_low_regularity_fixpoint(self):
        I = ideal(R4, "x1*x2", "x1*x3")  # squarefree lexsegment, regularity 2
        assert sq_lexd(I, 3) == I

    def test_equals_sq_lexify_at_top(self):
        assert sq_lexd(SECTION4, 5) == sq_lexify(SECTION4)

    def test_regularity_precondition(self):
        with pytest.raises(DomainError):
            sq_lexd(SECTION4, 2)

    def test_range_bound(self):
        with pytest.raises(DomainError):
            sq_lexd(SECTION4, 7)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_domain_is_the_hilbert_function(self, d):
        # SqLex(SECTION4) has regularity 5 but SECTION4's counts, which
        # SECTION4 realizes with regularity 3
        assert sq_lexd(sq_lexify(SECTION4), d) == sq_lexd(SECTION4, d)

    def test_count_mismatch_is_the_domain_test(self):
        # every step of the construction goes through for d = 2, and only
        # the final comparison of all counts finds the candidate wrong
        I = ideal(R4, "x1", "x2*x3*x4")
        with pytest.raises(DomainError, match="2-regular ideal: the only candidate misses degree 2"):
            sq_lexd(I, 2)
        assert sq_lexd(I, 3) == sq_lexd(sq_lexify(I), 3) == ideal(R4, "x1", "x2*x3*x4")

    def test_depends_on_the_counts_alone(self):
        """On I and SqLex(I), which share the squarefree counts, sq_lexd
        answers alike or refuses alike; each answer is squarefree strongly
        stable with AHH regularity <= d and keeps the counts."""
        rng = random.Random(187)
        answered = refused = widened = 0
        for _ in range(300):
            I = random_squarefree_ideal(rng, rng.randint(3, 6), 4, count=rng.randint(1, 4))
            if I.is_zero or I.is_unit:
                continue
            L = sq_lexify(I)
            for d in range(1, I.ring.num_vars + 1):
                try:
                    J = sq_lexd(I, d)
                except DomainError:
                    with pytest.raises(DomainError):
                        sq_lexd(L, d)
                    refused += 1
                    continue
                assert sq_lexd(L, d) == J, (I, d)
                assert J.is_squarefree_strongly_stable() and ahh_betti(J).regularity() <= d
                assert squarefree_counts(J) == squarefree_counts(I)
                answered += 1
                widened += d < L.max_gen_degree  # reg(SqLex(I)), refused once
        assert answered >= 800 and refused >= 300 and widened >= 10

    def test_never_reaches_a_betti_backend(self, monkeypatch):
        """reg(I) is never computed: with the Betti backends failing,
        sq_lexd still answers and refuses on non-stable inputs."""
        monkeypatch.setattr(dlex, "betti_auto", lambda *a: pytest.fail("betti_auto called"))
        monkeypatch.setattr(koszul, "koszul_betti", lambda *a, **k: pytest.fail("koszul_betti called"))
        assert not SECTION4.is_squarefree_strongly_stable()
        assert sq_lexd(SECTION4, 3) == ideal(R6, "x1*x2*x3", "x1*x2*x4", "x1*x3*x4", "x2*x3*x4")
        with pytest.raises(DomainError):
            sq_lexd(SECTION4, 2)
        R8 = GroundRing(8)
        cycle = MonomialIdeal(R8, [parse_monomial(f"x{i}*x{i % 8 + 1}", R8) for i in range(1, 9)])
        answers = {}
        for d in range(1, 9):
            try:
                answers[d] = sq_lexd(cycle, d)
            except DomainError:
                pass
        assert sorted(answers) == [3, 4, 5, 6, 7, 8]
        for d, J in answers.items():
            assert J.is_squarefree_strongly_stable() and J.max_gen_degree <= d
            assert squarefree_counts(J) == squarefree_counts(cycle)

    def test_hilbert_preserved_random(self):
        rng = random.Random(173)
        for _ in range(40):
            I = random_squarefree_ideal(rng, rng.randint(3, 6), 4)
            if I.is_zero or I.is_unit:
                continue
            from dreglex.dlex import regularity

            r = regularity(I)
            d = min(r + rng.randint(0, 1), I.ring.num_vars)
            if d < r:
                continue
            J = sq_lexd(I, d)
            for t in range(I.ring.num_vars + 2):
                assert J.hilbert(t) == I.hilbert(t)


class TestSqEquivalenceTriad:
    def test_hilbert_iff_betti_iff_counts(self):
        rng = random.Random(179)
        for _ in range(100):
            n, d = rng.randint(3, 6), rng.randint(1, 3)
            from tests.conftest import random_sq_strongly_stable_set

            V1 = random_sq_strongly_stable_set(rng, n, min(d, n))
            V2 = random_sq_strongly_stable_set(rng, n, min(d, n))
            I1 = MonomialIdeal(GroundRing(n), V1)
            I2 = MonomialIdeal(GroundRing(n), V2)
            same_l = l_star(I1).entries == l_star(I2).entries
            same_betti = ahh_betti(I1) == ahh_betti(I2)
            same_hilbert = all(I1.hilbert(t) == I2.hilbert(t) for t in range(n + 2))
            assert same_l == same_betti == same_hilbert


class TestSquarefreeDominance:
    def test_low_rows_and_dominance(self):
        rng = random.Random(181)
        checked = 0
        for _ in range(60):
            I = random_squarefree_ideal(rng, rng.randint(3, 6), 3)
            if I.is_zero or I.is_unit:
                continue
            from dreglex.dlex import regularity

            r = regularity(I)
            if r > I.ring.num_vars:
                continue
            d = min(r + rng.randint(0, 1), I.ring.num_vars)
            Dd = ahh_betti(sq_lexd(I, d))
            Dfull = ahh_betti(sq_lexify(I))
            for (i, j), v in Dfull.entries.items():
                if j - i < d:
                    assert Dd.entry(i, j) == v
            assert Dd.dominates(koszul_betti(I))
            checked += 1
        assert checked >= 30


class TestSqRegularityRange:
    def test_section4_range(self):
        witnesses = sq_regularity_range(SECTION4)
        assert sorted(witnesses) == [3, 4, 5]
        for r, J in witnesses.items():
            assert ahh_betti(J).regularity() == r

    def test_lexsegment_singleton(self):
        I = ideal(R4, "x1*x2", "x1*x3")
        assert sorted(sq_regularity_range(I)) == [2]

    def test_single_edge(self):
        I = ideal(R2, "x1*x2")
        assert sorted(sq_regularity_range(I)) == [2]

    def test_matches_per_witness_sq_lexd(self):
        # the range builds every witness from one read of the squarefree
        # counts; sq_lexd, which reads the counts anew for each r and decides
        # by comparing them, is the reference
        rng = random.Random(613)
        checked = 0
        for _ in range(60):
            I = random_squarefree_ideal(rng, rng.randint(3, 7), 4)
            if I.is_zero or I.is_unit:
                continue
            for r, J in sq_regularity_range(I).items():
                assert J == sq_lexd(I, r), (I, r)
                checked += 1
        assert checked >= 60

    def test_counts_read_once_without_a_betti_backend(self, monkeypatch):
        # reg(SECTION4) = 3 is also the least regularity of its counts, so
        # the range keeps its start without the oracle
        calls = []
        real_counts = squarefree.squarefree_counts
        monkeypatch.setattr(dlex, "betti_auto", lambda *a: pytest.fail("betti_auto called"))
        monkeypatch.setattr(koszul, "koszul_betti", lambda *a, **k: pytest.fail("koszul_betti called"))
        monkeypatch.setattr(squarefree, "squarefree_counts", lambda I: calls.append("counts") or real_counts(I))
        assert sorted(sq_regularity_range(SECTION4)) == [3, 4, 5]
        assert calls == ["counts"]

    def test_range_starts_below_the_input_regularity(self):
        # reg(I) = 3, yet the edge ideal of the triangle on x1, x2, x3 has
        # the same squarefree counts and regularity 2
        I = ideal(R4, "x1*x4", "x2*x4", "x3*x4", "x1*x2*x3")
        assert regularity(I) == 3
        witnesses = sq_regularity_range(I)
        assert sorted(witnesses) == [2, 3]
        assert witnesses[2] == ideal(R4, "x1*x2", "x1*x3", "x2*x3")

    @pytest.mark.parametrize("n, expected", [(8, [3, 4]), (12, [4, 5, 6])])
    def test_cycle_ranges(self, n, expected):
        ring = GroundRing(n)
        cycle = MonomialIdeal(ring, [parse_monomial(f"x{i}*x{i % n + 1}", ring) for i in range(1, n + 1)])
        assert regularity(cycle) == expected[1]
        witnesses = sq_regularity_range(cycle)
        assert sorted(witnesses) == expected
        for r, J in witnesses.items():
            assert J.is_squarefree_strongly_stable() and ahh_betti(J).regularity() == r
            assert squarefree_counts(J) == squarefree_counts(cycle)

    def test_range_is_every_regularity_of_the_counts(self):
        # the range is {d : SqLex^(d)(I) exists and has regularity exactly d};
        # it starts at or below reg(I), the oracle here only a reference, and
        # ends at reg(SqLex(I)).  Edge ideals of random graphs start below
        # reg(I) more often than ideals of random generators do
        rng = random.Random(2207)
        widened = 0
        for _ in range(400):
            if rng.random() < 0.5:
                I = random_squarefree_ideal(rng, rng.randint(2, 7), 4, count=rng.randint(1, 8))
            else:
                n = rng.randint(4, 8)
                ring = GroundRing(n)
                edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.4]
                I = MonomialIdeal(ring, map(ring.squarefree, edges))
            if I.is_zero or I.is_unit:
                continue
            expected = []
            for d in range(1, I.ring.num_vars + 1):
                try:
                    J = sq_lexd(I, d)
                except DomainError:
                    continue
                if ahh_betti(J).regularity() == d:
                    expected.append(d)
            witnesses = sq_regularity_range(I)
            assert sorted(witnesses) == expected, I
            reg = regularity(I)
            assert min(witnesses) <= reg
            assert max(witnesses) == ahh_betti(sq_lexify(I)).regularity()
            widened += min(witnesses) < reg
        assert widened >= 3, widened


class TestComplexBasics:
    def test_hollow_triangle(self):
        tri = SimplicialComplex(3, [{1, 2}, {1, 3}, {2, 3}])
        assert f_vector(tri) == (3, 3)
        assert h_vector(tri) == (1, 1, 1)

    def test_full_simplex_is_cone(self):
        full = SimplicialComplex(4, [{1, 2, 3, 4}])
        assert h_vector(full) == (1, 0, 0, 0, 0)

    def test_single_vertex(self):
        single = SimplicialComplex(1, [{1}])
        assert f_vector(single) == (1,)
        assert h_vector(single) == (1, 0)

    def test_void_complex(self):
        void = SimplicialComplex(3, [])
        assert f_vector(void) == ()
        with pytest.raises(DomainError):
            h_vector(void)

    def test_irrelevant_complex(self):
        irr = SimplicialComplex(3, [frozenset()])
        assert not irr.is_void
        assert irr.dim == -1
        assert f_vector(irr) == ()
        assert h_vector(irr) == (1,)


class TestAlexanderDual:
    def test_involution_sweep(self):
        rng = random.Random(191)
        for _ in range(60):
            n = rng.randint(2, 5)
            facets = [frozenset(rng.sample(range(1, n + 1), rng.randint(0, n))) for _ in range(rng.randint(1, 4))]
            complex_ = SimplicialComplex(n, facets)
            assert alexander_dual(alexander_dual(complex_)) == complex_

    def test_boundary_of_simplex(self):
        n = 4
        boundary = SimplicialComplex(n, [frozenset(range(1, n + 1)) - {v} for v in range(1, n + 1)])
        dual = alexander_dual(boundary)
        assert dual == SimplicialComplex(n, [frozenset()])

    def test_dual_counts_match_h_vector(self):
        """For shifted Cohen-Macaulay complexes built from squarefree strongly
        stable data, the dual ideal's shifted counts equal the h-vector."""
        rng = random.Random(193)
        checked = 0
        for _ in range(60):
            n = rng.randint(3, 6)
            I = random_sq_strongly_stable_ideal(rng, n, n, parts=1)
            if I.is_zero or I.is_unit:
                continue
            if I.min_gen_degree != I.max_gen_degree:
                continue
            dual_complex = alexander_dual(complex_from_ideal(I))
            if dual_complex.is_void:
                continue
            d = I.max_gen_degree
            got = l_star(I).entries
            h = h_vector(dual_complex)
            padded = tuple(h) + (0,) * (len(got) - len(h))
            assert padded[: len(got)] == got
            checked += 1
        assert checked >= 20


class TestStanleyReisner:
    def test_hollow_triangle_ideal(self):
        tri = SimplicialComplex(3, [{1, 2}, {1, 3}, {2, 3}])
        assert stanley_reisner(tri) == ideal(GroundRing(3), "x1*x2*x3")

    def test_bijection_sweep(self):
        rng = random.Random(197)
        for _ in range(60):
            n = rng.randint(2, 5)
            facets = [frozenset(rng.sample(range(1, n + 1), rng.randint(0, n))) for _ in range(rng.randint(1, 4))]
            complex_ = SimplicialComplex(n, facets)
            assert complex_from_ideal(stanley_reisner(complex_)) == complex_

    def test_irrelevant_complex_gives_all_variables(self):
        irr = SimplicialComplex(3, [frozenset()])
        assert stanley_reisner(irr) == ideal(GroundRing(3), "x1", "x2", "x3")


class TestEagonReiner:
    def test_shifted_cm_inputs_accept(self):
        """Complexes whose dual ideal is squarefree strongly stable in one
        degree have linear-resolution duals, hence are Cohen-Macaulay; the
        linear strand then matches the h-vector transform."""
        from dreglex.macaulay import binom

        rng = random.Random(199)
        checked = 0
        for _ in range(60):
            n = rng.randint(3, 6)
            I = random_sq_strongly_stable_ideal(rng, n, n, parts=1)
            if I.is_zero or I.is_unit or I.min_gen_degree != I.max_gen_degree:
                continue
            gamma = alexander_dual(complex_from_ideal(I))
            if gamma.is_void:
                continue
            assert eagon_reiner_cm(gamma)
            d = I.max_gen_degree
            h = h_vector(gamma)
            D = ahh_betti(I)
            for i in range(n):
                expected = sum(h[k] * binom(k, i) for k in range(len(h)))
                assert D.entry(i, i + d) == expected
            checked += 1
        assert checked >= 20

    def test_disconnected_graph_rejected(self):
        two_edges = SimplicialComplex(4, [{1, 2}, {3, 4}])
        assert not eagon_reiner_cm(two_edges)

    def test_cm_matches_dual_linearity_sweep(self):
        rng = random.Random(211)
        both = {True: 0, False: 0}
        for _ in range(60):
            n = rng.randint(2, 5)
            facets = [frozenset(rng.sample(range(1, n + 1), rng.randint(1, n))) for _ in range(rng.randint(1, 3))]
            complex_ = SimplicialComplex(n, facets)
            dual_ideal = stanley_reisner(alexander_dual(complex_))
            if dual_ideal.is_zero or dual_ideal.is_unit:
                continue
            from dreglex.dlex import regularity

            single = dual_ideal.min_gen_degree == dual_ideal.max_gen_degree
            expected = single and regularity(dual_ideal) == dual_ideal.max_gen_degree
            got = eagon_reiner_cm(complex_)
            both[got] += 1
            assert got == expected
        assert both[True] and both[False]


class TestRegularityDepthDuality:
    def test_identity_on_random_complexes(self):
        """reg of the Stanley-Reisner ideal equals n minus the depth of the
        dual quotient, with both sides from exact Betti diagrams."""
        from dreglex.dlex import regularity
        from dreglex.koszul import koszul_betti

        rng = random.Random(269)
        checked = 0
        for _ in range(60):
            n = rng.randint(3, 5)
            facets = [
                frozenset(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
                for _ in range(rng.randint(1, 3))
            ]
            gamma = SimplicialComplex(n, facets)
            I = stanley_reisner(gamma)
            I_dual = stanley_reisner(alexander_dual(gamma))
            if I.is_zero or I.is_unit or I_dual.is_zero or I_dual.is_unit:
                continue
            assert regularity(I) == n - koszul_betti(I_dual).depth_quotient()
            checked += 1
        assert checked >= 30


def random_complex(rng: random.Random, n: int) -> SimplicialComplex:
    """Void, irrelevant and full-simplex complexes now and then, random
    proper facets otherwise; vertices outside every facet are ghosts."""
    kind = rng.random()
    if kind < 0.04:
        return SimplicialComplex(n, [])
    if kind < 0.08:
        return SimplicialComplex(n, [frozenset()])
    if kind < 0.12:
        return SimplicialComplex(n, [frozenset(range(1, n + 1))])
    return SimplicialComplex(n, [
        frozenset(rng.sample(range(1, n + 1), rng.randint(0, n - 1))) for _ in range(rng.randint(1, 6))
    ])


class TestAgainstSubsetScans:
    """Every complex operation against its definition by listing faces or
    scanning all 2^n vertex sets."""

    def test_random_complexes(self):
        from dreglex.dlex import regularity

        rng = random.Random(307)
        for _ in range(1200):
            n = rng.randint(1, 8)
            gamma = random_complex(rng, n)
            scanned = faces(gamma)
            nonfaces = minimal_nonfaces(gamma)
            R, full = GroundRing(n), frozenset(range(1, n + 1))
            sizes = [sum(len(F) == k for F in scanned) for k in range(n + 2)]
            if gamma.is_void:
                assert f_vector(gamma) == ()
            else:
                top = gamma.dim + 1
                assert f_vector(gamma) == tuple(sizes[1:top + 1])
                # sum_k h_k t^k = sum_i f_{i-1} t^i (1 - t)^(top - i)
                h = [0] * (top + 1)
                for i in range(top + 1):
                    for j in range(top - i + 1):
                        h[i + j] += sizes[i] * math.comb(top - i, j) * (-1) ** j
                assert h_vector(gamma) == tuple(h)
            I = stanley_reisner(gamma)
            assert I == MonomialIdeal(R, map(R.squarefree, nonfaces))
            dual = alexander_dual(gamma)
            assert dual == SimplicialComplex(n, (full - A for A in nonfaces))
            assert complex_from_ideal(I) == gamma
            # the old route: the Stanley-Reisner ideal of the dual, by scans
            dual_ideal = MonomialIdeal(R, map(R.squarefree, minimal_nonfaces(dual)))
            if gamma.is_void or dual_ideal.is_unit:
                with pytest.raises(DomainError):
                    eagon_reiner_cm(gamma)
                continue
            d = dual_ideal.max_gen_degree
            expected = dual_ideal.min_gen_degree == d and regularity(dual_ideal) == d
            assert eagon_reiner_cm(gamma) == expected

    def test_random_ideals(self):
        rng = random.Random(311)
        for _ in range(1200):
            n = rng.randint(1, 8)
            R = GroundRing(n)
            kind = rng.random()
            if kind < 0.04:
                I = MonomialIdeal.zero(R)
            elif kind < 0.08:
                I = MonomialIdeal(R, [Monomial((0,) * n)])
            else:
                I = random_squarefree_ideal(rng, n, n, count=rng.randint(1, 6))
            assert complex_from_ideal(I) == complex_by_face_scan(I)

    def test_non_squarefree_rejected(self):
        with pytest.raises(DomainError):
            complex_from_ideal(ideal(R2, "x1^2"))


class TestPastTheOldSubsetCap:
    """Complexes on 20 and 22 vertices, where a scan of the 2^n vertex sets
    takes seconds or stops above 2^20 subsets."""

    def test_boundary_of_the_20_simplex(self):
        full = frozenset(range(1, 21))
        boundary = SimplicialComplex(20, [full - {v} for v in full])
        assert f_vector(boundary) == tuple(math.comb(20, i) for i in range(1, 20))

    def test_two_disjoint_11_simplices(self):
        left, right = frozenset(range(1, 12)), frozenset(range(12, 23))
        two = SimplicialComplex(22, [left, right])
        R = GroundRing(22)
        assert stanley_reisner(two) == MonomialIdeal(R, (R.squarefree({i, j}) for i in left for j in right))
        assert alexander_dual(two) == SimplicialComplex(
            22, ((left | right) - {i, j} for i in left for j in right)
        )
        assert len(alexander_dual(two).facets) == 121


class TestComplexFile:
    def test_roundtrip(self):
        complex_ = SimplicialComplex(4, [{1, 2}, {3}, frozenset()])
        assert parse_complex(format_complex(complex_)) == complex_

    def test_empty_facet_syntax(self):
        assert parse_complex("vertices=3\n{}\n") == SimplicialComplex(3, [frozenset()])

    def test_errors(self):
        with pytest.raises(FormatError):
            parse_complex("")
        with pytest.raises(FormatError):
            parse_complex("n=3\n1,2\n")
        with pytest.raises(FormatError):
            parse_complex("vertices=3\n1,5\n")
