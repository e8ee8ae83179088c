"""Acceptance gate: the seven criteria, exact tolerances, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.
"""

import random

from dreglex.areas import ExtremalArea, admits, lex_i_a, parse_area
from dreglex.betti import ahh_betti, bigatti_degreewise, ek_betti, sq_degreewise
from dreglex.cli import main as cli_main
from dreglex.dlex import (
    characterize,
    dlex_from_hilbert,
    l_sequence,
    lexd,
)
from dreglex.ideals import MonomialIdeal, lexify, parse_ideal, sq_lexify
from dreglex.koszul import koszul_betti
from dreglex.macaulay import HilbertSpec
from dreglex.monomials import GroundRing, lex_prefix, parse_monomial
from dreglex.squarefree import l_star, phi_ideal, phi_inv_ideal, phi_tilde, sq_lexd
from tests.conftest import (
    dk_decompose,
    is_strongly_stable,
    m_le_k,
    random_monomial_ideal,
    random_sq_strongly_stable_ideal,
    random_sq_strongly_stable_set,
    random_squarefree_ideal,
    random_strongly_stable_ideal,
    random_strongly_stable_set,
)

R4 = GroundRing(4)
R5 = GroundRing(5)
R6 = GroundRing(6)


def ideal(ring, *texts):
    return MonomialIdeal(ring, [parse_monomial(t, ring) for t in texts])


RUNNING = ideal(R4, "x1*x2", "x3*x4")
SECTION4 = ideal(R6, "x1*x3*x5", "x1*x3*x6", "x1*x4*x6", "x2*x4*x6")
SECTION5 = ideal(R5, "x1^2", "x1*x2", "x1*x3", "x1*x4", "x2^2", "x2*x3^3", "x3^4")


def report(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, f"cli {argv} exited {code}"
    return out


def rows(D):
    kmin, kmax = D.row_range()
    return {k: tuple(D.entry(i, i + k) for i in range(D.projdim() + 1)) for k in range(kmin, kmax + 1)}


def test_criterion_1_running_example_reproduction(capsys, tmp_path):
    """dlex at d = 3, 4, 5 reproduces the three printed diagrams and lists."""
    path = tmp_path / "running.ideal"
    path.write_text("n=4\nx1*x2\nx3*x4\n")
    expected_gens = {
        3: ["x1^2", "x1*x2", "x2^3"],  # printed list corrected per the diagram
        4: ["x1^2", "x1*x2", "x1*x3^2", "x2^4"],
        5: ["x1^2", "x1*x2", "x1*x3^2", "x1*x3*x4^2", "x2^5", "x2^4*x3"],
    }
    expected_rows = {
        3: {2: (2, 1), 3: (1, 1)},
        4: {2: (2, 1, 0), 3: (1, 2, 1), 4: (1, 1, 0)},
        5: {2: (2, 1, 0, 0), 3: (1, 2, 1, 0), 4: (1, 3, 3, 1), 5: (2, 3, 1, 0)},
    }
    expected_totals = {3: (3, 2), 4: (4, 4, 1), 5: (6, 9, 5, 1)}
    for d in (3, 4, 5):
        out = run_cli(capsys, "dlex", "-d", str(d), str(path))
        J = parse_ideal(out)
        assert [str(g) for g in J.gens] == expected_gens[d]
        D = ek_betti(J)
        assert rows(D) == expected_rows[d]
        assert D.totals() == expected_totals[d]
    report(1, "running-example reproduction at d = 3, 4, 5")


def test_criterion_2_regularity_range_and_depths(capsys, tmp_path):
    """reg-range returns 3..6 with exact-regularity witnesses; the depths of
    the quotients cover exactly {0, 1, 2}."""
    path = tmp_path / "running.ideal"
    path.write_text("n=4\nx1*x2\nx3*x4\n")
    out = run_cli(capsys, "reg-range", str(path))
    assert out.splitlines()[0] == "range: 3 4 5 6"
    witnesses = {}
    for line in out.splitlines()[1:]:
        head, _, tail = line.partition(": ")
        r = int(head.split()[1])
        witnesses[r] = ideal(R4, *tail.split(", "))
    assert sorted(witnesses) == [3, 4, 5, 6]
    for r, J in witnesses.items():
        assert ek_betti(J).regularity() == r
    depths = {koszul_betti(RUNNING).depth_quotient()}
    depths.update(ek_betti(witnesses[r]).depth_quotient() for r in (3, 4, 5))
    assert depths == {0, 1, 2}
    report(2, "regularity range and depth set")


def test_criterion_3_section4_reproduction(capsys, tmp_path):
    """sqdlex at d = 3, 4 and sqlex reproduce the printed generator sets and
    diagrams."""
    path = tmp_path / "s4.ideal"
    path.write_text("n=6\nx1*x3*x5\nx1*x3*x6\nx1*x4*x6\nx2*x4*x6\n")
    out3 = run_cli(capsys, "sqdlex", "-d", "3", str(path))
    out4 = run_cli(capsys, "sqdlex", "-d", "4", str(path))
    outl = run_cli(capsys, "sqlex", str(path))
    J3, J4, JL = parse_ideal(out3), parse_ideal(out4), parse_ideal(outl)
    assert [str(g) for g in J3.gens] == ["x1*x2*x3", "x1*x2*x4", "x1*x3*x4", "x2*x3*x4"]
    assert [str(g) for g in J4.gens] == [
        "x1*x2*x3", "x1*x2*x4", "x1*x2*x5", "x1*x2*x6",
        "x1*x3*x4*x5", "x1*x3*x4*x6", "x2*x3*x4*x5",
    ]
    assert [str(g) for g in JL.gens] == [
        "x1*x2*x3", "x1*x2*x4", "x1*x2*x5", "x1*x2*x6",
        "x1*x3*x4*x5", "x1*x3*x4*x6", "x1*x3*x5*x6", "x2*x3*x4*x5*x6",
    ]
    assert rows(ahh_betti(J3)) == {3: (4, 3)}
    assert ahh_betti(J3).totals() == (4, 3)
    assert rows(ahh_betti(J4)) == {3: (4, 6, 4, 1), 4: (3, 4, 1, 0)}
    assert ahh_betti(J4).totals() == (7, 10, 5, 1)
    assert rows(ahh_betti(JL)) == {3: (4, 6, 4, 1), 4: (3, 5, 2, 0), 5: (1, 1, 0, 0)}
    assert ahh_betti(JL).totals() == (8, 12, 6, 1)
    report(3, "section-4 squarefree reproduction")


def test_criterion_4_section5_reproduction(capsys, tmp_path):
    """Hull of the two-corner area, the maximal-Betti ideal over it, and the
    degree-17 full lexification."""
    out = run_cli(capsys, "area", "conv", "(2,4);(4,2)")
    assert out == "(2,4);(3,3);(4,2)\n"
    path = tmp_path / "s5.ideal"
    path.write_text("n=5\nx1^2\nx1*x2\nx1*x3\nx1*x4\nx2^2\nx2*x3^3\nx3^4\n")
    out = run_cli(capsys, "lexarea", "--area", "(2,4);(3,3);(4,2)", str(path))
    L = parse_ideal(out)
    assert [str(g) for g in L.gens] == [
        "x1^2", "x1*x2", "x1*x3", "x1*x4", "x1*x5",
        "x2^3", "x2^2*x3", "x2^2*x4", "x2*x3^3", "x3^4",
    ]
    assert ek_betti(L).totals() == (10, 20, 16, 6, 1)
    out = run_cli(capsys, "lex", str(path))
    full = parse_ideal(out)
    assert ek_betti(full).regularity() == 17
    assert len(full.gens) == 38
    report(4, "section-5 reproduction")


def test_criterion_5_counterexample_arithmetic():
    """Both printed ideals admit the two-corner area, share Hilbert data, and
    their degree-6 Betti numbers rule out a dominating diagram over it."""
    A = parse_area("(2,4);(4,2)")
    J = ideal(R5, "x1^2", "x1*x2", "x1*x3", "x1*x4", "x1*x5", "x2^3", "x2^2*x3", "x2*x3^2", "x3^4")
    DI, DJ = ek_betti(SECTION5), ek_betti(J)
    assert admits(DI, A) and admits(DJ, A)
    for t in range(11):
        assert SECTION5.hilbert(t) == J.hilbert(t)
    alt_i = sum((-1) ** i * DI.entry(i, 6) for i in range(6))
    alt_j = sum((-1) ** i * DJ.entry(i, 6) for i in range(6))
    assert alt_i == alt_j == 2
    assert DI.entry(2, 6) == 2 and DJ.entry(4, 6) == 1
    # inside A the degree-6 alternating sum has only the cells (2,4) and
    # (4,2), both with positive sign, so a dominating diagram would need
    # alternating sum >= 3 there: impossible with the shared value 2
    assert [(i, 6 - i) for i in range(6) if (i, 6 - i) in A] == [(2, 4), (4, 2)]
    assert DI.entry(2, 6) + DJ.entry(4, 6) > alt_i
    report(5, "counterexample arithmetic")


def test_criterion_6_oracle_equivalence():
    """EK = oracle on 200 strongly stable ideals (n <= 4, degrees <= 4);
    the squarefree generator formula = oracle on 200 squarefree strongly
    stable ideals (n <= 6); the degreewise formulas agree everywhere."""
    rng = random.Random(20080)
    ran = 0
    for case in range(200):
        I = random_strongly_stable_ideal(rng, rng.randint(2, 4), 4)
        assert not I.is_zero
        D = ek_betti(I)
        assert koszul_betti(I) == D, f"EK/oracle split on case {case}: {I!r}"
        for i in range(I.ring.num_vars):
            for k in range(1, I.max_gen_degree + 1):
                assert bigatti_degreewise(I, i, k) == D.entry(i, i + k)
        ran += 1
    for case in range(200):
        I = random_sq_strongly_stable_ideal(rng, rng.randint(3, 6), 4)
        assert not I.is_zero
        D = ahh_betti(I)
        assert koszul_betti(I) == D, f"AHH/oracle split on case {case}: {I!r}"
        for i in range(I.ring.num_vars):
            for k in range(1, I.max_gen_degree + 1):
                assert sq_degreewise(I, i, k) == D.entry(i, i + k)
        ran += 1
    assert ran == 400
    report(6, "oracle equivalence, 200 + 200 cases")


class TestCriterion7PropertySuites:
    """Each suite: >= 100 randomized cases, zero failures.  The K-polynomial
    identity is asserted on every diagram any suite produces."""

    diagrams_checked = 0

    @classmethod
    def _k_identity(cls, I, D):
        top = (0 if D.is_zero else D.regularity()) + I.ring.num_vars
        for t in range(top + 1):
            assert D.hilbert_quotient(t) == I.hilbert_quotient(t)
        cls.diagrams_checked += 1

    def test_slice_characterization_biconditional(self):
        rng = random.Random(701)
        cases = 0
        while cases < 100:
            n, d = rng.randint(2, 4), rng.randint(1, 4)
            V = random_strongly_stable_set(rng, n, d)
            if rng.random() < 0.5 and len(V) > 1:
                members = list(V)
                members.remove(rng.choice(members[:-1]))
                V = tuple(members)
            dk = dk_decompose(V)
            conditions = all(is_strongly_stable(s) for s in dk) and all(
                set(m_le_k(dk[k - 1], k - 1)) <= set(dk[k - 2])
                for k in range(2, n + 1)
            )
            assert is_strongly_stable(V) == conditions
            cases += 1
        report("7a", "slice characterization of strong stability")

    def test_bigatti_and_squarefree_inequalities(self):
        rng = random.Random(702)
        cases = 0
        while cases < 100:
            n, d = rng.randint(2, 5), rng.randint(1, 5)
            V = random_strongly_stable_set(rng, n, d)
            L = lex_prefix(GroundRing(n), d, len(V))
            for k in range(1, n + 1):
                assert len(m_le_k(V, k)) >= len(m_le_k(L, k))
            cases += 1
        cases = 0
        while cases < 100:
            n = rng.randint(3, 6)
            d = rng.randint(1, min(4, n))
            V = random_sq_strongly_stable_set(rng, n, d)
            from tests.conftest import sq_prefix

            L = sq_prefix(GroundRing(n), d, len(V))
            for k in range(1, n + 1):
                assert len(m_le_k(V, k)) >= len(m_le_k(L, k))
            cases += 1
        report("7b", "lexsegments minimize low-index counts")

    def test_shadow_equality_under_vanishing(self):
        rng = random.Random(703)
        cases = 0
        while cases < 100:
            I = random_strongly_stable_ideal(rng, rng.randint(2, 4), 4)
            if I.is_zero:
                continue
            n = I.ring.num_vars
            D = ek_betti(I)
            self._k_identity(I, D)
            for j in range(1, I.max_gen_degree + 3):
                cur = I.degree_slice(j)
                below = I.degree_slice(j - 1)
                for i in range(1, n + 1):
                    assert sum(1 for m in cur if m.max_index == i) >= sum(
                        1 for m in below if m.max_index <= i
                    )
                for i in range(n):
                    if D.entry(i, i + j) == 0:
                        assert sum(1 for m in cur if m.max_index == i + 1) == sum(
                            1 for m in below if m.max_index <= i + 1
                        )
            cases += 1
        report("7c", "shadow counts and vanishing")

    def test_spreading_roundtrips_and_betti_preservation(self):
        rng = random.Random(704)
        cases = 0
        while cases < 100:
            n, d = rng.randint(2, 4), rng.randint(1, 4)
            V = random_strongly_stable_set(rng, n, d)
            I = MonomialIdeal(GroundRing(n), V)
            J = phi_ideal(I)
            assert phi_inv_ideal(J) == I
            assert l_star(J).entries == l_sequence(I).entries
            assert ahh_betti(J).regularity() == d
            cases += 1
        cases = 0
        while cases < 100:
            n = rng.randint(3, 5)
            V = random_strongly_stable_set(rng, n, rng.randint(1, 3), seeds=1)
            I = MonomialIdeal(GroundRing(n), V)
            if I.is_zero or any(g.max_index + g.degree - 1 > n for g in I.gens):
                continue
            D = ek_betti(I)
            spread = phi_tilde(I)
            assert ahh_betti(spread) == D
            self._k_identity(I, D)
            cases += 1
        report("7d", "spreading round-trips preserve Betti numbers")

    def test_equivalence_triads(self):
        rng = random.Random(705)
        cases = 0
        while cases < 100:
            n, d = rng.randint(2, 4), rng.randint(1, 3)
            V1 = random_strongly_stable_set(rng, n, d)
            V2 = random_strongly_stable_set(rng, n, d)
            I1, I2 = MonomialIdeal(GroundRing(n), V1), MonomialIdeal(GroundRing(n), V2)
            same_l = l_sequence(I1).entries == l_sequence(I2).entries
            same_b = ek_betti(I1) == ek_betti(I2)
            same_h = all(I1.hilbert(t) == I2.hilbert(t) for t in range(d + n + 1))
            assert same_l == same_b == same_h
            cases += 1
        cases = 0
        while cases < 100:
            n = rng.randint(3, 6)
            d = rng.randint(1, min(3, n))
            V1 = random_sq_strongly_stable_set(rng, n, d)
            V2 = random_sq_strongly_stable_set(rng, n, d)
            I1, I2 = MonomialIdeal(GroundRing(n), V1), MonomialIdeal(GroundRing(n), V2)
            same_l = l_star(I1).entries == l_star(I2).entries
            same_b = ahh_betti(I1) == ahh_betti(I2)
            same_h = all(I1.hilbert(t) == I2.hilbert(t) for t in range(n + 2))
            assert same_l == same_b == same_h
            cases += 1
        report("7e", "Hilbert = Betti = counts triads")

    def test_maximal_betti_dominance(self):
        rng = random.Random(706)
        cases = 0
        while cases < 100:
            I = random_monomial_ideal(rng, rng.randint(2, 4), 3)
            if I.is_zero or I.is_unit:
                continue
            D = koszul_betti(I)
            self._k_identity(I, D)
            d = D.regularity() + rng.randint(0, 1)
            Ld = lexd(I, d)
            Dd = ek_betti(Ld)
            assert Dd.dominates(D)
            Dfull = ek_betti(lexify(I))
            for (i, j) in set(Dd.entries) | set(Dfull.entries):
                if j - i < d:
                    assert Dd.entry(i, j) == Dfull.entry(i, j)
            cases += 1
        cases = 0
        while cases < 100:
            I = random_squarefree_ideal(rng, rng.randint(3, 6), 3)
            if I.is_zero or I.is_unit:
                continue
            D = koszul_betti(I)
            d = D.regularity() + rng.randint(0, 1)
            if d > I.ring.num_vars:
                continue
            Sd = sq_lexd(I, d)
            Dd = ahh_betti(Sd)
            assert Dd.dominates(D)
            Dfull = ahh_betti(sq_lexify(I))
            for (i, j) in set(Dd.entries) | set(Dfull.entries):
                if j - i < d:
                    assert Dd.entry(i, j) == Dfull.entry(i, j)
            cases += 1
        report("7f", "d-lexsegment ideals dominate and pin low rows")

    def test_uniqueness_of_d_lexsegment_ideals(self):
        """Hilbert-equal representatives (an ideal and its count-twin with the
        same per-max-index generator counts) produce the identical
        d-lexsegment ideal; outputs are fixed points."""
        rng = random.Random(707)
        from dreglex.dlex import dlinear_lex_from_l
        from dreglex.squarefree import sq_dlinear_from_l_star

        cases = 0
        while cases < 100:
            n, d = rng.randint(2, 4), rng.randint(1, 4)
            V = random_strongly_stable_set(rng, n, d)
            I = MonomialIdeal(GroundRing(n), V)
            twin = dlinear_lex_from_l(l_sequence(I), I.ring)
            dd = d + rng.randint(0, 1)
            J = lexd(I, dd)
            assert J.is_strongly_stable()
            assert ek_betti(J).regularity() <= dd
            assert lexd(twin, dd) == J
            assert lexd(J, dd) == J
            cases += 1
        cases = 0
        while cases < 100:
            n = rng.randint(3, 6)
            d = rng.randint(1, min(3, n))
            V = random_sq_strongly_stable_set(rng, n, d)
            I = MonomialIdeal(GroundRing(n), V)
            twin = sq_dlinear_from_l_star(l_star(I), I.ring)
            dd = min(d + rng.randint(0, 1), n)
            J = sq_lexd(I, dd)
            assert J.is_squarefree_strongly_stable()
            assert sq_lexd(twin, dd) == J
            assert sq_lexd(J, dd) == J
            cases += 1
        report("7g", "uniqueness of the (squarefree) d-lexsegment ideal")

    def test_maximal_betti_construction_invariance(self):
        rng = random.Random(708)
        from dreglex.areas import _construct_with_top

        cases = 0
        while cases < 100:
            I = random_strongly_stable_ideal(rng, rng.randint(3, 4), 3)
            if I.is_zero:
                continue
            D = ek_betti(I)
            area = ExtremalArea([(i, j - i) for (i, j) in D.entries]).conv_hull()
            n = I.ring.num_vars
            if area.max_i > n - 1:
                continue
            extra = [
                (i + 1, j - 1)
                for (i, j) in area.top_points()
                if i + 1 <= n - 1 and j - 1 >= 1
            ]
            if extra and rng.random() < 0.7:
                area = ExtremalArea(area.corners + tuple(extra))
            L = lex_i_a(I, area)
            assert admits(ek_betti(L), area)
            assert ek_betti(L).dominates(D)
            top = max(I.max_gen_degree, L.max_gen_degree) + 2
            assert all(L.hilbert(t) == I.hilbert(t) for t in range(top + 1))
            assert lex_i_a(L, area) == L
            results = {_construct_with_top(I, area, t) for t in area.top_points()}
            assert results == {L}
            self._k_identity(L, ek_betti(L))
            cases += 1
        report("7h", "maximal-Betti construction invariance")

    def test_characterization_roundtrip(self):
        rng = random.Random(709)
        cases = 0
        while cases < 100:
            I = random_strongly_stable_ideal(rng, rng.randint(2, 4), 4)
            if I.is_zero:
                continue
            n = I.ring.num_vars
            d = I.max_gen_degree
            H = HilbertSpec(n, tuple(I.hilbert(t) for t in range(d + n)), "ideal")
            verdict = characterize(H, d)
            assert verdict.admissible
            J = dlex_from_hilbert(H, d)
            assert all(J.hilbert(t) == I.hilbert(t) for t in range(d + n))
            cases += 1
        report("7i", "characterize-construct round-trip")

    def test_k_polynomial_identity_volume(self):
        assert self.diagrams_checked >= 100, (
            f"only {self.diagrams_checked} diagrams went through the identity check"
        )
        report("7j", f"K-polynomial identity on {self.diagrams_checked} diagrams")
