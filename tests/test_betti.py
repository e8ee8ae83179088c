"""Betti diagrams: the generator-sum formulas, the degreewise formulas in
the counts by max index, derived scalars, extremal corners, and text output."""

import itertools
import random

import pytest

from dreglex.betti import (
    MAX_TABLE_ROWS,
    BettiDiagram,
    _m_le_counts,
    ahh_betti,
    bigatti_degreewise,
    degreewise_diagram,
    ek_betti,
    sq_degreewise,
)
from dreglex.errors import DomainError
from dreglex.ideals import MonomialIdeal
from dreglex.monomials import GroundRing, parse_monomial
from tests.conftest import (
    random_monomial_ideal,
    random_sq_strongly_stable_ideal,
    random_squarefree_ideal,
    random_strongly_stable_ideal,
    squarefree_slice,
)

R4 = GroundRing(4)
R5 = GroundRing(5)


def ideal(ring, *texts):
    return MonomialIdeal(ring, [parse_monomial(t, ring) for t in texts])


LEX5 = ideal(R4, "x1^2", "x1*x2", "x1*x3^2", "x1*x3*x4^2", "x2^5", "x2^4*x3")
COUNTER_J = ideal(R5, "x1^2", "x1*x2", "x1*x3", "x1*x4", "x1*x5", "x2^3", "x2^2*x3", "x2*x3^2", "x3^4")


def rows(D):
    kmin, kmax = D.row_range()
    return {k: tuple(D.entry(i, i + k) for i in range(D.projdim() + 1)) for k in range(kmin, kmax + 1)}


class TestEK:
    def test_lex5_diagram(self):
        D = ek_betti(LEX5)
        assert rows(D) == {
            2: (2, 1, 0, 0),
            3: (1, 2, 1, 0),
            4: (1, 3, 3, 1),
            5: (2, 3, 1, 0),
        }
        assert D.totals() == (6, 9, 5, 1)

    def test_principal_power(self):
        D = ek_betti(ideal(R4, "x1^4"))
        assert D.entries == {(0, 4): 1}

    def test_counterexample_second_ideal(self):
        D = ek_betti(COUNTER_J)
        assert rows(D) == {
            2: (5, 10, 10, 5, 1),
            3: (3, 5, 2, 0, 0),
            4: (1, 2, 1, 0, 0),
        }

    def test_rejects_non_stable(self):
        with pytest.raises(DomainError):
            ek_betti(ideal(R4, "x1*x2", "x3*x4"))

    def test_regularity_is_max_generator_degree(self):
        rng = random.Random(41)
        for _ in range(60):
            I = random_strongly_stable_ideal(rng, rng.randint(2, 4), 4)
            if I.is_zero:
                continue
            assert ek_betti(I).regularity() == I.max_gen_degree


class TestAHH:
    def test_sqlex4_diagram(self):
        R6 = GroundRing(6)
        I = ideal(
            R6,
            "x1*x2*x3", "x1*x2*x4", "x1*x2*x5", "x1*x2*x6",
            "x1*x3*x4*x5", "x1*x3*x4*x6", "x2*x3*x4*x5",
        )
        D = ahh_betti(I)
        assert rows(D) == {3: (4, 6, 4, 1), 4: (3, 4, 1, 0)}

    def test_single_squarefree_generator(self):
        D = ahh_betti(ideal(R4, "x1*x2*x3"))
        assert D.entries == {(0, 3): 1}

    def test_sqlex_diagram(self):
        R6 = GroundRing(6)
        I = ideal(
            R6,
            "x1*x2*x3", "x1*x2*x4", "x1*x2*x5", "x1*x2*x6",
            "x1*x3*x4*x5", "x1*x3*x4*x6", "x1*x3*x5*x6", "x2*x3*x4*x5*x6",
        )
        assert rows(ahh_betti(I)) == {
            3: (4, 6, 4, 1),
            4: (3, 5, 2, 0),
            5: (1, 1, 0, 0),
        }

    def test_rejects_non_squarefree(self):
        with pytest.raises(DomainError):
            ahh_betti(ideal(R4, "x1^2"))

    def test_regularity_is_max_generator_degree(self):
        rng = random.Random(43)
        for _ in range(60):
            I = random_sq_strongly_stable_ideal(rng, rng.randint(2, 6), 4)
            if I.is_zero:
                continue
            assert ahh_betti(I).regularity() == I.max_gen_degree


class TestDegreewiseFormulas:
    def test_lex3_values(self):
        I = ideal(R4, "x1^2", "x1*x2", "x2^3")
        assert bigatti_degreewise(I, 0, 2) == 2
        assert bigatti_degreewise(I, 1, 3) == 1

    def test_zero_ideal(self):
        Z = MonomialIdeal.zero(R4)
        assert bigatti_degreewise(Z, 0, 2) == 0
        assert sq_degreewise(Z, 0, 2) == 0

    def test_matches_ek_on_random_inputs(self):
        rng = random.Random(47)
        for _ in range(60):
            I = random_strongly_stable_ideal(rng, rng.randint(2, 4), 4)
            if I.is_zero:
                continue
            assert degreewise_diagram(I) == ek_betti(I)

    def test_seed_past_the_enumeration_cap(self):
        # degree 10 in 14 variables has 1 144 066 monomials, above the default
        # enumeration cap; the counts come from numerators instead
        I = ideal(GroundRing(14), "x1^3", "x1^2*x2", "x1*x2^2", "x2^10")
        assert degreewise_diagram(I) == ek_betti(I)

    def test_sq_values(self):
        I = ideal(R4, "x1*x2*x3", "x1*x2*x4", "x1*x3*x4", "x2*x3*x4")
        assert sq_degreewise(I, 0, 3) == 4
        assert sq_degreewise(I, 1, 3) == 3

    def test_matches_ahh_on_random_inputs(self):
        rng = random.Random(53)
        for _ in range(60):
            I = random_sq_strongly_stable_ideal(rng, rng.randint(2, 6), 4)
            if I.is_zero:
                continue
            assert degreewise_diagram(I, squarefree=True) == ahh_betti(I)


def scanned_m_le_counts(I, k, squarefree):
    """|M_{<=q}(I, k)| for q = 0..n by scanning the degree-k slice."""
    members = squarefree_slice(I, k) if squarefree else I.degree_slice(k)
    per_max = [0] * (I.ring.num_vars + 1)
    for m in members:
        per_max[m.max_index] += 1
    return tuple(itertools.accumulate(per_max))


class TestCountsByMaxIndex:
    """The numerator counts against the slice scans they replace."""

    def test_match_slice_scans(self):
        rng = random.Random(59)
        ideals = [MonomialIdeal.zero(R4), ideal(R4, "1"), ideal(GroundRing(1), "1")]
        for _ in range(80):
            n = rng.randint(1, 8)
            if rng.random() < 0.5:
                ideals.append(random_monomial_ideal(rng, n, 4, count=rng.randint(1, 5)))
            else:
                ideals.append(random_squarefree_ideal(rng, n, 4, count=rng.randint(1, 5)))
        assert sum(not I.is_squarefree for I in ideals) > 20
        for I in ideals:
            for k in range(6):
                for squarefree in (False, True):
                    assert _m_le_counts(I, k, squarefree) == scanned_m_le_counts(I, k, squarefree), (I, k)


class TestDerivedScalars:
    def test_lex5_scalars(self):
        D = ek_betti(LEX5)
        assert D.regularity() == 5
        assert D.projdim() == 3
        assert D.depth_quotient() == 0

    def test_principal(self):
        D = ek_betti(ideal(R4, "x1^3"))
        assert D.regularity() == 3
        assert D.projdim() == 0

    def test_zero_diagram_undefined(self):
        D = BettiDiagram(4, {})
        with pytest.raises(DomainError):
            D.regularity()
        with pytest.raises(DomainError):
            D.projdim()

    def test_extremal_points_counterexample(self):
        # rows (5,7,4,1) at offset 2 and (2,4,2) at offset 4: the maximal
        # support corners are (2, 6) and (3, 5)
        I = ideal(R5, "x1^2", "x1*x2", "x1*x3", "x1*x4", "x2^2", "x2*x3^3", "x3^4")
        D = ek_betti(I)
        assert D.extremal_points() == {(2, 6): 2, (3, 5): 1}

    def test_extremal_points_bruteforce(self):
        rng = random.Random(59)
        for _ in range(40):
            I = random_strongly_stable_ideal(rng, rng.randint(2, 4), 4)
            if I.is_zero:
                continue
            D = ek_betti(I)
            cells = {(i, j - i): v for (i, j), v in D.entries.items()}
            expected = {
                (i, i + k): v
                for (i, k), v in cells.items()
                if not any((p, q) != (i, k) and p >= i and q >= k for (p, q) in cells)
            }
            assert D.extremal_points() == expected


class TestKPolynomialIdentity:
    def test_on_closed_forms(self):
        rng = random.Random(61)
        for _ in range(50):
            I = random_strongly_stable_ideal(rng, rng.randint(2, 4), 4)
            if I.is_zero:
                continue
            D = ek_betti(I)
            for t in range(D.regularity() + I.ring.num_vars + 1):
                assert D.hilbert_quotient(t) == I.hilbert_quotient(t)

    def test_on_squarefree_closed_forms(self):
        rng = random.Random(67)
        for _ in range(40):
            I = random_sq_strongly_stable_ideal(rng, rng.randint(2, 5), 3)
            if I.is_zero:
                continue
            D = ahh_betti(I)
            for t in range(D.regularity() + I.ring.num_vars + 1):
                assert D.hilbert_quotient(t) == I.hilbert_quotient(t)


class TestOutput:
    def test_table_format(self):
        D = ek_betti(ideal(R4, "x1^2", "x1*x2", "x2^3"))
        assert D.format_table() == "2: 2 1\n3: 1 1\ntotal: 3 2\n"

    def test_table_includes_gap_rows(self):
        I = ideal(R5, "x1^2", "x1*x2", "x1*x3", "x1*x4", "x2^2", "x2*x3^3", "x3^4")
        table = ek_betti(I).format_table()
        assert "3: - - - -\n" in table

    def test_table_row_bound(self):
        """Rows 2..MAX_TABLE_ROWS + 1 print, one row more is refused before
        any row is built."""
        def diagram(e):  # (x1^e, x2^2)
            return BettiDiagram(2, {(0, 2): 1, (0, e): 1, (1, e + 2): 1})

        assert diagram(MAX_TABLE_ROWS).format_table().count("\n") == MAX_TABLE_ROWS + 1
        past = diagram(MAX_TABLE_ROWS + 1)
        with pytest.raises(DomainError, match=f"the Betti table has {MAX_TABLE_ROWS + 1} rows, more than {MAX_TABLE_ROWS}"):
            past.format_table()
        assert len(past.format_triples().splitlines()) == 3

    def test_triples_sorted(self):
        D = ek_betti(LEX5)
        lines = D.format_triples().splitlines()
        assert lines[0] == "(0, 2, 2)"
        keys = [tuple(map(int, ln.strip("()").split(",")[:2])) for ln in lines]
        offsets = [(j - i, i) for i, j in keys]
        assert offsets == sorted(offsets)

    def test_quotient_view(self):
        D = ek_betti(ideal(R4, "x1^2", "x1*x2", "x2^3"))
        assert D.quotient_entry(0, 0) == 1
        assert D.quotient_entry(1, 2) == 2
        assert D.quotient_entry(2, 3) == 1
