"""The exact Betti oracle: strand ranks, agreement with an exhaustive
box scan, with a per-face slack scan, with Hochster's formula and with the
closed forms."""

import collections
import itertools
import math
import operator
import random

import pytest

from dreglex.betti import BettiDiagram, ahh_betti, ek_betti
from dreglex.errors import CapExceeded, DomainError
from dreglex.ideals import MonomialIdeal
import dreglex.koszul
from dreglex.koszul import (
    _block_betti,
    _components,
    _critical_faces,
    _down_closure,
    _face_tables,
    _lattice_betti,
    _lattice_points,
    _lcm_lattice,
    _second_matching,
    _strand_homology,
    exact_rank,
    koszul_betti,
)
from dreglex.monomials import GroundRing, Monomial, parse_monomial
from dreglex.squarefree import SimplicialComplex, stanley_reisner
from tests.conftest import (
    _threshold_masks,
    random_monomial,
    random_monomial_ideal,
    random_sq_strongly_stable_ideal,
    random_squarefree_monomial,
    random_strongly_stable_ideal,
)

R4 = GroundRing(4)


def ideal(ring, *texts):
    return MonomialIdeal(ring, [parse_monomial(t, ring) for t in texts])


class TestExactRank:
    def test_small_cases(self):
        assert exact_rank([]) == 0
        assert exact_rank([[0, 0], [0, 0]]) == 0
        assert exact_rank([[1, 2], [2, 4]]) == 1
        assert exact_rank([[1, 2], [2, 5]]) == 2
        assert exact_rank([[0, 1], [1, 0], [1, 1]]) == 2

    def test_matches_fraction_elimination(self):
        from fractions import Fraction

        def frac_rank(rows):
            m = [[Fraction(v) for v in row] for row in rows]
            rank = 0
            for c in range(len(m[0]) if m else 0):
                piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
                if piv is None:
                    continue
                m[rank], m[piv] = m[piv], m[rank]
                for r in range(rank + 1, len(m)):
                    if m[r][c]:
                        f = m[r][c] / m[rank][c]
                        m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
                rank += 1
            return rank

        rng = random.Random(71)
        for _ in range(60):
            rows = [[rng.randint(-2, 2) for _ in range(rng.randint(1, 6))] for _ in range(rng.randint(1, 6))]
            rows = [r[: len(rows[0])] + [0] * (len(rows[0]) - len(r)) for r in rows]
            assert exact_rank(rows) == frac_rank(rows)


class TestOracleBasics:
    def test_regular_sequence(self):
        D = koszul_betti(ideal(R4, "x1*x2", "x3*x4"))
        assert D.entries == {(0, 2): 2, (1, 4): 1}
        assert D.regularity() == 3

    def test_zero_ideal(self):
        assert koszul_betti(MonomialIdeal.zero(R4)).is_zero

    def test_unit_rejected(self):
        with pytest.raises(DomainError):
            koszul_betti(ideal(R4, "1"))

    def test_whole_maximal_ideal(self):
        # Koszul complex itself: beta_i(I) = C(n, i+1) in degree i+1
        D = koszul_betti(ideal(GroundRing(3), "x1", "x2", "x3"))
        assert D.entries == {(0, 1): 3, (1, 2): 3, (2, 3): 1}

    def test_large_exponents_index_their_ranks(self, monkeypatch):
        """(x1^N, x1*x2, x2^3*x3) with N = 10^6: the index and the lattice
        codes see each variable's exponent ranks, so they do not grow with N."""
        rows = []
        index = MonomialIdeal.threshold_index

        def recording(self):
            values, masks = index(self)
            rows.extend(map(len, masks))
            return values, masks

        monkeypatch.setattr(MonomialIdeal, "threshold_index", recording)
        N = 10**6
        I = MonomialIdeal(GroundRing(3), [Monomial((N, 0, 0)), Monomial((1, 1, 0)), Monomial((0, 3, 1))])
        assert koszul_betti(I).entries == {(0, 2): 1, (0, 4): 1, (1, 5): 1, (0, N): 1, (1, N + 1): 1}
        assert rows and max(rows) == 3

    def test_non_stable_example(self):
        # (x1^2, x1*x2, x2^3) vs its reverse-variable twin: same Betti numbers
        I = ideal(GroundRing(2), "x2^2", "x1*x2", "x1^3")
        D = koszul_betti(I)
        assert D.entries == {(0, 2): 2, (0, 3): 1, (1, 3): 1, (1, 4): 1}


class TestOracleVsClosedForms:
    def test_matches_ek(self):
        rng = random.Random(73)
        for _ in range(60):
            I = random_strongly_stable_ideal(rng, rng.randint(2, 4), 4)
            if I.is_zero:
                continue
            assert koszul_betti(I) == ek_betti(I)

    def test_matches_ek_on_merely_stable_ideals(self):
        """The generator-sum formula covers all stable ideals, not only the
        strongly stable ones; sweep includes genuinely non-strongly-stable
        inputs."""
        from tests.conftest import random_stable_ideal

        rng = random.Random(75)
        weaker = 0
        for _ in range(80):
            I = random_stable_ideal(rng, rng.randint(2, 4), 4)
            if I.is_zero:
                continue
            assert I.is_stable()
            if not I.is_strongly_stable():
                weaker += 1
            assert koszul_betti(I) == ek_betti(I)
        assert weaker >= 10

    def test_matches_ahh(self):
        rng = random.Random(79)
        for _ in range(60):
            I = random_sq_strongly_stable_ideal(rng, rng.randint(2, 6), 4)
            if I.is_zero:
                continue
            assert koszul_betti(I) == ahh_betti(I)

    def test_k_polynomial_identity_on_oracle_output(self):
        rng = random.Random(83)
        for _ in range(40):
            I = random_monomial_ideal(rng, rng.randint(2, 4), 3)
            if I.is_zero or I.is_unit:
                continue
            D = koszul_betti(I)
            top = (D.regularity() if not D.is_zero else 0) + I.ring.num_vars
            for t in range(top + 1):
                assert D.hilbert_quotient(t) == I.hilbert_quotient(t)


def hochster_betti(I):
    """Independent oracle for squarefree ideals: graded Betti numbers by
    reduced simplicial homology of vertex-set restrictions of the
    Stanley-Reisner complex, summed per Hochster's formula.  Shares nothing
    with the Koszul-strand implementation."""
    import itertools
    from fractions import Fraction

    from dreglex.squarefree import complex_from_ideal
    from tests.conftest import faces

    n = I.ring.num_vars
    all_faces = faces(complex_from_ideal(I))

    def reduced_homology_dims(faces):
        # chain complex over Q with the empty face in degree -1
        by_dim = {}
        for f in faces:
            by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
        for k in by_dim:
            by_dim[k].sort()
        dims = {}
        ranks = {}
        top = max(by_dim) if by_dim else -2
        for k in range(0, top + 1):
            rows_basis = by_dim.get(k - 1, [])
            cols_basis = by_dim.get(k, [])
            index = {f: r for r, f in enumerate(rows_basis)}
            matrix = [[0] * len(cols_basis) for _ in rows_basis]
            for c, f in enumerate(cols_basis):
                for pos in range(len(f)):
                    face = f[:pos] + f[pos + 1:]
                    matrix[index[face]][c] = (-1) ** pos
            ranks[k] = exact_rank(matrix)
        for k in range(-1, top + 1):
            dim_k = len(by_dim.get(k, []))
            homology = dim_k - ranks.get(k, 0) - ranks.get(k + 1, 0)
            if homology:
                dims[k] = homology
        return dims

    entries = {}
    for j in range(1, n + 1):
        for W in itertools.combinations(range(1, n + 1), j):
            Wset = set(W)
            restricted = [f for f in all_faces if f <= Wset]
            for k, dim in reduced_homology_dims(restricted).items():
                # beta_{i,j}(I) collects reduced homology in dimension j-i-2
                i = j - k - 2
                if 0 <= i:
                    entries[(i, j)] = entries.get((i, j), 0) + dim
    from dreglex.betti import BettiDiagram

    return BettiDiagram(n, entries)


class TestHochsterCrossCheck:
    def test_squarefree_oracle_agreement(self):
        """Koszul strands vs restriction homology on random squarefree ideals:
        two unrelated computations, one diagram."""
        rng = random.Random(97)
        checked = 0
        for _ in range(60):
            from tests.conftest import random_squarefree_ideal

            I = random_squarefree_ideal(rng, rng.randint(2, 5), 4, count=rng.randint(1, 4))
            if I.is_zero or I.is_unit:
                continue
            assert koszul_betti(I) == hochster_betti(I), I
            checked += 1
        assert checked >= 40

    def test_known_small_cases(self):
        assert hochster_betti(ideal(R4, "x1*x2", "x3*x4")).entries == {(0, 2): 2, (1, 4): 1}
        R3 = GroundRing(3)
        assert hochster_betti(ideal(R3, "x1", "x2", "x3")).entries == {
            (0, 1): 3, (1, 2): 3, (2, 3): 1,
        }


def box_scan_betti(I):
    """Reference oracle: the Koszul strand at every multidegree of the box
    0 <= a <= lcm(gens) + (1, ..., 1), so points off the lcm lattice are
    visited too, with standardness of x^(a - e_F) decided by
    MonomialIdeal.contains from the definition."""
    n = I.ring.num_vars
    top = [max(g.exponents[k] for g in I.gens) + 1 for k in range(n)]
    entries = {}
    for a in itertools.product(*(range(t + 1) for t in top)):
        supp = [k for k in range(n) if a[k]]
        if not supp:
            continue
        faces = [F for r in range(len(supp) + 1) for F in itertools.combinations(supp, r)]
        standard = [
            F for F in faces
            if not I.contains(Monomial(tuple(e - (k in F) for k, e in enumerate(a))))
        ]
        bases = [[F for F in standard if len(F) == i] for i in range(len(supp) + 1)]
        ranks = [0] * (len(supp) + 2)
        for i in range(1, len(supp) + 1):
            rows = {F: r for r, F in enumerate(bases[i - 1])}
            matrix = [[0] * len(bases[i]) for _ in bases[i - 1]]
            for col, F in enumerate(bases[i]):
                for pos in range(i):
                    face = F[:pos] + F[pos + 1:]
                    if face in rows:
                        matrix[rows[face]][col] = (-1) ** pos
            ranks[i] = exact_rank(matrix)
        for i in range(len(supp) + 1):
            homology = len(bases[i]) - ranks[i] - ranks[i + 1]
            if homology:
                entries[(i - 1, sum(a))] = entries.get((i - 1, sum(a)), 0) + homology
    return BettiDiagram(n, entries)


class TestBoxScanCrossCheck:
    def test_lcm_lattice_equals_box_scan(self):
        rng = random.Random(89)
        checked = 0
        for _ in range(40):
            I = random_monomial_ideal(rng, rng.randint(3, 4), 3)
            if I.is_zero or I.is_unit:
                continue
            assert koszul_betti(I) == box_scan_betti(I), I
            checked += 1
        assert checked >= 25

    def test_known_small_case(self):
        # the same diagram as TestOracleBasics.test_regular_sequence
        assert box_scan_betti(ideal(R4, "x1*x2", "x3*x4")).entries == {(0, 2): 2, (1, 4): 1}


def slack_scan_block_betti(gens, a):
    """Reference for one Koszul block: every face mask of supp(a) is tested
    against every generator's slack mask in turn, with no bitsets."""
    s = sum(1 for e in a if e)
    slacks = slack_masks(gens, a)
    return chain_homology(s, [mask for mask in range(1 << s) if all(mask & ~sl for sl in slacks)])


def slack_masks(gens, a):
    """The slack mask over supp(a) of each generator dividing x^a: bit pos
    set iff g_k < a_k at the pos-th support position k."""
    supp = [k for k, e in enumerate(a) if e]
    return [sum(1 << pos for pos, k in enumerate(supp) if g[k] < a[k]) for g in gens if all(map(operator.le, g, a))]


def chain_homology(s, faces):
    """Homology {i: dim} of the chain complex on the face masks `faces` over
    an s-element support, every basis built and every differential ranked."""
    bases = [[mask for mask in sorted(faces) if bin(mask).count("1") == i] for i in range(s + 1)]
    ranks = [0] * (s + 2)
    for i in range(1, s + 1):
        rows = {mask: r for r, mask in enumerate(bases[i - 1])}
        matrix = [[0] * len(bases[i]) for _ in bases[i - 1]]
        for col, mask in enumerate(bases[i]):
            sign = 1
            for pos in range(s):
                if mask >> pos & 1:
                    face = mask & ~(1 << pos)
                    if face in rows:
                        matrix[rows[face]][col] += sign
                    sign = -sign
        ranks[i] = exact_rank(matrix)
    out = {}
    for i in range(s + 1):
        homology = len(bases[i]) - ranks[i] - ranks[i + 1]
        assert homology >= 0
        if homology:
            out[i] = homology
    return out


def decode(width, codes, n):
    """The exponent vectors of the lattice codes of ``_lcm_lattice``."""
    field = (1 << width) - 1
    return {tuple((c >> k * width & field).bit_length() for k in range(n)) for c in codes}


def walk(gens, points, past=0):
    """(a, (divisors, below, degree)) for each point a, read by
    ``_lattice_points`` from the uncompressed index of `gens` (ranks are the
    exponents), its rows extended by `past` copies of the top entry so that
    points up to `past` above the top exponent can be coded."""
    masks = [row + row[-1:] * past for row in _threshold_masks(gens)]
    width = max(map(len, masks))
    codes = [sum(((1 << e) - 1) << k * width for k, e in enumerate(a)) for a in points]
    columns = [(range(len(row)), row) for row in masks]
    return list(zip(points, _lattice_points(codes, width, columns, (1 << len(gens)) - 1)))


@pytest.fixture
def closures(monkeypatch):
    """The face bitsets passed to ``_down_closure``, recorded through its
    module global."""
    calls = []

    def counting(faces, has):
        calls.append(faces)
        return _down_closure(faces, has)

    monkeypatch.setattr(dreglex.koszul, "_down_closure", counting)
    return calls


class TestBlockBitsets:
    def test_face_tables_match_definition(self):
        for s in range(11):
            full, has, by_size = _face_tables(s)
            assert full == (1 << (1 << s)) - 1
            assert len(has) == s and len(by_size) == s + 1
            for m in range(1 << s):
                for pos in range(s):
                    assert has[pos] >> m & 1 == m >> pos & 1
                for i in range(s + 1):
                    assert by_size[i] >> m & 1 == (bin(m).count("1") == i)

    def test_down_closure_is_all_submasks(self):
        rng = random.Random(101)
        for s in range(11):
            _, has, _ = _face_tables(s)
            for _ in range(8):
                masks = [rng.randrange(1 << s) for _ in range(rng.randint(1, 5))]
                closed = _down_closure(sum(1 << m for m in set(masks)), has)
                expected = sum(1 << m for m in range(1 << s) if any(not m & ~sl for sl in masks))
                assert closed == expected, (s, masks)

    def test_block_betti_matches_slack_scan(self, closures):
        """Blocks in 5-10 variables, at every lcm-lattice point and at random
        points of the box below lcm + 1; off the lattice a block is exact.
        The box-scan and Hochster cross-checks stop at 4 and 5 variables, so
        only this test reaches support positions past 4.  Cone points are
        answered without a down-closure, and they occur."""
        cones = 0
        rng = random.Random(103)
        widest = 0
        for _ in range(30):
            n = rng.randint(5, 10)
            I = random_monomial_ideal(rng, n, 4, count=rng.randint(2, 6))
            if I.is_unit:
                continue
            gens = tuple(g.exponents for g in I.gens)
            lattice = decode(*_lcm_lattice(gens, 10**4), n)
            top = [max(col) + 1 for col in zip(*gens)]
            off = [tuple(rng.randint(0, t) for t in top) for _ in range(10)]
            memo = {}
            for a, (divisors, below, _) in walk(gens, sorted(lattice) + off, past=1):
                before = len(closures)
                got = _block_betti(divisors, below, memo)
                assert got == slack_scan_block_betti(gens, a), (I, a)
                if a not in lattice:
                    assert got == {}, (I, a)
                widest = max(widest, sum(1 for e in a if e))
                if (1 << len(below)) - 1 in slack_masks(gens, a):
                    cones += 1
                    assert len(closures) == before, (I, a)
        assert widest >= 9
        assert cones >= 1

    def test_matching_keeps_homology_at_every_vertex(self):
        """Matching F with F + v for any one position v leaves the homology
        unchanged: the critical faces of every v, not only the one that
        _block_betti picks, against all standard faces."""
        rng = random.Random(107)
        nonzero = 0
        for s in range(9):
            full, has, _ = _face_tables(s)
            sets = [0, 1] + [
                _down_closure(sum(1 << rng.randrange(1 << s) for _ in range(rng.randint(2, 6))), has)
                for _ in range(20)
            ]
            for ns in sets:
                std = full & ~ns
                expected = _strand_homology(s, std)
                crits = _critical_faces(std, ns, has)
                assert len(crits) == s
                for v, crit in enumerate(crits):
                    assert not crit & ~(std & has[v]), (s, ns, v)
                    assert _strand_homology(s, crit) == expected, (s, ns, v)
                nonzero += bool(expected)
        assert nonzero >= 40, nonzero

    def test_closed_forms_match_slack_scan(self):
        """Every lattice point with at most two divisors, n <= 8: the answer
        ``_lattice_betti`` gives without face bitsets against the slack scan."""
        rng = random.Random(131)
        seen = collections.Counter()
        for _ in range(60):
            n = rng.randint(1, 8)
            I = random_monomial_ideal(rng, n, 3, count=rng.randint(1, 6))
            if I.is_unit:
                continue
            gens = tuple(g.exponents for g in I.gens)
            for a, (divisors, below, _) in walk(gens, sorted(decode(*_lcm_lattice(gens, 10**4), n))):
                count = divisors.bit_count()
                if count < 3:
                    assert _lattice_betti(divisors, below, {}) == slack_scan_block_betti(gens, a) == {count: 1}, (I, a)
                    seen[count] += 1
        assert seen[1] >= 100 and seen[2] >= 100, seen

    def test_three_divisors_with_disjoint_slack_masks(self):
        """(x1*x2, x1*x3, x2*x3): the top point has three divisors whose slack
        masks are pairwise disjoint, as two divisors' are, but K^a is three
        points, not two, so beta_2 = 2 there."""
        I = ideal(GroundRing(3), "x1*x2", "x1*x3", "x2*x3")
        gens = tuple(g.exponents for g in I.gens)
        [(a, (divisors, below, _))] = walk(gens, [(1, 1, 1)])
        assert divisors.bit_count() == 3 and sorted(slack_masks(gens, a)) == [1, 2, 4]
        assert _lattice_betti(divisors, below, {}) == slack_scan_block_betti(gens, a) == {2: 2}
        assert koszul_betti(I).entries == {(0, 2): 3, (1, 3): 2}

    @pytest.mark.parametrize(
        "n, gens, masks, expected",
        [
            (3, ["x1", "x2", "x3"], [3, 5, 6], {3: 1}),
            (3, ["x1*x2", "x1*x3", "x2*x3"], [1, 2, 4], {2: 2}),
            (4, ["x3*x4", "x1*x4", "x1*x2"], [3, 6, 12], {}),
            (4, ["x3*x4", "x1*x4", "x1*x2*x3"], [3, 6, 8], {2: 1}),
        ],
        ids=["circle", "three-points", "path", "edge-and-point"],
    )
    def test_three_mask_nerve(self, n, gens, masks, expected):
        """One case per nerve of three slack masks at the point (1, ..., 1):
        three, two, one and no pairwise meeting masks.  The block agrees with
        the slack scan, with the homology of the nerve, and with the oracle's
        diagram in that degree, where the lattice has no other point."""
        I = ideal(GroundRing(n), *gens)
        exps = tuple(g.exponents for g in I.gens)
        a = (1,) * n
        [(_, (divisors, below, _))] = walk(exps, [a])
        assert sorted(slack_masks(exps, a)) == masks
        assert _lattice_betti(divisors, below, {}) == slack_scan_block_betti(exps, a) == expected
        top = {(i, j): v for (i, j), v in koszul_betti(I).entries.items() if j == n}
        assert top == {(i - 1, n): v for i, v in expected.items()}

    def test_facet_nerve_matches_slack_scan(self):
        """Lattice points with more than three distinct slack masks but at
        most three facets (maximal masks), no empty mask and no cone, so K^a
        is covered by at most three simplices: the block agrees with the
        slack scan.  Half the ideals are x_(n+1) * J, whose last position is
        tight at every point, so the cone points of J become points with one
        facet."""
        rng = random.Random(139)
        seen = collections.Counter()
        for _ in range(600):
            n = rng.randint(3, 7)
            I = random_monomial_ideal(rng, n, 5, count=rng.randint(5, 10))
            if I.is_unit:
                continue
            gens = tuple(g.exponents for g in I.gens)
            if rng.random() < 0.5:
                gens, n = tuple(g + (1,) for g in gens), n + 1
            for a, (divisors, below, _) in walk(gens, sorted(decode(*_lcm_lattice(gens, 10**4), n))):
                masks = set(slack_masks(gens, a))
                facets = [m for m in masks if not any(m != o and not m & ~o for o in masks)]
                if len(masks) <= 3 or len(facets) > 3 or 0 in masks or (1 << len(below)) - 1 in masks:
                    continue
                assert _block_betti(divisors, below, {}) == slack_scan_block_betti(gens, a), (gens, a)
                seen[len(facets)] += 1
        assert sum(seen.values()) >= 200 and min(seen[k] for k in (1, 2, 3)) >= 15, seen

    def test_second_matching_matches_strand_homology(self, monkeypatch):
        """Every critical face set that koszul_betti meets over seeded random
        ideals, n <= 8, half of them squarefree with mostly quadrics: where
        the second single-vertex matching settles a set, its answer equals
        the ranked homology of the whole set.  Sets settled as zero, settled
        in one index and left to the ranks all occur."""
        met = []

        def recording(s, faces):
            met.append((s, faces))
            return _second_matching(s, faces)

        monkeypatch.setattr(dreglex.koszul, "_second_matching", recording)
        rng = random.Random(151)
        for _ in range(60):
            n = rng.randint(4, 8)
            if rng.random() < 0.5:
                I = random_monomial_ideal(rng, n, 3, count=rng.randint(6, 12))
            else:
                I = MonomialIdeal(GroundRing(n), [random_squarefree_monomial(rng, n, rng.choice((2, 2, 3)))
                                                  for _ in range(rng.randint(n, 2 * n))])
            if not I.is_unit:
                koszul_betti(I)
        outcomes = collections.Counter()
        for s, faces in met:
            settled = _second_matching(s, faces)
            if settled is None:
                outcomes["ranked"] += 1
            else:
                assert settled == _strand_homology(s, faces), (s, faces)
                outcomes["one index" if settled else "zero"] += 1
        assert min(outcomes[k] for k in ("zero", "one index", "ranked")) >= 15, outcomes

    def test_empty_slack_mask_is_no_nerve_vertex(self):
        """A divisor equal to x^a has the empty slack mask, which covers no
        point of K^a.  With the non-minimal divisors x1*x2*x3, x1 and x2*x3,
        K^a is one edge and one point, so beta_2 = 1, not the 2 that a nerve
        on three vertices would read."""
        gens = ((1, 1, 1), (1, 0, 0), (0, 1, 1))
        a = (1, 1, 1)
        [(_, (divisors, below, _))] = walk(gens, [a])
        assert sorted(slack_masks(gens, a)) == [0, 1, 6]
        assert _block_betti(divisors, below, {}) == slack_scan_block_betti(gens, a) == {2: 1}

    def test_one_size_shortcut_matches_basis_and_rank(self):
        rng = random.Random(137)
        for s in range(1, 10):
            _, _, by_size = _face_tables(s)
            for _ in range(12):
                i = rng.randint(0, s)
                faces = by_size[i] & rng.getrandbits(1 << s)
                expected = chain_homology(s, [m for m in range(1 << s) if faces >> m & 1])
                assert _strand_homology(s, faces) == expected == ({i: faces.bit_count()} if faces else {})

    def test_two_sizes_reach_exact_rank(self, monkeypatch):
        """A face set of two sizes is ranked, so a set on which d o d != 0
        (three sizes: the empty face, {x1} and {x1, x2}) still fails the
        kernel >= image assertion."""
        seen = []

        def counting(rows):
            seen.append(rows)
            return exact_rank(rows)

        monkeypatch.setattr(dreglex.koszul, "exact_rank", counting)
        assert _strand_homology(2, 1 << 0b01 | 1 << 0b10 | 1 << 0b11) == {1: 1}
        assert seen == [[[-1], [1]]]
        with pytest.raises(AssertionError, match="negative homology at index 1"):
            _strand_homology(2, 1 << 0b00 | 1 << 0b01 | 1 << 0b11)


class TestThresholdIndex:
    def test_divisor_and_slack_masks_match_direct_scan(self):
        """The walk's divisors, slack rows and degree at points up to two past
        the top exponent of each variable, where the index reads its top
        entry."""
        rng = random.Random(109)
        past_top = 0
        for _ in range(40):
            n = rng.randint(1, 6)
            I = random_monomial_ideal(rng, n, 4, count=rng.randint(1, 6))
            if I.is_unit:
                continue
            gens = tuple(g.exponents for g in I.gens)
            masks = _threshold_masks(gens)
            top = [max(col) for col in zip(*gens)]
            for k in range(n):
                assert masks[k] == tuple(
                    sum(1 << i for i, g in enumerate(gens) if g[k] <= v) for v in range(top[k] + 1)
                )
            points = [tuple(rng.randint(0, t + 2) for t in top) for _ in range(20)]
            for a, (got, below, degree) in walk(gens, points, past=2):
                divisors = sum(1 << i for i, g in enumerate(gens) if all(map(operator.le, g, a)))
                slack = [
                    sum(1 << i for i, g in enumerate(gens) if divisors >> i & 1 and g[k] < a[k])
                    for k in range(n)
                    if a[k]
                ]
                assert (got, [got & row for row in below], degree) == (divisors, slack, sum(a)), (I, a)
                past_top += any(e > t for e, t in zip(a, top))
        assert past_top >= 100

    def test_lcm_lattice_matches_max_closure(self):
        """The OR-coded lattice against the closure under exponent-wise max,
        exponents up to 4; the cap counts the same points."""
        rng = random.Random(113)
        for _ in range(40):
            n = rng.randint(1, 5)
            I = random_monomial_ideal(rng, n, 4, count=rng.randint(1, 7))
            if I.is_unit:
                continue
            gens = tuple(g.exponents for g in I.gens)
            expected = {(0,) * n}
            for g in gens:
                expected |= {tuple(map(max, m, g)) for m in expected}
            assert decode(*_lcm_lattice(gens, len(expected)), n) == expected, I
            with pytest.raises(CapExceeded):
                _lcm_lattice(gens, len(expected) - 1)


def unsplit_betti(I):
    """The oracle without the component split: every block of the whole lcm
    lattice, each with a memo of its own."""
    gens = tuple(g.exponents for g in I.gens)
    entries = {}
    for _, (divisors, below, j) in walk(gens, decode(*_lcm_lattice(gens, 10**5), len(gens[0]))):
        for i, v in _block_betti(divisors, below, {}).items():
            if i:
                entries[(i - 1, j)] = entries.get((i - 1, j), 0) + v
    return entries


class TestComponents:
    def test_product_matches_unsplit_oracle(self):
        """Ideals on two disjoint variable sets, n <= 8: the product of the
        components' Betti polynomials against the whole lattice's blocks."""
        rng = random.Random(127)
        for _ in range(30):
            n1 = rng.randint(1, 4)
            n2 = rng.randint(1, 8 - n1)
            left = [random_monomial(rng, n1, rng.randint(1, 3)).exponents + (0,) * n2
                    for _ in range(rng.randint(1, 3))]
            right = [(0,) * n1 + random_monomial(rng, n2, rng.randint(1, 3)).exponents
                     for _ in range(rng.randint(1, 3))]
            I = MonomialIdeal(GroundRing(n1 + n2), [Monomial(e) for e in left + right])
            assert len(_components(_threshold_masks(tuple(g.exponents for g in I.gens)))) >= 2
            assert koszul_betti(I).entries == unsplit_betti(I), I

    def test_components_join_meeting_supports(self):
        gens = ((1, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 1, 0, 0, 1), (0, 0, 0, 2, 0), (0, 0, 1, 1, 0))
        assert sorted(_components(_threshold_masks(gens))) == [0b00101, 0b11010]

    def test_complete_intersection_in_22_variables(self, monkeypatch):
        """(x1*...*x11, x12*...*x22): two blocks of 11 support positions,
        not one of 22."""
        widths = []

        def recording(divisors, below, memo):
            widths.append(len(below))
            return _lattice_betti(divisors, below, memo)

        monkeypatch.setattr(dreglex.koszul, "_lattice_betti", recording)
        I = MonomialIdeal(GroundRing(22), [Monomial((1,) * 11 + (0,) * 11), Monomial((0,) * 11 + (1,) * 11)])
        assert koszul_betti(I).entries == {(0, 11): 2, (1, 22): 1}
        assert max(widths) == 11

    def test_cap_bounds_each_component(self):
        # two components of 2 points each: the product lattice has 4, but
        # only the components' lattices are enumerated
        I = ideal(R4, "x1*x2", "x3*x4")
        assert koszul_betti(I, cap=2).entries == {(0, 2): 2, (1, 4): 1}
        with pytest.raises(CapExceeded, match="lcm lattice exceeds the cap of 1 multidegrees"):
            koszul_betti(I, cap=1)

    def test_twenty_coprime_quadrics(self):
        # a complete intersection whose product lattice (2^20 points) exceeds
        # the default cap: the Koszul complex on 20 quadrics
        I = MonomialIdeal(GroundRing(40), [Monomial((0,) * (2 * k) + (1, 1) + (0,) * (38 - 2 * k)) for k in range(20)])
        assert koszul_betti(I).entries == {(i - 1, 2 * i): math.comb(20, i) for i in range(1, 21)}


class TestWorkPinned:
    """The exact_rank calls and matrix cells of two oracle runs, recorded from
    the one-vertex matching that ranks only the critical faces, with each
    distinct critical face set ranked once per oracle call; the points with
    one or two divisors and the cone points are answered without ranks, a
    repeated slack-mask family is answered from the memo, and a critical
    face set that a second single-vertex matching leaves empty or of one
    size is counted.  Without the second matching the same runs read 45/301
    and 11/16.
    The lcm lattice sizes are pinned too, so the same blocks are visited;
    ranking every standard face took all_faces, and each pair must stay
    strictly below that.  exact_rank is patched through its module global,
    the name the bench tracer wraps."""

    @pytest.mark.parametrize(
        "n, gens, lattice, calls, cells, all_faces",
        [
            (8, [f"x{i}*x{i % 8 + 1}" for i in range(1, 9)], 90, 15, 204, (236, 6848)),
            (5, ["x1^3", "x1^2*x2", "x1*x2*x3", "x2^2*x4", "x1*x3*x5", "x2*x3^2",
                 "x3*x4*x5", "x1*x4^2", "x2*x5^2", "x4^3", "x3^2*x5", "x1*x2*x5"], 224, 0, 0, (202, 1102)),
        ],
        ids=["8-cycle", "one-degree-n5-d3"],
    )
    def test_exact_rank_calls_and_cells(self, monkeypatch, n, gens, lattice, calls, cells, all_faces):
        seen = []

        def counting(rows):
            seen.append(len(rows) * (len(rows[0]) if rows else 0))
            return exact_rank(rows)

        I = ideal(GroundRing(n), *gens)
        assert len(_lcm_lattice(tuple(g.exponents for g in I.gens), 10**4)[1]) == lattice
        monkeypatch.setattr(dreglex.koszul, "exact_rank", counting)
        koszul_betti(I)
        assert (len(seen), sum(seen)) == (calls, cells)
        assert calls < all_faces[0] and cells < all_faces[1]

    def test_memo_ranks_each_face_set_once(self, monkeypatch):
        """On the 8-cycle, lattice points with a memo of their own each
        compute their homology; one oracle call computes fewer, each key
        once."""
        seen = []

        def counting(s, faces):
            seen.append((s, faces))
            return _strand_homology(s, faces)

        I = ideal(GroundRing(8), *(f"x{i}*x{i % 8 + 1}" for i in range(1, 9)))
        gens = tuple(g.exponents for g in I.gens)
        monkeypatch.setattr(dreglex.koszul, "_strand_homology", counting)
        for _, (divisors, below, _) in walk(gens, decode(*_lcm_lattice(gens, 10**4), 8)):
            _lattice_betti(divisors, below, {})
        blocks = len(seen)
        seen.clear()
        koszul_betti(I)
        assert len(seen) < blocks
        assert len(set(seen)) == len(seen)


def test_twelve_cycle_known_answer():
    """853 lattice points with supports up to 12: past the bench's lattices.
    Totals 12 54 124 165 132 58 12 2."""
    D = koszul_betti(ideal(GroundRing(12), *(f"x{i}*x{i % 12 + 1}" for i in range(1, 13))))
    assert D.entries == {
        (0, 2): 12, (1, 3): 12, (1, 4): 42, (2, 5): 84, (2, 6): 40, (3, 6): 42, (3, 7): 120,
        (3, 8): 3, (4, 8): 120, (4, 9): 12, (5, 9): 40, (5, 10): 18, (6, 11): 12, (7, 12): 2,
    }


def test_fourteen_cycle_known_answer():
    """2627 lattice points with supports up to 14, recorded from the oracle
    that ranked every standard face.  Totals 14 77 224 392 434 308 140 35 1."""
    D = koszul_betti(ideal(GroundRing(14), *(f"x{i}*x{i % 14 + 1}" for i in range(1, 15))))
    assert D.entries == {
        (0, 2): 14, (1, 3): 14, (1, 4): 63, (2, 5): 126, (2, 6): 98, (3, 6): 63, (3, 7): 294,
        (3, 8): 35, (4, 8): 294, (4, 9): 140, (5, 9): 98, (5, 10): 210, (6, 11): 140, (7, 12): 35,
        (8, 14): 1,
    }


def test_projective_plane_is_answered_in_characteristic_zero():
    """The 6-vertex triangulation of RP^2, whose homology has 2-torsion:
    over Q its Stanley-Reisner ideal has a 3-linear resolution of length 2,
    while ranks over GF(2) would add the entries (2, 6) and (3, 6).  Its
    cone x7 * I in a seventh variable shifts every degree by one and keeps
    the numbers."""
    facets = ("123", "134", "145", "156", "126", "235", "245", "246", "346", "356")
    I = stanley_reisner(SimplicialComplex(6, [map(int, f) for f in facets]))
    assert koszul_betti(I).entries == {(0, 3): 10, (1, 4): 15, (2, 5): 6}
    cone = MonomialIdeal(GroundRing(7), [Monomial(g.exponents + (1,)) for g in I.gens])
    assert koszul_betti(cone).entries == {(0, 4): 10, (1, 5): 15, (2, 6): 6}
