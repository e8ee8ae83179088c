"""Monomial core: lex order, strong stability, max-index decompositions."""

import copy
import pickle
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dreglex.areas import ExtremalArea
from dreglex.betti import BettiDiagram
from dreglex.dlex import LSequence
from dreglex.errors import DomainError, FormatError
from dreglex.ideals import MonomialIdeal
from dreglex.macaulay import HilbertSpec
from dreglex.monomials import (
    GroundRing,
    Monomial,
    count_monomials,
    enumerate_degree,
    format_monomial,
    iter_degree_desc,
    lex_prefix,
    lex_prefix_counts,
    lex_rank,
    parse_monomial,
)
from dreglex.squarefree import SimplicialComplex
from tests.conftest import (
    dk_decompose,
    is_lexsegment_set,
    is_strongly_stable,
    lex_desc,
    m_le_k,
    random_strongly_stable_set,
    strongly_stable_closure,
)

R3 = GroundRing(3)
R4 = GroundRing(4)


def mons(ring, *texts):
    return [parse_monomial(t, ring) for t in texts]


def mset(ring, *texts):
    return lex_desc(mons(ring, *texts))


# The running strongly stable example with counts (1, 3, 3, 1).
V_EX1 = mset(R4, "x1^3", "x1^2*x2", "x1*x2^2", "x2^3", "x1^2*x3", "x1*x2*x3", "x2^2*x3", "x1^2*x4")
# The 3-linear lexsegment set that is not lexsegment.
L_EX = mset(R3, "x1^3", "x1^2*x2", "x1*x2^2", "x2^3", "x1^2*x3")


class TestLexCompare:
    """The lex order of one degree is the order of its slice: u > v iff u
    comes first in ``enumerate_degree``."""

    @staticmethod
    def position(u):
        return enumerate_degree(u.ring, u.degree).index(u)

    def test_paper_example(self):
        u, v = mons(R4, "x1*x2*x3", "x2^3")
        assert self.position(u) < self.position(v)

    def test_reflexive(self):
        u = parse_monomial("x1^2*x3", R4)
        assert enumerate_degree(R4, 3).count(u) == 1

    def test_first_exponent_decides(self):
        u, v = mons(R4, "x1^2", "x1*x2")
        assert self.position(u) < self.position(v)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_total_order(self, data):
        n = data.draw(st.integers(1, 3))
        d = data.draw(st.integers(1, 4))
        members = enumerate_degree(GroundRing(n), d)
        i = data.draw(st.integers(0, len(members) - 1))
        j = data.draw(st.integers(0, len(members) - 1))
        # the slice is strictly lex-descending, so positions order it totally
        assert (i < j) == (members[i].exponents > members[j].exponents)
        assert (i == j) == (members[i] == members[j])


class TestMonomialBasics:
    def test_unit_monomial(self):
        one = R4.one()
        assert one.degree == 0
        assert one.max_index == 0
        assert format_monomial(one) == "1"

    def test_max_index(self):
        assert parse_monomial("x1^2*x3", R4).max_index == 3

    def test_squarefree_from_support(self):
        assert R4.squarefree({1, 3}) == parse_monomial("x1*x3", R4)
        assert R4.squarefree(()) == R4.one()
        assert R4.squarefree(frozenset(range(1, 5))).support == (1, 2, 3, 4)

    def test_parse_format_roundtrip(self):
        for text in ["1", "x1", "x2^5", "x1^2*x3", "x1*x2*x3*x4"]:
            m = parse_monomial(text, R4)
            assert format_monomial(m) == text
            assert parse_monomial(format_monomial(m), R4) == m

    def test_parse_whitespace_and_errors(self):
        assert parse_monomial(" x1 ^2 * x3 ", R4) == parse_monomial("x1^2*x3", R4)
        with pytest.raises(FormatError):
            parse_monomial("y1", R4)
        with pytest.raises(FormatError):
            parse_monomial("x5", R4)
        with pytest.raises(FormatError):
            parse_monomial("", R4)

    def test_parse_unicode_whitespace(self):
        """Whitespace inside a monomial is every character the regular
        expression \\s matches, str.isspace's set: tabs, line ends, NBSP and
        U+2003 are dropped, a zero-width space is not.  Messages quote the
        factor without it and the text as given."""
        spaces = re.findall(r"\s", "".join(map(chr, range(sys.maxunicode + 1))))
        assert {"\t", "\r", "\n", "\xa0", "\u2003"} <= set(spaces) and len(spaces) == 29
        for c in spaces:
            assert parse_monomial(f"{c}x1{c}^{c}2*x3{c}", R4) == parse_monomial("x1^2*x3", R4)
        assert parse_monomial("x1^2\t*\u2003x3\r\n", R4) == parse_monomial("x1^2*x3", R4)
        cases = [
            ("x1\t*y2", "bad monomial factor 'y2' in 'x1\\t*y2'"),
            ("x1*x\u200b2", "bad monomial factor 'x\\u200b2' in 'x1*x\\u200b2'"),
            ("x1\xa0*x5\r\n", "variable x5 outside ring with 4 variables"),
            ("x1^\u20030", "exponent must be positive in 'x1^0'"),
            (" \t\r\n\xa0", "empty monomial"),
        ]
        for text, message in cases:
            with pytest.raises(FormatError) as exc:
                parse_monomial(text, R4)
            assert str(exc.value) == message

    def test_immutable(self):
        m = parse_monomial("x1^2*x3", R3)
        before = hash(m)
        members = {m}
        with pytest.raises(AttributeError):
            m.exponents = (5, 0, 0)
        with pytest.raises(AttributeError):
            del m.exponents
        assert m.exponents == (2, 0, 1)
        assert hash(m) == before
        assert m in members


@pytest.mark.parametrize(
    "make, attr",
    [
        (lambda: parse_monomial("x1^2*x3", R3), "exponents"),
        (lambda: MonomialIdeal(R3, [parse_monomial("x1*x2", R3)]), "gens"),
        (lambda: BettiDiagram(3, {(0, 2): 1}), "entries"),
        (lambda: ExtremalArea([(1, 3)]), "corners"),
        (lambda: SimplicialComplex(3, [{1, 2}]), "facets"),
    ],
    ids=["Monomial", "MonomialIdeal", "BettiDiagram", "ExtremalArea", "SimplicialComplex"],
)
def test_value_types_reject_assignment_and_deletion(make, attr):
    obj = make()
    before = getattr(obj, attr)
    with pytest.raises(AttributeError):
        setattr(obj, attr, None)
    with pytest.raises(AttributeError):
        delattr(obj, attr)
    assert getattr(obj, attr) == before


def warmed_ideal():
    """An ideal whose memo already holds a numerator, an index and a verdict."""
    I = MonomialIdeal(R4, mons(R4, "x1^2", "x1*x2", "x2*x3^2"))
    I.hilbert(5)
    I.is_stable()
    assert I._cache
    return I


@pytest.mark.parametrize(
    "make",
    [
        lambda: parse_monomial("x1^2*x3", R3),
        lambda: MonomialIdeal(R3, [parse_monomial("x1*x2", R3)]),
        warmed_ideal,
        lambda: BettiDiagram(3, {(1, 3): 2, (0, 2): 3}),
        lambda: ExtremalArea([(1, 3), (2, 2)]),
        lambda: SimplicialComplex(3, [{1, 2}, {2, 3}]),
        lambda: R4,
        lambda: HilbertSpec(3, (0, 1, 3), "ideal"),
        lambda: LSequence((1, 2), 2),
    ],
    ids=["Monomial", "MonomialIdeal", "MonomialIdeal-warmed", "BettiDiagram", "ExtremalArea",
         "SimplicialComplex", "GroundRing", "HilbertSpec", "LSequence"],
)
@pytest.mark.parametrize(
    "clone",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_value_types_round_trip(make, clone):
    value = make()
    twin = clone(value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value)
    assert repr(twin) == repr(value)
    if isinstance(value, MonomialIdeal):
        assert [twin.hilbert(t) for t in range(6)] == [value.hilbert(t) for t in range(6)]
        assert twin.is_stable() == value.is_stable()


def test_betti_entries_are_read_only():
    D = BettiDiagram(3, {(1, 3): 2, (0, 2): 3})
    before = hash(D)
    with pytest.raises(TypeError):
        D.entries[(0, 2)] = 7
    with pytest.raises(TypeError):
        del D.entries[(1, 3)]
    assert D.entries == {(0, 2): 3, (1, 3): 2}
    assert hash(D) == before
    for twin in (pickle.loads(pickle.dumps(D)), copy.deepcopy(D)):
        with pytest.raises(TypeError):
            twin.entries[(0, 2)] = 7


def test_sequence_fields_are_stored_as_tuples():
    H = HilbertSpec(3, [0, 1, 3], "ideal")
    L = LSequence([1, 2], 2)
    m = Monomial([2, 0, 1])
    assert (H.values, L.entries, m.exponents) == ((0, 1, 3), (1, 2), (2, 0, 1))
    with pytest.raises(TypeError):
        H.values[1] = 9
    with pytest.raises(TypeError):
        L.entries[0] = 9
    assert hash(H) == hash(HilbertSpec(3, (0, 1, 3), "ideal"))
    assert hash(L) == hash(LSequence((1, 2), 2))
    assert hash(m) == hash(Monomial((2, 0, 1)))


class TestEnumerationAndPrefix:
    def test_degree_two_in_two_vars(self):
        got = [format_monomial(m) for m in enumerate_degree(GroundRing(2), 2)]
        assert got == ["x1^2", "x1*x2", "x2^2"]

    def test_single_var(self):
        got = list(enumerate_degree(GroundRing(1), 5))
        assert got == [parse_monomial("x1^5", GroundRing(1))]

    def test_degree_two_in_four_vars(self):
        members = list(enumerate_degree(R4, 2))
        assert len(members) == count_monomials(4, 2) == 10
        assert format_monomial(members[0]) == "x1^2"
        assert format_monomial(members[-1]) == "x4^2"

    def test_slices_are_lex_descending_tuples(self):
        I = MonomialIdeal(R4, mons(R4, "x1*x2", "x3^2"))
        slices = (enumerate_degree(R4, 3), lex_prefix(R4, 3, 12), lex_prefix(R4, 3, 9, max_var=3, start=2),
                  I.degree_slice(3))
        for got in slices:
            assert type(got) is tuple and len(got) > 1
            assert all(u.exponents > v.exponents for u, v in zip(got, got[1:]))

    def test_prefix_is_initial_segment(self):
        full = list(enumerate_degree(R4, 3))
        for size in (0, 1, 7, len(full)):
            assert list(lex_prefix(R4, 3, size)) == full[:size]

    def test_prefix_in_subring(self):
        got = [format_monomial(m) for m in lex_prefix(R4, 2, 3, max_var=2)]
        assert got == ["x1^2", "x1*x2", "x2^2"]

    def test_prefix_too_large(self):
        with pytest.raises(DomainError):
            lex_prefix(R4, 2, 4, max_var=2)


class TestStronglyStable:
    def test_example_set_is_strongly_stable(self):
        assert is_strongly_stable(V_EX1)

    def test_missing_exchange(self):
        assert not is_strongly_stable(mset(GroundRing(2), "x2^3"))

    def test_three_linear_example(self):
        assert is_strongly_stable(L_EX)

    def test_closure_forced_moves(self):
        closed = strongly_stable_closure(mset(GroundRing(2), "x2^2"))
        assert closed == mset(GroundRing(2), "x1^2", "x1*x2", "x2^2")

    def test_closure_fixpoint(self):
        assert strongly_stable_closure(V_EX1) == V_EX1

    def test_closure_matches_bruteforce(self):
        # independent oracle: saturate the one-step exchange relation by
        # repeated full passes until nothing new appears
        start = mset(R3, "x1*x3")

        def brute(members):
            current = set(members)
            while True:
                nxt = set(current)
                for m in current:
                    for q in m.support:
                        for p in range(1, q):
                            nxt.add(m.exchange(p, q))
                if nxt == current:
                    return current
                current = nxt

        expected = brute(start)
        assert set(strongly_stable_closure(start)) == expected
        assert expected == set(mset(R3, "x1^2", "x1*x2", "x1*x3"))

    def test_closure_properties(self):
        rng = random.Random(5)
        for _ in range(40):
            V = random_strongly_stable_set(rng, rng.randint(2, 4), rng.randint(1, 4))
            # idempotent and extensive on arbitrary subsets
            sub = V[: max(1, len(V) // 2)]
            closed = strongly_stable_closure(sub)
            assert set(sub) <= set(closed)
            assert strongly_stable_closure(closed) == closed
            # monotone
            smaller = sub[:1]
            assert set(strongly_stable_closure(smaller)) <= set(closed)


class TestDecompositions:
    def test_example_dk(self):
        dk = dk_decompose(V_EX1)
        assert dk[1] == mset(R4, "x1^2", "x1*x2", "x2^2")
        assert [len(s) for s in dk] == [1, 3, 3, 1]

    def test_empty_set(self):
        dk = dk_decompose(())
        assert all(len(s) == 0 for s in dk)

    def test_three_linear_example_d3(self):
        dk = dk_decompose(L_EX)
        assert dk[2] == mset(R3, "x1^2")

    def test_unit_rejected(self):
        with pytest.raises(DomainError):
            dk_decompose([R4.one()])

    def test_reconstruction(self):
        rng = random.Random(9)
        for _ in range(60):
            V = random_strongly_stable_set(rng, rng.randint(2, 4), rng.randint(1, 4))
            rebuilt = []
            for k, Dk in enumerate(dk_decompose(V), start=1):
                rebuilt.extend(m.times_var(k) for m in Dk)
            assert len(rebuilt) == len(V)  # no duplicates
            assert set(rebuilt) == set(V)

    def test_m_le_k_examples(self):
        assert m_le_k(V_EX1, 2) == mset(R4, "x1^3", "x1^2*x2", "x1*x2^2", "x2^3")
        assert m_le_k(V_EX1, 4) == V_EX1
        assert m_le_k(V_EX1, 1) == mset(R4, "x1^3")
        with pytest.raises(DomainError):
            m_le_k(V_EX1, 5)

    def test_m_le_k_monotone(self):
        sizes = [len(m_le_k(V_EX1, k)) for k in range(1, 5)]
        assert sizes == sorted(sizes)


class TestSliceCharacterization:
    """Strong stability is equivalent to: every max-index slice strongly
    stable, and each slice's low part contained in the previous slice."""

    @staticmethod
    def slice_conditions(V):
        dk = dk_decompose(V)
        if not all(is_strongly_stable(s) for s in dk):
            return False
        for k in range(2, len(dk) + 1):
            low = m_le_k(dk[k - 1], k - 1)
            if not set(low) <= set(dk[k - 2]):
                return False
        return True

    def test_biconditional_random(self):
        rng = random.Random(21)
        hits = {True: 0, False: 0}
        for _ in range(120):
            n, d = rng.randint(2, 4), rng.randint(1, 4)
            V = random_strongly_stable_set(rng, n, d)
            if rng.random() < 0.5 and len(V) > 1:
                # puncture the closure to get non-strongly-stable sets too
                members = list(V)
                members.remove(rng.choice(members[: len(members) - 1]))
                V = tuple(members)
            verdict = is_strongly_stable(V)
            hits[verdict] += 1
            assert verdict == self.slice_conditions(V)
        assert hits[True] and hits[False]


class TestBigattiComparison:
    def test_lexsegment_minimizes_low_counts(self):
        rng = random.Random(33)
        for _ in range(120):
            n, d = rng.randint(2, 5), rng.randint(1, 5)
            V = random_strongly_stable_set(rng, n, d)
            L = lex_prefix(GroundRing(n), d, len(V))
            assert is_lexsegment_set(L)
            for k in range(1, n + 1):
                assert len(m_le_k(V, k)) >= len(m_le_k(L, k))


def test_lexsegment_predicate():
    assert is_lexsegment_set(mset(R4, "x1^2", "x1*x2"))
    assert not is_lexsegment_set(mset(R4, "x1^2", "x1*x3"))
    assert is_lexsegment_set(())
    # subring restriction: {x1^2, x1*x2, x2^2} is the full degree-2 segment in 2 vars
    assert is_lexsegment_set(mset(R4, "x1^2", "x1*x2", "x2^2"), max_var=2)


class TestLexRanks:
    """lex_rank, lex_prefix with a start and is_lexsegment_set against the enumeration
    order of iter_degree_desc, for every ring size n <= 5, degree d <= 6 and
    max_var k."""

    @staticmethod
    def worlds():
        for n in range(1, 6):
            for d in range(7):
                for k in range(n + 1):
                    order = [Monomial(e + (0,) * (n - k)) for e in iter_degree_desc(k, d)] if k else []
                    yield GroundRing(n), d, k, order

    @staticmethod
    def ranges(total):
        """Every (start, stop) pair up to 40 monomials; past that every
        start with the stops start, start + 1 and total, and every stop
        from 0 (all pairs there would take seconds)."""
        if total <= 40:
            return [(a, b) for a in range(total + 1) for b in range(a, total + 1)]
        return sorted({(a, b) for a in range(total + 1) for b in (a, min(a + 1, total), total)}
                      | {(0, b) for b in range(total + 1)})

    def test_rank_is_position(self):
        for _, _, k, order in self.worlds():
            assert [lex_rank(m, k) for m in order] == list(range(len(order)))

    def test_rank_counts_members_before_any_monomial(self):
        # the c_k count of dlex_from_hilbert: the members in x1..xk of the
        # lex prefix of the whole ring that ends just before m
        for ring, d, k, order in self.worlds():
            if k == ring.num_vars:
                continue
            inside = 0
            for m in (Monomial(e) for e in iter_degree_desc(ring.num_vars, d)):
                assert lex_rank(m, k) == inside
                inside += m.max_index <= k

    def test_prefix_from_start_is_slice_of_order(self):
        for ring, d, k, order in self.worlds():
            for a, b in self.ranges(len(order)):
                assert lex_prefix(ring, d, b, max_var=k, start=a) == tuple(order[a:b])

    def test_prefix_rejects_bad_bounds(self):
        for ring, d, k, order in self.worlds():
            with pytest.raises(DomainError):
                lex_prefix(ring, d, len(order) + 1, max_var=k)
            with pytest.raises(DomainError):
                lex_prefix(ring, d, 0, max_var=k, start=1)
            with pytest.raises(DomainError):
                lex_rank(ring.one(), ring.num_vars + 1)

    def test_prefix_counts_by_walking(self):
        # every size from the empty to the full prefix
        for ring, d, k, order in self.worlds():
            for size in range(len(order) + 1):
                walked = lex_prefix(ring, d, size, max_var=k)
                want = tuple(sum(m.max_index <= j for m in walked) for j in range(1, k + 1))
                assert lex_prefix_counts(ring, d, size, max_var=k) == want
            with pytest.raises(DomainError):
                lex_prefix_counts(ring, d, len(order) + 1, max_var=k)

    def test_lexsegment_set_by_rank(self):
        # on the lex slices above, and on the prefixes of up to 20 members
        # with one member dropped
        for ring, d, k, order in self.worlds():
            n = ring.num_vars
            prefixes = {j: [Monomial(e + (0,) * (n - j)) for e in iter_degree_desc(j, d)]
                        for j in range(1, n + 1)}
            sets = [order[a:b] for a, b in self.ranges(len(order))]
            sets += [order[:i] + order[i + 1:b] for b in range(min(len(order), 20) + 1) for i in range(b)]
            for members in sets:
                for j in range(1, n + 1):
                    assert is_lexsegment_set(members, max_var=j) == (members == prefixes[j][: len(members)])
                assert is_lexsegment_set(members) == is_lexsegment_set(members, max_var=n)

    def test_unrank_in_high_degree(self):
        # degrees 10^2..10^6 in up to 7 variables, every max_var, random
        # ranks and the two ends: three members from rank r sit at r, r + 1
        # and r + 2
        rng = random.Random(6)
        for n in range(1, 8):
            ring = GroundRing(n)
            for t in (100, 1000, 12345, 10**5, 10**6):
                for k in range(1, n + 1):
                    total = count_monomials(k, t)
                    if total < 3:
                        continue
                    for r in (0, total - 3, rng.randrange(total - 2), rng.randrange(min(total - 2, 10**6))):
                        segment = lex_prefix(ring, t, r + 3, max_var=k, start=r)
                        assert all(m.degree == t and m.max_index <= k for m in segment)
                        assert [lex_rank(m, k) for m in segment] == [r, r + 1, r + 2]
