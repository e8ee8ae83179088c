"""Graded Betti numbers in closed form.

The diagram data model is ideal-indexed: an entry at (i, j) is the i-th
homological, degree-j Betti number of the ideal.  The quotient view is the
lossless re-indexing beta_{i,j}(S/I) = beta_{i-1,j}(I) with an extra 1 at
(0, 0).

Two independent closed forms are provided for each stability class: the
generator sum over C(max(u)-1, i) resp. C(max(u)-k, i), and the degreewise
formulas in the counts |M_{<=q}(I, k)| of members by max index, read off the
Hilbert-series numerators of the ideals I_q generated by the generators
supported on x1..xq; they must agree entrywise and the tests enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .errors import DomainError
from .ideals import MonomialIdeal, series_coefficient
from .macaulay import binom


MAX_TABLE_ROWS = 10**5


@dataclass(frozen=True, slots=True, init=False)
class BettiDiagram:
    """Sparse map (homological index i, internal degree j) -> positive count,
    read-only, sorted by (j - i, i)."""

    num_vars: int
    entries: Mapping[tuple[int, int], int]

    def __init__(self, num_vars: int, entries: Mapping[tuple[int, int], int]):
        clean = {}
        for (i, j), v in entries.items():
            if v < 0:
                raise DomainError(f"negative Betti number at {(i, j)}")
            if i < 0 or j < 1:
                raise DomainError(f"Betti position {(i, j)} out of range (need i >= 0, j >= 1)")
            if v:
                clean[(i, j)] = v
        object.__setattr__(self, "num_vars", num_vars)
        ordered = dict(sorted(clean.items(), key=lambda kv: (kv[0][1] - kv[0][0], kv[0][0])))
        object.__setattr__(self, "entries", MappingProxyType(ordered))

    def __reduce__(self) -> tuple:
        # a mappingproxy does not pickle; rebuild from a plain dict instead
        return BettiDiagram, (self.num_vars, dict(self.entries))

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def entry(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def quotient_entry(self, i: int, j: int) -> int:
        if i == 0:
            return 1 if j == 0 else 0
        return self.entry(i - 1, j)

    def total(self, i: int) -> int:
        return sum(v for (p, _), v in self.entries.items() if p == i)

    def totals(self) -> tuple[int, ...]:
        return tuple(self.total(i) for i in range(self.projdim() + 1))

    def regularity(self) -> int:
        """max j - i over the support; undefined for the zero diagram."""
        if self.is_zero:
            raise DomainError("regularity is undefined for the zero ideal")
        return max(j - i for (i, j) in self.entries)

    def projdim(self) -> int:
        """Projective dimension of the ideal: max i over the support."""
        if self.is_zero:
            raise DomainError("projective dimension is undefined for the zero ideal")
        return max(i for (i, _) in self.entries)

    def depth_quotient(self) -> int:
        """depth(S/I) = n - projdim(S/I), with projdim(S/I) = projdim(I) + 1."""
        return self.num_vars - self.projdim() - 1

    def extremal_points(self) -> dict[tuple[int, int], int]:
        """Entries beta_{i,i+k} with no other nonzero entry weakly to the
        lower-right of (i, k) in cell coordinates: the maximal support corners."""
        cells = {(i, j - i): v for (i, j), v in self.entries.items()}
        out = {}
        for (i, k), v in cells.items():
            if not any(
                (p, q) != (i, k) and p >= i and q >= k for (p, q) in cells
            ):
                out[(i, i + k)] = v
        return out

    def row_range(self) -> tuple[int, int]:
        ks = [j - i for (i, j) in self.entries]
        return min(ks), max(ks)

    def dominates(self, other: BettiDiagram) -> bool:
        """Entrywise >= comparison."""
        return all(self.entry(i, j) >= v for (i, j), v in other.entries.items())

    def hilbert_quotient(self, t: int) -> int:
        """H(S/I, t) recovered from the diagram through the K-polynomial:
        each entry is a signed term of the numerator of the Hilbert series
        over (1-t)^n, and the terms of one degree add up to its coefficient
        (the alternating column sum)."""
        # the (0, 0) quotient entry, then each entry at quotient index i + 1
        numerator = [(0, 1)] + [(j, v if i % 2 else -v) for (i, j), v in self.entries.items()]
        return series_coefficient(self.num_vars, numerator, t)

    def __hash__(self) -> int:  # the generated one would hash the unhashable mappingproxy
        return hash((self.num_vars, tuple(self.entries.items())))

    def __repr__(self) -> str:
        return f"BettiDiagram(n={self.num_vars}, {dict(self.entries)})"

    # -- text output ---------------------------------------------------------

    def format_table(self) -> str:
        """Macaulay-style table: row k lists beta_{i,i+k} for i = 0..projdim,
        '-' for zero entries, plus a total row.  A table of more than
        MAX_TABLE_ROWS rows is refused before any row is built; its entries
        alone (``format_triples``) print at once."""
        if self.is_zero:
            return "total:\n"
        kmin, kmax = self.row_range()
        if kmax - kmin + 1 > MAX_TABLE_ROWS:
            raise DomainError(f"the Betti table has {kmax - kmin + 1} rows, more than {MAX_TABLE_ROWS}; "
                              "print its entries with --triples")
        width = self.projdim() + 1
        lines = []
        for k in range(kmin, kmax + 1):
            vals = [self.entry(i, i + k) for i in range(width)]
            cells = " ".join(str(v) if v else "-" for v in vals)
            lines.append(f"{k}: {cells}")
        lines.append("total: " + " ".join(str(t) for t in self.totals()))
        return "\n".join(lines) + "\n"

    def format_triples(self) -> str:
        """One (i, j, value) line per entry, sorted by (j - i, i)."""
        return "".join(f"({i}, {j}, {v})\n" for (i, j), v in self.entries.items())


def ek_betti(I: MonomialIdeal) -> BettiDiagram:
    """Graded Betti numbers of a stable ideal:
    beta_{i,i+k}(I) = sum over degree-k generators of C(max(u)-1, i).
    Regularity equals the max generator degree."""
    if I.is_unit:
        raise DomainError("the unit ideal is outside the stable Betti formula")
    if not I.is_stable():
        raise DomainError("the generator-sum formula needs a stable ideal")
    return _generator_sum(I, squarefree=False)


def ahh_betti(I: MonomialIdeal) -> BettiDiagram:
    """Graded Betti numbers of a squarefree strongly stable ideal:
    beta_{i,i+k}(I) = sum over degree-k generators of C(max(u)-k, i)."""
    if I.is_unit:
        raise DomainError("the unit ideal is outside the squarefree Betti formula")
    if not I.is_squarefree_strongly_stable():
        raise DomainError("the squarefree generator-sum formula needs a squarefree strongly stable ideal")
    return _generator_sum(I, squarefree=True)


def _generator_sum(I: MonomialIdeal, squarefree: bool) -> BettiDiagram:
    """beta_{i,i+k}(I) = sum over degree-k generators u of C(max(u) - c, i),
    c = k for the squarefree formula and c = 1 otherwise."""
    entries: dict[tuple[int, int], int] = {}
    for g in I.gens:
        k = g.degree
        top = g.max_index - (k if squarefree else 1)
        for i in range(top + 1):
            key = (i, i + k)
            entries[key] = entries.get(key, 0) + binom(top, i)
    return BettiDiagram(I.ring.num_vars, entries)


def _m_le_counts(I: MonomialIdeal, k: int, squarefree: bool) -> tuple[int, ...]:
    """Cumulative counts |M_{<=q}(I, k)| (or, squarefree, |M*_{<=q}(I, k)|)
    of the degree-k members (squarefree members) with max index <= q, for
    q = 0..n: the degree-k members of I_q, read off its numerator."""
    return I.memo(("mle", squarefree, k), lambda: tuple(
        I.count(k, q, squarefree) for q in range(I.ring.num_vars + 1)
    ))


def bigatti_degreewise(I: MonomialIdeal, i: int, k: int) -> int:
    """The degreewise formula for beta_{i,i+k} of a strongly stable ideal:

        dim I_k * C(n-1, i)
        - sum_{q=i}^{n-1} |M_{<=q}(I,k)|   * C(q-1, i-1)
        - sum_{q=i+1}^{n} |M_{<=q}(I,k-1)| * C(q-1, i).
    """
    if k <= 0:
        return 0
    if I.is_zero:
        return 0
    if not I.is_strongly_stable():
        raise DomainError("the degreewise formula needs a strongly stable ideal")
    n = I.ring.num_vars
    cur = _m_le_counts(I, k, False)
    below = _m_le_counts(I, k - 1, False)
    value = cur[n] * binom(n - 1, i)
    value -= sum(cur[q] * binom(q - 1, i - 1) for q in range(i, n))
    value -= sum(below[q] * binom(q - 1, i) for q in range(i + 1, n + 1))
    return value


def sq_degreewise(I: MonomialIdeal, i: int, k: int) -> int:
    """The squarefree degreewise formula for beta_{i,i+k} of a squarefree
    strongly stable ideal:

        |M*(I,k)| * C(n-k, i)
        - sum_{t=k}^{n-1} |M*_{<=t}(I,k)|     * C(t-k, i-1)
        - sum_{t=k}^{n}   |M*_{<=t-1}(I,k-1)| * C(t-k, i),

    where the leading dimension counts the squarefree degree-k members (the
    formula lives in the squarefree world; the polynomial-ring slice dimension
    is a different number from degree k+1 on).
    """
    if k <= 0:
        return 0
    if I.is_zero:
        return 0
    if not I.is_squarefree_strongly_stable():
        raise DomainError("the squarefree degreewise formula needs a squarefree strongly stable ideal")
    n = I.ring.num_vars
    cur = _m_le_counts(I, k, True)
    below = _m_le_counts(I, k - 1, True)
    value = cur[n] * binom(n - k, i)
    value -= sum(cur[t] * binom(t - k, i - 1) for t in range(k, n))
    value -= sum(below[t - 1] * binom(t - k, i) for t in range(k, n + 1))
    return value


def degreewise_diagram(I: MonomialIdeal, squarefree: bool = False) -> BettiDiagram:
    """Assemble a full diagram from the degreewise formulas over the range the
    closed forms can support (k up to the max generator degree, i up to n-1)."""
    if I.is_unit:
        raise DomainError("the unit ideal is outside the degreewise formulas")
    if I.is_zero:
        return BettiDiagram(I.ring.num_vars, {})
    n = I.ring.num_vars
    entries = {}
    for k in range(1, I.max_gen_degree + 1):
        for i in range(n):
            v = sq_degreewise(I, i, k) if squarefree else bigatti_degreewise(I, i, k)
            if v < 0:
                raise DomainError(f"degreewise formula went negative at (i={i}, k={k}); precondition violated")
            if v:
                entries[(i, i + k)] = v
    return BettiDiagram(n, entries)
