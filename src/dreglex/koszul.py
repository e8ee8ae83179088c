"""Exact graded Betti numbers of monomial ideals from Koszul homology, over
the lcm lattice only.

The Koszul complex of S/I is block-diagonal over multidegrees: the block at a
has basis { e_F : F subset of supp(a), x^(a - e_F) outside I } in homological
index |F|, with d(e_F) = sum of signed faces that stay standard.  Ranks are
exact (fraction-free integer elimination, no floating point or modular step).

The faces F with x^(a - e_F) in I form the upper Koszul simplicial complex
K^a(I), whose reduced homology gives the Betti numbers at a (Miller-Sturmfels,
Combinatorial Commutative Algebra, Thm 1.34).  Off the lcm lattice some support
position is slack for every generator dividing x^a, so K^a(I) is a cone and the
block is exact; visiting the lattice alone is lossless.  The same slack masks
decide standardness: x^(a - e_F) lies in I iff F is a subset of
{k : g_k < a_k} for some generator g dividing x^a.  Each block keeps its
faces as one integer bitset of 2^s bits (bit m for the face with mask m, s the
support size): the slack masks set their bits, s shift-ors close the set
under taking subsets, and the standard faces are the zero bits left over,
grouped by size with per-size bitsets.

Ranks are taken on the critical faces of a one-vertex Morse matching
(Jollenbeck-Welker, Mem. AMS 923, 2009).  The standard faces form an up-set,
so for a support position v each standard F without v pairs with F + v; the
unpaired faces contain v and have F - v non-standard.  They span a
subcomplex, since dropping v gives zero and dropping any other position
stays unpaired or non-standard.  The quotient by it is the cone of an
isomorphism, hence acyclic, so the subcomplex has the block's homology.
"""

from __future__ import annotations

import functools
import operator

from .betti import BettiDiagram
from .errors import CapExceeded, DomainError
from .ideals import MonomialIdeal

DEFAULT_LATTICE_CAP = 10**6


def exact_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free (cross-multiplied) Gaussian
    elimination.  Exact for any integer input."""
    m = [row[:] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for c in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if m[r][c]:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        prow = m[rank]
        pval = prow[c]
        for r in range(rank + 1, nrows):
            row = m[r]
            f = row[c]
            if f:
                for cc in range(c, ncols):
                    row[cc] = pval * row[cc] - f * prow[cc]
        rank += 1
        if rank == nrows:
            break
    return rank


@functools.cache
def _face_tables(s: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Bitsets over the 2^s faces of an s-element support, bit m standing for
    the face with mask m: (full, has, by_size) with full all faces, has[pos]
    the faces containing pos, by_size[i] the faces with i elements."""
    if not s:
        return 1, (), (1,)
    full, has, by_size = _face_tables(s - 1)
    # the masks below half are the faces without pos s - 1; adding it shifts
    # a face up by half and its size up by one
    half = 1 << (s - 1)
    return (
        full | full << half,
        tuple(h | h << half for h in has) + (full << half,),
        tuple(lo | hi << half for lo, hi in zip(by_size + (0,), (0,) + by_size)),
    )


def _down_closure(faces: int, has: tuple[int, ...]) -> int:
    """The face bitset `faces` closed under taking subsets: one shift-or per
    support position drops that position from every face containing it."""
    for pos, h in enumerate(has):
        faces |= (faces & h) >> (1 << pos)
    return faces


def _critical_faces(std: int, ns: int, has: tuple[int, ...]) -> list[int]:
    """For each support position v, the critical faces of the matching that
    pairs each standard face F without v with F + v: the standard faces that
    contain v and whose face without v lies in the down-closed set `ns`."""
    return [std & h & ns << (1 << v) for v, h in enumerate(has)]


def _strand_homology(s: int, faces: int) -> dict[int, int]:
    """Homology dimensions {i: dim} of the chain complex on the face bitset
    `faces` over an s-element support, index |F|, with d(e_F) the signed
    faces F - pos that lie in `faces`.  Asserts kernel >= image per index."""
    _, _, by_size = _face_tables(s)
    bases: list[list[int]] = []
    index = {}
    for size in by_size:
        basis = []
        bits = faces & size
        while bits:
            low = bits & -bits
            mask = low.bit_length() - 1
            index[mask] = len(basis)
            basis.append(mask)
            bits ^= low
        bases.append(basis)

    def differential(i: int) -> list[list[int]]:
        # rows: basis in index i-1, cols: basis in index i
        rows = [[0] * len(bases[i]) for _ in bases[i - 1]]
        for col, mask in enumerate(bases[i]):
            sign = 1
            for pos in range(s):
                if mask >> pos & 1:
                    face = mask & ~(1 << pos)
                    if faces >> face & 1:
                        rows[index[face]][col] += sign
                    sign = -sign
        return rows

    ranks = [0] * (s + 2)
    for i in range(1, s + 1):
        if bases[i] and bases[i - 1]:
            ranks[i] = exact_rank(differential(i))
    out = {}
    for i in range(s + 1):
        dim = len(bases[i])
        kernel = dim - ranks[i]  # rank-nullity for the outgoing differential
        homology = kernel - ranks[i + 1]
        if homology < 0:
            raise AssertionError(f"negative homology at index {i} of faces {faces:#x}: image exceeds kernel")
        if homology:
            out[i] = homology
    return out


def _block_betti(gens: tuple[tuple[int, ...], ...], a: tuple[int, ...]) -> dict[int, int]:
    """Homology dimensions of the Koszul strand at one multidegree.

    Returns {i: beta_{i,|a|}(S/I) contribution}, computed on the critical
    faces of the one-vertex matching with the fewest of them (the lowest
    position on ties); with an empty support the block keeps its faces.
    """
    supp = [k for k, e in enumerate(a) if e]
    s = len(supp)
    full, has, _ = _face_tables(s)
    # bit pos of slack(g) is set iff g leaves room at supp[pos]; a face mask
    # is non-standard iff it is a submask of some generator's slack mask, so
    # the non-standard faces are the down-closure of the slack masks' bits
    ns = 0
    for g in gens:
        if all(map(operator.le, g, a)):
            ns |= 1 << sum(1 << pos for pos, k in enumerate(supp) if g[k] < a[k])
    ns = _down_closure(ns, has)
    std = full & ~ns
    faces = min(_critical_faces(std, ns, has), key=int.bit_count) if s else std
    return _strand_homology(s, faces) if faces else {}


def _lcm_lattice(gens: tuple[tuple[int, ...], ...], cap: int) -> set[tuple[int, ...]]:
    lattice = {(0,) * len(gens[0])}
    for g in gens:
        lattice |= {tuple(map(max, m, g)) for m in lattice}
        if len(lattice) > cap:
            raise CapExceeded(f"lcm lattice exceeds the cap of {cap} multidegrees")
    return lattice


def koszul_betti(I: MonomialIdeal, cap: int = DEFAULT_LATTICE_CAP) -> BettiDiagram:
    """Graded Betti numbers of I from Koszul homology, ideal-indexed
    (beta_{i,j}(I) = beta_{i+1,j}(S/I)).  Raises CapExceeded when the lcm
    lattice has more than `cap` points."""
    if I.is_unit:
        raise DomainError("the unit ideal has no proper minimal resolution here")
    if I.is_zero:
        return BettiDiagram(I.ring.num_vars, {})
    gens = tuple(g.exponents for g in I.gens)
    entries: dict[tuple[int, int], int] = {}
    for a in _lcm_lattice(gens, cap):
        j = sum(a)
        if not j:
            continue
        for i, v in _block_betti(gens, a).items():
            if i == 0:
                raise AssertionError(f"unexpected homology at homological index 0, degree {j}")
            entries[(i - 1, j)] = entries.get((i - 1, j), 0) + v
    return BettiDiagram(I.ring.num_vars, entries)
