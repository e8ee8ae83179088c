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

Generators whose supports meet are joined into components; the components
live in disjoint variables, so S/I is the tensor product of their quotients,
whose minimal resolutions tensor to a minimal one.  The Betti polynomial
sum beta_{i,j}(S/I) s^i t^j is then the product of the components'
polynomials, and a complete intersection costs one small block per
generator instead of one block over the union of their supports.  The lcm
lattice is the product of the components' lattices; only the factors are
enumerated, so the cap bounds each component's lattice, not their product.

Within a component the blocks see only how the exponents of each variable
compare, so each exponent is replaced by its rank among 0 and that
variable's exponents, and degrees are read back from the ranks.  The
ideal's own index (``MonomialIdeal.threshold_index``, which its membership
tests read too) serves every block: masks[k][v] is the bitmask of the
generators whose x_k exponent has rank <= v, and values[k][v] is that
exponent.  The divisors of x^a are the AND over k of
masks[k][a_k], the divisors slack at a support position are the divisors in
masks[k][a_k - 1], and one pass over the set bits of those per-position
masks gives each divisor's slack mask.  The lcm lattice is closed under
bitwise OR of codes that write e_k as e_k low bits of a fixed-width field
per variable, and each point is decoded once.  Many blocks share their
critical faces, so one oracle call ranks each (support size, faces) pair
once and remembers its homology.
"""

from __future__ import annotations

import bisect
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


def _divisor_masks(masks: tuple[tuple[int, ...], ...], a: tuple[int, ...]) -> tuple[int, list[int]]:
    """(divisors, slack): the bitmask of the generators dividing x^a, the AND
    of masks[k][a_k], and for each support position of a, in order, the
    divisors g with g_k < a_k there, i.e. divisors & masks[k][a_k - 1]."""
    divisors = masks[0][-1]  # every generator
    below = []
    for e, row in zip(a, masks):
        if e < len(row):
            divisors &= row[e]
            if e:
                below.append(row[e - 1])
        else:  # past the top exponent every generator has room
            below.append(row[-1])
    return divisors, [divisors & m for m in below]


def _block_betti(
    masks: tuple[tuple[int, ...], ...], a: tuple[int, ...], memo: dict[tuple[int, int], dict[int, int]]
) -> dict[int, int]:
    """Homology dimensions of the Koszul strand at one multidegree.

    Returns {i: beta_{i,|a|}(S/I) contribution}, computed on the critical
    faces of the one-vertex matching with the fewest of them (the lowest
    position on ties); with an empty support the block keeps its faces.
    `memo` maps (s, faces) to homology already computed in this oracle call.
    """
    divisors, slack = _divisor_masks(masks, a)
    s = len(slack)
    full, has, _ = _face_tables(s)
    # bit pos of a divisor's slack mask is set iff it leaves room at supp[pos];
    # a face mask is non-standard iff it is a submask of some divisor's slack
    # mask, so the non-standard faces are the down-closure of those masks'
    # bits.  One pass over the set bits of each position's slack divisors
    # builds them; every divisor, x^a itself with no slack position too,
    # makes the empty face (bit 0) non-standard
    by_divisor: dict[int, int] = {}
    for pos, bits in enumerate(slack):
        while bits:
            low = bits & -bits
            by_divisor[low] = by_divisor.get(low, 0) | 1 << pos
            bits ^= low
    ns = 1 if divisors else 0
    for mask in by_divisor.values():
        ns |= 1 << mask
    ns = _down_closure(ns, has)
    std = full & ~ns
    faces = min(_critical_faces(std, ns, has), key=int.bit_count) if s else std
    if not faces:
        return {}
    key = (s, faces)
    if key not in memo:
        memo[key] = _strand_homology(s, faces)
    return memo[key]


def _lcm_lattice(gens: tuple[tuple[int, ...], ...], cap: int) -> set[tuple[int, ...]]:
    """The lcms of all subsets of `gens`, the empty one (0) included.  Each
    exponent e_k is coded as e_k low bits of a field of width top + 1, so the
    lcm of two codes is their bitwise OR; each point is decoded once."""
    width = max(map(max, gens)) + 1
    field = (1 << width) - 1
    shifts = range(0, len(gens[0]) * width, width)
    codes = {0}
    for g in gens:
        code = sum(((1 << e) - 1) << shift for e, shift in zip(g, shifts))
        codes |= {c | code for c in codes}
        if len(codes) > cap:
            raise CapExceeded(f"lcm lattice exceeds the cap of {cap} multidegrees")
    return {tuple([(c >> shift & field).bit_length() for shift in shifts]) for c in codes}


def _components(masks: tuple[tuple[int, ...], ...]) -> list[int]:
    """The bitmasks of the connected components of the graph joining two
    generators whose supports meet, read off the index: the generators
    divisible by x_k are those outside masks[k][0]."""
    every = masks[0][-1]
    parts: list[int] = []
    for row in masks:
        joined = every & ~row[0]
        if joined:
            # the parts are disjoint, so a part meets the growing union
            # exactly when it meets the generators divisible by x_k
            rest = []
            for part in parts:
                if part & joined:
                    joined |= part
                else:
                    rest.append(part)
            parts = rest + [joined]
    return parts


def koszul_betti(I: MonomialIdeal, cap: int = DEFAULT_LATTICE_CAP) -> BettiDiagram:
    """Graded Betti numbers of I from Koszul homology, ideal-indexed
    (beta_{i,j}(I) = beta_{i+1,j}(S/I)).  Raises CapExceeded when the lcm
    lattice of a component has more than `cap` points."""
    if I.is_unit:
        raise DomainError("the unit ideal has no proper minimal resolution here")
    if I.is_zero:
        return BettiDiagram(I.ring.num_vars, {})
    # exponent ranks keep mask rows and lattice codes short for any
    # exponent; values[k][r] is the exponent of x_k with rank r
    values, masks = I.threshold_index()
    ranks = tuple(tuple(map(bisect.bisect_left, values, g.exponents)) for g in I.gens)
    lattices = [
        _lcm_lattice(tuple(g for i, g in enumerate(ranks) if part >> i & 1), cap) for part in _components(masks)
    ]
    # a point of one component's lattice is divisible by no generator of
    # another, so the whole ideal's index serves every component
    memo: dict[tuple[int, int], dict[int, int]] = {}
    factors = []  # S/I-indexed: (i, j) -> beta_{i,j}(S/I_k)
    for lattice in lattices:
        factor = {(0, 0): 1}
        for a in lattice:
            if not any(a):
                continue
            for i, v in _block_betti(masks, a, memo).items():
                j = sum(map(operator.getitem, values, a))
                if i == 0:
                    raise AssertionError(f"unexpected homology at homological index 0, degree {j}")
                factor[(i, j)] = factor.get((i, j), 0) + v
        factors.append(factor)
    product = functools.reduce(_multiply, factors)
    return BettiDiagram(I.ring.num_vars, {(i - 1, j): v for (i, j), v in product.items() if i})


def _multiply(p: dict[tuple[int, int], int], q: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """The product of two Betti polynomials {(i, j): coefficient of s^i t^j}."""
    out: dict[tuple[int, int], int] = {}
    for (i, j), v in p.items():
        for (i2, j2), v2 in q.items():
            out[(i + i2, j + j2)] = out.get((i + i2, j + j2), 0) + v * v2
    return out
