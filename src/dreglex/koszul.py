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
block is exact; visiting the lattice alone is lossless.  Standardness is a
covering condition: x^(a - e_F) lies in I iff some generator g dividing x^a
has g_k < a_k at every k in F, so F is standard iff every divisor is tight
(g_k = a_k) at some position of F, that is, iff the tight divisors of F's
positions together are all the divisors.  Each block keeps its faces as one
integer bitset of 2^s bits (bit m for the face with mask m, s the support
size), grouped by size with per-size bitsets.

The standard faces are read bit-parallel.  Each face gets one field of W
bits, W a multiple of 8 with room for the divisor bits and a guard bit on
top.  The unions of tight divisors of all 2^s faces are built at once by
doubling over the positions: the faces whose highest position is k are the
faces below 2^k shifted up by 2^k fields, with k's tight divisors added, one
multiply by a row of ones and one shift-or per position.  XOR with the
divisors in every field leaves zero exactly in the standard faces' fields;
with the guard bit set, subtracting 1 from every field borrows the guard away
exactly there.  The top byte of each field, through one byte translation,
spells the standard face bitset in binary.  The work and the memory are
linear in 2^s * W, with no table kept per position.

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
exponent.  The lcm lattice is closed under bitwise OR of codes that write
e_k as e_k low bits of a fixed-width field per variable, over the
component's own columns only.  One pass per code reads each rank e_k from
its field, ANDs masks[k][e_k] into the divisors (starting from the
component's generators, as no other generator divides its points), keeps
masks[k][e_k - 1], the generators slack there, for a support position, and
sums the degree.

A lattice point a is the lcm of its divisors, which closes two cases
without faces.  With one divisor, a is that generator, every position is
tight, and K^a = {empty face}: beta_1 = 1.  With two, g and h (minimal, so
neither divides the other), a = lcm(g, h) leaves every position tight for g
or for h, so their slack masks are disjoint and non-empty and K^a is two
disjoint simplices: beta_2 = 1.

At a cone point one divisor is slack at every support position, so
x^(a - 1_supp) lies in I and no face is standard; as the standard faces
form an up-set, an empty standard face set is exactly a cone point, and
such a block is zero.

The critical faces C of the one-vertex matching are matched once more
before any basis is built: for a support position w, pair each F in C
without w with F + w when that is in C too.  A gradient path from F + w
steps down to faces F + w - u in C, which contain w and so are never
matched upward; the matching is acyclic, and the faces it leaves unpaired
carry a Morse complex with C's homology.  When that complex is empty or
of one homological index it has no differential, and the block is its
face count.  The first w that settles C answers; a C that no w settles is
ranked.

The other blocks repeat themselves, so one oracle call remembers the
homology of the chain complex on each (support size, face bitset) it has
met.  The standard faces are looked up before the matchings and the ranks,
and the critical faces before the ranks, so that two blocks with the same
critical faces still rank once; both are complexes on their own bitset,
so the two kinds of key share one map.

Each of these rules was timed by deleting it alone (2-vCPU VM, Python
3.11, koszul_betti in process, the least of 20 passes, five runs each).  On
the bench's 120 oracle inputs of seeds 1-3 a pass took 90-100 ms; without
the second matching 105-110 ms, without the memo of standard face sets
97-102 ms, and without the closed forms for one and two divisors
100-108 ms.  Without the memo of critical face sets the 16-cycle took
1.37-2.04 s against 0.89-1.50 s (best of 3 per run).
"""

from __future__ import annotations

import bisect
import functools
from collections.abc import Sequence

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


def _critical_faces(std: int, ns: int, has: tuple[int, ...]) -> list[int]:
    """For each support position v, the critical faces of the matching that
    pairs each standard face F without v with F + v: the standard faces that
    contain v and whose face without v lies in the down-closed set `ns`."""
    return [std & h & ns << (1 << v) for v, h in enumerate(has)]


def _strand_homology(s: int, faces: int) -> dict[int, int]:
    """Homology dimensions {i: dim} of the chain complex on the face bitset
    `faces` over an s-element support, index |F|, with d(e_F) the signed
    faces F - pos that lie in `faces`.  Asserts kernel >= image per index."""
    bases: list[list[int]] = [[] for _ in range(s + 1)]
    index = {}
    bits = faces
    while bits:
        low = bits & -bits
        mask = low.bit_length() - 1
        basis = bases[mask.bit_count()]
        index[mask] = len(basis)
        basis.append(mask)
        bits ^= low
    ranks = [0] * (s + 2)
    for i in range(1, s + 1):
        if bases[i] and bases[i - 1]:
            # the differential: rows the basis in index i - 1, columns in index i
            rows = [[0] * len(bases[i]) for _ in bases[i - 1]]
            for col, mask in enumerate(bases[i]):
                sign, bits = 1, mask
                while bits:  # the positions of the face in increasing order
                    low = bits & -bits
                    if faces >> (mask ^ low) & 1:
                        rows[index[mask ^ low]][col] += sign
                    sign = -sign
                    bits ^= low
            ranks[i] = exact_rank(rows)
    out = {}
    for i in range(s + 1):
        homology = len(bases[i]) - ranks[i] - ranks[i + 1]  # kernel (rank-nullity) minus image
        if homology < 0:
            raise AssertionError(f"negative homology at index {i} of faces {faces:#x}: image exceeds kernel")
        if homology:
            out[i] = homology
    return out


@functools.cache
def _field_tables(s: int, width: int) -> tuple[tuple[tuple[int, int], ...], int, int]:
    """(steps, every, guard) for 2^s fields of `width` bits: steps[k] is
    (ones at the low bit of the first 2^k fields, 2^k * width), every has
    ones at the low bit of all 2^s fields and guard at their top bit."""
    if not s:
        return (), 1, 1 << width - 1
    steps, ones, _ = _field_tables(s - 1, width)
    shift = width << (s - 1)
    every = ones | ones << shift
    return steps + ((ones, shift),), every, every << width - 1


# the top byte of a field: 0 for a standard face, 0x80 with its guard bit
_DIGITS = bytes.maketrans(b"\x00\x80", b"10")


def _standard_faces(divisors: int, below: list[int]) -> int:
    """The standard faces of the block at a, as a face bitset, from the
    divisors of x^a and the rows `below` of ``_block_betti``: F is standard
    iff the tight divisors of its positions, divisors & ~below[k], cover the
    divisors.  Read bit-parallel, one field of `width` bits per face, as the
    module docstring describes."""
    width = (divisors.bit_length() + 8) & ~7  # whole bytes: the divisor bits, then the guard bit
    steps, every, guard = _field_tables(len(below), width)
    tight = 0
    for (ones, shift), row in zip(steps, below):
        tight |= (tight | (divisors & ~row) * ones) << shift
    nonstandard = (((divisors * every ^ tight) | guard) - every) & guard
    # the top byte of each field, highest face first
    tops = nonstandard.to_bytes(width // 8 << len(below), "big")[:: width // 8]
    return int(tops.translate(_DIGITS), 2)


def _block_betti(divisors: int, below: list[int], memo: dict[tuple[int, int], dict[int, int]]) -> dict[int, int]:
    """Homology dimensions of the Koszul strand at one multidegree a, from the
    bitmask `divisors` of the generators dividing x^a and, per support
    position k of a in order, the generators with g_k < a_k (`below`).

    Returns {i: beta_{i,|a|}(S/I) contribution}, computed on the critical
    faces of the one-vertex matching with the fewest of them (the lowest
    position on ties), matched once more before any rank; with an empty
    support the block keeps its faces.  `memo` maps (s, faces) to the
    homology of the chain complex on that face bitset, already computed in
    this oracle call: standard and critical face sets share it.
    """
    s = len(below)
    std = _standard_faces(divisors, below)
    out = memo.get((s, std))
    if out is None:
        full, has, _ = _face_tables(s)
        faces = min(_critical_faces(std, full & ~std, has), key=int.bit_count) if s else std
        if (s, faces) not in memo:
            settled = _second_matching(s, faces)
            memo[s, faces] = _strand_homology(s, faces) if settled is None else settled
        out = memo[s, std] = memo[s, faces]
    return out


def _second_matching(s: int, faces: int) -> dict[int, int] | None:
    """The homology of the critical face set `faces` when, for some support
    position w, the faces left unpaired by matching F with F + w (both in
    `faces`) are none or all of one size; otherwise None."""
    _, has, by_size = _face_tables(s)
    for w, h in enumerate(has):
        low = faces & ~h & (faces & h) >> (1 << w)
        crit = faces & ~(low | low << (1 << w))
        if not crit:
            return {}
        i = ((crit & -crit).bit_length() - 1).bit_count()  # the lowest face's size
        if not crit & ~by_size[i]:
            return {i: crit.bit_count()}
    return None


def _lcm_lattice(gens: Sequence[Sequence[int]], cap: int) -> tuple[int, set[int]]:
    """(width, codes): the lcms of all subsets of `gens`, the empty one (0)
    included, with each exponent e_k coded as e_k low bits of the k-th field
    of `width` = top + 1 bits, so the lcm of two codes is their bitwise OR."""
    width = max(map(max, gens)) + 1
    shifts = range(0, len(gens[0]) * width, width)
    codes = {0}
    for g in gens:
        code = sum(((1 << e) - 1) << shift for e, shift in zip(g, shifts))
        codes |= {c | code for c in codes}
        if len(codes) > cap:
            raise CapExceeded(f"lcm lattice exceeds the cap of {cap} multidegrees; call koszul_betti(I, cap=...) to raise it")
    return width, codes


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
    lattice of a component has more than `cap` points; this keyword is the
    one place the bound is set, and every other caller keeps the default."""
    if I.is_unit:
        raise DomainError("the unit ideal has no proper minimal resolution here")
    if I.is_zero:
        return BettiDiagram(I.ring.num_vars, {})
    # exponent ranks keep mask rows and lattice codes short for any
    # exponent; values[k][r] is the exponent of x_k with rank r
    values, masks = I.threshold_index()
    lattices = []
    for part in _components(masks):
        cols = [k for k, row in enumerate(masks) if part & ~row[0]]  # the variables of its generators
        gens = [g.exponents for i, g in enumerate(I.gens) if part >> i & 1]
        ranks = [[bisect.bisect_left(values[k], g[k]) for k in cols] for g in gens]
        lattices.append((part, [(values[k], masks[k]) for k in cols], *_lcm_lattice(ranks, cap)))
    memo: dict[tuple[int, int], dict[int, int]] = {}
    factors = []  # S/I-indexed: (i, j) -> beta_{i,j}(S/I_k)
    for part, columns, width, codes in lattices:
        field = (1 << width) - 1
        factor: dict[tuple[int, int], int] = {}  # a = 0 gives the constant term
        for code in codes:
            # one pass reads each exponent rank e of the code's fields in
            # order, ANDs masks[k][e] into the divisors and keeps
            # masks[k][e - 1] for a support position
            divisors, below, j = part, [], 0
            for vals, row in columns:
                e = (code & field).bit_length()
                code >>= width
                divisors &= row[e]
                if e:
                    below.append(row[e - 1])
                    j += vals[e]
            count = divisors.bit_count()  # up to two, the closed forms; none only at a = 0
            for i, v in ({count: 1} if count < 3 else _block_betti(divisors, below, memo)).items():
                if i == 0 and j:
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
