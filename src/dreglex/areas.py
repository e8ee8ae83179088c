"""Staircase regions of admissible Betti positions and the maximal-Betti
construction over them.

An extremal area is a finite staircase subset of {0..n-1} x {1, 2, ...} in
cell coordinates (homological index i, internal degree minus i).  Semi-convex
areas are the ones whose corners march diagonally away from a top corner; for
those, a strongly stable ideal admitting the area is re-lexified degree by
degree, generator by generator, into the unique ideal with maximal graded
Betti numbers among all ideals with the same Hilbert function and the area.

Areas are read only through their corners, so they may be arbitrarily tall.
The construction walks a degree only where its answer can change.  Below the
top corner the degrees fall into at most n runs of constant profile p_j; at
the first degree of a run past I's generators where I's part in the run's
variables grows minimally and the built slice has that part's size, Gotzmann
persistence (Bruns-Herzog, Cohen-Macaulay Rings, 4.3) leaves the rest of the
run without a generator, and the walk jumps to its last degree.  Above the
top corner at most n - 1 degrees remain.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .betti import BettiDiagram, ek_betti
from .dlex import LSequence, dlinear_layer
from .errors import DomainError, FormatError
from .ideals import MonomialIdeal
from .macaulay import up
from .monomials import GroundRing, Monomial, lex_prefix_counts


@dataclass(frozen=True, slots=True, init=False)
class ExtremalArea:
    """A staircase region stored by its extremal corners (ascending i,
    descending j).  Membership: (i, j) lies in the area iff some corner
    dominates it coordinatewise."""

    corners: tuple[tuple[int, int], ...]

    def __init__(self, points):
        pts = set()
        for (i, j) in points:
            if i < 0 or j < 1:
                raise DomainError(f"area point {(i, j)} outside [0..n-1] x [1..]")
            pts.add((i, j))
        if not pts:
            raise DomainError("an extremal area must be nonempty")
        corners = [
            p for p in pts
            if not any(q != p and q[0] >= p[0] and q[1] >= p[1] for q in pts)
        ]
        object.__setattr__(self, "corners", tuple(sorted(corners)))

    @property
    def standard_representation(self) -> tuple[tuple[int, int], ...]:
        """Extremal points, ascending i and descending j."""
        return self.corners

    @property
    def max_i(self) -> int:
        return max(i for i, _ in self.corners)

    @property
    def max_j(self) -> int:
        return max(j for _, j in self.corners)

    def __contains__(self, point: tuple[int, int]) -> bool:
        i, j = point
        if i < 0 or j < 1:
            return False
        return any(i <= ci and j <= cj for ci, cj in self.corners)

    def p_profile(self, j: int) -> int:
        """max { i : (i, j) in the area }, or -1 above the area."""
        tops = [ci for ci, cj in self.corners if cj >= j]
        return max(tops) if tops else -1

    def __repr__(self) -> str:
        return f"ExtremalArea({format_area(self)!r})"

    # -- semi-convexity -------------------------------------------------------

    def top_points(self) -> tuple[tuple[int, int], ...]:
        """Corners maximizing i + j (the diagonal height of the area)."""
        best = max(i + j for i, j in self.corners)
        return tuple(p for p in self.corners if p[0] + p[1] == best)

    def is_semi_convex(self) -> bool:
        """True iff for some corner index r the j's step down by exactly one
        up to r and the i's step up by exactly one from r on."""
        cs = self.corners
        t = len(cs)
        for r in range(t):
            if all(cs[k][1] == cs[0][1] - k for k in range(r + 1)) and all(
                cs[k][0] == cs[r][0] + (k - r) for k in range(r, t)
            ):
                return True
        return False

    def conv_hull(self) -> ExtremalArea:
        """The smallest semi-convex area containing this one: walk each corner
        diagonally toward a maximal-diagonal corner, collecting every
        intermediate corner.  Independent of which top corner is picked."""
        cs = self.corners
        best = max(i + j for i, j in cs)
        r = next(k for k, p in enumerate(cs) if p[0] + p[1] == best)
        ir, jr = cs[r]
        pts = [(ir, jr)]
        for k in range(r):
            ik, jk = cs[k]
            pts.extend((ik + p, jk - p) for p in range(jk - jr))
        for k in range(r + 1, len(cs)):
            ik, jk = cs[k]
            pts.extend((ik - p, jk + p) for p in range(ik - ir))
        return ExtremalArea(pts)


def parse_area(text: str) -> ExtremalArea:
    """Parse the corner-list syntax ``(i,j);(i,j);...``; whitespace ignored."""
    stripped = re.sub(r"\s+", "", text)
    if not stripped:
        raise FormatError("empty area")
    pts = []
    for part in stripped.split(";"):
        m = re.fullmatch(r"\(([0-9]+),([0-9]+)\)", part)
        if not m:
            raise FormatError(f"bad area corner {part!r}")
        pts.append((int(m.group(1)), int(m.group(2))))
    try:
        return ExtremalArea(pts)
    except DomainError as exc:
        raise FormatError(str(exc)) from exc


def format_area(area: ExtremalArea) -> str:
    """Standard-representation order, inverse of parse_area."""
    return ";".join(f"({i},{j})" for i, j in area.corners)


def admits(diagram: BettiDiagram, area: ExtremalArea) -> bool:
    """True iff the diagram's support lies inside the area in cell
    coordinates (i, j - i)."""
    return all((i, j - i) in area for (i, j) in diagram.entries)


def _relex_counts(ring: GroundRing, d: int, counts: Sequence[int], r: int) -> LSequence:
    """The degree-preserving re-lexification of the maximal-Betti
    construction, on the max-index counts l_1, ..., l_n of a strongly stable
    degree-d set V: the counts of the unique d-linear lexsegment set W with
    V's counts at slots >= r whose members in the first r - 1 variables form
    a lex prefix.  The lex prefix of size l_1 + ... + l_{r-1} in
    x1..x_{r-1} gives the counts below slot r; ``dlinear_layer`` builds W
    from them."""
    below = lex_prefix_counts(ring, d, sum(counts[:r - 1]), max_var=r - 1)
    low_counts = tuple(c - b for b, c in zip((0,) + below, below))
    return LSequence(low_counts + tuple(counts[r - 1:]), d)


def lex_i_a(I: MonomialIdeal, area: ExtremalArea) -> MonomialIdeal:
    """The ideal with maximal graded Betti numbers among graded ideals sharing
    I's Hilbert function and admitting the semi-convex area.

    Degree by degree, with p_j the top homological index available at internal
    offset j: below the top corner the degree-j members supported on the first
    p_j + 1 variables are replaced by a plain lex prefix; from the top corner
    up they are re-lexified while preserving the max-index counts the area
    still constrains.  The answer, the sum of the single-degree ideals, is
    independent of the top-corner choice and of the strongly stable
    representative, and is built from each degree's new generators alone.
    """
    if I.is_zero or I.is_unit:
        raise DomainError("need a nonzero, nonunit ideal")
    if not area.is_semi_convex():
        raise DomainError("the construction needs a semi-convex area")
    if not I.is_strongly_stable():
        raise DomainError("the construction starts from a strongly stable ideal")
    if area.max_i > I.ring.num_vars - 1:
        raise DomainError(f"area reaches homological index {area.max_i}, ring allows {I.ring.num_vars - 1}")
    diagram = ek_betti(I)
    if not admits(diagram, area):
        raise DomainError("the ideal does not admit the area")
    top = min(area.top_points())  # smallest homological index
    return _construct_with_top(I, area, top)


def _construct_with_top(I: MonomialIdeal, area: ExtremalArea, top: tuple[int, int]) -> MonomialIdeal:
    """The degreewise construction relative to one chosen top corner; the
    result is provably independent of the choice, which the tests verify.
    Degree j re-lexifies I's counts by max index with r = p_j + 2 (a lex
    prefix) below the top corner and r = p_{j+1} + 3 from it on.  The slice
    below meets x1..x_m, m = r_{j-1} - 1, in a lex prefix of I's size there,
    prev = I.count(j - 1, m), so each degree's new generators come from lex
    ranks alone (``dlinear_layer``).

    The span of the slice below never outgrows that prefix: its part in
    x1..x_(r-1) spans at most cumulative[r - 1] = I.count(j, r - 1)
    members, so the slice of degree j meets x1..x_(r-1) in exactly the lex
    prefix of that size.  By induction on j, with prev = I.count(j - 1, m)
    on entry: it holds at j = 1 (prev = 0, m = n), after each degree, and
    after each jump below (m = q, prev = I.count(e, q)).
    - r - 1 <= m.  The profile p_j never grows, and r <= q + 1 from the top
      corner on, so r never grows from one degree to the next; and r <= q +
      1 <= n + 1 at the first degree.
    - A lex prefix P of degree t and size s in x1..x_m has at most as many
      members in x1..x_k, k <= m, as a strongly stable set V of that degree
      and size there.  For k = m - 1: V's members with x_m are x_m * W, and
      V holds the span x1..x_m * W of W, so by Macaulay's theorem
      (Bruns-Herzog, Cohen-Macaulay Rings, 4.2) the lex prefix of size |W|
      spans at most s members.  The span of a lex prefix is the lex prefix
      ending at x_m times its last member, so any lex prefix that spans at
      most s members lies in W_P = {w : x_m * w in P}, and |W| <= |W_P|.
      Smaller k follow by induction on m - k: P's part in x1..x_(m-1) is a
      lex prefix no larger than V's part there, which is strongly stable,
      and lex prefixes nest.
    - With V the degree-(j-1) members of I in x1..x_m, of size prev, the
      slice below has a = below[r - 2] <= I.count(j - 1, r - 1) members in
      x1..x_(r-1).  Their span has up(a, r - 2) members, and by Macaulay's
      theorem for I in k[x1..x_(r-1)], up(I.count(j - 1, r - 1), r - 2) <=
      I.count(j, r - 1).  Since up is monotone, up(a, r - 2) <= cumulative[r - 1].

    Below the top corner the degrees fall into runs of constant q = p_j + 1
    (r = q + 1), one run per corner from the top corner on, and the run of
    the corner (q - 1, c) ends at e = min(top_j - 1, c).  Once a degree j of
    a run lies past I's top generator degree g, carries a slice of exactly
    I_q's size (prev == I.count(j, q)) and sees I_q, the part of I in
    k[x1..xq], grow minimally into it (I.count(j, q) == up(I.count(j - 1,
    q), q - 1)), Gotzmann persistence (Bruns-Herzog, Cohen-Macaulay Rings,
    4.3) keeps that growth minimal in every later degree: each lex prefix
    then spans the next degree's, no degree up to e adds a generator, and
    each leaves prev = I.count(t, q).  The walk jumps to e with prev =
    I.count(e, q).  Above the top corner the corners step j down by one, so
    at most n - 1 degrees remain, and the walk's length is independent of
    the area's height."""
    ring, n, g = I.ring, I.ring.num_vars, I.max_gen_degree
    gens: list[Monomial] = []
    prev, m, j = 0, n, 0  # the slice below meets x1..x_m in a lex prefix of this size
    while j < area.max_j:
        j += 1
        q = area.p_profile(j) + 1
        r = q + 1 if j < top[1] else area.p_profile(j + 1) + 3
        if r > q + 1:
            raise AssertionError("semi-convex profile must strictly decrease from the top corner on")
        cumulative = [I.count(j, k) for k in range(q + 1)]
        counts = [cumulative[k] - cumulative[k - 1] for k in range(1, q + 1)] + [0] * (n - q)
        below = lex_prefix_counts(ring, j - 1, prev, max_var=m)
        gens += dlinear_layer(_relex_counts(ring, j, counts, r), ring, below)
        prev, m = cumulative[r - 1], r - 1
        if g < j < top[1] and prev == cumulative[q] == up(I.count(j - 1, q), q - 1):
            j = min(top[1] - 1, next(cj for ci, cj in area.corners if ci == q - 1))
            prev = I.count(j, q)
    return MonomialIdeal._from_minimal(ring, gens)
