"""Monomials over a fixed ground ring, lex order, the squarefree operation
phi, and the lex prefixes that drive every lexsegment construction in this
library.

Conventions, fixed once and used everywhere:

* variables are 1-based (``x1 > x2 > ... > xn`` in the lex order);
* ``max_index(1) = 0`` for the unit monomial;
* a degree slice is a tuple of monomials of one degree in lex-descending
  order, so the "first N monomials" of a degree are always a lexsegment
  prefix.

Lexsegments are built by rank (the combinatorial number system), never by
enumeration: ``lex_rank`` costs one binomial per variable; ``lex_prefix``
with ``start`` unranks its first member from the greedy binomial expansion of
``start``, O(log degree) binomials a variable, and then costs one step per
monomial it returns.  phi carries the degree-t lexsegments in n - t + 1
variables onto the squarefree ones in n, in order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator

from .errors import DomainError, FormatError, RingMismatch

# a dense Monomial holds one pointer per variable, so a ring of 10^5
# variables costs about 0.8 MB per exponent vector; rings and complexes
# above this size are refused before any vector is built
MAX_VARIABLES = 10**5


@dataclass(frozen=True)
class GroundRing:
    """A standard graded polynomial ring, reduced to what the combinatorics
    needs: the number of variables.  No field is ever materialized."""

    num_vars: int

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise DomainError(f"ground ring needs at least one variable, got {self.num_vars}")
        if self.num_vars > MAX_VARIABLES:
            raise DomainError(f"ground ring allows at most {MAX_VARIABLES} variables, got {self.num_vars}")

    def one(self) -> Monomial:
        return Monomial((0,) * self.num_vars)

    def squarefree(self, support: Iterable[int]) -> Monomial:
        """The squarefree monomial with the given 1-based support."""
        return Monomial(tuple(int(i in support) for i in range(1, self.num_vars + 1)))

    def monomial(self, exponents: Iterable[int]) -> Monomial:
        m = Monomial(tuple(exponents))
        if m.num_vars != self.num_vars:
            raise RingMismatch(f"expected {self.num_vars} exponents, got {m.num_vars}")
        return m


@dataclass(frozen=True, slots=True)
class Monomial:
    """A monomial as a dense exponent vector.  Immutable and hashable; the
    ambient ring is determined by the vector length."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.exponents) is not tuple:
            object.__setattr__(self, "exponents", tuple(self.exponents))
        if self.exponents and min(self.exponents) < 0:
            raise DomainError(f"negative exponent in {self.exponents}")

    @property
    def num_vars(self) -> int:
        return len(self.exponents)

    @property
    def ring(self) -> GroundRing:
        return GroundRing(len(self.exponents))

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def max_index(self) -> int:
        """Largest i with a positive exponent; 0 for the unit monomial."""
        for i in range(len(self.exponents) - 1, -1, -1):
            if self.exponents[i]:
                return i + 1
        return 0

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, e in enumerate(self.exponents) if e)

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    @property
    def is_one(self) -> bool:
        return not any(self.exponents)

    def divides(self, other: Monomial) -> bool:
        _same_ring(self, other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def times_var(self, i: int) -> Monomial:
        e = list(self.exponents)
        e[i - 1] += 1
        return Monomial(tuple(e))

    def div_var(self, i: int) -> Monomial:
        e = list(self.exponents)
        if e[i - 1] == 0:
            raise DomainError(f"x{i} does not divide {self}")
        e[i - 1] -= 1
        return Monomial(tuple(e))

    def exchange(self, p: int, q: int) -> Monomial:
        """The exchange move x_q -> x_p, i.e. self * x_p / x_q."""
        e = list(self.exponents)
        if e[q - 1] == 0:
            raise DomainError(f"x{q} does not divide {self}")
        e[q - 1] -= 1
        e[p - 1] += 1
        return Monomial(tuple(e))

    def __str__(self) -> str:
        return format_monomial(self)

    def __repr__(self) -> str:
        return f"Monomial({format_monomial(self)!r}, n={self.num_vars})"


def _same_ring(u: Monomial, v: Monomial) -> None:
    if u.num_vars != v.num_vars:
        raise RingMismatch(f"monomials over {u.num_vars} and {v.num_vars} variables")


def count_monomials(num_vars: int, degree: int) -> int:
    """Number of monomials of the given degree in num_vars variables."""
    if degree < 0:
        return 0
    return comb(num_vars + degree - 1, degree)


def binomial_expansion(a: int, d: int) -> Iterator[tuple[int, int]]:
    """The greedy expansion a = C(c_d, d) + C(c_(d-1), d - 1) + ... as terms
    (c, i), i = d, d - 1, ..., until the remainder is 0: each c is the largest
    with C(c, i) <= the remainder, found by doubling a step up from c = i and
    halving it back (O(log c) binomials).  For a, d >= 1 this is Macaulay's
    d-th representation of a."""
    for i in range(d, 0, -1):
        if not a:
            break
        c, step = i, 1
        while comb(c + step, i) <= a:
            c, step = c + step, 2 * step
        while step := step // 2:  # here C(c, i) <= a < C(c + 2 * step, i)
            if comb(c + step, i) <= a:
                c += step
        yield c, i
        a -= comb(c, i)


def iter_degree_desc(num_vars: int, degree: int) -> Iterator[tuple[int, ...]]:
    """All exponent vectors of the given degree, lex-descending."""
    if num_vars == 1:
        yield (degree,)
        return
    for e in range(degree, -1, -1):
        for rest in iter_degree_desc(num_vars - 1, degree - e):
            yield (e,) + rest


def enumerate_degree(ring: GroundRing, degree: int) -> tuple[Monomial, ...]:
    """All monomials of the given degree, lex-descending."""
    if degree < 0:
        raise DomainError(f"negative degree {degree}")
    return tuple(Monomial(e) for e in iter_degree_desc(ring.num_vars, degree))


def lex_rank(m: Monomial, max_var: int | None = None) -> int:
    """The number of degree-deg(m) monomials in the first ``max_var``
    variables (default: all) that are lex-greater than m: its position in
    their lex-descending order when it lies there.  Those first exceeding m
    at x_i are m's factors before x_i times x_i^(e_i + 1) times anything in
    x_i..x_k of the degree left over."""
    k = m.num_vars if max_var is None else max_var
    if not 0 <= k <= m.num_vars:
        raise DomainError(f"max_var {k} out of range 0..{m.num_vars}")
    rank, rest = 0, m.degree
    for i, e in enumerate(m.exponents[:k]):
        rank += count_monomials(k - i, rest - e - 1)
        rest -= e
    return rank


def lex_prefix(
    ring: GroundRing, degree: int, size: int, max_var: int | None = None, start: int = 0
) -> tuple[Monomial, ...]:
    """The lexsegment of the given size in degree ``degree``, restricted to the
    first ``max_var`` variables (default: all), embedded in ``ring``, less its
    first ``start`` members, lex-descending.  Unranks ``start`` from its
    greedy expansion in degree k - 1: the term C(c, m), m = k - i, leaves
    j = c - m + 1 of the degree to x_(i+1)..x_k, since the C(c, m) members that
    agree with it before x_i and keep more in x_i come first (hockey stick);
    the variable after the last term takes the rest.  Then walks the lex
    successor: the rightmost nonzero exponent before x_k drops by one and the
    whole tail moves to the next variable."""
    k = ring.num_vars if max_var is None else max_var
    if not 0 <= k <= ring.num_vars:
        raise DomainError(f"max_var {k} out of range 0..{ring.num_vars}")
    if not 0 <= start <= size:
        raise DomainError(f"bad lex range {start}..{size}")
    if start == size:
        return ()
    if k == 0 or size > count_monomials(k, degree):
        raise DomainError(f"no lexsegment of size {size} in degree {degree} over {k} variables")
    e = [0] * ring.num_vars
    rest = degree
    terms = tuple(binomial_expansion(start, k - 1))
    for i, (c, m) in enumerate(terms):
        j = c - m + 1
        e[i], rest = rest - j, j
    e[len(terms)] = rest
    picked = [Monomial(tuple(e))]
    for _ in range(size - start - 1):
        i = max(i for i in range(k - 1) if e[i])
        e[i + 1:k] = [sum(e[i + 1:k]) + 1] + [0] * (k - i - 2)
        e[i] -= 1
        picked.append(Monomial(tuple(e)))
    return tuple(picked)


def lex_prefix_counts(ring: GroundRing, degree: int, size: int, max_var: int | None = None) -> tuple[int, ...]:
    """For j = 1..k, k = ``max_var`` (default: all), the members in x1..xj of
    the size-``size`` lex prefix of degree ``degree`` in x1..xk: the rank in
    x1..xj of its last member, plus one if that member lies there."""
    k = ring.num_vars if max_var is None else max_var
    last = lex_prefix(ring, degree, size, max_var=k, start=max(size - 1, 0))
    return tuple(lex_rank(last[0], j) + (last[0].max_index <= j) if last else 0 for j in range(1, k + 1))


def phi(u: Monomial, target_vars: int | None = None) -> Monomial:
    """Spread the (weakly increasing) variable indices of u by 0, 1, 2, ...:
    a degree-d monomial maps to a squarefree degree-d monomial in
    max(u) + d - 1 variables.  Lex order is preserved in both directions."""
    d = u.degree
    indices = []
    for i, e in enumerate(u.exponents, start=1):
        indices.extend([i] * e)
    target = target_vars if target_vars is not None else u.num_vars + max(d - 1, 0)
    if d and indices[-1] + d - 1 > target:
        raise DomainError(f"target ring with {target} variables is too small for phi({u})")
    e = [0] * target
    for offset, i in enumerate(indices):
        e[i + offset - 1] = 1
    return Monomial(tuple(e))


def phi_inv(v: Monomial, target_vars: int | None = None) -> Monomial:
    """Inverse spreading: the k-th smallest index j_k of a squarefree monomial
    maps back to j_k - (k - 1)."""
    if not v.is_squarefree:
        raise DomainError(f"phi_inv needs a squarefree monomial, got {v}")
    d = v.degree
    target = target_vars if target_vars is not None else max(v.num_vars - d + 1, 1)
    e = [0] * target
    for offset, j in enumerate(v.support):
        i = j - offset
        if i < 1:
            raise DomainError(f"{v} is not in the image of phi")
        if i > target:
            raise DomainError(f"target ring with {target} variables is too small for phi_inv({v})")
        e[i - 1] += 1
    return Monomial(tuple(e))


def parse_decimal(text: str) -> int:
    """The integer written by `text` in ASCII decimal digits alone; raises
    ValueError, as ``int`` does, on anything else, including the signs,
    underscores, surrounding whitespace and non-ASCII digits that ``int``
    accepts."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


_FACTOR_RE = re.compile(r"^x([0-9]+)(?:\^([0-9]+))?$")


def parse_monomial(text: str, ring: GroundRing) -> Monomial:
    """Parse the bit-exact monomial syntax: ``x<i>`` factors joined by ``*``,
    ``^`` for exponents, ``1`` for the unit monomial.  Whitespace is ignored."""
    stripped = "".join(text.split())
    if not stripped:
        raise FormatError("empty monomial")
    if stripped == "1":
        return ring.one()
    exps = [0] * ring.num_vars
    for factor in stripped.split("*"):
        m = _FACTOR_RE.match(factor)
        if not m:
            raise FormatError(f"bad monomial factor {factor!r} in {text!r}")
        i = int(m[1])
        e = int(m[2]) if m[2] else 1
        if not 1 <= i <= ring.num_vars:
            raise FormatError(f"variable x{i} outside ring with {ring.num_vars} variables")
        if e < 1:
            raise FormatError(f"exponent must be positive in {factor!r}")
        exps[i - 1] += e
    return Monomial(tuple(exps))


def format_monomial(m: Monomial) -> str:
    """Inverse of parse_monomial, canonical form (ascending variable index)."""
    parts = []
    for i, e in enumerate(m.exponents, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"
