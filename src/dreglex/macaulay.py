"""Binomial-representation calculus: Macaulay representations, the two shift
operators controlling Hilbert-function growth, M-vector tests, and Macaulay's
admissibility conditions for quotient- and ideal-side Hilbert functions.

All arithmetic is exact; binomials use the combinatorial convention
C(a, b) = 0 whenever b < 0 or a < b.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .errors import DomainError, FormatError
from .monomials import binomial_expansion, count_monomials, parse_decimal


def binom(a: int, b: int) -> int:
    """C(a, b) with the combinatorial zero conventions."""
    if b < 0 or a < b:
        return 0
    return comb(a, b)


@dataclass(frozen=True)
class MacaulayRep:
    """The unique expansion a = sum C(a_i, i) with a_d > a_{d-1} > ... >= j >= 1
    and the lower indices stepping down by one from d."""

    degree: int
    terms: tuple[tuple[int, int], ...]  # (a_i, i), i descending from degree

    def value(self) -> int:
        return sum(binom(a, i) for a, i in self.terms)


def macaulay_rep(a: int, d: int) -> MacaulayRep:
    """The d-th Macaulay representation of a: its greedy binomial expansion."""
    if d < 1:
        raise DomainError(f"representation degree must be >= 1, got {d}")
    if a < 1:
        raise DomainError("a = 0 has no Macaulay representation; use the 0-conventions")
    return MacaulayRep(d, tuple(binomial_expansion(a, d)))


def up(a: int, d: int) -> int:
    """a raised along degree: tops + 1, bottoms fixed; 0 maps to 0.

    For the lexsegment of size a in any degree, this is the exact size of its
    span one degree higher in d + 1 variables.  d = 0 (one variable) only
    admits sizes 0 and 1, where the span operator is the identity.
    """
    return _shift(a, d, 0)


def down(a: int, d: int) -> int:
    """a shifted along both indices: tops + 1, bottoms + 1; 0 maps to 0."""
    return _shift(a, d, 1)


def _shift(a: int, d: int, lift: int) -> int:
    """sum C(t + 1, i + lift) over the terms C(t, i) of macaulay_rep(a, d)."""
    if a == 0:
        return 0
    if d == 0:
        if a > 1:
            raise DomainError(f"no degree slice of size {a} in one variable")
        return a
    return sum(binom(t + 1, i + lift) for t, i in macaulay_rep(a, d).terms)


def is_m_vector(h: Sequence[int]) -> bool:
    """True iff h is realizable as the Hilbert function of a graded quotient:
    h_0 = 1 and down(h_t, t) >= h_{t+1} for every t >= 1.  The convention
    down(0, t) = 0 forces zeros to persist."""
    if len(h) == 0 or h[0] != 1:
        return False
    if any(v < 0 for v in h):
        return False
    for t in range(1, len(h) - 1):
        if down(h[t], t) < h[t + 1]:
            return False
    return True


@dataclass(frozen=True)
class HilbertSpec:
    """A numerical function on an explicit finite support 0..T, tagged with the
    ring it refers to and whether it counts an ideal or a quotient."""

    num_vars: int
    values: tuple[int, ...]
    role: str  # "ideal" | "quotient"

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if self.role not in ("ideal", "quotient"):
            raise DomainError(f"role must be 'ideal' or 'quotient', got {self.role!r}")
        if self.num_vars < 1:
            raise DomainError("num_vars must be >= 1")
        if len(self.values) == 0:
            raise DomainError("a Hilbert specification needs at least H(0)")
        if any(v < 0 for v in self.values):
            raise DomainError("Hilbert values must be nonnegative")

    @property
    def top(self) -> int:
        return len(self.values) - 1

    def value(self, t: int) -> int:
        if not 0 <= t <= self.top:
            raise DomainError(f"H({t}) not supplied (support is 0..{self.top})")
        return self.values[t]


def admissible_quotient(H: HilbertSpec) -> bool:
    """Macaulay's quotient-side test: H(0) = 1, H(1) <= n and
    down(H(t), t) >= H(t+1) over the supplied range."""
    if H.role != "quotient":
        raise DomainError("admissible_quotient needs a quotient-side specification")
    return is_m_vector(H.values) and max(H.values[1:2], default=0) <= H.num_vars


def admissible_ideal(H: HilbertSpec) -> bool:
    """Macaulay's ideal-side test: H(0) = 0 and
    up(H(t), n-1) <= H(t+1) <= dim S_{t+1} over the supplied range."""
    if H.role != "ideal":
        raise DomainError("admissible_ideal needs an ideal-side specification")
    if H.values[0] != 0:
        return False
    n = H.num_vars
    for t in range(H.top):
        nxt = H.values[t + 1]
        if not up(H.values[t], n - 1) <= nxt <= count_monomials(n, t + 1):
            return False
    return True


def parse_hilbert(text: str) -> HilbertSpec:
    """Parse the Hilbert file format: header ``n=<int> role=<ideal|quotient>``,
    then one integer per line, line t giving H(t).  ``#`` starts a comment."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise FormatError("empty Hilbert specification")
    # two fields, keyed n and role: a repeated key or a field without "="
    # leaves fewer than two keys
    fields = lines[0].split()
    header = dict(field.split("=", 1) for field in fields if "=" in field)
    if len(fields) != 2 or set(header) != {"n", "role"}:
        raise FormatError(f"bad Hilbert header {lines[0]!r}: need exactly the fields n=<int> and role=<ideal|quotient>")
    try:
        n = parse_decimal(header["n"])
        values = tuple(map(parse_decimal, lines[1:]))
    except ValueError as exc:
        raise FormatError(f"bad integer in Hilbert specification: {exc}") from exc
    try:
        return HilbertSpec(n, values, header["role"])
    except DomainError as exc:
        raise FormatError(str(exc)) from exc


def format_hilbert(H: HilbertSpec) -> str:
    body = "\n".join(str(v) for v in H.values)
    return f"n={H.num_vars} role={H.role}\n{body}\n"
