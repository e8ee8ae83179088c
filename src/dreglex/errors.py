"""Exception types shared across the library."""


class DregLexError(Exception):
    """Base class for every domain error raised by this library."""


class RingMismatch(DregLexError):
    """Operands live over different ground rings (variable counts differ)."""


class FormatError(DregLexError):
    """Malformed textual input (monomial, ideal, Hilbert, complex or area file)."""


class CapExceeded(DregLexError):
    """A component's lcm lattice in the Koszul oracle would exceed the cap.

    The question is left undecided; a wrong boolean is never returned.  The
    cap is ``koszul.DEFAULT_LATTICE_CAP`` everywhere but in a direct call
    ``koszul_betti(I, cap=...)``, the one place that sets another.
    """


class DomainError(DregLexError):
    """A mathematical precondition on the input is violated."""
