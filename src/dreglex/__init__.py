"""Combinatorics of d-regular graded monomial ideals.

The library implements, over an abstract ground ring with no materialized
field, the Hilbert-function characterization of d-regular graded ideals, the
(squarefree) d-lexsegment constructions realizing them, closed-form graded
Betti diagrams for (squarefree) strongly stable ideals, an exact
Koszul-homology Betti oracle for arbitrary monomial ideals, the spreading
bijection between the two worlds, simplicial-complex translations, and the
maximal-Betti construction over semi-convex extremal areas.
"""

__version__ = "0.1.0"

from .areas import ExtremalArea, admits, format_area, lex_i_a, parse_area
from .betti import (
    BettiDiagram,
    ahh_betti,
    bigatti_degreewise,
    degreewise_diagram,
    ek_betti,
    sq_degreewise,
)
from .dlex import (
    LSequence,
    Verdict,
    betti_auto,
    characterize,
    characterize_exact,
    dlex_from_hilbert,
    dlinear_lex_from_l,
    hilbert_from_l,
    is_admissible_l,
    l_from_hilbert_tail,
    l_sequence,
    lexd,
    regularity,
    regularity_range,
)
from .errors import (
    CapExceeded,
    DomainError,
    DregLexError,
    FormatError,
    RingMismatch,
)
from .ideals import (
    MonomialIdeal,
    format_ideal,
    lexify,
    minimalize,
    parse_ideal,
    sq_lexify,
)
from .koszul import koszul_betti
from .macaulay import (
    HilbertSpec,
    MacaulayRep,
    admissible_ideal,
    admissible_quotient,
    binom,
    down,
    format_hilbert,
    is_m_vector,
    macaulay_rep,
    parse_hilbert,
    up,
)
from .monomials import (
    GroundRing,
    Monomial,
    enumerate_degree,
    format_monomial,
    lex_prefix,
    lex_rank,
    parse_monomial,
)
from .squarefree import (
    SimplicialComplex,
    alexander_dual,
    complex_from_ideal,
    eagon_reiner_cm,
    f_vector,
    format_complex,
    h_vector,
    l_star,
    parse_complex,
    phi,
    phi_ideal,
    phi_inv,
    phi_inv_ideal,
    phi_tilde,
    sq_lexd,
    sq_regularity_range,
    stanley_reisner,
)
