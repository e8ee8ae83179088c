"""Batch command-line front end.

Every verb maps to one library operation family and produces deterministic,
bit-exact text output.  Exit codes: 0 success, 1 domain error (structured
message on stderr), 2 I/O or format error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .areas import format_area, lex_i_a, parse_area
from .betti import BettiDiagram, ahh_betti, degreewise_diagram, ek_betti
from .dlex import betti_auto, characterize, l_sequence, lexd, regularity_range
from .errors import DomainError, DregLexError, FormatError
from .ideals import MonomialIdeal, format_ideal, lexify, parse_ideal, sq_lexify
from .koszul import DEFAULT_LATTICE_CAP, koszul_betti
from .macaulay import HilbertSpec, format_hilbert, parse_hilbert
from .monomials import GroundRing, format_monomial, parse_monomial
from .squarefree import (
    alexander_dual,
    eagon_reiner_cm,
    f_vector,
    format_complex,
    h_vector,
    l_star,
    parse_complex,
    phi_ideal,
    phi_inv_ideal,
    phi_tilde,
    sq_lexd,
    sq_regularity_range,
    stanley_reisner,
)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _load_ideal(args) -> MonomialIdeal:
    if args.gens is not None:
        if args.num_vars is None:
            raise FormatError("--gens needs -n <num_vars>")
        try:
            ring = GroundRing(args.num_vars)
        except DomainError as exc:
            raise FormatError(str(exc)) from exc
        parts = [p for p in args.gens.split(",") if p.strip()]
        return MonomialIdeal(ring, (parse_monomial(p, ring) for p in parts))
    if args.input is None:
        raise FormatError("missing input: give a file or --gens")
    return parse_ideal(_read_text(args.input))


def _load_hilbert(args) -> HilbertSpec:
    if args.input is None:
        raise FormatError("missing input: give a Hilbert file")
    return parse_hilbert(_read_text(args.input))


def _emit_ideal(I: MonomialIdeal, args) -> None:
    if args.json:
        print(json.dumps({
            "n": I.ring.num_vars,
            "generators": [format_monomial(g) for g in I.gens],
        }))
    else:
        sys.stdout.write(format_ideal(I))


def _emit_diagram(D: BettiDiagram, args) -> None:
    if args.json:
        payload = {"entries": [[i, j, v] for (i, j), v in D.entries.items()]}
        if not D.is_zero:
            payload.update(regularity=D.regularity(), projdim=D.projdim())
        print(json.dumps(payload))
    elif getattr(args, "triples", False):
        sys.stdout.write(D.format_triples())
    else:
        sys.stdout.write(D.format_table())


def _cmd_hilb(args) -> int:
    I = _load_ideal(args)
    count = I.hilbert_quotient if args.quotient else I.hilbert
    if args.degree is not None:
        value = count(args.degree)
        print(json.dumps({"t": args.degree, "value": value}) if args.json else value)
        return 0
    if args.through is None:
        raise FormatError("hilb needs -t <degree> or --through <degree>")
    if args.through < 0:
        raise DomainError(f"negative degree {args.through}")
    values = tuple(count(t) for t in range(args.through + 1))
    role = "quotient" if args.quotient else "ideal"
    spec = HilbertSpec(I.ring.num_vars, values, role)
    if args.json:
        print(json.dumps({"n": spec.num_vars, "role": role, "values": list(values)}))
    else:
        sys.stdout.write(format_hilbert(spec))
    return 0


def _cmd_betti(args) -> int:
    I = _load_ideal(args)
    method = args.method
    if method == "auto":
        D = betti_auto(I, args.cap)
    elif method == "ek":
        D = ek_betti(I)
    elif method == "ahh":
        D = ahh_betti(I)
    elif method == "degreewise":
        D = degreewise_diagram(I, squarefree=False)
    elif method == "sq-degreewise":
        D = degreewise_diagram(I, squarefree=True)
    else:
        D = koszul_betti(I, cap=args.cap)
    _emit_diagram(D, args)
    return 0


def _cmd_lex(args) -> int:
    _emit_ideal(lexify(_load_ideal(args)), args)
    return 0


def _cmd_sqlex(args) -> int:
    _emit_ideal(sq_lexify(_load_ideal(args)), args)
    return 0


def _cmd_dlex(args) -> int:
    _emit_ideal(lexd(_load_ideal(args), args.d, args.cap), args)
    return 0


def _cmd_sqdlex(args) -> int:
    _emit_ideal(sq_lexd(_load_ideal(args), args.d, args.cap), args)
    return 0


def _cmd_phi(args) -> int:
    _emit_ideal(phi_ideal(_load_ideal(args)), args)
    return 0


def _cmd_phi_inv(args) -> int:
    _emit_ideal(phi_inv_ideal(_load_ideal(args)), args)
    return 0


def _cmd_phi_tilde(args) -> int:
    _emit_ideal(phi_tilde(_load_ideal(args)), args)
    return 0


def _cmd_lseq(args) -> int:
    I = _load_ideal(args)
    entries = l_star(I).entries if args.star else l_sequence(I).entries
    if args.json:
        print(json.dumps({"entries": list(entries)}))
    else:
        print(" ".join(map(str, entries)))
    return 0


def _cmd_characterize(args) -> int:
    H = _load_hilbert(args)
    verdict = characterize(H, args.d, exact=args.exact)
    if args.json:
        print(json.dumps({
            "admissible": verdict.admissible,
            "witness": list(verdict.witness_l.entries) if verdict.witness_l else None,
            "failed_condition": verdict.failed_condition,
        }))
    elif verdict.admissible:
        print("admissible")
        print("witness: " + " ".join(map(str, verdict.witness_l.entries)))
    else:
        print(f"inadmissible: {verdict.failed_condition}")
    return 0


def _cmd_reg_range(args) -> int:
    return _emit_range(regularity_range(_load_ideal(args), args.cap), args)


def _cmd_sq_reg_range(args) -> int:
    return _emit_range(sq_regularity_range(_load_ideal(args), args.cap), args)


def _emit_range(witnesses, args) -> int:
    if args.json:
        print(json.dumps({
            "range": sorted(witnesses),
            "witnesses": {str(r): [format_monomial(g) for g in J.gens] for r, J in witnesses.items()},
        }))
    else:
        print("range: " + " ".join(str(r) for r in sorted(witnesses)))
        for r in sorted(witnesses):
            gens = ", ".join(format_monomial(g) for g in witnesses[r].gens)
            print(f"reg {r}: {gens}")
    return 0


def _cmd_area(args) -> int:
    area = parse_area(args.points)
    if args.action == "conv":
        result = area.conv_hull()
        print(json.dumps({"corners": list(map(list, result.corners))}) if args.json else format_area(result))
    elif args.action == "rep":
        print(json.dumps({"corners": list(map(list, area.corners))}) if args.json else format_area(area))
    else:  # check
        verdict = area.is_semi_convex()
        if args.json:
            print(json.dumps({
                "semi_convex": verdict,
                "top_points": list(map(list, area.top_points())),
            }))
        else:
            print("semi-convex: " + ("yes" if verdict else "no"))
            print("top: " + ";".join(f"({i},{j})" for i, j in area.top_points()))
    return 0


def _cmd_lexarea(args) -> int:
    I = _load_ideal(args)
    area = parse_area(args.area)
    _emit_ideal(lex_i_a(I, area), args)
    return 0


def _cmd_complex(args) -> int:
    complex_ = parse_complex(_read_text(args.input))
    if args.action == "fvec":
        vec = f_vector(complex_)
        print(json.dumps({"f": list(vec)}) if args.json else " ".join(map(str, vec)))
    elif args.action == "hvec":
        vec = h_vector(complex_)
        print(json.dumps({"h": list(vec)}) if args.json else " ".join(map(str, vec)))
    elif args.action == "dual":
        dual = alexander_dual(complex_)
        if args.json:
            print(json.dumps({"vertices": dual.vertex_count, "facets": [sorted(f) for f in dual.facets]}))
        else:
            sys.stdout.write(format_complex(dual))
    elif args.action == "sr":
        _emit_ideal(stanley_reisner(complex_), args)
    else:  # cm
        verdict = eagon_reiner_cm(complex_, args.cap)
        print(json.dumps({"cohen_macaulay": verdict}) if args.json else ("true" if verdict else "false"))
    return 0


def _positive_int(text: str) -> int:
    """argparse type of --cap: a malformed or non-positive cap is a usage
    error (exit 2), not a cap that every question exceeds."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dreglex",
        description="Combinatorics of d-regular graded monomial ideals.",
    )
    parser.add_argument("--version", action="version", version=f"dreglex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cap(p):
        p.add_argument("--cap", type=_positive_int, default=DEFAULT_LATTICE_CAP,
                       help="cap on the Koszul oracle's lcm lattice, in multidegrees (default 10^6)")

    def common(p, ideal_input=True, cap=False):
        if cap:
            add_cap(p)
        p.add_argument("--json", action="store_true", help="structured output")
        if ideal_input:
            p.add_argument("input", nargs="?", help="input file")
            p.add_argument("--gens", help="inline comma-separated generators (with -n)")
            p.add_argument("-n", "--num-vars", type=int, help="ring size for --gens")

    p = sub.add_parser("hilb", help="Hilbert function values")
    common(p)
    p.add_argument("-t", "--degree", type=int, help="single degree")
    p.add_argument("--through", type=int, help="emit H(0..T) in the Hilbert file format")
    p.add_argument("--quotient", action="store_true", help="count the quotient ring instead of the ideal")
    p.set_defaults(func=_cmd_hilb)

    p = sub.add_parser("betti", help="graded Betti diagram")
    common(p, cap=True)
    p.add_argument(
        "--method",
        choices=["auto", "ek", "ahh", "degreewise", "sq-degreewise", "koszul"],
        default="auto",
        help="ek/ahh: generator-sum closed forms; degreewise/sq-degreewise: "
        "max-index count formulas; koszul: the exact oracle; auto picks the "
        "cheapest valid closed form else the oracle",
    )
    p.add_argument("--triples", action="store_true", help="one (i, j, value) per line")
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("lex", help="the lexsegment ideal with the same Hilbert function")
    common(p)
    p.set_defaults(func=_cmd_lex)

    p = sub.add_parser("sqlex", help="the squarefree lexsegment ideal with the same Hilbert function")
    common(p)
    p.set_defaults(func=_cmd_sqlex)

    p = sub.add_parser("dlex", help="the d-lexsegment ideal with the same Hilbert function")
    common(p, cap=True)
    p.add_argument("-d", type=int, required=True)
    p.set_defaults(func=_cmd_dlex)

    p = sub.add_parser("sqdlex", help="the squarefree d-lexsegment ideal with the same Hilbert function")
    common(p, cap=True)
    p.add_argument("-d", type=int, required=True)
    p.set_defaults(func=_cmd_sqdlex)

    p = sub.add_parser("phi", help="spread a degree-d strongly stable ideal into n+d-1 variables")
    common(p)
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("phi-inv", help="unspread a degree-d squarefree strongly stable ideal")
    common(p)
    p.set_defaults(func=_cmd_phi_inv)

    p = sub.add_parser("phi-tilde", help="spread within the same ring (Betti numbers preserved)")
    common(p)
    p.set_defaults(func=_cmd_phi_tilde)

    p = sub.add_parser("lseq", help="max-index generator counts of a degree-d strongly stable ideal")
    common(p)
    p.add_argument("--star", action="store_true", help="shifted counts of a squarefree strongly stable ideal")
    p.set_defaults(func=_cmd_lseq)

    p = sub.add_parser("characterize", help="decide d-regular realizability of a Hilbert function")
    p.add_argument("input", nargs="?", help="Hilbert file")
    p.add_argument("--json", action="store_true")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--exact", action="store_true", help="require regularity exactly d")
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser(
        "reg-range",
        help="achievable regularities for the Hilbert function, with witnesses",
        description="Witnesses of every achievable regularity for the input's "
        "Hilbert function, from the input's own regularity up to the full "
        "lexification's.  The range starts at the minimum only when the input "
        "realizes it; a non-minimal representative yields the tail subset.  The "
        "lexification's end and every witness are read from the Hilbert function.",
    )
    common(p, cap=True)
    p.set_defaults(func=_cmd_reg_range)

    p = sub.add_parser("sq-reg-range", help="squarefree analogue of reg-range")
    common(p, cap=True)
    p.set_defaults(func=_cmd_sq_reg_range)

    p = sub.add_parser("area", help="extremal-area utilities")
    p.add_argument("action", choices=["conv", "check", "rep"])
    p.add_argument("points", help='corner list "(i,j);(i,j);..."')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_area)

    p = sub.add_parser("lexarea", help="maximal-Betti ideal for a semi-convex area")
    common(p)
    p.add_argument("--area", required=True, help='corner list "(i,j);(i,j);..."')
    p.set_defaults(func=_cmd_lexarea)

    p = sub.add_parser("complex", help="simplicial-complex utilities")
    p.add_argument("action", choices=["fvec", "hvec", "dual", "sr", "cm"])
    p.add_argument("input", help="complex file")
    add_cap(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_complex)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except DregLexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
