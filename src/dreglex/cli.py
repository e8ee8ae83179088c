"""Batch command-line front end.

One table, ``VERBS``, defines the command line: each row holds a verb's name,
its help, its arguments (the shared groups -- ideal input, ``-d`` and
``--json`` -- are defined once) and one function from the parsed
arguments to the deterministic, bit-exact text to print.  Those functions
look library functions up by name when the verb runs, so rebinding a module
global reaches them.  ``main`` alone writes to stdout and turns errors into
exit codes: 0 success, 1 domain error (structured message on stderr), 2 I/O
or format error.

A command line that starts with a verb is parsed in one pass by that verb's
own sub-parser, taken from the sub-parsers action of the one parser tree;
leftover arguments go to the top-level parser's ``error``, as a full parse
reports them.  Any other command line (no arguments, ``--help``,
``--version``, an unknown verb) goes through the top-level parser.  Either
way the output, the usage messages included, is that of a full parse.
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
from .koszul import koszul_betti
from .macaulay import HilbertSpec, format_hilbert, parse_hilbert
from .monomials import GroundRing, format_monomial, parse_decimal, parse_monomial
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


def _lines(*lines) -> str:
    return "".join(f"{line}\n" for line in lines)


def _ideal_text(I: MonomialIdeal, args) -> str:
    if args.json:
        return _lines(json.dumps({"n": I.ring.num_vars, "generators": [format_monomial(g) for g in I.gens]}))
    return format_ideal(I)


def _vector_text(key: str, vec, args) -> str:
    return _lines(json.dumps({key: list(vec)}) if args.json else " ".join(map(str, vec)))


def _diagram_text(D: BettiDiagram, args) -> str:
    if args.json:
        payload = {"entries": [[i, j, v] for (i, j), v in D.entries.items()]}
        if not D.is_zero:
            payload.update(regularity=D.regularity(), projdim=D.projdim())
        return _lines(json.dumps(payload))
    return D.format_triples() if args.triples else D.format_table()


def _range_text(witnesses, args) -> str:
    if args.json:
        return _lines(json.dumps({
            "range": sorted(witnesses),
            "witnesses": {str(r): [format_monomial(g) for g in J.gens] for r, J in witnesses.items()},
        }))
    return _lines(
        "range: " + " ".join(str(r) for r in sorted(witnesses)),
        *(f"reg {r}: " + ", ".join(format_monomial(g) for g in witnesses[r].gens) for r in sorted(witnesses)),
    )


def _hilb_text(args) -> str:
    I = _load_ideal(args)
    if args.through is None:
        value = (I.hilbert_quotient if args.quotient else I.hilbert)(args.degree)
        return _lines(json.dumps({"t": args.degree, "value": value}) if args.json else value)
    values = I.hilbert_through(args.through, args.quotient)
    role = "quotient" if args.quotient else "ideal"
    if args.json:
        return _lines(json.dumps({"n": I.ring.num_vars, "role": role, "values": list(values)}))
    return format_hilbert(HilbertSpec(I.ring.num_vars, values, role))


# --method -> ideal -> Betti diagram; the names resolve when a verb runs
BETTI_METHODS = {
    "auto": lambda I: betti_auto(I),
    "ek": lambda I: ek_betti(I),
    "ahh": lambda I: ahh_betti(I),
    "degreewise": lambda I: degreewise_diagram(I, squarefree=False),
    "sq-degreewise": lambda I: degreewise_diagram(I, squarefree=True),
    "koszul": lambda I: koszul_betti(I),
}


def _characterize_text(args) -> str:
    if args.input is None:
        raise FormatError("missing input: give a Hilbert file")
    verdict = characterize(parse_hilbert(_read_text(args.input)), args.d, exact=args.exact)
    if args.json:
        return _lines(json.dumps({
            "admissible": verdict.admissible,
            "witness": list(verdict.witness_l.entries) if verdict.witness_l else None,
            "failed_condition": verdict.failed_condition,
        }))
    if verdict.admissible:
        return _lines("admissible", "witness: " + " ".join(map(str, verdict.witness_l.entries)))
    return _lines(f"inadmissible: {verdict.failed_condition}")


def _area_text(args) -> str:
    area = parse_area(args.points)
    if args.action == "check":
        verdict, top = area.is_semi_convex(), area.top_points()
        if args.json:
            return _lines(json.dumps({"semi_convex": verdict, "top_points": list(map(list, top))}))
        return _lines("semi-convex: " + ("yes" if verdict else "no"), "top: " + ";".join(f"({i},{j})" for i, j in top))
    result = area.conv_hull() if args.action == "conv" else area
    return _lines(json.dumps({"corners": list(map(list, result.corners))}) if args.json else format_area(result))


def _complex_text(args) -> str:
    complex_ = parse_complex(_read_text(args.input))
    if args.action == "fvec":
        return _vector_text("f", f_vector(complex_), args)
    if args.action == "hvec":
        return _vector_text("h", h_vector(complex_), args)
    if args.action == "sr":
        return _ideal_text(stanley_reisner(complex_), args)
    if args.action == "cm":
        verdict = eagon_reiner_cm(complex_)
        return _lines(json.dumps({"cohen_macaulay": verdict}) if args.json else ("true" if verdict else "false"))
    dual = alexander_dual(complex_)
    if args.json:
        return _lines(json.dumps({"vertices": dual.vertex_count, "facets": [sorted(f) for f in dual.facets]}))
    return format_complex(dual)


def _integer(text: str) -> int:
    """argparse type of the integer options: ASCII decimal digits after an
    optional '-', as ``parse_decimal`` reads them; anything else, a '+',
    an underscore, a space or a non-ASCII digit, is a usage error (exit 2)."""
    try:
        return -parse_decimal(text[1:]) if text.startswith("-") else parse_decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a decimal integer, got {text!r}") from None


def _arg(*flags, **kwargs):
    return flags, kwargs


JSON = _arg("--json", action="store_true", help="structured output")
IDEAL = (
    _arg("input", nargs="?", help="input file"),
    _arg("--gens", help="inline comma-separated generators (with -n)"),
    _arg("-n", "--num-vars", type=_integer, help="ring size for --gens"),
)
D = _arg("-d", type=_integer, required=True)
AREA_HELP = 'corner list "(i,j);(i,j);..."'

# (verb, add_parser keywords, arguments, parsed arguments -> text); a list in
# the arguments is a group of which exactly one must be given
VERBS = (
    ("hilb", {"help": "Hilbert function values"}, [
        JSON, *IDEAL,
        [_arg("-t", "--degree", type=_integer, help="single degree"),
         _arg("--through", type=_integer, help="emit H(0..T) in the Hilbert file format")],
        _arg("--quotient", action="store_true", help="count the quotient ring instead of the ideal"),
    ], _hilb_text),
    ("betti", {"help": "graded Betti diagram"}, [
        JSON, *IDEAL,
        _arg("--method", choices=list(BETTI_METHODS), default="auto",
             help="ek/ahh: generator-sum closed forms; degreewise/sq-degreewise: max-index count formulas; "
             "koszul: the exact oracle; auto picks the cheapest valid closed form else the oracle"),
        _arg("--triples", action="store_true", help="one (i, j, value) per line"),
    ], lambda a: _diagram_text(BETTI_METHODS[a.method](_load_ideal(a)), a)),
    ("lex", {"help": "the lexsegment ideal with the same Hilbert function"}, [JSON, *IDEAL],
     lambda a: _ideal_text(lexify(_load_ideal(a)), a)),
    ("sqlex", {"help": "the squarefree lexsegment ideal with the same Hilbert function"}, [JSON, *IDEAL],
     lambda a: _ideal_text(sq_lexify(_load_ideal(a)), a)),
    ("dlex", {"help": "the d-lexsegment ideal with the same Hilbert function"}, [JSON, *IDEAL, D],
     lambda a: _ideal_text(lexd(_load_ideal(a), a.d), a)),
    ("sqdlex", {"help": "the squarefree d-lexsegment ideal with the same Hilbert function"}, [JSON, *IDEAL, D],
     lambda a: _ideal_text(sq_lexd(_load_ideal(a), a.d), a)),
    ("phi", {"help": "spread a degree-d strongly stable ideal into n+d-1 variables"}, [JSON, *IDEAL],
     lambda a: _ideal_text(phi_ideal(_load_ideal(a)), a)),
    ("phi-inv", {"help": "unspread a degree-d squarefree strongly stable ideal"}, [JSON, *IDEAL],
     lambda a: _ideal_text(phi_inv_ideal(_load_ideal(a)), a)),
    ("phi-tilde", {"help": "spread within the same ring (Betti numbers preserved)"}, [JSON, *IDEAL],
     lambda a: _ideal_text(phi_tilde(_load_ideal(a)), a)),
    ("lseq", {"help": "max-index generator counts of a degree-d strongly stable ideal"}, [
        JSON, *IDEAL,
        _arg("--star", action="store_true", help="shifted counts of a squarefree strongly stable ideal"),
    ], lambda a: _vector_text("entries", (l_star if a.star else l_sequence)(_load_ideal(a)).entries, a)),
    ("characterize", {"help": "decide d-regular realizability of a Hilbert function"}, [
        _arg("input", nargs="?", help="Hilbert file"), JSON, D,
        _arg("--exact", action="store_true", help="require regularity exactly d"),
    ], _characterize_text),
    ("reg-range", {
        "help": "achievable regularities for the Hilbert function, with witnesses",
        "description": "Witnesses of every achievable regularity for the input's "
        "Hilbert function, from the input's own regularity up to the full "
        "lexification's.  The range starts at the minimum only when the input "
        "realizes it; a non-minimal representative yields the tail subset.  The "
        "lexification's end and every witness are read from the Hilbert function.",
    }, [JSON, *IDEAL], lambda a: _range_text(regularity_range(_load_ideal(a)), a)),
    ("sq-reg-range", {
        "help": "squarefree analogue of reg-range",
        "description": "Witnesses of every regularity that a squarefree ideal with the input's Hilbert "
        "function can have, from the least, which may lie below the input's own, up to the squarefree "
        "lexification's.  The range and every witness are read from the input's squarefree counts alone.",
    }, [JSON, *IDEAL], lambda a: _range_text(sq_regularity_range(_load_ideal(a)), a)),
    ("area", {"help": "extremal-area utilities"}, [
        _arg("action", choices=["conv", "check", "rep"]), _arg("points", help=AREA_HELP), JSON,
    ], _area_text),
    ("lexarea", {"help": "maximal-Betti ideal for a semi-convex area"}, [
        JSON, *IDEAL, _arg("--area", required=True, help=AREA_HELP),
    ], lambda a: _ideal_text(lex_i_a(_load_ideal(a), parse_area(a.area)), a)),
    ("complex", {"help": "simplicial-complex utilities"}, [
        _arg("action", choices=["fvec", "hvec", "dual", "sr", "cm"]), _arg("input", help="complex file"), JSON,
    ], _complex_text),
)


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each verb's sub-parser, built once."""
    parser = argparse.ArgumentParser(
        prog="dreglex",
        description="Combinatorics of d-regular graded monomial ideals.",
    )
    parser.add_argument("--version", action="version", version=f"dreglex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, keywords, arguments, text in VERBS:
        p = sub.add_parser(name, **keywords)
        for argument in arguments:
            if isinstance(argument, list):
                group = p.add_mutually_exclusive_group(required=True)
                for flags, kwargs in argument:
                    group.add_argument(*flags, **kwargs)
            else:
                p.add_argument(*argument[0], **argument[1])
        p.set_defaults(text=text)
    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, verbs = _parsers()
    # before any "--" the top-level parser may read "--=..." (and, in some
    # Python versions, "-=...") as an ambiguous abbreviation of its own
    # options and fail on it, so such a command line goes through it
    head = argv[:argv.index("--")] if "--" in argv else argv
    if argv and argv[0] in verbs and not any(a.startswith(("-=", "--=")) for a in head):
        args, extras = verbs[argv[0]].parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    else:
        args = parser.parse_args(argv)
    try:
        text = args.text(args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except DregLexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
