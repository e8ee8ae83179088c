"""Per-layer tracing for the bench's traced run.

Wrappers are installed around the public functions of each dreglex module
from outside the program: the original function is replaced on its module
(or class) and in every dreglex module that imported it by name, so calls
through ``from .monomials import lex_prefix`` are seen as well.  A target the
program no longer has is reported as absent, not as an error.

Each wrapper records a span (group, function, start, end) on a stack.  A
span's self time is its duration minus the part of it that its direct child
spans cover; counters (monomials returned, matrix cells, ...) are read from
arguments and results at the same boundaries.  Nothing is installed in an
untraced run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# metric group -> wrapped targets, "module:attribute" or "module:Class.method"
GROUPS = {
    "cli.main": ["cli:main"],
    "cli.parse": ["ideals:parse_ideal", "macaulay:parse_hilbert", "squarefree:parse_complex",
                  "areas:parse_area", "monomials:parse_monomial"],
    "cli.format": ["ideals:format_ideal", "macaulay:format_hilbert", "squarefree:format_complex",
                   "areas:format_area", "monomials:format_monomial",
                   "betti:BettiDiagram.format_table", "betti:BettiDiagram.format_triples"],
    "monomials.enumerate_degree": ["monomials:enumerate_degree"],
    "monomials.lex_prefix": ["monomials:lex_prefix"],
    "macaulay.up": ["macaulay:up", "macaulay:down", "macaulay:macaulay_rep"],
    "ideals.construct": ["ideals:minimalize"],
    "ideals.hilbert": ["ideals:MonomialIdeal.hilbert"],
    "ideals.degree_slice": ["ideals:MonomialIdeal.degree_slice"],
    "ideals.predicates": ["ideals:MonomialIdeal.is_stable", "ideals:MonomialIdeal.is_strongly_stable",
                          "ideals:MonomialIdeal.is_squarefree_strongly_stable",
                          "ideals:MonomialIdeal.is_lexsegment"],
    "ideals.lexify": ["ideals:lexify"],
    "betti.closed_form": ["betti:ek_betti", "betti:ahh_betti", "betti:degreewise_diagram"],
    "koszul.koszul_betti": ["koszul:koszul_betti"],
    "koszul.exact_rank": ["koszul:exact_rank"],
    "dlex.betti_auto": ["dlex:betti_auto"],
    "dlex.lexd": ["dlex:lexd"],
    "dlex.dlinear_lex_from_l": ["dlex:dlinear_lex_from_l"],
    "squarefree.sq_lexd": ["squarefree:sq_lexd"],
    "squarefree.complex": ["squarefree:" + f for f in ("f_vector", "h_vector", "alexander_dual",
                                                       "stanley_reisner", "complex_from_ideal",
                                                       "eagon_reiner_cm")],
    "areas.lex_i_a": ["areas:lex_i_a"],
}
MODULES = ("cli", "monomials", "macaulay", "ideals", "betti", "koszul", "dlex", "squarefree", "areas")
# the first of these called directly under betti_auto is the backend that answered
BACKENDS = {"ek_betti": "ek", "ahh_betti": "ahh", "koszul_betti": "koszul"}

# (metric, unit, group it is read from); a metric is absent with its group
METRICS = [
    ("cli.main.self_ms", "ms", "cli.main"),
    ("cli.parse.self_ms", "ms", "cli.parse"),
    ("cli.format.self_ms", "ms", "cli.format"),
    ("monomials.enumerate_degree.calls", "count", "monomials.enumerate_degree"),
    ("monomials.enumerate_degree.self_ms", "ms", "monomials.enumerate_degree"),
    ("monomials.enumerated", "count", "monomials.enumerate_degree"),
    ("monomials.lex_prefix.calls", "count", "monomials.lex_prefix"),
    ("monomials.lex_prefix.self_ms", "ms", "monomials.lex_prefix"),
    ("monomials.lex_prefix.members", "count", "monomials.lex_prefix"),
    ("macaulay.up.calls", "count", "macaulay.up"),
    ("macaulay.up.self_ms", "ms", "macaulay.up"),
    ("ideals.construct.calls", "count", "ideals.construct"),
    ("ideals.construct.gens_in", "count", "ideals.construct"),
    ("ideals.construct.self_ms", "ms", "ideals.construct"),
    ("ideals.hilbert.calls", "count", "ideals.hilbert"),
    ("ideals.hilbert.self_ms", "ms", "ideals.hilbert"),
    ("ideals.degree_slice.calls", "count", "ideals.degree_slice"),
    ("ideals.degree_slice.self_ms", "ms", "ideals.degree_slice"),
    ("ideals.predicates.calls", "count", "ideals.predicates"),
    ("ideals.predicates.self_ms", "ms", "ideals.predicates"),
    ("ideals.lexify.self_ms", "ms", "ideals.lexify"),
    ("ideals.lexify.useful_ratio", "ratio", "ideals.lexify"),
    ("betti.closed_form.calls", "count", "betti.closed_form"),
    ("betti.closed_form.self_ms", "ms", "betti.closed_form"),
    ("koszul.koszul_betti.calls", "count", "koszul.koszul_betti"),
    ("koszul.koszul_betti.self_ms", "ms", "koszul.koszul_betti"),
    ("koszul.exact_rank.calls", "count", "koszul.exact_rank"),
    ("koszul.exact_rank.self_ms", "ms", "koszul.exact_rank"),
    ("koszul.matrix_cells", "count", "koszul.exact_rank"),
    ("dlex.betti_auto.calls", "count", "dlex.betti_auto"),
    ("dlex.betti_auto.backend_ek", "count", "dlex.betti_auto"),
    ("dlex.betti_auto.backend_ahh", "count", "dlex.betti_auto"),
    ("dlex.betti_auto.backend_koszul", "count", "dlex.betti_auto"),
    ("dlex.lexd.self_ms", "ms", "dlex.lexd"),
    ("dlex.dlinear_lex_from_l.self_ms", "ms", "dlex.dlinear_lex_from_l"),
    ("squarefree.sq_lexd.self_ms", "ms", "squarefree.sq_lexd"),
    ("squarefree.complex.self_ms", "ms", "squarefree.complex"),
    ("areas.lex_i_a.self_ms", "ms", "areas.lex_i_a"),
]


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    """Span stack plus per-group call counts, self times and counters."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stack: list[list] = []
        self.lexify_depth = 0
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()

    def enter(self, group: str, name: str) -> list:
        frame = [group, name, self.clock(), [], None]  # children, backend
        self.stack.append(frame)
        if group == "ideals.lexify":
            self.lexify_depth += 1
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        if self.stack.pop() is not frame:
            raise RuntimeError("span closed out of order")
        group, name, start, children, backend = frame
        self.calls[group] += 1
        self.self_ns[group] += (end - start) - covered_ns(children, start, end)
        if self.stack:
            parent = self.stack[-1]
            parent[3].append((start, end))
            if parent[0] == "dlex.betti_auto" and parent[4] is None and name in BACKENDS:
                parent[4] = BACKENDS[name]
        if group == "dlex.betti_auto" and backend is not None:
            self.counts[f"dlex.betti_auto.backend_{backend}"] += 1
        if group == "ideals.lexify":
            self.lexify_depth -= 1

    def take(self) -> dict:
        """The totals since the last take, then start afresh."""
        snap = {"calls": dict(self.calls), "self_ns": dict(self.self_ns), "counts": dict(self.counts)}
        self.reset()
        return snap


def _count_result(tracer: Tracer, name: str, args, result) -> None:
    counts = tracer.counts
    if name == "enumerate_degree":
        counts["monomials.enumerated"] += len(result)
    elif name == "lex_prefix":
        counts["monomials.lex_prefix.members"] += len(result)
        if tracer.lexify_depth:
            counts["lexify.prefix_members"] += len(result)
    elif name == "lexify":
        counts["lexify.gens"] += len(result.gens)
    elif name == "exact_rank":
        rows = args[0]
        counts["koszul.matrix_cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _wrap(tracer: Tracer, fn, group: str, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(group, name)
        try:
            if name == "minimalize":
                # materialise the generator iterable (minimalize copies it into
                # a set anyway) so the generators going in can be counted
                args = (args[0], tuple(args[1]), *args[2:])
                tracer.counts["ideals.construct.gens_in"] += len(args[1])
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        _count_result(tracer, name, args, result)
        return result

    return wrapper


class Installation:
    """The wrappers in place: which targets were wrapped or absent, and how
    to put the originals back."""

    def __init__(self, groups: dict):
        self.groups = groups
        self.patches: list[tuple[object, str, object]] = []
        self.status: dict[str, str] = {}

    def absent_groups(self) -> set[str]:
        return {g for g, targets in self.groups.items() if all(self.status[t] == "absent" for t in targets)}

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(tracer: Tracer, package: str = "dreglex", groups: dict | None = None) -> Installation:
    groups = GROUPS if groups is None else groups
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    inst = Installation(groups)
    for group, targets in groups.items():
        for target in targets:
            modname, _, path = target.partition(":")
            owner = sys.modules.get(f"{package}.{modname}")
            *outer, leaf = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = vars(owner).get(leaf) if owner is not None else None
            if not callable(original):
                inst.status[target] = "absent"
                continue
            wrapper = _wrap(tracer, original, group, leaf)
            inst.patches.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)
            if not outer:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            inst.patches.append((module, key, original))
                            setattr(module, key, wrapper)
            inst.status[target] = "wrapped"
    return inst


def layer_metrics(snap: dict, absent: set[str]) -> dict[str, float | None]:
    """Every METRICS value for one traced pass; None marks an absent one."""
    calls, self_ns, counts = snap["calls"], snap["self_ns"], snap["counts"]
    out: dict[str, float | None] = {}
    for name, unit, group in METRICS:
        if group in absent:
            out[name] = None
        elif name.endswith(".self_ms"):
            out[name] = self_ns.get(group, 0) / 1e6
        elif name.endswith(".calls"):
            out[name] = calls.get(group, 0)
        elif name == "ideals.lexify.useful_ratio":
            materialised = counts.get("lexify.prefix_members", 0)
            out[name] = counts.get("lexify.gens", 0) / materialised if materialised else 0.0
        else:
            out[name] = counts.get(name, 0)
    return out


def module_shares(snap: dict) -> dict[str, float]:
    """Each module's share of the total self time; a group belongs to the
    module its name starts with."""
    total = sum(snap["self_ns"].values())
    shares = dict.fromkeys(MODULES, 0.0)
    for group, ns in snap["self_ns"].items():
        shares[group.split(".")[0]] += ns / total
    return shares
