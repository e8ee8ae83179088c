"""Workload definitions for the bench harness.

A workload is a list of slots.  A slot is one CLI operation of fixed shape
(verb, flags and the structure of its input); its variants differ only in the
input, drawn from a pool that is generated here from ``POOL_SEED``.  The run's
``--seed`` picks one variant per slot and the order of the ops, so a seed
changes the inputs the program sees but not how much work a pass holds.

``build_pool`` is used only by ``record.py``, which runs every variant once,
stores its reference outcome and writes ``pool.json``; ``run.py`` reads that
file and never imports this module.  The rationale of each workload is in
``WHY`` (one line, copied into BENCHMARK.json) and in README.md.
"""

from __future__ import annotations

import itertools
import random

POOL_SEED = 20061102

WHY = {
    "paper": "the paper's worked examples and criterion-6/7-size seeded ideals: "
    "2-15 ms ops (one 70 ms lex) where CLI, parsing, formatting and dispatch overhead shows",
    "hilbert-lex": "small rings at high degree: Hilbert counting, slice enumeration, "
    "lex prefixes and Macaulay growth; the Koszul oracle is never called",
    "oracle": "Koszul oracle on edge ideals and one-degree ideals with 100-250 point "
    "lcm lattices; no Hilbert counting or lexsegment enumeration",
}

# -- fixed inputs from the paper ------------------------------------------------

RUNNING = "n=4\nx1*x2\nx3*x4\n"
SECTION4 = "n=6\nx1*x3*x5\nx1*x3*x6\nx1*x4*x6\nx2*x4*x6\n"
SECTION5 = "n=5\nx1^2\nx1*x2\nx1*x3\nx1*x4\nx2^2\nx2*x3^3\nx3^4\n"
# the second ideal of the section-5 counterexample (same Hilbert function)
SECTION5_TWIN = "n=5\nx1^2\nx1*x2\nx1*x3\nx1*x4\nx1*x5\nx2^3\nx2^2*x3\nx2*x3^2\nx3^4\n"
# dlex outputs of the running example and sqdlex/sqlex outputs of section 4
RUNNING_DLEX = {
    3: "n=4\nx1^2\nx1*x2\nx2^3\n",
    4: "n=4\nx1^2\nx1*x2\nx1*x3^2\nx2^4\n",
    5: "n=4\nx1^2\nx1*x2\nx1*x3^2\nx1*x3*x4^2\nx2^5\nx2^4*x3\n",
}
SECTION4_SQ = {
    "d3": "n=6\nx1*x2*x3\nx1*x2*x4\nx1*x3*x4\nx2*x3*x4\n",
    "d4": "n=6\nx1*x2*x3\nx1*x2*x4\nx1*x2*x5\nx1*x2*x6\nx1*x3*x4*x5\nx1*x3*x4*x6\nx2*x3*x4*x5\n",
    "lex": "n=6\nx1*x2*x3\nx1*x2*x4\nx1*x2*x5\nx1*x2*x6\nx1*x3*x4*x5\nx1*x3*x4*x6\n"
    "x1*x3*x5*x6\nx2*x3*x4*x5*x6\n",
}
SECTION5_LEXAREA = (
    "n=5\nx1^2\nx1*x2\nx1*x3\nx1*x4\nx1*x5\nx2^3\nx2^2*x3\nx2^2*x4\nx2*x3^3\nx3^4\n"
)
AREA_TWO_CORNERS = "(2,4);(4,2)"
AREA_HULL = "(2,4);(3,3);(4,2)"
# Hilbert function of the running example through degree d + n - 1 = 6
RUNNING_HILBERT = "n=4 role=ideal\n0\n0\n2\n8\n19\n36\n60\n"
# Stanley-Reisner complexes of the running example and of section 4
RUNNING_COMPLEX = "vertices=4\n1,3\n1,4\n2,3\n2,4\n"
SECTION4_COMPLEX = "vertices=6\n1,2,3,4\n1,2,4,5\n1,2,5,6\n2,3,4,5\n2,3,5,6\n3,4,5,6\n"
STABLE_DEG2 = "n=4\nx1^2\nx1*x2\nx1*x3\nx2^2\n"


def _fixed(argv, kind=None, text=None):
    return [{"argv": list(argv), "input": None if kind is None else {"kind": kind, "text": text}}]


def paper_fixed_slots():
    """The worked examples, driven as tests/test_acceptance.py criteria 1-5
    drive them."""
    slots = []

    def add(name, argv, kind=None, text=None):
        slots.append({"name": name, "variants": _fixed(argv, kind, text)})

    for d in (3, 4, 5):
        add(f"running-dlex-{d}", ["dlex", "-d", str(d)], "ideal", RUNNING)
        add(f"running-dlex-{d}-ek", ["betti", "--method", "ek"], "ideal", RUNNING_DLEX[d])
    add("running-reg-range", ["reg-range"], "ideal", RUNNING)
    add("running-koszul", ["betti", "--method", "koszul"], "ideal", RUNNING)
    add("running-characterize-3", ["characterize", "-d", "3"], "hilbert", RUNNING_HILBERT)
    add("running-characterize-3-exact", ["characterize", "-d", "3", "--exact"], "hilbert", RUNNING_HILBERT)
    add("running-characterize-2", ["characterize", "-d", "2"], "hilbert", RUNNING_HILBERT)
    add("s4-sqdlex-3", ["sqdlex", "-d", "3"], "ideal", SECTION4)
    add("s4-sqdlex-4", ["sqdlex", "-d", "4"], "ideal", SECTION4)
    add("s4-sqlex", ["sqlex"], "ideal", SECTION4)
    for key, text in SECTION4_SQ.items():
        add(f"s4-{key}-auto", ["betti", "--method", "auto"], "ideal", text)
    add("s4-d3-lseq-star", ["lseq", "--star"], "ideal", SECTION4_SQ["d3"])
    add("s4-d3-phi-inv", ["phi-inv"], "ideal", SECTION4_SQ["d3"])
    add("s5-area-conv", ["area", "conv", AREA_TWO_CORNERS])
    add("s5-area-check", ["area", "check", AREA_HULL])
    add("s5-lexarea", ["lexarea", "--area", AREA_HULL], "ideal", SECTION5)
    add("s5-lexarea-ek", ["betti", "--method", "ek"], "ideal", SECTION5_LEXAREA)
    add("s5-lex", ["lex"], "ideal", SECTION5)
    for name, text in (("s5", SECTION5), ("s5twin", SECTION5_TWIN)):
        for method in ("auto", "ek", "degreewise"):
            add(f"{name}-betti-{method}", ["betti", "--method", method], "ideal", text)
        add(f"{name}-hilb", ["hilb", "--through", "10"], "ideal", text)
    add("deg2-lseq", ["lseq"], "ideal", STABLE_DEG2)
    add("deg2-phi", ["phi"], "ideal", STABLE_DEG2)
    add("deg2-phi-tilde", ["phi-tilde"], "ideal", STABLE_DEG2)
    for name, text in (("running", RUNNING_COMPLEX), ("s4", SECTION4_COMPLEX)):
        for action in ("fvec", "hvec", "dual", "sr", "cm"):
            add(f"{name}-complex-{action}", ["complex", action], "complex", text)
    return slots


# -- seeded input generators ------------------------------------------------------


def format_ideal_text(n, exps):
    lines = [f"n={n}"]
    for e in sorted(set(exps), key=lambda e: (sum(e), tuple(-x for x in e))):
        parts = [f"x{i}" if v == 1 else f"x{i}^{v}" for i, v in enumerate(e, start=1) if v]
        lines.append("*".join(parts) if parts else "1")
    return "\n".join(lines) + "\n"


def minimal(exps):
    """Divisibility-minimal subset of exponent vectors."""
    out = []
    for e in sorted(set(exps), key=sum):
        if not any(all(a <= b for a, b in zip(g, e)) for g in out):
            out.append(e)
    return out


def random_monomial(rng, n, d):
    e = [0] * n
    for _ in range(d):
        e[rng.randrange(n)] += 1
    return tuple(e)


def random_squarefree(rng, n, d):
    e = [0] * n
    for i in rng.sample(range(n), d):
        e[i] = 1
    return tuple(e)


def exchange_closure(seeds, squarefree):
    """Closure under the moves x_q -> x_p (p < q); squarefree moves only
    land outside the support."""
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        e = frontier.pop()
        for q in range(len(e)):
            if not e[q]:
                continue
            for p in range(q):
                if squarefree and e[p]:
                    continue
                f = list(e)
                f[q] -= 1
                f[p] += 1
                f = tuple(f)
                if f not in seen:
                    seen.add(f)
                    frontier.append(f)
    return seen


def strongly_stable_ideal(rng, n, dmax):
    gens = []
    for _ in range(2):
        d = rng.randint(1, dmax)
        gens.extend(exchange_closure([random_monomial(rng, n, d) for _ in range(rng.randint(1, 2))], False))
    return format_ideal_text(n, minimal(gens))


def sq_strongly_stable_ideal(rng, n, dmax, parts=2):
    gens = []
    for _ in range(parts):
        d = rng.randint(1, min(dmax, n))
        gens.extend(exchange_closure([random_squarefree(rng, n, d) for _ in range(rng.randint(1, 2))], True))
    return format_ideal_text(n, minimal(gens))


def random_ideal(rng, n, dmax, count=3):
    return format_ideal_text(n, minimal(random_monomial(rng, n, rng.randint(1, dmax)) for _ in range(count)))


def random_squarefree_ideal(rng, n, dmax, count=3):
    gens = (random_squarefree(rng, n, rng.randint(1, min(dmax, n))) for _ in range(count))
    return format_ideal_text(n, minimal(gens))


def edge_ideal(rng, n, m):
    pairs = rng.sample(list(itertools.combinations(range(n), 2)), m)
    exps = []
    for a, b in pairs:
        e = [0] * n
        e[a] = e[b] = 1
        exps.append(tuple(e))
    return format_ideal_text(n, exps)


def one_degree_ideal(rng, n, d, m):
    gens = set()
    while len(gens) < m:
        gens.add(random_monomial(rng, n, d))
    return format_ideal_text(n, gens)


def permuted(rng, text):
    """The same ideal with its variables relabelled; the Hilbert function,
    and so the Lex output, is unchanged."""
    lines = text.strip().splitlines()
    n = int(lines[0][2:])
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    exps = []
    for line in lines[1:]:
        e = [0] * n
        for factor in line.split("*"):
            var, _, power = factor.partition("^")
            e[perm[int(var[1:]) - 1] - 1] += int(power or 1)
        exps.append(tuple(e))
    return format_ideal_text(n, exps)


def count_gens(text):
    return len(text.strip().splitlines()) - 1


# -- slot builders ----------------------------------------------------------------


def seeded_slot(name, argv, make, count, key=None, band=None, require=None):
    """A slot whose variants are inputs drawn from ``make(rng)``.

    ``key`` names the random stream, so slots that share a key share their
    candidate inputs.  ``band`` asks record.py to keep the variants nearest
    that quantile of the measured cost, and ``require`` lists input properties
    record.py checks (``koszul`` backend, ``min_lattice`` points).  An argv
    entry ``{reg}`` is replaced by the input's regularity at record time.
    Inputs with few distinct relabellings yield fewer than ``count`` variants.
    """
    rng = random.Random(f"{POOL_SEED}:{key or name}")
    texts: list[str] = []
    for _ in range(200 * count):
        if len(texts) == count:
            break
        text = make(rng)
        if text is not None and text not in texts:
            texts.append(text)
    slot = {
        "name": name,
        "variants": [{"argv": list(argv), "input": {"kind": "ideal", "text": t}} for t in texts],
    }
    if band is not None:
        slot["band"] = band
    if require:
        slot["require"] = require
    return slot


def _with_gens(make, k):
    def draw(rng):
        text = make(rng)
        return text if count_gens(text) == k else None

    return draw


def paper_seeded_slots(candidates=24):
    """Seeded small ideals at the criterion 6/7 sizes (n <= 6, degree <= 4):
    closed forms against the oracle, Lex and d-lex of random ideals."""
    kinds = [
        ("ss", lambda rng: strongly_stable_ideal(rng, rng.randint(2, 4), 4),
         [["betti", "--method", "auto"], ["betti", "--method", "koszul"], ["betti", "--method", "degreewise"]]),
        ("sqss", lambda rng: sq_strongly_stable_ideal(rng, rng.randint(3, 6), 4),
         [["betti", "--method", "auto"], ["betti", "--method", "koszul"], ["betti", "--method", "sq-degreewise"]]),
        ("mono", lambda rng: random_ideal(rng, rng.randint(2, 4), 3),
         [["lex"], ["betti", "--method", "auto"], ["dlex", "-d", "{reg}"]]),
        ("sqfree", lambda rng: random_squarefree_ideal(rng, rng.randint(3, 6), 3),
         [["sqlex"], ["sqdlex", "-d", "{reg}"]]),
    ]
    slots = []
    for kind, make, argvs in kinds:
        for k in range(5):
            for argv in argvs:
                label = "-".join(a.strip("-{}") for a in argv)
                slots.append(seeded_slot(f"seeded-{kind}{k}-{label}", argv, make, candidates,
                                         key=f"paper-{kind}{k}", band=0.5))
    return slots


HILB = ["hilb", "--through", "12"]


def _distinct(name, slots):
    """A shape listed more than once gets one slot per listing, each with its
    own inputs."""
    taken = sum(1 for slot in slots if slot["name"] == name or slot["name"].startswith(name + "-"))
    return name if not taken else f"{name}-{chr(ord('a') + taken)}"


def hilbert_lex_slots(candidates=16):
    """A pass takes about 1.2 s of CPU, so a run times every op twenty to
    thirty times, often enough for its fastest sample to settle.
    Seeded slots keep the variants nearest the median cost of their
    candidates, so a seed changes the inputs but hardly the work.  Most ops
    take 15-60 ms, so the median and the p75 op sit among
    inclusion-exclusion ops of similar cost."""
    slots = []
    # inclusion-exclusion path (at most 20 generators, cost about 2^generators):
    # edge ideals and squarefree strongly stable ideals in 7 variables
    for n, m in ((8, 12), (8, 12), (8, 12), (9, 12), (9, 12), (9, 12), (10, 12), (10, 12), (10, 12),
                 (8, 13), (8, 13), (8, 13), (9, 13), (9, 13), (9, 13), (10, 13), (10, 13), (10, 13),
                 (8, 14), (9, 14)):
        name = _distinct(f"ie-edge-n{n}-m{m}", slots)
        slots.append(seeded_slot(name, HILB, lambda rng, n=n, m=m: edge_ideal(rng, n, m), candidates,
                                 band=0.5))
    for k in (12, 12, 12, 13, 13, 13, 14):
        name = _distinct(f"ie-sqss-n7-g{k}", slots)
        make = _with_gens(lambda rng: sq_strongly_stable_ideal(rng, 7, 4, parts=3), k)
        slots.append(seeded_slot(name, HILB, make, candidates, band=0.5))
    # slice-enumeration path: more than 20 generators; through degree 7 the
    # path is the same as through 12 at a small part of the cost
    slots.append(seeded_slot("slice-edge-n8-m23", ["hilb", "--through", "7"],
                             lambda rng: edge_ideal(rng, 8, 23), candidates, band=0.5))
    # the failure class: degree 21 in 8 variables is above the default cap
    for m in (21, 24, 26, 27):
        slots.append(seeded_slot(f"cap-edge-n8-m{m}", ["hilb", "-t", "21"],
                                 lambda rng, m=m: edge_ideal(rng, 8, m), 4))
    # Lex of non-stable ideals reaching degree 8-17, relabelled per variant
    for name, text in (
        ("cubic-n4", "n=4\nx1^3\nx1^2*x2\nx2^4\n"),
        ("s5", SECTION5),
        ("sq-cubes-n4", "n=4\nx1^2\nx2^3\nx3^3\n"),
        ("running-n5", "n=5\nx1*x2\nx3*x4\n"),
        ("mixed-n4", "n=4\nx2^2\nx1*x3\nx4^3\n"),
    ):
        slots.append(seeded_slot(f"lex-{name}", ["lex"], lambda rng, text=text: permuted(rng, text), candidates,
                                 band=0.5))
    # reg-range on stable inputs: closed-form Hilbert path, full predicate
    # scans, lexify and one lexd per regularity
    for name, text in (
        ("x1sq-x1x2-x2sq-n5", "n=5\nx1^2\nx1*x2\nx2^2\n"),
        ("x1sq-x1x2-x1x3-x2cube-n5", "n=5\nx1^2\nx1*x2\nx1*x3\nx2^3\n"),
        ("x1sq-x1x2-x2cube-n4", "n=4\nx1^2\nx1*x2\nx2^3\n"),
    ):
        slots.append({"name": f"reg-range-{name}", "variants": _fixed(["reg-range"], "ideal", text)})
    return slots


def oracle_slots(candidates=48):
    """Edge ideals in 9-10 variables and one-degree ideals in 5-6 variables,
    every lcm lattice at least 100 points.  Each input shape is banded at
    one or more cost quantiles, so lattice sizes keep their spread inside a
    pass but hardly change across seeds.  A pass takes about 1.3 s of CPU,
    so a run times every op twenty times or more.  The op costs form two
    clusters: 26 ops on one-degree ideals in 5 variables (about 15-25 ms)
    hold the median, and 10 ops on 9-variable edge ideals and 6-variable
    one-degree ideals (about 30-60 ms) hold the p75, so neither sits on the
    step between two clusters."""
    koszul_only = {"backend": "koszul", "min_lattice": 100}
    shapes = [
        ("onedeg-n5-d3-m12", lambda rng: one_degree_ideal(rng, 5, 3, 12),
         (0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9)),
        ("onedeg-n5-d3-m13", lambda rng: one_degree_ideal(rng, 5, 3, 13), (0.25,)),
        ("onedeg-n5-d3-m14", lambda rng: one_degree_ideal(rng, 5, 3, 14), (0.25,)),
        ("onedeg-n6-d3-m12", lambda rng: one_degree_ideal(rng, 6, 3, 12), (0.5,)),
        ("edge-n9-m10", lambda rng: edge_ideal(rng, 9, 10), (0.25,)),
        ("edge-n9-m11", lambda rng: edge_ideal(rng, 9, 11), (0.1,)),
        ("edge-n9-m12", lambda rng: edge_ideal(rng, 9, 12), (0.1, 0.25)),
        ("edge-n9-m13", lambda rng: edge_ideal(rng, 9, 13), (0.1,)),
        ("edge-n10-m12", lambda rng: edge_ideal(rng, 10, 12), (0.1,)),
    ]
    slots = []
    for shape, make, quantiles in shapes:
        for q in quantiles:
            for method in ("koszul", "auto"):
                slots.append(seeded_slot(f"{shape}-q{int(q * 100)}-{method}", ["betti", "--method", method],
                                         make, candidates, key=shape, band=q, require=koszul_only))
    return slots


def build_pool():
    """Every workload's slots with all candidate variants, before record.py
    filters and bands them."""
    return {
        "paper": paper_fixed_slots() + paper_seeded_slots(),
        "hilbert-lex": hilbert_lex_slots(),
        "oracle": oracle_slots(),
    }
