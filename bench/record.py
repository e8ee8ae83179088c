"""Record the bench's candidate pool and its reference outcomes.

    python3 bench/record.py [--workload NAME ...]

Builds every slot's candidate inputs (workloads.py), runs each op once
through ``dreglex.cli.main`` at the current commit and stores its exit code
and the SHA-256 of its stdout in ``bench/pool.json``.  Slots with a ``band``
keep the six variants whose cost is nearest that quantile of the slot's
candidates; a cost is the fastest of seven runs, taken in rounds over all
candidates, so that a busy spell of the machine does not fall on one
candidate alone.

Ops that exit with ``CapExceeded`` are run again with a raised ``--cap``;
that output is the reference, so a later engine that answers them is checked,
not trusted.  ``hilb -t`` answers on squarefree ideals are cross-checked
against the f-vector of the Stanley-Reisner complex.  Slots without a band
reuse the references already in ``pool.json`` for identical ops, so adding a
slot does not rerun the raised-cap ops.  Re-recording is only needed when the
workloads change; a perf change must not re-record.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tempfile
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from dreglex.cli import main  # noqa: E402
from dreglex.ideals import parse_ideal  # noqa: E402
from dreglex.koszul import _lcm_lattice, koszul_betti  # noqa: E402
from dreglex.squarefree import complex_from_ideal, f_vector  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402

BAND_WIDTH = 6
RAISED_CAP = 2_000_000
COST_REPEATS = 7


def sr_ideal_hilbert(text: str, t: int) -> int:
    """dim I_t of a squarefree ideal from the f-vector of its Stanley-Reisner
    complex: H(S/I, t) = sum_i f_{i-1} C(t-1, i-1) for t >= 1."""
    I = parse_ideal(text)
    n = I.ring.num_vars
    f = f_vector(complex_from_ideal(I))
    quotient = sum(fi * comb(t - 1, i) for i, fi in enumerate(f))
    return comb(n + t - 1, n - 1) - quotient


def resolve(variant: dict, require: dict | None) -> dict | None:
    """Fill ``{reg}`` in the argv and apply the slot's input requirements;
    None drops the variant."""
    text = variant["input"]["text"] if variant["input"] else None
    argv = variant["argv"]
    if "{reg}" in argv or require:
        I = parse_ideal(text)
        if I.is_zero or I.is_unit:
            return None
    if "{reg}" in argv:
        reg = koszul_betti(I).regularity()
        if argv[0] == "sqdlex" and reg > I.ring.num_vars:
            return None
        argv = [str(reg) if a == "{reg}" else a for a in argv]
    if require:
        if require.get("backend") == "koszul" and (
            I.is_stable() or (I.is_squarefree and I.is_squarefree_strongly_stable())
        ):
            return None
        gens = tuple(g.exponents for g in I.gens)
        if len(_lcm_lattice(gens, RAISED_CAP)) < require.get("min_lattice", 0):
            return None
    return dict(variant, argv=argv)


def run_variant(variant: dict, workdir: Path) -> dict | None:
    argv = _argv(variant, workdir)
    gc.collect()  # as run.py does before every op
    code, out, elapsed, err = harness.run_op(main, argv)
    record = dict(variant, exit=code, sha256=harness.digest(out), cost_ms=round(elapsed / 1e6, 3))
    if code == 0:
        return record
    if "exceeds the cap" not in err and "> cap" not in err:
        print(f"  drop {' '.join(argv)}: exit {code}: {err.strip()[:120]}", flush=True)
        return None
    raised_code, raised_out, _, raised_err = harness.run_op(main, argv + ["--cap", str(RAISED_CAP)])
    if raised_code != 0:
        raise SystemExit(f"raised cap did not answer {argv}: {raised_err.strip()[:200]}")
    if argv[:2] == ["hilb", "-t"]:
        expected = sr_ideal_hilbert(variant["input"]["text"], int(argv[2]))
        if raised_out != f"{expected}\n":
            raise SystemExit(f"raised-cap answer {raised_out!r} disagrees with the f-vector value {expected}")
    record["sha256"] = harness.digest(raised_out)
    return record


def _argv(variant: dict, workdir: Path) -> list[str]:
    ops = harness.materialise([dict(variant, id="op", exit=None, sha256=None)], workdir)
    return ops[0]["full_argv"]


def time_rounds(records: list[dict], workdir: Path, timed: dict) -> None:
    """Bring every record to COST_REPEATS timed runs, one round over all of
    them at a time; ``cost_ms`` keeps the fastest."""
    while True:
        due = [r for r in records if timed[variant_key(r)] < COST_REPEATS]
        if not due:
            return
        for record in due:
            gc.collect()
            _, _, elapsed, _ = harness.run_op(main, _argv(record, workdir))
            record["cost_ms"] = min(record["cost_ms"], round(elapsed / 1e6, 3))
            timed[variant_key(record)] += 1


def variant_key(variant: dict) -> tuple:
    return tuple(variant["argv"]), json.dumps(variant["input"], sort_keys=True)


def record_slot(slot: dict, workdir: Path, measured: dict, previous: dict, timed: dict) -> dict:
    """Run a slot's variants (reusing ``measured`` results of slots that share
    candidates) and keep the usable ones, banded by cost if asked.  Unbanded
    slots reuse the references of ``previous`` (the pool recorded before)."""
    band = slot.get("band")
    kept = []
    for variant in slot["variants"]:
        key = variant_key(variant)
        if band is None and key in previous:
            measured[key] = previous[key]
        if key not in measured:
            resolved = resolve(variant, slot.get("require"))
            measured[key] = None if resolved is None else run_variant(resolved, workdir)
            timed[key] = 1
        if measured[key] is not None:
            kept.append(measured[key])
    if not kept:
        raise SystemExit(f"slot {slot['name']}: no usable variant")
    if band is not None:
        time_rounds(kept, workdir, timed)
        kept.sort(key=lambda v: v["cost_ms"])
        target = kept[round(band * (len(kept) - 1))]["cost_ms"]
        kept = sorted(kept, key=lambda v: abs(v["cost_ms"] - target))[:BAND_WIDTH]
    return {"name": slot["name"], "variants": kept}


def main_record(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WHY))
    args = parser.parse_args(argv)
    pool_path = HERE / "pool.json"
    pool = json.loads(pool_path.read_text()) if pool_path.exists() else {"workloads": {}}
    pool["pool_seed"] = workloads.POOL_SEED
    built = workloads.build_pool()
    measured: dict = {}
    timed: dict = {}
    previous = {variant_key(v): v for slots in pool["workloads"].values() for slot in slots for v in slot["variants"]}
    (HERE / "runs").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "runs") as tmp:
        for name in args.workload or sorted(built):
            slots = []
            for slot in built[name]:
                slots.append(record_slot(slot, Path(tmp), measured, previous, timed))
                costs = [v["cost_ms"] for v in slots[-1]["variants"]]
                print(f"{name} {slot['name']}: {len(costs)} variants, {min(costs):.1f}-{max(costs):.1f} ms", flush=True)
            pool["workloads"][name] = slots
            staged = pool_path.with_suffix(".tmp")
            staged.write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n")
            staged.replace(pool_path)  # a running bench never reads half a file
    return 0


if __name__ == "__main__":
    sys.exit(main_record())
