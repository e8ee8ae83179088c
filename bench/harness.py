"""Pure pieces of the bench harness: running one op in process, checking it
against its reference, choosing the op list from a seed, and the statistics
the end-to-end metrics are made of.  run.py and record.py build on these;
tests/test_harness.py exercises them without the program under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import resource
import time
import traceback
from pathlib import Path

# Candidate percentiles for the tail metric, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cpu_ns() -> int:
    """CPU time of this process, all its threads, and its children that
    have been waited for.

    An op is timed by the CPU time it uses, not by the wall clock.  The op
    runs in one thread and reads one small input file, so on an idle machine
    the two agree; on a host shared with other tenants the wall clock also
    counts the time the host gives to someone else.  Counting child
    processes keeps work moved into a process pool on the bill.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + round((children.ru_utime + children.ru_stime) * 1e9)


def run_op(main, argv: list[str]) -> tuple[int, str, int, str]:
    """Call ``main(argv)`` with stdout and stderr captured.

    Returns (exit code, stdout, CPU time in ns of the call, stderr).  An
    argparse exit becomes its code; an uncaught exception becomes exit 1,
    as it would for ``python -m dreglex.cli``, with the traceback as stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = cpu_ns()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crash is an op outcome here
            code = 1
            err.write(traceback.format_exc())
        elapsed = cpu_ns() - start
    return code, out.getvalue(), elapsed, err.getvalue()


def outcome(op: dict, code: int, stdout: str) -> str:
    """'ok', 'failed' (non-zero exit: counts toward fail_ratio) or 'wrong'
    (exit 0 with output other than the reference: fails the whole run)."""
    if code != 0:
        return "failed"
    return "ok" if digest(stdout) == op["sha256"] else "wrong"


def fail_ratio(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted


def median(values) -> float:
    s = sorted(values)
    if not s:
        raise ValueError("median of no values")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no values")
    pos = (len(s) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least TAIL_MIN_BEYOND samples
    beyond it among ``count`` samples."""
    fits = [p for p in TAIL_LADDER if round(count * (100.0 - p) / 100.0, 9) >= TAIL_MIN_BEYOND]
    if not fits:
        raise ValueError(f"{count} samples leave no percentile with {TAIL_MIN_BEYOND} beyond it")
    return fits[-1]


def select_ops(slots: list[dict], workload: str, seed: int) -> list[dict]:
    """One variant per slot and a shuffled order, both from the seed.  The
    same seed always gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for index, slot in enumerate(slots):
        variant = slot["variants"][rng.randrange(len(slot["variants"]))]
        ops.append(dict(variant, id=f"{index:03d}-{slot['name']}"))
    rng.shuffle(ops)
    return ops


INPUT_SUFFIX = {"ideal": ".ideal", "hilbert": ".hilb", "complex": ".cx"}


def materialise(ops: list[dict], rundir: Path) -> list[dict]:
    """Put every op's input file under ``rundir/inputs`` and the replay list
    in ``rundir/ops.txt``; return the ops with their full argv."""
    inputs = rundir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    lines = ["# replay one op from the repository root: PYTHONPATH=src python -m dreglex.cli <argv>"]
    out = []
    for op in ops:
        argv = list(op["argv"])
        if op["input"] is not None:
            path = inputs / (op["id"] + INPUT_SUFFIX[op["input"]["kind"]])
            _put(path, op["input"]["text"])
            argv.append(path.as_posix())
        out.append(dict(op, full_argv=argv))
        lines.append(f"{op['id']}\texit={op['exit']}\tsha256={op['sha256']}\t" + " ".join(_quote(a) for a in argv))
    _put(rundir / "ops.txt", "\n".join(lines) + "\n")
    return out


def _put(path: Path, text: str) -> None:
    """Write ``text`` unless the file already holds it, so repeated set-ups
    do not time the disk."""
    if not path.is_file() or path.read_text(encoding="utf-8") != text:
        path.write_text(text, encoding="utf-8")


def _quote(arg: str) -> str:
    return f"'{arg}'" if any(c in arg for c in " ;()*^") else arg
