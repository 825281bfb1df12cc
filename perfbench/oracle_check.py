"""Shows that every oracle accepts the program's output and rejects a corrupted copy.

    python3 perfbench/oracle_check.py

Run from the repository root.  For one op per checker (and per output
format where the parsing differs), the real CLI output must pass, and
each deliberate corruption of it (a changed number, a dropped record,
an unknown verdict, an interval moved off the true sequence, a wrong
exit code, a traceback) must be rejected.  A violated verdict with
rho >= 0 and the in-process ledger checks get the same treatment.  Exits 1 if any corruption slips through
or any real output is rejected.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402

GOLDEN = (ROOT / "tests" / "golden" / "table1_gamma6_paper.md").read_text(encoding="utf-8")


def op(argv: str, fmt: str = "md", exit: int = 0, **extra) -> dict:
    words = argv.split()
    args = [int(w) for w in words[1:] if w.lstrip("-").isdigit()]
    return {"cmd": words[0], "argv": words + ["--format", fmt], "fmt": fmt, "exit": exit,
            "args": args, **extra}


def bump_last_int(text: str) -> str:
    """Add one to the last integer in the text."""
    match = list(re.finditer(r"-?\d+", text))[-1]
    return text[:match.start()] + str(int(match.group()) + 1) + text[match.end():]


def drop_last_record(text: str) -> str:
    if text.lstrip().startswith(("[", "{")):
        data = json.loads(text)
        if isinstance(data, dict):
            data["entries"].pop()
        else:
            data.pop()
        return json.dumps(data, indent=2) + "\n"
    lines = text.splitlines(keepends=True)
    return "".join(lines[:-1])


def unknown_verdict(text: str) -> str:
    return text.replace("holds", "maybe", 1)


def move_interval(text: str) -> str:
    """Shift the exact canonical entry d_{g-1} = 2g-2 up by one (md table)."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        cells = line.split(" | ")
        if "canonical" in line and cells[1] == cells[2]:
            cells[1] = cells[2] = str(int(cells[1]) + 1)
            lines[i] = " | ".join(cells)
            return "".join(lines)
    raise AssertionError("no exact canonical entry to corrupt")


def first_byte(text: str) -> str:
    return text.replace("trigonal", "Trigonal", 1)


CASES = [
    (op("profile 10 4"), [bump_last_int]),
    (op("profile 40 9", "json"), [bump_last_int]),
    (op("classify 13 5", "csv"), [drop_last_record, bump_last_int]),
    (op("embed 4 12 3"), [bump_last_int]),
    (op("embed 3 3 0", "json"), []),  # the known out-of-regime defect
    (op("bounds 2 12", family=("hyperelliptic", 12)), [drop_last_record, move_interval]),
    (op("bounds 6 15 --assume 3=12", family=("plane", 7), assume=[(3, 12)]),
     [drop_last_record, move_interval]),
    (op("bounds 6 15 --assume 3=19", exit=3, contradict=19, family=("plane", 7)), []),
    (op("slope 13 5", "json"), [drop_last_record]),
    (op("plane 7", "csv"), [drop_last_record, bump_last_int]),
    (op("plane 9 --r 5", "md", r=5), [bump_last_int]),
    (op("verylast 9"), [drop_last_record]),
    (op("verylast 9", "json"), [drop_last_record]),
    (op("table1 --gamma-max 6 --mode paper-faithful", gamma_max=6, mode="paper-faithful",
        golden=GOLDEN), [first_byte, drop_last_record]),
    (op("table1 --gamma-max 9 --mode resolved", "json", gamma_max=9, mode="resolved"),
     [drop_last_record]),
    (op("scan 3 12"), [drop_last_record, bump_last_int, unknown_verdict]),
    (op("scan 3 12", "csv"), [drop_last_record, bump_last_int, unknown_verdict]),
    (op("scan 3 12 --d-max 20", "json", args=[3, 12, 20]), [drop_last_record]),
    ({"cmd": "selfcheck", "argv": ["selfcheck"], "fmt": "md", "exit": 0}, [bump_last_int]),
    (op("profile 5 4", exit=2), []),
]


def check(case: dict, code: int, out: str, err: str) -> str | None:
    try:
        counts = oracles.check_cli(case, code, out, err)
        if case["cmd"] == "selfcheck":
            oracles.require(counts["checks"] == EXPECTED_CHECKS[0], "selfcheck count moved")
    except (oracles.Failure, ValueError, KeyError, IndexError) as exc:
        return str(exc) or type(exc).__name__
    return None


EXPECTED_CHECKS = [None]


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    bad = 0
    for case, corruptions in CASES:
        if case["cmd"] == "scan" and len(case["args"]) == 2:
            case["args"] = case["args"] + [None]
        proc = subprocess.run([sys.executable, "-m", "extremalcurves", *case["argv"]],
                              capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
        if case["cmd"] == "selfcheck":
            EXPECTED_CHECKS[0] = int(proc.stdout.split()[1])
        name = " ".join(case["argv"])
        verdict = check(case, proc.returncode, proc.stdout, proc.stderr)
        known = verdict is not None and verdict.startswith(oracles.KNOWN_DEFECTS)
        status = "accepts" if verdict is None else ("known defect" if known else "REJECTS")
        print(f"{status:12} {name}" + (f"  [{verdict}]" if verdict else ""))
        bad += verdict is not None and not known
        generic = [("exit code", proc.returncode + 1, proc.stdout, proc.stderr),
                   ("traceback", proc.returncode, proc.stdout,
                    proc.stderr + "Traceback (most recent call last):\n")]
        generic += [(fn.__name__, proc.returncode, fn(proc.stdout), proc.stderr)
                    for fn in corruptions]
        for label, code, out, err in generic:
            reason = check(case, code, out, err)
            print(f"  {'rejects' if reason else 'MISSES':10} {label}: {reason}")
            bad += reason is None
    # every extremal record in the scanned windows has rho < 0, so the
    # "violated => rho < 0" rule is shown on a made-up record
    try:
        oracles._check_scan_verdict("violated", (3, 7, 3, 0, 3, "type_ii", 3, 7))
        print("  MISSES     violated verdict with rho = 7")
        bad += 1
    except oracles.Failure as exc:
        print(f"  rejects    violated verdict with rho = 7: {exc}")
    bad += ledger_cases()
    print("all corruptions rejected" if not bad else f"{bad} problems")
    return 1 if bad else 0


def ledger_cases() -> int:
    """The in-process ledger checks on real results and on corrupted ones."""
    engine = workloads.LedgerEngine()
    bad = 0
    try:
        for family in (("hyperelliptic", 60), ("plane", 14), ("foursecant", 12)):
            gamma, g, seq = oracles.truth(*family)
            build = {"kind": "build", "family": family, "index": 0}
            outcome = engine.run(build)
            print(f"{'accepts' if outcome.failure is None else 'REJECTS':12} build {family}"
                  + (f"  [{outcome.failure}]" if outcome.failure else ""))
            bad += outcome.failure is not None
            led = engine.built[0].thaw()
            led._lo[g - 1] = led._hi[g - 1] = seq[g - 1] + 1  # off the canonical entry
            led.freeze()
            for kind, result in (("refine", led), ("contradict", engine.built[0])):
                case = {"kind": kind, "family": family, "index": 0,
                        "assume": (2, 2 * gamma + 1)}
                try:
                    pairs = [case["assume"]] if kind == "contradict" else []
                    engine._check(case, result, gamma, g, seq, pairs)
                    reason = None
                except oracles.Failure as exc:
                    reason = str(exc)
                print(f"  {'rejects' if reason else 'MISSES':10} {kind} corrupted: {reason}")
                bad += reason is None
    finally:
        engine.close()
    return bad


if __name__ == "__main__":
    sys.exit(main())
