"""Acceptance suite: one test per advertised guarantee.

Every numeric comparison is exact integer equality; there are no
tolerances to tune.  Timed criteria run once untimed to warm caches and
bytecode, then once against a wall-clock budget.  Each criterion appends
one PASS/FAIL line to ``REPORT_LINES``; the terminal summary hook in
``conftest.py`` prints the collected report after the run.
"""

import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import pytest

from extremalcurves import (
    ContradictionError,
    Status,
    apply_extremal_facts,
    baseline_ledger,
    brill_noether,
    classify_extremal,
    expected_status,
    plane_curve_gonality,
    profile,
    row_models,
    scan,
    slope_verdict,
    table1,
    verylast_sequence,
    with_assumptions,
)
from extremalcurves.cli import run as cli_run
from extremalcurves.selfcheck import (
    band_verdicts,
    boundary_verdicts,
    classified_classes,
    embedding,
    foursecant_sweep,
    genus_closed_form,
    plane_sequences,
    tally,
)

GOLDEN = Path(__file__).parent / "golden" / "table1_gamma6_paper.md"

REPORT_LINES = []


def criterion(num, label, budget_ms=None, warmup=True):
    """Run the check, enforce its budget, and record one report line."""

    def wrap(fn):
        def runner():
            finished = False
            try:
                if warmup:
                    fn()
                start = perf_counter()
                fn()
                elapsed = (perf_counter() - start) * 1e3
                finished = True
            finally:
                if not finished:
                    REPORT_LINES.append(f"FAIL criterion {num:2d}: {label}")
            if budget_ms is None:
                REPORT_LINES.append(
                    f"PASS criterion {num:2d}: {label} (exact; untimed)"
                )
                return
            if elapsed > budget_ms:
                REPORT_LINES.append(
                    f"FAIL criterion {num:2d}: {label}"
                    f" ({elapsed:.3f} ms over the {budget_ms} ms budget)"
                )
                raise AssertionError(
                    f"criterion {num}: {elapsed:.3f} ms exceeds {budget_ms} ms"
                )
            REPORT_LINES.append(
                f"PASS criterion {num:2d}: {label}"
                f" (exact; {elapsed:.3f} ms, budget {budget_ms} ms)"
            )

        runner.__name__ = fn.__name__
        runner.__doc__ = fn.__doc__
        return runner

    return wrap


def smoothable_grid():
    """(gamma, lam, n) classes, smoothable and under the genus hypothesis."""
    for n in range(11):
        for gamma in range(3, 9):
            floor = max(gamma * n if n >= 1 else gamma,
                        -(-(gamma * (gamma + n - 2)) // 2))
            for lam in range(floor, floor + 5):
                yield gamma, lam, n


@criterion(1, "profile and fourgonal verdict at (10, 4)", budget_ms=1.0)
def test_criterion_01():
    prof = profile(10, 4)
    assert (prof.m, prof.eps, prof.pi) == (3, 0, 9)
    model = [m for m in classify_extremal(10, 4) if m.gamma == 4][0]
    verdict = slope_verdict(model)
    assert verdict.status is Status.HOLDS and verdict.tag == "fourgonal-10-4"


@criterion(2, "adjunction genus equals its closed form on the surface grid",
           budget_ms=1000.0)
def test_criterion_02():
    classes = [(n, gamma, lam) for gamma, lam, n in smoothable_grid()]
    assert tally(genus_closed_form(classes)) == (330, [])


@criterion(3, "every grid class embeds at pi(d, r), extremal exactly when gamma >= 4",
           budget_ms=1000.0)
def test_criterion_03():
    cases = [(gamma, lam, n) for gamma, lam, n in smoothable_grid()
             if (n, lam) != (1, gamma)]  # the plane-curve contraction point
    assert tally(embedding(cases)) == (3 * 329, [])


@criterion(4, "classified scroll classes verify by adjunction", budget_ms=1000.0)
def test_criterion_04():
    windows = [(d, r) for r in range(3, 13) for d in range(2 * r + 1, 6 * r - 4)]
    assert tally(classified_classes(windows)) == (790, [])


@criterion(5, "degree 3r-2 fourgonal curves break the slope inequality",
           budget_ms=10.0)
def test_criterion_05():
    for r in range(5, 21):
        d = 3 * r - 2
        g = 3 * r - 3
        model = [m for m in classify_extremal(d, r) if m.gamma == 4][0]
        assert model.g == g
        ledger = apply_extremal_facts(baseline_ledger(4, g), model)
        assert ledger.exact_value(r + 1) == 3 * r + 1
        assert (r + 1) * d < r * (3 * r + 1)
        rho = brill_noether(d, r, g)
        assert rho == -(r - 1) * (r - 2) and rho < 0
    assert tally(boundary_verdicts(range(5, 21))) == (32, [])


@criterion(6, "the harmless degree band always holds", budget_ms=100.0)
def test_criterion_06():
    cases = [(gamma, r) for gamma in range(4, 9) for r in range(3, 26)]
    assert tally(band_verdicts(cases)) == (1275, [])


@criterion(7, "the summary table is reproduced and engine-consistent",
           budget_ms=100.0)
def test_criterion_07():
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_run(["table1", "--gamma-max", "6",
                        "--mode", "paper-faithful", "--format", "md"])
    assert code == 0
    assert buf.getvalue().encode("utf-8") == GOLDEN.read_bytes()
    for row in table1(6, mode="resolved"):
        for r in range(5, 31):
            want = expected_status(row, r)
            if want is None:
                continue
            for model in row_models(row, r):
                assert slope_verdict(model).status is want


@criterion(8, "the foursecant sweep pins its gonality run", budget_ms=100.0)
def test_criterion_08():
    assert tally(foursecant_sweep(range(3, 16))) == (199, [])
    ledger, _ = verylast_sequence(4)
    assert [ledger.exact_value(r) for r in (4, 5)] == [15, 16]
    assert ledger.entry(6).hi == 19
    ledger, _ = verylast_sequence(7)
    assert [ledger.exact_value(r) for r in range(7, 13)] == [27, 28, 31, 32, 35, 36]
    assert ledger.entry(13).hi == 39


@criterion(9, "smooth plane curve sequences and verdicts", budget_ms=10.0)
def test_criterion_09():
    assert tally(plane_sequences(range(5, 13))) == (31, [])


@criterion(10, "every violated scan record has negative Brill-Noether number",
           budget_ms=1000.0)
def test_criterion_10():
    records = scan(3, 12)
    violated = [rec for rec in records if rec.verdict == "violated"]
    assert violated
    for rec in violated:
        assert rec.rho < 0


@criterion(11, "randomized consistent assumptions never cross; injected"
              " contradictions abort with both tags", warmup=False)
def test_criterion_11():
    families = []
    for g in range(3, 25):
        truth = {r: min(2 * r, r + g) for r in range(1, g + 3)}
        families.append((baseline_ledger(2, g), truth))
    for k in range(5, 9):
        g = (k - 1) * (k - 2) // 2
        truth = {r: plane_curve_gonality(k, r) for r in range(1, g + 3)}
        families.append((baseline_ledger(k - 1, g), truth))

    rng = random.Random(20260819)
    for trial in range(10_000):
        ledger, truth = families[trial % len(families)]
        picks = rng.sample(sorted(truth), rng.randint(1, 5))
        refined = with_assumptions(ledger, [(r, truth[r]) for r in picks])
        for e in refined.entries():
            assert e.lo <= truth[e.index] <= e.hi

    with pytest.raises(ContradictionError) as info:
        with_assumptions(baseline_ledger(4, 12), [(2, 9)])
    exc = info.value
    assert (exc.lo_tag, exc.hi_tag) == ("assume", "gonal-ceiling")
    assert exc.lo_tag != exc.hi_tag

    for _ in range(200):
        ledger, _ = families[rng.randrange(len(families))]
        r = rng.randint(1, ledger.max_index)
        with pytest.raises(ContradictionError) as info:
            with_assumptions(ledger, [(r, r * ledger.gamma + 1)])
        assert info.value.lo_tag == "assume"
        assert info.value.hi_tag != "assume"

    proc = subprocess.run(
        [sys.executable, "-m", "extremalcurves", "bounds", "4", "12",
         "--assume", "2=9"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3
    assert "assume" in proc.stderr and "gonal-ceiling" in proc.stderr
