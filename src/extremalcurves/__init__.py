"""Numerical invariants of extremal curves in projective space.

Exact intersection theory on the Picard lattices of Hirzebruch surfaces
and rational normal scrolls, the maximal-genus bound, classification and
construction of curves that attain it, and interval bookkeeping for
their gonality sequences with slope-inequality verdicts.

Importing the package loads none of its modules: each public name below
is imported from its module on first use (PEP 562), so the command line
pays only for the layer a subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_HOME = {
    name: module
    for module, names in (
        ("castelnuovo", "CurveProfile brill_noether profile"),
        ("errors", "ContradictionError DomainError EmbeddingError InvalidInput"
                   " PlaneCurveContraction UnsupportedInput"),
        ("extremal", "EmbedResult ExtremalModel ModelKind classify_extremal"
                     " embed_extremal gonality_from_class verify_extremal_class"),
        ("gonality", "GonalityEntry GonalityLedger VerylastRow apply_extremal_facts"
                     " baseline_ledger verylast_sequence with_assumptions"),
        ("lattice", "DivisorClass ScrollEmbedding adjunction_genus canonical_class"
                    " class_in_HL formal_genus h0_unisecant intersect"
                    " intersect_on_scroll is_irreducible_smoothable is_very_ample"
                    " scroll_canonical_class scroll_from_rn"),
        ("selfcheck", "run_selfcheck"),
        ("tables", "SCAN_FIELDS STAR STAR_RESOLVED TABLE_FIELDS ScanRecord TableRow"
                   " expected_status row_models scan serialize table1"),
        ("verdicts", "SlopeVerdict Status known_family_verdict plane_curve_gonality"
                     " plane_slope_verdict slope_verdict"),
    )
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # not cached in globals(): a wrapper later set on the defining module
    # (a profiler, a test's monkeypatch) is seen through the package too
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
