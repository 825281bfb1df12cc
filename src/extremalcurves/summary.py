"""Symbolic summary table.

The summary table lists, per gonality, the degree ranges an extremal
curve in P^r can occupy and whether the r-th slope inequality is settled
there.  Rows are symbolic in r: a ``TableRow`` is its gonality, its
degree range and its verdict token, and the printed d, m and eps columns
are read off the range.  ``row_models`` instantiates a row at a concrete
r and ``expected_status`` says what verdict the row claims, so the table
can be cross-checked against the engine from the same facts it prints.
``table1_rows`` checks its arguments when called and yields the rows one
at a time; ``table1`` is the same rows as a list.

No scan runs this module, so a scan child does not load it; its names
still resolve from ``tables``.  The engine layers and the verdicts are
imported inside the functions that use them, so ``table1`` loads none of
them.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .errors import InvalidInput, need_int

TABLE_FIELDS = ("d", "gamma", "m", "eps", "slope")

# table1's modes, ``table1 --mode``'s choices; the first is the default
MODES = ("paper-faithful", "resolved")
STAR = "★"
STAR_RESOLVED = "yes if r=4; no if r>=5"


class TableRow(namedtuple("TableRow", "gamma degree_lo degree_hi verdict")):
    """One symbolic row: its gonality, its degree range in r and its
    slope-column token.  degree_lo/degree_hi are (coefficient, offset)
    pairs meaning coefficient*r + offset; None marks the filler row.  The
    printed d, m and eps are read off the range: by d - 1 = m(r-1) + eps,
    m is the coefficient and eps starts at coefficient + offset - 1."""

    __slots__ = ()

    def record(self) -> dict:
        if self.degree_lo is None:
            return dict(zip(TABLE_FIELDS, ("...", "", "", "", self.verdict)))
        (m, offset), d = self.degree_lo, _linear(self.degree_lo)
        eps = str(m + offset - 1)
        if self.degree_hi != self.degree_lo:
            d, eps = f"{d} <= d <= {_linear(self.degree_hi)}", f"{eps} <= eps <= r-2"
        return dict(zip(TABLE_FIELDS, (d, self.gamma, m, eps, self.verdict)))


def _linear(degree: tuple[int, int]) -> str:
    """coefficient*r + offset as printed: cr, cr+o or cr-o."""
    coefficient, offset = degree
    return f"{coefficient}r{offset:+d}" if offset else f"{coefficient}r"


def table1(gamma_max: int = 6, mode: str = MODES[0]) -> list[TableRow]:
    """Rows of the degree/gonality summary table up to the given gonality.

    mode "paper-faithful" leaves the open gamma=4 corner as a star;
    "resolved" spells out its r=4 / r>=5 split.  Everything else is
    identical between the modes.
    """
    return list(table1_rows(gamma_max, mode))


def table1_rows(gamma_max: int = 6, mode: str = MODES[0]) -> Iterator[TableRow]:
    """The rows of ``table1`` one at a time.  The arguments are checked
    when it is called, so a huge gamma_max streams its about
    gamma_max**2/2 rows instead of holding them."""
    need_int(gamma_max=gamma_max)
    if gamma_max < 4:
        raise InvalidInput(f"need gamma_max >= 4, got {gamma_max}")
    if mode not in MODES:
        raise InvalidInput(f"unknown mode {mode!r}; use {' or '.join(MODES)}")
    return _table1_rows(gamma_max, mode)


def _table1_rows(gamma_max: int, mode: str) -> Iterator[TableRow]:
    yield TableRow(3, (2, 1), (3, -3), "yes (trigonal)")
    yield TableRow(3, (3, -2), (3, -2), "yes (trigonal)")
    star = STAR if mode == "paper-faithful" else STAR_RESOLVED
    for gam in range(4, gamma_max + 1):
        for eps in range(gam - 2):  # fixed small remainders, one row each
            degree = (gam - 1, eps - (gam - 2))
            yield TableRow(gam, degree, degree, "" if gam > 4 else "no" if eps else star)
        yield TableRow(gam, (gam - 1, 0), (gam, -gam), "yes")
        yield TableRow(gam, (gam, 1 - gam), (gam, 1 - gam), "yes")
    yield TableRow(None, None, None, "")


def row_models(row: TableRow, r: int) -> list[ExtremalModel]:
    """The row's scroll models at a concrete r (empty off the row).  Their
    m is the row's coefficient, which fixes eps on a one-degree row."""
    from .extremal import classify_extremal

    if r < 3:
        raise InvalidInput(f"need r >= 3, got {r}")
    if row.degree_lo is None:
        return []
    (a, b), (c, e) = row.degree_lo, row.degree_hi
    return [model for d in range(max(a * r + b, 2 * r + 1), c * r + e + 1)
            for model in classify_extremal(d, r)
            if model.k is None and (model.gamma, model.m) == (row.gamma, a)]


def expected_status(row: TableRow, r: int) -> Status | None:
    """The verdict the row claims at a concrete r; None where it is silent."""
    from .verdicts import Status

    if row.verdict in (STAR, STAR_RESOLVED):  # holds at r = 4, fails from r = 5 on
        return Status.HOLDS if r == 4 else Status.VIOLATED if r >= 5 else None
    if row.verdict.startswith("yes"):
        return Status.HOLDS
    return Status.VIOLATED if row.verdict == "no" else None
