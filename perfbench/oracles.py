"""Oracles for every operation the benchmark runs, independent of the package.

Nothing here imports ``extremalcurves``.  Each fact is recomputed from
its closed form (the (m, eps, pi) split, the Brill-Noether number, the
adjunction genus on a Hirzebruch surface, the unisecant embedding), from
a record count, or from a gonality sequence the benchmark knows to be
true (hyperelliptic curves, smooth plane curves through Noether's
formula, and the entries the foursecant sweep pins).  A checker raises
``Failure`` with a one-line reason when an output is wrong.
"""

from __future__ import annotations

import csv
import io
import json
import re

STATUSES = ("holds", "violated", "undetermined")
FAMILIES = ("hyperelliptic", "trigonal", "bielliptic", "general_fourgonal")
SCAN_FIELDS = ("r", "d", "m", "eps", "pi", "kind", "gamma", "verdict", "rho")

# Known defects stay visible: the failure is counted, listed by argv, and
# does not make the run incorrect.  Any other failure does.
OUT_OF_REGIME = "out-of-regime embed"
KNOWN_DEFECTS = (OUT_OF_REGIME,)


class Failure(Exception):
    """An output that disagrees with its oracle."""


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise Failure(reason)


# -- closed forms -------------------------------------------------------


def split(d: int, r: int) -> tuple[int, int, int]:
    """(m, eps, pi) with d-1 = m(r-1) + eps, 0 <= eps <= r-2."""
    m, eps = divmod(d - 1, r - 1)
    return m, eps, m * (m - 1) // 2 * (r - 1) + m * eps


def rho(d: int, r: int, g: int) -> int:
    return g - (r + 1) * (g - d + r)


def surface_genus(n: int, a: int, b: int) -> int:
    """Adjunction genus of a*C0 + b*L on the surface with invariant n."""
    return (b - 1) * (a - 1) - n * a * (a - 1) // 2


def class_label(h: int, l: int) -> str:
    head = "H" if h == 1 else f"{h}H"
    if l == 0:
        return head
    if l in (1, -1):
        return head + ("+L" if l == 1 else "-L")
    return f"{head}{l:+d}L"


def models(d: int, r: int) -> list[dict]:
    """The classical trichotomy: type II when eps = 0, always type III,
    and the plane model re-embedded by conics when r = 5 and d is even."""
    m, eps, pi = split(d, r)
    out = []
    if eps == 0:
        out.append({"kind": "type_ii", "gamma": m, "class": class_label(m, 1), "k": None})
    out.append({"kind": "type_iii", "gamma": m + 1,
                "class": class_label(m + 1, -(r - eps - 2)), "k": None})
    if r == 5 and d % 2 == 0:
        out.append({"kind": "plane_veronese", "gamma": d // 2 - 1, "class": "", "k": d // 2})
    for rec in out:
        rec.update(m=m, eps=eps, d=d, r=r, genus=pi)
    return out


def embed(gamma: int, lam: int, n: int) -> dict | None:
    """Expected embed record, or None where the input must exit 2."""
    if n < 0:
        return None
    if n == 0 and gamma > lam:
        gamma, lam = lam, gamma
    smoothable = (gamma, lam) in ((0, 1), (1, 0)) or (
        gamma > 0 and (lam > gamma * n or (lam == gamma * n and n > 0)))
    if not smoothable or gamma < 3 or (n == 1 and lam == gamma):
        return None
    beta, eps = divmod(lam - n - 1, gamma - 2)
    if beta < n or (beta == n and lam > gamma * n):
        return None
    r = 2 * beta + 1 - n
    d = gamma * (beta - n) + lam
    if r < 3 or d < r + 1:
        return None
    genus = surface_genus(n, gamma, lam)
    if genus < 0:
        return None
    hypothesis = 2 * lam >= gamma * (gamma + n - 2)
    return {
        "gamma": gamma, "lambda": lam, "n": n, "beta": beta, "r": r, "d": d,
        "eps": eps, "genus": genus, "pi": split(d, r)[2],
        # extremal curves live in degree d >= 2r+1; an embedding below it
        # is not extremal whatever the hypothesis says
        "extremal": hypothesis and d >= 2 * r + 1,
        "hypothesis": hypothesis,
        "class": class_label(gamma, lam - gamma * beta) if hypothesis else "",
    }


def scan_rows(r_lo: int, r_hi: int, d_max: int | None) -> list[tuple]:
    """Expected (r, d, m, eps, pi, kind, gamma, rho) per scan record, in order."""
    rows = []
    for r in range(r_lo, r_hi + 1):
        top = d_max if d_max is not None else 6 * r - 5
        for d in range(2 * r + 1, top + 1):
            m, eps, pi = split(d, r)
            b_n = rho(d, r, pi)
            if eps == 0:
                rows.append((r, d, m, eps, pi, "type_ii", m, b_n))
            rows.append((r, d, m, eps, pi, "type_iii", m + 1, b_n))
            if r == 5 and d % 2 == 0:
                rows.append((r, d, m, eps, pi, "plane_veronese", d // 2 - 1, b_n))
    return rows


def scan_count(r_lo: int, r_hi: int, d_max: int | None = None) -> int:
    """Records in scan(r_lo, r_hi, d_max): 1 + [eps=0] + [r=5, d even] per (r, d)."""
    return sum(1 + (split(d, r)[1] == 0) + (r == 5 and d % 2 == 0)
               for r in range(r_lo, r_hi + 1)
               for d in range(2 * r + 1, (6 * r - 5 if d_max is None else d_max) + 1))


def table1_rows(gamma_max: int) -> int:
    """Two trigonal rows, gamma rows per gonality 4..gamma_max, one filler."""
    return 3 + sum(range(4, gamma_max + 1))


# -- gonality sequences known to be true ---------------------------------


def noether(r: int) -> tuple[int, int]:
    """(alpha, beta) with r = alpha(alpha+3)/2 - beta and 0 <= beta <= alpha."""
    alpha = 1
    while (alpha + 1) * (alpha + 2) // 2 <= r:
        alpha += 1
    return alpha, alpha * (alpha + 3) // 2 - r


def plane_genus(k: int) -> int:
    return (k - 1) * (k - 2) // 2


def genus(family: str, param: int) -> tuple[int, int]:
    """(gamma, g) of a family member: hyperelliptic of genus param, smooth
    plane of degree param, or foursecant on the surface n = param."""
    if family == "hyperelliptic":
        return 2, param
    if family == "plane":
        return param - 1, plane_genus(param)
    return 4, 6 * param - 3


def truth(family: str, param: int) -> tuple[int, int, dict[int, int]]:
    """(gamma, g, {r: d_r}) for the indices 1..g+2 the family pins.

    Every curve has d_1 = gamma, d_{g-1} = 2g-2 and d_r = r+g for r >= g.
    Hyperelliptic curves have d_r = min(2r, r+g); smooth plane curves of
    degree k follow Noether's alpha*k - beta; the foursecant curve on the
    surface n pins d_{n+2a} = 4(n+a)-1 and d_{n+2a+1} = 4(n+a).
    """
    if family == "hyperelliptic":
        g = param
        return 2, g, {r: min(2 * r, r + g) for r in range(1, g + 3)}
    if family == "plane":
        k = param
        g = plane_genus(k)
        seq = {}
        for r in range(1, g + 3):
            if r >= g:
                seq[r] = r + g
            else:
                alpha, beta = noether(r)
                seq[r] = alpha * k - beta
        return k - 1, g, seq
    n = param
    g = 6 * n - 3
    seq = {1: 4, g - 1: 2 * g - 2, g: 2 * g, g + 1: 2 * g + 1, g + 2: 2 * g + 2}
    for a in range((n - 3) // 2 + 1):
        seq[n + 2 * a] = 4 * (n + a) - 1
        seq[n + 2 * a + 1] = 4 * (n + a)
    return 4, g, seq


def check_entries(entries, seq: dict[int, int], g: int, window=None) -> None:
    """entries: (r, lo, hi, exact) tuples; every interval contains the truth."""
    rs = [e[0] for e in entries]
    want = list(window) if window is not None else list(range(1, g + 3))
    require(rs == want, f"ledger indices {rs[:3]}..{rs[-1:]} != {want[:3]}..{want[-1:]}")
    for r, lo, hi, exact in entries:
        require(lo <= hi, f"d_{r}: empty interval [{lo}, {hi}]")
        require(exact == (lo == hi), f"d_{r}: exact flag {exact} on [{lo}, {hi}]")
        t = seq.get(r)
        require(t is None or lo <= t <= hi, f"d_{r} = {t} lies outside [{lo}, {hi}]")


# -- parsing the three output formats -----------------------------------


def _plain(value) -> str:
    if value is None:
        return ""
    return str(value)


def table(text: str, fmt: str) -> list[dict[str, str]]:
    """Records of a table-shaped output, every value as its md/csv text."""
    if fmt == "json":
        return [{k: _plain(v) for k, v in rec.items()} for rec in json.loads(text)]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    lines = text.splitlines()
    require(len(lines) >= 2 and lines[0].startswith("| "), "not a markdown table")
    head = [c.strip() for c in lines[0][1:-1].split("|")]
    return [dict(zip(head, (c.strip() for c in line[1:-1].split("|"))))
            for line in lines[2:]]


def scalar(text: str, fmt: str) -> dict[str, str]:
    """The single record of a scalar output (profile, embed, plane --r, ...)."""
    if fmt == "json":
        return {k: _plain(v) for k, v in json.loads(text).items()}
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        require(len(rows) == 1, f"{len(rows)} csv rows for a scalar")
        return rows[0]
    require(text.endswith("\n") and "\n" not in text[:-1], "scalar md is not one line")
    # key=value pairs joined by spaces; a value (a verdict's reason) may hold spaces
    return dict(re.findall(r"(\w+)=(.*?)(?= \w+=|\n)", text))


def _ints(rec: dict[str, str], *keys: str) -> tuple[int, ...]:
    try:
        return tuple(int(rec[k]) for k in keys)
    except (KeyError, ValueError) as exc:
        raise Failure(f"record {rec} lacks integer {keys}: {exc}") from None


def _entries(records) -> list[tuple]:
    out = []
    for rec in records:
        r, lo, hi = _ints(rec, "r", "lo", "hi")
        require(rec.get("exact") in ("True", "False"), f"exact flag {rec.get('exact')!r}")
        out.append((r, lo, hi, rec["exact"] == "True"))
    return out


# -- one checker per subcommand -----------------------------------------
#
# ``check_cli`` gets the op (its argv and the generator's expectations),
# the exit code, stdout and stderr.  A passing checker returns counts for
# the traced run: ledger entries it saw, records, selfcheck checks.


def check_cli(op: dict, code: int, out: str, err: str) -> dict:
    require("Traceback" not in err, "traceback on stderr")
    want = op["exit"]
    require(code == want, f"exit {code}, expected {want}")
    if want == 2:
        require(out == "", "output on an invalid-input exit")
        require(err.strip() != "", "no diagnostic on an invalid-input exit")
        return {}
    if want == 3:
        require(out == "", "output on a contradiction exit")
        value = op["contradict"]
        require(re.search(rf"^contradiction: d_\d+: lower bound {value} \[assume\]", err),
                f"contradiction message does not name the assumption: {err.strip()!r}")
        return {}
    return CHECKERS[op["cmd"]](op, out, op["fmt"])


def _check_profile(op, out, fmt):
    d, r = op["args"]
    m, eps, pi = split(d, r)
    rec = scalar(out, fmt)
    require(_ints(rec, "m", "eps", "pi") == (m, eps, pi), f"profile {rec} != {(m, eps, pi)}")
    return {}


def _check_model_records(records, d, r, gamma=None):
    want = [m for m in models(d, r) if gamma is None or m["gamma"] == gamma]
    require([x["kind"] for x in records] == [m["kind"] for m in want],
            f"models {[x.get('kind') for x in records]} != {[m['kind'] for m in want]}")
    return want


def _check_classify(op, out, fmt):
    d, r = op["args"]
    records = table(out, fmt)
    for got, want in zip(records, _check_model_records(records, d, r)):
        for key in ("gamma", "m", "eps", "d", "r", "genus", "class", "k"):
            require(got.get(key) == _plain(want[key]), f"{key}: {got.get(key)!r} != {want[key]!r}")
    return {}


def _check_embed(op, out, fmt):
    want = embed(*op["args"])
    rec = scalar(out, fmt)
    if rec.get("extremal") == "True" and want["d"] < 2 * want["r"] + 1:
        raise Failure(f"{OUT_OF_REGIME}: extremal=True with d={want['d']} < 2r+1="
                      f"{2 * want['r'] + 1}")
    for key in ("gamma", "lambda", "n", "beta", "r", "d", "eps", "genus", "pi"):
        require(rec.get(key) == str(want[key]), f"{key}: {rec.get(key)!r} != {want[key]}")
    require(rec.get("extremal") == str(want["extremal"]),
            f"extremal: {rec.get('extremal')!r} != {want['extremal']}")
    if want["extremal"]:
        require(rec.get("class") == want["class"], f"class {rec.get('class')!r} != {want['class']!r}")
    return {}


def ledger_stats(entries) -> dict:
    return {"exact_entries": sum(1 for e in entries if e[3]),
            "width_sum": sum(e[2] - e[1] for e in entries)}


def _check_bounds(op, out, fmt):
    gamma, g, seq = truth(*op["family"])
    entries = _entries(table(out, fmt))
    check_entries(entries, seq, g)
    by_index = {e[0]: e for e in entries}
    for r, value in op.get("assume", ()):
        require(by_index[r][1:3] == (value, value), f"assumed d_{r} = {value} is not exact")
    require(by_index[1][1:3] == (gamma, gamma), f"d_1 is not the gonality {gamma}")
    return ledger_stats(entries)


def _check_slope(op, out, fmt):
    if op.get("family_name"):
        rec = scalar(out, fmt)
        require(rec.get("family") == op["family_name"] and rec.get("status") == "holds",
                f"family verdict {rec}")
        return {}
    d, r = op["args"]
    records = table(out, fmt)
    _check_model_records(records, d, r, op.get("gamma"))
    pi = split(d, r)[2]
    for rec in records:
        require(rec.get("status") in STATUSES, f"status {rec.get('status')!r}")
        require(rec["status"] != "violated" or rho(d, r, pi) < 0,
                f"violated verdict with rho = {rho(d, r, pi)} >= 0")
    return {}


def _slope_consistent(r: int, status: str, seq: dict[int, int]) -> None:
    """A verdict on the r-th slope d_r/r >= d_{r+1}/(r+1) agrees with the truth."""
    holds = (r + 1) * seq[r] >= r * seq[r + 1]
    require(status in STATUSES, f"status {status!r}")
    require(status != "holds" or holds, f"r={r}: holds, but the true slope fails")
    require(status != "violated" or not holds, f"r={r}: violated, but the true slope holds")


def _plane_seq(k: int, top: int) -> dict[int, int]:
    g = plane_genus(k)
    seq = truth("plane", k)[2]
    for r in range(g + 3, top + 2):
        seq[r] = r + g
    return seq


def _check_plane(op, out, fmt):
    k = op["args"][0]
    if op.get("r") is not None:
        r = op["r"]
        seq = _plane_seq(k, r)
        rec = scalar(out, fmt)
        require(_ints(rec, "r", "d_r") == (r, seq[r]), f"plane {rec} != d_{r} = {seq[r]}")
        _slope_consistent(r, rec.get("status"), seq)
        return {}
    g = plane_genus(k)
    seq = _plane_seq(k, g + 2)
    records = table(out, fmt)
    require(len(records) == g + 2, f"{len(records)} plane rows, expected {g + 2}")
    for i, rec in enumerate(records, start=1):
        require(_ints(rec, "r", "d_r") == (i, seq[i]), f"plane row {rec} != d_{i} = {seq[i]}")
        _slope_consistent(i, rec.get("status"), seq)
    return {}


def verylast_rows(n: int) -> list[tuple[int, ...]]:
    return [(a, n + 2 * a + 1, 4 * (n + a), n - 2 * a - 1) for a in range((n - 3) // 2 + 1)]


def _check_verylast(op, out, fmt):
    n = op["args"][0]
    gamma, g, seq = truth("foursecant", n)
    abar = (n - 3) // 2
    window = range(n, n + 2 * abar + 3)
    rows = verylast_rows(n)
    if fmt == "json":
        payload = json.loads(out)
        require((payload["n"], payload["gamma"], payload["genus"]) == (n, gamma, g),
                f"verylast header {payload['n'], payload['gamma'], payload['genus']}")
        got_rows = [tuple(x[k] for k in ("a", "r", "degree", "eps")) for x in payload["rows"]]
        require(got_rows == rows, f"verylast rows {got_rows} != {rows}")
        entries = _entries([{k: _plain(v) for k, v in e.items()} for e in payload["entries"]])
    elif fmt == "csv":
        entries = _entries(table(out, "csv"))
    else:
        head, _, rest = out.partition("\n\n")
        require(head == f"n={n} gamma={gamma} genus={g}", f"verylast header {head!r}")
        row_text, _, entry_text = rest.partition("\n\n")
        got_rows = [_ints(x, "a", "r", "degree", "eps") for x in table(row_text + "\n", "md")]
        require(got_rows == rows, f"verylast rows {got_rows} != {rows}")
        entries = _entries(table(entry_text, "md"))
    check_entries(entries, seq, g, window)
    for r in window:
        if r in seq and r < n + 2 * abar + 2:
            e = entries[r - n]
            require(e[1] == e[2] == seq[r], f"pinned d_{r} = {seq[r]} not exact in {e}")
    return ledger_stats(entries)


def _check_table1(op, out, fmt):
    records = table(out, fmt)
    want = table1_rows(op["gamma_max"])
    require(len(records) == want, f"{len(records)} table1 rows, expected {want}")
    stars = sum(1 for rec in records if rec.get("slope") == "★")
    require(stars == (1 if op["mode"] == "paper-faithful" else 0), f"{stars} starred cells")
    if op.get("golden") is not None:
        require(out == op["golden"], "table1 --gamma-max 6 differs from the golden file")
    return {}


def _check_scan(op, out, fmt):
    """Every field but the verdict against its closed form, and violated
    only where rho < 0.  Compares whole line prefixes: outputs run to
    tens of thousands of records."""
    want = scan_rows(*op["args"])
    if fmt == "json":
        got = [tuple(rec.values()) for rec in json.loads(out)]
        require(len(got) == len(want), f"{len(got)} scan records, expected {len(want)}")
        for row, exp in zip(got, want):
            if row[:7] != exp[:7] or row[8:] != exp[7:]:
                raise Failure(f"scan record {row} != {exp}")
            _check_scan_verdict(row[7], exp)
        return {"records": len(got)}
    sep, lead, trail = (" | ", "| ", " |") if fmt == "md" else (",", "", "")
    lines = out.split("\n")
    body = lines[2:-1] if fmt == "md" else lines[1:-1]
    require(lines[0] == lead + sep.join(SCAN_FIELDS) + trail and lines[-1] == "",
            f"scan header {lines[0]!r}")
    require(len(body) == len(want), f"{len(body)} scan records, expected {len(want)}")
    for line, exp in zip(body, want):
        head, verdict, tail = line.rsplit(sep, 2)
        if head != lead + sep.join(map(str, exp[:7])) or tail != f"{exp[7]}{trail}":
            raise Failure(f"scan record {line!r} != {exp}")
        _check_scan_verdict(verdict, exp)
    return {"records": len(body)}


def _check_scan_verdict(verdict, exp) -> None:
    if verdict not in STATUSES or (verdict == "violated" and exp[7] >= 0):
        raise Failure(f"scan verdict {verdict!r} at rho={exp[7]} for {exp}")


def _check_selfcheck(op, out, fmt):
    match = re.fullmatch(r"ok (\d+) checks\n", out)
    require(match is not None, f"selfcheck printed {out!r}")
    return {"checks": int(match.group(1))}


CHECKERS = {
    "profile": _check_profile,
    "classify": _check_classify,
    "embed": _check_embed,
    "bounds": _check_bounds,
    "slope": _check_slope,
    "plane": _check_plane,
    "verylast": _check_verylast,
    "table1": _check_table1,
    "scan": _check_scan,
    "selfcheck": _check_selfcheck,
}
