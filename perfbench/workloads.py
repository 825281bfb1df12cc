"""The three workloads: seeded op lists and the engines that run them.

An op is a dict.  CLI ops carry ``argv`` (the arguments after
``python -m extremalcurves``) plus what their oracle needs; ledger ops
carry a family and what to do with its ledger.  Generation uses only
the seed and ``oracles``; the package sees nothing but the generated
argv or values.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

import oracles
from tracing import Layers

FORMATS = ("md", "csv", "json")
CLI_DEADLINE_S = 20.0
INPROC_DEADLINE_S = 10.0


@dataclass
class Outcome:
    wall_ns: int
    failure: str | None = None  # None when the output matched its oracle
    known: bool = False          # the failure is a registered known defect
    rss_kb: int = 0
    code: int = 0
    ref_ns: int = 0              # in-process ops: reference() timed just before
    stdout: bytes = b""
    counts: dict = field(default_factory=dict)
    op: dict | None = None


def _known(reason: str) -> bool:
    return any(reason.startswith(tag) for tag in oracles.KNOWN_DEFECTS)


# -- cli-small ------------------------------------------------------------


def _cli_op(cmd: str, args: list, fmt: str, **extra) -> dict:
    argv = [cmd, *map(str, args), *extra.pop("flags", ()), "--format", fmt]
    return {"cmd": cmd, "argv": argv, "fmt": fmt, "exit": 0, "args": args, **extra}


def _scan_op(r_lo: int, r_hi: int, d_max: int | None, fmt: str) -> dict:
    op = _cli_op("scan", [r_lo, r_hi], fmt)
    op["args"] = [r_lo, r_hi, d_max]
    if d_max is not None:
        op["argv"][3:3] = ["--d-max", str(d_max)]
    return op


def _invalid(rng: random.Random, bad_embeds: list) -> dict:
    r = rng.randint(3, 12)
    choices = [
        ["profile", str(rng.randint(r + 1, 2 * r)), str(r)],
        ["classify", str(rng.randint(5, 30)), "2"],
        ["embed", *map(str, rng.choice(bad_embeds))],
        ["bounds", "1", str(rng.randint(3, 40))],
        ["plane", str(rng.randint(1, 4))],
        ["verylast", str(rng.randint(0, 2))],
        ["scan", "2", str(rng.randint(2, 6))],
        ["table1", "--gamma-max", str(rng.randint(0, 3))],
        ["slope", str(3 * r), str(r), "--gamma", "99"],
        ["profile", "x", str(r)],
        ["frobnicate", str(r)],
    ]
    argv = rng.choice(choices)
    fmt = rng.choice(FORMATS + ("xml",))
    return {"cmd": argv[0], "argv": argv + ["--format", fmt], "fmt": fmt, "exit": 2}


def _bounds_op(rng: random.Random, fmt: str) -> dict:
    family = rng.choice((("hyperelliptic", rng.randint(3, 40)),
                         ("plane", rng.randint(5, 10)),
                         ("foursecant", rng.randint(3, 7))))
    gamma, g, seq = oracles.truth(*family)
    op = _cli_op("bounds", [gamma, g], fmt, family=family)
    mode = rng.randrange(3)
    if mode == 1:  # true values: the ledger must accept them
        assume = sorted(rng.sample(sorted(seq), rng.randint(1, 2)))
        op["assume"] = [(r, seq[r]) for r in assume]
    elif mode == 2:  # above the gonal ceiling r*gamma: a contradiction
        r = rng.randint(1, g)
        op["assume"] = [(r, r * gamma + 1)]
        op.update(exit=3, contradict=r * gamma + 1)
    for r, value in op.get("assume", ()):
        op["argv"] += ["--assume", f"{r}={value}"]
    return op


def _slope_op(rng: random.Random, fmt: str) -> dict:
    if rng.random() < 0.1:
        name = rng.choice(oracles.FAMILIES)
        return {"cmd": "slope", "argv": ["slope", "--family", name, "--format", fmt],
                "fmt": fmt, "exit": 0, "family_name": name}
    r = rng.randint(3, 12)
    d = rng.randint(2 * r + 1, 5 * r)
    if rng.random() < 0.3:
        gamma = rng.choice([m["gamma"] for m in oracles.models(d, r)])
        return _cli_op("slope", [d, r], fmt, gamma=gamma, flags=["--gamma", str(gamma)])
    return _cli_op("slope", [d, r], fmt)


def _table1_op(gamma_max: int, mode: str, fmt: str, golden: str | None) -> dict:
    op = _cli_op("table1", [], fmt, gamma_max=gamma_max, mode=mode,
                 flags=["--gamma-max", str(gamma_max), "--mode", mode])
    if (gamma_max, mode, fmt) == (6, "paper-faithful", "md"):
        op["golden"] = golden
    return op


def _small_op(rng: random.Random, cmd: str, fmt: str, embeds: list, golden: str) -> dict:
    r = rng.randint(3, 12)
    if cmd == "profile":
        return _cli_op("profile", [rng.randint(2 * r + 1, 6 * r), r], fmt)
    if cmd == "classify":
        return _cli_op("classify", [rng.randint(2 * r + 1, 5 * r), r], fmt)
    if cmd == "embed":
        return _cli_op("embed", list(rng.choice(embeds)), fmt)
    if cmd == "bounds":
        return _bounds_op(rng, fmt)
    if cmd == "slope":
        return _slope_op(rng, fmt)
    if cmd == "table1":
        return _table1_op(rng.randint(4, 8), rng.choice(("paper-faithful", "resolved")),
                          fmt, golden)
    if cmd == "verylast":
        return _cli_op("verylast", [rng.randint(3, 12)], fmt)
    if cmd == "plane":
        k = rng.randint(5, 12)
        if rng.random() < 0.5:
            r = rng.randint(1, oracles.plane_genus(k) + 2)
            return _cli_op("plane", [k], fmt, r=r, flags=["--r", str(r)])
        return _cli_op("plane", [k], fmt)
    r_lo = rng.randint(3, 6)
    r_hi = rng.randint(r_lo, r_lo + 3)
    d_max = rng.randint(2 * r_lo + 1, 6 * r_hi) if rng.random() < 0.3 else None
    return _scan_op(r_lo, r_hi, d_max, fmt)


SMALL_CMDS = ("profile", "classify", "embed", "bounds", "slope", "table1", "verylast",
              "plane", "scan")


def _spread(u: float):
    """Uniforms on [0, 1) from u in steps of the golden ratio: every prefix
    covers the interval evenly, so a run's size mix barely depends on the
    seed or on how many ops the run reaches."""
    while True:
        yield u
        u = (u + 0.6180339887498949) % 1.0


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


# The CLI workloads are built from blocks with a fixed composition, and
# sizes come from _spread, so any run-length prefix holds nearly the same
# mix whatever the seed; the seed picks the arguments and the order.
# ledger-whatif repeats one fixed-size pass instead.


def cli_small(rng: random.Random, golden: str, blocks: int = 30) -> list[dict]:
    """Blocks of 20: each of the nine subcommands twice, in rotating
    formats, and two invalid argv that must exit 2."""
    grid = [(g, lam, n) for n in range(6) for g in range(3, 9) for lam in range(60)]
    embeds = [t for t in grid if oracles.embed(*t) is not None]
    bad_embeds = [t for t in grid if oracles.embed(*t) is None]
    ops = []
    for _ in range(blocks):
        cmds = list(SMALL_CMDS) * 2
        fmts = _shuffled(rng, FORMATS * 6)
        block = [_small_op(rng, cmd, fmt, embeds, golden) for cmd, fmt in zip(cmds, fmts)]
        block += [_invalid(rng, bad_embeds) for _ in range(2)]
        ops += _shuffled(rng, block)
    return ops


# -- scan-export ------------------------------------------------------------


def scan_export(rng: random.Random, golden: str, blocks: int = 20) -> list[dict]:
    """Blocks of 20: fifteen ``scan 3 R`` (five per format, five with
    --d-max) with R spread evenly over 24..96, two ``selfcheck``, three
    ``table1`` with gamma-max 4..40."""
    ops = []
    # one fixed size sequence for every seed: op_p95_ms rests on the ten
    # largest of 200 ops, and a seed-dependent start would move them
    sizes = enumerate(_spread(0.5))
    for _ in range(blocks):
        block = [{"cmd": "selfcheck", "argv": ["selfcheck"], "fmt": "md", "exit": 0}
                 for _ in range(2)]
        block += [_table1_op(rng.randint(4, 40), rng.choice(("paper-faithful", "resolved")),
                             rng.choice(FORMATS), golden) for _ in range(3)]
        for _ in range(15):
            j, u = next(sizes)
            # R evenly over 24..96.  Format and cap follow j, so each
            # (format, cap) class gets its own evenly spread sizes.
            r_hi = 24 + int(73 * u)
            d_max = rng.randint(2 * r_hi, 4 * r_hi) if (j // 3) % 3 == 0 else None
            block.append(_scan_op(3, r_hi, d_max, FORMATS[j % 3]))
        ops += _shuffled(rng, block)
    return ops


# -- ledger-whatif ----------------------------------------------------------


def _family(kind: str, u: float) -> tuple[str, int]:
    """The family of this kind whose genus is nearest 50 * 32**u (50..1600)."""
    target = 50 * 32 ** u
    if kind == "hyperelliptic":
        return kind, round(target)
    if kind == "plane":
        return kind, min(range(12, 59), key=lambda k: abs(oracles.plane_genus(k) - target))
    return kind, min(267, max(9, round((target + 3) / 6)))


LEDGER_FAMILIES = 15  # per kind, in one pass


def ledger_whatif(rng: random.Random) -> list[dict]:
    """One pass, which the run repeats: fifteen families of each kind,
    their log-genus evenly spaced over 50..1600, the same sizes for every
    seed.  Per family: one build, three refines (even size rank) or two
    (odd) with 1-5 true values, a fold of the plane model (plane curves
    only), and one contradiction.  The seed picks the order, the assumed
    values and the contradicted index, so the work per pass hardly
    depends on it."""
    kinds = ("hyperelliptic", "plane", "foursecant")
    plan = _shuffled(rng, [(_family(kind, i / (LEDGER_FAMILIES - 1)), 3 - i % 2)
                           for kind in kinds for i in range(LEDGER_FAMILIES)])
    ops = []
    for index, (family, refines) in enumerate(plan):
        gamma, g = oracles.genus(*family)
        ops.append({"kind": "build", "family": family, "index": index})
        for _ in range(refines):
            ops.append({"kind": "refine", "family": family, "index": index,
                        "picks": [rng.random() for _ in range(rng.randint(1, 5))]})
        if family[0] == "plane":
            ops.append({"kind": "fold", "family": family, "index": index})
        r = rng.randint(2, g - 2)
        ops.append({"kind": "contradict", "family": family, "index": index,
                    "assume": (r, r * gamma + 1)})
    return ops


def reuse_share(ops: list[dict]) -> float:
    """Share of family draws whose (gamma, g) an earlier draw already had."""
    seen, draws, repeats = set(), 0, 0
    for op in ops:
        if op["kind"] == "build":
            key = oracles.genus(*op["family"])
            draws += 1
            repeats += key in seen
            seen.add(key)
    return repeats / max(draws, 1)


WARMUP = {
    "cli": {"cmd": "profile", "argv": ["profile", "10", "4", "--format", "md"],
            "fmt": "md", "exit": 0, "args": [10, 4]},
    "ledger": {"kind": "build", "family": ("hyperelliptic", 200), "index": -1},
}


# -- engines ------------------------------------------------------------------


class CliEngine:
    """Runs each op as one ``python -m extremalcurves`` child, or through
    the traced launcher, via the small spawner process."""

    def __init__(self, root: str, work: str):
        self.root = root
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", os.path.join(root, "perfbench", "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=root)
        self.out_path = os.path.join(work, "stdout")
        self.err_path = os.path.join(work, "stderr")
        self.spans_path = os.path.join(work, "spans.json")
        self.selfcheck_count = None

    def close(self) -> None:
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=CLI_DEADLINE_S + 5)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()

    def spawn(self, argv: list[str]) -> dict:
        req = {"argv": [sys.executable, *argv], "timeout": CLI_DEADLINE_S,
               "out": self.out_path, "err": self.err_path}
        self.spawner.stdin.write(json.dumps(req) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise RuntimeError("the spawner exited")
        return json.loads(line)

    def run(self, op: dict, traced: bool = False, layers: Layers | None = None,
            op_id: int = 0) -> Outcome:
        if traced:
            launcher = os.path.join(self.root, "perfbench", "launch.py")
            reply = self.spawn([launcher, self.spans_path, str(op_id), *op["argv"]])
        else:
            reply = self.spawn(["-m", "extremalcurves", *op["argv"]])
        with open(self.out_path, "rb") as fh:
            out = fh.read()
        with open(self.err_path, "rb") as fh:
            err = fh.read().decode("utf-8", "replace")
        outcome = Outcome(wall_ns=reply["wall_ns"], rss_kb=reply["maxrss_kb"],
                          code=reply["code"], stdout=out)
        if traced and os.path.exists(self.spans_path):
            if layers is not None:
                with open(self.spans_path, encoding="utf-8") as fh:
                    dump = json.load(fh)
                layers.add(dump["names"], dump["spans"])
            os.remove(self.spans_path)
        if reply["timed_out"]:
            outcome.failure = f"missed the {CLI_DEADLINE_S:g} s deadline"
            return outcome
        try:
            outcome.counts = oracles.check_cli(op, reply["code"], out.decode("utf-8"), err)
            checks = outcome.counts.get("checks")
            if checks is not None:
                if self.selfcheck_count is None:
                    self.selfcheck_count = checks
                oracles.require(checks == self.selfcheck_count,
                                f"selfcheck ran {checks} checks, earlier {self.selfcheck_count}")
        except (oracles.Failure, ValueError, KeyError, IndexError) as exc:
            outcome.failure = str(exc) or type(exc).__name__
            outcome.known = _known(outcome.failure)
        return outcome

    def peak_rss_mb(self, outcomes: list[Outcome]) -> float:
        rss = sorted(o.rss_kb for o in outcomes)
        return rss[len(rss) // 2] / 1024


# The shared host runs all code slower by up to ~1.7x, in spells of seconds
# to minutes.  A fixed pure-Python loop, timed in the same thread just before
# each in-process op, slows by the same factor (the ratio of a ledger build to
# it stayed within about 3% over such spells), so in-process op times are scaled
# to a host on which one reference call takes REFERENCE_NS.
REFERENCE_NS = 1_000_000


def reference() -> int:
    """Min-plus closure of a fixed array: the shape of the ledger's inner
    loop, but none of its code."""
    n = 256
    hi = [3 * i + (i * 7919) % 11 for i in range(n + 1)]
    for t in range(2, n + 1):
        best = hi[t]
        for s in range(1, t // 2 + 1):
            v = hi[s] + hi[t - s]
            if v < best:
                best = v
        hi[t] = best
    return hi[-1]


class DeadlineExceeded(Exception):
    pass


def _alarm(signum, frame):
    raise DeadlineExceeded


class LedgerEngine:
    """Calls the gonality layer in-process under a per-op alarm."""

    def __init__(self):
        self.ec = importlib.import_module("extremalcurves")
        self.built: dict[int, object] = {}  # family index -> its built ledger
        self.truths: dict[tuple, tuple] = {}
        signal.signal(signal.SIGALRM, _alarm)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _truth(self, family):
        if family not in self.truths:
            if len(self.truths) > 64:
                self.truths.clear()
            self.truths[family] = oracles.truth(*family)
        return self.truths[family]

    def _call(self, op: dict, gamma: int, g: int, seq: dict):
        """The op as a zero-argument call, and the assumptions it makes."""
        ec, kind, family = self.ec, op["kind"], op["family"]
        if kind == "build":
            if family[0] == "foursecant":
                return (lambda: ec.verylast_sequence(family[1])), []
            return (lambda: ec.baseline_ledger(gamma, g)), []
        base = self.built[op["index"]]
        if kind == "refine":
            keys = sorted(seq)
            rs = sorted({keys[int(p * len(keys))] for p in op["picks"]})
            pairs = [(r, seq[r]) for r in rs]
            return (lambda: ec.with_assumptions(base, pairs)), pairs
        if kind == "fold":
            k = family[1]
            m, eps, pi = oracles.split(2 * k, 5)
            model = ec.ExtremalModel(kind=ec.ModelKind.PLANE_VERONESE, d=2 * k, r=5, m=m,
                                     eps=eps, gamma=k - 1, g=pi, k=k)
            return (lambda: ec.apply_extremal_facts(base, model)), []
        pairs = [op["assume"]]
        return (lambda: ec.with_assumptions(base, pairs)), pairs

    def run(self, op: dict) -> Outcome:
        start = time.perf_counter_ns()
        reference()
        ref_ns = time.perf_counter_ns() - start
        family = op["family"]
        gamma, g, seq = self._truth(family)
        if op["kind"] != "build" and op["index"] not in self.built:
            return Outcome(wall_ns=0, ref_ns=ref_ns, failure="its family's build failed")
        call, pairs = self._call(op, gamma, g, seq)
        error = None
        signal.setitimer(signal.ITIMER_REAL, INPROC_DEADLINE_S)
        start = time.perf_counter_ns()
        try:
            result = call()
        except DeadlineExceeded:
            result, error = None, f"missed the {INPROC_DEADLINE_S:g} s deadline"
        except self.ec.ContradictionError as exc:
            result, error = exc, None
        except Exception as exc:  # any other exception fails the op; the run goes on
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        outcome = Outcome(wall_ns=time.perf_counter_ns() - start, ref_ns=ref_ns)
        if error is not None:
            outcome.failure = error
            return outcome
        try:
            outcome.counts = self._check(op, result, gamma, g, seq, pairs)
        except oracles.Failure as exc:
            outcome.failure = str(exc)
        return outcome

    def _check(self, op, result, gamma, g, seq, pairs) -> dict:
        kind = op["kind"]
        if kind == "contradict":
            oracles.require(isinstance(result, self.ec.ContradictionError),
                            f"assuming d_{pairs[0][0]} = {pairs[0][1]} did not contradict")
            oracles.require(result.lo_tag == "assume" and result.index == pairs[0][0],
                            f"contradiction at d_{result.index} [{result.lo_tag}]"
                            f" instead of d_{pairs[0][0]} [assume]")
            return {"contradictions": 1}
        oracles.require(not isinstance(result, Exception), f"true values contradicted: {result}")
        if kind == "build" and op["family"][0] == "foursecant":
            led, rows = result
            got = [(row.a, row.r, row.degree, row.eps) for row in rows]
            want = oracles.verylast_rows(op["family"][1])
            oracles.require(got == want, f"foursecant rows {got} != {want}")
        else:
            led = result
        entries = [(e.index, e.lo, e.hi, e.exact) for e in led.entries()]
        oracles.require((led.gamma, led.g) == (gamma, g),
                        f"ledger for {(led.gamma, led.g)}, expected {(gamma, g)}")
        oracles.check_entries(entries, seq, g)
        for r, value in pairs:
            oracles.require(entries[r - 1][1:3] == (value, value), f"assumed d_{r} not exact")
        if kind == "build":
            index = op["index"]
            self.built[index] = led
            # indexes restart with each pass; keep the last few builds
            for stale in [i for i in self.built if not index - 8 <= i <= index]:
                del self.built[stale]
        return oracles.ledger_stats(entries)

    def peak_rss_mb(self, outcomes) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
