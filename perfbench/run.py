"""The extremalcurves benchmark: three seeded workloads, checked by oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (closed loop, one caller):

  cli-small      sequential ``python -m extremalcurves`` children over the
                 nine everyday subcommands at README-sized arguments
  ledger-whatif  in-process gonality-ledger builds, refines, folds and
                 contradictions over curve families of genus 50..1600
  scan-export    sequential children running ``scan 3 R``, ``selfcheck``
                 and ``table1`` batch jobs whose output is megabytes

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` it holds every
per-layer metric, measured by running each op once untraced and once
traced.  The lines before it are a readable report: machine, op counts,
failed ops by argv.  See perfbench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

import oracles
import workloads
from tracing import TARGETS, Layers, Tracer, metric_name

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDEN = ROOT / "tests" / "golden" / "table1_gamma6_paper.md"

WORKLOADS = ("cli-small", "ledger-whatif", "scan-export")
SETUP_ROUNDS = 5
MIN_OPS = 200  # ten samples beyond the 95th percentile
MIN_PASSES = 5  # ledger-whatif: each op's time is a median of at least five
# CLI workloads: a bare-interpreter probe (``python -c pass``) runs after every
# PROBE_EVERY-th op, and op times are scaled to a host where it takes PROBE_NS
PROBE_EVERY = 8
PROBE_NS = 50_000_000
# a run that has not reached MIN_OPS after this long fails instead of
# running on: it stays within three minutes, set-up included
MAX_MEASURE_S = 140
# traced runs sum the per-layer counts over this many leading ops, so the
# exact counts repeat between runs at one seed
FIRST_PASS = {"cli-small": 40, "ledger-whatif": 120, "scan-export": 20}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: 200 values leave ten above the 95th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.interp_ms: list[float] = []
        self.import_ms: list[float] = []
        self.cli = self.engine = None  # started by each set-up round
        self.ops: list[dict] = []
        self.probes_ns: list[int] = []  # the measured loop's bare-interpreter probes

    def close(self) -> None:
        if self.engine is not self.cli:
            self.engine.close()
        if self.cli is not None:
            self.cli.close()

    def generate(self) -> list[dict]:
        rng = random.Random(f"{self.workload}:{self.seed}")
        if self.workload == "ledger-whatif":
            return workloads.ledger_whatif(rng)
        golden = GOLDEN.read_text(encoding="utf-8")
        if self.workload == "cli-small":
            return workloads.cli_small(rng, golden)
        return workloads.scan_export(rng, golden)

    def setup(self) -> float:
        """Median seconds of SETUP_ROUNDS set-up rounds.  A round starts the
        spawner, a bare interpreter and one that imports the package (the
        start-up split), imports the package afresh in-process (ledger-whatif),
        generates the inputs and oracles, and runs one untimed warm-up op so
        bytecode and lazy state exist before timing."""
        rounds = []
        for _ in range(SETUP_ROUNDS):
            start = time.perf_counter()
            self.close()
            self.cli = self.engine = workloads.CliEngine(str(ROOT), str(WORK))
            bare = self.cli.spawn(["-c", "pass"])
            loaded = self.cli.spawn(["-c", "import extremalcurves.cli"])
            if bare["code"] != 0 or loaded["code"] != 0:
                fail("a start-up probe failed; is src/extremalcurves importable?")
            self.interp_ms.append(bare["wall_ns"] / 1e6)
            self.import_ms.append(loaded["wall_ns"] / 1e6)
            if self.workload == "ledger-whatif":
                for name in [m for m in sys.modules if m.partition(".")[0] == "extremalcurves"]:
                    del sys.modules[name]
                self.engine = workloads.LedgerEngine()
            self.ops = self.generate()
            warmup = workloads.WARMUP["cli" if self.engine is self.cli else "ledger"]
            warm = self.engine.run(warmup)
            if warm.failure:
                fail(f"warm-up op {describe(warmup)} failed: {warm.failure}")
            rounds.append(time.perf_counter() - start)
        if self.workload == "ledger-whatif":
            self.engine.built.clear()
        # the inputs live for the whole run; keep the collector from
        # rescanning them inside timed ops
        gc.collect()
        gc.freeze()
        return statistics.median(rounds)

    def startup(self) -> tuple[float, float]:
        interp = statistics.median(self.interp_ms)
        return interp, statistics.median(self.import_ms) - interp

    def run_op(self, op: dict):
        outcome = self.engine.run(op)
        outcome.op = op
        return outcome

    def measure(self, seconds: int) -> list[list]:
        """Untraced closed loop, as a list of passes over the op list.

        CLI workloads make one pass: ``seconds`` of ops, and on until
        MIN_OPS have run.  scan-export always takes the latter path, so its
        runs cover the same ops whatever their speed.  ledger-whatif repeats
        its whole op list for ``seconds``, and at least MIN_PASSES times, so
        that each op's time can be the median of its passes."""
        start = time.monotonic()

        def overdue(done: str) -> None:
            if time.monotonic() - start > MAX_MEASURE_S:
                fail(f"only {done} ran in {MAX_MEASURE_S} s")

        if self.workload == "ledger-whatif":
            passes = []
            while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
                overdue(f"{len(passes)} of {MIN_PASSES} passes")
                passes.append([self.run_op(op) for op in self.ops])
            return passes
        outcomes = []
        while time.monotonic() - start < seconds or len(outcomes) < MIN_OPS:
            overdue(f"{len(outcomes)} of {MIN_OPS} ops")
            outcomes.append(self.run_op(self.ops[len(outcomes) % len(self.ops)]))
            if len(outcomes) % PROBE_EVERY == 0:
                probe = self.cli.spawn(["-c", "pass"])
                if probe["code"] != 0:
                    fail("the bare-interpreter probe failed")
                self.probes_ns.append(probe["wall_ns"])
        return [outcomes]

    def measure_traced(self, seconds: int):
        """Each op runs untraced and traced, alternating which goes first.
        Per-layer totals cover the first FIRST_PASS[workload] ops."""
        layers, tracer = Layers(), Tracer()
        inproc = self.engine is not self.cli
        first = FIRST_PASS[self.workload]
        pairs = []
        start = time.monotonic()
        while len(pairs) < first or time.monotonic() - start < seconds:
            i = len(pairs)
            op = self.ops[i % len(self.ops)]
            in_first = i < first
            pair = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if not traced:
                    pair[traced] = self.engine.run(op)
                elif inproc:
                    tracer.op = i
                    mark = len(tracer.spans)
                    tracer.install()
                    try:
                        pair[traced] = self.engine.run(op)
                    finally:
                        tracer.uninstall()
                    if not in_first:
                        del tracer.spans[mark:]
                else:
                    pair[traced] = self.cli.run(op, traced=True,
                                                layers=layers if in_first else None, op_id=i)
            plain, traced_outcome = pair[False], pair[True]
            plain.op = traced_outcome.op = op
            if not inproc and traced_outcome.failure is None and (
                    traced_outcome.stdout != plain.stdout or traced_outcome.code != plain.code):
                traced_outcome.failure = "traced run changed stdout or the exit code"
            pairs.append((plain, traced_outcome, in_first))
        if inproc:
            layers.add(tracer.names, tracer.spans)
            tracer.dump(str(WORK / f"spans-{self.workload}-{self.seed}.json"))
        return pairs, layers


def describe(op: dict) -> str:
    if "argv" in op:
        return "extremalcurves " + " ".join(op["argv"])
    family = "{}({})".format(*op["family"])
    extra = op.get("assume") or ""
    return f"{op['kind']} {family} {extra}".strip()


def op_walls_ms(passes: list[list], probes_ns: list[int]) -> list[float]:
    """Each op's wall time in ms, scaled to host speed: the median over the
    passes that ran it.  The shared host runs all code up to ~1.7x slower in
    spells that can outlast a run.  An in-process op is scaled by
    REFERENCE_NS over the median reference() time of the five ops around
    it.  CLI children run on either CPU, so one factor serves a whole run:
    PROBE_NS over the mean of the run's bare-interpreter probes."""
    run = [o for one in passes for o in one]
    if probes_ns:
        factors = [PROBE_NS / statistics.mean(probes_ns)] * len(run)
    else:
        refs = [o.ref_ns for o in run]
        factors = [workloads.REFERENCE_NS / statistics.median(refs[max(0, j - 2):j + 3])
                   for j in range(len(run))]
    scaled = [o.wall_ns * f for o, f in zip(run, factors)]
    n = len(passes[0])
    return [statistics.median(scaled[i::n]) / 1e6 for i in range(n)]


def timing_metrics(walls: list[float], outcomes, setup_s: float, engine) -> dict:
    return {
        "setup_s": setup_s,
        "op_p95_ms": quantile(walls, 0.95),
        "ops_per_s": len(walls) / (sum(walls) / 1e3),
        "peak_rss_mb": engine.peak_rss_mb(outcomes),
    }


def layer_metrics(bench: Bench, pairs, layers) -> dict:
    first = [(plain, traced) for plain, traced, in_first in pairs if in_first]
    plain_p50 = statistics.median(p.wall_ns for p, _, _ in pairs) / 1e6
    traced_p50 = statistics.median(t.wall_ns for _, t, _ in pairs) / 1e6
    interp, imported = bench.startup()
    cli = bench.engine is bench.cli

    def total(key: str) -> int:
        return sum(p.counts.get(key, 0) for p, _ in first)

    m = {
        "startup.interp_ms": interp,
        "startup.import_ms": imported,
        "startup.share": (interp + imported) / plain_p50 if cli else 0.0,
        "cli.stdout_bytes": sum(len(p.stdout) for p, _ in first),
        "cli.exit2": sum(1 for p, _ in first if cli and p.code == 2),
        "cli.exit3": sum(1 for p, _ in first if cli and p.code == 3),
        "extremal.models": layers.size_sum.get("extremal.classify_extremal", 0),
        "extremal.out_of_regime": sum(
            1 for p, _ in first if p.failure and p.failure.startswith(
                oracles.OUT_OF_REGIME)),
        "lattice.self_ms": layers.self_ms(*(metric_name(mod, attr) for mod, attr, _ in TARGETS
                                            if mod == "lattice")),
        "gonality.contradictions": total("contradictions") + sum(
            1 for p, _ in first if cli and p.code == 3),
        "gonality.exact_entries": total("exact_entries"),
        "gonality.width_sum": total("width_sum"),
        "tables.scan.records": total("records"),
        "tables.serialize.bytes": layers.size_sum.get("tables.serialize", 0),
        "selfcheck.checks": layers.size_last.get("selfcheck.run_selfcheck", 0),
        "trace.overhead": traced_p50 / plain_p50,
    }
    for mod, attr, _ in TARGETS:
        name = metric_name(mod, attr)
        m[f"{name}.calls"] = layers.calls.get(name, 0)
        m[f"{name}.self_ms"] = layers.self_ms(name)
    for name in layers.SIZED:
        m[f"{name}.p50_ms"] = layers.p50_ms(name)
        m[f"{name}.exponent"] = layers.exponent(name)
    return m


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    if not (SRC / "extremalcurves" / "__init__.py").is_file():
        fail(f"no package source under {SRC}; run from a checkout of the repository")
    if args.workload != "ledger-whatif" and not GOLDEN.is_file():
        fail(f"{GOLDEN} is missing")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    bench = Bench(args.workload, args.seed)
    try:
        setup_s = bench.setup()
        if args.trace:
            pairs, layers = bench.measure_traced(args.seconds)
            outcomes = [p for p, _, _ in pairs] + [t for _, t, _ in pairs]
            walls = [o.wall_ns / 1e6 for o in outcomes]
            passes = 1
            values = layer_metrics(bench, pairs, layers)
        else:
            measured = bench.measure(args.seconds)
            outcomes = [o for one in measured for o in one]
            walls = op_walls_ms(measured, bench.probes_ns)
            passes = len(measured)
            values = timing_metrics(walls, outcomes, setup_s, bench.engine)
    finally:
        bench.close()

    failed = [o for o in outcomes if o.failure]
    failures = sorted({f"{describe(o.op)}  [{o.failure}]" for o in failed})
    p95 = quantile(walls, 0.95)
    beyond = sum(1 for w in walls if w > p95)
    if not args.trace and beyond < 10:
        fail(f"only {beyond} samples beyond the 95th percentile; op_p95_ms needs ten")
    interp, imported = bench.startup()
    nproc = len(os.sched_getaffinity(0))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}"
          f" python={platform.python_version()} nproc={nproc}"
          f" startup.interp_ms={interp:.1f} startup.import_ms={imported:.1f}")
    print(f"ops={len(outcomes)} passes={passes} timed_ops={len(walls)} beyond_p95={beyond}"
          f" op_p50_ms={statistics.median(walls):.4f}"
          f" failed={len(failed)} failed_frac={len(failed) / len(outcomes):.4f}")
    if bench.probes_ns:
        print(f"host speed: {len(bench.probes_ns)} probes, mean"
              f" {statistics.mean(bench.probes_ns) / 1e6:.2f} ms, scaled to {PROBE_NS / 1e6:g} ms")
    refs = [o.ref_ns for o in outcomes if o.ref_ns]
    if refs:
        print(f"host speed: reference() median {statistics.median(refs) / 1e6:.3f} ms,"
              f" scaled to {workloads.REFERENCE_NS / 1e6:g} ms")
    if args.workload == "ledger-whatif":
        print(f"reuse_share={workloads.reuse_share([o.op for o in outcomes]):.3f}")
    for item in wanted:
        print(f"{item['name']:<44} {values[item['name']]:>14.4f} {item['unit']}")
    for line in failures:
        print(f"failed: {line}")

    result = {
        "correct": all(o.known for o in failed),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {item["name"]: {"value": values[item["name"]], "unit": item["unit"]}
                    for item in wanted},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  python=platform.python_version(), nproc=nproc, interp_ms=interp,
                  import_ms=imported, failures=failures, walls_ms=walls,
                  raw_walls_ms=[o.wall_ns / 1e6 for o in outcomes],
                  probes_ms=[ns / 1e6 for ns in bench.probes_ns])
    (WORK / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
