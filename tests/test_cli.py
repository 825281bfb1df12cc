"""End-to-end checks of the command line front end."""

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from extremalcurves import (
    ContradictionError,
    EmbeddingError,
    InvalidInput,
    embed_extremal,
    selfcheck,
)
import extremalcurves.cli
import extremalcurves.commands
import extremalcurves.gonality
import extremalcurves.lattice
import extremalcurves.usage
from extremalcurves.cli import run
from extremalcurves.commands import _entry_record
from extremalcurves.tables import _cell, serialize
from child_env import child_env

GOLDEN = Path(__file__).parent / "golden" / "table1_gamma6_paper.md"


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_profile_markdown(capsys):
    assert run_cli(capsys, "profile", "10", "4") == (0, "m=3 eps=0 pi=9\n", "")


def test_profile_json(capsys):
    code, out, err = run_cli(capsys, "profile", "10", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"m": 3, "eps": 0, "pi": 9}


def test_profile_lenient_flag(capsys):
    code, out, _ = run_cli(capsys, "profile", "8", "4", "--lenient")
    assert code == 0 and out == "m=2 eps=1 pi=5\n"
    code, _, err = run_cli(capsys, "profile", "8", "4")
    assert code == 2 and err.startswith("error: ")


def test_profile_rejects_low_dimension(capsys):
    code, out, err = run_cli(capsys, "profile", "10", "2")
    assert code == 2 and out == "" and "error: " in err


def test_classify_csv(capsys):
    code, out, _ = run_cli(capsys, "classify", "13", "5", "--format", "csv")
    assert code == 0
    assert out == (
        "kind,gamma,m,eps,d,r,genus,class,k\n"
        "type_ii,3,3,0,13,5,12,3H+L,\n"
        "type_iii,4,3,0,13,5,12,4H-3L,\n"
    )


def test_embed_markdown(capsys):
    code, out, _ = run_cli(capsys, "embed", "4", "12", "3")
    assert code == 0
    assert out == ("gamma=4 lambda=12 n=3 beta=4 r=6 d=16 eps=0"
                   " genus=15 pi=15 extremal=True class=4H-4L\n")


def test_embed_cone(capsys):
    code, out, _ = run_cli(capsys, "embed", "4", "8", "2")
    assert code == 0
    assert "beta=2 r=3 d=8 eps=1 genus=9 pi=9 extremal=True class=4H" in out


def test_embed_failure_exits_two(capsys):
    code, _, err = run_cli(capsys, "embed", "5", "11", "2")
    assert code == 2 and "contracted section" in err


def test_bounds_table(capsys):
    code, out, _ = run_cli(capsys, "bounds", "4", "12")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "| r | lo | hi | exact | tags |"
    assert lines[2] == "| 1 | 4 | 4 | True | gonality gonal-ceiling |"
    assert "| 11 | 22 | 22 | True | canonical |" in lines
    assert lines[-1] == "| 14 | 26 | 26 | True | riemann-roch |"
    assert len(lines) == 16


@pytest.mark.parametrize("gamma, g", [(4, 4), (8, 12), (4, 3)])
def test_bounds_rejects_gonality_above_brill_noether(capsys, gamma, g):
    code, out, err = run_cli(capsys, "bounds", str(gamma), str(g))
    assert code == 2 and out == ""
    assert err == (f"error: no curve of genus {g} has gonality {gamma}:"
                   f" the Brill-Noether maximum is {(g + 3) // 2}\n")


def test_bounds_with_consistent_assumption(capsys):
    code, out, _ = run_cli(capsys, "bounds", "4", "12", "--assume", "2=7")
    assert code == 0
    assert "| 2 | 7 | 7 | True | assume |" in out


def test_bounds_contradiction_exits_three(capsys):
    code, out, err = run_cli(capsys, "bounds", "4", "12", "--assume", "2=9")
    assert code == 3 and out == ""
    assert err == ("contradiction: d_2: lower bound 9 [assume]"
                   " exceeds upper bound 8 [gonal-ceiling]\n")


def test_bounds_malformed_assumption(capsys):
    code, _, err = run_cli(capsys, "bounds", "4", "12", "--assume", "2:9")
    assert code == 2 and "not of the form R=V" in err
    code, _, err = run_cli(capsys, "bounds", "4", "12", "--assume", "a=b")
    assert code == 2 and "needs integer" in err


def test_slope_by_model(capsys):
    code, out, _ = run_cli(capsys, "slope", "13", "5", "--gamma", "4",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].startswith("type_iii,4,13,5,violated,dual-projection,")


def test_slope_family(capsys):
    code, out, _ = run_cli(capsys, "slope", "--family", "hyperelliptic")
    assert code == 0
    assert out == ("family=hyperelliptic status=holds tag=known-family"
                   " reason=every slope inequality holds for hyperelliptic curves\n")


@pytest.mark.parametrize("extra", [["13", "5"], ["13"], ["--gamma", "4"]], ids=" ".join)
def test_slope_family_refuses_a_model(capsys, extra):
    assert run_cli(capsys, "slope", "--family", "trigonal", *extra) == (
        2, "", "error: slope takes d and r (with --gamma) or --family, not both\n")


def test_slope_requires_arguments(capsys):
    code, _, err = run_cli(capsys, "slope")
    assert code == 2 and "needs either d and r or --family" in err


def test_slope_empty_filter(capsys):
    code, _, err = run_cli(capsys, "slope", "13", "5", "--gamma", "7")
    assert code == 2 and "no extremal model with gonality 7" in err


def test_table1_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "table1", "--gamma-max", "6",
                           "--mode", "paper-faithful")
    assert code == 0
    assert out == GOLDEN.read_text(encoding="utf-8")
    assert "★" in out


def test_table1_resolved(capsys):
    code, out, _ = run_cli(capsys, "table1", "--mode", "resolved")
    assert code == 0
    assert "★" not in out and "yes if r=4; no if r>=5" in out


def test_table1_validation(capsys):
    code, _, err = run_cli(capsys, "table1", "--gamma-max", "3")
    assert code == 2 and "gamma_max" in err


def test_scan_csv(capsys):
    code, out, _ = run_cli(capsys, "scan", "3", "4", "--format", "csv")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "r,d,m,eps,pi,kind,gamma,verdict,rho"
    assert lines[1] == "3,7,3,0,6,type_ii,3,holds,-2"
    assert len(lines) == 27


def test_scan_degree_ceiling(capsys):
    code, out, _ = run_cli(capsys, "scan", "3", "3", "--d-max", "6",
                           "--format", "csv")
    assert code == 0
    assert out == "r,d,m,eps,pi,kind,gamma,verdict,rho\n"


def test_scan_degree_ceiling_bounds_the_window():
    # no degree >= 2r+1 fits under d_max = 5, so the scan stops at r = 2
    proc = subprocess.run(
        [sys.executable, "-m", "extremalcurves", "scan", "3", str(10**20), "--d-max", "5"],
        capture_output=True, text=True, env=child_env(), timeout=10,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("| r | d | m | eps | pi | kind | gamma | verdict | rho |\n"
                           + "| --- " * 9 + "|\n")


H, M = str(10**20), str(-10**20)


@pytest.mark.parametrize("argv", [
    ["2", "5"], ["5", "3"], [M, "4"], ["3", M], [H, "4"], [M, M], [H, M],
    ["2", "5", "--d-max", M], [H, "4", "--d-max", M],
], ids=" ".join)
@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_scan_rejects_before_the_first_byte(capsys, argv, fmt):
    code, out, err = run_cli(capsys, "scan", *argv, "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("error: need r_")


def _cli_child(*argv):
    return subprocess.Popen([sys.executable, "-m", "extremalcurves", *argv], env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _read_then_kill(proc, size):
    """Up to ``size`` bytes of the child's stdout within 10 s; then the child is killed."""
    timer = threading.Timer(10, proc.kill)
    timer.start()
    try:
        return proc.stdout.read(size)
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


@pytest.mark.parametrize("argv", [["scan", "3", "96", "--format", "json"],
                                  ["bounds", "4", "200000", "--format", "json"]], ids=" ".join)
def test_scan_reader_that_stops_early_is_not_an_error(argv):
    # like ``| head``: the output is megabytes, the reader takes 100 bytes
    proc = _cli_child(*argv)
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        assert proc.wait(timeout=30) == 0
        err = proc.stderr.read().decode()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == ""  # no traceback, no "Exception ignored" at shutdown


def test_scan_streams_an_unbounded_window():
    # r = 3 walks d up to 10**20: the records must flow long before that
    header = ("| r | d | m | eps | pi | kind | gamma | verdict | rho |\n"
              + "| --- " * 9 + "|\n").encode()
    data = _read_then_kill(_cli_child("scan", "3", "4", "--d-max", str(10**20)),
                           len(header) + 65536)
    assert len(data) == len(header) + 65536
    assert data.startswith(header + b"| 3 | 7 | 3 | 0 | 6 | type_ii | 3 | holds | -2 |\n")


def test_plane_streams_an_unbounded_table():
    # degree 10**20 has genus about 5*10**39: the rows must flow long before that
    header = b"| r | d_r | status | tag |\n| --- | --- | --- | --- |\n"
    data = _read_then_kill(_cli_child("plane", str(10**20)), len(header) + 65536)
    assert len(data) == len(header) + 65536
    assert data.startswith(header + b"| 1 | 99999999999999999999 | holds | noether-step |\n"
                           + b"| 2 | 100000000000000000000 | violated | noether-block |\n")


def test_table1_streams_an_unbounded_table():
    # gonality up to 10**20 means about 5*10**39 rows: they must flow long before that
    header = b"| d | gamma | m | eps | slope |\n| --- | --- | --- | --- | --- |\n"
    data = _read_then_kill(_cli_child("table1", "--gamma-max", str(10**20)),
                           len(header) + 65536)
    assert len(data) == len(header) + 65536
    assert data.startswith(header + GOLDEN.read_bytes()[len(header):300])


def test_bounds_is_linear_in_the_genus():
    # a closure that rescans every split of every index takes minutes here
    proc = subprocess.run(
        [sys.executable, "-m", "extremalcurves", "bounds", "3", "200000", "--format", "csv"],
        capture_output=True, text=True, env=child_env(), timeout=30,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "200002,400002,400002,True,riemann-roch"


def test_verylast_is_linear_in_n():
    # with one scan per t past the sweep this ran past 40 s; the scan
    # floor leaves one scan in all
    proc = subprocess.run(
        [sys.executable, "-m", "extremalcurves", "verylast", "100000"],
        capture_output=True, text=True, env=child_env(), timeout=30,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == (
        "| 199998 | 599993 | 599995 | False | extremal-degree gonal-residual |")


# sha256 of the scan output as rendered before batches went through one
# json encode and csv took raw values: every byte of it is pinned
SCAN_SHA256 = {
    ("scan 3 40", "md"): "419bf1eca076261042c5f611412d16087494f52d6961b80903ddcdb1e96512ec",
    ("scan 3 40", "csv"): "cb2036c7760cb02a115d88c7b19199ac8042f3b66daa98780d8ff78187570a6a",
    ("scan 3 40", "json"): "db8611c57b456b549f6c1391b1791f636c890b17cd256be5f6ebb750f7223622",
    ("scan 3 12 --d-max 60", "md"):
        "ceb3a9c51d32017fc3e701773c1da944b763b61258fc361ef3bf99b6b64d395f",
    ("scan 3 12 --d-max 60", "csv"):
        "af51d049d563f6eb36dc6ad4817b50ec224ecf7519d4b6744e00529bdb095bd9",
    ("scan 3 12 --d-max 60", "json"):
        "690192abbd7a4da06911d091da7211f4faeddf92a68701fd3e69f8259ba0b7ae",
    ("scan 3 4 --d-max 6", "md"):
        "90e87bfa02f1041fbff3e5ea3f32f7bf2d04a458b1a871b3c21465730b691316",
    ("scan 3 4 --d-max 6", "csv"):
        "9cabfc7bb4d8aa2b4c07a373d326c7942efd706f42fb9707d9479d50d86ccb91",
    ("scan 3 4 --d-max 6", "json"):
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
}


@pytest.mark.parametrize("argv, fmt", SCAN_SHA256, ids=str)
def test_scan_output_is_pinned(capsys, argv, fmt):
    code, out, err = run_cli(capsys, *argv.split(), "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_SHA256[argv, fmt]


def _assume(kind, gamma, g):
    """One --assume of each kind for (gamma, g) in range: "true" leaves the
    ledger consistent and lowers hi[2] for gamma >= 3; "contradicting" puts
    d_{g-2} at its lower bound, which subadditivity takes below
    d_{g-1} = 2g-2, or at gamma's Brill-Noether maximum just under it."""
    if kind == "true":
        return ["--assume", f"2={max(gamma + 1, 4)}"]
    if kind == "contradicting":
        return ["--assume", f"{g - 2}={gamma + g - 3 - (2 * gamma >= g + 1)}"]
    return []


LEDGER_ARGV = {
    **{(f"bounds {gamma} 3..44", kind):
       [["bounds", str(gamma), str(g), *_assume(kind, gamma, g)] for g in range(3, 45)]
       for kind in ("none", "true", "contradicting") for gamma in range(2, 9)},
    **{("verylast 3..30", fmt): [["verylast", str(n), "--format", fmt] for n in range(3, 31)]
       for fmt in ("md", "csv", "json")},
}

# sha256 over every argv's stdout, stderr and exit code, as the full-rescan
# ledger closure gives them; a change to the closure's mechanics leaves
# them as they are.  A change to the ledger's rules changes them on
# purpose: re-pin them, and
# log each changed value, only in the same change as the brute-force
# oracle gate that proves the new bounds.
LEDGER_SHA256 = {
    ("bounds 2 3..44", "none"): "6c83fb13aa2316b010c4be5422237082357b710d883d9e0e2f9a51abb52a536a",
    ("bounds 3 3..44", "none"): "c15f3d99ef8bbe87e263d967c3f087142c51af0e457bdb19db3f19c42bf8d695",
    ("bounds 4 3..44", "none"): "63566b3f6e2e378d8b95787f95147f93dc08a93a6da1fb1c6cc8fb250db19cb2",
    ("bounds 5 3..44", "none"): "22571c3c64d97d2cf99844fac96fc0319bd94cb4d153acbb1999ea461c6fee0d",
    ("bounds 6 3..44", "none"): "740fec0961cba313c3e75b0d34d1e5a3c3d8452b9a29db183995ebafb45a80e3",
    ("bounds 7 3..44", "none"): "6db0be526567d57ca6cea5a5cd7305b9e8ab4eac7e161980ef21aa6ef16ec607",
    ("bounds 8 3..44", "none"): "74d32479c0e7fd427d86d467089e8c0b14af372943e0fcf7cdb0a436dc906688",
    ("bounds 2 3..44", "true"): "03b747ab4fc6efc421be0a97d8f794b14a0425f5ed8eee55589321af6f365171",
    ("bounds 3 3..44", "true"): "d7f1042b842b7231557e390b1327fa2d803417e8606899a5114cc528c0245120",
    ("bounds 4 3..44", "true"): "5485da07325de4b2229ba59e04fcd8fc4641a31ed47b21d3e621cfcc184fd89d",
    ("bounds 5 3..44", "true"): "84a41c9fc663c9df606fa488e4b968c3e1ab1ecd9ec4994b40ca24d2adb78aaf",
    ("bounds 6 3..44", "true"): "2d11faacd7fb54542d803c3ce96cd631e7884a188094100a3292154291982328",
    ("bounds 7 3..44", "true"): "18be00504aee9cb3d06b6a9342baec6ee7790d7a3832c484452e95aebf5c10a7",
    ("bounds 8 3..44", "true"): "b20b008c6718e7280c6b39d5729ca881208fe6e60e89c2e7be5a3167a09f1a9d",
    ("bounds 2 3..44", "contradicting"):
        "3998f442b5639cbe79ddd136ea79caed7d7eed67511dc51ba28c7fdd7df3e991",
    ("bounds 3 3..44", "contradicting"):
        "ac96b5a46a0cd8ea3173dae6d0e054c8f62ac166778af46af8456533bff86810",
    ("bounds 4 3..44", "contradicting"):
        "7723679235b71f59b5444de9e3106b9bc853dd8eb6bfb1e1ed6690a9dd61dca7",
    ("bounds 5 3..44", "contradicting"):
        "12f966d64ddc2fd7acc08450aaafafd6cebcef8fe99336f79eb7c53873130d44",
    ("bounds 6 3..44", "contradicting"):
        "c362f77bb049d561459118e1b3279fba3abbfe04a21285c9326a465077e69cd7",
    ("bounds 7 3..44", "contradicting"):
        "7c43bf461500f15f32eb309c8e119abaa2a49762a80423e15c5e76c0f1c85f8e",
    ("bounds 8 3..44", "contradicting"):
        "c3aa1a5e50d728eb1c4dd7c5393ab19153fae3c0083a3c7b1742a206dbeaa84a",
    ("verylast 3..30", "md"): "0f506b7f4de6813f4938b361597988393234eff8fbd03bc298a1d8be113a7f9e",
    ("verylast 3..30", "csv"): "ec6d0f0b8ba8aa05b7e652fab4d22bd14f7aa092cc8755c4d26bdc65a839b02f",
    ("verylast 3..30", "json"): "2f669ce1186d377d5f53b2bd02e989444f041d2cbfa333e744f1eb24252b02f2",
}


def _pinned_run(capsys, argvs):
    """The exit codes of running every argv, and one sha256 over each
    argv's stdout, stderr and exit code."""
    digest = hashlib.sha256()
    codes = set()
    for argv in argvs:
        code, out, err = run_cli(capsys, *argv)
        codes.add(code)
        digest.update(f"$ {' '.join(argv)}\n{code}\n{out}\0{err}\0".encode())
    return codes, digest.hexdigest()


@pytest.mark.parametrize("key", LEDGER_SHA256, ids=str)
def test_ledger_output_is_pinned(capsys, key):
    codes, digest = _pinned_run(capsys, LEDGER_ARGV[key])
    # gamma above the Brill-Noether maximum exits 2; every other argv runs
    assert codes - {2} == {3 if key[1] == "contradicting" else 0}
    assert digest == LEDGER_SHA256[key]


RECORD_ARGV = {
    "profile": [["profile", *dr] for dr in (("10", "4"), ("13", "5"), ("21", "6"),
                                            ("5", "3", "--lenient"), ("5", "3"))],
    "classify": [["classify", str(d), str(r)] for r in (3, 5, 8) for d in range(2 * r, 6 * r)],
    "embed": [["embed", *args] for args in (("4", "12", "3"), ("3", "7", "2"), ("5", "20", "4"),
                                            ("3", "5", "2"), ("4", "9", "1"))],
    "slope": [["slope", str(d), str(r), *gamma] for r in (3, 5, 7) for d in range(2 * r + 1, 5 * r)
              for gamma in ((), ("--gamma", "4"))],
    "slope --family": [["slope", "--family", family] for family in
                       ("hyperelliptic", "trigonal", "bielliptic", "general_fourgonal")],
    "bounds": [["bounds", str(gamma), str(g)] for gamma in (2, 4, 7) for g in (6, 15, 30)],
    "bounds --assume": [["bounds", str(gamma), str(g), *_assume(kind, gamma, g)]
                        for gamma in (3, 5) for g in (12, 25)
                        for kind in ("true", "contradicting")],
    "table1": [["table1", "--gamma-max", gamma_max, "--mode", mode]
               for gamma_max in ("6", "40") for mode in ("paper-faithful", "resolved")],
    "plane": [["plane", str(k)] for k in (4, 7, 12)],
    "plane --r": [["plane", str(k), "--r", str(r)] for k in (4, 9) for r in (1, 2, 5, 40)],
    "selfcheck": [["selfcheck"]],
}

# sha256 over every argv's stdout, stderr and exit code, as the renderers
# gave them while md and csv read a dict record at the fieldnames and
# json wrote the dict's own keys: every byte of these tables is pinned.
# The plane pins date from the rows r >= g taking the tag riemann-roch.
RECORD_SHA256 = {
    ('profile', 'md'): 'e8af3bb9080de1ee3243ac0f64c679421637ff692861bb690b9ba6e3251e0ab3',
    ('profile', 'csv'): '9eaa607b25d92cef4204aad968680c738d0454c4ef3d984b2421887b0aa7ff0e',
    ('profile', 'json'): '487dced41d10908998399e0bab0a32a4b9f8ad2333ebe653eb40f6b027236382',
    ('classify', 'md'): '118b7134c5a6307aae4f50f01e5f41762ad7d3002529b16925d0727255cb6f67',
    ('classify', 'csv'): 'a5e8bfc7ebddf409679fb6eb0fce85f470171c30afdf6e895c865a6593482f64',
    ('classify', 'json'): 'fa9ffd263b47b73f4733c69665eaf4fc14a72d8a4340a7b075b2fcb75a853b64',
    ('embed', 'md'): 'e8b02cdd8a97a563deab3f62856ea40e7547c49e7eca2f243504402b934eeb3f',
    ('embed', 'csv'): '85bf35a8d3f72cb97f02fc0a68051166406f5ffb275b2203804cd9fd74669a9e',
    ('embed', 'json'): '36ba3d037d705ccc1ad75efd1e6678057913bd7fab5021c77f9c98e5051503c0',
    ('slope', 'md'): '679a72be50836fc3a1e587bb0e467d8a7fae6b8bbed666b7678b7eeb36ec51ef',
    ('slope', 'csv'): 'f1e73739fd943a082ac8c4163957a5babbaed2f92ee1c38de7d78761b4ba12fb',
    ('slope', 'json'): '76294f02ec16422001ef05cee423f81be10258c7d953d7757c3a499a039f9827',
    ('slope --family', 'md'): '34f2343c1234418ee0f738261aa11e8245d330a04a0f1905965814ad8d0c9b5e',
    ('slope --family', 'csv'): '6c5257e0905a90aec2054bca307306ae1254fa6b977fadadc5bd666881bdf0a3',
    ('slope --family', 'json'): 'd06515ed375c6ac4b8a867ed8a315e1f4303b958a1f0840d220681804845d69d',
    ('bounds', 'md'): '472c629ae9d5dec6be32a4940deaa67869467f44223f2ac7f2fd958c2b12af73',
    ('bounds', 'csv'): 'bc17515d0284251be7652205103a3dc02de6a132f6f643d18698991c5b09507f',
    ('bounds', 'json'): '23e1e4f98c7e7645199341df59eca0979649e90c3dd34bc2f101625a7f2a6d30',
    ('bounds --assume', 'md'): 'f3986c841df6628e881feda4b0a832ba74880e7d955c48c1011a9e294eb23497',
    ('bounds --assume', 'csv'): '43d5f9d7cad6346c03a63a7743f2f78fa15ca75de023b1ee80827c1d7011a8c7',
    ('bounds --assume', 'json'):
        '21f59a619027a3dca36f8cc2bd8004338a33f66ba7e3b0dd11179c6713b7ab7c',
    ('table1', 'md'): 'b1f25fb88fac0e0163c544b129a86a83f624caf144263a75ea5712598d72037a',
    ('table1', 'csv'): 'bdef264b1bbca2c4af60907504531125e20c821c743d72633a7c328fee8700dd',
    ('table1', 'json'): '93c31595289a0289bac33aeb2e7149dc119382df99f3df602afbc888986fd9db',
    ('plane', 'md'): '9dbbae42e113bea99e22cff8227701b15608ef16f2a788efe002ecca430e09e9',
    ('plane', 'csv'): '92fe966b606e6257a7499db35ecac661d40ddb1b5b6eae4209925c490dfd1a45',
    ('plane', 'json'): '5be8f923744b72b6b0c6b52aa3e790f65472594faa1f309b45ebad4608097258',
    ('plane --r', 'md'): '35e0701884084e5458e8fefddafaace2d246ff9ab6f6826539ba8152e59710b5',
    ('plane --r', 'csv'): '1c6adf5580475d44423ccd0f0f1d2e008fb56022cbb288f4c524eecf25f6cdf2',
    ('plane --r', 'json'): '70f561e04fc453ee74da4f5d9b6170f8f0486278df5e94921ea05b693c6645a8',
    ('selfcheck', 'md'): '1d23d6da041500b6281c89d54f4ed5fef399b22e543de1ec22f4053433075c5a',
    ('selfcheck', 'csv'): '3ef59ec812dd03a7c9c7eea20eebe9bb0c87a2119c3b2d1406d7b939cd6e2979',
    ('selfcheck', 'json'): '40c6d3874457947b4317efc7348aa8f5a616a68659643ef221c374cdb341b56d',
}


@pytest.mark.parametrize("key", RECORD_SHA256, ids=str)
def test_record_tables_are_pinned(capsys, key):
    name, fmt = key
    argvs = [[*argv, "--format", fmt] for argv in RECORD_ARGV[name]]
    assert _pinned_run(capsys, argvs)[1] == RECORD_SHA256[key]


class _CountingSink:
    chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)


def _traced_peak(argv):
    """Peak bytes the interpreter allocates while ``run(argv)`` runs."""
    with contextlib.redirect_stdout(_CountingSink()) as sink:
        tracemalloc.start()
        try:
            assert run(argv) == 0
            return tracemalloc.get_traced_memory()[1], sink.chars
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_scan_memory_is_flat_in_the_window(fmt):
    with contextlib.redirect_stdout(_CountingSink()):  # loads what the format uses
        run(["scan", "3", "24", "--format", fmt])
    small, small_chars = _traced_peak(["scan", "3", "24", "--format", fmt])
    large, large_chars = _traced_peak(["scan", "3", "96", "--format", fmt])
    assert large_chars > 15 * small_chars
    assert max(small, large) < 2 * 2**20
    assert large < 2 * small


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_bounds_holds_no_more_than_its_ledger(fmt):
    # the entries stream off the closed ledger; a list of them took about 3.8x its peak
    with contextlib.redirect_stdout(_CountingSink()):  # loads what the format uses
        run(["bounds", "4", "12", "--format", fmt])
    tracemalloc.start()
    try:
        extremalcurves.gonality.baseline_ledger(4, 40000)
        ledger = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    peak, chars = _traced_peak(["bounds", "4", "40000", "--format", fmt])
    assert chars > 40000 * 30
    assert peak < 1.2 * ledger


def test_verylast_json(capsys):
    code, out, _ = run_cli(capsys, "verylast", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "n": 3,
        "gamma": 4,
        "genus": 15,
        "rows": [{"a": 0, "r": 4, "degree": 12, "eps": 2}],
        "entries": [
            {"r": 3, "lo": 11, "hi": 11, "exact": True, "tags": "extremal-drop"},
            {"r": 4, "lo": 12, "hi": 12, "exact": True, "tags": "extremal-degree"},
            {"r": 5, "lo": 13, "hi": 15, "exact": False,
             "tags": "extremal-degree gonal-residual"},
        ],
    }


def test_verylast_markdown(capsys):
    code, out, _ = run_cli(capsys, "verylast", "4")
    assert code == 0
    assert out == (
        "n=4 gamma=4 genus=21\n"
        "\n"
        "| a | r | degree | eps |\n"
        "| --- | --- | --- | --- |\n"
        "| 0 | 5 | 16 | 3 |\n"
        "\n"
        "| r | lo | hi | exact | tags |\n"
        "| --- | --- | --- | --- | --- |\n"
        "| 4 | 15 | 15 | True | extremal-drop |\n"
        "| 5 | 16 | 16 | True | extremal-degree |\n"
        "| 6 | 17 | 19 | False | extremal-degree gonal-residual |\n"
    )


def test_markdown_verylast_streams():
    # the k=v line, then each table after a blank line, in batches as its
    # records are made: no write holds the whole document
    writes = []
    with contextlib.redirect_stdout(SimpleNamespace(write=writes.append)):
        assert run(["verylast", "2000"]) == 0
    document = "".join(writes)
    led, rows = extremalcurves.gonality.verylast_sequence(2000)
    entries = [_entry_record(led.entry(r)) for r in range(rows[0].r - 1, rows[-1].r + 2)]
    assert document == (f"n=2000 gamma=4 genus={led.g}\n\n"
                        + serialize([row.record() for row in rows], "md") + "\n"
                        + serialize(entries, "md"))
    assert max(map(len, writes)) < len(document)


def test_verylast_csv_is_entries_only(capsys):
    code, out, _ = run_cli(capsys, "verylast", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "r,lo,hi,exact,tags",
        "3,11,11,True,extremal-drop",
        "4,12,12,True,extremal-degree",
        "5,13,15,False,extremal-degree gonal-residual",
    ]


def test_verylast_validation(capsys):
    code, _, err = run_cli(capsys, "verylast", "2")
    assert code == 2 and "n >= 3" in err


def test_plane_single_index(capsys):
    code, out, _ = run_cli(capsys, "plane", "7", "--r", "5", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "r": 5, "d_r": 14, "status": "violated", "tag": "noether-block",
    }


def test_plane_full_table(capsys):
    code, out, _ = run_cli(capsys, "plane", "7")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "| r | d_r | status | tag |"
    assert len(lines) == 2 + 17  # indices 1..g+2 with g=15
    assert lines[2] == "| 1 | 6 | holds | noether-step |"


def test_selfcheck(capsys):
    assert run_cli(capsys, "selfcheck") == (0, "ok 19357 checks\n", "")


def test_selfcheck_groups_sum_to_the_count(capsys):
    total = int(run_cli(capsys, "selfcheck")[1].split()[1])
    code, out, err = run_cli(capsys, "selfcheck", "--format", "json")
    records = json.loads(out)
    assert code == 0 and err == ""
    assert [rec["group"] for rec in records] == list(selfcheck.GROUPS)
    assert sum(rec["checks"] for rec in records) == total
    assert all(rec["failed"] == 0 for rec in records)
    code, out, err = run_cli(capsys, "selfcheck", "--format", "csv")
    head, *rows = out.splitlines()
    assert code == 0 and err == "" and head == "group,checks,failed"
    assert rows == [f"{rec['group']},{rec['checks']},0" for rec in records]


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_selfcheck_failure(capsys, monkeypatch, fmt):
    fake = {"fake": lambda: iter([(True, "fine"), (False, "broke")])}
    monkeypatch.setattr(selfcheck, "GROUPS", fake)
    code, out, err = run_cli(capsys, "selfcheck", "--format", fmt)
    assert (code, out, err) == (1, "", "broke\n1 of 2 checks failed\n")


ENGINE_ERRORS = [InvalidInput("boom"), EmbeddingError("boom"),
                 ContradictionError(2, 9, 8, "assume", "gonal-ceiling"), ArithmeticError("boom")]


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
@pytest.mark.parametrize("error", ENGINE_ERRORS, ids=lambda e: type(e).__name__)
def test_selfcheck_group_error_is_a_failed_check(capsys, monkeypatch, fmt, error):
    embedding_checks = selfcheck.tally(selfcheck.embedding())[0]

    def broken(*args):
        raise error

    monkeypatch.setattr(selfcheck, "embed_extremal", broken)
    code, out, err = run_cli(capsys, "selfcheck", "--format", fmt)
    assert (code, out) == (1, "")
    # the error is one failed check, and every other group still ran
    total = 19357 - embedding_checks + 1
    assert err == f"group embedding raised {type(error).__name__}: {error}\n" \
                  f"1 of {total} checks failed\n"


@pytest.mark.parametrize("argv", [["bounds", "2", str(10**20)], ["verylast", str(10**20)]],
                         ids=" ".join)
def test_input_too_large_exits_two(capsys, argv):
    # both raise OverflowError when the ledger's arrays are sized, before
    # allocating; verylast builds its ledger before it runs the sweep
    assert run_cli(capsys, *argv) == (2, "", "error: input too large to hold (OverflowError)\n")


def test_memory_error_exits_two(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(extremalcurves.gonality, "baseline_ledger", exhausted)
    assert run_cli(capsys, "bounds", "2", "12") == (
        2, "", "error: input too large to hold (MemoryError)\n")


@pytest.mark.parametrize("error", [ArithmeticError("genus broke"), ZeroDivisionError("by 0")],
                         ids=lambda e: type(e).__name__)
def test_internal_fault_exits_four(capsys, monkeypatch, error):
    def broken(args):
        raise error

    monkeypatch.setattr(extremalcurves.commands, "_cmd_profile", broken)
    assert run_cli(capsys, "profile", "10", "4") == (
        4, "", f"internal error: {type(error).__name__}: {error}\n")


def test_a_negative_genus_is_an_internal_fault(capsys, monkeypatch):
    # no irreducible-smoothable class has one, so it blames the package, not the input
    monkeypatch.setattr(extremalcurves.lattice, "formal_genus", lambda x: -1)
    assert run_cli(capsys, "embed", "4", "12", "3") == (
        4, "", "internal error: ArithmeticError: negative genus -1 for 4*C0 + 12*L on F3\n")


BROKEN_LATTICE = """
import sys
import extremalcurves.lattice as lattice
from extremalcurves.cli import main
genus = lattice.adjunction_genus
lattice.adjunction_genus = lambda x: genus(x) + 1
sys.argv = ["extremalcurves", "verylast", "5"]
main()
"""


def _internal_fault_in_a_child(code: str) -> str:
    """Run code in a child; it must exit 4 with one stderr line and no traceback."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env(), timeout=60)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    return proc.stderr


def test_internal_fault_in_a_child_prints_no_traceback():
    # a wrong genus trips the foursecant sweep's own invariant check
    assert _internal_fault_in_a_child(BROKEN_LATTICE).startswith(
        "internal error: ArithmeticError: foursecant invariants broke")


BROKEN_SCROLL_CLASS = """
import sys
import extremalcurves.lattice as lattice
from extremalcurves.cli import main
rewrite = lattice.class_in_HL
lattice.class_in_HL = lambda x, scroll: (rewrite(x, scroll)[0], rewrite(x, scroll)[1] + 1)
sys.argv = ["extremalcurves", *{argv!r}]
main()
"""


@pytest.fixture
def wrong_scroll_class(monkeypatch):
    """In process, ``lattice.class_in_HL`` gives l+1, as BROKEN_SCROLL_CLASS
    makes it do in a child."""
    rewrite = extremalcurves.lattice.class_in_HL
    monkeypatch.setattr(extremalcurves.lattice, "class_in_HL",
                        lambda x, scroll: (rewrite(x, scroll)[0], rewrite(x, scroll)[1] + 1))


def test_wrong_scroll_class_trips_the_foursecant_cross_check(wrong_scroll_class):
    # the sweep's models are checked against the lattice's class, in process
    # and in a child, which reports one internal error and no traceback
    with pytest.raises(ArithmeticError, match="re-embedding a=0 is not extremal"):
        extremalcurves.gonality.verylast_sequence(7)
    child = BROKEN_SCROLL_CLASS.format(argv=["verylast", "7"])
    assert _internal_fault_in_a_child(child).startswith(
        "internal error: ArithmeticError: re-embedding a=0 is not extremal")


def test_wrong_scroll_class_trips_the_embedding_cross_check(wrong_scroll_class):
    # a model that disagrees with the lattice is a fault of the package, not
    # of the input: an internal error (exit 4), not invalid input (exit 2)
    with pytest.raises(ArithmeticError, match="embedding invariants broke"):
        embed_extremal(4, 12, 3)
    child = BROKEN_SCROLL_CLASS.format(argv=["embed", "4", "12", "3"])
    assert _internal_fault_in_a_child(child).startswith(
        "internal error: ArithmeticError: embedding invariants broke")


def _md_records(text: str) -> list[dict]:
    """Records back from a markdown pipe table or a ``k=v`` line."""
    head, *rows = text.splitlines()
    if not head.startswith("|"):
        assert not rows
        return [dict(re.findall(r"(\w+)=(.*?)(?= \w+=|$)", head))]
    fields = head[2:-2].split(" | ")
    return [dict(zip(fields, row[2:-2].split(" | "), strict=True)) for row in rows[1:]]


def _csv_records(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _json_records(value) -> list[dict]:
    records = value if isinstance(value, list) else [value]
    return [{k: _cell(v) for k, v in rec.items()} for rec in records]


FORMAT_ARGV = [
    ["profile", "10", "4"], ["classify", "13", "5"], ["embed", "4", "12", "3"],
    ["bounds", "4", "12"], ["slope", "13", "5"], ["slope", "--family", "trigonal"],
    ["table1"], ["scan", "3", "4"], ["plane", "7"], ["plane", "7", "--r", "5"],
]


@pytest.mark.parametrize("argv", FORMAT_ARGV, ids=" ".join)
def test_formats_give_the_same_records(capsys, argv):
    outs = {}
    for fmt in ("md", "csv", "json"):
        code, outs[fmt], err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
    records = _json_records(json.loads(outs["json"]))
    assert records
    assert _csv_records(outs["csv"]) == records
    assert _md_records(outs["md"]) == records


def test_embed_is_extremal_exactly_in_the_regime(capsys):
    parsers = {"md": _md_records, "csv": _csv_records,
               "json": lambda text: _json_records(json.loads(text))}
    valid = below = 0
    for n in range(6):
        for gamma in range(3, 9):
            for lam in range(60):
                argv = ["embed", str(gamma), str(lam), str(n)]
                for fmt, parse in parsers.items():
                    code, out, err = run_cli(capsys, *argv, "--format", fmt)
                    if code == 2 and fmt == "md":
                        break  # not a valid embedding
                    assert (code, err) == (0, "")
                    (rec,) = parse(out)
                    g, lam_, n_, r, d = (int(rec[k]) for k in ("gamma", "lambda", "n", "r", "d"))
                    hypothesis = 2 * lam_ >= g * (g + n_ - 2)
                    assert rec["extremal"] == str(hypothesis and d >= 2 * r + 1), (argv, fmt)
                else:
                    valid += 1
                    if hypothesis and d < 2 * r + 1:
                        below += 1
                        assert (g, d) == (3, 2 * r - 1), argv
    assert (valid, below) == (1606, 316)


def test_verylast_formats_agree(capsys):
    outs = {fmt: run_cli(capsys, "verylast", "6", "--format", fmt)[1]
            for fmt in ("md", "csv", "json")}
    entries = _json_records(json.loads(outs["json"])["entries"])
    assert len(entries) == 5
    assert _csv_records(outs["csv"]) == entries
    assert _md_records(outs["md"].split("\n\n")[2]) == entries


# one plain argv per subcommand: its handler writes the output itself and
# returns the exit code, so run adds nothing to what the handler prints
HANDLER_ARGV = ["profile 10 4", "classify 13 5", "embed 4 12 3", "bounds 4 12", "slope 13 5",
                "table1", "scan 3 12", "verylast 5", "plane 7", "selfcheck"]


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
@pytest.mark.parametrize("argv", HANDLER_ARGV)
def test_a_handler_writes_its_output_and_returns_its_code(capsys, argv, fmt):
    argv = [*argv.split(), "--format", fmt]
    args = extremalcurves.cli._read(argv)
    name = f"_cmd_{args.command}"
    code = (getattr(extremalcurves.cli, name, None) or getattr(extremalcurves.commands, name))(args)
    out = capsys.readouterr().out
    assert type(code) is int
    assert run_cli(capsys, *argv) == (code, out, "")


def test_version(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0 and re.fullmatch(r"\d+\.\d+\.\d+\n", out)


def test_usage_errors(capsys):
    assert run_cli(capsys, "profile", "ten", "4")[0] == 2
    assert run_cli(capsys, "profile", "10", "4", "--format", "toml")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys)[0] == 2


COMMANDS = ("profile", "classify", "embed", "bounds", "slope", "table1", "scan",
            "verylast", "plane", "selfcheck")
PARSER_ARGV = [
    [], ["--help"], ["-h"], ["--version"], ["--vers"], ["-x"], ["nonsense"], ["-", "scan"],
    ["--", "scan", "3", "4"], ["--bogus", "scan", "3", "4"], ["scan", "3", "4", "--version"],
    ["--format", "json", "scan", "3", "4"], ["scan", "3", "4", "plane"],
] + [[cmd, *tail] for cmd in COMMANDS
     for tail in (["--help"], [], ["x"], ["1", "2", "3", "4"], ["--format", "toml"])]


# sha256 over every PARSER_ARGV's stdout, stderr and exit code at an
# 80-column terminal (argparse wraps help to the terminal width), as the
# parser gave them while every subparser took --format from a shared parent.
PARSER_SHA256 = "53aede4fcae0c00c604a69a18933e5edaa5038f6a34972fc3cd25864aeb0510f"


def test_parser_text_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _pinned_run(capsys, PARSER_ARGV)[1] == PARSER_SHA256


README_ARGV = [shlex.split(re.split(r" \| |; ", command)[0]) for command in re.findall(
    r"^    \$ extremalcurves (.*)$",
    (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8"), re.MULTILINE)]


def _plain_argv() -> list[list[str]]:
    """Plain argv for every subcommand and format, from the grammar: the
    positionals (and none where all are optional), then no option, each
    value of each option, or every option, with --format first or last."""
    argvs = []
    for command, (_, *spec) in extremalcurves.cli.COMMANDS.items():
        positionals = [str(7 + i) for i, (arg, _) in enumerate(spec) if arg[0] != "-"]
        options = {}
        for arg, kw in spec:
            if arg[0] != "-":
                continue
            if kw.get("action") == "store_true":
                options[arg] = [[arg]]
            elif "choices" in kw:
                options[arg] = [[arg, value] for value in extremalcurves.cli._late(kw["choices"])]
            elif kw.get("type") is int:
                options[arg] = [[arg, "0"], [arg, "12"]]
            else:
                options[arg] = [[arg, "2=5"], [arg, "2=5", arg, "3:7"]]
        tails = [[], [token for variants in options.values() for token in variants[-1]]]
        tails += [variant for variants in options.values() for variant in variants]
        heads = [positionals] + ([[]] if all("nargs" in kw for arg, kw in spec if arg[0] != "-")
                                 else [])
        for head in heads:
            for tail in tails:
                for fmt in ("md", "csv", "json"):
                    argvs += [[command, *head, *tail, "--format", fmt],
                              [command, *head, "--format", fmt, *tail]]
    return argvs


# argv the reader leaves to argparse: help, version, abbreviations, an
# attached value, "--", a sign, non-ASCII digits, an int past the
# interpreter's digit limit, a repeated option, a positional after an option
DECLINED = [
    ["scan", "3", "4", "-h"], ["scan", "3", "4", "--help"], ["--version"], ["profile", "--version"],
    ["scan", "3", "4", "--form", "csv"], ["scan", "3", "4", "--format=csv"],
    ["--", "scan", "3", "4"], ["scan", "3", "--", "4"], ["scan", "3", "4", "--"],
    ["profile", "-5", "4"], ["profile", "10", "+4"], ["profile", "\u0663", "4"], ["profile", " 10", "4"],
    ["profile", "1_0", "4"], ["profile", "5" * 5000, "4"], ["plane", "7", "--r", "-1"],
    ["profile", "10", "4", "--lenient", "--lenient"], ["scan", "3", "4", "--d-max", "9", "--d-max", "9"],
    ["scan", "3", "4", "--format", "csv", "--format", "json"], ["slope", "13", "--gamma", "4", "5"],
    ["slope", "13"], ["slope", "--family", "trigonal", "13", "5"], ["profile", "10"],
    ["profile", "10", "4", "5"], ["table1", "--mode", "fast"], ["plane", "7", "--r"],
    ["bounds", "4", "12", "--assume", "-2=5"], ["bounds", "4", "12", "--assume"], ["Profile", "10", "4"],
    ["profile", "10", "4", "lenient"], ["profile", "", "4"], ["table1", "--gamma-max", "x"],
]


def test_the_reader_agrees_with_the_whole_parser():
    # the reader must give argparse's namespace wherever it answers, and
    # answer every plain argv: one that declined everything would fail here
    whole = extremalcurves.usage.build_parser()
    plain = _plain_argv()
    assert len(plain) > 300
    assert all(extremalcurves.cli._read(argv) is not None for argv in plain)
    assert all(extremalcurves.cli._read(argv) is None for argv in DECLINED)
    read = 0
    for argv in PARSER_ARGV + README_ARGV + plain + DECLINED:
        args = extremalcurves.cli._read(argv)
        if args is not None:
            assert vars(args) == vars(whole.parse_args(argv)), argv
            read += 1
    assert read > len(plain)


# valid argv the reader leaves to argparse, each with its plain spelling
SPELLINGS = {
    "scan 3 4 --format=csv": "scan 3 4 --format csv",
    "scan 3 4 --form csv": "scan 3 4 --format csv",
    "scan 3 -- 4": "scan 3 4",
    "profile 10 4 --lenient --lenient": "profile 10 4 --lenient",
    "scan 3 4 --d-max 9 --d-max 9": "scan 3 4 --d-max 9",
    "scan 3 4 --format csv --format json": "scan 3 4 --format json",
    "profile --format json 10 4": "profile 10 4 --format json",
    "bounds 4 12 --assume=2=5": "bounds 4 12 --assume 2=5",
}


@pytest.mark.parametrize("argv", SPELLINGS)
def test_the_whole_parser_runs_as_the_plain_spelling(capsys, argv):
    # a call through argparse must print what its plain spelling prints
    declined, plain = argv.split(), SPELLINGS[argv].split()
    assert extremalcurves.cli._read(declined) is None
    assert extremalcurves.cli._read(plain) is not None
    got = run_cli(capsys, *declined)
    assert got[0] == 0 and got[1]
    assert got == run_cli(capsys, *plain)


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full to write to")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["profile", "10", "4"], ["scan", "3", "40"], ["--help"],
                                  ["--version"], ["scan", "3", "4", "-h"]], ids=" ".join)
def test_unwritable_stdout_exits_two(argv, unbuffered):
    # a full disk is an error of the call, reported on one line: no
    # traceback, and not the selfcheck-failure exit 1
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "extremalcurves", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=60,
                              env=dict(child_env(), PYTHONUNBUFFERED=unbuffered))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


# per call: the child's arguments and the exit code it earns
STDERR_CALLS = {
    "profile 10 4": (["-m", "extremalcurves", "profile", "10", "4"], 0),
    "profile 2 4": (["-m", "extremalcurves", "profile", "2", "4"], 2),
    "profile x 4": (["-m", "extremalcurves", "profile", "x", "4"], 2),
    "bounds 4 12 --assume 2=9": (["-m", "extremalcurves", "bounds", "4", "12", "--assume", "2=9"], 3),
    "broken lattice": (["-c", BROKEN_LATTICE], 4),
}


@pytest.mark.skipif(not Path("/dev/full").exists() or os.name != "posix",
                    reason="writes stderr to /dev/full and closes fd 2 in the child")
@pytest.mark.parametrize("stderr", ["full", "closed"])
@pytest.mark.parametrize("call", STDERR_CALLS)
def test_unwritable_stderr_keeps_the_exit_code(call, stderr):
    # a diagnostic that cannot be written is dropped, and the call exits
    # with the code it earned, not the selfcheck-failure exit 1
    args, code = STDERR_CALLS[call]
    with open("/dev/full", "wb") as full:
        redirect = {"full": {"stderr": full}, "closed": {"preexec_fn": lambda: os.close(2)}}
        proc = subprocess.run([sys.executable, *args], stdout=subprocess.PIPE, text=True,
                              timeout=60, env=child_env(), **redirect[stderr])
    assert proc.returncode == code
    assert proc.stdout == ("m=3 eps=0 pi=9\n" if code == 0 else "")


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 in the child before exec")
@pytest.mark.parametrize("argv", [["profile", "10", "4"], ["--help"], ["--version"],
                                  ["scan", "3", "4", "-h"], ["profile", "x", "4"],
                                  ["bounds", "4", "12", "--assume", "2=9"]], ids=" ".join)
def test_closed_stdout_exits_two(argv):
    # started with fd 1 closed, Python has no sys.stdout at all: every call,
    # a usage error and a contradiction included, exits 2 on one line
    proc = subprocess.run([sys.executable, "-m", "extremalcurves", *argv],
                          preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE,
                          text=True, timeout=60, env=child_env())
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write output: stdout is closed\n"


# main ends the process: each exit keeps its code, and the collector is frozen
# first, so the interpreter's exit collections skip every object still alive
MAIN_EXITS = {"profile 10 4": 0, "profile 3 10": 2, "bounds 4 12 --assume 2=9": 3}
MAIN_CHILD = """
import gc, io, sys
from extremalcurves.cli import main
for argv in {argvs!r}:
    gc.unfreeze()
    sys.argv, sys.stdout, sys.stderr = ["extremalcurves", *argv], io.StringIO(), io.StringIO()
    try:
        main()
    except SystemExit as exc:
        print(exc.code, gc.get_freeze_count() > 0, file=sys.__stdout__)
"""


def test_main_freezes_the_collector_before_it_exits():
    proc = subprocess.run(
        [sys.executable, "-c", MAIN_CHILD.format(argvs=[argv.split() for argv in MAIN_EXITS])],
        capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{code} True" for code in MAIN_EXITS.values()]


# Frozen objects are never collected, so a cycle still alive at exit is never
# finalized.  A plain call in md leaves no cycle at all: one per subcommand, an
# input error and a contradiction; nor does a json record.  argparse (help,
# version and every usage error) does leave cycles: the parsers with their
# formatters.  Those hold no object with a finalizer.
NO_CYCLES = ["profile 10 4", "classify 13 5", "embed 4 12 3", "bounds 4 12", "slope 13 5",
             "table1", "scan 3 12", "verylast 5", "plane 7", "selfcheck", "profile 3 10",
             "bounds 4 12 --assume 2=9", "profile 10 4 --format json",
             "verylast 5 --format json", "embed 4 12 3 --format json"]
NO_FINALIZERS = ["profile x 4", "--version"]
GARBAGE_CHILD = """
import gc, io, sys
from extremalcurves.cli import run
gc.collect()
gc.set_debug(gc.DEBUG_SAVEALL)
for argv in {argvs!r}:
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    run(argv.split())
    sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    freed = gc.collect()
    final = sorted({{type(o).__name__ for o in gc.garbage if hasattr(type(o), "__del__")}})
    gc.garbage.clear()
    print(freed > 0, *final)
"""


def test_a_call_leaves_no_garbage_to_finalize():
    proc = subprocess.run(
        [sys.executable, "-c", GARBAGE_CHILD.format(argvs=NO_CYCLES + NO_FINALIZERS)],
        capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False"] * len(NO_CYCLES) + ["True"] * len(NO_FINALIZERS)


def test_module_invocation_contradiction():
    proc = subprocess.run(
        [sys.executable, "-m", "extremalcurves", "bounds", "4", "12",
         "--assume", "2=9"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 3
    assert "assume" in proc.stderr and "gonal-ceiling" in proc.stderr


def test_module_invocation_unicode():
    proc = subprocess.run(
        [sys.executable, "-m", "extremalcurves", "table1"],
        capture_output=True, text=True, encoding="utf-8", env=child_env(),
    )
    assert proc.returncode == 0
    assert "★" in proc.stdout
