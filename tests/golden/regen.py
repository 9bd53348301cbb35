"""The byte-identity corpus of the gauduchon CLI: one sha256 per command line.

Every command line runs in process through ``gauduchon.cli.main``, in a
scratch directory, in the order listed here; its digest covers the exit
code, stdout and stderr.  The corpus covers:

  * ``catalog list``, and ``catalog emit`` of every catalog point below and
    of both contact entries (the emitted text is saved and used as input);
  * ``bundle-extend`` of both contact entries, as text and ``--json``;
  * ``classify``, as text and ``--json``, for METRICS metrics per point;
  * the same classify lines, with no search block, for the structures of
    CLASSIFY_ONLY, which reach branches the points miss;
  * ``search`` for every target and k, at SEEDS with budget BUDGET;
  * ``search`` on the n = 5 structure for the k >= 3 targets of N5_SEARCHES,
    at the first seed;
  * ``search --family`` on a point of each closed-form family, for a target
    its closed forms certify and one they leave to sampling (FAMILY_SEARCHES);
  * ``verify-paper --json``, with every claim's elapsed time set to 0;
  * one bad input per error route (BAD_INPUTS), each ending in one line on
    stderr with exit 2, or exit 1 for the metric that is not positive.

The metric files are written here from this script's own seeded draws, so
they do not depend on the package.  Argparse usage errors and OSError lines
are left out: their text differs between Python versions and systems.  A
few outputs are also kept literally (LITERAL), for a reader to inspect.

Usage, from the root of a checkout:

    PYTHONPATH=src python tests/golden/regen.py          # rewrite the corpus
    PYTHONPATH=src python tests/golden/regen.py --check  # exit 1 on the first drift

--check names the first command line that drifted, with its exit code and
stderr.  A change that moves an output on purpose commits the rewritten
digests and quotes the old and new output in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "cli_digests.txt"

# (file stem, family, --param values): catalog points the verify claims
# share, plus a nilpotent6 point with complex parameters; n = 4 for family8
POINTS = [
    ("iwasawa", "iwasawa", []),
    ("nonnilpotent6-0p", "nonnilpotent6", ["eps=0", "sign=1"]),
    ("nonnilpotent6-1m", "nonnilpotent6", ["eps=1", "sign=-1"]),
    ("reduced6", "reduced6", ["rho=0", "B=0", "x=1", "y=0"]),
    ("jt-half", "jt", ["t=1/2"]),
    ("nilpotent6-a", "nilpotent6", ["eps=1", "rho=1", "A=0", "B=1", "C=1", "D=0"]),
    ("nilpotent6-b", "nilpotent6", ["eps=0", "rho=1", "A=1", "B=1/2i", "C=0", "D=-1+2i"]),
    ("abelian-3", "abelian", ["n=3"]),
    ("family8-a", "family8", ["p=1", "q=0"]),
    ("family8-b", "family8", ["p=-1", "q=2"]),
]
# (point stem, family, a target its closed forms certify, a sampled target)
FAMILY_SEARCHES = [
    ("nilpotent6-b", "nilpotent6", "gamma1<0", "balanced"),
    ("reduced6", "reduced6", "gamma1>0", "balanced"),
    ("jt-half", "jt", "skt", "gamma2<0"),
    ("family8-a", "family8", "skt", "balanced"),
    ("nonnilpotent6-0p", "nonnilpotent6", "gamma1>0", "balanced"),
]
# (file stem, catalog emit argv or DSL text): abelian n = 2 has only k = 1,
# with no Omega^{n-3} term; N5 is the non-Kahler n = 5 structure of bench/n5.dsl
N5 = "n: 5\ndw1: 0\ndw2: w1^~w1\ndw3: w1^~w1\ndw4: w1^w2\ndw5: w1^~w2\n"
CLASSIFY_ONLY = [
    ("abelian-2", ["catalog", "emit", "abelian", "--param", "n=2"]),
    ("n5", N5),
]
# Gauduchon indices that no point reaches, as n <= 4 there
N5_SEARCHES = ("gamma3<0", "gamma3>0", "gauduchon3=0", "gauduchon4=0")
CONTACTS = ("solvable5", "heisenberg5")
METRICS = 6
SEEDS = (1, 2)
BUDGET = 100


def _cells(n: int, diagonal: str) -> list:
    """The X rows of the metric i * diagonal * Id."""
    return [[{"re": "0", "im": diagonal if j == k else "0"} for k in range(n)]
            for j in range(n)]


_ZERO_DEN = _cells(3, "1")
_ZERO_DEN[1][2] = {"re": "0", "im": "1/0"}
_W1 = {"re": "1", "im": "0", "mon": [["w", 1]]}


def _structure(n: int, last: list) -> str:
    """Structure JSON with dw1 .. dw(n-1) = 0 and last as the terms of dw_n."""
    return json.dumps({"n": n, "equations": [[]] * (n - 1) + [last]})


# structure JSON with one bad field each; every error line names the file and
# the field, as equations[j][t].<field> (j and t from 0)
_W1CW1 = dict(_W1, mon=[["w", 1], ["cw", 1]])
STRUCTURE_JSON = {
    "beyond-coframe.json": _structure(2, [_W1CW1, dict(_W1, mon=[["w", 1], ["cw", 3]])]),
    "bad-literal.json": _structure(2, [dict(_W1CW1, re="x")]),
    "missing-im.json": _structure(2, [{"re": "1", "mon": [["w", 1], ["cw", 1]]}]),
    "zero-den-structure.json": _structure(2, [dict(_W1CW1, im="1/0")]),
    "bad-kind.json": _structure(2, [dict(_W1, mon=[["w", 1], ["z", 1]])]),
    "index-zero.json": _structure(2, [dict(_W1, mon=[["w", 0], ["cw", 1]])]),
    "count.json": json.dumps({"n": 3, "equations": [[], []]}),
    "n-zero.json": json.dumps({"n": 0, "equations": []}),
}
_RAGGED = _cells(3, "1")
_RAGGED[2].pop()
_BAD_CELL = _cells(3, "1")
_BAD_CELL[0][1] = {"re": "x", "im": "0"}
_BOOL_CELL = _cells(3, "1")  # a JSON boolean is not the number 0 or 1
_BOOL_CELL[0][0] = {"re": False, "im": True}
# file name -> text or bytes, written before the BAD_INPUTS run; jt-half.dsl
# and family8-a.dsl are the corpus's own files
BAD_FILES = {
    "bad-syntax.dsl": "n:2\ndw1: w1^^w2\ndw2: 0\n",
    "bad-degree.dsl": "n: 2\ndw1: 0\ndw2: w1\n",
    "bad-degree.json": json.dumps({"n": 2, "equations": [[], [_W1]]}),
    "zero-den.json": json.dumps({"n": 3, "X": _ZERO_DEN}),
    "wrong-n.json": json.dumps({"n": 2, "X": _cells(2, "1")}),
    "negative.json": json.dumps({"n": 3, "X": _cells(3, "-1")}),
    "bad-cell.json": json.dumps({"n": 3, "X": _BAD_CELL}),
    "missing-n.json": json.dumps({"X": _cells(3, "1")}),
    "ragged.json": json.dumps({"n": 3, "X": _RAGGED}),
    "bad-encoding.dsl": b"n: 2\ndw1: 0\ndw2: 0 \xff\n",
    "bool-n.json": json.dumps({"n": True, "equations": [[]]}),
    "bool-cell.json": json.dumps({"n": 3, "X": _BOOL_CELL}),
    **STRUCTURE_JSON,
}
# the corpus's solvable5.json with one field set (None: removed);
# bad-curvature.json has the closed 1-form e1 as the curvature F
BAD_CONTACTS = {
    "bad-curvature.json": ("F", [{"coef": "1", "mon": [1]}]),
    "zero-den-xi.json": ("xi", ["0", "0", "0", "0", "1/0"]),
    "missing-phi.json": ("phi", None),
    "bad-eta.json": ("eta", [{"coef": "1", "mon": ["e5"]}]),
    "bool-xi.json": ("xi", ["0", "0", "0", "0", True]),
}
BAD_INPUTS = [
    ["check", "--structure", "bad-syntax.dsl"],
    ["check", "--structure", "bad-degree.dsl"],
    ["check", "--structure", "bad-degree.json"],
    ["classify", "--structure", "jt-half.dsl", "--metric", "zero-den.json"],
    ["classify", "--structure", "jt-half.dsl", "--metric", "wrong-n.json"],
    ["classify", "--structure", "jt-half.dsl", "--metric", "negative.json"],
    ["search", "--structure", "jt-half.dsl", "--target", "gamma<0"],
    ["search", "--structure", "jt-half.dsl", "--target", "skt", "--budget", "0"],
    ["catalog", "emit", "jt", "--param", "t=0"],
    ["verify-paper", "--only", "nope"],
    ["bundle-extend", "--contact", "bad-curvature.json"],
    ["check", "--structure", "bad-encoding.dsl"],
] + [["check", "--structure", name] for name in STRUCTURE_JSON] + [
    ["classify", "--structure", "jt-half.dsl", "--metric", "bad-cell.json"],
    ["classify", "--structure", "jt-half.dsl", "--metric", "missing-n.json"],
    ["classify", "--structure", "jt-half.dsl", "--metric", "ragged.json"],
    ["search", "--structure", "family8-a.dsl", "--target", "skt", "--family", "jt"],
    ["catalog", "emit", "nonnilpotent6", "--param", "eps=2", "--param", "sign=1"],
] + [["bundle-extend", "--contact", name]
      for name in ("zero-den-xi.json", "missing-phi.json", "bad-eta.json")] + [
    ["check", "--structure", "bool-n.json"],
    ["classify", "--structure", "jt-half.dsl", "--metric", "bool-cell.json"],
    ["bundle-extend", "--contact", "bool-xi.json"],
    ["catalog", "emit", "nilpotent6", "--param", "eps=0", "--param", "rho=0", "--param",
     "A=1#+5i", "--param", "B=1", "--param", "C=0", "--param", "D=0"],
]

# command line -> file holding its stdout verbatim
LITERAL = {
    "gauduchon catalog list": "catalog-list.out",
    "gauduchon classify --structure jt-half.dsl --metric jt-half.m2.json":
        "classify-jt-half.out",
    "gauduchon search --structure family8-a.dsl --target gauduchon1=0 --budget 100 --seed 1":
        "search-family8-a.out",
    "gauduchon bundle-extend --contact solvable5.json": "bundle-extend-solvable5.out",
}


def _run(argv: list) -> tuple:
    from gauduchon.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _metric_json(rng: random.Random, n: int, i: int) -> str:
    """Metric file i of a point: X = iH with H = 1, diag(1..n) or LL*/2 + 1.

    L is lower triangular with Gaussian-integer entries, so H is Hermitian
    positive definite with half-integer entries.
    """
    if i < 2:
        h = [[(Fraction(j + 1 if i else 1) if j == k else Fraction(0), Fraction(0))
              for k in range(n)] for j in range(n)]
    else:
        low = [[(rng.randint(-2, 2), rng.randint(-2, 2)) if k <= j else (0, 0)
                for k in range(n)] for j in range(n)]
        h = []
        for j in range(n):
            row = []
            for k in range(n):
                re = sum(a * c + b * e for (a, b), (c, e) in zip(low[j], low[k]))
                im = sum(b * c - a * e for (a, b), (c, e) in zip(low[j], low[k]))
                row.append((Fraction(re, 2) + (j == k), Fraction(im, 2)))
            h.append(row)
    # x_jk = i h_jk
    x = [[{"re": str(-im), "im": str(re)} for re, im in row] for row in h]
    return json.dumps({"n": n, "X": x}, indent=2, sort_keys=True) + "\n"


def _targets(n: int) -> list:
    per_k = [f"gamma{k}<0" for k in range(1, n)] + [f"gamma{k}>0" for k in range(1, n)]
    return per_k + [f"gauduchon{k}=0" for k in range(1, n)] + ["skt", "balanced"]


VERIFY_LINE = "gauduchon verify-paper --json  # elapsed zeroed"


def verify_paper_output(result: tuple) -> tuple:
    """The corpus form of (exit code, stdout, stderr) of verify-paper --json:
    every claim's elapsed time set to 0."""
    code, out, err = result
    doc = json.loads(out)
    for record in doc["records"]:
        record["elapsed"] = 0
    return code, json.dumps(doc, indent=2, sort_keys=True) + "\n", err


def outputs(skip_verify: bool = False):
    """Yield (command line, exit code, stdout, stderr); runs in the current directory.

    With skip_verify, the verify-paper line is yielded with None for its
    output, unrun.
    """

    def run(argv: list) -> tuple:
        code, out, err = _run(argv)
        return (shlex.join(["gauduchon"] + argv), code, out, err)

    def classify_drawn(stem: str, n: int):
        """classify, as text and --json, of stem.dsl on METRICS drawn metrics."""
        rng = random.Random(stem)
        for i in range(METRICS):
            metric = f"{stem}.m{i}.json"
            Path(metric).write_text(_metric_json(rng, n, i))
            for extra in ([], ["--json"]):
                yield run(["classify", "--structure", f"{stem}.dsl", "--metric", metric, *extra])

    yield run(["catalog", "list"])
    for name in CONTACTS:
        emitted = run(["catalog", "emit", name])
        yield emitted
        Path(f"{name}.json").write_text(emitted[2])
        for extra in ([], ["--json"]):
            yield run(["bundle-extend", "--contact", f"{name}.json", *extra])
    for stem, family, params in POINTS:
        emitted = run(["catalog", "emit", family] + [a for p in params for a in ("--param", p)])
        yield emitted
        structure = f"{stem}.dsl"
        Path(structure).write_text(emitted[2])
        n = int(emitted[2].split("\n", 1)[0].removeprefix("n:"))
        yield from classify_drawn(stem, n)
        for t, target in enumerate(_targets(n)):
            for seed in SEEDS:
                searched = run(["search", "--structure", structure, "--target", target,
                                "--budget", str(BUDGET), "--seed", str(seed)])
                yield searched
                witness = json.loads(searched[2])["witness"]
                if seed == SEEDS[0] and witness is not None:
                    # the witnesses reach the labels that the drawn metrics miss
                    metric = f"{stem}.w{t}.json"
                    Path(metric).write_text(json.dumps(witness))
                    for extra in ([], ["--json"]):
                        yield run(["classify", "--structure", structure, "--metric", metric,
                                   *extra])
    for stem, source in CLASSIFY_ONLY:
        if isinstance(source, list):
            emitted = run(source)
            yield emitted
            source = emitted[2]
        Path(f"{stem}.dsl").write_text(source)
        yield from classify_drawn(stem, int(source.split("\n", 1)[0].removeprefix("n:")))
    for target in N5_SEARCHES:
        yield run(["search", "--structure", "n5.dsl", "--target", target,
                   "--budget", str(BUDGET), "--seed", str(SEEDS[0])])
    for stem, family, *targets in FAMILY_SEARCHES:
        for target in targets:
            yield run(["search", "--structure", f"{stem}.dsl", "--target", target,
                       "--budget", str(BUDGET), "--seed", str(SEEDS[0]), "--family", family])
    if skip_verify:
        yield VERIFY_LINE, None, None, None
    else:
        yield VERIFY_LINE, *verify_paper_output(_run(["verify-paper", "--json"]))
    for name, text in BAD_FILES.items():
        Path(name).write_bytes(text if isinstance(text, bytes) else text.encode())
    for name, (key, value) in BAD_CONTACTS.items():
        contact = json.loads(Path("solvable5.json").read_text())
        if value is None:
            del contact[key]
        else:
            contact[key] = value
        Path(name).write_text(json.dumps(contact))
    for argv in BAD_INPUTS:
        yield run(argv)


def digest(code: int, out: str, err: str) -> str:
    blob = f"{code}\n{out}\0{err}".encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _in_scratch_dir(fn):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            return fn()
        finally:
            os.chdir(cwd)


def read_digests() -> list:
    """[(digest, command line)] as committed."""
    pairs = []
    for row in DIGESTS.read_text(encoding="utf-8").splitlines():
        sha, _, line = row.partition("  ")
        pairs.append((sha, line))
    return pairs


def first_drift(skip_verify: bool = False):
    """None if every output matches the committed corpus, else a one-line reason.

    With skip_verify, the verify-paper line is left unrun and unchecked.
    """

    def check():
        expected = read_digests()
        got = 0
        for i, (line, code, out, err) in enumerate(outputs(skip_verify)):
            got += 1
            if i >= len(expected) or expected[i][1] != line:
                return f"command line {i + 1} is {line!r}, the corpus has a different list"
            if code is not None and digest(code, out, err) != expected[i][0]:
                return f"output of {line!r} drifted; it now exits {code} with stderr {err!r}"
            literal = LITERAL.get(line)
            if literal is not None and (HERE / literal).read_text(encoding="utf-8") != out:
                return f"stdout of {line!r} differs from {literal}"
        if got != len(expected):
            return f"the corpus lists {len(expected)} command lines, the run made {got}"
        return None

    return _in_scratch_dir(check)


def rewrite() -> int:
    """Rewrite the digests and the literal files from this tree's outputs."""

    def collect():
        rows = []
        for line, code, out, err in outputs():
            rows.append(f"{digest(code, out, err)}  {line}\n")
            if line in LITERAL:
                (HERE / LITERAL[line]).write_text(out, encoding="utf-8")
        return rows

    rows = _in_scratch_dir(collect)
    DIGESTS.write_text("".join(rows), encoding="utf-8")
    return len(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed corpus instead of rewriting it")
    args = parser.parse_args(argv)
    if args.check:
        drift = first_drift()
        if drift is not None:
            print(f"golden corpus: {drift}", file=sys.stderr)
            return 1
        print(f"golden corpus: {len(read_digests())} command lines match")
        return 0
    print(f"golden corpus: wrote {rewrite()} digests to {DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
