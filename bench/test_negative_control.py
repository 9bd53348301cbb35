"""Negative controls: a corrupted expectation must count as a failed request.

One corrupted expectation per workload is fed through the same serve and
metric code a benchmark run uses, and must show up in ``failed`` and in
``ok_frac`` instead of passing silently.  Run with
``PYTHONPATH=src python -m pytest bench``.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from hostload import HostLoad  # noqa: E402

if str(run.SRC) not in sys.path:
    sys.path.append(str(run.SRC))


def serve_one(wl, block):
    tally = run.serve(wl, [block])
    return tally, run.end_to_end(tally, [(0.0, 1.0, 0.0)], HostLoad())


def make(cls, tmp_path, seed=11):
    return cls(run.program(), seed, tmp_path)


def test_classify_wrong_gamma1_oracle_is_counted(tmp_path):
    wl = make(workloads.ClassifyMix, tmp_path)
    block = wl.block(0)
    tally, metrics = serve_one(wl, block)
    assert tally.total("failed") == 0 and metrics["ok_frac"] == 1

    block[1].expect["gamma1"] += Fraction(1, 7)
    tally, metrics = serve_one(wl, block)
    assert tally.total("failed") == 1
    assert "oracle" in tally.failures[0]["why"]
    assert metrics["ok_frac"] == 1 - Fraction(1, len(block))


def test_search_wrong_expected_status_is_counted(tmp_path):
    wl = make(workloads.SearchMix, tmp_path)
    block = wl.block(0)
    kinds = [req.kind for req in block]
    always = block[kinds.index("reduced6-gamma-neg")]
    impossible = block[kinds.index("family8-skt")]
    assert (always.expect["route"], impossible.expect["route"]) == ("always", "impossible")
    tally, _ = serve_one(wl, block)
    assert tally.total("failed") == 0

    always.expect["route"] = "impossible"  # its witness must now be refused
    impossible.expect["route"] = "always"  # and its exhausted outcome too
    tally, metrics = serve_one(wl, block)
    assert tally.total("failed") == 2
    assert metrics["ok_frac"] == 1 - 2 / len(block)


def test_search_witness_is_reverified(tmp_path):
    wl = make(workloads.SearchMix, tmp_path)
    req = next(r for r in wl.block(0) if r.kind == "reduced6-gamma-neg")
    code, out, _, _ = run.call(wl.g.cli.main, req.argv)
    assert wl.check(req, code, out).ok
    outcome = json.loads(out)
    outcome["witness"]["X"][0][0]["im"] = "-1"  # no longer positive definite
    assert not wl.check(req, code, json.dumps(outcome)).ok
    outcome["witness"]["X"][0][0]["re"] = "1"  # no longer skew-Hermitian
    assert not wl.check(req, code, json.dumps(outcome)).ok


def test_verify_missing_or_failed_claim_is_counted(tmp_path):
    wl = make(workloads.VerifyPaper, tmp_path)
    req = workloads.Request("suite", ["verify-paper", "--json", "--only", "prop-3.5"],
                            {"claims": ["prop-3.5"]})
    tally = run.serve(wl, [[req]])
    assert tally.total("failed") == 0 and tally.total("attempted") == 1

    req.expect["claims"].append("lemma-9.9")  # a claim the suite never reports
    tally = run.serve(wl, [[req]])
    assert (tally.total("failed"), tally.total("attempted")) == (1, 2)

    code, out, _, _ = run.call(wl.g.cli.main, req.argv)
    report = json.loads(out)
    report["records"][0]["status"] = "fail"
    outcomes = wl.results(workloads.Request("suite", req.argv, {"claims": ["prop-3.5"]}),
                          code, json.dumps(report))
    assert [outcome.ok for outcome in outcomes] == [False]
