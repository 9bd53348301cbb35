"""Acceptance gate: every verification claim, run at its stated sample count
and tolerance (all tolerances are exact-zero; nothing is approximate).

The claims live in gauduchon.verify so that `gauduchon verify-paper` and this
module check the same thing; each test prints one pass/fail line.
"""

import time

import pytest

from gauduchon import verify
from gauduchon.cli import main

from conftest import regen

_CRITERIA = {
    "lemma-3.3i": "criterion 1: collapsed ddbar form, 200 exact draws, < 5 s",
    "lemma-3.3ii": "criterion 2: non-nilpotent ddbar form and positive scalar, 200 draws",
    "prop-3.5": "criterion 3: witnesses for h2..h5, certificates for h6/h8",
    "example-3.8": "criterion 4: pluriclosed scalar 2-2/t, gamma sign, balanced exclusion",
    "prop-4.7": "criterion 5: 500-draw equivalences on the eight-dimensional family",
    "lemma-4.6": "criterion 6: (n-2) gamma_k = k(n-k-1) gamma_1, 200 draws each",
    "theorem-4.2": "criterion 7: 10^4-point coefficient identity and product scalars",
    "solvable5-bundle": "criterion 8: circle-bundle criterion form and sign",
    "lefschetz": "criterion 9: commutation residuals, reduction, balanced+Gauduchon",
    "infrastructure": "criterion 10: algebra axioms, volume identity, round-trips",
}

_BOUNDS = {"lemma-3.3i": 5.0}

_MIN_SAMPLES = {
    "lemma-3.3i": 200,
    "lemma-3.3ii": 200,
    "prop-4.7": 500,
    "theorem-4.2": 10_000,
}


@pytest.mark.parametrize("claim_id", list(_CRITERIA))
def test_criterion(claim_id):
    start = time.perf_counter()
    report = verify.run_verify_paper(only=claim_id)
    elapsed = time.perf_counter() - start
    record = report.records[0]
    status = "PASS" if record.status == "pass" else "FAIL"
    print(f"[{status}] {_CRITERIA[claim_id]} ({record.samples} samples, {elapsed:.2f}s)")
    assert record.status == "pass", record.message
    if claim_id in _BOUNDS:
        assert elapsed < _BOUNDS[claim_id], f"{claim_id} exceeded {_BOUNDS[claim_id]}s"
    if claim_id in _MIN_SAMPLES:
        assert record.samples >= _MIN_SAMPLES[claim_id]


def test_full_suite_under_sixty_seconds(capsys):
    """The one full-suite run of tier-1: `verify-paper --json` from the CLI,
    which also checks the golden corpus's verify-paper line."""
    start = time.perf_counter()
    code = main(["verify-paper", "--json"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    print(f"[{'PASS' if code == 0 else 'FAIL'}] full verify-paper in {elapsed:.2f}s")
    assert code == 0, err
    assert elapsed < 60.0
    expected = dict((line, sha) for sha, line in regen.read_digests())[regen.VERIFY_LINE]
    assert regen.digest(*regen.verify_paper_output((code, out, err))) == expected, (
        "verify-paper --json drifted from the golden corpus (tests/golden/regen.py)")
