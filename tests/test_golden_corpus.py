"""Every CLI output of the golden corpus is byte-identical to its committed digest.

The corpus and its regeneration script live in tests/golden/ (see regen.py
there for what it covers and how to rewrite it after an intended change).
"""

from conftest import regen


def test_every_command_line_matches_the_corpus():
    # the verify-paper line is checked by test_acceptance's full-suite run, so
    # that tier-1 runs the suite once; regen.py --check runs every line
    assert len(regen.read_digests()) > 300
    drift = regen.first_drift(skip_verify=True)
    assert drift is None, drift + " (tests/golden/regen.py rewrites the corpus)"
