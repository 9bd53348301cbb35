"""Every CLI output of the golden corpus is byte-identical to its committed digest.

The corpus and its regeneration script live in tests/golden/ (see regen.py
there for what it covers and how to rewrite it after an intended change).
"""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).resolve().parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_every_command_line_matches_the_corpus():
    assert len(regen.read_digests()) > 300
    drift = regen.first_drift()
    assert drift is None, drift + " (tests/golden/regen.py rewrites the corpus)"
