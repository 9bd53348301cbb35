"""Benchmark of the gauduchon package: three closed-loop workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload classify-mix --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py for the inputs and checks):

  classify-mix  ``classify --json`` on seeded catalog points and metrics,
                three quarters n = 3 and one quarter n = 4.  The user's
                "classify this pair" path; the exact wedge and Omega-power
                arithmetic dominates.
  search-mix    ``search`` without ``--family``: float-screened sign and
                form-zero targets and exact gauduchon1=0 targets with the
                closing move.  Exercises the search layer and the float
                mirror of the engine; one structure serves many samples.
  verify-paper  ``verify-paper --json --seed 0x5eed``: the 10-claim suite,
                the product's acceptance gate, always on the gate's seed.

One caller in one thread sends each request after the previous one returned,
in this process, through ``gauduchon.cli.main``.  Every output is checked
exactly, outside the timed region; a failed check counts against the run.

``--trace 0`` measures the end-to-end metrics: set-up time (import, input
generation and file writing; the median of SETUP_REPEATS set-ups), then
requests for ``--seconds`` of request time, whole blocks at a time.  Every
time is scaled against a reference probe run on a timer alongside, which
cancels load from other tenants of the host (hostload.py); the unscaled
figures and the median probe go to the metadata.

End-to-end metrics, printed for every workload:

  setup_s         median of SETUP_REPEATS set-ups
  ops_per_s       things attempted (requests; claims for verify-paper) per
                  second of request time
  latency_p50_ms, latency_p90_ms
                  per CLI call; verify-paper makes one call per block, so
                  both are the suite's time
  samples_per_s   metrics processed per second: one per classify, the
                  ``samples_used`` of a search, the claims' sample counts
  wall_s          median time of one block: one request for each entry of
                  the workload's ``kinds``, or the whole suite
  ok_frac         1 - failed / attempted, so that it is never 0
  peak_rss_mb     ``ru_maxrss`` of this process

``--trace 1`` sends requests with spans around the public functions of each
module (spans.py) for half of ``--seconds``, re-sends them untraced to price
the tracing, then times the scaling cases (scaling.py), and prints the
per-layer metrics.

The last line of standard output is the result object; the line before it
is the run's metadata (Python version, nproc, git commit, seed, src/ line
count, sample counts), which is also written with the full results and the
span table under ``.bench_run/results/``.  Exit code 0 on a completed run
(see ``correct``), 2 when the package source is not found next to this
directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "gauduchon"
OUT = ROOT / ".bench_run"

MODULES = ("errors", "scalars", "forms", "structures", "linalg", "hermitian", "search",
           "catalog", "sasakian", "dsl", "cli", "verify")
SETUP_REPEATS = 5

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "samples_per_s": "1/s",
    "wall_s": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# the program under test
# ---------------------------------------------------------------------------


def forget_program():
    """Drop the package from the import cache, so the next import is afresh."""
    for name in [m for m in sys.modules if m == "gauduchon" or m.startswith("gauduchon.")]:
        del sys.modules[name]


def program() -> SimpleNamespace:
    """The package's modules, imported from this checkout's ``src``."""
    g = SimpleNamespace(**{m: importlib.import_module(f"gauduchon.{m}") for m in MODULES})
    if Path(g.cli.__file__).resolve().parent != PACKAGE.resolve():
        raise ImportError(f"gauduchon imported from {g.cli.__file__}, not from {PACKAGE}")
    return g


def call(main, argv) -> tuple:
    """One request: (exit code, standard output, start, end)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects argv this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is one failed request, not a failed run
            print(f"{type(exc).__name__}: {exc}", file=err)
            code = -1
        end = time.perf_counter()
    return code, out.getvalue(), start, end


# ---------------------------------------------------------------------------
# serving requests
# ---------------------------------------------------------------------------


class Tally:
    """Per-block results of some requests, in the order they were sent."""

    def __init__(self):
        self.blocks = []  # one Block per block sent
        self.failures = []

    def total(self, field: str):
        return sum(getattr(b, field) for b in self.blocks)


class Block:
    """Counts of one block, and (start, end, probe seconds inside) per request."""

    __slots__ = ("requests", "attempted", "failed", "samples", "busy_s", "calls")

    def __init__(self):
        self.requests = self.attempted = self.failed = self.samples = 0
        self.busy_s = 0.0
        self.calls = []


def send(wl, req, rec: Block, failures: list, tracer=None, load=None) -> float:
    """Send one request and check its output into ``rec``.

    Returns the request's seconds, less any host probe that ran inside it.
    With a tracer, spans are recorded around the request only, not around
    the checks of its output.
    """
    probed = load.spent if load else 0.0
    if tracer is None:
        code, out, start, end = call(wl.g.cli.main, req.argv)
    else:
        tracer.install()
        try:
            code, out, start, end = call(wl.g.cli.main, req.argv)
        finally:
            tracer.uninstall()
    probed = load.spent - probed if load else 0.0
    rec.calls.append((start, end, probed))
    rec.busy_s += end - start - probed
    rec.requests += 1
    for outcome in wl.results(req, code, out):
        rec.attempted += 1
        rec.samples += outcome.samples
        if not outcome.ok:
            rec.failed += 1
            failures.append({"kind": req.kind, "argv": req.argv, "why": outcome.why})
    return end - start - probed


def serve(wl, blocks, seconds=None, load=None) -> Tally:
    """Send the requests of whole blocks until ``seconds`` of request time."""
    tally = Tally()
    busy = 0.0
    for block in blocks:
        rec = Block()
        for req in block:
            send(wl, req, rec, tally.failures, load=load)
        tally.blocks.append(rec)
        busy += rec.busy_s
        if seconds is not None and busy >= seconds:
            break
    return tally


def end_to_end(tally: Tally, setups: list, load) -> dict:
    """The end-to-end metrics, every time scaled to the reference probe.

    ``setups`` holds (start, end, probe seconds) of each set-up.  A request
    is one CLI call; verify-paper's single call per block gives it one
    latency sample, so its p90 is that sample.
    """
    fix = load.scaled
    lat_ms = sorted(fix(*c) * 1e3 for b in tally.blocks for c in b.calls)
    block_s = [sum(fix(*c) for c in b.calls) for b in tally.blocks]
    busy = sum(block_s)
    return {
        "setup_s": statistics.median(fix(*c) for c in setups),
        "ops_per_s": tally.total("attempted") / busy,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[-1] if len(lat_ms) > 1 else lat_ms[0],
        "samples_per_s": tally.total("samples") / busy,
        "wall_s": statistics.median(block_s),
        "ok_frac": 1 - tally.total("failed") / tally.total("attempted"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(wl, blocks, seconds: float) -> tuple:
    """Per-layer metrics from requests sent with spans on.

    Stops after the block in which traced request time reaches ``seconds``.
    Each request the workload prices is sent again right away with spans
    off; the overhead is the median over those pairs of traced over
    untraced time, so that a burst of host load hits both sides of a pair.
    """
    import scaling
    from spans import Tracer

    tracer = Tracer()
    claims = [(cid, fn.__name__) for cid, _, fn in wl.g.verify.CLAIMS]
    tally = Tally()
    ratios = []
    traced_s = 0.0
    for block in blocks:
        on, off = Block(), Block()
        for req in wl.trace_block(block):
            elapsed = send(wl, req, on, tally.failures, tracer)
            if wl.priced(req):
                ratios.append(elapsed / send(wl, req, off, tally.failures))
        tally.blocks += [on, off]
        traced_s += on.busy_s
        if traced_s >= seconds:
            break
    values = per_layer(tracer, claims, statistics.median(ratios) - 1)
    values.update(scaling.run(wl.g))
    return tally, values, tracer.span_table()


def per_layer(tracer, claims, overhead: float) -> dict:
    from spans import ADJOINT, CLOSE, D, DDBAR, FIND, SAMPLE, SUBSTITUTE, WEDGE

    calls, counts = tracer.calls, tracer.counts
    out = {}
    for layer in ("forms", "structures", "hermitian", "linalg", "search",
                  "sasakian", "catalog", "dsl", "cli"):
        out[f"{layer}.self_s"] = float(tracer.self_s(layer))
    ddbar_calls = calls(DDBAR)
    finds = calls(FIND)
    out.update({
        "forms.wedge.calls": calls(WEDGE),
        "forms.wedge.terms_out": counts[WEDGE + ".terms_out"],
        "forms.coeff_bits_max": tracer.coeff_bits_max,
        "forms.substitute.calls": calls(SUBSTITUTE),
        "structures.d.calls": calls(D),
        "structures.ddbar.calls": ddbar_calls,
        "structures.d_per_ddbar": counts["d_in_ddbar"] / ddbar_calls if ddbar_calls else 0.0,
        "hermitian.omega_power.calls": calls("hermitian.omega_power"),
        "hermitian.gauduchon_form.calls": calls("hermitian.gauduchon_form"),
        "hermitian.Lefschetz.adjoint.calls": calls(ADJOINT),
        "linalg.mat_det.calls": calls("linalg.mat_det"),
        "linalg.solve.calls": calls("linalg.solve"),
        "search.samples": calls(SAMPLE),
        "search.close.attempts": calls(CLOSE),
        "search.close.successes": counts["close_successes"],
        "search.witness_rate": counts["find_witness"] / finds if finds else 0.0,
    })
    for claim_id, fn_name in claims:
        out[f"verify.{claim_id}.s"] = float(tracer.inclusive_s(f"verify.{fn_name}"))
    out["tracing_overhead"] = overhead
    return out


LAYER_UNITS = [  # (name suffix, unit) for per-layer names, first match wins
    ("self_s", "s"), (".s", "s"), ("_ms", "ms"), ("_ns", "ns"), ("coeff_bits_max", "bits"),
    ("d_per_ddbar", "ratio"), ("witness_rate", "ratio"), ("tracing_overhead", "ratio"),
    ("", "count"),
]


def layer_unit(name: str) -> str:
    return next(unit for suffix, unit in LAYER_UNITS if name.endswith(suffix))


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------


def setup(cls, seed: int, base: Path, load) -> tuple:
    """Import, generate the first blocks and write their files; repeated.

    Returns (start, end, probe seconds) of each set-up, and the last
    set-up's workload and blocks.
    """
    setups = []
    for i in range(SETUP_REPEATS):
        workdir = base / f"setup{i}"
        forget_program()
        probed = load.spent if load else 0.0
        start = time.perf_counter()
        wl = cls(program(), seed, workdir)
        blocks = [wl.block(b) for b in range(cls.setup_blocks)]
        setups.append((start, time.perf_counter(), load.spent - probed if load else 0.0))
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(workdir)
    return setups, wl, blocks


def metadata(args, tally: Tally, load) -> dict:
    """Run facts next to the results; ``load`` is None in a traced run."""
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
        "requests": tally.total("requests"),
        "blocks": len(tally.blocks),
    }
    if load is not None:
        busy = tally.total("busy_s")
        meta.update({
            "latency_samples": tally.total("requests"),
            "host_probes": len(load.samples),
            "median_probe_s": load.median_probe_s(),
            "unscaled_ops_per_s": tally.total("attempted") / busy,
            "unscaled_wall_s": statistics.median(b.busy_s for b in tally.blocks),
        })
    return meta


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(args) -> dict:
    from hostload import HostLoad
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    base = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    load = None if args.trace else HostLoad()
    try:
        if args.trace:
            _, wl, first = setup(cls, args.seed, base, None)
            blocks = itertools.chain(first, (wl.block(i) for i in itertools.count(len(first))))
            tally, values, spans = traced(wl, blocks, args.seconds / 2)
            metrics = {k: (v, layer_unit(k)) for k, v in values.items()}
        else:
            with load:
                setups, wl, first = setup(cls, args.seed, base, load)
                blocks = itertools.chain(first, (wl.block(i) for i in itertools.count(len(first))))
                tally = serve(wl, blocks, args.seconds, load)
            values = end_to_end(tally, setups, load)
            metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
            spans = None
    finally:
        shutil.rmtree(base, ignore_errors=True)
    meta = metadata(args, tally, load)
    result = {
        "correct": tally.total("failed") == 0,
        "attempted": tally.total("attempted"),
        "failed": tally.total("failed"),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    (results_dir / f"{stem}.json").write_text(json.dumps(
        {"meta": meta, "result": result, "failures": tally.failures[:20], "spans": spans},
        indent=1), encoding="utf-8")
    print(json.dumps({"meta": meta}))
    return result


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"bench: package source not found at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
