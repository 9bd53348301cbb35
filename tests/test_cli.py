import json
import os
import shlex
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

import gauduchon
from gauduchon import catalog, dsl, verify
from gauduchon.cli import build_parser, main
from gauduchon.hermitian import Metric
from gauduchon.scalars import I, ComplexRational, cr


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def jt_file(tmp_path):
    return write(tmp_path / "jt.dsl", dsl.format_structure(catalog.jt(1)))


@pytest.fixture
def diag_metric_file(tmp_path):
    cells = [
        [{"re": "0", "im": "1" if j == k else "0"} for k in range(3)]
        for j in range(3)
    ]
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"n": 3, "X": cells}), encoding="utf-8")
    return str(path)


class TestCheck:
    def test_ok(self, jt_file, capsys):
        assert main(["check", "--structure", jt_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"n": 3, "jacobi": "ok", "integrable": "ok", "unimodular": True}

    def test_integrability_failure_exit_one(self, tmp_path, capsys):
        path = write(tmp_path / "bad.dsl", "n:2\ndw1: 0\ndw2: ~w1^~w2\n")
        assert main(["check", "--structure", path]) == 1
        assert "generator 2" in capsys.readouterr().err

    def test_syntax_error_exit_two(self, tmp_path, capsys):
        path = write(tmp_path / "bad.dsl", "n:2\ndw1: w1^^w2\ndw2: 0\n")
        assert main(["check", "--structure", path]) == 2

    def test_missing_file(self, capsys):
        assert main(["check", "--structure", "/nonexistent.dsl"]) == 2


class TestClassify:
    def test_report(self, jt_file, diag_metric_file, capsys):
        assert main(
            ["classify", "--structure", jt_file, "--metric", diag_metric_file, "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["skt"] is True and data["kahler"] is False
        assert data["gamma"]["1"] == "0"

    def test_non_positive_metric_fails(self, jt_file, tmp_path, capsys):
        cells = [
            [{"re": "0", "im": "-1" if j == k else "0"} for k in range(3)]
            for j in range(3)
        ]
        path = tmp_path / "neg.json"
        path.write_text(json.dumps({"n": 3, "X": cells}), encoding="utf-8")
        assert main(["classify", "--structure", jt_file, "--metric", str(path)]) == 1


class TestSearch:
    def test_witness_json_written(self, tmp_path, capsys):
        se_path = write(tmp_path / "h5.dsl", dsl.format_structure(catalog.reduced6(1, 0, 1, 0)))
        out_path = tmp_path / "result.json"
        code = main(
            [
                "search", "--structure", se_path, "--target", "gamma1<0",
                "--budget", "200", "--seed", "7", "--out", str(out_path),
                "--family", "reduced6",
            ]
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["status"] == "witness"
        assert data["witness"]["n"] == 3
        assert "replay" in data and "--seed 7" in data["replay"]

    def test_search_deterministic_bytes(self, tmp_path):
        se_path = write(tmp_path / "f8.dsl", dsl.format_structure(catalog.family8(1, 0)))
        outs = []
        for name in ("a.json", "b.json"):
            out_path = tmp_path / name
            main(
                [
                    "search", "--structure", se_path, "--target", "gamma1>0",
                    "--budget", "100", "--seed", "0x5EED", "--out", str(out_path),
                ]
            )
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1]

    def test_bad_target(self, jt_file, capsys):
        assert main(["search", "--structure", jt_file, "--target", "bogus"]) == 2


    @pytest.mark.parametrize(
        "family, se, K",
        [
            ("nilpotent6", catalog.nilpotent6(0, 1, 1, Fraction(1, 2), 0, 2), "-11/4"),
            ("nilpotent6", catalog.nilpotent6(1, 0, 0, 0, ComplexRational(0, 2), 0), "4"),
            ("jt", catalog.jt(Fraction(1, 2)), "-2"),
            ("reduced6", catalog.reduced6(1, 0, 1, 0), "-1"),
            # B = -1+i, a parameter that starts with '-'
            ("nilpotent6", catalog.nilpotent6(0, 1, 1, ComplexRational(-1, 1), 0, 2), "-1"),
        ],
    )
    def test_family_certificate(self, tmp_path, capsys, family, se, K):
        se_path = write(tmp_path / "se.dsl", dsl.format_structure(se))
        argv = ["search", "--structure", se_path, "--target", "gauduchon1=0", "--budget", "5",
                "--family", family]
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "infeasible_certified"
        assert data["certificate"]["K"] == K

    def test_family8_negative_p_certificate(self, tmp_path, capsys):
        se_path = write(tmp_path / "f8.dsl",
                        dsl.format_structure(catalog.family8(Fraction(-1, 2), 0)))
        argv = ["search", "--structure", se_path, "--target", "gauduchon1=0", "--budget", "5",
                "--family", "family8"]
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "infeasible_certified"
        assert data["certificate"]["name"] == "one-signed obstruction"

    def test_nonnilpotent6_family_takes_no_params(self, tmp_path, capsys):
        se_path = write(tmp_path / "nn.dsl", dsl.format_structure(catalog.nonnilpotent6(1, -1)))
        argv = ["search", "--structure", se_path, "--target", "gamma1<0", "--family",
                "nonnilpotent6"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "infeasible_certified"


def metric_file(path, h):
    """A metric file for X = iH, H given as rows of ints, Fractions and ComplexRationals."""
    return write(path, json.dumps(dsl.metric_to_json(
        Metric([[I * cr(v) for v in row] for row in h]))))


def lee_terms(*terms):
    """Lee-form JSON terms from (kind, index, re, im) tuples."""
    return [{"im": im, "mon": [[kind, j]], "re": re} for kind, j, re, im in terms]


def report(n, label, gamma, gauduchon, lee):
    return {"astheno": False, "balanced": False, "gamma": gamma, "gauduchon": gauduchon,
            "kahler": False, "label": label, "lee_form": lee, "n": n, "skt": False}


HALF = Fraction(1, 2)
GOLDEN_CLASSIFY = [
    (catalog.family8(HALF, 2),
     [[2, 1, 0, ComplexRational(0, HALF)], [1, 3, ComplexRational(1, -1), 0],
      [0, ComplexRational(1, 1), 2, 0], [ComplexRational(0, -HALF), 0, 0, 1]],
     report(4, "gauduchon3", {"1": "1/80", "2": "1/80", "3": "0"},
            {"1": False, "2": False, "3": True},
            lee_terms(("w", 1, "4/5", "-23/40"), ("cw", 1, "4/5", "23/40"),
                      ("w", 4, "-23/20", "-8/5"), ("cw", 4, "-23/20", "8/5")))),
    (catalog.reduced6(1, 1, 2, 1),
     [[2, ComplexRational(1, -1), 0], [ComplexRational(1, 1), 3, HALF], [0, HALF, 1]],
     report(3, "gauduchon2", {"1": "-1/21", "2": "0"}, {"1": False, "2": True},
            lee_terms(("w", 2, "23/28", "-1/7"), ("cw", 2, "23/28", "1/7"),
                      ("w", 3, "23/14", "-2/7"), ("cw", 3, "23/14", "2/7")))),
    # jt(1) is SKT for every metric: pins the ddbar(Omega) path of classify
    (catalog.jt(1),
     [[2, ComplexRational(1, -1), 0], [ComplexRational(1, 1), 3, HALF], [0, HALF, 1]],
     {**report(3, "skt+astheno+gauduchon1+gauduchon2", {"1": "0", "2": "0"},
               {"1": True, "2": True},
               lee_terms(("w", 2, "15/28", "1/7"), ("cw", 2, "15/28", "-1/7"),
                         ("w", 3, "15/14", "2/7"), ("cw", 3, "15/14", "-2/7"))),
      "skt": True, "astheno": True}),
]

# search --target gauduchon1=0 --budget 50 --seed 7 on family8(1, 0): the
# witness X as (re, im) strings
GOLDEN_WITNESS = [
    [("0", "103745/1024"), ("31/2", "547/8"), ("105/8", "427/16"), ("-21/2", "49/16")],
    [("-31/2", "547/8"), ("0", "57776221/530448"), ("37/4", "57/4"), ("-107/4", "13/4")],
    [("-105/8", "427/16"), ("-37/4", "57/4"), ("0", "19969/1024"), ("-33/4", "-57/4")],
    [("21/2", "49/16"), ("107/4", "13/4"), ("33/4", "-57/4"), ("0", "33153/1024")],
]


class TestGoldenOutputs:
    """Literal outputs, so that no change moves a gamma string or a witness unseen."""

    @pytest.mark.parametrize("se, h, expected", GOLDEN_CLASSIFY,
                             ids=["family8", "reduced6", "jt1-skt"])
    def test_classify_json(self, tmp_path, capsys, se, h, expected):
        se_path = write(tmp_path / "se.dsl", dsl.format_structure(se))
        m_path = metric_file(tmp_path / "m.json", h)
        assert main(["classify", "--structure", se_path, "--metric", m_path, "--json"]) == 0
        assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_search_witness(self, tmp_path, capsys):
        se_path = write(tmp_path / "f8.dsl", dsl.format_structure(catalog.family8(1, 0)))
        argv = ["search", "--structure", se_path, "--target", "gauduchon1=0",
                "--budget", "50", "--seed", "7"]
        assert main(argv) == 0
        expected = {
            "budget": 50, "certificate": None, "replay": shlex.join(["gauduchon"] + argv),
            "samples_used": 1, "seed": 7, "status": "witness", "target": "gauduchon1=0",
            "witness": {"X": [[{"im": im, "re": re} for re, im in row] for row in GOLDEN_WITNESS],
                        "n": 4},
        }
        assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


class TestParserReuse:
    def fresh(self, argv, cwd):
        """The same call in a new interpreter, which builds its own parser."""
        src = str(Path(gauduchon.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-m", "gauduchon.cli", *argv],
                              capture_output=True, text=True, cwd=cwd,
                              env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
                              timeout=300)
        return proc.returncode, proc.stdout, proc.stderr

    def test_package_runs_as_a_module(self, tmp_path):
        # python -m gauduchon runs gauduchon.cli.main, as python -m gauduchon.cli does
        src = str(Path(gauduchon.__file__).resolve().parent.parent)
        runs = [subprocess.run([sys.executable, "-m", module, "catalog", "list"],
                               capture_output=True, text=True, cwd=tmp_path,
                               env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
                               timeout=300)
                for module in ("gauduchon", "gauduchon.cli")]
        assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr
        assert runs[0].stdout == runs[1].stdout != ""

    def test_repeated_calls_match_fresh_calls(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "jt.dsl", dsl.format_structure(catalog.jt(HALF)))
        metric_file(tmp_path / "m.json", [[2, ComplexRational(1, -1), 0],
                                          [ComplexRational(1, 1), 3, HALF], [0, HALF, 1]])
        classify_argv = ["classify", "--structure", "jt.dsl", "--metric", "m.json"]
        calls = [
            ["search", "--structure", "jt.dsl", "--target", "gamma1<0", "--budget", "5"],
            classify_argv + ["--json"],
            ["classify", "--structure", "jt.dsl", "--bogus"],
            classify_argv,
        ]
        codes = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects argv this way
                code = exc.code
            out, err = capsys.readouterr()
            assert (code, out, err) == self.fresh(argv, tmp_path), argv
            codes.append(code)
        assert codes == [0, 0, 2, 0] and "label:" in out


class TestDispatch:
    """argv that starts with a subcommand goes straight to that subcommand's
    parser; anything else goes to the top-level parser, as every argv did."""

    # the fewest arguments each subcommand parses
    MINIMAL = {
        "check": ["--structure", "s.dsl"],
        "classify": ["--structure", "s.dsl", "--metric", "m.json"],
        "search": ["--structure", "s.dsl", "--target", "skt"],
        "catalog": ["list"],
        "bundle-extend": ["--contact", "c.json"],
        "verify-paper": [],
    }

    def run(self, argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse ends a help or usage error this way
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    def top_level(self, argv, capsys):
        """argv through a fresh top-level parser, as main parsed every argv before."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    def test_every_subcommand_has_a_parser(self):
        assert set(build_parser().commands) == set(self.MINIMAL)

    @pytest.mark.parametrize("argv, usage", [
        (["-h"], "usage: gauduchon [-h]"),
        (["classify", "-h"], "usage: gauduchon classify [-h]"),
    ], ids=["top-level", "classify"])
    def test_help(self, argv, usage, capsys):
        got = self.run(argv, capsys)
        assert got == self.top_level(argv, capsys)
        assert got[0] == 0 and got[1].startswith(usage) and got[2] == ""

    @pytest.mark.parametrize("argv", [[], ["nope"], ["classif", "--structure", "s.dsl"],
                                      ["--bogus", "catalog", "list"]],
                             ids=["no-command", "unknown", "prefix", "option-first"])
    def test_anything_else_goes_to_the_top_level(self, argv, capsys):
        got = self.run(argv, capsys)
        assert got == self.top_level(argv, capsys)
        assert got[0] == 2 and got[2].splitlines()[-1].startswith("gauduchon: error: ")

    @pytest.mark.parametrize("command", list(MINIMAL))
    def test_unknown_option_after_a_subcommand(self, command, capsys):
        code, out, err = self.run([command, *self.MINIMAL[command], "--bogus"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: gauduchon {command} ")
        assert err.splitlines()[-1] == (
            f"gauduchon {command}: error: unrecognized arguments: --bogus")

    def test_argv_none_reads_sys_argv(self, monkeypatch, capsys):
        expected = self.run(["catalog", "list"], capsys)
        monkeypatch.setattr(sys, "argv", ["gauduchon", "catalog", "list"])
        assert self.run(None, capsys) == expected and expected[0] == 0
        monkeypatch.setattr(sys, "argv", ["gauduchon", "catalog", "list", "--bogus"])
        code, _, err = self.run(None, capsys)
        assert code == 2
        assert err.splitlines()[-1] == "gauduchon catalog: error: unrecognized arguments: --bogus"


class TestCatalog:
    def test_list(self, capsys):
        assert main(["catalog", "list"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "family8" in data

    def test_emit_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "jt.dsl"
        assert main(["catalog", "emit", "jt", "--param", "t=1/2", "--out", str(out_path)]) == 0
        assert dsl.parse_structure(out_path.read_text()) == catalog.jt(Fraction(1, 2))

    def test_emit_complex_param(self, capsys):
        assert main(
            ["catalog", "emit", "nilpotent6", "--param", "eps=0", "--param", "rho=1",
             "--param", "A=1", "--param", "B=1/2+1/2i", "--param", "C=0", "--param", "D=i"]
        ) == 0
        text = capsys.readouterr().out
        expected = catalog.nilpotent6(
            0, 1, 1, ComplexRational(Fraction(1, 2), Fraction(1, 2)), 0,
            ComplexRational(0, 1),
        )
        assert dsl.parse_structure(text) == expected

    def test_unknown_family(self, capsys):
        assert main(["catalog", "emit", "nope"]) == 2

    def test_emit_needs_a_name(self, capsys):
        assert main(["catalog", "emit"]) == 2
        assert capsys.readouterr().err == "error: catalog emit needs a family name\n"


class TestBundleExtend:
    def test_catalog_emit_feeds_bundle_extend(self, tmp_path, capsys):
        path = tmp_path / "solvable5.json"
        assert main(["catalog", "emit", "solvable5", "--out", str(path)]) == 0
        assert main(["bundle-extend", "--contact", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["criterion_scalar"] == "-6"
        assert "dw3" in data["structure_dsl"]
        parsed = dsl.parse_structure(data["structure_dsl"])
        assert parsed.n == 3

    def test_contact_json_round_trip(self):
        from gauduchon import sasakian

        contact = catalog.solvable5_contact()
        spec = sasakian.contact_to_json(contact)
        again = sasakian.contact_from_json(json.loads(json.dumps(spec)))
        assert again.Phi == contact.Phi and again.F == contact.F


class TestVerifyPaper:
    def test_single_claim(self, capsys):
        assert main(["verify-paper", "--only", "lemma-4.6", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["overall"] == "pass"
        assert len(data["records"]) == 1
        assert data["records"][0]["claim"] == "lemma-4.6"

    def test_unknown_claim(self, capsys):
        assert main(["verify-paper", "--only", "nope"]) == 2

    def test_corrupted_catalog_detected(self, monkeypatch, capsys):
        def flipped(t):
            t = Fraction(t)
            return catalog.reduced6(rho=1, B=-1, x=Fraction(1) / t, y=0)

        monkeypatch.setattr(catalog, "jt", flipped)
        report = verify.run_verify_paper(only="example-3.8")
        assert not report.overall
        alone = report.first_failure()
        assert alone.claim == "example-3.8" and alone.message.startswith("ClaimFailure: ")
        # the full suite on two processes fails it alike, whichever process runs it
        forks = _count_forks(monkeypatch)
        _cpus(monkeypatch, 2)
        shared = verify.run_verify_paper()
        assert len(forks) == 1
        failed = [(r.claim, r.message) for r in shared.records if r.status != "pass"]
        assert failed == [("example-3.8", alone.message)]


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _count_forks(monkeypatch) -> list:
    """Patch os.fork to record each call in the parent; returns the record."""
    calls, real_fork = [], os.fork

    def counted():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def _without_elapsed(report) -> dict:
    data = report.to_json()
    for record in data["records"]:
        del record["elapsed"]
    return data


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestClaimRunner:
    """run_verify_paper shares the claims with one forked worker when more
    than one is selected, two CPUs are usable and no other thread runs."""

    @pytest.mark.parametrize("seed", [verify.DEFAULT_SEED, 0x2718], ids=hex)
    def test_shared_run_equals_serial_run(self, monkeypatch, seed):
        forks = _count_forks(monkeypatch)
        _cpus(monkeypatch, 2)
        shared = verify.run_verify_paper(seed)
        assert len(forks) == 1
        _no_child_left()
        _cpus(monkeypatch, 1)
        serial = verify.run_verify_paper(seed)
        assert len(forks) == 1
        assert [r.claim for r in shared.records] == [cid for cid, _, _ in verify.CLAIMS]
        assert _without_elapsed(shared) == _without_elapsed(serial)
        assert shared.overall

    @pytest.mark.parametrize("die, how", [
        (lambda: os._exit(3), "exited with code 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
    ], ids=["exit", "sigkill"])
    def test_worker_dying_mid_claim_fails_that_claim_only(self, monkeypatch, die, how):
        parent = os.getpid()

        def dies(seed):
            if os.getpid() != parent:
                die()
            return {"samples": 1}

        def passes(seed):
            if os.getpid() == parent:
                time.sleep(0.2)  # so that the worker takes the other claims
            return {"samples": 1}

        # dispatch runs the list backwards, so "dies" is the worker's last pull
        claims = [("dies", "dies in the worker", dies)] + [
            (f"passes-{i}", "passes", passes) for i in range(3)]
        monkeypatch.setattr(verify, "CLAIMS", claims)
        _cpus(monkeypatch, 2)
        for _ in range(5):  # the worker may start late and leave "dies" to this process
            start = time.perf_counter()
            report = verify.run_verify_paper()
            assert time.perf_counter() - start < 5.0
            _no_child_left()
            assert [r.claim for r in report.records] == [cid for cid, _, _ in claims]
            failed = [(r.claim, r.message) for r in report.records if r.status != "pass"]
            if failed:
                break
        assert failed == [("dies", f"the worker process {how} before returning this claim")]
        assert report.records[0].samples == 0

    def test_only_one_cpu_and_threads_never_fork(self, monkeypatch, capsys):
        def no_fork():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(verify, "CLAIMS", [
            (f"c{i}", "passes", lambda seed: {"samples": 1}) for i in range(3)])
        _cpus(monkeypatch, 2)
        assert main(["verify-paper", "--only", "c1", "--json"]) == 0
        assert [r["claim"] for r in json.loads(capsys.readouterr().out)["records"]] == ["c1"]
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert verify.run_verify_paper().overall
        finally:
            release.set()
            other.join(timeout=5.0)
        assert not other.is_alive()
        _cpus(monkeypatch, 1)
        assert verify.run_verify_paper().overall

    def test_text_total_is_the_run_wall_time(self):
        records = [verify.ClaimRecord(f"c{i}", "t", "pass", 1, 0.75) for i in range(2)]
        report = verify.ReproductionReport(records, 0x5EED, wall=0.8)
        assert report.to_text().splitlines()[-1] == "PASS  overall  (0.80s, seed 0x5eed)"
        assert set(report.to_json()) == {"seed", "overall", "records"}


class TestInputErrors:
    """Bad input exits 2 with one line on stderr, never a traceback."""

    def assert_one_line_error(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_metric_dimension_mismatch(self, tmp_path, capsys):
        se_path = write(tmp_path / "iw.dsl", dsl.format_structure(catalog.iwasawa()))
        cells = [[{"re": "0", "im": "1" if j == k else "0"} for k in range(2)] for j in range(2)]
        metric_path = tmp_path / "diag2.json"
        metric_path.write_text(json.dumps({"n": 2, "X": cells}), encoding="utf-8")
        assert main(["classify", "--structure", se_path, "--metric", str(metric_path)]) == 2
        self.assert_one_line_error(capsys)

    def test_metric_n_disagrees_with_its_rows(self, jt_file, tmp_path, capsys):
        cells = [[{"re": "0", "im": "1" if j == k else "0"} for k in range(3)] for j in range(3)]
        metric_path = tmp_path / "bad_n.json"
        metric_path.write_text(json.dumps({"n": 2, "X": cells}), encoding="utf-8")
        assert main(["classify", "--structure", jt_file, "--metric", str(metric_path)]) == 2
        self.assert_one_line_error(capsys)

    def test_ragged_metric_rows(self, jt_file, tmp_path, capsys):
        cells = [[{"re": "0", "im": "1" if j == k else "0"} for k in range(3)] for j in range(3)]
        cells[1] = cells[1][:2]
        metric_path = tmp_path / "ragged.json"
        metric_path.write_text(json.dumps({"n": 3, "X": cells}), encoding="utf-8")
        assert main(["classify", "--structure", jt_file, "--metric", str(metric_path)]) == 2
        self.assert_one_line_error(capsys)

    def test_search_k_out_of_range(self, jt_file, capsys):
        assert main(
            ["search", "--structure", jt_file, "--target", "gamma9<0", "--budget", "5"]
        ) == 2
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize(
        "se, family",
        [
            (catalog.jt(Fraction(1, 2)), "nonnilpotent6"),
            (catalog.family8(1, 2), "jt"),
            (catalog.iwasawa(), "family8"),
            # iwasawa is a catalog entry without closed forms
            (catalog.jt(Fraction(1, 2)), "iwasawa"),
            (catalog.jt(Fraction(1, 2)), "bogus"),
        ],
    )
    def test_search_family_must_be_the_structure(self, tmp_path, capsys, se, family):
        se_path = write(tmp_path / "se.dsl", dsl.format_structure(se))
        argv = ["search", "--structure", se_path, "--target", "gamma1<0", "--budget", "5",
                "--family", family]
        assert main(argv) == 2
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("family", ["reduced6", "nilpotent6", "jt"])
    def test_family_matching_the_structure_is_accepted(self, tmp_path, capsys, family):
        # jt(1/2) is reduced6 at rho=1, B=1, x=2, y=0, so nilpotent6 too
        se_path = write(tmp_path / "se.dsl", dsl.format_structure(catalog.jt(Fraction(1, 2))))
        argv = ["search", "--structure", se_path, "--target", "gamma1<0", "--budget", "5",
                "--family", family]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "witness"

    def test_family_params_option_is_gone(self, jt_file, capsys):
        argv = ["search", "--structure", jt_file, "--target", "skt", "--budget", "5",
                "--family", "jt", "--family-params", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--family-params" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["search", "--target", "skt", "--budget", "5"],
        ["verify-paper", "--only", "prop-3.5"],
    ], ids=["search", "verify-paper"])
    @pytest.mark.parametrize("seed", ["0xZZ", "1.5", ""])
    def test_bad_seed_names_the_option(self, jt_file, capsys, command, seed):
        argv = command + ["--seed", seed]
        if command[0] == "search":
            argv += ["--structure", jt_file]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument --seed: invalid seed value: {seed!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", [0, 1, 2, 4])
    def test_contact_needs_odd_dimension(self, tmp_path, capsys, dim):
        from gauduchon import sasakian

        doc = sasakian.contact_to_json(catalog.solvable5_contact())
        zero = doc["d"][0]
        doc.update(dim=dim, d=[zero] * dim, xi=["0"] * dim, phi=[["0"] * dim] * dim)
        path = write(tmp_path / "contact.json", json.dumps(doc))
        assert main(["bundle-extend", "--contact", path]) == 2
        self.assert_one_line_error(capsys)

    def test_abelian_needs_positive_n(self, capsys):
        assert main(["catalog", "emit", "abelian", "--param", "n=0"]) == 2
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("command", [
        ["check"],
        ["classify", "--json"],
        ["search", "--target", "skt", "--budget", "5"],
    ], ids=["check", "classify", "search"])
    def test_structure_needs_positive_n(self, tmp_path, capsys, command):
        se_path = write(tmp_path / "n0.json", json.dumps({"n": 0, "equations": []}))
        argv = command + ["--structure", se_path]
        if command[0] == "classify":
            argv += ["--metric", write(tmp_path / "m0.json", json.dumps({"n": 0, "X": []}))]
        assert main(argv) == 2
        self.assert_one_line_error(capsys)

    def test_zero_denominator_param(self, capsys):
        assert main(["catalog", "emit", "jt", "--param", "t=1/0"]) == 2
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("argv, line", [
        (["catalog", "emit", "jt", "--param", "t=1/0"],
         "catalog emit jt: bad --param t=1/0; jt takes t (nonzero rational)"),
        (["catalog", "emit", "jt", "--param", "t"],
         "catalog emit jt: bad --param t; jt takes t (nonzero rational)"),
        (["catalog", "emit", "jt", "--param", "t=abc"],
         "catalog emit jt: bad --param t=abc; jt takes t (nonzero rational)"),
        (["catalog", "emit", "abelian", "--param", "n=abc"],
         "catalog emit abelian: bad --param n=abc; abelian takes n (int)"),
        (["catalog", "emit", "abelian", "--param", "n=1/2"],
         "catalog emit abelian: bad --param n=1/2; abelian takes n (int)"),
        (["catalog", "emit", "reduced6", "--param", "x=1/0"],
         "catalog emit reduced6: bad --param x=1/0; reduced6 takes rho (0|1), B (complex), "
         "x (rational), y (rational)"),
        (["catalog", "emit", "nilpotent6", "--param", "A=1/0"],
         "catalog emit nilpotent6: bad --param A=1/0; nilpotent6 takes eps (0|1), rho (0|1), "
         "A (complex), B (complex), C (complex), D (complex)"),
        # a value is one literal, in which '#' starts no comment
        (["catalog", "emit", "nilpotent6", "--param", "eps=0", "--param", "rho=0", "--param",
          "A=1#+5i", "--param", "B=1", "--param", "C=0", "--param", "D=0"],
         "catalog emit nilpotent6: bad --param A=1#+5i; nilpotent6 takes eps (0|1), rho (0|1), "
         "A (complex), B (complex), C (complex), D (complex)"),
        (["catalog", "emit", "nonnilpotent6", "--param", "sign=+"],
         "catalog emit nonnilpotent6: bad --param sign=+; nonnilpotent6 takes eps (0|1), "
         "sign (1|-1)"),
        (["catalog", "emit", "family8", "--param", "p=1+i"],
         "catalog emit family8: bad --param p=1+i; family8 takes p (rational), q (rational)"),
        (["catalog", "emit", "jt", "--param", "x=1"],
         "catalog emit jt: bad --param x=1; jt takes t (nonzero rational)"),
        (["catalog", "emit", "iwasawa", "--param", "t=1"],
         "catalog emit iwasawa: bad --param t=1; iwasawa takes no parameters"),
        # a value outside the declared type's domain is the builder's BadParams
        (["catalog", "emit", "nonnilpotent6", "--param", "eps=2", "--param", "sign=1"],
         "catalog emit nonnilpotent6: eps in {0,1}, sign in {+1,-1} (--param eps=2 "
         "--param sign=1)"),
        (["catalog", "emit", "nonnilpotent6", "--param", "eps=1", "--param", "sign=0"],
         "catalog emit nonnilpotent6: eps in {0,1}, sign in {+1,-1} (--param eps=1 "
         "--param sign=0)"),
        (["catalog", "emit", "nonnilpotent6", "--param", "eps=1"],
         "catalog emit nonnilpotent6: missing --param sign; nonnilpotent6 takes eps (0|1), "
         "sign (1|-1)"),
        (["catalog", "emit", "family8"],
         "catalog emit family8: missing --param p, q; family8 takes p (rational), q (rational)"),
        (["catalog", "emit", "jt", "--param", "t=0"],
         "catalog emit jt: t must be nonzero (--param t=0)"),
        (["catalog", "emit", "jt", "--param", "t=0/5"],
         "catalog emit jt: t must be nonzero (--param t=0/5)"),
        (["catalog", "emit", "nilpotent6", "--param", "eps=0", "--param", "rho=2", "--param",
          "A=0", "--param", "B=0", "--param", "C=0", "--param", "D=0"],
         "catalog emit nilpotent6: eps and rho must be 0 or 1 (--param eps=0 --param rho=2 "
         "--param A=0 --param B=0 --param C=0 --param D=0)"),
        (["catalog", "emit", "abelian", "--param", "n=0"],
         "catalog emit abelian: n must be at least 1, got 0 (--param n=0)"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
    def test_bad_param_line_names_the_family_and_parameter(self, capsys, argv, line):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_every_declared_parameter_type_has_a_parser(self):
        from gauduchon.cli import _PARAM_PARSERS

        kinds = {kind for spec in catalog.list_families().values()
                 for kind in spec["params"].values()}
        assert kinds == set(_PARAM_PARSERS)

    @pytest.mark.parametrize("cell, field", [({"re": "0", "im": "1/0"}, "im"),
                                             ({"re": "1/0", "im": "1"}, "re")])
    def test_zero_denominator_in_a_metric_names_the_file(self, jt_file, tmp_path, capsys, cell,
                                                         field):
        cells = [[{"re": "0", "im": "1" if j == k else "0"} for k in range(3)] for j in range(3)]
        cells[1][2] = cell
        path = write(tmp_path / "zero-den.json", json.dumps({"n": 3, "X": cells}))
        assert main(["classify", "--structure", jt_file, "--metric", path]) == 2
        assert capsys.readouterr().err == f"error: {path}: X[1][2].{field}: a zero denominator\n"

    @pytest.mark.parametrize(
        "command, flag, doc",
        [
            ("classify", "--metric", {"n": 3, "X": 5}),
            ("classify", "--metric", {"X": [5, 5, 5]}),
            ("classify", "--metric", {"X": [[1]]}),
            ("classify", "--metric", [1, 2]),
            ("classify", "--metric", {"X": [[{"re": None, "im": "1"}]]}),
            ("check", "--structure", {"n": 3, "equations": 5}),
            ("check", "--structure", [1]),
            ("bundle-extend", "--contact", {"dim": 5, "d": 5}),
            ("bundle-extend", "--contact", []),
        ],
    )
    def test_wrong_shaped_json(self, jt_file, tmp_path, capsys, command, flag, doc):
        path = write(tmp_path / "input.json", json.dumps(doc))
        argv = [command, flag, path]
        if command == "classify":
            argv += ["--structure", jt_file]
        assert main(argv) == 2
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("command, flag, name, text, reason", [
        ("classify", "--metric", "huge.json",
         json.dumps({"n": 1, "X": [[{"re": "0", "im": "7" * 5000}]]}), "X[0][0].im: Exceeds"),
        ("classify", "--metric", "huge-number.json", '{"n": 1, "X": %s}' % ("7" * 5000),
         "not JSON: Exceeds"),
        ("check", "--structure", "no-equations.json", json.dumps({"n": 3}),
         "equations: missing"),
        ("check", "--structure", "not-json.json", "{not json", "not JSON: Expecting"),
        ("bundle-extend", "--contact", "deep.json", "[" * 100_000 + "]" * 100_000,
         "not JSON: maximum recursion depth exceeded"),
    ], ids=["5000-digit-cell", "5000-digit-number", "missing-field", "invalid-json", "too-deep"])
    def test_json_error_names_the_file(self, jt_file, tmp_path, capsys, command, flag, name,
                                       text, reason):
        path = write(tmp_path / name, text)
        argv = [command, flag, path]
        if command == "classify":
            argv += ["--structure", jt_file]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {reason}") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", [
        ["check", "--structure", "{dir}"],
        ["classify", "--structure", "{jt}", "--metric", "{dir}"],
        ["search", "--structure", "{jt}", "--target", "skt", "--budget", "2", "--out", "{dir}"],
        ["bundle-extend", "--contact", "{dir}"],
    ], ids=["check", "classify", "search-out", "bundle-extend"])
    def test_directory_path(self, jt_file, tmp_path, capsys, command):
        argv = [word.format(dir=tmp_path, jt=jt_file) for word in command]
        assert main(argv) == 2
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("out", ["{dir}", "{dir}/missing/out.json", "{file}/out.json"],
                             ids=["directory", "missing-parent", "parent-is-a-file"])
    def test_search_out_is_checked_before_sampling(self, jt_file, tmp_path, capsys,
                                                   monkeypatch, out):
        def no_sampling(*args, **kwargs):
            raise AssertionError("find_metric ran before --out was checked")

        monkeypatch.setattr(gauduchon.search, "find_metric", no_sampling)
        path = out.format(dir=tmp_path, file=write(tmp_path / "plain.txt", ""))
        argv = ["search", "--structure", jt_file, "--target", "skt", "--budget", "3000",
                "--out", path]
        assert main(argv) == 2
        self.assert_one_line_error(capsys)

    def test_search_out_survives_a_failed_search(self, jt_file, tmp_path, capsys):
        out = write(tmp_path / "out.json", "kept\n")
        new = tmp_path / "new.json"  # a file the failed search created is removed
        for bad in (["--target", "gamma9<0"], ["--target", "gamma1<0", "--budget", "0"],
                    ["--target", "gamma1<0", "--family", "family8"]):
            for path in (out, str(new)):
                assert main(["search", "--structure", jt_file, *bad, "--out", path]) == 2
                self.assert_one_line_error(capsys)
            assert Path(out).read_text(encoding="utf-8") == "kept\n"
            assert not new.exists()

    def test_float_metric_cell(self, tmp_path, capsys):
        se_path = write(tmp_path / "jt.dsl", dsl.format_structure(catalog.jt(Fraction(1, 2))))
        cells = [[{"re": "0", "im": "1" if j == k else "0"} for k in range(3)] for j in range(3)]
        cells[0][1] = cells[1][0] = {"re": 0, "im": 0.1}
        metric_path = write(tmp_path / "float.json", json.dumps({"n": 3, "X": cells}))
        assert main(["classify", "--json", "--structure", se_path, "--metric", metric_path]) == 2
        self.assert_one_line_error(capsys)

    def test_float_in_contact_xi(self, tmp_path, capsys):
        from gauduchon import sasakian

        doc = sasakian.contact_to_json(catalog.solvable5_contact())
        doc["xi"][0] = 0.1
        path = write(tmp_path / "contact.json", json.dumps(doc))
        assert main(["bundle-extend", "--contact", path]) == 2
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("command", ["check", "classify"])
    def test_generator_index_zero(self, tmp_path, capsys, command):
        # w0 would be rank -1, the last generator's conjugate
        term = {"re": "1", "im": "0", "mon": [["w", 0], ["cw", 1]]}
        se_path = write(tmp_path / "idx0.json", json.dumps({"n": 2, "equations": [[], [term]]}))
        argv = [command, "--structure", se_path]
        if command == "classify":
            cells = [[{"re": "0", "im": "1" if j == k else "0"} for k in range(2)]
                     for j in range(2)]
            argv += ["--metric", write(tmp_path / "m.json", json.dumps({"n": 2, "X": cells}))]
        assert main(argv) == 2
        self.assert_one_line_error(capsys)

    def test_contact_rank_zero(self, tmp_path, capsys):
        from gauduchon import sasakian

        doc = sasakian.contact_to_json(catalog.solvable5_contact())
        doc["F"] = [{"coef": "1", "mon": [0, 2]}]
        path = write(tmp_path / "contact.json", json.dumps(doc))
        assert main(["bundle-extend", "--contact", path]) == 2
        self.assert_one_line_error(capsys)

    def test_differential_not_a_2_form(self, tmp_path, capsys):
        path = write(tmp_path / "deg1.dsl", "n: 2\ndw1: 0\ndw2: w1\n")
        assert main(["check", "--structure", path]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line 3, col 1: dw2 must be a 2-form, got degree 1\n")

    @pytest.mark.parametrize("command", [
        ["check"],
        ["classify", "--metric", "m.json"],
        ["search", "--target", "skt", "--budget", "5"],
    ], ids=["check", "classify", "search"])
    def test_structure_not_utf8(self, tmp_path, capsys, command):
        path = tmp_path / "bytes.dsl"
        path.write_bytes(b"\xff")
        assert main(command + ["--structure", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff"
            " in position 0: invalid start byte\n")

    def test_unknown_claim_id(self, capsys):
        assert main(["verify-paper", "--only", "nope"]) == 2
        assert capsys.readouterr().err == "error: unknown claim id 'nope'\n"

    def test_contact_curvature_not_a_2_form(self, tmp_path, capsys):
        from gauduchon import sasakian

        doc = sasakian.contact_to_json(catalog.heisenberg5_contact())
        doc["F"] = [{"coef": "1", "mon": [1]}]  # closed, so only its degree is wrong
        path = write(tmp_path / "contact.json", json.dumps(doc))
        assert main(["bundle-extend", "--contact", path]) == 2
        assert capsys.readouterr().err == f"error: {path}: F must be a 2-form, got degree 1\n"

    def test_contact_eta_not_a_1_form(self, tmp_path, capsys):
        from gauduchon import sasakian

        doc = sasakian.contact_to_json(catalog.solvable5_contact())
        doc["eta"] = [{"coef": "1", "mon": [1, 2]}]
        path = write(tmp_path / "contact.json", json.dumps(doc))
        assert main(["bundle-extend", "--contact", path]) == 2
        assert capsys.readouterr().err == f"error: {path}: eta must be a 1-form, got degree 2\n"

    @pytest.mark.parametrize("cut", [
        lambda doc: doc["xi"].pop(),
        lambda doc: doc["phi"].pop(),
        lambda doc: doc["phi"][2].pop(),
    ], ids=["short-xi", "short-phi", "ragged-phi"])
    def test_contact_of_wrong_shape(self, tmp_path, capsys, cut):
        from gauduchon import sasakian

        doc = sasakian.contact_to_json(catalog.solvable5_contact())
        cut(doc)
        path = write(tmp_path / "contact.json", json.dumps(doc))
        assert main(["bundle-extend", "--contact", path]) == 2
        self.assert_one_line_error(capsys)


class TestEngineFaults:
    """Only the error type decides the exit code: a builtin exception raised
    by the engine on good input is a program fault, not bad input."""

    @pytest.mark.parametrize("fault", [ZeroDivisionError, ValueError, KeyError])
    def test_fault_in_the_classify_kernel_propagates(self, jt_file, diag_metric_file,
                                                     monkeypatch, fault):
        def paired(sums, metric, q):
            raise fault("engine fault")

        monkeypatch.setattr(gauduchon.hermitian, "_paired", paired)
        with pytest.raises(fault, match="engine fault"):
            main(["classify", "--structure", jt_file, "--metric", diag_metric_file])

    @pytest.mark.parametrize("fault", [ZeroDivisionError, ValueError, KeyError])
    def test_fault_in_the_compiled_pairing_propagates(self, tmp_path, monkeypatch, fault):
        # the compiled ddbar(Omega^k) map, which search reads, pairs through _complement
        def complement(mask, n):
            raise fault("engine fault")

        se_file = write(tmp_path / "family8.dsl", dsl.format_structure(catalog.family8(1, 0)))
        monkeypatch.setattr(gauduchon.hermitian, "_complement", complement)
        with pytest.raises(fault, match="engine fault"):
            main(["search", "--structure", se_file, "--target", "gamma1<0", "--budget", "4"])

    # how to make the code that loads an input raise, and a command that loads it
    LOAD_PHASE = {
        "derive-json": (lambda mp, f: mp.setattr(gauduchon.structures, "_derive", f),
                        ["check", "--structure", "{jt_json}"]),
        "derive-dsl": (lambda mp, f: mp.setattr(gauduchon.structures, "_derive", f),
                       ["check", "--structure", "{jt}"]),
        "metric-init": (lambda mp, f: mp.setattr(Metric, "_init", f),
                        ["classify", "--structure", "{jt}", "--metric", "{metric}"]),
        "contact-check": (lambda mp, f: mp.setattr(gauduchon.sasakian.ContactData, "_check", f),
                          ["bundle-extend", "--contact", "{contact}"]),
        "contact-positivity": (lambda mp, f: mp.setattr(Metric, "is_positive", f),
                               ["bundle-extend", "--contact", "{contact}"]),
        "catalog-builder": (lambda mp, f: mp.setitem(catalog._FAMILIES["jt"], "builder", f),
                            ["catalog", "emit", "jt", "--param", "t=1/2"]),
        "family-reader": (lambda mp, f: mp.setitem(
            catalog.CLOSED_FORM_FAMILIES, "jt", catalog.CLOSED_FORM_FAMILIES["jt"]._replace(read=f)),
            ["search", "--structure", "{jt}", "--target", "skt", "--family", "jt"]),
    }

    @pytest.mark.parametrize("where", list(LOAD_PHASE))
    @pytest.mark.parametrize("fault", [ZeroDivisionError, ValueError, KeyError, TypeError])
    def test_fault_while_loading_propagates(self, jt_file, diag_metric_file, tmp_path,
                                            monkeypatch, where, fault):
        def raising(*args, **kwargs):
            raise fault("engine fault")

        patch, command = self.LOAD_PHASE[where]
        files = {"jt": jt_file, "metric": diag_metric_file,
                 "jt_json": write(tmp_path / "jt.json",
                                  json.dumps(dsl.structure_to_json(catalog.jt(1)))),
                 "contact": write(tmp_path / "solvable5.json", json.dumps(
                     gauduchon.sasakian.contact_to_json(catalog.solvable5_contact())))}
        patch(monkeypatch, raising)
        with pytest.raises(fault, match="engine fault"):
            main([word.format(**files) for word in command])


_MISSING = object()


def _set(doc, path, value):
    """Put value at path; _MISSING deletes a key, or puts null in an array slot."""
    *head, last = path
    for key in head:
        doc = doc[key]
    if value is _MISSING and isinstance(last, str):
        del doc[last]
    else:
        doc[last] = None if value is _MISSING else value


def _term(coef, mon):
    return [{"coef": coef, "mon": mon}]


# (command with {file}, the document, [(path to a field, its name in the
# error, a malformed value, a value with a zero denominator)]); every field
# is also given a 5000-digit literal and left out
_STRUCTURE = dsl.structure_to_json(catalog.jt(Fraction(1, 2)))
_METRIC = {"n": 3, "X": [[{"re": "0", "im": "1" if j == k else "0"} for k in range(3)]
                         for j in range(3)]}
_ZERO_CELL = {"re": "1/0", "im": "0"}
JSON_FIELDS = {
    "structure": (["check", "--structure", "{file}"], _STRUCTURE, [
        (("n",), "n", "x", "1/0"),
        (("equations",), "equations", "x",
         [[{"re": "1/0", "im": "0", "mon": [["w", 1], ["w", 2]]}]] * 3),
        (("equations", 2), "equations[2]", "x",
         [{"re": "1/0", "im": "0", "mon": [["w", 1], ["w", 2]]}]),
        (("equations", 2, 0, "re"), "equations[2][0].re", "x", "1/0"),
        (("equations", 2, 0, "im"), "equations[2][0].im", "1+", "2/0"),
        (("equations", 2, 0, "mon"), "equations[2][0].mon", "x", [["w", "1/0"], ["w", 2]]),
    ]),
    "metric": (["classify", "--structure", "{jt}", "--metric", "{file}"], _METRIC, [
        (("n",), "n", "x", "1/0"),
        (("X",), "X", "x", [[_ZERO_CELL] * 3] * 3),
        (("X", 1), "X[1]", "x", [_ZERO_CELL] * 3),
        (("X", 1, 2, "re"), "X[1][2].re", "x", "1/0"),
        (("X", 1, 2, "im"), "X[1][2].im", "x", "-3/0"),
    ]),
    "contact": (["bundle-extend", "--contact", "{file}"],
                gauduchon.sasakian.contact_to_json(catalog.solvable5_contact()), [
        (("dim",), "dim", "x", "1/0"),
        (("d",), "d", "x", [_term("1/0", [1, 2])] * 5),
        (("d", 4), "d[4]", "x", _term("1/0", [1, 4])),
        (("eta",), "eta", "x", _term("1/0", [5])),
        (("xi",), "xi", "x", ["1/0"] * 5),
        (("xi", 4), "xi[4]", "x", "1/0"),
        (("phi",), "phi", "x", [["1/0"] * 5] * 5),
        (("phi", 2), "phi[2]", "x", ["1/0"] * 5),
        (("phi", 2, 1), "phi[2][1]", "x", "1/0"),
        (("Phi",), "Phi", "x", _term("1/0", [1, 4])),
        (("F",), "F", "x", _term("1/0", [1, 4])),
    ]),
}
# (path to an integer or rational leaf, the field named in the error); each
# leaf is also given true and false, which no JSON reader takes as 1 or 0
JSON_LEAVES = {
    "structure": [(("n",), "n"), (("equations", 2, 0, "re"), "equations[2][0].re"),
                  (("equations", 2, 0, "im"), "equations[2][0].im"),
                  (("equations", 2, 0, "mon", 0, 1), "equations[2][0].mon")],
    "metric": [(("n",), "n"), (("X", 0, 0, "im"), "X[0][0].im"), (("X", 1, 2, "re"), "X[1][2].re"),
               (("X", 1, 2, "im"), "X[1][2].im")],
    "contact": [(("dim",), "dim"), (("d", 4, 0, "coef"), "d[4]"), (("d", 4, 1, "mon", 0), "d[4]"),
                (("eta", 0, "coef"), "eta"), (("eta", 0, "mon", 0), "eta"), (("xi", 4), "xi[4]"),
                (("phi", 2, 1), "phi[2][1]"), (("Phi", 0, "coef"), "Phi"),
                (("Phi", 1, "mon", 1), "Phi"), (("F", 0, "coef"), "F"), (("F", 1, "mon", 0), "F")],
}
JSON_FIELD_CASES = [
    pytest.param(kind, path, name, value, id=f"{kind}-{name}-{how}")
    for kind, (_, _, fields) in JSON_FIELDS.items()
    for path, name, malformed, zero in fields
    for how, value in (("malformed", malformed), ("zero-denominator", zero),
                       ("over-long", "7" * 5000), ("missing", _MISSING))
] + [
    pytest.param(kind, path, name, value, id=f"{kind}-{'.'.join(map(str, path))}-{value}")
    for kind, leaves in JSON_LEAVES.items()
    for path, name in leaves
    for value in (True, False)
]


@pytest.mark.parametrize("kind, path, name, value", JSON_FIELD_CASES)
def test_bad_json_field_names_the_file_and_the_field(jt_file, tmp_path, capsys, kind, path,
                                                     name, value):
    command, doc, _ = JSON_FIELDS[kind]
    doc = json.loads(json.dumps(doc))
    _set(doc, path, value)
    path = write(tmp_path / f"{kind}.json", json.dumps(doc))
    assert main([word.format(file=path, jt=jt_file) for word in command]) == 2
    err = capsys.readouterr().err
    head = f"error: {path}: {name}"  # the field, or one inside it: "n: ", not "need"
    assert err.startswith(head) and err[len(head)] in ":[." and err.count("\n") == 1, err


class TestReplay:
    def test_replay_with_family_reproduces_output(self, tmp_path, capsys):
        se_path = write(tmp_path / "f8.dsl", dsl.format_structure(catalog.family8(1, 0)))
        argv = [
            "search", "--structure", se_path, "--target", "gauduchon1=0",
            "--budget", "20", "--seed", "3", "--family", "family8",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        replay = json.loads(first)["replay"]
        assert replay.endswith(" --family family8")
        words = replay.split()
        assert words[0] == "gauduchon"
        assert main(words[1:]) == 0
        assert capsys.readouterr().out == first

    def test_replay_is_shell_safe(self, jt_file, capsys):
        argv = ["search", "--structure", jt_file, "--target", "gamma1<0",
                "--budget", "4", "--seed", "2"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        replay = json.loads(first)["replay"]
        assert "'gamma1<0'" in replay
        words = shlex.split(replay)
        assert words[0] == "gauduchon"
        assert main(words[1:]) == 0
        assert capsys.readouterr().out == first

    def test_replay_without_family_is_unchanged(self, jt_file, capsys):
        assert main(["search", "--structure", jt_file, "--target", "skt",
                     "--budget", "3", "--seed", "5"]) == 0
        replay = json.loads(capsys.readouterr().out)["replay"]
        assert replay == (f"gauduchon search --structure {jt_file} --target skt"
                          " --budget 3 --seed 5")


def test_corrupted_catalog_fails_under_optimize(tmp_path):
    """Claims use ensure(), which python -O keeps, unlike assert."""
    import subprocess
    import sys
    from pathlib import Path

    import gauduchon

    src = str(Path(gauduchon.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from gauduchon import catalog\n"
        "from gauduchon.cli import main\n"
        "catalog.jt = lambda t: catalog.reduced6(rho=1, B=-1, x=1 / Fraction(t), y=0)\n"
        "sys.exit(main(['verify-paper', '--only', 'example-3.8']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, cwd=tmp_path,
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL  example-3.8" in proc.stdout
    assert "first failing claim: example-3.8" in proc.stderr
