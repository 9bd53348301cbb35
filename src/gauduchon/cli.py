"""Command-line front door.

Subcommands: check, classify, search, catalog, bundle-extend, verify-paper.
JSON is the machine interface (--json where applicable); outputs use exact
rational strings and stable key order.  The error type alone decides the
exit code: 0 ok; 2 a BadInput or OSError (bad input, an unreadable path), on
one "error:" line; 1 any other GauduchonError (a check failed on well-formed
input), on one "check failed:" line.  Anything else is a program fault and
propagates as a traceback.  Every input file goes through _load, which puts
its name in front of any BadInput its reader raises.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shlex
import sys
from fractions import Fraction

from . import catalog, dsl, sasakian, search, verify
from .errors import BadInput, BadParams, GauduchonError
from .forms import format_real_form
from .hermitian import classify
from .search import parse_target


def _seed(text: str) -> int:
    """A --seed value: an int literal in any base Python reads (42, 0x5eed)."""
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed value: {text!r}") from None


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _write(text: str, path) -> None:
    """Write text to the file at path, or to stdout when path is None."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")


def _json(reader):
    """The read of a JSON file for _load: the text decoded, then reader(document)."""
    def read(text: str):
        try:
            document = json.loads(text)
        except (ValueError, RecursionError) as exc:  # not JSON, too long a number, too deep
            raise BadParams(f"not JSON: {exc}") from None
        return reader(document)
    return read


def _load(path: str, read):
    """read(the UTF-8 text of the file at path).

    Text that is not UTF-8 and any BadInput that read raises are reported
    as BadParams on one line that starts with the file name.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise BadParams(f"{path}: not UTF-8 text: {exc}") from None
    try:
        return read(text)
    except BadInput as exc:
        raise BadParams(f"{path}: {exc}") from None


def _load_structure(path: str):
    read = _json(dsl.structure_from_json) if path.endswith(".json") else dsl.parse_structure
    return _load(path, read)


def cmd_check(args) -> int:
    se = _load_structure(args.structure)  # raises on Jacobi/integrability
    payload = {
        "n": se.n,
        "jacobi": "ok",
        "integrable": "ok",
        "unimodular": se.is_unimodular(),
    }
    if args.json:
        print(_dump(payload))
    else:
        print(f"n = {se.n}: Jacobi ok, integrable ok, unimodular = {payload['unimodular']}")
    return 0


def cmd_classify(args) -> int:
    se = _load_structure(args.structure)
    metric = _load(args.metric, _json(dsl.metric_from_json))
    report = classify(metric, se)
    if args.json:
        print(_dump(report.to_json()))
    else:
        print(f"label: {report.label}")
        for name in ("kahler", "skt", "astheno", "balanced"):
            print(f"{name:>9}: {getattr(report, name)}")
        for k in sorted(report.gauduchon):
            print(f"gauduchon{k}: {report.gauduchon[k]}  (gamma{k} = {report.gamma[k]})")
        print(f"lee form: {report.lee!r}")
    return 0


def cmd_search(args) -> int:
    se = _load_structure(args.structure)
    target = parse_target(args.target)
    created = bool(args.out) and not os.path.exists(args.out)
    if args.out:
        # a bad path fails here, before sampling; appending leaves an existing file intact
        open(args.out, "a", encoding="utf-8").close()
    try:
        outcome = search.find_metric(se, target, args.budget, args.seed, args.family)
    except BaseException:
        if created:  # a rejected search leaves no file it made
            os.remove(args.out)
        raise
    replay = ["gauduchon", "search", "--structure", args.structure, "--target", args.target,
              "--budget", str(args.budget), "--seed", str(args.seed)]
    if args.family is not None:
        replay += ["--family", args.family]
    outcome.replay = shlex.join(replay)
    _write(_dump(outcome.to_json()) + "\n", args.out)
    return 0


# the literal parser of each parameter type that catalog.list_families()
# declares; the family's builder checks the value's domain
_PARAM_PARSERS = {"0|1": int, "1|-1": int, "int": int, "rational": Fraction,
                  "nonzero rational": Fraction, "complex": dsl.parse_complex_literal}


def _family_params(name: str, declared: dict, items: list) -> dict:
    """--param key=value items, each value parsed by the type declared for key;
    every declared parameter is required."""
    takes = ", ".join(f"{k} ({kind})" for k, kind in declared.items()) or "no parameters"
    params = {}
    for item in items:
        key, _, value = item.partition("=")
        bad = BadParams(f"catalog emit {name}: bad --param {item}; {name} takes {takes}")
        if key not in declared:
            raise bad
        try:
            params[key] = _PARAM_PARSERS[declared[key]](value)
        except (BadInput, ValueError, ZeroDivisionError):
            raise bad from None
    missing = [key for key in declared if key not in params]
    if missing:
        raise BadParams(f"catalog emit {name}: missing --param {', '.join(missing)}; "
                        f"{name} takes {takes}")
    return params


def cmd_catalog(args) -> int:
    if args.action == "list":
        listing = catalog.list_families()
        for contact in catalog.CONTACT_ENTRIES:
            listing[contact] = {"params": {}, "doc": "contact data (JSON, feeds bundle-extend)"}
        print(_dump(listing))
        return 0
    name = args.name
    if name is None:
        raise BadParams("catalog emit needs a family name")
    if name in catalog.CONTACT_ENTRIES:
        contact = catalog.CONTACT_ENTRIES[name]()
        _write(_dump(sasakian.contact_to_json(contact)) + "\n", args.out)
        return 0
    spec = catalog.list_families().get(name)
    items = args.param or []
    params = _family_params(name, spec["params"], items) if spec else {}
    try:
        se = catalog.build(name, **params)  # an unknown family raises UnknownFamily here
    except BadParams as exc:  # a domain check of the family's builder
        given = " ".join(f"--param {item}" for item in items)
        raise BadParams(f"catalog emit {name}: {exc} ({given})") from None
    _write(dsl.format_structure(se), args.out)
    return 0


def cmd_bundle_extend(args) -> int:
    contact = _load(args.contact, _json(sasakian.contact_from_json))
    ext = sasakian.bundle_extend(contact)
    payload = {
        "structure_dsl": dsl.format_structure(ext.structure),
        "metric": dsl.metric_to_json(ext.metric),
        "criterion_form": dsl.real_form_to_json(ext.criterion_form),
        "criterion_scalar": str(ext.criterion_scalar),
    }
    if args.json:
        print(_dump(payload))
    else:
        print(payload["structure_dsl"], end="")
        print(f"criterion form: {format_real_form(ext.criterion_form)}")
        print(f"criterion scalar: {ext.criterion_scalar}")
    return 0


def cmd_verify_paper(args) -> int:
    report = verify.run_verify_paper(seed=args.seed, only=args.only)
    if args.json:
        print(_dump(report.to_json()))
    else:
        print(report.to_text())
    if report.overall:
        return 0
    print(f"first failing claim: {report.first_failure().claim}", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser; its .commands maps each subcommand to its own parser."""
    parser = argparse.ArgumentParser(
        prog="gauduchon",
        description="exact invariant Hermitian geometry on Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}

    def command(name: str, help: str) -> argparse.ArgumentParser:
        p = parser.commands[name] = sub.add_parser(name, help=help)
        p.set_defaults(command=name)
        return p

    p = command("check", help="validate a structure-equation file")
    p.add_argument("--structure", required=True)
    p.add_argument("--json", action="store_true")

    p = command("classify", help="full metric-class report")
    p.add_argument("--structure", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--json", action="store_true")

    p = command("search", help="search metric space for a target")
    p.add_argument("--structure", required=True)
    p.add_argument("--target", required=True,
                   help=" | ".join(spelling.format(k=1)
                                   for spelling, _ in search._TARGETS.values()))
    p.add_argument("--budget", type=int, default=search.DEFAULT_BUDGET)
    p.add_argument("--seed", type=_seed, default=search.DEFAULT_SEED)
    p.add_argument("--family", default=None,
                   help="the catalog family the structure is a build of, whose closed "
                        "forms may certify the answer; its parameters are read off the "
                        "structure: " + " | ".join(catalog.CLOSED_FORM_FAMILIES))
    p.add_argument("--out", default=None)

    p = command("catalog", help="list families or emit DSL text")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("name", nargs="?")
    p.add_argument("--param", action="append",
                   help="key=value; repeat per parameter (e.g. --param t=1/2)")
    p.add_argument("--out", default=None)

    p = command("bundle-extend", help="extend contact data by a curvature form")
    p.add_argument("--contact", required=True)
    p.add_argument("--json", action="store_true")

    p = command("verify-paper", help="run the bundled reproduction suite")
    p.add_argument("--only", default=None, help="run a single claim id")
    p.add_argument("--seed", type=_seed, default=verify.DEFAULT_SEED)
    p.add_argument("--json", action="store_true")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process and reused by every main call."""
    return build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _parser()
    # argv that starts with a subcommand goes straight to that subcommand's
    # parser; anything else (-h, no command, an unknown one) to the top level
    sub = parser.commands.get(argv[0]) if argv else None
    args = parser.parse_args(argv) if sub is None else sub.parse_args(argv[1:])
    # looked up per call, so the cached parser holds no command function and a
    # rebinding of cmd_* in this module (e.g. by a profiler) takes effect
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (BadInput, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GauduchonError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
