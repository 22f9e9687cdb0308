"""Batch driver: randomized verification suites and one-shot computations.

Exit statuses: 0 success, 1 property failure, 2 config error, 3 parse or
domain error.  All payloads use the canonical JSON forms from serialize.
"""

import argparse
import sys

from . import serialize
from .errors import ConfigError, KernelError, ParseError
from .flag import flag_pi, jacobian_at_identity, poincare_act
from .matrix import berezinian
from .suites import SUITE_NAMES, SuiteConfig, run_suites


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="superweil",
        description="Exact Grassmann-number kernel: verify suites or run "
        "one-shot computations on serialized inputs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run randomized verification suites")
    v.add_argument("--seed", type=int, default=0, help="master seed")
    v.add_argument("--trials", type=int, default=25,
                   help="trials per randomized property")
    v.add_argument("--odd", type=int, default=6,
                   help="odd generators of the coefficient algebra")
    v.add_argument("--even", type=int, default=1,
                   help="even generators of the coefficient algebra")
    v.add_argument("--suite", default=",".join(SUITE_NAMES),
                   help="comma-separated suite names "
                   f"(default: {','.join(SUITE_NAMES)})")
    v.add_argument("--report", metavar="PATH",
                   help="also write the report as JSON to PATH")
    v.add_argument("--only-trial", type=int, default=None, metavar="INT",
                   help="rerun a single trial index (failure replay)")

    c = sub.add_parser("compute", help="run one computation on a payload")
    c.add_argument("what", choices=("ber", "pi", "act", "jacobian"))
    c.add_argument("--in", dest="infile", metavar="PATH",
                   help="input payload (required except for jacobian)")
    c.add_argument("--out", metavar="PATH",
                   help="write the result here instead of stdout")
    c.add_argument("--basis", choices=("gl", "sl", "stabilizer"),
                   default="sl", help="direction basis for jacobian")
    return ap


def _run_verify(args) -> int:
    try:
        cfg = SuiteConfig(
            master_seed=args.seed,
            trials=args.trials,
            odd=args.odd,
            even=args.even,
            suites=tuple(s for s in args.suite.split(",") if s),
            only_trial=args.only_trial,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # open the report before the run, so an unwritable path costs no suites
    if args.report and not _write(args.report, ""):
        return 2
    report = run_suites(cfg)
    print(report.text())
    if args.report and not _write(args.report, serialize.dumps(report.to_obj())):
        return 2
    return 0 if report.total_failed == 0 else 1


def _write(path: str, text: str) -> bool:
    """Write text and a newline to path; an unwritable path is a config error."""
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return False
    return True


def _compute_payload(what: str, obj):
    if what == "ber":
        g = serialize.matrix_from_obj(obj)
        return serialize.element_to_obj(berezinian(g))
    if what == "pi":
        g = serialize.matrix_from_obj(obj)
        return serialize.point_to_obj(flag_pi(g))
    # act: a Poincaré element applied to a big-cell point
    if not isinstance(obj, dict) or set(obj) != {"poincare", "point"}:
        raise ParseError('payload: expected keys ["poincare", "point"]')
    P = serialize.poincare_from_obj(obj["poincare"], "payload.poincare")
    pt = serialize.point_from_obj(obj["point"], "payload.point")
    return serialize.point_to_obj(poincare_act(P, pt))


def _run_compute(args) -> int:
    if args.what == "jacobian":
        rep = jacobian_at_identity(args.basis)
        out = serialize.dumps(serialize.jacobian_to_obj(rep))
    else:
        if not args.infile:
            print(f"compute {args.what} needs --in PATH", file=sys.stderr)
            return 2
        try:
            with open(args.infile, encoding="utf-8") as fh:
                obj = serialize.loads(fh.read())
            result = _compute_payload(args.what, obj)
        except (ParseError, UnicodeDecodeError) as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return 3
        except KernelError as exc:
            print(f"domain error: {exc}", file=sys.stderr)
            return 3
        except OSError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        out = serialize.dumps(result)
    if args.out:
        return 0 if _write(args.out, out) else 2
    print(out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; preserve both
        return exc.code if isinstance(exc.code, int) else 2
    if args.command == "verify":
        return _run_verify(args)
    return _run_compute(args)


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
