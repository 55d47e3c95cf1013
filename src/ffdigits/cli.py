"""Command-line front door: censuses, predictors, and the verification battery.

Exit codes: 0 success, 1 a verification check failed, 2 usage error, 3 the
orthogonality sums broke their symmetry or divisibility, 4 budget exceeded or out of memory.

Each command imports what it runs: `count` loads `field`, `sieve` and `census`
alone; `scan` and `predict` add the predictor (`circle` and what it imports),
and `verify` the checks.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack

from .census import BudgetError, DEFAULT_BUDGET, count_restricted, scan, write_csv, write_json
from .field import FieldError, FieldSpec, RestrictedSet, get_field, prime_power

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_BUDGET = 4


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    restricted = argparse.ArgumentParser(add_help=False)
    restricted.add_argument("--q", type=int, help="field size (prime power)")
    restricted.add_argument(
        "--ext-modulus",
        help="defining modulus for extension fields, comma-separated F_p residues",
    )
    restricted.add_argument("--forbid", default="", help="forbidden coefficients, e.g. 0,3,7")
    # the commands that run censuses; predict runs none
    common = argparse.ArgumentParser(add_help=False, parents=[restricted])
    common.add_argument("--workers", type=_positive_int, default=None, help="census threads")
    common.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="max candidates, sieve-list candidates and sieve-table codes per census",
    )

    parser = argparse.ArgumentParser(
        prog="ffdigits",
        description="Exact censuses and bound verification for irreducible "
        "polynomials with restricted coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", parents=[common], help="exact census for one degree")
    p_count.add_argument("--n", type=int, required=True)

    p_pred = sub.add_parser("predict", parents=[restricted], help="asymptotic predictor value")
    p_pred.add_argument("--n", type=int, required=True)

    p_scan = sub.add_parser("scan", parents=[common], help="census reports over a degree range")
    p_scan.add_argument("--n", required=True, help="degree range lo:hi or comma list")
    p_scan.add_argument("--json", help="write line-delimited JSON report here")
    p_scan.add_argument("--csv", help="write CSV report here")

    p_ver = sub.add_parser("verify", parents=[common], help="run verification checks")
    p_ver.add_argument("check", help="check id or 'all'", nargs="?", default="all")
    p_ver.add_argument("--n", type=int, help="override degree where applicable")
    p_ver.add_argument("--d-max", type=int, help="override max denominator degree")
    p_ver.add_argument("--json", help="write line-delimited JSON results here")

    return parser


def _field_from_args(args) -> FieldSpec:
    q = args.q if args.q is not None else 2
    modulus = None
    if args.ext_modulus:
        modulus = tuple(int(c) for c in args.ext_modulus.split(","))
    return get_field(*prime_power(q), modulus)


def _restricted_from_args(args) -> RestrictedSet:
    return RestrictedSet.parse(_field_from_args(args), args.forbid)


def _parse_degrees(text: str) -> list:
    lo, colon, hi = text.strip().partition(":")
    degrees = list(range(int(lo), int(hi) + 1)) if colon else [int(t) for t in lo.split(",")]
    if not degrees:
        raise ValueError(f"no degrees in {text!r}")
    return degrees


def _open_output(stack: ExitStack, path, **kwargs):
    """Open an output file for writing, before any work is done; None if no path."""
    if not path:
        return None
    try:
        return stack.enter_context(open(path, "w", **kwargs))
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def _cmd_count(args) -> int:
    R = _restricted_from_args(args)
    print(count_restricted(R, args.n, workers=args.workers or 1, budget=args.budget))
    return EXIT_OK


def _cmd_predict(args) -> int:
    from .circle import PredictorParams, predictor

    R = _restricted_from_args(args)
    params = PredictorParams.from_restricted(R, args.n)
    if params.flagged:
        print(f"note: s={params.s} exceeds sqrt(q)/2; prediction is extrapolated", file=sys.stderr)
    print(f"{predictor(params):.6g}")
    return EXIT_OK


def _cmd_scan(args) -> int:
    R = _restricted_from_args(args)
    degrees = _parse_degrees(args.n)
    with ExitStack() as stack:
        csv_fh = _open_output(stack, args.csv, newline="")
        json_fh = _open_output(stack, args.json)
        reports = scan(R, degrees, workers=args.workers or 1, budget=args.budget)
        if csv_fh:
            write_csv(reports, csv_fh)
        if json_fh:
            write_json(reports, json_fh)
    header = f"{'n':>4} {'exact':>14} {'predictor':>14} {'ratio':>10} {'lambda':>8} {'elapsed_s':>10}"
    print(header)
    for rep in reports:
        if rep.error:
            print(f"{rep.n:>4} error: {rep.error}")
            continue
        print(
            f"{rep.n:>4} {rep.exact:>14} {rep.predictor:>14.6g} "
            f"{rep.ratio:>10.5f} {float(rep.lam):>8.5f} {rep.elapsed:>10.3f}"
        )
    return EXIT_OK


def _verify_flags(args) -> dict:
    """Each verify flag given -> the check parameters it sets, in order of preference."""
    q, n = args.q, args.n
    flags = {
        "--q": (q is not None, [("q", q), ("qs", (q,)), ("ps", (q,))]),
        "--n": (n is not None, [("n_max", n), ("ns", (n,))]),
        "--d-max": (args.d_max is not None, [("d_max", args.d_max)]),
        "--budget": (args.budget != DEFAULT_BUDGET, [("budget", args.budget)]),
        "--workers": (args.workers is not None, [("workers", args.workers)]),
        "--forbid": (bool(args.forbid), []),
        "--ext-modulus": (bool(args.ext_modulus), []),
    }
    return {flag: choices for flag, (given, choices) in flags.items() if given}


def _check_params(flags: dict, accepted) -> dict:
    """The check parameters that the given flags set, of those in `accepted`."""
    params = {}
    for choices in flags.values():
        for name, value in choices:
            if name in accepted:
                params[name] = value
                break
    return params


def _cmd_verify(args) -> int:
    # here, so that a census does not compile the checks
    import inspect
    import json

    from .checks import CHECKS, run_check
    from .circle import NumericalError

    ids = list(CHECKS) if args.check == "all" else [args.check]
    unknown = [c for c in ids if c not in CHECKS]
    if unknown:
        print(f"unknown check: {', '.join(unknown)}", file=sys.stderr)
        return EXIT_USAGE
    flags = _verify_flags(args)
    accepted = set().union(*(inspect.signature(CHECKS[c]).parameters for c in ids))
    ignored = [f for f, choices in flags.items() if not any(n in accepted for n, _ in choices)]
    if ignored:
        print(f"verify {args.check}: no check takes {', '.join(ignored)}", file=sys.stderr)
        return EXIT_USAGE
    results = []
    with ExitStack() as stack:
        json_fh = _open_output(stack, args.json)
        print(f"{'check':<16} {'cases':>8} {'result':>8} {'elapsed_s':>10}")
        for check_id in ids:
            params = _check_params(flags, inspect.signature(CHECKS[check_id]).parameters)
            try:
                result = run_check(check_id, **params)
            except NumericalError as exc:
                print(f"numerical failure: {exc}", file=sys.stderr)
                return EXIT_NUMERICAL
            results.append(result)
            verdict = "pass" if result.passed else "FAIL"
            print(f"{check_id:<16} {result.cases:>8} {verdict:>8} {result.elapsed:>10.2f}")
            for witness in result.witnesses:
                print(f"    worst: {json.dumps(witness, sort_keys=True, default=str)}")
            if json_fh:
                json_fh.write(json.dumps(result.to_dict(), sort_keys=True, default=str) + "\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


_COMMANDS = {
    "count": _cmd_count,
    "predict": _cmd_predict,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as exc:
        print(f"out of memory: {exc} (a smaller --budget refuses such a census)", file=sys.stderr)
        return EXIT_BUDGET
    except (FieldError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
