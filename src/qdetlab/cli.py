"""Command-line front end: list checks, explain one, run suites.

Exit codes: 0 all identity checks passed, 1 any identity-check failure,
2 usage error (bad arguments, a malformed SOURCE_DATE_EPOCH, or an --output
that cannot be written), 3 internal error (an unexpected exception, printed
with its traceback; no verdict was reached).  Evidence-mode outcomes are
summarized but never affect the exit code.  The default seed is 42,
overridable by the QDETLAB_SEED environment variable and then by --seed.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from .errors import UsageError
from .identities import REGISTRY, check_ids, get_check, run_suite

USAGE_ERROR = 2
INTERNAL_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # route argparse usage errors through our exit-code contract
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _default_seed() -> int:
    raw = os.environ.get("QDETLAB_SEED")
    if raw is None:
        return 42
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"QDETLAB_SEED must be an integer, got {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qdet-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all registered checks")

    explain = sub.add_parser("explain", help="describe one check")
    explain.add_argument("check", help="check id")

    run = sub.add_parser("run", help="run a suite of checks")
    run.add_argument(
        "--check",
        action="append",
        default=None,
        help="check id, comma-separated ids, or 'all' (repeatable; default all)",
    )
    run.add_argument("--n-min", type=int, default=None, help="smallest size to run")
    run.add_argument("--n-max", type=int, default=None, help="largest size to run")
    run.add_argument("--trials", type=int, default=5, help="trials per (check, size)")
    run.add_argument("--seed", type=int, default=None, help="base seed (default 42)")
    run.add_argument("--format", choices=("text", "json"), default="text")
    run.add_argument("--output", default=None, help="write the report here instead of stdout")
    return parser


def _resolve_checks(args_check: list[str] | None) -> list[str]:
    if not args_check:
        return check_ids()
    wanted: list[str] = []
    for chunk in args_check:
        for name in chunk.split(","):
            name = name.strip()
            if not name:
                continue
            if name == "all":
                wanted.extend(check_ids())
            elif name in REGISTRY:
                wanted.append(name)
            else:
                raise UsageError(f"unknown check id {name!r} (see 'qdet-lab list')")
    return wanted


def _cmd_list() -> int:
    width = max(len(cid) for cid in REGISTRY)
    for cid in check_ids():
        entry = REGISTRY[cid]
        print(f"{cid:<{width}}  {entry.mode:<9} {entry.summary}")
    return 0


def _cmd_explain(check_id: str) -> int:
    if check_id not in REGISTRY:
        raise UsageError(f"unknown check id {check_id!r} (see 'qdet-lab list')")
    entry = get_check(check_id)
    print(f"check:         {entry.id}")
    print(f"mode:          {entry.mode}")
    print(f"statement:     {entry.summary}")
    print(f"size means:    {entry.size_role}")
    print(f"inputs drawn:  {', '.join(entry.draws)}")
    sizes = ", ".join(str(n) for n in entry.default_sizes)
    print(f"default sizes: {sizes}")
    if entry.max_size is not None:
        print(f"size bounds:   {entry.min_size}..{entry.max_size}")
    else:
        print(f"size bounds:   >= {entry.min_size}")
    return 0


def _cmd_run(args) -> int:
    checks = _resolve_checks(args.check)
    seed = args.seed if args.seed is not None else _default_seed()
    report = run_suite(checks, n_min=args.n_min, n_max=args.n_max, trials=args.trials, seed=seed)
    rendered = report.to_json() if args.format == "json" else report.to_text()
    if args.output is None or args.output == "-":
        sys.stdout.write(rendered)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            raise UsageError(f"cannot write the report: {exc}") from None
    return 1 if report.failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "list":
            return _cmd_list()
        if args.command == "explain":
            return _cmd_explain(args.check)
        return _cmd_run(args)
    except UsageError as exc:
        print(f"qdet-lab: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        # a bug, not a verdict: keep it apart from exit 1, an identity failure
        print(f"qdet-lab: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return INTERNAL_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
