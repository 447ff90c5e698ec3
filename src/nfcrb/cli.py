"""Command-line front end.

nfcrb run --config FILE [--set section.key=value]... [--out FILE] [--seed N] [--db]
nfcrb preset NAME [--set ...] [--out FILE] [--seed N] [--db]
nfcrb list-presets

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import functools
import sys
from dataclasses import replace

from .errors import ConfigError, NfcrbError
from .experiment import (
    PRESETS,
    csv_text,
    parse_config_file,
    parse_config_text,
    preset,
    run_experiment,
    serialize_config,
)


def _add_shared(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="SECTION.KEY=VALUE", help="override one config value",
    )
    parser.add_argument("--out", help="write CSV here instead of stdout")
    parser.add_argument("--seed", type=int, help="override the Monte-Carlo master seed")
    parser.add_argument(
        "--db", action="store_true",
        help="emit CRB columns as 10*log10 values",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfcrb",
        description="Near-field angle/range Cramer-Rao bound sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a sweep described by a config file")
    run_p.add_argument("--config", required=True, help="INI config file")
    _add_shared(run_p)

    pre_p = sub.add_parser("preset", help="run a built-in figure preset")
    pre_p.add_argument("name", help="preset name (see list-presets)")
    _add_shared(pre_p)

    sub.add_parser("list-presets", help="list built-in presets")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import; parse_args leaves it unchanged
    return build_parser()


def _load_config(args):
    if args.command == "run":
        return parse_config_file(args.config, overrides=args.overrides)
    # route presets through the serializer so --set semantics match `run`
    return parse_config_text(serialize_config(preset(args.name)), overrides=args.overrides)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "list-presets":
        for name, (summary, _) in PRESETS.items():
            print(f"{name}  {summary}")
        return 0

    try:
        cfg = _load_config(args)
        if args.seed is not None:
            if cfg.montecarlo is None:
                print("note: --seed ignored (no [montecarlo] block)", file=sys.stderr)
            else:
                cfg = replace(cfg, montecarlo=replace(cfg.montecarlo, master_seed=args.seed))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        table = run_experiment(cfg)
        text = csv_text(table, db=args.db)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NfcrbError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"config error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
