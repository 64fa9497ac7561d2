"""Command line interface.

Exit codes: 0 = EQUAL / success, 1 = DIFFER, 2 = INCONCLUSIVE,
3 = usage error, 4 = internal error, 130 = interrupted (^C).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .coinvariants import (
    check_diagonals,
    check_gl2_shape,
    component_characters,
    frobenius_module,
)
from .macdonald import HTILDE_SIZE_LIMIT, htilde_schur, rhs_series
from .partitions import Partition, partition_from_str, partition_to_str, partitions_of
from .superring import TriDegree
from .verifier import (
    DIFFER,
    EQUAL,
    INCONCLUSIVE,
    ComponentCache,
    render_report,
    verify_conjecture,
)

LONG_RUN_THRESHOLD = 5
# frobenius --spec: the specialize keywords of each choice, in usage order
SPECS = {"z=0": {"z": 0}, "t=0": {"t": 0}, "q=t=1": {"q": 1, "t": 1}}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit with code > 2
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _at_least(low: int, kind=int):
    """An argparse type: a finite number of the given kind (int or float), at least low."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = low - 1
        if not low <= value < float("inf"):  # also rejects nan and inf
            noun = "an integer" if kind is int else "a finite number"
            raise argparse.ArgumentTypeError(f"must be {noun} >= {low}: {text!r}")
        return value

    return parse


def _parse_degree(text: str) -> TriDegree:
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 3 or any(x < 0 for x in parts):
        raise argparse.ArgumentTypeError(
            f"degree must be 'a,b,c' with nonnegative entries: {text!r}"
        )
    return TriDegree(*parts)


def _parse_mu(text: str) -> Partition:
    try:
        mu = partition_from_str(text)
    except ValueError:
        mu = ()
    if not mu or sum(mu) > HTILDE_SIZE_LIMIT:
        raise argparse.ArgumentTypeError(
            f"mu must be a nonempty partition of size at most {HTILDE_SIZE_LIMIT}, "
            f"such as 3,1: {text!r}"
        )
    return mu


def _cache_dir(text: str) -> str:
    """An argparse type: a nonempty path; _make_cache_dir creates it when it is used."""
    if not text:
        raise argparse.ArgumentTypeError("the cache directory must be a nonempty path")
    return text


def _make_cache_dir(parser: argparse.ArgumentParser, args) -> str | None:
    """Create --cache-dir if it is absent; a path that cannot be one is a usage error."""
    if args.cache_dir is not None:
        try:
            Path(args.cache_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            parser.error(f"argument --cache-dir: cannot use {args.cache_dir!r}: {exc}")
    return args.cache_dir


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="superdelta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # the options of every command that runs the module side
    module = argparse.ArgumentParser(add_help=False)
    module.add_argument("--n", type=_at_least(1), required=True)
    module.add_argument("--threads", type=_at_least(1), default=1)
    module.add_argument("--cache-dir", type=_cache_dir, default=None)
    module.add_argument("--long", action="store_true",
                        help="allow the long-running module side for n >= 5")

    p_verify = sub.add_parser("verify", parents=[module], help="compare both sides of the identity")
    p_verify.add_argument("--extra-band", type=_at_least(0), default=1)
    p_verify.add_argument("--format", default="text",
                          choices=["json", "csv", "latex", "text"])
    p_verify.add_argument("--budget-seconds", type=_at_least(0, float), default=None)
    p_verify.add_argument("--max-degree", type=_at_least(0), default=None,
                          help="frontier budget on a+b per theta row")

    p_frob = sub.add_parser("frobenius", parents=[module], help="print one side's Schur expansion")
    p_frob.add_argument("--side", required=True, choices=["module", "delta"])
    p_frob.add_argument("--spec", default=None, choices=list(SPECS))

    sub.add_parser("hilbert", parents=[module], help="module-side dimensions per tri-degree")

    p_mac = sub.add_parser("macdonald", help="Schur expansion of one H~_mu")
    p_mac.add_argument("--mu", type=_parse_mu, required=True,
                       help='partition such as "3,1"')

    p_char = sub.add_parser("character", help="quotient characters of one component")
    p_char.add_argument("--n", type=_at_least(1), required=True)
    p_char.add_argument("--degree", type=_parse_degree, required=True,
                        help="tri-degree a,b,c")
    return parser


def _require_long(parser: argparse.ArgumentParser, n: int, long_flag: bool) -> None:
    if n >= LONG_RUN_THRESHOLD and not long_flag:
        parser.error(
            f"the module side for n={n} is a long-running computation; pass --long"
        )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # verify and frobenius --side delta need H~_mu for |mu| = n
    delta_side = getattr(args, "side", args.command) in ("verify", "delta")
    if delta_side and args.n > HTILDE_SIZE_LIMIT:
        parser.error(f"the delta side needs n <= {HTILDE_SIZE_LIMIT}, the H~ filling limit")
    try:
        return _dispatch(parser, args)
    except BrokenPipeError:
        return 4
    except KeyboardInterrupt:  # the conventional 128 + SIGINT, without a traceback
        print("superdelta: interrupted", file=sys.stderr)
        return 130
    except SystemExit:
        raise
    except Exception as exc:  # internal errors must exit with code > 2
        print(f"superdelta: internal error: {exc}", file=sys.stderr)
        return 4


def _dispatch(parser, args) -> int:
    if args.command == "verify":
        _require_long(parser, args.n, args.long)
        report = verify_conjecture(
            args.n,
            extra_band=args.extra_band,
            threads=args.threads,
            cache_dir=_make_cache_dir(parser, args),
            budget_seconds=args.budget_seconds,
            max_ab=args.max_degree,
        )
        print(render_report(report, args.format))
        return {EQUAL: 0, DIFFER: 1, INCONCLUSIVE: 2}[report.verdict]

    if args.command == "frobenius":
        if args.side == "delta":
            series = rhs_series(args.n)
        else:
            series = _module_side(parser, args).series
        if args.spec is not None:
            series = series.specialize(**SPECS[args.spec])
        for line in series.pretty_lines():
            print(line)
        return 0

    if args.command == "hilbert":
        hilbert = _module_side(parser, args).series.hilbert()
        print("a b c dim")
        for d, dim in sorted(hilbert.items()):
            print(f"{d.a} {d.b} {d.c} {dim}")
        return 0

    if args.command == "macdonald":
        for line in htilde_schur(args.mu).pretty_lines():
            print(line)
        return 0

    if args.command == "character":
        degree = args.degree
        comp = component_characters(args.n, degree)
        print(f"component ({degree.a},{degree.b},{degree.c}): "
              f"ambient dim {comp.dim}, ideal rank {comp.rank}, "
              f"quotient dim {comp.dim_quotient}")
        for mu in partitions_of(args.n):
            print(f"chi({partition_to_str(mu)}) = {comp.chars[mu]}")
        return 0


def _module_side(parser, args):
    _require_long(parser, args.n, args.long)
    cache_dir = _make_cache_dir(parser, args)
    cache = ComponentCache(cache_dir) if cache_dir else None
    result = frobenius_module(args.n, threads=args.threads, component_cache=cache)
    check_gl2_shape(result)
    check_diagonals(result)
    return result


if __name__ == "__main__":
    sys.exit(main())
