"""Command-line front end.

Subcommands::

    gb      minimal Groebner basis of a matrix of generators
    pbasis  minimal Groebner p-basis derived from the generators
    lrr     shortest linear recurrence of a sequence, with parametrization
    check   Groebner/minimality check plus the applicable PLM property check

The ring is given either as a prime power (--ring 9) or explicitly
(--p 3 --r 2).  Input matrices use the bracketed vector grammar, one vector
per line.  Results go to stdout; diagnostics go to stderr.

Exit codes (frozen): 0 success, 2 parse or usage error, 3 iteration cap
exceeded, 4 enumeration too large (the parametrization template is still
printed), 5 property check failed.

Environment: PGROEBNER_MAX_STEPS and PGROEBNER_MAX_ENUM override the
default completion and enumeration caps.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .errors import (
    EnumerationTooLarge,
    IterationLimitExceeded,
    ParseError,
    PGroebnerError,
    ValidationFailed,
)
from .groebner import (
    DEFAULT_MAX_STEPS,
    GroebnerBasis,
    buchberger,
    check_plm,
    is_groebner,
)
from .lrr import DEFAULT_ENUM_CAP, SequenceInput, enumerate_shortest, shortest_lrr
from .pbasis import build_p_basis, check_p_plm
from .polyvec import MonomialOrder, parse_matrix
from .reports import (
    lrr_doc,
    render_gb_doc,
    render_gb_human,
    render_lrr_doc,
    render_lrr_human,
    render_p_basis_doc,
    render_p_basis_human,
)
from .ring import _MAX_PRIME, Zpr

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_ENUM = 4
EXIT_PROPERTY = 5


def _factor_prime_power(n: int) -> tuple[int, int]:
    if n < 2:
        raise ParseError(f"{n} is not a prime power")
    p = 2
    while p * p <= n:
        if n % p == 0:
            break
        if p >= _MAX_PRIME:
            raise ParseError(f"{n} is not a power of a prime <= 2^16")
        p += 1
    else:
        return n, 1
    r = 0
    m = n
    while m % p == 0:
        m //= p
        r += 1
    if m != 1:
        raise ParseError(f"{n} is not a prime power")
    return p, r


def _ring_from_args(args: argparse.Namespace) -> Zpr:
    if args.ring is not None:
        if args.p is not None or args.r is not None:
            raise ParseError("give either --ring or --p/--r, not both")
        p, r = _factor_prime_power(args.ring)
    else:
        if args.p is None or args.r is None:
            raise ParseError("ring not specified; use --ring or --p and --r")
        p, r = args.p, args.r
    try:
        return Zpr(p, r)
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc)) from exc


def _order_from_args(args: argparse.Namespace) -> MonomialOrder:
    return MonomialOrder(args.order.upper())


def _read_matrix(ring: Zpr, path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_matrix(ring, text)


_DECIMAL = re.compile(r"\s*[+-]?[0-9]+\s*")


def _decimal(text: str) -> int:
    """int(text) for ASCII decimal digits only, with an optional sign and spaces around.

    int() alone would also take underscores and other scripts' digits.
    """
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _count(name: str, value: int, low: int = 0) -> int:
    """value, or ParseError when a count below low would make the run meaningless."""
    if value < low:
        raise ParseError(f"{name} must be at least {low}, got {value}")
    return value


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = _decimal(raw)
    except ValueError as exc:
        raise ParseError(f"{name} must be an integer, got {raw!r}") from exc
    return _count(name, value)


def _max_steps(args: argparse.Namespace) -> int:
    if args.max_steps is not None:
        return _count("--max-steps", args.max_steps)
    return _env_int("PGROEBNER_MAX_STEPS", DEFAULT_MAX_STEPS)


def _max_enum(args: argparse.Namespace) -> int:
    if args.max_enum is not None:
        return _count("--max-enum", args.max_enum)
    return _env_int("PGROEBNER_MAX_ENUM", DEFAULT_ENUM_CAP)


def _add_common(sub: argparse.ArgumentParser, with_order: bool = True) -> None:
    sub.add_argument("--ring", type=_decimal, help="modulus as a prime power, e.g. 9")
    sub.add_argument("--p", type=_decimal, help="prime base of the ring")
    sub.add_argument("--r", type=_decimal, help="exponent of the ring")
    if with_order:
        sub.add_argument(
            "--order", choices=["top", "pot"], default="top", help="term order"
        )
    sub.add_argument(
        "--structured",
        action="store_true",
        help="emit the machine-readable document instead of the human report",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgroebner",
        description="Groebner bases, p-bases, and shortest linear recurrences over Z_{p^r}",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gb = subs.add_parser("gb", help="minimal Groebner basis of a generator matrix")
    _add_common(gb)
    gb.add_argument("matrix", help="file of bracketed vectors, one per line ('-' for stdin)")

    pb = subs.add_parser("pbasis", help="minimal Groebner p-basis of a generator matrix")
    _add_common(pb)
    pb.add_argument("matrix", help="file of bracketed vectors, one per line ('-' for stdin)")

    lr = subs.add_parser("lrr", help="shortest linear recurrence of a sequence")
    _add_common(lr, with_order=False)
    lr.add_argument("--seq", required=True, help="comma-separated values S_0,...,S_{n-1}")
    lr.add_argument(
        "--all",
        action="store_true",
        help="enumerate all unit-leading-coefficient solutions, not only monic ones",
    )

    ck = subs.add_parser("check", help="Groebner and PLM property checks on a matrix")
    _add_common(ck)
    ck.add_argument("matrix", help="file of bracketed vectors, one per line ('-' for stdin)")
    ck.add_argument("--trials", type=_decimal, default=500, help="random tuples to sample")
    ck.add_argument("--seed", type=_decimal, default=0, help="random seed")

    # each cap only where it applies, so a cap given elsewhere is a usage error
    for sub in (gb, pb, lr):
        sub.add_argument("--max-steps", type=_decimal,
                         help="cap on queued completion pairs (lrr over a field: on its n+1 steps)")
    lr.add_argument("--max-enum", type=_decimal, help="enumeration cap")
    return parser


def _cmd_gb(args: argparse.Namespace) -> int:
    ring = _ring_from_args(args)
    order = _order_from_args(args)
    rows = _read_matrix(ring, args.matrix)
    G = buchberger(rows, order, max_steps=_max_steps(args))
    sys.stdout.write(render_gb_doc(G) if args.structured else render_gb_human(G))
    return EXIT_OK


def _cmd_pbasis(args: argparse.Namespace) -> int:
    ring = _ring_from_args(args)
    order = _order_from_args(args)
    rows = _read_matrix(ring, args.matrix)
    G = buchberger(rows, order, max_steps=_max_steps(args))
    basis = build_p_basis(G)
    sys.stdout.write(
        render_p_basis_doc(basis) if args.structured else render_p_basis_human(basis)
    )
    return EXIT_OK


def _cmd_lrr(args: argparse.Namespace) -> int:
    ring = _ring_from_args(args)
    try:
        values = tuple(_decimal(v) for v in args.seq.split(","))
    except ValueError as exc:
        raise ParseError(f"bad sequence {args.seq!r}") from exc
    S = SequenceInput(ring, values)
    cap = _max_enum(args)
    sol = shortest_lrr(S, max_steps=_max_steps(args))
    code = EXIT_OK
    try:
        monic = enumerate_shortest(sol, monic_only=not args.all, cap=cap)
    except EnumerationTooLarge as exc:
        print(f"warning: {exc}", file=sys.stderr)
        monic = None
        code = EXIT_ENUM
    if args.structured:
        sys.stdout.write(render_lrr_doc(lrr_doc(sol, monic)))
    else:
        sys.stdout.write(render_lrr_human(sol, monic))
    return code


def _cmd_check(args: argparse.Namespace) -> int:
    ring = _ring_from_args(args)
    order = _order_from_args(args)
    trials = _count("--trials", args.trials, low=1)
    rows = _read_matrix(ring, args.matrix)
    if not is_groebner(rows, order):
        print("check: FAIL - the rows are not a Groebner basis of their span")
        return EXIT_PROPERTY
    try:
        G = GroebnerBasis.from_elements(rows, order)
    except ValidationFailed as exc:
        print(f"check: FAIL - {exc}")
        return EXIT_PROPERTY
    print(f"groebner: ok ({len(G)} elements, minimal)")
    if ring.r == 1:
        report = check_plm(list(G.elements), order, trials=trials, seed=args.seed)
        label = "plm"
    else:
        report = check_p_plm(build_p_basis(G), trials=trials, seed=args.seed)
        label = "p-plm"
    print(f"{label}: {report}")
    return EXIT_OK if report.passed else EXIT_PROPERTY


def _attach_seq_value(argv: list[str]) -> list[str]:
    """Rewrite 'lrr --seq -1,3' (or its abbreviation '--se -1,3') as '--seq=-1,3'.

    argparse takes a separate value that starts with '-' and is not a plain
    number for a flag; attached with '=' it stays the value of --seq.  Only
    lrr is rewritten: there '--se' can only mean --seq, while in check it
    abbreviates --seed.
    """
    out = list(argv)
    if out[:1] != ["lrr"]:
        return out
    for i in range(len(out) - 2, -1, -1):
        if out[i] in ("--se", "--seq") and re.match(r"-\d", out[i + 1]):
            out[i : i + 2] = [f"--seq={out[i + 1]}"]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_attach_seq_value(argv))
    handlers = {
        "gb": _cmd_gb,
        "pbasis": _cmd_pbasis,
        "lrr": _cmd_lrr,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except IterationLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except EnumerationTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENUM
    except PGroebnerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
