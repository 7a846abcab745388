"""Batch command-line front end.

One subcommand per construction or check, over the text code-file format.
Exit codes: 0 success or bound holds, 1 checked-and-failed (violated
bound, failed verification, refused precondition on valid input), 2 usage
or input error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import bounds as bounds_mod
from .code import (
    DEFAULT_BUDGET,
    EXACT,
    INNER_PRODUCTS,
    LOWER_BOUND,
    DistanceResult,
    SymplecticCode,
    code_digest,
    code_kind,
    dual,
    dump_code,
    load_code,
)
from .errors import (
    CodeFileError,
    EmptyDifference,
    EnlargementTooSmall,
    NotDualContaining,
    NotEnlargement,
    NotNested,
    NotSelfOrthogonal,
    StabforgeError,
)
from .pauli import pauli_format
from .stabilizer import (
    AQC_INNER_PRODUCTS,
    PURE,
    UNKNOWN,
    CodeParams,
    certificate_kv,
    certificate_text,
    certify_additive,
    certify_stabilizer,
    construction_x,
    css,
    css_aqc,
    ea_ebits,
    propagate,
    steane_enlarge,
)
from .statevec import generator_set, kl_verify

# conditions that were checked on well-formed input and found to fail
_CHECK_FAILURES = (
    NotSelfOrthogonal,
    NotNested,
    NotDualContaining,
    NotEnlargement,
    EnlargementTooSmall,
    EmptyDifference,
)


_DEFAULT_BUDGET_LOG2 = DEFAULT_BUDGET.bit_length() - 1


def _budget(args) -> int:
    return 1 << args.budget


def _budget_log2(text: str) -> int:
    """argparse type of --budget: an integer in [0, 64]; 2^64 visits is
    beyond any enumeration that can finish, and larger exponents would only
    build huge integers."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value <= 64:
        raise argparse.ArgumentTypeError(f"expected an integer in [0, 64], got {text!r}")
    return value


def _print_params(p: CodeParams, kv: bool) -> None:
    if kv:
        print("\n".join(certificate_kv(p)))
    else:
        print(certificate_text(p))


def _parse_int_list(text: str, count: int, what: str) -> list[int]:
    parts = text.split(",")
    if len(parts) != count:
        raise CodeFileError(f"--params expects {count} comma-separated integers ({what})")
    try:
        return [int(x) for x in parts]
    except ValueError:
        raise CodeFileError(f"--params entries must be integers ({what})")


def _params_from_cli(args, asymmetric: bool = False) -> CodeParams:
    status = LOWER_BOUND if args.bound_only else EXACT
    pure = PURE if args.pure else UNKNOWN
    if asymmetric:
        n, k, dz, dx, q = _parse_int_list(args.params, 5, "n,k,dz,dx,q")
        return CodeParams(
            q=q, n=n, k=k,
            dz=DistanceResult(dz, status), dx=DistanceResult(dx, status),
            pure=pure, provenance="cli",
        )
    n, k, d, q = _parse_int_list(args.params, 4, "n,k,d,q")
    try:
        return CodeParams(q=q, n=n, k=k, d=DistanceResult(d, status), pure=pure, provenance="cli")
    except RuntimeError:
        # exact symmetric parameters violating the Singleton sanity check
        # cannot exist as certified values
        raise CodeFileError(f"--params {args.params}: exact [[{n},{k},{d}]] violates the Singleton bound")


def _cmd_certify(args) -> int:
    C = load_code(args.infile)
    if isinstance(C, SymplecticCode):
        stab = certify_stabilizer(C, _budget(args))
    elif C.is_additive or C.field.m % 2 == 0:
        stab = certify_additive(C, _budget(args))
    else:
        raise CodeFileError(
            f"{args.infile}: linear code over GF({C.field.q}) has no direct certification; use css"
        )
    _print_params(stab.params, args.kv)
    return 0


def _cmd_dual(args) -> int:
    C = load_code(args.infile)
    D = dual(C, args.ip)
    text = dump_code(D)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_css(args) -> int:
    c1, c2 = load_code(args.c1), load_code(args.c2)
    _print_params(css(c1, c2, _budget(args)).params, args.kv)
    return 0


def _cmd_enlarge(args) -> int:
    c, cp = load_code(args.c), load_code(args.cprime)
    _print_params(steane_enlarge(c, cp, _budget(args)), args.kv)
    return 0


def _cmd_conx(args) -> int:
    _print_params(construction_x(load_code(args.infile), _budget(args)), args.kv)
    return 0


def _cmd_aqc(args) -> int:
    c1, c2 = load_code(args.c1), load_code(args.c2)
    _print_params(css_aqc(c1, c2, _budget(args), ip=args.ip), args.kv)
    return 0


def _cmd_ea(args) -> int:
    _print_params(ea_ebits(load_code(args.infile), _budget(args)), args.kv)
    return 0


def _cmd_propagate(args) -> int:
    p = _params_from_cli(args)
    _print_params(propagate(p, args.rule), args.kv)
    return 0


def _cmd_bounds(args) -> int:
    if args.aqmds:
        q, n, j, k = _parse_int_list(args.params, 4, "q,n,j,k")
        feasible, case = bounds_mod.aqmds_feasible(q, n, j, k)
        line = f"bound=aqmds feasible={'true' if feasible else 'false'}"
        if case is not None:
            line += f" case={case}"
        print(line)
        return 0 if feasible else 1
    if args.singleton:
        report = bounds_mod.singleton(_params_from_cli(args))
    elif args.hamming:
        report = bounds_mod.hamming(_params_from_cli(args))
    elif args.gv:
        n, k, d, q = _parse_int_list(args.params, 4, "n,k,d,q")
        report = bounds_mod.gv_exists(q, n, k, d)
    else:
        report = bounds_mod.aqc_singleton(_params_from_cli(args, asymmetric=True))
    if not args.kv:
        print(bounds_mod.report_text(report))
    print(bounds_mod.report_line(report))
    if report.holds is None:
        print(f"error: {report.name}: " + "; ".join(report.notes), file=sys.stderr)
        return 2
    return 0 if report.holds else 1


def _cmd_kl(args) -> int:
    C = load_code(args.infile)
    if not isinstance(C, SymplecticCode):
        raise CodeFileError(f"{args.infile}: kl requires a symplectic code file")
    G = generator_set(C)
    result = kl_verify(G, args.delta)
    if result.passed:
        print(f"kl=pass delta={args.delta} checked={result.checked} dim={result.code_dim}")
        return 0
    w = result.witness
    # +0.0 clears the sign of a zero part, which the summation order sets
    value = complex(w.value.real + 0.0, w.value.imag + 0.0)
    print(
        f"kl=fail delta={args.delta} witness={pauli_format(w.op)} "
        f"i={w.i} j={w.j} value={value:.6g}"
    )
    return 1


def _cmd_info(args) -> int:
    C = load_code(args.infile)
    kind, length = code_kind(C)
    print(f"field=GF({C.field.q})")
    print(f"kind={kind}")
    print(f"length={length}")
    print(f"dim={C.k_dim}")
    print(f"digest={code_digest(C)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabforge",
        description="Construct and certify quantum stabilizer codes from classical codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, budget=True):
        if budget:
            p.add_argument("--budget", type=_budget_log2, default=_DEFAULT_BUDGET_LOG2, metavar="LOG2",
                           help=f"enumeration cap as log2 of codeword visits (default {_DEFAULT_BUDGET_LOG2})")
        p.add_argument("--kv", action="store_true", help="machine-readable key=value output")

    p = sub.add_parser("certify", help="certify a symplectic or additive self-orthogonal code")
    p.add_argument("--in", dest="infile", required=True)
    add_common(p)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("dual", help="dual code under a chosen inner product")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--ip", required=True, choices=INNER_PRODUCTS)
    p.add_argument("--out", help="write the dual code file here instead of stdout")
    add_common(p, budget=False)
    p.set_defaults(fn=_cmd_dual)

    p = sub.add_parser("css", help="CSS construction from nested classical codes")
    p.add_argument("--c1", required=True)
    p.add_argument("--c2", required=True)
    add_common(p)
    p.set_defaults(fn=_cmd_css)

    p = sub.add_parser("enlarge", help="Steane enlargement of a dual-containing code")
    p.add_argument("--c", required=True)
    p.add_argument("--cprime", required=True)
    add_common(p)
    p.set_defaults(fn=_cmd_enlarge)

    p = sub.add_parser("conx", help="quantum Construction X parameters")
    p.add_argument("--in", dest="infile", required=True)
    add_common(p)
    p.set_defaults(fn=_cmd_conx)

    p = sub.add_parser("aqc", help="asymmetric CSS-like construction")
    p.add_argument("--c1", required=True)
    p.add_argument("--c2", required=True)
    p.add_argument("--ip", default="euclidean", choices=AQC_INNER_PRODUCTS)
    add_common(p)
    p.set_defaults(fn=_cmd_aqc)

    p = sub.add_parser("ea", help="entanglement-assisted parameters and ebit count")
    p.add_argument("--in", dest="infile", required=True)
    add_common(p)
    p.set_defaults(fn=_cmd_ea)

    p = sub.add_parser("propagate", help="subcode / lengthen / puncture parameter rules")
    p.add_argument("--params", required=True, metavar="n,k,d,q")
    p.add_argument("--rule", required=True, choices=["subcode", "lengthen", "puncture"])
    p.add_argument("--pure", action="store_true", help="claim the input code is pure")
    p.add_argument("--bound-only", action="store_true",
                   help="treat the given distance as a lower bound")
    add_common(p, budget=False)
    p.set_defaults(fn=_cmd_propagate)

    p = sub.add_parser("bounds", help="parameter bound checks")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--singleton", action="store_true")
    group.add_argument("--hamming", action="store_true")
    group.add_argument("--gv", action="store_true")
    group.add_argument("--aqc-singleton", dest="aqc_singleton", action="store_true")
    group.add_argument("--aqmds", action="store_true")
    p.add_argument("--params", required=True,
                   help="n,k,d,q (singleton/hamming/gv), n,k,dz,dx,q (aqc-singleton), q,n,j,k (aqmds)")
    p.add_argument("--pure", action="store_true", help="claim the code is pure")
    p.add_argument("--bound-only", action="store_true",
                   help="treat the given distance as a lower bound")
    add_common(p, budget=False)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("kl", help="Knill-Laflamme verification against the dense oracle")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--delta", type=int, required=True, help="maximum error weight to check")
    add_common(p, budget=False)
    p.set_defaults(fn=_cmd_kl)

    p = sub.add_parser("info", help="summarize a code file")
    p.add_argument("--in", dest="infile", required=True)
    add_common(p, budget=False)
    p.set_defaults(fn=_cmd_info)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `run` reuses, built on its first call rather than at import.

    Parsing leaves the parser unchanged, and argparse looks up
    `sys.stdout`/`sys.stderr` only when it prints, so one parser serves
    every call in a process, redirected or not.
    """
    return build_parser()


def run(argv) -> int:
    """Run one command line and return its exit code; safe to call repeatedly."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except _CHECK_FAILURES as e:
        print(f"{args.command}: {e}", file=sys.stderr)
        return 1
    except (CodeFileError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except StabforgeError as e:
        print(f"error: {args.command}: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
