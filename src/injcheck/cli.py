"""Command line front end.

    injcheck monomial --B exponents.txt --S im:stoich.txt
    injcheck monotonic --W 'W +;0 +' --S full:2
    injcheck interval --D 'D [1,13/10] [1,11/10];[2,143/50] [1,121/100]' --S full:2
    injcheck crn network.txt --mode mass-action
    injcheck signs --S 'im:1 1'
    injcheck falsify --D ... --S full:2 --trials 100000 --seed 7

Matrix-valued options take a file path, or inline text when the value
contains a semicolon or newline (';' separates rows). Subspaces are
'full' (ambient dimension inferred), 'full:<n>', 'im:<matrix>' (columns
span S) or 'ker:<matrix>' (rows cut S out).

Exit codes: 0 INJECTIVE, 1 NOT_INJECTIVE (or falsifier hit), 2 INCONCLUSIVE
(or no falsifier hit), 64 usage, 65 unreadable input text, 66 missing file,
70 internal error.

Reports (--report PATH) are JSON with sorted keys, exact rational strings and
no environment-dependent content, so identical runs write identical bytes.
Wall-clock time goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

from .classes import (
    Interval,
    Scaled,
    SignSets,
    parse_interval_box_text,
    parse_signsets_text,
)
from .crn import KineticsMode, NetworkTextError, build_problem, parse_network, serialize_network
from .injectivity import (
    PositivityCertificate,
    Problem,
    SingularWitness,
    Status,
    Verdict,
    check_injectivity,
)
from .limits import CapExceeded, DEFAULT_CAPS, parse_caps_spec
from .linalg import (
    MatrixTextError,
    RationalMatrix,
    Subspace,
    format_matrix_text,
    parse_matrix_text,
)
from .oracle import OracleConfig, falsify
from .signroute import subspace_sign_vectors
from .signs import sign_text

EXIT_INJECTIVE = 0
EXIT_NOT_INJECTIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_BAD_INPUT = 65
EXIT_NO_FILE = 66
EXIT_INTERNAL = 70


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_source(value: str, flag: str) -> tuple[str, str]:
    """(text, how) where how notes inline vs file for the report echo; an
    empty value is a usage error naming its flag, not a missing file."""
    if not value.strip():
        raise _UsageError(f"{flag} is empty: give a file path or inline text")
    if "\n" in value or ";" in value:
        return value.replace(";", "\n"), "inline"
    if os.path.exists(value):
        try:
            with open(value, "r", encoding="utf-8") as fh:
                return fh.read(), value
        except OSError as exc:
            raise FileNotFoundError(str(exc)) from None
    # a one-row matrix has neither newline nor semicolon; values with spaces
    # or bracket syntax cannot be paths worth a "missing file" complaint
    if any(ch in value for ch in " \t{[("):
        return value, "inline"
    raise FileNotFoundError(value)


def _parse_subspace(spec: str, default_n: Optional[int]) -> tuple[Subspace, str]:
    if spec == "full":
        if default_n is None:
            raise _UsageError("--S full needs a class to infer the dimension from")
        return Subspace.full(default_n), f"full:{default_n}"
    if spec.startswith("full:"):
        try:
            n = int(spec[len("full:"):])
        except ValueError:
            n = 0
        if n <= 0:
            raise _UsageError(f"--S {spec!r}: full:<n> needs an integer n >= 1")
        return Subspace.full(n), spec
    for prefix in ("im:", "ker:"):
        if spec.startswith(prefix):
            text, _ = _read_source(spec[len(prefix):], f"--S {prefix}")
            M = parse_matrix_text(text)
            if prefix == "im:":
                return Subspace.from_image(M), prefix + "\n" + format_matrix_text(M)
            return Subspace.from_kernel_rep(M), prefix + "\n" + format_matrix_text(M)
    raise _UsageError(f"cannot read subspace spec {spec!r}")


def _common(parser: _Parser) -> None:
    parser.add_argument("--S", default="full", metavar="SPEC",
                        help="subspace: full | full:<n> | im:<matrix> | ker:<matrix>")
    parser.add_argument("--A", metavar="MATRIX", default=None,
                        help="fixed left matrix applied after the class")
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="write a JSON report here")
    parser.add_argument("--caps", metavar="SPEC", default=None,
                        help="search limits, e.g. sign_enum_dim=14,patterns=65536")
    parser.add_argument("--route", default=None,
                        choices=["auto", "det", "sign", "pattern-union"])


def _build_parser() -> _Parser:
    p = _Parser(prog="injcheck",
                description="decide injectivity of map classes through matrix classes")
    sub = p.add_subparsers(dest="command", required=True)

    m = sub.add_parser("monomial", help="positively scaled exponent matrix")
    m.add_argument("--B", required=True, metavar="MATRIX", help="exponent matrix")
    _common(m)

    w = sub.add_parser("monotonic", help="sign-set entry class")
    w.add_argument("--W", required=True, metavar="SIGNSETS",
                   help="sign-set matrix (tokens 0 + - 0+ -0 -+ *)")
    _common(w)

    i = sub.add_parser("interval", help="entrywise interval class")
    i.add_argument("--D", required=True, metavar="BOX",
                   help="interval matrix ({p}, [a,b], (a,b), (a,inf), (a,0)u(0,b), ...)")
    _common(i)

    c = sub.add_parser("crn", help="reaction network")
    c.add_argument("network", metavar="FILE", help="network description")
    c.add_argument("--mode", default="mass-action",
                   help="mass-action | power-law | monotonic-strict | monotonic-weak")
    c.add_argument("--report", metavar="PATH", default=None)
    c.add_argument("--caps", metavar="SPEC", default=None)
    c.add_argument("--route", default=None,
                   choices=["auto", "det", "sign", "pattern-union"])

    s = sub.add_parser("signs", help="list the sign vectors of a subspace")
    s.add_argument("--S", required=True, metavar="SPEC")
    s.add_argument("--report", metavar="PATH", default=None)
    s.add_argument("--caps", metavar="SPEC", default=None)

    f = sub.add_parser("falsify", help="random search for a singular member")
    f.add_argument("--B", metavar="MATRIX", default=None)
    f.add_argument("--W", metavar="SIGNSETS", default=None)
    f.add_argument("--D", metavar="BOX", default=None)
    f.add_argument("--crn", metavar="FILE", default=None)
    f.add_argument("--mode", default="mass-action")
    f.add_argument("--trials", type=int, default=1000)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--S", default="full", metavar="SPEC")
    f.add_argument("--A", metavar="MATRIX", default=None)
    f.add_argument("--report", metavar="PATH", default=None)
    return p


def _class_from_args(args) -> tuple[object, dict]:
    """(matrix class, input echo) from --B/--W/--D."""
    echo: dict = {}
    chosen = [k for k in ("B", "W", "D") if getattr(args, k, None) is not None]
    if len(chosen) != 1:
        raise _UsageError("pick exactly one of --B, --W, --D")
    kind = chosen[0]
    text, origin = _read_source(getattr(args, kind), f"--{kind}")
    echo[kind] = {"source": origin, "text": text}
    if kind == "B":
        return Scaled(parse_matrix_text(text)), echo
    if kind == "W":
        return SignSets(parse_signsets_text(text)), echo
    return Interval(parse_interval_box_text(text)), echo


def _witness_lines(w: SingularWitness) -> list[str]:
    lines = ["singular member:"]
    lines += ["  " + row for row in format_matrix_text(w.member.matrix).splitlines()]
    lines.append("z: " + "  ".join(str(v) for v in w.z))
    if w.tau is not None:
        lines.append(f"tau: {w.tau}")
    if w.rho is not None and not all(s == 0 for s in w.rho):
        lines.append(f"rho: {w.rho}")
    if w.monomial_lift is not None:
        lines.append("colliding points:")
        lines.append("  x: " + "  ".join(repr(v) for v in w.monomial_lift["x"]))
        lines.append("  y: " + "  ".join(repr(v) for v in w.monomial_lift["y"]))
        lines.append(f"  max residual: {w.monomial_lift['max_residual']:.3e}")
    elif w.lift_omitted is not None:
        lines.append(f"colliding points: omitted ({w.lift_omitted})")
    return lines


def _print_verdict(v: Verdict) -> None:
    print(f"status: {v.status.value}")
    print(f"method: {v.method.value}")
    cert = v.certificate
    if isinstance(cert, PositivityCertificate):
        bits = [cert.kind]
        data = cert.payload
        if "sign" in data:
            bits.append(f"sign {data['sign']}")
        if "monomials" in data:
            bits.append(f"{len(data['monomials'])} monomials")
        if "box" in data:
            box = data["box"]
            bits.append(f"box min {box['min_value']}, max {box['max_value']}")
        if "pairs_checked" in data:
            count = data["pairs_checked"]
            bits.append(f"{count} sign {'pair' if count == 1 else 'pairs'} checked")
        if "patterns" in data:
            bits.append(f"{data['patterns']} patterns, each injective")
        print("certificate: " + ", ".join(bits))
    elif isinstance(cert, SingularWitness):
        for line in _witness_lines(cert):
            print(line)


def _write_report(path: Optional[str], payload: dict) -> None:
    if path is None:
        return
    blob = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(blob)


def _caps_from_args(args):
    spec = getattr(args, "caps", None)
    if not spec:
        return DEFAULT_CAPS, None
    return parse_caps_spec(spec), spec


def run_command(argv) -> int:
    started = time.monotonic()
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code = _dispatch(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_NO_FILE
    except (MatrixTextError, NetworkTextError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except CapExceeded as exc:
        print(f"gave up: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:
        # anything else is a fault of the checker, not a verdict: exiting 1
        # would read as NOT_INJECTIVE
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


def _dispatch(args) -> int:
    if args.command == "signs":
        return _cmd_signs(args)
    if args.command == "falsify":
        return _cmd_falsify(args)
    if args.command == "crn":
        return _cmd_crn(args)
    return _cmd_class(args)


def _left_from_args(args) -> tuple[Optional[RationalMatrix], Optional[dict]]:
    if getattr(args, "A", None) is None:
        return None, None
    text, origin = _read_source(args.A, "--A")
    return parse_matrix_text(text), {"source": origin, "text": text}


def _verdict_exit(v: Verdict) -> int:
    return {
        Status.INJECTIVE: EXIT_INJECTIVE,
        Status.NOT_INJECTIVE: EXIT_NOT_INJECTIVE,
        Status.INCONCLUSIVE: EXIT_INCONCLUSIVE,
    }[v.status]


def _cmd_class(args) -> int:
    cls, echo = _class_from_args(args)
    A, a_echo = _left_from_args(args)
    if a_echo:
        echo["A"] = a_echo
    S, s_echo = _parse_subspace(args.S, cls.cols)
    echo["S"] = s_echo
    caps, caps_spec = _caps_from_args(args)
    problem = Problem(cls, S, left=A)
    verdict = check_injectivity(problem, caps=caps, route=args.route)
    _print_verdict(verdict)
    _write_report(args.report, {
        "command": args.command,
        "inputs": echo,
        "caps": caps_spec or "default",
        "route": args.route or "auto",
        "verdict": verdict.to_payload(),
    })
    return _verdict_exit(verdict)


def _cmd_crn(args) -> int:
    text, origin = _read_source(args.network, "network")
    net = parse_network(text)
    mode = KineticsMode.parse(args.mode)
    problem = build_problem(net, mode)
    caps, caps_spec = _caps_from_args(args)
    verdict = check_injectivity(problem, caps=caps, route=args.route)
    print(f"species: {' '.join(net.species)}")
    print(f"reactions: {net.n_reactions}, kinetics: {mode.value}")
    _print_verdict(verdict)
    _write_report(args.report, {
        "command": "crn",
        "inputs": {"network": {"source": origin, "text": text},
                   "normalized": serialize_network(net), "mode": mode.value},
        "caps": caps_spec or "default",
        "route": args.route or "auto",
        "verdict": verdict.to_payload(),
    })
    return _verdict_exit(verdict)


def _cmd_signs(args) -> int:
    S, s_echo = _parse_subspace(args.S, None)
    caps, caps_spec = _caps_from_args(args)
    vectors = [sign_text(p, m, S.n) for p, m in subspace_sign_vectors(S, caps)]
    for v in vectors:
        print(v)
    _write_report(args.report, {
        "command": "signs",
        "inputs": {"S": s_echo},
        "caps": caps_spec or "default",
        "sign_vectors": vectors,
    })
    return 0


def _cmd_falsify(args) -> int:
    for flag in ("trials", "seed"):
        if getattr(args, flag) < 0:
            raise _UsageError(f"--{flag} must be >= 0, got {getattr(args, flag)}")
    cfg = OracleConfig(trials=args.trials, seed=args.seed)
    echo: dict
    if args.crn is not None:
        if any(getattr(args, k) is not None for k in ("B", "W", "D")):
            raise _UsageError("pick either --crn or one of --B/--W/--D")
        text, origin = _read_source(args.crn, "--crn")
        net = parse_network(text)
        problem = build_problem(net, KineticsMode.parse(args.mode))
        echo = {"network": {"source": origin, "text": text}, "mode": args.mode}
    else:
        cls, echo = _class_from_args(args)
        A, a_echo = _left_from_args(args)
        if a_echo:
            echo["A"] = a_echo
        S, s_echo = _parse_subspace(args.S, cls.cols)
        echo["S"] = s_echo
        problem = Problem(cls, S, left=A)
    hit = falsify(problem, cfg)
    if hit is None:
        print(f"no singular member found in {args.trials} trials (seed {args.seed})")
    else:
        print("found a singular member")
        for line in _witness_lines(hit):
            print(line)
    _write_report(args.report, {
        "command": "falsify",
        "inputs": echo,
        "trials": args.trials,
        "seed": args.seed,
        "hit": hit.to_payload() if hit is not None else None,
    })
    return EXIT_NOT_INJECTIVE if hit is not None else EXIT_INCONCLUSIVE


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
