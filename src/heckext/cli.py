"""Command-line interface: product queries, verification suites, tables.

Exit status of `verify` is 0 exactly when every check passes, so CI can
gate on the acceptance suite.  JSON reports use the stable schema
{"suite": name, "checks": [{"name", "status", "counterexample"?}]}.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .graded import ExtAlgebra
from .grammar import element_to_json, parse_element, render_element
from .product import multiply
from .suites import SUITE_NAMES

__all__ = ["main"]


# each option by its name in the parsed namespace, with its default; every
# command takes --p and --root
_OPTIONS = {
    "p": ("--p", dict(type=int, default=5, help="the prime p >= 5 (default 5)")),
    "primitive_root": ("--root", dict(
        type=int, default=None, metavar="ROOT", help="override the primitive root mod p")),
    "max_length": ("--max-length", dict(
        type=int, default=8, help="support length bound L (default 8)")),
    "samples": ("--samples", dict(
        type=int, default=1000, help="sample count for randomized checks")),
    "seed": ("--seed", dict(type=int, default=0, help="RNG seed (default 0)")),
    "fmt": ("--format", dict(choices=("text", "json"), default="text")),
    "epsilon_bound": ("--epsilon-bound", dict(
        choices=("p-2", "p-1"), default="p-2",
        help="summation bound of the free torus idempotents; 'p-1' double-counts "
        "the identity class and makes the quadratic relators fail",
    )),
}


def _add_options(parser: argparse.ArgumentParser, *names: str) -> None:
    """The options of one command."""
    for name in ("p", "primitive_root") + names:
        flag, kwargs = _OPTIONS[name]
        parser.add_argument(flag, dest=name, **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckext",
        description="Exact computation and identity verification in the graded "
        "Ext-algebra over the pro-p Iwahori-Hecke algebra of SL2(Qp).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mul = sub.add_parser("mul", help="multiply two elements of the graded algebra")
    p_mul.add_argument("left", help="element expression, e.g. 'b0(w(0; s1))'")
    p_mul.add_argument("right", help="element expression, e.g. '2*tau(w(1; s0)) - e(1)'")
    _add_options(p_mul, "fmt")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=("all",) + SUITE_NAMES)
    p_verify.add_argument("--quiet", action="store_true", help="only print the summary")
    _add_options(p_verify, "max_length", "samples", "seed", "fmt", "epsilon_bound")

    p_table = sub.add_parser(
        "table", help="print the left/right action table in one degree"
    )
    p_table.add_argument("degree", type=int, choices=(1, 2, 3))
    _add_options(p_table, "max_length", "fmt")

    p_rel = sub.add_parser("relators", help="export the 36 relators as JSON")
    _add_options(p_rel, "epsilon_bound")

    return parser


def cmd_mul(args: argparse.Namespace) -> int:
    alg = ExtAlgebra(args.p, args.primitive_root)
    result = multiply(parse_element(alg, args.left), parse_element(alg, args.right))
    if args.fmt == "json":
        print(json.dumps(element_to_json(result), indent=2))
    else:
        print(render_element(result))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run  # imported here, so that mul and table do not load it

    alg = ExtAlgebra(args.p, args.primitive_root)
    started = time.time()
    report = run(alg, args.suite, max_length=args.max_length, samples=args.samples,
                 seed=args.seed, epsilon_bound=args.epsilon_bound)
    checks = [(name, r) for name, results in report.items() for r in results]
    failed = sum(not r.ok for _, r in checks)
    if args.fmt == "json":
        payload = [
            {
                "suite": name,
                "checks": [
                    {"name": r.name, "status": "pass" if r.ok else "fail"}
                    | ({"counterexample": r.counterexample} if not r.ok else {})
                    for r in results
                ],
            }
            for name, results in report.items()
        ]
        print(json.dumps(payload if args.suite == "all" else payload[0], indent=2))
    else:
        if not args.quiet:
            for name, r in checks:
                line = f"[{name}] {r.name}: {'PASS' if r.ok else 'FAIL'}"
                if not r.ok and r.counterexample:
                    line += f"  ({r.counterexample})"
                print(line)
        print(
            f"{'FAILED' if failed else 'OK'}: {len(checks) - failed}/{len(checks)} checks passed "
            f"(p={args.p}, L={args.max_length}, seed={args.seed}, "
            f"{time.time() - started:.1f}s)"
        )
    return 1 if failed else 0


def cmd_table(args: argparse.Namespace) -> int:
    alg = ExtAlgebra(args.p, args.primitive_root)
    W, H = alg.weyl, alg.hecke
    actors = [("t_w0", W.omega(1)), ("t_s0", W.s0), ("t_s1", W.s1)]
    rows = []
    for sym in alg.basis_symbols(args.max_length, degrees=(args.degree,)):
        el = alg.symbol_element(sym)
        entry = {"symbol": repr(sym)}
        for label, w in actors:
            entry[f"left_{label}"] = render_element(alg.act_left(H.tau(w), el))
            entry[f"right_{label}"] = render_element(alg.act_right(el, H.tau(w)))
        rows.append(entry)
    if args.fmt == "json":
        print(json.dumps({"degree": args.degree, "rows": rows}, indent=2))
    else:
        for entry in rows:
            print(entry["symbol"])
            for label, _ in actors:
                print(f"  {label} . x = {entry[f'left_{label}']}")
                print(f"  x . {label} = {entry[f'right_{label}']}")
    return 0


# the most letters the relators export expands: about 3.8e7 at p = 211,
# 1.2e8 at p = 307 and 4.1e9 at p = 1009 (FreeElement.letter_bound)
MAX_EXPORT_LETTERS = 10**8


def cmd_relators(args: argparse.Namespace) -> int:
    from . import presentation as pres  # imported here, so that mul and table do not load it

    relators = pres.all_relators(ExtAlgebra(args.p, args.primitive_root), args.epsilon_bound)
    letters = sum(rel.letter_bound() for _, rel in relators)
    if letters > MAX_EXPORT_LETTERS:
        raise ValueError(f"the relators at p={args.p} expand to up to {letters} letters, "
                         f"over the export limit of {MAX_EXPORT_LETTERS}")
    payload = []
    for name, rel in relators:
        payload.append(
            {
                "name": name,
                "terms": [
                    {
                        "coeff": c,
                        "word": [pres.LETTER_NAMES[l] for l in word],
                    }
                    for word, c in sorted(rel.expand().coeffs.items())
                ],
            }
        )
    print(json.dumps({"p": args.p, "epsilon_bound": args.epsilon_bound, "relators": payload}, indent=2))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {"mul": cmd_mul, "verify": cmd_verify, "table": cmd_table, "relators": cmd_relators}
    try:
        for name in ("max_length", "samples"):  # absent from the commands that do not take it
            if getattr(args, name, 1) < 1:
                raise ValueError(f"{_OPTIONS[name][0]} must be >= 1")
        return commands[args.command](args)
    except ValueError as exc:  # a ParseError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
