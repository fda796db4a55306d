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

__all__ = ["Config", "main"]


class Config:
    p: int = 5
    primitive_root: int | None = None
    max_length: int = 8
    samples: int = 1000
    seed: int = 0
    fmt: str = "text"
    epsilon_bound: str = "p-2"

    def __init__(self, **options):
        for name, value in options.items():
            if name not in Config.__annotations__:
                raise TypeError(f"Config got an unexpected keyword argument {name!r}")
            setattr(self, name, value)
        if self.max_length < 1:
            raise ValueError("--max-length must be >= 1")
        if self.samples < 1:
            raise ValueError("--samples must be >= 1")


# each option by its Config field, which holds its default; every command
# takes --p and --root
_OPTIONS = {
    "p": ("--p", dict(type=int, help="the prime p >= 5 (default 5)")),
    "primitive_root": ("--root", dict(
        type=int, metavar="ROOT", help="override the primitive root mod p")),
    "max_length": ("--max-length", dict(type=int, help="support length bound L (default 8)")),
    "samples": ("--samples", dict(type=int, help="sample count for randomized checks")),
    "seed": ("--seed", dict(type=int, help="RNG seed (default 0)")),
    "fmt": ("--format", dict(choices=("text", "json"))),
    "epsilon_bound": ("--epsilon-bound", dict(
        choices=("p-2", "p-1"),
        help="summation bound of the free torus idempotents; 'p-1' double-counts "
        "the identity class and makes the quadratic relators fail",
    )),
}


def _add_options(parser: argparse.ArgumentParser, *names: str) -> None:
    """The options of one command; an option left out of the command line is
    left out of its namespace too, so Config supplies its default."""
    for name in ("p", "primitive_root") + names:
        flag, kwargs = _OPTIONS[name]
        parser.add_argument(flag, dest=name, default=argparse.SUPPRESS, **kwargs)


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


def _algebra(cfg: Config) -> ExtAlgebra:
    return ExtAlgebra(cfg.p, cfg.primitive_root)


def cmd_mul(cfg: Config, left: str, right: str) -> int:
    alg = _algebra(cfg)
    x = parse_element(alg, left)
    y = parse_element(alg, right)
    result = multiply(x, y)
    if cfg.fmt == "json":
        print(json.dumps(element_to_json(result), indent=2))
    else:
        print(render_element(result))
    return 0


def cmd_verify(cfg: Config, suite: str, quiet: bool = False) -> int:
    from .verify import run  # imported here, so that mul and table do not load it

    alg = _algebra(cfg)
    started = time.time()
    report = run(
        alg,
        suite,
        max_length=cfg.max_length,
        samples=cfg.samples,
        seed=cfg.seed,
        epsilon_bound=cfg.epsilon_bound,
    )
    all_ok = all(r.ok for results in report.values() for r in results)
    if cfg.fmt == "json":
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
        print(json.dumps(payload if suite == "all" else payload[0], indent=2))
    else:
        total = 0
        failed = 0
        for name, results in report.items():
            for r in results:
                total += 1
                if not r.ok:
                    failed += 1
                if not quiet:
                    line = f"[{name}] {r.name}: {'PASS' if r.ok else 'FAIL'}"
                    if not r.ok and r.counterexample:
                        line += f"  ({r.counterexample})"
                    print(line)
        status = "OK" if all_ok else "FAILED"
        print(
            f"{status}: {total - failed}/{total} checks passed "
            f"(p={cfg.p}, L={cfg.max_length}, seed={cfg.seed}, "
            f"{time.time() - started:.1f}s)"
        )
    return 0 if all_ok else 1


def cmd_table(cfg: Config, degree: int) -> int:
    alg = _algebra(cfg)
    W, H = alg.weyl, alg.hecke
    actors = [("t_w0", W.omega(1)), ("t_s0", W.s0), ("t_s1", W.s1)]
    rows = []
    for sym in alg.basis_symbols(cfg.max_length, degrees=(degree,)):
        el = alg.symbol_element(sym)
        entry = {"symbol": repr(sym)}
        for label, w in actors:
            entry[f"left_{label}"] = render_element(alg.act_left(H.tau(w), el))
            entry[f"right_{label}"] = render_element(alg.act_right(el, H.tau(w)))
        rows.append(entry)
    if cfg.fmt == "json":
        print(json.dumps({"degree": degree, "rows": rows}, indent=2))
    else:
        for entry in rows:
            print(entry["symbol"])
            for label, _ in actors:
                print(f"  {label} . x = {entry[f'left_{label}']}")
                print(f"  x . {label} = {entry[f'right_{label}']}")
    return 0


def cmd_relators(cfg: Config) -> int:
    from . import presentation as pres  # imported here, so that mul and table do not load it

    alg = _algebra(cfg)
    payload = []
    for name, rel in pres.all_relators(alg, cfg.epsilon_bound):
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
    print(json.dumps({"p": cfg.p, "epsilon_bound": cfg.epsilon_bound, "relators": payload}, indent=2))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = Config(**{name: value for name, value in vars(args).items() if name in _OPTIONS})
        if args.command == "mul":
            return cmd_mul(cfg, args.left, args.right)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite, quiet=args.quiet)
        if args.command == "table":
            return cmd_table(cfg, args.degree)
        return cmd_relators(cfg)  # the subparsers admit no other command
    except ValueError as exc:  # a ParseError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
