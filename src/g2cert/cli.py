"""Command-line interface: run the verification suite, inspect the exact
data behind it, and query the Weyl dimension machinery.

Exit codes: 0 when every executed check passes, 1 when any check fails or
errors, 2 on usage errors (including unknown check ids).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .report import exit_code, render_text, serialize
from .suite import CHECK_IDS, SuiteConfig, VerificationContext, run_all


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g2cert",
        description="exact certification of the split-octonion derivation "
        "algebra and its embedding into so(3,4)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification checks")
    group = verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true", help="run every check")
    group.add_argument("--check", metavar="ID", help="run one check and its dependencies")
    verify.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    verify.add_argument("--samples", type=int, default=100, help="random sample count (default 100)")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--out", metavar="PATH", help="write the report to a file")

    show = sub.add_parser("show", help="print exact constructed data")
    show_sub = show.add_subparsers(dest="what", required=True)
    show_sub.add_parser("mul-table", help="8x8 multiplication table of the split Cayley algebra")
    killing = show_sub.add_parser("killing", help="exact Killing Gram matrix and signature")
    killing.add_argument("--algebra", choices=("g2", "so34"), required=True)
    show_sub.add_parser("decomposition", help="summands of so(3,4) under the embedded algebra")

    dims = sub.add_parser("dims", help="irreducible dimensions by the Weyl formula")
    dims.add_argument("--type", required=True, metavar="T", help='type label, e.g. "G2" or "B3"')
    dims.add_argument("--max-coeff", type=int, required=True, help="weight coefficient bound")
    dims.add_argument("--format", choices=("text", "json"), default="text")

    census = sub.add_parser("census", help="simple complex types of a given dimension")
    census.add_argument("--dim", type=int, required=True)
    census.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _cmd_verify(args) -> int:
    checks = None if args.all else (args.check,)
    try:
        cfg = SuiteConfig(seed=args.seed, samples=args.samples, checks=checks)
        reports = run_all(cfg)
    except KeyError:
        print(
            f"unknown check id {args.check!r}; valid ids: {', '.join(CHECK_IDS)}",
            file=sys.stderr,
        )
        return 2
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        payload = serialize(reports, cfg)
    else:
        payload = render_text(reports, cfg).encode()
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload.decode())
    return exit_code(reports)


def _coords_str(coords) -> str:
    terms = [
        f"{'' if c == 1 else '-' if c == -1 else str(c) + '*'}e{k + 1}"
        for k, c in enumerate(coords)
        if c
    ]
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def _cmd_show(args) -> int:
    ctx = VerificationContext()
    if args.what == "mul-table":
        alg = ctx.cayley.algebra
        for i in range(alg.dim):
            for j in range(alg.dim):
                coords = [Fraction(int(x), alg.den) for x in alg.M[i, j]]
                print(f"e{i + 1}*e{j + 1} = {_coords_str(coords)}")
        return 0
    if args.what == "killing":
        from .lie import killing_form

        alg = ctx.derivations if args.algebra == "g2" else ctx.so34
        kf = killing_form(alg)
        for row in kf.G.tolist():
            print("  ".join(str(Fraction(x, kf.den)) for x in row))
        print(f"signature: {kf.signature}")
        return 0
    if args.what == "decomposition":
        v = ctx.complement
        iso = ctx.complement_isomorphism
        print(f"so(3,4): dimension {ctx.so34.dim}")
        print(f"  embedded derivation algebra: dimension {ctx.g2_image.dim} (adjoint type)")
        print(
            f"  orthogonal complement: dimension {v.dim} "
            f"(isomorphic to the natural 7-dimensional module: "
            f"{iso is not None and iso.is_invertible})"
        )
        inter_dim = ctx.g2_image.dim + v.dim - ctx.g2_image.sum(v).dim
        print(f"  intersection: dimension {inter_dim}")
        return 0
    raise AssertionError(args.what)


def _cmd_dims(args) -> int:
    from .weyl import cartan_type, dimension_census, root_system

    try:
        ct = cartan_type(args.type)
        rs = root_system(ct)
        census = dimension_census(rs, args.max_coeff)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.format == "json":
        doc = {
            "type": ct.label,
            "max_coeff": args.max_coeff,
            "monotone": census.monotone,
            "dims": [{"weight": list(w), "dim": d} for w, d in census.entries],
        }
        print(json.dumps(doc, indent=2))
    else:
        for w, d in census.entries:
            print(f"{','.join(map(str, w))} -> {d}")
        print(f"monotone on the grid: {census.monotone}")
    return 0


def _cmd_census(args) -> int:
    from .weyl import simple_algebra_census

    try:
        labels = simple_algebra_census(args.dim)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps({"dim": args.dim, "types": labels}))
    else:
        print(" ".join(labels) if labels else "(none)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "show":
        return _cmd_show(args)
    if args.command == "dims":
        return _cmd_dims(args)
    if args.command == "census":
        return _cmd_census(args)
    raise AssertionError(args.command)


def run() -> None:
    """Entry point of ``python -m g2cert`` and the console script: exit with
    ``main``'s code, the heap frozen so that shutdown runs no cycle collection
    over what the run leaves; refcounting still frees it, and atexit and file
    flushing still run."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
