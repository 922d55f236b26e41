"""Command-line front end.

Subcommands: ``ideal`` (print the generators of an architecture's filter
variety), ``eddeg`` (critical-point counts, merge trees, tables),
``critpoints`` (run the multi-start Newton experiment), ``verify`` (prove
that the generators vanish on the neuromanifold and that it has the expected
dimension, and check that random ambient points violate a generator),
``resultant`` (show the two-layer resultant matrices) and ``compose``
(sample layer filters and their composition).  The argument parser is built
once per process.

Exit codes: 0 success, 1 a verification-style run found failures or fell
short of the predicted count, 2 usage error (bad arguments, or an
architecture the subcommand cannot handle), 141 (128 + SIGPIPE) the reader
of stdout closed it early, as ``head`` does.  Any other exception is a bug
and propagates.  All randomness is seeded
(defaults: ``--seed 42``, ``--data-seed 7``), so identical invocations print
identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import Sequence

from .arch import Architecture, reduce_arch, sample_neuromanifold
from .critpoints import seeded_problem, solve_critical_points
from .decomp import profile
from .eddegree import (
    arch_ed_degree,
    generic_ed_degree,
    merge_tree,
    tree_lines,
    two_layer_table,
)
from .idealgen import vanishing_generators
from .polyring import coefficient_symbols
from .resultant import two_layer_resultants
from .verify import verify_ideal


class UsageError(Exception):
    pass


def _parse_sizes(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from exc


def _at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def check(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return check


def _arch(args) -> Architecture:
    try:
        return Architecture(_parse_sizes(args.sizes), _parse_sizes(args.strides))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _fractions(values) -> list:
    return [str(v) for v in values]


def cmd_ideal(args) -> int:
    arch = _arch(args)
    gens = vanishing_generators(arch)
    if args.format == "json":
        payload = {
            "filter_sizes": list(arch.filter_sizes),
            "strides": list(arch.strides),
            "vars": list(gens.variables),
            "generators": [g.to_json() for g in gens.generators],
        }
        if args.provenance:
            payload["provenance"] = list(gens.provenance)
            payload["raw_counts"] = [[lbl, n] for lbl, n in gens.raw_counts]
        print(json.dumps(payload, indent=2))
    else:
        lines = [g.text() for g in gens.generators]
        if args.provenance:
            lines = [f"{line}\t# {prov}" for line, prov in zip(lines, gens.provenance)]
        if lines:
            print(*lines, sep="\n")
        else:
            print("# zero ideal (the reduced architecture has one layer)", file=sys.stderr)
    return 0


def cmd_eddeg(args) -> int:
    if args.sizes is None and not args.table:
        raise UsageError("give filter sizes (-k) or a table (--table)")
    if args.tree and args.table:
        raise UsageError("--tree and --table cannot be combined")
    sizes = () if args.sizes is None else _parse_sizes(args.sizes)
    if any(v < 1 for v in sizes):
        raise UsageError(f"filter sizes must be at least 1, got {sizes}")
    if args.table:
        m1, m2 = args.table
        rows = two_layer_table(m1, m2)
        header = "k1\\k2\t" + "\t".join(str(k2) for k2 in range(2, m2 + 1))
        print(header)
        for k1, row in zip(range(2, m1 + 1), rows):
            print(f"{k1}\t" + "\t".join(str(v) for v in row))
    elif args.tree:
        if len(sizes) < 2:
            raise UsageError("the merge tree needs at least two filter sizes")
        print("\n".join(tree_lines(merge_tree(sizes))))
    else:
        print(generic_ed_degree(sizes))
    return 0


def cmd_critpoints(args) -> int:
    # numpy's OpenBLAS workers spin beside the small solves; read only at numpy's first import
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    reduced = reduce_arch(_arch(args))
    k = reduced.out_size
    try:
        _, _, problem = seeded_problem(reduced, args.data_seed, args.out_dim)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    expected = arch_ed_degree(reduced)
    report = solve_critical_points(problem, starts=args.starts, seed=args.seed)
    saturated = report.distinct_count >= expected
    if args.format == "json":
        payload = {
            "filter_sizes": list(reduced.filter_sizes),
            "strides": list(reduced.strides),
            "expected": expected,
            "distinct": report.distinct_count,
            "real": report.real_count,
            "starts_used": report.starts_used,
            "saturated": saturated,
            "max_residual": report.max_residual,
            "points": [
                {
                    "w_re": [v.real for v in p.w],
                    "w_im": [v.imag for v in p.w],
                    "lambda_re": p.multiplier.real,
                    "lambda_im": p.multiplier.imag,
                    "residual": p.residual,
                    "real": p.is_real,
                }
                for p in report.points
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"architecture {reduced.describe()}  (hypersurface in C^{k})")
        print(f"expected count : {expected}")
        print(f"distinct found : {report.distinct_count}")
        print(f"real points    : {report.real_count}")
        print(f"starts used    : {report.starts_used} / {args.starts}")
        print(f"max residual   : {report.max_residual:.3e}")
        for i, p in enumerate(report.points):
            tag = "real   " if p.is_real else "complex"
            print(f"  point {i:2d} [{tag}] residual {p.residual:.3e}")
    return 0 if saturated else 1


def cmd_verify(args) -> int:
    arch = _arch(args)
    report = verify_ideal(arch, n_samples=args.samples, seed=args.seed)
    nonmember = report.nonmember_violations
    if args.format == "json":
        payload = {
            "filter_sizes": list(arch.filter_sizes),
            "strides": list(arch.strides),
            "samples": report.samples_tested,
            "generators": report.generators_tested,
            "failures": list(report.failures),
            "jacobian_rank": report.jacobian_rank,
            "expected_dim": report.expected_dim,
            "nonmember_violations": nonmember,
            "ok": report.ok,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"architecture {arch.describe()}")
        print(f"samples        : {report.samples_tested}")
        print(f"generators     : {report.generators_tested}")
        print(f"failures       : {len(report.failures)}")
        print(f"jacobian rank  : {report.jacobian_rank} (expected {report.expected_dim})")
        if nonmember is not None:
            print(f"nonmembership  : {nonmember}/{report.samples_tested} random points violate a generator")
        print("ok" if report.ok else "FAILED")
    return 0 if report.ok else 1


def cmd_resultant(args) -> int:
    arch = reduce_arch(_arch(args))
    if arch.depth != 2:
        raise UsageError("the resultant view is defined for two-layer architectures")
    (k1, k2), s1, k = arch.filter_sizes, arch.strides[0], arch.out_size
    prof = profile(k, s1)
    degs = ",".join(map(str, prof.degrees))
    print(f"architecture {arch.describe()}  filter size {k}")
    print(f"slot degrees   : {degs}  (n*={prof.n_max}, n_*={prof.n_min}, r={prof.r})")
    matrices = two_layer_resultants(k1, k2, s1, coefficient_symbols(k))
    for i, (name, shift_cap, size, _) in enumerate(matrices, start=1):
        top = " (top slots only)" if name == "I2" else ""
        print(f"matrix {i}       : R_{shift_cap}, minors of size {size}{top}")
    if len(matrices) == 1:
        print("matrix 2       : not needed")
    if args.print_matrices:
        for name, shift_cap, size, rows in matrices:
            print(f"{name} = R_{shift_cap}  ({len(rows)}x{shift_cap + 1}, minors of size {size})")
            cells = [[e.text() for e in row] for row in rows]
            widths = [max(map(len, col)) for col in zip(*cells)]
            print("\n".join("[ " + "  ".join(c.rjust(w) for c, w in zip(r, widths)) + " ]" for r in cells))
    return 0


def cmd_compose(args) -> int:
    arch = _arch(args)
    layers, w = sample_neuromanifold(arch, args.seed)
    if args.format == "json":
        payload = {
            "filter_sizes": list(arch.filter_sizes),
            "strides": list(arch.strides),
            "layers": [_fractions(layer) for layer in layers],
            "filter": _fractions(w),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"architecture {arch.describe()}")
        for i, layer in enumerate(layers, start=1):
            print(f"w{i} = ({', '.join(_fractions(layer))})")
        print(f"w  = ({', '.join(_fractions(w))})")
    return 0


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcn",
        description="Equations, ED degrees and critical points of 1D linear convolutional networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    positive = _at_least(1)
    numpy_seed = _at_least(0)

    def common(p, seed=int, formats=True):
        p.add_argument("-k", dest="sizes", required=True, help="comma-separated filter sizes")
        p.add_argument("-s", dest="strides", required=True, help="comma-separated strides")
        if formats:
            p.add_argument("--format", choices=("text", "json"), default="text")
        if seed:
            p.add_argument("--seed", type=seed, default=42)

    p = sub.add_parser("ideal", help="generators of the filter variety")
    common(p, seed=None)
    p.add_argument("--provenance", action="store_true", help="annotate each generator with its origin")
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("eddeg", help="generic critical-point count")
    p.add_argument("-k", dest="sizes", help="comma-separated filter sizes (not needed with --table)")
    p.add_argument("--tree", action="store_true", help="print the layer-merge tree")
    p.add_argument("--table", type=_at_least(2), nargs=2, metavar=("K1MAX", "K2MAX"), help="two-layer table as TSV")
    p.set_defaults(func=cmd_eddeg)

    p = sub.add_parser("critpoints", help="count critical points of a seeded training problem")
    common(p, seed=numpy_seed)
    p.add_argument("--starts", type=positive, default=500)
    p.add_argument("--data-seed", type=numpy_seed, default=7)
    p.add_argument("--out-dim", type=positive, default=3, help="output dimension of the generated data")
    p.set_defaults(func=cmd_critpoints)

    p = sub.add_parser("verify", help="exact membership and dimension proofs, sampled nonmembership")
    common(p)
    p.add_argument("--samples", type=positive, default=100, help="random ambient points of the nonmembership check")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("resultant", help="two-layer resultant recipe")
    common(p, seed=None, formats=False)
    p.add_argument("--print-matrices", action="store_true")
    p.set_defaults(func=cmd_resultant)

    p = sub.add_parser("compose", help="sample layer filters and compose them")
    common(p)
    p.set_defaults(func=cmd_compose)

    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout's reader left (``lcn ideal ... | head``): flush into the void
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
