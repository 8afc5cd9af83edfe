"""Command-line interface.

Subcommands
-----------
label    Label a tree encoding; print the labels and the polynomial.
dist     Distribution polynomial for size n (enum | rec | closed).
moments  Exact mean and variance with asymptotic ratios.
curve    Renormalized distribution points as CSV.
invert   Reconstruct trees from a polynomial (--height2 or --general).
reduce   Scaled reduction polynomial of a 3-partition instance file.
checkfe  Check the distribution series identity up to a given order.

Exit codes: 0 success, 1 negative mathematical answer (NO / identity
fails), 2 input or validation error, 3 I/O error, 4 budget exhausted
(also when the `invert --general` search nests deeper than the
interpreter's recursion limit: on a path of 1200 edges, or on a wide
fan such as `1000*q`, where each sibling nests one more generator;
`900*q` is found).

`dist --method enum` refuses sizes above the fixed enumeration cap 13
(`distribution.DEFAULT_ENUM_CAP`). `dist --method rec`,
`dist --method closed`, `curve` and `checkfe` refuse sizes above
RECURRENCE_CAP; `moments` refuses sizes above MOMENTS_CAP, and exits 2
as well when a lowered int-to-str limit cannot print its fractions;
`invert --height2` refuses polynomials whose tree would have more than
HEIGHT2_CAP vertices; `invert --budget` must be >= 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import distribution as dist
from . import inverse as inv
from .polyalg import Poly
from .tree import LabeledTree, TreeParseError, label_tree, parse_tree

# Largest size the recurrence and closed-form commands accept. Measured on
# a 2-vCPU x86 VM (Python 3.11): at 200, `dist --n` takes 7.0 s and 115 MB
# peak RSS, `dist --n --method closed` 13-15 s and 110 MB, and
# `checkfe --order` 12.9 s and 423 MB; cost grows faster than n^4.
RECURRENCE_CAP = 200

# Largest size `moments` accepts: one more and the exact variance has over
# 4300 digits, the int-to-str limit of Python 3.10-3.12 (kept: it guards
# against quadratic-time conversion). At 3575 json and text print in 0.17 s.
MOMENTS_CAP = 3575

# Largest vertex count (1 + the coefficient sum) `invert --height2` builds.
# Measured on the same VM: at the cap the costliest shape found, 2499999
# root children with one leaf each (2499999*q^2 + 2499999*q^3), takes
# 6.6-6.7 s and 226 MB peak RSS; the star 4999999*q takes 3.8-4.4 s and
# 139 MB; 124999 branches of 39 leaves take 4.3-4.4 s and 104 MB.
HEIGHT2_CAP = 5_000_000

_METHOD_NAMES = {"enum": "enumeration", "rec": "recurrence", "closed": "closed"}


def _fail(message: str, code: int) -> int:
    print(f"avpoly: error: {message}", file=sys.stderr)
    return code


def _emit(text: str, out_path: str | None) -> int:
    """Print to stdout, or write atomically to a file."""
    if out_path is None:
        print(text)
        return 0
    import tempfile  # only the --out path needs it; kept off the start-up path

    try:
        directory = os.path.dirname(os.path.abspath(out_path))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".avpoly-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text + "\n")
            os.replace(tmp, out_path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        return _fail(f"cannot write {out_path}: {exc}", 3)
    return 0


def _annotated_encoding(node: LabeledTree) -> str:
    out = []
    stack: list = [node]
    while stack:
        item = stack.pop()
        if item is None:
            out.append(")")
        else:
            out.append(f"({item.label}")
            stack.append(None)
            stack.extend(reversed(item.children))
    return "".join(out)


def _parse_poly_arg(text: str) -> Poly:
    s = text.strip()
    if s.startswith("["):
        return Poly.from_pairs(json.loads(s))
    return Poly.from_text(s)


# ---------------------------------------------------------------------------
#  Subcommands
# ---------------------------------------------------------------------------


def cmd_label(args) -> int:
    try:
        tree = parse_tree(args.encoding)
    except TreeParseError as exc:
        return _fail(str(exc), 2)
    labeled = label_tree(tree)
    poly = Poly(labeled.label_counts())
    print(_annotated_encoding(labeled))
    print("labels: " + ",".join(str(x) for x in labeled.preorder_labels()))
    print("polynomial: " + poly.to_text())
    return 0


def cmd_dist(args) -> int:
    n = args.n
    method = args.method
    if n < 0:
        return _fail("--n must be >= 0", 2)
    try:
        if method == "enum":
            record = dist.distribution_by_enumeration(n)
        elif n > RECURRENCE_CAP:
            return _fail(f"--n exceeds the {_METHOD_NAMES[method]} cap {RECURRENCE_CAP}", 2)
        elif method == "rec":
            record = dist.distribution_by_recurrence(n)
        else:
            record = dist.distribution_by_closed_form(n)
    except (dist.EnumerationCapExceeded, ValueError) as exc:
        return _fail(str(exc), 2)
    if args.format == "text":
        text = f"A_{record.n} ({record.method}) = {record.poly.to_text()}"
    else:
        text = json.dumps(record.to_json_dict())
    return _emit(text, args.out)


def cmd_moments(args) -> int:
    if args.n < 1:
        return _fail("--n must be >= 1", 2)
    if args.n > MOMENTS_CAP:
        return _fail(f"--n exceeds the moments cap {MOMENTS_CAP}", 2)
    report = dist.moment_report(args.n)
    try:
        if args.format == "text":
            text = "\n".join(
                [
                    f"n = {report.n}",
                    f"mean = {report.mean}",
                    f"variance = {report.variance}",
                    f"mean_ratio = {report.mean_ratio!r}",
                    f"variance_ratio = {report.variance_ratio!r}",
                ]
            )
        else:
            text = json.dumps(report.to_json_dict())
    except ValueError as exc:  # the interpreter's int-to-str limit, if set lower
        return _fail(f"cannot print the moments of --n {args.n}: {exc}", 2)
    return _emit(text, args.out)


def cmd_curve(args) -> int:
    if args.n < 1:
        return _fail("--n must be >= 1", 2)
    if args.n > RECURRENCE_CAP:
        return _fail(f"--n exceeds the recurrence cap {RECURRENCE_CAP}", 2)
    if args.precision < 1:
        return _fail("--precision must be >= 1", 2)
    points = dist.normalized_curve(args.n)
    return _emit("\n".join(dist.curve_csv_lines(points, args.precision)), args.out)


def cmd_invert(args) -> int:
    try:
        poly = _parse_poly_arg(args.polynomial)
        if any(c < 0 for _, c in poly.items()):
            raise ValueError("polynomial must have nonnegative coefficients")
    except (ValueError, json.JSONDecodeError) as exc:
        return _fail(f"bad polynomial: {exc}", 2)
    if args.budget < 0:
        return _fail("--budget must be >= 0", 2)
    if args.height2:
        vertices = 1 + poly.moment()
        if vertices > HEIGHT2_CAP:
            return _fail(f"a tree of {vertices} vertices exceeds the height-2 cap {HEIGHT2_CAP}", 2)
        result = inv.solve_height2(poly)
    else:
        try:
            result = inv.solve_general(poly, budget=args.budget)
        except RecursionError:
            return _fail("search nests deeper than the interpreter's recursion limit", 4)
    if result.status == "budget_exhausted":
        for tree in result.trees:
            print(tree.encode())
        return _fail(f"budget of {args.budget} placements exhausted", 4)
    if result.status == "no_tree":
        print("NO")
        return 1
    for tree in result.trees:
        print(tree.encode())
    return 0


def _load_instance(path: str, lam_override: int | None):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    lam = lam_override if lam_override is not None else data.get("lambda")
    return inv.ThreePartitionInstance(
        n=int(data["n"]),
        C=int(data["C"]),
        a=tuple(int(x) for x in data["a"]),
        lam=int(lam) if lam is not None else None,
    )


def cmd_reduce(args) -> int:
    try:
        inst = _load_instance(args.instance, args.lam)
    except OSError as exc:
        return _fail(f"cannot read {args.instance}: {exc}", 3)
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        return _fail(f"bad instance file: {exc}", 2)
    try:
        poly = inv.reduction_poly(inst)
        tree = None
        if args.with_partition is not None:
            partition = json.loads(args.with_partition)
            tree = inv.build_reduction_tree(inst, partition)
    except (inv.InstanceValidationError, inv.PartitionError) as exc:
        return _fail(str(exc), 2)
    except (ValueError, json.JSONDecodeError) as exc:
        return _fail(f"bad partition: {exc}", 2)
    if args.format == "text":
        lines = [f"polynomial: {poly.to_text()}"]
        if tree is not None:
            lines.append(f"tree: {tree.encode()}")
        text = "\n".join(lines)
    else:
        payload: dict = {"poly": poly.to_pairs()}
        if tree is not None:
            payload["tree"] = tree.encode()
        text = json.dumps(payload)
    return _emit(text, args.out)


def cmd_checkfe(args) -> int:
    if args.order < 1:
        return _fail("--order must be >= 1", 2)
    if args.order > RECURRENCE_CAP:
        return _fail(f"--order exceeds the recurrence cap {RECURRENCE_CAP}", 2)
    mismatch = dist.functional_equation_mismatch(args.order)
    if mismatch is None:
        print(f"functional equation holds to order {args.order}")
        return 0
    print(f"functional equation fails at order {mismatch}")
    return 1


# ---------------------------------------------------------------------------
#  Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avpoly",
        description="Avalanche polynomials of rooted plane trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("label", help="label a tree encoding")
    p.add_argument("encoding", help="parenthesis encoding, e.g. '((()))'")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("dist", help="distribution polynomial for size n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("enum", "rec", "closed"), default="rec")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("moments", help="exact moments and asymptotic ratios")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("curve", help="renormalized distribution as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--precision", type=int, default=12)
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("invert", help="find trees with a given polynomial")
    p.add_argument("polynomial", help="text form like 'q^3 + 2*q^4' or JSON pairs")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--height2", action="store_true")
    mode.add_argument("--general", action="store_true")
    p.add_argument("--budget", type=int, default=inv.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("reduce", help="reduction polynomial of an instance file")
    p.add_argument("instance", help="JSON file with n, C, a, optional lambda")
    p.add_argument("--lambda", dest="lam", type=int, default=None)
    p.add_argument(
        "--with-partition",
        default=None,
        metavar="JSON",
        help="partition as JSON triples of 1-based indices, e.g. '[[1,2,3]]'",
    )
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("checkfe", help="check the series identity to an order")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=cmd_checkfe)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
