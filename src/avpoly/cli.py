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
fails), 2 input or validation error, 3 I/O error (also when stdout
closes early, as in `avpoly curve --n 150 | head`), 4 budget exhausted.

`dist --method enum` refuses sizes above the fixed enumeration cap 13
(`distribution.DEFAULT_ENUM_CAP`). `dist --method rec`,
`dist --method closed`, `curve` and `checkfe` refuse sizes above
RECURRENCE_CAP; `moments` refuses sizes above MOMENTS_CAP, and exits 2
as well when a lowered int-to-str limit cannot print its fractions;
`invert --height2` refuses polynomials whose tree would have more than
HEIGHT2_CAP vertices, and `reduce --with-partition` above REDUCE_TREE_CAP;
`curve --precision` must lie in 1..PRECISION_CAP, and `invert --budget`
must be >= 0. JSON input must have the documented shape, with integers
(or the decimal strings `reduce` prints) where numbers go; anything
else exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import distribution as dist
from . import inverse as inv
from .polyalg import Poly, exact_int
from .tree import TreeParseError, avalanche_poly, parse_tree

# Largest size the recurrence and closed-form commands accept. Measured on
# a 2-vCPU x86 VM (Python 3.11): at 200, `dist --n` takes 4.7-6.9 s and
# 55 MB peak RSS, `curve --n` 5.0-6.7 s and 55 MB, `dist --n --method
# closed` 12-15 s and 109 MB, and `checkfe --order` 9.1-11.3 s and 118 MB;
# cost grows faster than n^4.
RECURRENCE_CAP = 200

# Largest size `moments` accepts: one more and the exact variance has over
# 4300 digits, the int-to-str limit of Python 3.10-3.12 (kept: it guards
# against quadratic-time conversion). At 3575 json and text print in 0.17 s.
MOMENTS_CAP = 3575

# Largest vertex count (1 + the coefficient sum) `invert --height2` builds.
# Measured on the same VM: at the cap the costliest shapes found, one
# branch of each size 2..3161 and the star 4999999*q, take 0.8-1.0 s and
# 74 MB peak RSS; 2499999 root children with one leaf each (2499999*q^2 +
# 2499999*q^3) 0.5-0.6 s and 53 MB; 124999 branches of 39 leaves 0.15 s
# and 35 MB.
HEIGHT2_CAP = 5_000_000

# Largest vertex count `reduce --with-partition` builds; a tree has one
# vertex more than its polynomial's coefficient sum, here 1 + n + lambda n C.
# Measured on the same VM: at the cap, n = 1 (3 branches of about
# 1.67 million leaves) takes 0.7-0.8 s and 82 MB peak RSS, and n = 5000
# with lambda = 1 (15000 branches of 332-333 vertices) 1.3-1.4 s and 92 MB.
REDUCE_TREE_CAP = 5_000_000

# Largest `curve --precision`: float formatting takes a C int precision.
PRECISION_CAP = 2**31 - 1

_METHOD_NAMES = {"enum": "enumeration", "rec": "recurrence", "closed": "closed"}


def _fail(message: str, code: int) -> int:
    print(f"avpoly: error: {message}", file=sys.stderr)
    return code


def _emit(text: str, out_path: str | None) -> int:
    """Print to stdout, or write atomically to a file. The file gets the
    mode a shell redirect would give it: the mode of the file it replaces,
    or 0o666 less the umask for a new one. A symlink is written through,
    as a redirect would: its target, dangling or not, is replaced in the
    target's directory and the link stays."""
    if out_path is None:
        print(text)
        return 0
    import tempfile  # only the --out path needs it; kept off the start-up path

    # only a link is resolved: realpath would also drop a trailing "/", and
    # a path naming a directory must fail as a redirect to it does
    target = os.path.realpath(out_path) if os.path.islink(out_path) else out_path
    try:
        directory = os.path.dirname(os.path.abspath(target))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".avpoly-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text + "\n")
            try:
                mode = os.stat(target).st_mode & 0o7777
            except FileNotFoundError:
                umask = os.umask(0)  # the only way to read it; put back at once
                os.umask(umask)
                mode = 0o666 & ~umask
            os.chmod(tmp, mode)  # mkstemp makes the file 0o600
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        return _fail(f"cannot write {out_path}: {exc}", 3)
    return 0


def _json(text: str):
    """json.loads, with nesting too deep for the decoder as ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _parse_poly_arg(text: str) -> Poly:
    s = text.strip()
    if s.startswith("["):
        return Poly.from_pairs(_json(s))
    return Poly.from_text(s)


# ---------------------------------------------------------------------------
#  Subcommands
# ---------------------------------------------------------------------------


def cmd_label(args) -> int:
    try:
        tree = parse_tree(args.encoding)
    except TreeParseError as exc:
        return _fail(str(exc), 2)
    # one preorder walk gives the labeled encoding and the labels; a child
    # is labeled its parent's label plus its subtree's size
    out, labels = [], []
    stack = [(tree, 0)]
    while stack:
        item = stack.pop()
        if item is None:  # the subtree of an open vertex ends
            out.append(")")
            continue
        node, label = item
        text = str(label)
        labels.append(text)
        out.append("(" + text)
        stack.append(None)
        stack.extend([(child, label + child.size) for child in reversed(node.children)])
    print("".join(out))
    print("labels: " + ",".join(labels))
    print("polynomial: " + avalanche_poly(tree).to_text())
    return 0


def cmd_dist(args) -> int:
    n = args.n
    method = _METHOD_NAMES[args.method]
    if n < 0:
        return _fail("--n must be >= 0", 2)
    try:
        if args.method == "enum":
            poly = dist.distribution_by_enumeration(n)
        elif n > RECURRENCE_CAP:
            return _fail(f"--n exceeds the {method} cap {RECURRENCE_CAP}", 2)
        elif args.method == "rec":
            poly = dist.distribution_by_recurrence(n)
        else:
            poly = dist.distribution_by_closed_form(n)
    except ValueError as exc:  # EnumerationCapExceeded is one
        return _fail(str(exc), 2)
    if args.format == "text":
        text = f"A_{n} ({method}) = {poly.to_text()}"
    else:
        text = json.dumps({"n": n, "method": method, "poly": poly.to_pairs()})
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
            text = json.dumps(
                {**report._asdict(), "mean": str(report.mean), "variance": str(report.variance)}
            )
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
    if args.precision > PRECISION_CAP:
        return _fail(f"--precision exceeds {PRECISION_CAP}", 2)
    points = dist.normalized_curve(args.n)
    return _emit("\n".join(dist.curve_csv_lines(points, args.precision)), args.out)


def cmd_invert(args) -> int:
    try:
        poly = _parse_poly_arg(args.polynomial)
        if any(c < 0 for _, c in poly.items()):
            raise ValueError("polynomial must have nonnegative coefficients")
    except ValueError as exc:  # json.JSONDecodeError is one
        return _fail(f"bad polynomial: {exc}", 2)
    if args.budget < 0:
        return _fail("--budget must be >= 0", 2)
    if args.height2:
        vertices = 1 + poly.moment()
        if vertices > HEIGHT2_CAP:
            return _fail(f"a tree of {vertices} vertices exceeds the height-2 cap {HEIGHT2_CAP}", 2)
        result = inv.solve_height2(poly)
    else:
        result = inv.solve_general(poly, budget=args.budget)
    for tree in result.trees:  # a search cut by the budget prints what it found
        print(tree.encode())
    if result.status == "budget_exhausted":
        return _fail(f"budget of {args.budget} placements exhausted", 4)
    if result.status == "no_tree":
        print("NO")
        return 1
    return 0


def _load_instance(path: str, lam_override: int | None):
    with open(path, encoding="utf-8") as fh:
        data = _json(fh.read())
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object with n, C, a and optional lambda")
    if not isinstance(data["a"], list):
        raise ValueError(f"a must be a list of integers, got {data['a']!r:.40}")
    lam = lam_override if lam_override is not None else data.get("lambda")
    return inv.ThreePartitionInstance(
        n=exact_int(data["n"]),
        C=exact_int(data["C"]),
        a=tuple(exact_int(x) for x in data["a"]),
        lam=exact_int(lam) if lam is not None else None,
    )


def _parse_partition(text: str) -> list[list[int]]:
    groups = _json(text)
    if not isinstance(groups, list) or not all(isinstance(g, list) for g in groups):
        raise ValueError(f"expected a list of index lists, got {text!r:.40}")
    return [[exact_int(i) for i in g] for g in groups]


def cmd_reduce(args) -> int:
    try:
        inst = _load_instance(args.instance, args.lam)
    except OSError as exc:
        return _fail(f"cannot read {args.instance}: {exc}", 3)
    except (KeyError, ValueError) as exc:
        return _fail(f"bad instance file: {exc}", 2)
    try:
        poly = inv.reduction_poly(inst)
        tree = None
        if args.with_partition is not None:
            partition = _parse_partition(args.with_partition)
            vertices = 1 + poly.moment()
            if vertices > REDUCE_TREE_CAP:
                return _fail(
                    f"a tree of {vertices} vertices exceeds the reduction tree cap {REDUCE_TREE_CAP}", 2
                )
            tree = inv.build_reduction_tree(inst, partition)
    except (inv.InstanceValidationError, inv.PartitionError) as exc:
        return _fail(str(exc), 2)
    except ValueError as exc:
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
    p.add_argument("--method", choices=_METHOD_NAMES, default="rec")
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
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; send what is still buffered to devnull
        # so the interpreter's flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail("stdout closed before the output was written", 3)
    return code


if __name__ == "__main__":
    sys.exit(main())
