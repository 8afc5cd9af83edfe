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

`--out PATH` writes what stdout would get to PATH as the redirect `> PATH`
does (see `_emit`), down to leaving it truncated when a write fails.

Every cap is defined here; the library refuses no input for its cost.
Each integer option's range is declared beside it in `_COMMANDS`, and a
value outside it exits 2. `dist` checks its cap itself, the one its
`--method`'s row of `_METHODS` holds: ENUM_CAP for enum, RECURRENCE_CAP
for the others. `moments` and `reduce` exit 2 as well when the
int-to-str limit cannot print their numbers. `invert` (both modes) and
`reduce --with-partition` refuse to build a tree of more than TREE_CAP
vertices. JSON input must have the documented shape, with integers (or
the decimal strings `reduce` prints) where numbers go; anything else
exits 2. Integer options, like those strings, are ASCII digits after an
optional "-".
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

# modules are reached by attribute only: the package executes each on its
# first attribute access, so a command executes only the modules it uses
from . import distribution as dist
from . import inverse as inv
from . import polyalg, tree

# Largest size `dist --method enum` accepts. Measured on a 2-vCPU x86 VM
# (Python 3.11): at 13 it takes 1.7-1.8 s and 15 MB peak RSS; n = 12 takes
# 0.4-0.6 s.
ENUM_CAP = 13

# Largest size the recurrence and closed-form commands accept. Measured on
# a 2-vCPU x86 VM (Python 3.11): at 200, `dist --n` takes 4.7-6.9 s and
# 55 MB peak RSS, `curve --n` 5.0-6.7 s and 55 MB, `dist --n --method
# closed` 17-20 s and 101 MB, and `checkfe --order` 9.1-11.3 s and 118 MB;
# cost grows faster than n^4.
RECURRENCE_CAP = 200

# Largest size `moments` accepts: one more and the exact variance has over
# 4300 digits, the int-to-str limit of Python 3.11-3.13 (kept: it guards
# against quadratic-time conversion). At 3575 json and text print in 0.17 s.
MOMENTS_CAP = 3575

# Largest tree a command builds and prints: 1 + the coefficient sum of its
# polynomial (1 + n + lambda n C for `reduce`). Measured at the cap on the
# same VM: `invert --height2` 0.8-1.0 s and 74 MB peak RSS on the star
# 4999999*q and on one branch of each size 2..3161, 0.5-0.6 s and 53 MB on
# the fan 2499999*q^2 + 2499999*q^3; `invert --general` 1.1-1.9 s (median
# 1.3 s in 12 runs) and 113 MB on the star, 39-49 s and 2.19-2.27 GB on
# the fan; `reduce --with-partition` 0.7-0.8 s and 82 MB at n = 1,
# 1.3-1.4 s and 92 MB at n = 5000 with lambda = 1.
TREE_CAP = 5_000_000

# One row per `dist --method`: its name in the output, its cap and the
# `distribution` function that computes it, looked up on each call as
# `cmd_*` are, so a refused size executes no `distribution`
_METHODS = {
    "enum": ("enumeration", ENUM_CAP, "distribution_by_enumeration"),
    "rec": ("recurrence", RECURRENCE_CAP, "distribution_by_recurrence"),
    "closed": ("closed", RECURRENCE_CAP, "distribution_by_closed_form"),
}


def _fail(message: str, code: int) -> int:
    print(f"avpoly: error: {message}", file=sys.stderr)
    return code


def _tree_cap_fail(poly: polyalg.Poly) -> int | None:
    """Exit 2 if the tree of `poly`, 1 + its coefficient sum vertices, exceeds TREE_CAP."""
    vertices = 1 + poly.moment()
    if vertices <= TREE_CAP:
        return None
    try:
        return _fail(f"a tree of {vertices} vertices exceeds the tree cap {TREE_CAP}", 2)
    except ValueError:  # a count with more digits than the int-to-str limit
        return _fail(f"a tree of more vertices than can be printed exceeds the tree cap {TREE_CAP}", 2)


def _int(text: str) -> int:
    """An integer option, by the JSON readers' rule (`exact_int`): ASCII
    digits after an optional "-". `int` would also read " 5", "1_0" and
    non-ASCII digits."""
    return polyalg.exact_int(text)


_int.__name__ = "int"  # argparse's error names it: "invalid int value: '1_0'"


def _emit(text: str, out_path: str | None) -> int:
    """Print to stdout, or write to `out_path` as `> out_path` would: the
    path is opened and truncated, so symlinks (dangling ones too), hard
    links, FIFOs and devices are written through; an existing file keeps
    its inode, owner and mode; a new one gets 0o666 less the umask. A
    write that fails part-way leaves the file truncated, as `>` does."""
    if out_path is None:
        print(text)
        return 0
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        return _fail(f"cannot write {out_path}: {exc}", 3)
    return 0


def _json(text: str):
    """json.loads, with nesting too deep for the decoder as ValueError."""
    import json  # imported only by the commands that read JSON

    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _record(fields: dict) -> str:
    """`json.dumps(fields)` for the records `dist`, `moments` and `reduce`
    print. Their strings (method names, fractions, decimal coefficients,
    tree encodings) need no escaping, their numbers are ints and finite
    floats, and their one list is a polynomial's `to_pairs`. So `json` is
    imported only to read JSON."""
    parts = []
    for key, value in fields.items():
        if isinstance(value, str):
            text = f'"{value}"'
        elif isinstance(value, list):
            text = "[" + ", ".join([f'[{e}, "{c}"]' for e, c in value]) + "]"
        else:
            text = repr(value)
        parts.append(f'"{key}": {text}')
    return "{" + ", ".join(parts) + "}"


def _parse_poly_arg(text: str) -> polyalg.Poly:
    s = text.strip()
    if s.startswith("["):
        return polyalg.Poly.from_pairs(_json(s))
    return polyalg.Poly.from_text(s)


# ---------------------------------------------------------------------------
#  Subcommands
# ---------------------------------------------------------------------------


def cmd_label(args) -> int:
    from collections import Counter  # `tree` imports collections.abc anyway

    try:
        root = tree.parse_tree(args.encoding)
    except tree.TreeParseError as exc:
        return _fail(str(exc), 2)
    # one preorder walk gives the labels: a child is labeled its parent's
    # label plus its subtree's size
    labels = []
    stack = [(root, 0)]
    while stack:
        node, label = stack.pop()
        labels.append(label)
        stack.extend([(child, label + child.size) for child in reversed(node.children)])
    texts = list(map(str, labels))
    # the k-th "(" of the encoding opens the k-th vertex in preorder
    pieces = args.encoding.split("(")[1:]
    print("".join(["(" + text + piece for text, piece in zip(texts, pieces)]))
    print("labels: " + ",".join(texts))
    # the polynomial counts the labels of the vertices below the root
    print("polynomial: " + polyalg.Poly(Counter(labels[1:])).to_text())
    return 0


def cmd_dist(args) -> int:
    n = args.n
    method, cap, route = _METHODS[args.method]
    if n > cap:
        return _fail(f"--n exceeds the {method} cap {cap}", 2)
    poly = getattr(dist, route)(n)
    if args.format == "text":
        text = f"A_{n} ({method}) = {poly.to_text()}"
    else:
        text = _record({"n": n, "method": method, "poly": poly.to_pairs()})
    return _emit(text, args.out)


def cmd_moments(args) -> int:
    report = dist.moment_report(args.n)
    try:
        fields = {**report._asdict(), "mean": str(report.mean), "variance": str(report.variance)}
        if args.format == "text":  # a float's str is its repr, as in the JSON
            text = "\n".join([f"{name} = {value}" for name, value in fields.items()])
        else:
            text = _record(fields)
    except ValueError as exc:  # the interpreter's int-to-str limit, if set lower
        return _fail(f"cannot print the moments of --n {args.n}: {exc}", 2)
    return _emit(text, args.out)


def cmd_curve(args) -> int:
    points = dist.normalized_curve(args.n)
    return _emit("\n".join(dist.curve_csv_lines(points, args.precision)), args.out)


def cmd_invert(args) -> int:
    try:
        poly = _parse_poly_arg(args.polynomial)
        if any(c < 0 for _, c in poly.items()):
            raise ValueError("polynomial must have nonnegative coefficients")
    except ValueError as exc:  # json.JSONDecodeError is one
        return _fail(f"bad polynomial: {exc}", 2)
    budget = inv.DEFAULT_BUDGET if args.budget is None else args.budget
    if (code := _tree_cap_fail(poly)) is not None:
        return code
    if args.height2:
        result = inv.solve_height2(poly)
    else:
        result = inv.solve_general(poly, budget=budget)
    for found in result.trees:  # a search cut by the budget prints what it found
        print(found)
    if result.status == "budget_exhausted":
        return _fail(f"budget of {budget} placements exhausted", 4)
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
        n=polyalg.exact_int(data["n"]),
        C=polyalg.exact_int(data["C"]),
        a=tuple(polyalg.exact_int(x) for x in data["a"]),
        lam=polyalg.exact_int(lam) if lam is not None else None,
    )


def _parse_partition(text: str) -> list[list[int]]:
    groups = _json(text)
    if not isinstance(groups, list) or not all(isinstance(g, list) for g in groups):
        raise ValueError(f"expected a list of index lists, got {text!r:.40}")
    return [[polyalg.exact_int(i) for i in g] for g in groups]


def cmd_reduce(args) -> int:
    try:
        inst = _load_instance(args.instance, args.lam)
    except OSError as exc:
        return _fail(f"cannot read {args.instance}: {exc}", 3)
    except inv.InstanceValidationError as exc:
        return _fail(str(exc), 2)
    except (KeyError, ValueError) as exc:
        return _fail(f"bad instance file: {exc}", 2)
    poly = inv.reduction_poly(inst)
    tree_field = {}  # {"tree": its encoding} when a partition is given
    try:
        if args.with_partition is not None:
            partition = _parse_partition(args.with_partition)
            if (code := _tree_cap_fail(poly)) is not None:
                return code
            tree_field["tree"] = inv.build_reduction_tree(inst, partition).encode()
    except inv.PartitionError as exc:
        return _fail(str(exc), 2)
    except ValueError as exc:
        return _fail(f"bad partition: {exc}", 2)
    try:
        if args.format == "text":
            lines = [f"polynomial: {poly.to_text()}"] + [f"tree: {t}" for t in tree_field.values()]
            text = "\n".join(lines)
        else:
            text = _record({"poly": poly.to_pairs(), **tree_field})
    except ValueError as exc:  # the interpreter's int-to-str limit
        return _fail(f"cannot print the reduction polynomial: {exc}", 2)
    return _emit(text, args.out)


def cmd_checkfe(args) -> int:
    mismatch = dist.functional_equation_mismatch(args.order)
    if mismatch is None:
        print(f"functional equation holds to order {args.order}")
        return 0
    print(f"functional equation fails at order {mismatch}")
    return 1


# ---------------------------------------------------------------------------
#  Parser
# ---------------------------------------------------------------------------

_FORMAT = ("--format", {"choices": ("json", "text"), "default": "json"})
_OUT = ("--out", {"metavar": "PATH"})

# Each subcommand's help and arguments, in help order: (name, add_argument
# keywords). A store_true flag joins the subcommand's required group of
# mutually exclusive modes (`invert --height2 | --general`). An integer
# option's "range", which `main` checks and argparse is not given, is
# (lower bound, cap and the cap's name in its message, or None, None).
_COMMANDS = {
    "label": ("label a tree encoding", [
        ("encoding", {"help": "parenthesis encoding, e.g. '((()))'"}),
    ]),
    "dist": ("distribution polynomial for size n", [
        ("--n", {"type": _int, "required": True, "range": (0, None, None)}),
        ("--method", {"choices": _METHODS, "default": "rec"}),
        _FORMAT,
        _OUT,
    ]),
    "moments": ("exact moments and asymptotic ratios", [
        ("--n", {"type": _int, "required": True, "range": (1, MOMENTS_CAP, "moments")}),
        _FORMAT,
        _OUT,
    ]),
    "curve": ("renormalized distribution as CSV", [
        ("--n", {"type": _int, "required": True, "range": (1, RECURRENCE_CAP, "recurrence")}),
        ("--precision", {"type": _int, "default": 12, "range": (1, None, None)}),
        _OUT,
    ]),
    "invert": ("find trees with a given polynomial", [
        ("polynomial", {"help": "text form like 'q^3 + 2*q^4' or JSON pairs"}),
        ("--height2", {"action": "store_true"}),
        ("--general", {"action": "store_true"}),
        ("--budget", {"type": _int, "range": (0, None, None)}),
    ]),
    "reduce": ("reduction polynomial of an instance file", [
        ("instance", {"help": "JSON file with n, C, a, optional lambda"}),
        ("--lambda", {"dest": "lam", "type": _int}),
        ("--with-partition", {
            "metavar": "JSON",
            "help": "partition as JSON triples of 1-based indices, e.g. '[[1,2,3]]'",
        }),
        _FORMAT,
        _OUT,
    ]),
    "checkfe": ("check the series identity to an order", [
        ("--order", {"type": _int, "required": True, "range": (1, RECURRENCE_CAP, "recurrence")}),
    ]),
}


def build_parser():
    """The argparse parser of `_COMMANDS`; `main` builds it only for the
    argv `_read_plain` declines, among them every help request and error."""
    import argparse  # with gettext and locale, about 5 ms of start-up

    parser = argparse.ArgumentParser(
        prog="avpoly",
        description="Avalanche polynomials of rooted plane trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        modes = None
        for flag, keywords in arguments:
            target = p
            if keywords.get("action") == "store_true":
                modes = modes or p.add_mutually_exclusive_group(required=True)
                target = modes
            target.add_argument(flag, **{k: v for k, v in keywords.items() if k != "range"})
        p.set_defaults(func=globals()["cmd_" + name])
    return parser


def _read_plain(argv: list[str]):
    """The namespace `build_parser().parse_args(argv)` returns, for an argv
    that is a subcommand followed by its positionals and by exact,
    unrepeated long options whose values convert; none of them may start
    with "-". Any other argv gives None, and argparse reads it: help,
    "--n=3", abbreviations, repeats, negative numbers and every error."""
    spec = _COMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    arguments = spec[1]
    options = {flag: keywords for flag, keywords in arguments if flag.startswith("-")}
    modes = [flag for flag, keywords in options.items() if keywords.get("action") == "store_true"]
    names = [flag for flag, _ in arguments if flag not in options]
    given, positionals = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        keywords = options.get(token)
        if keywords is None or token in given:
            return None
        if token in modes:
            given[token] = True
            continue
        text = next(tokens, "-")  # with no value left, declined below
        if text.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(text)
        except ValueError:
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        given[token] = value
    if len(positionals) != len(names) or (modes and sum(f in given for f in modes) != 1):
        return None
    # looked up now, as build_parser does: a tracer may rebind cmd_* after import
    values = dict(zip(names, positionals), command=argv[0], func=globals()["cmd_" + argv[0]])
    for flag, keywords in options.items():
        if flag in given:
            value = given[flag]
        elif keywords.get("required"):
            return None
        else:
            value = keywords.get("default", False if flag in modes else None)
        values[keywords.get("dest", flag[2:].replace("-", "_"))] = value
    return SimpleNamespace(**values)


def _range_error(args) -> str | None:
    """The message for the first integer option outside its range, in
    `_COMMANDS` order; None if every one lies inside."""
    for flag, keywords in _COMMANDS[args.command][1]:
        # a ranged option has no "dest": its name is the flag's
        value = getattr(args, flag[2:]) if "range" in keywords else None
        if value is None:  # no range, or `invert` without --budget
            continue
        low, cap, name = keywords["range"]
        if value < low:
            return f"{flag} must be >= {low}"
        if cap is not None and value > cap:
            return f"{flag} exceeds the {name} cap {cap}"
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv) or build_parser().parse_args(argv)
    error = _range_error(args)
    if error is not None:
        return _fail(error, 2)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; send what is still buffered to devnull
        # so the interpreter's flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail("stdout closed before the output was written", 3)
    return code


def run() -> None:
    """The process entry: `main`, then exit with its code. Freezing every
    object first spares the interpreter's final collections a walk over
    all live objects; atexit handlers, the stream flushes and the frees
    of reference counting still run."""
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
