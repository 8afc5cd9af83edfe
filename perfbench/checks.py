"""Output checks: golden hashes plus invariants the benchmark computes
itself with `math.comb`, never by calling avpoly."""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

from workloads import Job, tree_poly


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def first_moment(n: int) -> int:
    """Sum of e * p_e over the size-n distribution (the paper's closed form)."""
    return 4 ** (n - 1) * (n + 2) - (2 * n * n + n - 1) * catalan(n - 1)


def poly_text(poly: dict) -> str:
    """avpoly's text form: ascending "c*q^e" terms, unit coefficients bare."""
    if not poly:
        return "0"
    return " + ".join(f"q^{e}" if c == 1 else f"{c}*q^{e}" for e, c in sorted(poly.items()))


def parse_text_poly(text: str) -> dict:
    poly = {}
    for term in text.split(" + "):
        coeff, _, exp = term.rpartition("q^")
        poly[int(exp)] = int(coeff.rstrip("*")) if coeff else 1
    return poly


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _check_dist(job: Job, out: str) -> dict:
    n, fmt = job.params["n"], job.params["format"]
    if fmt == "json":
        record = json.loads(out)
        _require(record["n"] == n, "wrong n")
        poly = {int(e): int(c) for e, c in record["poly"]}
    else:
        head, _, body = out.strip().partition(" = ")
        _require(head.startswith(f"A_{n} "), "wrong header")
        poly = parse_text_poly(body)
    cn = catalan(n)
    _require(sum(poly.values()) == n * cn, "coefficients do not sum to n*C_n")
    if n >= 1:
        _require(poly.get(1) == cn, "p_1 != C_n")
        _require(sum(e * c for e, c in poly.items()) == first_moment(n),
                 "first moment differs from 4^(n-1)(n+2) - (2n^2+n-1)C_(n-1)")
        top = max(poly)
        _require(top == n * (n + 1) // 2 and poly[top] == 1, "top term is not q^(n(n+1)/2)")
    return poly


def _check_moments(job: Job, out: str):
    n = job.params["n"]
    if job.params["format"] == "json":
        fields = json.loads(out)
    else:
        fields = dict(line.split(" = ", 1) for line in out.strip().splitlines())
    _require(int(fields["n"]) == n, "wrong n")
    _require(Fraction(fields["mean"]) == Fraction(first_moment(n), n * catalan(n)),
             "mean != first moment / (n C_n)")
    _require(Fraction(fields["variance"]) >= 0, "negative variance")


def _check_curve(job: Job, out: str):
    n = job.params["n"]
    rel = 10.0 ** (1 - job.params["precision"])  # printed to that many digits
    lines = out.strip().splitlines()
    _require(lines[0] == "x,y", "missing CSV header")
    points = [tuple(map(float, line.split(","))) for line in lines[1:]]
    _require(points[0][1] == 1.0 and abs(points[0][0] * n - 1) < rel, "first point is not (1/n, 1)")
    _require(abs(points[-1][0] * 2 / (n + 1) - 1) < rel, "last x is not (n+1)/2")
    _require(abs(points[-1][1] * catalan(n) - 1) < rel, "last y is not 1/C_n")
    _require(abs(sum(y for _, y in points) / n - 1) < 2 * rel, "sum of y is not n")


def _check_checkfe(job: Job, out: str):
    _require(out == f"functional equation holds to order {job.params['order']}\n",
             "identity does not hold")


def _check_label(job: Job, out: str):
    encoding = job.params["encoding"]
    annotated, labels, poly = out.rstrip("\n").split("\n")
    _require(annotated.translate(str.maketrans("", "", "0123456789")) == encoding,
             "annotated tree is not the input tree")
    expected = tree_poly(encoding)
    _require(poly == "polynomial: " + poly_text(expected), "polynomial differs from own labeler")
    values = [int(x) for x in labels.removeprefix("labels: ").split(",")]
    _require(values[0] == 0 and sorted(values[1:]) == sorted(
        e for e, c in expected.items() for _ in range(c)), "labels differ from own labeler")


def _check_invert(job: Job, out: str, code: int):
    poly = job.params["poly"]
    lines = out.split()
    if code == 1:
        _require(lines == ["NO"], "no-tree answer is not NO")
        return
    _require(code == 4 or lines, "no tree printed")
    for encoding in lines:
        _require(tree_poly(encoding) == poly, "printed tree does not give the input polynomial")


def _check_reduce(job: Job, out: str):
    record = json.loads(out)
    inst = job.params["instance"]
    n, C = inst["n"], inst["C"]
    lam = inst.get("lambda", 3 * n + 1)
    poly = {int(e): int(c) for e, c in record["poly"]}
    _require(sum(poly.values()) == n + lam * n * C, "mass is not n + lambda n C")
    _require(poly == job.params["poly"], "polynomial differs from the paper's formula")
    _require(tree_poly(record["tree"]) == poly, "tree does not give the reduction polynomial")


def check_output(job: Job, code: int, out: str, golden: dict | None) -> str | None:
    """None if the job's exit code and stdout are right, else the reason."""
    if golden is None:
        return "no golden result for this job"
    if code != golden["exit"]:
        return f"exit {code}, expected {golden['exit']}"
    if hashlib.sha256(out.encode()).hexdigest() != golden["stdout_sha256"]:
        return "stdout differs from the golden result"
    try:
        if job.kind == "invert":
            _check_invert(job, out, code)
        elif code == 0:
            CHECKS[job.kind](job, out)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return None


CHECKS = {
    "dist": _check_dist,
    "moments": _check_moments,
    "curve": _check_curve,
    "checkfe": _check_checkfe,
    "label": _check_label,
    "reduce": _check_reduce,
}


def check_groups(jobs: list[Job], outputs: list[str], failed: list[bool]) -> list[bool]:
    """Jobs sharing a group (one n, several methods) must print the same
    polynomial; mark every job of a disagreeing group failed."""
    polys: dict = {}
    for i, job in enumerate(jobs):
        if job.group and not failed[i]:
            try:
                polys.setdefault(job.group, []).append((i, _check_dist(job, outputs[i])))
            except (CheckFailed, ValueError, KeyError) :
                failed[i] = True
    for members in polys.values():
        if any(p != members[0][1] for _, p in members):
            for i, _ in members:
                failed[i] = True
    return failed
