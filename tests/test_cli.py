"""CLI surface: outputs, exit codes, round-trips, determinism."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import avpoly
from avpoly import distribution as dist
from avpoly import inverse as inv
from avpoly.cli import (
    HEIGHT2_CAP, MOMENTS_CAP, PRECISION_CAP, RECURRENCE_CAP, REDUCE_TREE_CAP, main,
)
from avpoly.tree import avalanche_poly, parse_tree

FIG1 = "((((()))())((())(())(())())((())()()()))"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
#  label
# ---------------------------------------------------------------------------


def test_label_path(capsys):
    code, out, _ = run(capsys, "label", "((()))")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "(0(2(3)))"
    assert lines[1] == "labels: 0,2,3"
    assert lines[2] == "polynomial: q^2 + q^3"


def test_label_single_vertex(capsys):
    code, out, _ = run(capsys, "label", "()")
    assert code == 0
    assert "labels: 0" in out


def test_label_fig1(capsys):
    code, out, _ = run(capsys, "label", FIG1)
    assert code == 0
    assert (
        "polynomial: q^5 + 2*q^6 + 3*q^7 + 3*q^8 + 2*q^9 + 4*q^10 + 4*q^11" in out
    )


def test_label_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "label", "(()")
    assert code == 2
    assert "position" in err


def _label_oracle(encoding: str) -> str:
    """The three lines `label` prints, from a scan of the encoding alone:
    the vertex opened at index i has (j - i + 1) / 2 vertices when its
    ')' is at j, and is labeled its parent's label plus that count."""
    size, opens = {}, []
    for j, ch in enumerate(encoding):
        if ch == "(":
            opens.append(j)
        else:
            i = opens.pop()
            size[i] = (j - i + 1) // 2
    annotated, labels, counts, open_labels = [], [], {}, []
    for j, ch in enumerate(encoding):
        if ch == ")":
            open_labels.pop()
            annotated.append(")")
            continue
        label = open_labels[-1] + size[j] if open_labels else 0
        if open_labels:
            counts[label] = counts.get(label, 0) + 1
        open_labels.append(label)
        annotated.append(f"({label}")
        labels.append(str(label))
    terms = [f"q^{e}" if counts[e] == 1 else f"{counts[e]}*q^{e}" for e in sorted(counts)]
    return "\n".join(["".join(annotated), "labels: " + ",".join(labels), "polynomial: " + (" + ".join(terms) or "0")]) + "\n"


def _random_encoding(rng, edges: int) -> str:
    # vertex v hangs below v - 1 with probability p, else below a uniform
    # earlier vertex, so p near 1 gives deep trees and near 0 bushy ones
    p = rng.random()
    children = [[] for _ in range(edges + 1)]
    for v in range(1, edges + 1):
        children[v - 1 if rng.random() < p else rng.randrange(v)].append(v)
    out, stack = [], [0]
    while stack:
        v = stack.pop()
        if v is None:
            out.append(")")
        else:
            out.append("(")
            stack.append(None)
            stack.extend(reversed(children[v]))
    return "".join(out)


def _all_encodings(edges: int) -> list[str]:
    # Dyck words: no prefix closes more than it opens, or opens more than `edges`
    words = [""]
    for _ in range(2 * edges):
        words = [w + c for w in words for c in "()" if (w + c).count(")") <= (w + c).count("(") <= edges]
    return ["(" + w + ")" for w in words]


def test_label_output_matches_an_independent_scan_of_the_encoding(capsys):
    rng = random.Random("label-oracle")
    encodings = [enc for e in range(8) for enc in _all_encodings(e)]
    assert len(encodings) == 626  # C_0 + ... + C_7
    encodings += [_random_encoding(rng, rng.randint(1, 300)) for _ in range(200)]
    encodings += ["(" * 10001 + ")" * 10001, "(" + "()" * 60000 + ")"]
    for enc in encodings:
        code, out, err = run(capsys, "label", enc)
        assert (code, out, err) == (0, _label_oracle(enc), ""), enc[:60]


# ---------------------------------------------------------------------------
#  dist
# ---------------------------------------------------------------------------

A3_PAIRS = [[1, "5"], [2, "2"], [3, "4"], [4, "2"], [5, "1"], [6, "1"]]


@pytest.mark.parametrize("method,name", [("enum", "enumeration"), ("rec", "recurrence"), ("closed", "closed")])
def test_dist_methods_agree(capsys, method, name):
    code, out, _ = run(capsys, "dist", "--n", "3", "--method", method)
    assert code == 0
    data = json.loads(out)
    assert data == {"n": 3, "method": name, "poly": A3_PAIRS}


def test_dist_text_format(capsys):
    code, out, _ = run(capsys, "dist", "--n", "2", "--method", "rec", "--format", "text")
    assert code == 0
    assert "2*q^1 + q^2 + q^3" in out


DIST_N2_STDOUT = {
    "json": '{"n": 2, "method": "%s", "poly": [[1, "2"], [2, "1"], [3, "1"]]}\n',
    "text": "A_2 (%s) = 2*q^1 + q^2 + q^3\n",
}


@pytest.mark.parametrize("method,name", [("enum", "enumeration"), ("rec", "recurrence"), ("closed", "closed")])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_dist_n2_stdout_bytes(capsys, method, name, fmt):
    expected = DIST_N2_STDOUT[fmt] % name
    assert run(capsys, "dist", "--n", "2", "--method", method, "--format", fmt) == (0, expected, "")


def test_dist_enum_cap(capsys, monkeypatch):
    code, _, err = run(capsys, "dist", "--n", "14", "--method", "enum")
    assert code == 2
    assert "cap" in err
    # the cap is fixed: the environment variable that once raised it is ignored
    monkeypatch.setenv("AVPOLY_ENUM_CAP", "1000")
    code, out, err = run(capsys, "dist", "--n", "14", "--method", "enum")
    assert code == 2
    assert out == ""
    assert "enumeration cap 13" in err


def test_dist_enum_cap_refuses_before_counting_trees(capsys, monkeypatch):
    catalan = dist.catalan

    def guarded(k):
        if k > dist.DEFAULT_ENUM_CAP:
            raise AssertionError(f"catalan({k}) computed above the enumeration cap")
        return catalan(k)

    monkeypatch.setattr(dist, "catalan", guarded)
    code, out, err = run(capsys, "dist", "--n", "200000", "--method", "enum")
    assert (code, out) == (2, "")
    assert "exceeds the enumeration cap 13" in err


def test_dist_closed_rejects_zero(capsys):
    code, _, _ = run(capsys, "dist", "--n", "0", "--method", "closed")
    assert code == 2


@pytest.mark.parametrize(
    "command,flag", [("dist", "--n"), ("curve", "--n"), ("checkfe", "--order")]
)
def test_recurrence_cap_exits_2(capsys, command, flag):
    code, out, err = run(capsys, command, flag, str(RECURRENCE_CAP + 1))
    assert code == 2
    assert out == ""
    assert f"recurrence cap {RECURRENCE_CAP}" in err


def test_dist_closed_cap_exits_2(capsys):
    code, out, err = run(capsys, "dist", "--n", str(RECURRENCE_CAP + 1), "--method", "closed")
    assert code == 2
    assert out == ""
    assert f"cap {RECURRENCE_CAP}" in err


def test_dist_deterministic(capsys):
    one = run(capsys, "dist", "--n", "5", "--method", "rec")
    two = run(capsys, "dist", "--n", "5", "--method", "rec")
    assert one == two


# ---------------------------------------------------------------------------
#  moments
# ---------------------------------------------------------------------------


def test_moments_n2(capsys):
    code, out, _ = run(capsys, "moments", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["mean"] == "7/4"
    assert data["variance"] == "11/16"
    assert abs(data["mean_ratio"] - 1.3963) < 5e-4


MOMENTS_N2_STDOUT = {
    "json": '{"n": 2, "mean": "7/4", "variance": "11/16", '
    '"mean_ratio": 1.3962979814050143, "variance_ratio": 0.0859375}\n',
    "text": "n = 2\nmean = 7/4\nvariance = 11/16\n"
    "mean_ratio = 1.3962979814050143\nvariance_ratio = 0.0859375\n",
}


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_moments_n2_stdout_bytes(capsys, fmt):
    assert run(capsys, "moments", "--n", "2", "--format", fmt) == (0, MOMENTS_N2_STDOUT[fmt], "")


def test_moments_n1_variance_zero(capsys):
    code, out, _ = run(capsys, "moments", "--n", "1")
    assert code == 0
    assert json.loads(out)["variance"] == "0"


def test_moments_rejects_zero(capsys):
    assert run(capsys, "moments", "--n", "0")[0] == 2


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_moments_cap(capsys, fmt):
    code, out, _ = run(capsys, "moments", "--n", str(MOMENTS_CAP), "--format", fmt)
    assert code == 0
    assert f"{MOMENTS_CAP}" in out
    code, out, err = run(capsys, "moments", "--n", str(MOMENTS_CAP + 1), "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == f"avpoly: error: --n exceeds the moments cap {MOMENTS_CAP}\n"


def test_moments_cap_is_the_digit_limit():
    # one size more and the exact variance no longer converts to text
    with pytest.raises(ValueError, match="digits"):
        str(dist.moment_report(MOMENTS_CAP + 1).variance)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_moments_under_a_lowered_digit_limit(capsys, fmt):
    # MOMENTS_CAP assumes the default limit of 4300 digits; below it the
    # cap no longer protects the formatting, which must still end in exit 2
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "moments", "--n", "1000", "--format", fmt)
        small = run(capsys, "moments", "--n", "100", "--format", fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2
    assert out == ""
    assert err.startswith("avpoly: error: cannot print the moments of --n 1000: ")
    assert err.count("\n") == 1
    assert small[0] == 0


# ---------------------------------------------------------------------------
#  curve
# ---------------------------------------------------------------------------


def test_curve_stdout(capsys):
    code, out, _ = run(capsys, "curve", "--n", "2")
    assert code == 0
    assert out == "x,y\n0.5,1.0\n1.0,0.5\n1.5,0.5\n"


def test_curve_file_output(capsys, tmp_path):
    target = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "curve", "--n", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "x,y\n0.5,1.0\n1.0,0.5\n1.5,0.5\n"


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
def test_out_file_gets_the_mode_a_shell_redirect_would(capsys, tmp_path):
    # the file is written through a temporary file, which mkstemp makes 0o600
    new, old = tmp_path / "new.json", tmp_path / "old.csv"
    old.write_text("stale\n")
    old.chmod(0o640)
    umask = os.umask(0o022)
    try:
        assert run(capsys, "dist", "--n", "3", "--out", str(new))[0] == 0
        assert run(capsys, "curve", "--n", "3", "--out", str(old))[0] == 0
    finally:
        os.umask(umask)
    assert new.stat().st_mode & 0o7777 == 0o644
    assert old.stat().st_mode & 0o7777 == 0o640
    assert old.read_text().startswith("x,y\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.json", "old.csv"]


@pytest.mark.skipif(os.name != "posix", reason="POSIX symlinks")
def test_out_through_a_symlink_writes_its_target(capsys, tmp_path):
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_text("old\n")
    link.symlink_to("real.csv")
    assert run(capsys, "curve", "--n", "2", "--out", str(link))[0] == 0
    assert link.is_symlink() and os.readlink(link) == "real.csv"
    assert real.read_text() == "x,y\n0.5,1.0\n1.0,0.5\n1.5,0.5\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]


@pytest.mark.skipif(os.name != "posix", reason="POSIX symlinks")
def test_out_through_a_dangling_symlink_creates_its_target(capsys, tmp_path):
    (tmp_path / "sub").mkdir()
    link, missing = tmp_path / "dang.csv", tmp_path / "sub" / "missing.csv"
    link.symlink_to(missing)
    assert run(capsys, "curve", "--n", "2", "--out", str(link))[0] == 0
    assert link.is_symlink() and os.readlink(link) == str(missing)
    assert missing.read_text() == "x,y\n0.5,1.0\n1.0,0.5\n1.5,0.5\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dang.csv", "sub"]
    assert sorted(p.name for p in missing.parent.iterdir()) == ["missing.csv"]


def test_curve_unwritable_path_exits_3(capsys, tmp_path):
    code, _, err = run(
        capsys, "curve", "--n", "2", "--out", str(tmp_path / "no" / "curve.csv")
    )
    assert code == 3
    assert "cannot write" in err
    # a trailing separator names a directory, as it does for a redirect
    code, _, err = run(capsys, "curve", "--n", "2", "--out", str(tmp_path / "dir") + os.sep)
    assert code == 3
    assert "cannot write" in err
    assert list(tmp_path.iterdir()) == []


def test_curve_precision_flag(capsys):
    code, out, _ = run(capsys, "curve", "--n", "3", "--precision", "3")
    assert code == 0
    assert out.splitlines()[1] == "0.333,1.0"


def test_curve_precision_cap(capsys):
    # float formatting takes a C int precision; one more used to end in a
    # traceback (exit 1)
    code, out, _ = run(capsys, "curve", "--n", "3", "--precision", str(PRECISION_CAP))
    assert code == 0
    # no double has more than MAX_DOUBLE_DIGITS significant digits, so the
    # oracle is the same text without the cap's 2 GiB buffer
    assert out.splitlines()[1] == f"{1 / 3:.{dist.MAX_DOUBLE_DIGITS}g},1.0"
    for precision in (PRECISION_CAP + 1, 10**20):
        code, out, err = run(capsys, "curve", "--n", "3", "--precision", str(precision))
        assert (code, out) == (2, "")
        assert err == f"avpoly: error: --precision exceeds {PRECISION_CAP}\n"


def test_curve_precision_cap_under_a_1gib_address_space():
    # formatting at the cap itself asked for a 2 GiB buffer, a MemoryError
    # (exit 1) under this limit
    resource = pytest.importorskip("resource")

    # a hard limit cannot be raised, so keep an inherited one below 1 GiB
    cap = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = 2**30 if cap == resource.RLIM_INFINITY else min(2**30, cap)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    argv = [sys.executable, "-m", "avpoly", "curve", "--n", "3", "--precision", str(PRECISION_CAP)]
    env = dict(os.environ, PYTHONPATH=str(Path(avpoly.__file__).resolve().parent.parent))
    runs = [
        subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, preexec_fn=fn)
        for fn in (None, limit)
    ]
    assert [(p.returncode, p.stderr) for p in runs] == [(0, ""), (0, "")]
    assert runs[1].stdout == runs[0].stdout


def test_curve_n60_peak_row(capsys):
    from fractions import Fraction

    from avpoly.polyalg import catalan

    code, out, _ = run(capsys, "curve", "--n", "60")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "0.0166666666667,1.0"
    # the row for exponent 119 (x = 119/60) sits above the hung-tree bound
    x, y = lines[119].split(",")
    assert abs(float(x) - 119 / 60) < 1e-11
    assert float(y) >= Fraction(catalan(57), catalan(60))


# ---------------------------------------------------------------------------
#  invert
# ---------------------------------------------------------------------------


def test_invert_height2_found(capsys):
    code, out, _ = run(capsys, "invert", "q^3 + 2*q^4", "--height2")
    assert code == 0
    assert out.strip() == "((()()))"


@pytest.mark.parametrize("k", [1, 2, 1000])
def test_invert_height2_prints_every_copy_of_a_shared_branch(capsys, k):
    code, out, _ = run(capsys, "invert", f"{k}*q^2 + {k}*q^3", "--height2")
    assert (code, out) == (0, "(" + "(())" * k + ")\n")


def test_invert_height2_no(capsys):
    code, out, _ = run(capsys, "invert", "q^3 + q^4", "--height2")
    assert code == 1
    assert out.strip() == "NO"


def test_invert_general(capsys):
    code, out, _ = run(capsys, "invert", "q^2 + q^3", "--general")
    assert code == 0
    assert out.strip() == "((()))"


def test_invert_height2_vertex_cap(capsys, monkeypatch):
    calls = []

    def stub(poly):
        calls.append(poly)
        return inv.InverseResult("no_tree")

    monkeypatch.setattr(inv, "solve_height2", stub)
    # HEIGHT2_CAP non-root vertices plus the root: one over the cap
    code, out, err = run(capsys, "invert", f"{HEIGHT2_CAP}*q", "--height2")
    assert code == 2
    assert out == ""
    assert "cap" in err
    assert len(err.splitlines()) == 1
    assert calls == []
    code, out, _ = run(capsys, "invert", f"{HEIGHT2_CAP - 2}*q + q^2", "--height2")
    assert (code, out) == (1, "NO\n")
    assert len(calls) == 1


def test_invert_accepts_json_pairs(capsys):
    code, out, _ = run(capsys, "invert", '[[3, "1"], [4, "2"]]', "--height2")
    assert code == 0
    assert out.strip() == "((()()))"


def test_invert_bad_polynomial(capsys):
    code, _, err = run(capsys, "invert", "q^^3", "--height2")
    assert code == 2
    assert "polynomial" in err


def test_invert_budget_exhausted_exits_4(capsys, tmp_path):
    inst = {"n": 1, "C": 26, "a": [7, 9, 10], "lambda": 4}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code, out, _ = run(capsys, "reduce", str(path))
    poly_json = json.dumps(json.loads(out)["poly"])
    code, _, err = run(capsys, "invert", poly_json, "--general", "--budget", "3")
    assert code == 4
    assert "budget" in err


def test_invert_rejects_negative_budget(capsys):
    code, out, err = run(capsys, "invert", "q^2 + q^3", "--general", "--budget", "-1")
    assert code == 2
    assert out == ""
    assert "--budget" in err
    # a zero budget is valid: the zero polynomial needs no placement
    assert run(capsys, "invert", "0", "--general", "--budget", "0")[:2] == (0, "()\n")


@pytest.mark.parametrize(
    "encoding",
    ["(" * 1201 + ")" * 1201, "(" * 5001 + ")" * 5001]
    + ["(" + "()" * k + ")" for k in (900, 1000, 5000)],
    ids=["path-1200", "path-5000", "900*q", "1000*q", "5000*q"],
)
def test_invert_general_finds_deep_and_wide_trees(capsys, encoding):
    # the search keeps its choice points on a stack, not on the call stack,
    # so neither a long path nor a wide fan reaches the recursion limit
    poly_json = json.dumps(avalanche_poly(parse_tree(encoding)).to_pairs())
    assert run(capsys, "invert", poly_json, "--general") == (0, encoding + "\n", "")


def test_invert_general_matches_the_benchmark_golden_outputs(capsys, monkeypatch):
    # every `invert --general` job the benchmark can run, against the exit
    # code and stdout hash it recorded in perfbench/golden.json
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    import workloads

    golden = json.loads((bench / "golden.json").read_text())["jobs"]
    jobs = [job for job in workloads.universe("inverse") if "--general" in job.args]
    assert len(jobs) == 52
    for job in jobs:
        code, out, _ = run(capsys, *job.args)
        expected = golden[job.key]
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
            expected["exit"], expected["stdout_sha256"]
        ), job.describe()


# ---------------------------------------------------------------------------
#  reduce
# ---------------------------------------------------------------------------


def write_instance(tmp_path, **kw):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(kw))
    return str(path)


def test_reduce_poly(capsys, tmp_path):
    path = write_instance(tmp_path, n=1, C=26, a=[7, 9, 10])
    code, out, _ = run(capsys, "reduce", path, "--lambda", "4")
    assert code == 0
    assert json.loads(out)["poly"] == [
        [105, "1"],
        [133, "1"],
        [134, "27"],
        [141, "1"],
        [142, "35"],
        [145, "1"],
        [146, "39"],
    ]


def test_reduce_with_partition(capsys, tmp_path):
    path = write_instance(tmp_path, n=1, C=26, a=[7, 9, 10], **{"lambda": 4})
    code, out, _ = run(capsys, "reduce", path, "--with-partition", "[[1, 2, 3]]")
    assert code == 0
    data = json.loads(out)
    tree = data["tree"]
    assert tree.count("(") == 106


def test_reduce_validation_failure(capsys, tmp_path):
    path = write_instance(tmp_path, n=1, C=26, a=[13, 3, 10])
    code, _, err = run(capsys, "reduce", path)
    assert code == 2
    assert "C/4" in err


def test_reduce_missing_file_exits_3(capsys, tmp_path):
    code, _, _ = run(capsys, "reduce", str(tmp_path / "absent.json"))
    assert code == 3


def test_reduce_output_feeds_invert(capsys, tmp_path):
    # JSON polynomial emitted by reduce parses as invert input
    path = write_instance(tmp_path, n=1, C=26, a=[7, 9, 10], **{"lambda": 4})
    code, out, _ = run(capsys, "reduce", path)
    poly_json = json.dumps(json.loads(out)["poly"])
    code, out, _ = run(capsys, "invert", poly_json, "--general")
    assert code == 0
    assert out.strip().startswith("(")


def test_reduce_tree_vertex_cap(capsys, tmp_path, monkeypatch):
    calls = []

    def stub(inst, partition):
        calls.append(partition)
        return avpoly.PlaneTree()

    monkeypatch.setattr(inv, "build_reduction_tree", stub)
    # n = 1 and lambda = 2: the tree has 2 + 2C vertices, the cap itself at C = big
    big = (REDUCE_TREE_CAP - 2) // 2
    assert 2 + 2 * big == REDUCE_TREE_CAP
    path = write_instance(tmp_path, n=1, C=big + 1, a=[big // 3, big // 3, big + 1 - 2 * (big // 3)])
    code, out, err = run(capsys, "reduce", path, "--lambda", "2", "--with-partition", "[[1, 2, 3]]")
    assert (code, out) == (2, "")
    assert "cap" in err
    assert len(err.splitlines()) == 1
    assert calls == []
    # without a partition no tree is built, so the cap does not apply
    assert run(capsys, "reduce", path)[0] == 0
    path = write_instance(tmp_path, n=1, C=big, a=[big // 3, big // 3, big - 2 * (big // 3)])
    code, out, _ = run(capsys, "reduce", path, "--lambda", "2", "--with-partition", "[[1, 2, 3]]")
    assert (code, json.loads(out)["tree"]) == (0, "()")
    assert calls == [[[1, 2, 3]]]


# Malformed JSON, or a number that is not an integer, exits 2 with one
# stderr line; before, these ended in a traceback or were truncated.


@pytest.mark.parametrize(
    "polynomial",
    ["[1]", "[[1, null]]", "[[1,[2]]]", "[[1.5, 2]]", "[[1, 2.0]]", "[[1, true]]",
     '["12"]', "[[1, 2, 3]]", "[[-1, 2]]", '[[1, "x"]]', "[" * 100_000],
)
def test_invert_rejects_malformed_json(capsys, polynomial):
    code, out, err = run(capsys, "invert", polynomial, "--general")
    assert (code, out) == (2, "")
    assert err.startswith("avpoly: error: bad polynomial: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 1, "C": 26, "a": null}',
        '{"n": 1, "C": 26, "a": "7910"}',
        '[1, 26, [7, 9, 10]]',
        '{"n": 1.9, "C": 26, "a": [7, 9, 10]}',
        '{"n": 1, "C": 26.0, "a": [7, 9, 10]}',
        '{"n": 1, "C": 26, "a": [7, 9.5, 10]}',
        '{"n": 1, "C": 26, "a": [7, 9, 10], "lambda": 4.5}',
        '{"n": true, "C": 26, "a": [7, 9, 10]}',
        '{"C": 26, "a": [7, 9, 10]}',
        "[" * 100_000,
    ],
)
def test_reduce_rejects_malformed_instance(capsys, tmp_path, text):
    path = tmp_path / "inst.json"
    path.write_text(text)
    code, out, err = run(capsys, "reduce", str(path), "--with-partition", "[[1, 2, 3]]")
    assert (code, out) == (2, "")
    assert err.startswith("avpoly: error: bad instance file: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "partition",
    ["[1]", '[[1, 2, "x"]]', "[[1, 2, 3.0]]", "[[1, 2, null]]", "{}", '"[[1, 2, 3]]"', "[" * 100_000],
)
def test_reduce_rejects_malformed_partition(capsys, tmp_path, partition):
    path = write_instance(tmp_path, n=1, C=26, a=[7, 9, 10])
    code, out, err = run(capsys, "reduce", path, "--with-partition", partition)
    assert (code, out) == (2, "")
    assert err.startswith("avpoly: error: bad partition: ")
    assert len(err.splitlines()) == 1


def test_json_input_accepts_decimal_strings(capsys, tmp_path):
    # the coefficient form `reduce` prints, also taken for instance values
    path = write_instance(tmp_path, n="1", C=26, a=[7, "9", 10])
    code, out, _ = run(capsys, "reduce", path, "--with-partition", '[[1, "2", 3]]')
    assert code == 0
    assert json.loads(out)["tree"].count("(") == 106


# A number is ASCII digits after an optional "-". `int` also reads "1_0",
# " 5", "+5" and non-ASCII digits; each of those exits 2.


@pytest.mark.parametrize(
    "polynomial", ['[[1, "1_0"]]', '[[1, " 5"]]', '[[1, "+5"]]', '[[1, "\u0665"]]', '[["\u0661", 5]]']
)
def test_invert_pairs_take_only_ascii_decimal_strings(capsys, polynomial):
    code, out, err = run(capsys, "invert", polynomial, "--height2")
    assert (code, out) == (2, "")
    assert err.startswith("avpoly: error: bad polynomial: expected an integer, got ")


@pytest.mark.parametrize("polynomial", ["\u0663*q^\u0662 + \u0663*q^\u0663", "\u0663*q", "q + \u0665"])
def test_invert_text_takes_only_ascii_digits(capsys, polynomial):
    code, out, err = run(capsys, "invert", polynomial, "--height2")
    assert (code, out) == (2, "")
    assert err.startswith("avpoly: error: bad polynomial: cannot parse polynomial term ")


def test_invert_negative_decimal_string_reaches_the_coefficient_check(capsys):
    code, out, err = run(capsys, "invert", '[[1, "-5"]]', "--height2")
    assert (code, out) == (2, "")
    assert err == "avpoly: error: bad polynomial: polynomial must have nonnegative coefficients\n"


@pytest.mark.parametrize("value", ["1_0", " 10", "+10", "\u0661\u0660"])
def test_reduce_instance_takes_only_ascii_decimal_strings(capsys, tmp_path, value):
    path = write_instance(tmp_path, n=1, C=26, a=[7, 9, value])
    code, out, err = run(capsys, "reduce", path)
    assert (code, out) == (2, "")
    assert err.startswith("avpoly: error: bad instance file: expected an integer, got ")


@pytest.mark.parametrize("index", ["\u0663", "0_3", " 3", "+3"])
def test_reduce_partition_takes_only_ascii_decimal_strings(capsys, tmp_path, index):
    path = write_instance(tmp_path, n=1, C=26, a=[7, 9, 10])
    code, out, err = run(capsys, "reduce", path, "--with-partition", json.dumps([[1, 2, index]]))
    assert (code, out) == (2, "")
    assert err.startswith("avpoly: error: bad partition: expected an integer, got ")


# ---------------------------------------------------------------------------
#  checkfe
# ---------------------------------------------------------------------------


def test_checkfe_small_orders(capsys):
    assert run(capsys, "checkfe", "--order", "1")[0] == 0
    code, out, _ = run(capsys, "checkfe", "--order", "20")
    assert code == 0
    assert "order 20" in out


def test_checkfe_rejects_bad_order(capsys):
    assert run(capsys, "checkfe", "--order", "0")[0] == 2


# ---------------------------------------------------------------------------
#  package exports
# ---------------------------------------------------------------------------

# each module's public names, which `avpoly` re-exports
EXPORTED = {
    "polyalg": "Poly Series catalan",
    "tree": "PlaneTree LabeledTree TreeParseError parse_tree avalanche_poly enumerate_trees",
    "distribution": (
        "MomentReport CurvePoint EnumerationCapExceeded DEFAULT_ENUM_CAP "
        "distribution_by_enumeration distribution_by_recurrence distribution_by_closed_form "
        "recurrence_polys first_moment_total mean_exact variance_exact "
        "moment_report functional_equation_mismatch normalized_curve"
    ),
    "inverse": (
        "ThreePartitionInstance InverseResult InstanceValidationError PartitionError ExtractionError "
        "DEFAULT_BUDGET validate_instance solve_height2 solve_general scaled_reduction_poly "
        "reduction_poly build_reduction_tree extract_partition"
    ),
}


def test_package_exports_each_module_public_names():
    modules = [getattr(avpoly, name) for name in EXPORTED]
    assert avpoly.__all__ == [name for module in modules for name in module.__all__]
    for module, names in zip(modules, EXPORTED.values()):
        for name in names.split():
            assert getattr(avpoly, name) is getattr(module, name), name


def test_every_name_the_benchmark_tracer_wraps_resolves(monkeypatch):
    # perfbench/tracer.py wraps these by name, and a missing one fails
    # every traced run; the dicts are only read, nothing is wrapped
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    import tracer

    for mod, cls, attr in [*tracer.METHODS, *tracer.COUNTED]:
        module = getattr(avpoly, mod)
        if cls is None:
            assert callable(getattr(module, attr)), (mod, attr)
        else:
            # the tracer reads the attribute from the class's own namespace
            assert callable(vars(getattr(module, cls)).get(attr)), (mod, cls, attr)


# ---------------------------------------------------------------------------
#  start-up
# ---------------------------------------------------------------------------


def test_startup_leaves_out_unneeded_modules(capsys, tmp_path):
    # every CLI run pays for what `import avpoly.cli` loads; -S keeps .pth
    # files in site-packages from loading these modules first
    target = tmp_path / "dist3.json"
    script = (
        "import avpoly.cli, sys\n"
        "print(sorted({'dataclasses', 'inspect', 'typing', 'tempfile'} & set(sys.modules)))\n"
        f"sys.exit(avpoly.cli.main(['dist', '--n', '3', '--out', {str(target)!r}]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(avpoly.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
    # --out imports tempfile on demand and still writes the file
    assert target.read_text() == run(capsys, "dist", "--n", "3")[1]


# ---------------------------------------------------------------------------
#  closed stdout
# ---------------------------------------------------------------------------


def test_closed_stdout_exits_3_without_a_traceback():
    # the output (about 320 kB) outgrows the pipe buffer, so the write
    # after the reader closes fails whatever the timing
    env = dict(os.environ, PYTHONPATH=str(Path(avpoly.__file__).resolve().parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "avpoly", "curve", "--n", "150"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b"x,y\n0.0066"
    proc.stdout.close()
    err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 3
    assert "Traceback" not in err and "Exception ignored" not in err
    assert len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
#  argv fuzz
# ---------------------------------------------------------------------------

# Sizes are either small or far above every cap, so each run is quick.
NUMBERS = st.sampled_from(
    ["-1", "0", "1", "2", "3", "5", "9", "2147483647", "2147483648", "10" * 12, "1e3", "x"]
)
POLYS = st.sampled_from(
    ["q", "3*q", "q^2 + q^3", "2*q + q^2", "q^0", "-q", "q^", "[[1, 2]]", "[[1]]",
     "[", "5000*q", "q^3 + q^4 + 4*q^5 + q^6", "2*q^5 + 4*q^6 + 2*q^7 + 2*q^8"]
)


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def _argv(command, *parts):
    return st.tuples(*parts).map(lambda ps: [command] + [a for p in ps for a in p])


@pytest.fixture(scope="module")
def instance_files(tmp_path_factory):
    """A missing path and files holding a valid instance, an invalid one
    and malformed JSON; module-scoped, as hypothesis reruns the test."""
    root = tmp_path_factory.mktemp("fuzz")
    texts = ['{"n": 1, "C": 26, "a": [7, 9, 10]}', '{"n": 1, "C": 26, "a": [7, 9, 11]}',
             '{"n": 2, "C": 12, "a": [4, 4, 4, 4, 4, 4]}', "[", "{}"]
    paths = [str(root / "missing.json")]
    for k, text in enumerate(texts):
        path = root / f"inst{k}.json"
        path.write_text(text)
        paths.append(str(path))
    return paths


def argvs(paths):
    n = NUMBERS.map(lambda v: ["--n", v])
    fmt = _flag("--format", st.sampled_from(["json", "text", "csv"]))
    return st.one_of(
        _argv("label", st.text("()x", max_size=8).map(lambda t: [t])),
        _argv("dist", n, _flag("--method", st.sampled_from(["enum", "rec", "closed", "x"])), fmt),
        _argv("moments", n, fmt),
        _argv("curve", n, _flag("--precision", NUMBERS)),
        _argv("invert", POLYS.map(lambda p: [p]),
              st.sampled_from([["--general"], ["--height2"], [], ["--general", "--height2"]]),
              _flag("--budget", NUMBERS)),
        _argv("reduce", st.sampled_from(paths).map(lambda p: [p]), _flag("--lambda", NUMBERS),
              _flag("--with-partition", st.sampled_from(["[[1, 2, 3]]", "[[1, 2]]", "[[1, 3, 5], [2, 4, 6]]", "x"])),
              fmt),
        _argv("checkfe", _flag("--order", NUMBERS)),
        st.lists(st.sampled_from(["", "x", "--n", "1", "-h"]), max_size=3),
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_argv_ends_in_a_documented_exit_code(instance_files, data):
    argv = data.draw(argvs(instance_files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv, or prints help
            code = exc.code
    assert code in range(5), (argv, code, err.getvalue())
