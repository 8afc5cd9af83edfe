"""CLI surface: outputs, exit codes, round-trips, determinism."""

import contextlib
import gc
import hashlib
import io
import json
import marshal
import os
import random
import stat
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import avpoly
from avpoly import distribution as dist
from avpoly import inverse as inv
from avpoly import cli
from avpoly.cli import MOMENTS_CAP, RECURRENCE_CAP, TREE_CAP, build_parser, main
from avpoly.tree import avalanche_poly, parse_tree
from oracles import dyck_words, preorder_labels

FIG1 = "((((()))())((())(())(())())((())()()()))"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextlib.contextmanager
def limit_digits_to_640():
    """The int-to-str limit lowered to 640 digits, so that short inputs
    reach it; the previous limit is restored afterwards."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


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
    """The three lines `label` prints, from `preorder_labels`' scan of the
    encoding alone: each "(" followed by its vertex's label, the labels,
    and the polynomial counting the labels below the root."""
    labels = preorder_labels(encoding)
    opened = iter(labels)
    annotated = [f"({next(opened)}" if ch == "(" else ")" for ch in encoding]
    counts = Counter(labels[1:])
    terms = [f"q^{e}" if counts[e] == 1 else f"{counts[e]}*q^{e}" for e in sorted(counts)]
    return "\n".join(["".join(annotated), "labels: " + ",".join(map(str, labels)), "polynomial: " + (" + ".join(terms) or "0")]) + "\n"


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


def test_label_output_matches_an_independent_scan_of_the_encoding(capsys):
    rng = random.Random("label-oracle")
    encodings = ["(" + w + ")" for e in range(8) for w in dyck_words(e)]
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


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "--n", "7"],
        ["dist", "--n", "0", "--method", "enum"],
        ["dist", "--n", "9", "--method", "closed"],
        ["moments", "--n", "7"],
        ["moments", "--n", str(MOMENTS_CAP)],
        ["reduce", "INSTANCE"],
        ["reduce", "INSTANCE", "--with-partition", "[[1, 2, 3]]"],
    ],
    ids=" ".join,
)
def test_json_records_are_what_json_dumps_writes(capsys, tmp_path, argv):
    # the CLI writes its records without the json module
    path = write_instance(tmp_path, n=1, C=26, a=[7, 9, 10])
    code, out, _ = run(capsys, *[path if a == "INSTANCE" else a for a in argv])
    assert code == 0
    assert out == json.dumps(json.loads(out)) + "\n"


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
    catalan = avpoly.polyalg.catalan

    def guarded(k):
        if k > cli.ENUM_CAP:
            raise AssertionError(f"catalan({k}) computed above the enumeration cap")
        return catalan(k)

    monkeypatch.setattr(avpoly.polyalg, "catalan", guarded)
    code, out, err = run(capsys, "dist", "--n", "200000", "--method", "enum")
    assert (code, out) == (2, "")
    assert "exceeds the enumeration cap 13" in err


def test_dist_every_method_prints_the_zero_polynomial_at_n0(capsys):
    # the closed form's sum over sequences p_1 < ... <= 0 is empty, so all
    # three routes agree at size 0
    for method, name in [("enum", "enumeration"), ("rec", "recurrence"), ("closed", "closed")]:
        expected = f"A_0 ({name}) = 0\n"
        assert run(capsys, "dist", "--n", "0", "--method", method, "--format", "text") == (0, expected, "")


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


@pytest.mark.parametrize("n", [1, 3, 10, 60, MOMENTS_CAP])
def test_moments_text_lists_the_json_record(capsys, n):
    # the text form is the record's fields, one "name = value" line each,
    # a float printed as the JSON prints it
    code, out, err = run(capsys, "moments", "--n", str(n))
    assert (code, err) == (0, "")
    lines = "".join([f"{name} = {value}\n" for name, value in json.loads(out).items()])
    assert run(capsys, "moments", "--n", str(n), "--format", "text") == (0, lines, "")


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
    with limit_digits_to_640():
        code, out, err = run(capsys, "moments", "--n", "1000", "--format", fmt)
        small = run(capsys, "moments", "--n", "100", "--format", fmt)
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


@pytest.mark.parametrize(
    "argv",
    [["dist", "--n", "5"], ["moments", "--n", "5"], ["curve", "--n", "5"],
     ["reduce", "INSTANCE", "--with-partition", "[[1,2,3]]"]],
    ids=lambda argv: argv[0],
)
def test_curve_file_output(capsys, tmp_path, argv):
    # --out PATH writes the bytes stdout would get
    instance = write_instance(tmp_path, n=1, C=26, a=[7, 9, 10])
    argv = [instance if a == "INSTANCE" else a for a in argv]
    code, expected, _ = run(capsys, *argv)
    assert code == 0
    target = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == expected.encode()


@pytest.mark.skipif(os.name != "posix", reason="POSIX devices")
def test_out_to_dev_null_leaves_a_device(capsys):
    assert run(capsys, "curve", "--n", "5", "--out", os.devnull) == (0, "", "")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
def test_out_file_gets_the_mode_a_shell_redirect_would(capsys, tmp_path):
    # as for `>`: an existing file keeps its mode, a new one gets 0o666 less the umask
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


CURVE_2 = "x,y\n0.5,1.0\n1.0,0.5\n1.5,0.5\n"


@pytest.mark.skipif(os.name != "posix", reason="POSIX hard links")
def test_out_through_a_hard_link_updates_both_names(capsys, tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    first.write_text("old\n")
    os.link(first, second)
    assert run(capsys, "curve", "--n", "2", "--out", str(second))[0] == 0
    assert first.read_text() == second.read_text() == CURVE_2
    assert second.stat().st_nlink == 2


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="POSIX FIFOs")
def test_out_to_a_fifo_feeds_its_reader(capsys, tmp_path):
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    # a reader opened first, without blocking, lets --out open the FIFO at
    # once; the output is far smaller than the pipe buffer
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run(capsys, "curve", "--n", "2", "--out", str(fifo))[0] == 0
        received = os.read(reader, 4096)
    finally:
        os.close(reader)
    assert received.decode() == CURVE_2
    assert stat.S_ISFIFO(fifo.stat().st_mode)


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() != 0, reason="chown needs root")
def test_out_keeps_the_owner_and_mode_of_an_existing_file(capsys, tmp_path):
    target = tmp_path / "owned.csv"
    target.write_text("old\n")
    os.chown(target, 1234, 1234)
    target.chmod(0o604)
    assert run(capsys, "curve", "--n", "2", "--out", str(target))[0] == 0
    info = target.stat()
    assert (info.st_uid, info.st_gid, info.st_mode & 0o7777) == (1234, 1234, 0o604)
    assert target.read_text() == CURVE_2


@pytest.mark.skipif(os.name != "posix", reason="POSIX file size limit")
def test_out_failing_part_way_leaves_the_file_truncated(capsys, tmp_path):
    # as `> PATH` would: the file is truncated when opened, so a write cut
    # short by the file size limit leaves only what was written
    import resource

    target = tmp_path / "curve.csv"
    target.write_text("old\n")
    env = dict(os.environ, PYTHONPATH=str(Path(avpoly.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "avpoly", "curve", "--n", "30", "--out", str(target)],
        env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (100, 100)),
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith(f"avpoly: error: cannot write {target}: ")
    assert target.read_text() == run(capsys, "curve", "--n", "30")[1][:100]


def test_out_failure_names_the_path_given(capsys, tmp_path):
    target = str(tmp_path / "nodir" / "curve.csv")
    code, out, err = run(capsys, "curve", "--n", "2", "--out", target)
    assert (code, out) == (3, "")
    assert err.startswith(f"avpoly: error: cannot write {target}: ")
    assert repr(target) in err and ".avpoly-" not in err
    assert len(err.splitlines()) == 1


def test_curve_precision_flag(capsys):
    code, out, _ = run(capsys, "curve", "--n", "3", "--precision", "3")
    assert code == 0
    assert out.splitlines()[1] == "0.333,1.0"


def test_curve_precision_cap(capsys):
    # no double has more than MAX_DOUBLE_DIGITS significant digits, so any
    # larger precision, also one beyond a C int, prints that many
    for precision in (2**31 - 1, 2**31, 10**20):
        code, out, err = run(capsys, "curve", "--n", "3", "--precision", str(precision))
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == f"{1 / 3:.{dist.MAX_DOUBLE_DIGITS}g},1.0"


def test_curve_precision_cap_under_a_1gib_address_space():
    # the precision is clamped before formatting: unclamped, 2**31 - 1
    # takes a 2 GiB buffer, a MemoryError (exit 1) under this limit
    resource = pytest.importorskip("resource")

    # a hard limit cannot be raised, so keep an inherited one below 1 GiB
    cap = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = 2**30 if cap == resource.RLIM_INFINITY else min(2**30, cap)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    argv = [sys.executable, "-m", "avpoly", "curve", "--n", "3", "--precision", str(10**20)]
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
    # TREE_CAP non-root vertices plus the root: one over the cap
    code, out, err = run(capsys, "invert", f"{TREE_CAP}*q", "--height2")
    assert code == 2
    assert out == ""
    assert "cap" in err
    assert len(err.splitlines()) == 1
    assert calls == []
    code, out, _ = run(capsys, "invert", f"{TREE_CAP - 2}*q + q^2", "--height2")
    assert (code, out) == (1, "NO\n")
    assert len(calls) == 1


def test_invert_general_vertex_cap(capsys, monkeypatch):
    calls = []

    def stub(poly, budget):
        calls.append(poly)
        return inv.InverseResult("no_tree")

    monkeypatch.setattr(inv, "solve_general", stub)
    code, out, err = run(capsys, "invert", f"{TREE_CAP}*q", "--general")
    assert (code, out) == (2, "")
    assert err == f"avpoly: error: a tree of {TREE_CAP + 1} vertices exceeds the tree cap {TREE_CAP}\n"
    assert calls == []
    code, out, _ = run(capsys, "invert", f"{TREE_CAP - 2}*q + q^2", "--general")
    assert (code, out) == (1, "NO\n")
    assert len(calls) == 1


def test_invert_general_refuses_a_star_too_large_to_index(capsys):
    # building this star's encoding raised OverflowError, a traceback
    star = "99999999999999999999*q"
    code, out, err = run(capsys, "invert", star, "--general", "--budget", str(10**20))
    assert (code, out) == (2, "")
    assert err == f"avpoly: error: a tree of {10**20} vertices exceeds the tree cap 5000000\n"


def test_invert_general_refuses_a_star_too_large_for_memory():
    # under a 1,500,000 KB address space, building the encoding of this
    # star of 4*10^8 leaves raised MemoryError; the cap refuses it first
    resource = pytest.importorskip("resource")

    cap = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = 1_500_000 * 1024 if cap == resource.RLIM_INFINITY else min(1_500_000 * 1024, cap)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    argv = [sys.executable, "-m", "avpoly", "invert", "400000000*q", "--general", "--budget", "1000000000"]
    env = dict(os.environ, PYTHONPATH=str(Path(avpoly.__file__).resolve().parent.parent))
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, preexec_fn=limit)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "avpoly: error: a tree of 400000001 vertices exceeds the tree cap 5000000\n"


def test_invert_accepts_json_pairs(capsys):
    code, out, _ = run(capsys, "invert", '[[3, "1"], [4, "2"]]', "--height2")
    assert code == 0
    assert out.strip() == "((()()))"


def test_invert_bad_polynomial(capsys):
    code, _, err = run(capsys, "invert", "q^^3", "--height2")
    assert code == 2
    assert "polynomial" in err


def test_invert_rejects_an_empty_term(capsys):
    assert run(capsys, "invert", "q + ", "--general") == (
        2, "", "avpoly: error: bad polynomial: empty term in polynomial 'q +'\n"
    )


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
    # only --general reads the budget; --height2 accepts it and ignores it
    assert run(capsys, "invert", "2*q", "--height2", "--budget", "5") == (0, "(()())\n", "")


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


def _benchmark_general_jobs(monkeypatch):
    """The perfbench directory and every `invert --general` job the
    benchmark can run, in `workloads.universe` order."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    import workloads

    return bench, [job for job in workloads.universe("inverse") if "--general" in job.args]


def test_invert_general_matches_the_benchmark_golden_outputs(capsys, monkeypatch):
    # every `invert --general` job the benchmark can run, against the exit
    # code and stdout hash it recorded in perfbench/golden.json
    bench, jobs = _benchmark_general_jobs(monkeypatch)
    golden = json.loads((bench / "golden.json").read_text())["jobs"]
    assert len(jobs) == 52
    for job in jobs:
        code, out, _ = run(capsys, *job.args)
        expected = golden[job.key]
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
            expected["exit"], expected["stdout_sha256"]
        ), job.describe()


# (status, attempts) of each of those jobs, in the same order: the work the
# search does, which the golden stdout hashes do not show; 42 found, 6
# no_tree, 4 budget_exhausted and 4,645,989 attempts in all
GENERAL_JOB_WORK = (
    [("found", a) for a in (
        1496, 619, 1496, 1944, 1000, 996, 385, 1201, 34727, 10253, 10253, 10253,
        208226, 199115, 208226, 194718, 15899, 27191, 27191, 15899, 38336, 38336,
        38336, 38336, 70631, 77780, 11086, 48053, 48053, 48053, 9035, 1976, 3259,
        2519, 34005, 8335, 32416, 4612, 270224, 303160, 278987, 295635,
    )]
    + [("no_tree", a) for a in (5065, 3467, 4093, 1971, 633511, 525631)]
    + [("budget_exhausted", 200_000)] * 4
)


def test_invert_general_pins_the_work_of_the_benchmark_jobs(monkeypatch):
    _, jobs = _benchmark_general_jobs(monkeypatch)
    parser = build_parser()
    work = []
    for job in jobs:
        args = parser.parse_args(job.args)
        budget = inv.DEFAULT_BUDGET if args.budget is None else args.budget
        result = inv.solve_general(cli._parse_poly_arg(args.polynomial), budget=budget)
        work.append((result.status, result.attempts))
    assert work == GENERAL_JOB_WORK


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


@pytest.mark.parametrize(
    "instance, partition, message",
    [
        ({"n": 1, "C": 26, "a": [7, 9, 10]}, "[[1,2,4]]", "index 4 out of range 1..3"),
        ({"n": 2, "C": 12, "a": [4, 4, 4, 4, 4, 4]}, "[[1,2,3]]", "partition does not cover all 3n indices"),
    ],
    ids=["index_out_of_range", "partial_cover"],
)
def test_reduce_names_what_is_wrong_with_a_partition(capsys, tmp_path, instance, partition, message):
    path = write_instance(tmp_path, **instance)
    assert run(capsys, "reduce", path, "--with-partition", partition) == (2, "", f"avpoly: error: {message}\n")


def test_reduce_validation_failure(capsys, tmp_path):
    path = write_instance(tmp_path, n=1, C=26, a=[13, 3, 10])
    code, _, err = run(capsys, "reduce", path)
    assert code == 2
    assert "C/4" in err


def test_reduce_missing_file_exits_3(capsys, tmp_path):
    path = str(tmp_path / "absent.json")
    message = f"cannot read {path}: [Errno 2] No such file or directory: {path!r}"
    assert run(capsys, "reduce", path) == (3, "", f"avpoly: error: {message}\n")


# files the input-error rows below read, by name, from the working directory
INPUT_FILES = {
    "list.json": "[]",
    "a-text.json": '{"n": 1, "C": 26, "a": "x"}',
    "one.json": '{"n": 1, "C": 26, "a": [7, 9, 10]}',
    "two.json": '{"n": 2, "C": 26, "a": [7, 9, 10, 7, 9, 10]}',
}

# an argv and the one error line it prints, each with exit 2
INPUT_ERRORS = [
    (["invert", "[" * 100_000, "--general"], "bad polynomial: JSON nested too deeply"),
    (["reduce", "list.json"], "bad instance file: expected a JSON object with n, C, a and optional lambda"),
    (["reduce", "a-text.json"], "bad instance file: a must be a list of integers, got 'x'"),
    (["reduce", "one.json", "--with-partition", "{}"], "bad partition: expected a list of index lists, got '{}'"),
    (["reduce", "two.json", "--with-partition", "[[1,1,2]]"], "index 1 used twice"),
    (["reduce", "two.json", "--with-partition", "[[1,2,4],[3,5,6]]"], "group [1, 2, 4] sums to 23, expected C = 26"),
]


@pytest.mark.parametrize(
    "argv, message", INPUT_ERRORS, ids=[" ".join(a)[:40] for a, _ in INPUT_ERRORS]
)
def test_each_input_error_prints_its_line_and_exits_2(capsys, tmp_path, monkeypatch, argv, message):
    for name, text in INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (2, "", f"avpoly: error: {message}\n")


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
    big = (TREE_CAP - 2) // 2
    assert 2 + 2 * big == TREE_CAP
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


# An instance is checked when it is made: each invalid one exits 2 with
# the message it had when `reduce` checked it after loading, whatever the
# options; --lambda 0 names lambda only when all else holds (see the valid
# instance of the next test). The messages are pinned as they were.
INVALID_INSTANCES = {
    "n": ({"n": 0, "C": 26, "a": []}, "n must be >= 1"),
    "negative n": ({"n": -1, "C": 26, "a": [7, 9, 10]}, "n must be >= 1"),
    "length": ({"n": 1, "C": 26, "a": [13, 13]}, "a must contain exactly 3n = 3 values, got 2"),
    "lower bound": ({"n": 1, "C": 26, "a": [6, 10, 10]}, "a[0] = 6 violates C/4 < a_i < C/2 for C = 26"),
    "upper bound": ({"n": 1, "C": 26, "a": [7, 13, 6]}, "a[1] = 13 violates C/4 < a_i < C/2 for C = 26"),
    "sum": ({"n": 1, "C": 26, "a": [7, 9, 11]}, "sum(a) = 27 must equal n*C = 26"),
    "lambda": ({"n": 1, "C": 26, "a": [7, 9, 10], "lambda": 0}, "lambda must be >= 1"),
}


@pytest.mark.parametrize(
    "options",
    [[], ["--lambda", "0"], ["--with-partition", "[[1, 2, 3]]"], ["--lambda", "0", "--with-partition", "[[1, 2]]"]],
)
@pytest.mark.parametrize("case", INVALID_INSTANCES)
def test_reduce_names_the_first_broken_constraint(capsys, tmp_path, case, options):
    fields, message = INVALID_INSTANCES[case]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(fields))
    assert run(capsys, "reduce", str(path), *options) == (2, "", f"avpoly: error: {message}\n")


def test_reduce_lambda_option_zero_on_a_valid_instance(capsys, tmp_path):
    path = write_instance(tmp_path, n=1, C=26, a=[7, 9, 10])
    for options in [[], ["--with-partition", "[[1, 2, 3]]"], ["--with-partition", "[1]"]]:
        result = run(capsys, "reduce", path, "--lambda", "0", *options)
        assert result == (2, "", "avpoly: error: lambda must be >= 1\n")


@pytest.fixture
def digits_640():
    with limit_digits_to_640():
        yield


def unprintable_instance(tmp_path):
    """A valid instance whose reduction polynomial has coefficients of
    about 700 digits, more than the 640 `digits_640` allows."""
    C = 4 * 10**400 + 12
    x = C // 3
    fields = {"n": 1, "C": str(C), "a": [str(x), str(x), str(C - 2 * x)], "lambda": str(10**300)}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(fields))
    return str(path)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_reduce_reports_a_polynomial_too_long_to_print(capsys, tmp_path, digits_640, fmt):
    code, out, err = run(capsys, "reduce", unprintable_instance(tmp_path), "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("avpoly: error: cannot print the reduction polynomial: ")
    assert err.count("\n") == 1


def test_reduce_invalid_instance_too_long_to_print_is_a_bad_instance_file(capsys, tmp_path, digits_640):
    # n*C has 641 digits, so the sum constraint's message cannot be made;
    # the error is raised while the file is loaded, with or without a partition
    C = 4 * 10**639 + 12
    x = C // 3
    a = [x, x, C - 2 * x] * 2 + [x, x, C - 2 * x + 1]
    path = write_instance(tmp_path, n=3, C=str(C), a=[str(v) for v in a])
    for options in [[], ["--with-partition", "[[1, 2, 3], [4, 5, 6], [7, 8, 9]]"]]:
        code, out, err = run(capsys, "reduce", path, *options)
        assert (code, out) == (2, "")
        assert err.startswith("avpoly: error: bad instance file: Exceeds the limit (640 digits)")
        assert err.count("\n") == 1


TREE_CAP_UNPRINTABLE = (
    f"avpoly: error: a tree of more vertices than can be printed exceeds the tree cap {TREE_CAP}\n"
)


@pytest.mark.parametrize("mode", ["--height2", "--general"])
@pytest.mark.parametrize(
    "polynomial",
    [json.dumps([[e, "9" * 640] for e in range(1, 11)]), " + ".join(f"{'9' * 640}*q^{e}" for e in range(1, 11))],
    ids=["pairs", "text"],
)
def test_tree_cap_message_without_a_count_too_long_to_print(capsys, digits_640, polynomial, mode):
    assert run(capsys, "invert", polynomial, mode) == (2, "", TREE_CAP_UNPRINTABLE)


def test_reduce_tree_cap_message_without_a_count_too_long_to_print(capsys, tmp_path, digits_640):
    path = unprintable_instance(tmp_path)
    assert run(capsys, "reduce", path, "--with-partition", "[[1, 2, 3]]") == (2, "", TREE_CAP_UNPRINTABLE)


def test_tree_cap_message_keeps_a_printable_count(capsys, digits_640):
    vertices = 1 + 10 * int("9" * 639)
    code, out, err = run(capsys, "invert", json.dumps([[e, "9" * 639] for e in range(1, 11)]), "--general")
    assert (code, out) == (2, "")
    assert err == f"avpoly: error: a tree of {vertices} vertices exceeds the tree cap {TREE_CAP}\n"


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


# A space may stand around "+", "*", "^" and "q", never inside a number:
# "1 0*q" was read as 10*q and exited 0.


@pytest.mark.parametrize(
    "polynomial, term",
    [("1 0*q", "1 0*q"), ("q^1 0", "q^1 0"), ("1 0", "1 0"), ("q + 2  5*q^2", "2  5*q^2"),
     ("3*q^2 0 + q", "3*q^2 0")],
)
def test_invert_text_rejects_a_space_inside_a_number(capsys, polynomial, term):
    code, out, err = run(capsys, "invert", polynomial, "--height2")
    assert (code, out) == (2, "")
    assert err == f"avpoly: error: bad polynomial: cannot parse polynomial term {term!r}\n"


def test_invert_text_still_takes_spaces_around_operators(capsys):
    for polynomial in ["2 * q ^ 3 + 4*q^4", "2 q^3 + 4 q ^4", "2q^3+4q^4", "\t2*q^3 + 4*q^4\t"]:
        assert run(capsys, "invert", polynomial, "--height2") == (0, "((()())(()()))\n", "")


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


# Integer options take the same rule; each argv below exited 0 before.
# argparse names the option and the value.
@pytest.mark.parametrize(
    "argv, option",
    [
        (["dist", "--n", "\u0663", "--format", "text"], "--n"),
        (["moments", "--n", " 1_0"], "--n"),
        (["curve", "--n", "+3"], "--n"),
        (["curve", "--n", "3", "--precision", "1_2"], "--precision"),
        (["invert", "q^2 + q^3", "--general", "--budget", "1_000"], "--budget"),
        (["reduce", "INSTANCE", "--lambda", " 1"], "--lambda"),
        (["checkfe", "--order", "\u0665"], "--order"),
    ],
)
def test_integer_options_take_only_ascii_digits(capsys, tmp_path, argv, option):
    instance = write_instance(tmp_path, n=1, C=26, a=[7, 9, 10])
    argv = [instance if a == "INSTANCE" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    value = argv[argv.index(option) + 1]
    assert err.endswith(f" error: argument {option}: invalid int value: {value!r}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dist", "--n", "-1"], "--n must be >= 0"),
        (["moments", "--n", "-1"], "--n must be >= 1"),
        (["curve", "--n", "-1"], "--n must be >= 1"),
        (["curve", "--n", "3", "--precision", "-1"], "--precision must be >= 1"),
        (["invert", "q", "--height2", "--budget", "-1"], "--budget must be >= 0"),
        (["checkfe", "--order", "-1"], "--order must be >= 1"),
    ],
)
def test_negative_integer_options_reach_each_command_range_check(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"avpoly: error: {message}\n")


# every bound and cap an integer option has, and the cap of each `dist`
# method; the option the message names holds the value out of range
RANGE_ERRORS = [
    (["dist", "--n", "-1"], "--n must be >= 0"),
    (["dist", "--n", "14", "--method", "enum"], "--n exceeds the enumeration cap 13"),
    (["dist", "--n", "201"], "--n exceeds the recurrence cap 200"),
    (["dist", "--method", "closed", "--n", "201"], "--n exceeds the closed cap 200"),
    (["moments", "--n", "0", "--format", "text"], "--n must be >= 1"),
    (["moments", "--n", "3576"], "--n exceeds the moments cap 3575"),
    (["curve", "--n", "0"], "--n must be >= 1"),
    (["curve", "--n", "201", "--precision", "3"], "--n exceeds the recurrence cap 200"),
    (["curve", "--n", "3", "--precision", "0"], "--precision must be >= 1"),
    (["invert", "q", "--general", "--budget", "-1"], "--budget must be >= 0"),
    (["checkfe", "--order", "0"], "--order must be >= 1"),
    (["checkfe", "--order", "201"], "--order exceeds the recurrence cap 200"),
]


@pytest.mark.parametrize("argv, message", RANGE_ERRORS, ids=[" ".join(a) for a, _ in RANGE_ERRORS])
def test_each_range_error_is_the_same_through_both_readers(capsys, monkeypatch, argv, message):
    option = message.split()[0]
    i = argv.index(option)
    joined = argv[:i] + [f"{option}={argv[i + 1]}"] + argv[i + 2 :]
    assert cli._read_plain(joined) is None  # argparse reads "--n=3576"
    assert (cli._read_plain(argv) is None) == argv[i + 1].startswith("-")
    if argv[0] != "dist":  # `dist` alone checks its cap, which depends on --method
        # the range is checked before the command runs
        monkeypatch.setattr(cli, "cmd_" + argv[0], lambda args: pytest.fail("command ran"))
    for form in (argv, joined):
        assert run(capsys, *form) == (2, "", f"avpoly: error: {message}\n"), form


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


def test_checkfe_exits_1_at_the_first_order_that_fails(capsys, monkeypatch):
    # one more unit at [q^1] A_5 in the table the check reads
    real = dist._recurrence_rows

    def corrupted(n):
        width, rows = real(n)
        rows = list(rows)
        rows[5] += 1 << (8 * width * 7)  # D_5 holds A_5[1] in field 7
        return width, rows

    monkeypatch.setattr(dist, "_recurrence_rows", corrupted)
    assert run(capsys, "checkfe", "--order", "16") == (1, "functional equation fails at order 5\n", "")


# ---------------------------------------------------------------------------
#  help
# ---------------------------------------------------------------------------

# `avpoly --help` and `avpoly <command> --help` at 80 columns, the same on
# Python 3.11-3.13
HELP = {
    (): """\
usage: avpoly [-h] {label,dist,moments,curve,invert,reduce,checkfe} ...

Avalanche polynomials of rooted plane trees.

positional arguments:
  {label,dist,moments,curve,invert,reduce,checkfe}
    label               label a tree encoding
    dist                distribution polynomial for size n
    moments             exact moments and asymptotic ratios
    curve               renormalized distribution as CSV
    invert              find trees with a given polynomial
    reduce              reduction polynomial of an instance file
    checkfe             check the series identity to an order

options:
  -h, --help            show this help message and exit
""",
    ("label",): """\
usage: avpoly label [-h] encoding

positional arguments:
  encoding    parenthesis encoding, e.g. '((()))'

options:
  -h, --help  show this help message and exit
""",
    ("dist",): """\
usage: avpoly dist [-h] --n N [--method {enum,rec,closed}]
                   [--format {json,text}] [--out PATH]

options:
  -h, --help            show this help message and exit
  --n N
  --method {enum,rec,closed}
  --format {json,text}
  --out PATH
""",
    ("moments",): """\
usage: avpoly moments [-h] --n N [--format {json,text}] [--out PATH]

options:
  -h, --help            show this help message and exit
  --n N
  --format {json,text}
  --out PATH
""",
    ("curve",): """\
usage: avpoly curve [-h] --n N [--precision PRECISION] [--out PATH]

options:
  -h, --help            show this help message and exit
  --n N
  --precision PRECISION
  --out PATH
""",
    ("invert",): """\
usage: avpoly invert [-h] (--height2 | --general) [--budget BUDGET] polynomial

positional arguments:
  polynomial       text form like 'q^3 + 2*q^4' or JSON pairs

options:
  -h, --help       show this help message and exit
  --height2
  --general
  --budget BUDGET
""",
    ("reduce",): """\
usage: avpoly reduce [-h] [--lambda LAM] [--with-partition JSON]
                     [--format {json,text}] [--out PATH]
                     instance

positional arguments:
  instance              JSON file with n, C, a, optional lambda

options:
  -h, --help            show this help message and exit
  --lambda LAM
  --with-partition JSON
                        partition as JSON triples of 1-based indices, e.g.
                        '[[1,2,3]]'
  --format {json,text}
  --out PATH
""",
    ("checkfe",): """\
usage: avpoly checkfe [-h] --order ORDER

options:
  -h, --help     show this help message and exit
  --order ORDER
""",
}


@pytest.mark.parametrize("command", HELP, ids=lambda c: " ".join(c) or "avpoly")
def test_help_stdout_bytes(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (HELP[command], "")


# ---------------------------------------------------------------------------
#  plain argv, read without argparse
# ---------------------------------------------------------------------------

# argv that argparse must read: help, "--opt=value", abbreviations,
# repeats, values and positionals starting with "-", and every error
DECLINED = [
    [],
    ["-h"],
    ["--help"],
    ["nosuch"],
    ["dist", "--help"],
    ["dist", "-h", "--n", "3"],
    ["dist", "--n=3"],
    ["dist", "--nn", "3"],
    ["dist", "--n", "3", "--meth", "rec"],
    ["dist", "--n", "3", "--n", "4"],
    ["dist", "--n", "-1"],
    ["dist", "--n", "x"],
    ["dist", "--n", "1_0"],
    ["dist", "--n"],
    ["dist"],
    ["dist", "--n", "3", "--method", "x"],
    ["dist", "--n", "3", "--out", "--format"],
    ["dist", "--n", "3", "extra"],
    ["dist", "--n", "3", "--"],
    ["label"],
    ["label", "--", "(())"],
    ["label", "-1"],
    ["label", "()", "()"],
    ["invert", "q"],
    ["invert", "--general"],
    ["invert", "q", "--general", "--height2"],
    ["invert", "q", "--general", "--general"],
    ["invert", "q", "--general", "--budget", "-5"],
    ["reduce", "inst.json", "--lambda=2"],
    ["checkfe", "--order", " 5"],
]


@pytest.mark.parametrize("argv", DECLINED, ids=lambda a: " ".join(a) or "empty")
def test_the_plain_reader_leaves_these_to_argparse(argv):
    assert cli._read_plain(argv) is None


# argv the plain reader reads: every shape the benchmark runs, and other
# option orders
ACCEPTED = [
    ["dist", "--n", "72"],
    ["dist", "--n", "9", "--method", "enum", "--format", "text"],
    ["dist", "--format", "text", "--n", "16", "--method", "closed", "--out", "a.txt"],
    ["curve", "--n", "80", "--precision", "6"],
    ["moments", "--n", "1"],
    ["moments", "--n", "90", "--format", "text"],
    ["checkfe", "--order", "50"],
    ["label", "(()(()))"],
    ["label", ""],
    ["invert", "[[2, 1], [3, 1]]", "--general", "--budget", "1000"],
    ["invert", "--general", "q^2 + q^3"],
    ["invert", "[[2, 3], [3, 3]]", "--height2"],
    ["reduce", "inst.json", "--with-partition", "[[1, 2, 3]]"],
    ["reduce", "--lambda", "2", "inst.json", "--format", "text"],
]


@pytest.mark.parametrize("argv", ACCEPTED, ids=" ".join)
def test_the_plain_reader_reads_what_argparse_reads(argv):
    args = cli._read_plain(argv)
    assert args is not None
    assert vars(args) == vars(build_parser().parse_args(argv))


def test_the_plain_reader_reads_every_benchmark_job(monkeypatch):
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    import workloads

    jobs = [workloads.setup_job(), *(j for w in workloads.WORKLOADS for j in workloads.universe(w))]
    for job in jobs:
        args = cli._read_plain(list(job.args))
        assert args is not None, job.args
        assert vars(args) == vars(build_parser().parse_args(list(job.args))), job.args


@st.composite
def odd_argvs(draw, paths):
    """`argvs`, with an option given twice and with tokens inserted
    that only argparse reads."""
    argv = draw(argvs(paths))
    options = [i for i, a in enumerate(argv) if a.startswith("--")]
    if options and draw(st.booleans()):
        i = draw(st.sampled_from(options))
        argv += argv[i : i + 2]
    for token in draw(st.lists(st.sampled_from(["--n=3", "--meth", "-h", "--help", "--", "-1"]), max_size=2)):
        argv.insert(draw(st.integers(min(1, len(argv)), len(argv))), token)
    return argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_plain_reader_agrees_with_argparse(instance_files, data):
    argv = data.draw(odd_argvs(instance_files))
    args = cli._read_plain(argv)
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv))


# ---------------------------------------------------------------------------
#  package exports
# ---------------------------------------------------------------------------

# each module's public names, which `avpoly` re-exports
EXPORTED = {
    "polyalg": "Poly Series catalan",
    "tree": "PlaneTree LabeledTree TreeParseError parse_tree avalanche_poly enumerate_trees",
    "distribution": (
        "MomentReport CurvePoint "
        "distribution_by_enumeration distribution_by_recurrence distribution_by_closed_form "
        "recurrence_polys first_moment_total mean_exact variance_exact "
        "moment_report functional_equation_mismatch normalized_curve curve_csv_lines"
    ),
    "inverse": (
        "ThreePartitionInstance InverseResult InstanceValidationError PartitionError ExtractionError "
        "DEFAULT_BUDGET solve_height2 solve_general "
        "reduction_poly build_reduction_tree extract_partition"
    ),
}


def test_package_exports_each_module_public_names():
    modules = [getattr(avpoly, name) for name in EXPORTED]
    assert avpoly.__all__ == [name for module in modules for name in module.__all__]
    for module, names in zip(modules, EXPORTED.values()):
        assert module.__all__ == names.split(), module.__name__
        for name in names.split():
            assert getattr(avpoly, name) is getattr(module, name), name
    assert set(avpoly.__all__) < set(dir(avpoly))
    assert not hasattr(avpoly, "no_such_name")


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


@pytest.mark.parametrize(
    "argv, spans, counters",
    [
        (["label", "(())"], {"tree.parse_tree"}, {"tree.PlaneTree.built"}),
        (["moments", "--n", "2"], {"distribution.moment_report"}, {"polyalg.catalan.calls"}),
        (["dist", "--n", "4", "--method", "enum"], {"distribution.enumeration"},
         {"polyalg.catalan.calls", "tree.enumerate_trees.yields"}),
        (["invert", "q^2 + q^3", "--general"], {"inverse.solve_general"}, {"tree.PlaneTree.built"}),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_the_benchmark_tracer_records_the_layers_a_command_runs(tmp_path, argv, spans, counters):
    # the tracer wraps each module's functions after `import avpoly.cli`; a
    # name bound by `from ... import`, or a module executed after the
    # wrapping, would leave these spans and counters out. It is only run.
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "trace.marshal"
    env = dict(os.environ, PYTHONPATH=str(Path(avpoly.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracer.py"), str(out), "job", "--", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    record = marshal.loads(out.read_bytes())
    recorded = {record["names"][span[0]] for span in record["spans"]}
    assert spans <= recorded, recorded
    assert all(record["counters"].get(name, 0) > 0 for name in counters), record["counters"]


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
    # and --out still writes the file
    assert target.read_text() == run(capsys, "dist", "--n", "3")[1]


def _executed_modules(script: str) -> str:
    """stderr of `script` run with -S, after which one line names the
    avpoly modules executed (a module whose type is still the lazy one
    was never used) and says whether json and argparse were imported."""
    script += (
        "import types\n"
        "executed = sorted(name.removeprefix('avpoly.') for name, module in sys.modules.items()\n"
        "                  if name.startswith('avpoly.') and type(module) is types.ModuleType)\n"
        "print(executed, 'json' in sys.modules, 'argparse' in sys.modules, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(avpoly.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


def test_importing_the_package_executes_no_module():
    assert _executed_modules("import sys, avpoly\nfrom avpoly import tree\n") == "[] False False\n"


RECURRENCE_MODULES = {"cli", "distribution", "polyalg"}
INVERSE_MODULES = {"cli", "inverse", "polyalg", "tree"}


# (argv, its exit code, the package modules it executes, whether it
# imports json, and argparse); json is imported only to read JSON, argparse
# only for help and errors
EXECUTED = [
    (["label", "(())"], 0, {"cli", "polyalg", "tree"}, False, False),
    (["moments", "--n", "1"], 0, RECURRENCE_MODULES, False, False),
    (["moments", "--n", "2", "--format", "text"], 0, RECURRENCE_MODULES, False, False),
    (["curve", "--n", "3"], 0, RECURRENCE_MODULES, False, False),
    (["checkfe", "--order", "3"], 0, RECURRENCE_MODULES, False, False),
    (["dist", "--n", "3"], 0, RECURRENCE_MODULES, False, False),
    (["dist", "--n", "3", "--method", "closed", "--format", "text"], 0, RECURRENCE_MODULES, False, False),
    (["dist", "--n", "3", "--method", "enum", "--format", "text"], 0, RECURRENCE_MODULES | {"tree"}, False, False),
    (["dist", "--n", "14", "--method", "enum"], 2, {"cli", "polyalg"}, False, False),
    (["invert", "q^2 + q^3", "--general"], 0, INVERSE_MODULES, False, False),
    (["invert", "[[2, 1], [3, 1]]", "--height2"], 0, INVERSE_MODULES, True, False),
    (["reduce", "INSTANCE", "--format", "text"], 0, INVERSE_MODULES, True, False),
    (["dist", "--help"], 0, {"cli"}, False, True),
    (["dist", "--n", "x"], 2, {"cli", "polyalg"}, False, True),
]


@pytest.mark.parametrize(
    "argv, code, modules, uses_json, uses_argparse", EXECUTED, ids=[" ".join(c[0]) for c in EXECUTED]
)
def test_each_command_executes_only_the_modules_it_uses(tmp_path, argv, code, modules, uses_json, uses_argparse):
    instance = tmp_path / "inst.json"
    instance.write_text('{"n": 1, "C": 26, "a": [7, 9, 10]}')
    argv = [str(instance) if a == "INSTANCE" else a for a in argv]
    script = (
        "import sys, avpoly.cli\n"
        "try:\n"
        f"    code = avpoly.cli.main({argv!r})\n"
        "except SystemExit as exc:  # argparse printed help or an error\n"
        "    code = exc.code\n"
        f"if code != {code}: sys.exit(f'exit {{code}}')\n"
    )
    # an error line, argparse's or the command's, comes first on stderr
    last = _executed_modules(script).splitlines()[-1]
    assert last == f"{sorted(modules)} {uses_json} {uses_argparse}"


def test_importing_cli_from_the_package_executes_only_cli():
    # the import system asks the package for `cli` through hasattr first
    assert _executed_modules("import sys\nfrom avpoly import cli\n") == "['cli'] False False\n"


# ---------------------------------------------------------------------------
#  process entry
# ---------------------------------------------------------------------------


def test_run_freezes_the_heap_and_exits_with_the_code_of_main(capsys, monkeypatch):
    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(True))
    # main returns 0 and 1; argparse raises SystemExit(2)
    for argv, code in [(["moments", "--n", "1"], 0), (["invert", "q^0", "--general"], 1),
                       (["dist", "--n", "x"], 2)]:
        monkeypatch.setattr(sys, "argv", ["avpoly", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == code
        assert len(frozen) == 1
        frozen.clear()
        # main alone, as tests and the benchmark's tracer call it, collects as before
        with contextlib.suppress(SystemExit):
            main(argv)
        assert frozen == []


@pytest.mark.parametrize(
    "argv, code",
    [(["dist", "--n", "3"], 0), (["invert", "q^0", "--general"], 1),
     (["invert", "q^2+q^3", "--general"], 0), (["dist", "--n", "x"], 2), (["dist", "--help"], 0)],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_each_module_entry_matches_main(capsys, monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    expected = (code, *capsys.readouterr())
    assert (got, *expected[1:]) == expected
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(Path(avpoly.__file__).resolve().parent.parent))
    for module in ("avpoly", "avpoly.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == expected, module


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
    assert (proc.returncode, err) == (3, "avpoly: error: stdout closed before the output was written\n")


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
    # the parts (a positional, or an option and its value) in any order
    return st.tuples(*parts).flatmap(st.permutations).map(
        lambda ps: [command] + [a for p in ps for a in p]
    )


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


# Numbers of up to 700 digits, beyond the 640-digit int-to-str limit the
# hostile-input test sets; an optional "-" goes in front where one may.
DIGITS = st.one_of(
    st.integers(0, 40).map(str),
    st.integers(1, 700).map(lambda k: "9" * k),
    st.text("0123456789", min_size=1, max_size=700),
)
SIGNED = st.tuples(st.sampled_from(["", "-"]), DIGITS).map("".join)
# as a JSON int, or as the decimal string `reduce` prints
JSON_NUMBER = st.one_of(SIGNED, SIGNED.map(json.dumps))


def _poly_text():
    term = st.tuples(DIGITS, SIGNED).map(lambda ce: f"{ce[0]}*q^{ce[1]}")
    # "+" only: a leading "-" would make the argument an option to argparse
    return st.lists(st.one_of(term, DIGITS), min_size=1, max_size=4).map(" + ".join)


def _json_pairs():
    pair = st.tuples(JSON_NUMBER, JSON_NUMBER).map(lambda ec: f"[{ec[0]}, {ec[1]}]")
    return st.lists(pair, min_size=1, max_size=4).map(lambda ps: "[" + ", ".join(ps) + "]")


def _valid_instance(k: int, lam: str) -> str:
    """A valid n = 1 instance whose C has k + 1 digits."""
    C = 4 * 10**k + 12
    x = C // 3
    return f'{{"n": 1, "C": "{C}", "a": ["{x}", "{x}", "{C - 2 * x}"], "lambda": {lam}}}'


def _instance_text():
    fields = st.tuples(JSON_NUMBER, JSON_NUMBER, st.lists(JSON_NUMBER, min_size=3, max_size=6), JSON_NUMBER)
    return st.one_of(
        st.builds(_valid_instance, st.integers(1, 700), JSON_NUMBER),
        fields.map(lambda f: f'{{"n": {f[0]}, "C": {f[1]}, "a": [{", ".join(f[2])}], "lambda": {f[3]}}}'),
    )


@pytest.fixture(scope="module")
def hostile_path(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile") / "instance.json"


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hostile_numbers_end_in_a_documented_exit_code(hostile_path, data):
    hostile_path.write_text(data.draw(_instance_text()))
    argv = data.draw(st.one_of(
        st.tuples(st.one_of(_poly_text(), _json_pairs()),
                  st.sampled_from([["--height2"], ["--general", "--budget", "10000"]]))
          .map(lambda pm: ["invert", pm[0], *pm[1]]),
        st.tuples(st.sampled_from([[], ["--with-partition", "[[1,2,3]]"]]),
                  st.sampled_from([[], ["--format", "text"]]))
          .map(lambda pf: ["reduce", str(hostile_path), *pf[0], *pf[1]]),
    ))
    out, err = io.StringIO(), io.StringIO()
    with limit_digits_to_640(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(5), (argv, code, err.getvalue())
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())


# Integer option text: up to 700 ASCII digits after "", "-" or "+"; and
# what `int` reads but the CLI's integer rule does not: "+", "_" or a space
# inside the number, non-ASCII digits; and "".
OPTION_TEXT = st.one_of(
    st.tuples(st.sampled_from(["", "-", "+"]), DIGITS).map("".join),
    st.tuples(DIGITS, st.sampled_from(["_", " "]), DIGITS).map("".join),
    st.text("0123456789٣۵१３", max_size=8),
)
# JSON of any shape, and the one partition of the instance below in two orders
PARTITION_TEXT = st.one_of(
    st.sampled_from(["[[1,2,3]]", "[[3,1,2]]"]),
    st.recursive(
        st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=4),
                  st.integers(-(10**700), 10**700)),
        lambda inner: st.lists(inner, max_size=4),
        max_leaves=12,
    ).map(json.dumps),
)


def _builds_a_large_tree(text: str) -> bool:
    """A --lambda the CLI reads as 51..192307: with the partition, the
    n = 1, C = 26 instance gives a tree of 2 + 26 lambda vertices, too
    large to build here yet within the tree cap."""
    return text.isascii() and text.isdigit() and 50 < int(text) < 192308


@pytest.fixture(scope="module")
def small_instance(tmp_path_factory):
    path = tmp_path_factory.mktemp("options") / "instance.json"
    path.write_text('{"n": 1, "C": 26, "a": [7, 9, 10]}')
    return str(path)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hostile_options_end_in_a_documented_exit_code(small_instance, data):
    command, option = data.draw(st.sampled_from([
        (["invert", "q^2 + q^3", "--general"], "--budget"),
        (["reduce", small_instance], "--lambda"),
        (["curve", "--n", "3"], "--precision"),
        (["moments"], "--n"),
    ]))
    partition = []
    if command[0] == "reduce":
        partition = data.draw(st.one_of(st.just([]), PARTITION_TEXT.map(lambda p: ["--with-partition", p])))
    value = data.draw(OPTION_TEXT.filter(lambda v: not (partition and _builds_a_large_tree(v))))
    argv = command + data.draw(st.sampled_from([[option, value], [f"{option}={value}"]])) + partition
    out, err = io.StringIO(), io.StringIO()
    with limit_digits_to_640(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in range(5), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
