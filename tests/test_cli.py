"""CLI surface: outputs, exit codes, round-trips, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import avpoly
from avpoly import distribution as dist
from avpoly import inverse as inv
from avpoly.cli import HEIGHT2_CAP, MOMENTS_CAP, RECURRENCE_CAP, main
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


def test_curve_unwritable_path_exits_3(capsys, tmp_path):
    code, _, err = run(
        capsys, "curve", "--n", "2", "--out", str(tmp_path / "no" / "curve.csv")
    )
    assert code == 3
    assert "cannot write" in err


def test_curve_precision_flag(capsys):
    code, out, _ = run(capsys, "curve", "--n", "3", "--precision", "3")
    assert code == 0
    assert out.splitlines()[1] == "0.333,1.0"


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


def test_invert_general_too_deep_exits_4(capsys):
    path = parse_tree("(" * 1201 + ")" * 1201)  # 1200 edges
    poly_json = json.dumps(avalanche_poly(path).to_pairs())
    code, out, err = run(capsys, "invert", poly_json, "--general")
    assert code == 4
    assert out == ""
    assert "recursion limit" in err
    assert len(err.splitlines()) == 1


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
#  start-up
# ---------------------------------------------------------------------------


def test_startup_leaves_out_unneeded_modules(tmp_path):
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
    assert json.loads(target.read_text()) == dist.distribution_by_recurrence(3).to_json_dict()
