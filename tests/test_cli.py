import warnings

import numpy as np
import pytest

import frachp.approx
import frachp.postproc
from frachp.cli import CONVERGENCE_HEADER, INTERP_HEADER, run


def test_mesh_dump(tmp_path, capsys):
    assert run(["mesh", "--sigma", "0.5", "--levels", "2"]) == 0
    out = capsys.readouterr().out
    nodes = [float(tok) for tok in out.strip().split("\n")]
    assert nodes == [-1, -0.75, -0.5, 0, 0.5, 0.75, 1]


def test_mesh_dump_to_file(tmp_path):
    path = tmp_path / "nodes.csv"
    assert run(["mesh", "--sigma", "0.5", "--levels", "1",
                "--domain", "0,2", "--out", str(path)]) == 0
    nodes = [float(line) for line in path.read_text().strip().split("\n")]
    assert nodes == [0, 0.5, 1, 1.5, 2]


def test_validation_exit_code_names_flag(capsys):
    assert run(["solve", "--s", "0.9", "--sigma", "1.2"]) == 2
    assert "--sigma" in capsys.readouterr().err
    assert run(["convergence", "--s", "1.9"]) == 2
    assert "--s" in capsys.readouterr().err
    assert run(["convergence", "--s", ",", "--levels", "2"]) == 2
    assert "--s" in capsys.readouterr().err
    assert run(["interp-study", "--eps-prime", "0.9", "--s", "0.3"]) == 2
    assert "--eps-prime" in capsys.readouterr().err
    assert run(["mesh", "--domain=-inf,1"]) == 2
    assert "--domain" in capsys.readouterr().err
    assert run(["convergence", "--s", "0.3,,0.5", "--levels", "2"]) == 2
    assert "--s" in capsys.readouterr().err


def test_unknown_flag_exits_2(capsys):
    assert run(["convergence", "--frobnicate"]) == 2


def test_convergence_csv(tmp_path):
    path = tmp_path / "study.csv"
    assert run(["convergence", "--s", "0.5", "--sigma", "0.6", "--levels", "3",
                "--rule", "uniform", "--out", str(path)]) == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CONVERGENCE_HEADER
    assert len(lines) == 4
    errs = [float(line.split(",")[5]) for line in lines[1:]]
    assert errs[0] > errs[1] > errs[2]
    # guide columns present
    first = lines[1].split(",")
    assert float(first[8]) == 2 * 0.6 ** 0.5 / 1
    assert float(first[9]) == 0.22 * 0.6 ** 0.5


def test_convergence_deterministic_output(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["convergence", "--s", "0.3,0.5", "--levels", "2", "--out"]
    assert run(args + [str(p1)]) == 0
    assert run(args + [str(p2)]) == 0
    # identical invocations give byte-identical files apart from timings
    strip = lambda text: [",".join(line.split(",")[:7])
                          for line in text.strip().split("\n")]
    assert strip(p1.read_text()) == strip(p2.read_text())


def test_solve_and_matrix_dump(tmp_path, monkeypatch):
    real = frachp.postproc._solve
    solved = []

    def counted(*args, **kwargs):
        solved.append(real(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(frachp.postproc, "_solve", counted)
    out = tmp_path / "solve.csv"
    prefix = tmp_path / "mat"
    assert run(["solve", "--s", "0.5", "--levels", "2", "--rule", "reduced",
                "--out", str(out), "--dump-matrix", str(prefix)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2 and lines[1].split(",")[3] == "reduced"
    A = np.loadtxt(f"{prefix}_A.csv", delimiter=",")
    b = np.loadtxt(f"{prefix}_b.csv")
    n = int(lines[1].split(",")[4])
    assert A.shape == (n, n) and b.shape == (n,)
    np.testing.assert_allclose(A, A.T, atol=0)
    # one solve, and the dump is that solve's system to the last bit
    assert len(solved) == 1
    system = solved[0][0]
    np.testing.assert_array_equal(A, system.stiffness)
    np.testing.assert_array_equal(b, system.load)


def test_solve_csv_layout(capsys):
    assert run(["solve", "--s", "0.5", "--levels", "1",
                "--rule", "uniform"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == ("s,sigma,L,rule,N,energy_error,discrete_energy,"
                        "wall_ms")
    fields = lines[1].split(",")
    assert len(fields) == 8
    assert fields[0] == "0.5" and fields[2] == "1" and fields[3] == "uniform"
    # 17 significant digits on the error column
    record, _ = frachp.postproc.solve_record(0.5, 0.6, 1, "uniform")
    assert float(fields[5]) == record.energy_error
    assert len(fields[5].replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_solve_row_matches_last_convergence_row(tmp_path):
    args = ["--s", "0.3", "--sigma", "0.6", "--levels", "3",
            "--rule", "reduced", "--out"]
    p_solve, p_conv = tmp_path / "solve.csv", tmp_path / "conv.csv"
    assert run(["solve"] + args + [str(p_solve)]) == 0
    assert run(["convergence"] + args + [str(p_conv)]) == 0
    solve_row = p_solve.read_text().strip().split("\n")[-1].split(",")
    conv_row = p_conv.read_text().strip().split("\n")[-1].split(",")
    assert solve_row[:7] == conv_row[:7]


def test_energy_gap_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(frachp.postproc, "exact_energy", lambda s: 1.0)
    assert run(["solve", "--s", "0.5", "--levels", "2"]) == 3
    assert "s=0.5, L=2" in capsys.readouterr().err


def test_interp_study_failure_exits_3_naming_s_and_L(capsys):
    # beta' = 1e-4 leaves a weight exponent of -0.9996 on the boundary
    # elements, too close to -1 for the weighted integral to settle
    assert run(["interp-study", "--s", "0.5", "--levels", "3",
                "--eps-prime", "0.4999"]) == 3
    err = capsys.readouterr().err
    assert "s=0.5, L=1" in err
    assert "did not stabilize" in err


def test_interp_study_non_finite_integral_exits_3(capsys):
    # beta' = 1e-4 at s = 0.9: a 256-point node of the boundary substitution
    # x = -1 + t^2 rounds to -1, where du is infinite; the run fails naming
    # (s, L) instead of printing inf as the weighted error
    assert run(["interp-study", "--s", "0.9", "--levels", "3",
                "--eps-prime", "0.0999"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "s=0.9, L=1" in err
    assert "not finite" in err


def test_solve_rejects_multiple_s(capsys):
    assert run(["solve", "--s", "0.3,0.5"]) == 2
    assert "--s" in capsys.readouterr().err


def test_interp_study_csv(tmp_path):
    path = tmp_path / "interp.csv"
    assert run(["interp-study", "--s", "0.5", "--sigma", "0.6",
                "--levels", "3", "--out", str(path)]) == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == INTERP_HEADER
    assert len(lines) == 4
    errs = [float(line.split(",")[4]) for line in lines[1:]]
    assert errs[0] > errs[1] > errs[2]


def test_removed_flags_exit_2(capsys):
    for command in ("convergence", "solve", "interp-study"):
        assert run([command, "--quad-offset", "6"]) == 2
        assert "--quad-offset" in capsys.readouterr().err
    assert run(["interp-study", "--threads", "2"]) == 2
    assert run(["convergence", "--threads", "2"]) == 2


def test_zero_levels_rejected_except_for_mesh(capsys):
    for command in ("convergence", "solve", "interp-study"):
        assert run([command, "--levels", "0"]) == 2
        assert "--levels" in capsys.readouterr().err
    assert run(["mesh", "--levels", "0"]) == 0
    assert capsys.readouterr().out.split() == ["-1", "0", "1"]


@pytest.mark.parametrize("argv,flag", [
    ("mesh --levels -1", "--levels"),
    ("mesh --sigma 1", "--sigma"),
    ("mesh --domain 1,0", "--domain"),
    ("mesh --domain 0,1,2", "--domain"),
    ("mesh --domain=-1e308,1e308", "--domain"),
    ("convergence --levels 2.5", "--levels"),
    ("convergence --sigma 0", "--sigma"),
    ("convergence --s nan", "--s"),
    ("convergence --s 0.5,1", "--s"),
    ("solve --rule cubic", "--rule"),
    ("solve --s 0.3,0.5", "--s"),
    ("interp-study --levels 0", "--levels"),
    ("interp-study --eps-prime nan", "--eps-prime"),
    ("interp-study --s 0.3,0.6 --eps-prime 0.45", "--eps-prime"),
])
def test_bad_argument_names_flag_before_any_work(argv, flag, capsys,
                                                 monkeypatch):
    calls = []
    for module, name in ((frachp.postproc, "_level"),
                         (frachp.approx, "interpolant_weighted_error")):
        monkeypatch.setattr(module, name,
                            lambda *a, name=name, **k: calls.append(name))
    command = argv.split()[0]
    assert run(argv.split()) == 2
    out, err = capsys.readouterr()
    assert f"frachp {command}: error: argument {flag}: " in err
    assert out == "" and calls == []


@pytest.mark.parametrize("argv", [
    ["convergence", "--s", "0.5", "--levels", "1", "--out"],
    ["solve", "--s", "0.5", "--levels", "1", "--dump-matrix"],
])
def test_unwritable_output_exits_2_naming_path(argv, tmp_path, capsys):
    path = str(tmp_path / "missing" / "x")
    assert run(argv + [path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err


def test_degenerate_mesh_exit_codes(capsys):
    # at sigma = 0.17 the nodes next to -1 and 1 first coincide at L = 22
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["mesh", "--sigma", "0.17", "--levels", "22"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "sigma=0.17 with L=22" in err
        assert run(["solve", "--sigma", "0.17", "--levels", "22"]) == 3
        err = capsys.readouterr().err
        assert "s=0.5, L=22" in err and "sigma=0.17 with L=22" in err
        # the study meets it in the set-up it shares across s, after
        # L = 1..21 have solved
        assert run(["convergence", "--sigma", "0.17", "--levels", "22"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "s=0.5, L=22" in err and "sigma=0.17 with L=22" in err
