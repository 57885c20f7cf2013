import numpy as np

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
    assert run(["convergence", "--quad-offset", "-3", "--levels", "2"]) == 2
    assert "--quad-offset" in capsys.readouterr().err
    assert run(["solve", "--quad-offset", "-1", "--levels", "2"]) == 2
    assert "--quad-offset" in capsys.readouterr().err
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
    real = frachp.postproc.solve_problem
    solved = []

    def counted(*args, **kwargs):
        solved.append(real(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(frachp.postproc, "solve_problem", counted)
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
    system = solved[0][2]
    np.testing.assert_array_equal(A, system.stiffness)
    np.testing.assert_array_equal(b, system.load)


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
    assert run(["interp-study", "--quad-offset", "3"]) == 2
    assert run(["interp-study", "--threads", "2"]) == 2
    assert run(["convergence", "--threads", "2"]) == 2


def test_zero_levels_rejected_except_for_mesh(capsys):
    for command in ("convergence", "solve", "interp-study"):
        assert run([command, "--levels", "0"]) == 2
        assert "--levels" in capsys.readouterr().err
    assert run(["mesh", "--levels", "0"]) == 0
    assert capsys.readouterr().out.split() == ["-1", "0", "1"]
