import json
from pathlib import Path

import pytest

import slabsm.driver
from slabsm.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_test1_mlsm(capsys, tmp_path):
    out_path = tmp_path / "hist.csv"
    code = main(["run", "--problem", "test1", "--method", "mlsm",
                 "--kmax", "1", "--smax", "2", "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "outer_iter,residual,ratio"
    # summary block
    assert lines[-2] == "N_t,rho_num,M_lo,status"
    nt, rho, mlo, status = lines[-1].split(",")
    assert abs(int(nt) - 15) <= 2
    assert abs(float(rho) - 0.20) <= 0.05
    assert int(mlo) == 3
    assert status == "converged"
    # history rows count matches N_t
    assert len(lines) == int(nt) + 4  # header + N_t rows + blank + 2 summary

    # sanity: first data row has an empty ratio column
    assert lines[1].endswith(",")


def test_run_output_byte_stable(capsys, tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["run", "--problem", "test2", "--method", "mlsm-aa1",
            "--kmax", "2", "--smax", "2", "--out"]
    assert main(argv + [str(p1)]) == 0
    assert main(argv + [str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_run_si_max_outer_exit_code(tmp_path):
    code = main(["run", "--problem", "test1", "--method", "si",
                 "--max-outer", "50", "--out", str(tmp_path / "si.csv")])
    assert code == 2
    text = (tmp_path / "si.csv").read_text()
    assert "max_outer" in text


def test_run_usage_errors(capsys):
    # no problem source
    code, _, err = _run(capsys, ["run", "--method", "mlsm"])
    assert code == 1
    # both sources
    code, _, err = _run(capsys, ["run", "--problem", "test1", "--config",
                                 "x.json"])
    assert code == 1
    # unknown problem
    code, _, err = _run(capsys, ["run", "--problem", "nosuch"])
    assert code == 1
    # bad flag value
    code = main(["run", "--problem", "test1", "--kmax", "zero"])
    assert code == 1


def test_run_human_format(capsys):
    code, out, _ = _run(capsys, ["run", "--problem", "test2", "--method",
                                 "mlsm", "--kmax", "2", "--smax", "4",
                                 "--format", "human"])
    assert code == 0
    assert "N_t=" in out
    assert "rho_num=" in out


def test_run_config_file(capsys, tmp_path):
    doc = {
        "groups": 1, "sigma_t": [1.0], "sigma_s": [[0.5]], "source": [1.0],
        "width": 8.0, "cells": 16, "quad_half_order": 2,
    }
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, ["run", "--config", str(path),
                                 "--method", "mlsm"])
    assert code == 0
    assert "converged" in out


def test_run_overflowing_config_is_usage_error(capsys, tmp_path):
    doc = {
        "groups": 1, "sigma_t": [1e160], "sigma_s": [[5e159]],
        "source": [1.0], "width": 10.0, "cells": 4, "quad_half_order": 2,
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["run", "--config", str(path), "--method",
                                 "si"])
    assert code == 1
    assert "overflows" in err


def test_sweep_table(capsys):
    code, out, _ = _run(capsys, ["sweep-table", "--problem", "test2",
                                 "--method", "mlsm", "--kmax", "1",
                                 "--smax", "1,2,3,4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k_max,s_max,N_t,rho_num,M_lo"
    assert len(lines) == 5
    nts = [int(line.split(",")[2]) for line in lines[1:]]
    mlos = [int(line.split(",")[4]) for line in lines[1:]]
    # N_t nonincreasing as M_lo grows along the k_max row
    assert mlos == [2, 3, 4, 5]
    assert all(a >= b for a, b in zip(nts, nts[1:]))


def test_sweep_table_single_pair_matches_run(capsys):
    code, out, _ = _run(capsys, ["sweep-table", "--problem", "test1",
                                 "--method", "mlsm", "--kmax", "1",
                                 "--smax", "2"])
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    code2, out2, _ = _run(capsys, ["run", "--problem", "test1", "--method",
                                   "mlsm", "--kmax", "1", "--smax", "2"])
    summary = out2.strip().splitlines()[-1].split(",")
    assert row[2] == summary[0]       # N_t
    assert row[3] == summary[1]       # rho
    assert row[4] == summary[2]       # M_lo


def test_sweep_table_empty_list(capsys):
    code, _, err = _run(capsys, ["sweep-table", "--problem", "test1",
                                 "--kmax", ",", "--smax", "1"])
    assert code == 1
    # a list entry that is not an integer
    code, _, err = _run(capsys, ["sweep-table", "--problem", "test1",
                                 "--kmax", "1,x", "--smax", "1"])
    assert code == 1 and "bad --kmax value" in err


def test_strength_reproduces_table1(capsys):
    code, out, _ = _run(capsys, ["strength", "--problem", "test1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    row2 = [float(v) for v in lines[2].split(",")[1:]]
    assert row2[0] == pytest.approx(1.0)
    row4 = [float(v) for v in lines[4].split(",")[1:]]
    assert row4[1] == pytest.approx(0.53, abs=0.005)


def test_validate_passes(capsys):
    for name in ("test1", "test2"):
        code, out, _ = _run(capsys, ["validate", "--problem", name])
        assert code == 0
        assert "result,PASS" in out


def test_validate_requires_builtin(capsys, tmp_path):
    doc = {
        "groups": 1, "sigma_t": [1.0], "sigma_s": [[0.5]], "source": [1.0],
        "width": 8.0, "cells": 16, "quad_half_order": 2,
    }
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["validate", "--config", str(path)])
    assert code == 1


def test_analyze_prints_published_rho(capsys):
    code, out, _ = _run(capsys, ["analyze", "--problem", "test1"])
    assert code == 0
    assert out.splitlines()[1].split(",")[1] == "0.96"
    code, out, _ = _run(capsys, ["analyze", "--problem", "test2"])
    assert out.splitlines()[1].split(",")[1] == "0.99"


_DIAGNOSTICS = [("strength", "csv"), ("strength", "human"),
                ("validate", "csv"), ("analyze", "csv"), ("analyze", "human")]
# (command, format, problem, further arguments); the id names the case and
# the golden file is {command}-{problem}.csv or .txt
_GOLDEN_CASES = [(c, f, p, []) for p in ("test1", "test2")
                 for c, f in _DIAGNOSTICS] + [
    ("run", "csv", "test1",
     ["--method", "mlsm", "--kmax", "1", "--smax", "2"]),
    ("run", "human", "test1",
     ["--method", "mlsm", "--kmax", "1", "--smax", "2"]),
    ("run", "csv", "test2",
     ["--method", "mlsm-aa1", "--kmax", "2", "--smax", "2"]),
    ("sweep-table", "csv", "test2",
     ["--method", "mlsm", "--kmax", "1", "--smax", "1,2"]),
]


@pytest.mark.parametrize("command, fmt, problem, extra", _GOLDEN_CASES,
                         ids=["-".join(case[:3]) for case in _GOLDEN_CASES])
def test_diagnostic_output_golden_bytes(tmp_path, command, fmt, problem,
                                        extra):
    # the golden files hold these commands' output byte for byte
    out = tmp_path / "out"
    argv = [command, "--problem", problem, "--out", str(out)] + extra
    if command not in ("validate", "sweep-table"):
        argv += ["--format", fmt]
    assert main(argv) == 0
    suffix = "csv" if fmt == "csv" else "txt"
    assert out.read_bytes() == (GOLDEN / f"{command}-{problem}.{suffix}"
                                ).read_bytes()


@pytest.mark.parametrize("command", ["validate", "sweep-table"])
def test_format_only_where_offered(capsys, command):
    # these commands print CSV only, so a format choice is a usage error
    code, _, err = _run(capsys, [command, "--problem", "test1",
                                 "--format", "human"])
    assert code == 1
    assert "--format" in err


def _no_solve(monkeypatch):
    """Replace the solver in the CLI; returns the list of its calls."""
    calls = []
    monkeypatch.setattr("slabsm.cli.run_problem",
                        lambda *args: calls.append(args))
    return calls


@pytest.mark.parametrize("argv", [
    ["analyze", "--problem", "test1"],
    ["strength", "--problem", "test2"],
    ["run", "--problem", "test2", "--method", "si", "--max-outer", "2"],
    ["sweep-table", "--problem", "test2", "--kmax", "1,2", "--max-outer",
     "2"],
])
def test_unwritable_out_is_usage_error(capsys, monkeypatch, tmp_path, argv):
    # found before any solve: a missing directory, or a directory as target
    calls = _no_solve(monkeypatch)
    for out in (tmp_path / "no" / "such" / "dir" / "x.txt", tmp_path):
        code, _, err = _run(capsys, argv + ["--out", str(out)])
        assert code == 1 and calls == []
        assert err.startswith("error: ") and str(out) in err


def test_bad_count_fails_before_any_solve(capsys, monkeypatch, tmp_path):
    # every setting is checked first, and the --out file is left as it was
    calls = _no_solve(monkeypatch)
    out = tmp_path / "keep.csv"
    out.write_text("earlier output\n")
    code, _, err = _run(capsys, ["sweep-table", "--problem", "test1",
                                 "--kmax", "1,0", "--out", str(out)])
    assert code == 1 and calls == []
    assert "k_max must be >= 1" in err
    assert out.read_text() == "earlier output\n"


def test_run_non_finite_epsilon_is_usage_error(capsys):
    # --epsilon inf reported one outer as converged
    for eps in ("inf", "nan"):
        code, out, err = _run(capsys, ["run", "--problem", "test2",
                                       "--epsilon", eps])
        assert code == 1 and out == ""
        assert "epsilon must be finite" in err


def test_run_non_finite_config_is_usage_error(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"groups": 1, "sigma_t": [NaN], "sigma_s": [[0.5]], '
                    '"source": [1.0], "width": 8.0, "cells": 16, '
                    '"quad_half_order": 2}')
    code, _, err = _run(capsys, ["run", "--config", str(path)])
    assert code == 1
    assert "sigma_t must be finite" in err


def test_no_command_usage(capsys):
    code = main([])
    assert code == 1


def test_zero_removal_config(capsys, monkeypatch, tmp_path):
    # one group with c = 1: sigma_t - sigma_s,g->g = 0 is a valid problem,
    # which source iteration solves and the low-order system cannot
    sweeps = []
    sweep = slabsm.driver.sweep_batch
    monkeypatch.setattr(slabsm.driver, "sweep_batch",
                        lambda *a: sweeps.append(1) or sweep(*a))
    path = tmp_path / "c1.json"
    path.write_text(json.dumps({
        "groups": 1, "sigma_t": [1.0], "sigma_s": [[1.0]], "source": [1.0],
        "width": 8.0, "cells": 16, "quad_half_order": 2}))
    code, out, err = _run(capsys, ["run", "--config", str(path),
                                   "--method", "mlsm"])
    assert code == 1 and out == "" and sweeps == []
    assert "requires it positive" in err
    code, out, _ = _run(capsys, ["run", "--config", str(path),
                                 "--method", "si", "--max-outer", "5"])
    assert code == 2 and len(sweeps) == 5
    assert out.splitlines()[-1] == "5,0.99,0,max_outer"
