import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import mixedspin
from mixedspin import verify
from mixedspin.cli import (ConfigError, NumericalCheckError, RunConfig, emit_csv,
                           main, parse_config, read_config_file)


def test_parse_sweep_temp_flags():
    config = parse_config(["sweep-temp", "--n", "4", "--tmin", "0.05",
                           "--tmax", "2", "--steps", "100", "--out", "f.csv"])
    assert config.command == "sweep-temp"
    assert config.n == 4
    assert (config.tmin, config.tmax) == (0.05, 2.0)
    assert config.steps == "100"
    assert config.out == "f.csv"
    assert config.j1 == 1.0 and config.j2 == 0.0 and config.b == 0.0


def test_parse_rejects_odd_ring_nnn_sweep():
    with pytest.raises(ConfigError, match="even"):
        parse_config(["sweep-j2", "--n", "5", "--j2min", "0", "--j2max", "1",
                      "--steps", "10", "--temperature", "0.1", "--out", "f.csv"])


def test_parse_rejects_missing_output():
    with pytest.raises(ConfigError, match="out"):
        parse_config(["sweep-temp", "--n", "2", "--tmin", "0.1", "--tmax", "1",
                      "--steps", "10"])


def test_parse_grid_steps():
    config = parse_config(["grid", "--n", "4", "--tmin", "0.01", "--tmax", "1.2",
                           "--j2min", "0", "--j2max", "1", "--steps", "80x80",
                           "--out", "g.csv"])
    assert config.steps == "80x80"


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command=sweep-temp\nn=4\ntmin=0.05\ntmax=2.0\nsteps=10\n"
                   "out=from_file.csv\n", encoding="utf-8")
    config = parse_config(["--config", str(cfg)])
    assert config.command == "sweep-temp"
    assert config.n == 4
    # flags override the file
    config = parse_config(["--config", str(cfg), "--n", "6", "--out", "flag.csv"])
    assert config.n == 6
    assert config.out == "flag.csv"


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("command=sweep-temp\nbogus=1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(["--config", str(cfg)])


@pytest.mark.parametrize("text, message", [
    ("command=frobnicate\n", "command: unknown 'frobnicate'"),
    ("command=verify\nmax_n 2\n", "bad.cfg:2: expected key=value, got 'max_n 2'"),
    ("command=threshold\nn=2\nparam=bogus\ntmin=0.5\ntmax=2\n", "param: unknown 'bogus'"),
    ("command=sweep-temp\nn=4.5\ntmin=0.1\ntmax=1\nout=x.csv\n",
     "n: expected a number, got '4.5'"),
])
def test_config_file_bad_line_is_one_error_line(tmp_path, capsys, monkeypatch, text, message):
    # a config-file value is converted and checked as its flag's is: one
    # error line, no eigensolve and no traceback
    monkeypatch.setattr("mixedspin.sweeps.diagonalize", _no_eigensolve)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert main(["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and len(err.splitlines()) == 1


def test_unreadable_config_file_is_one_error_line(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "missing.cfg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file") and len(err.splitlines()) == 1


def test_config_file_bad_number(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("command=sweep-temp\ntmin=abc\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="tmin"):
        parse_config(["--config", str(cfg)])


def test_missing_command():
    with pytest.raises(ConfigError, match="command"):
        parse_config(["--n", "2"])


def test_emit_csv_format(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv(str(path), [("n", "2"), ("j1", "1.0")], ["a", "b"],
             [(1.0, 2.0), (1.0 / 3.0, 1e-12)])
    data = path.read_bytes()
    assert b"\r" not in data
    lines = data.decode().splitlines()
    assert lines[0] == "# n=2"
    assert lines[2] == "a,b"
    assert lines[3] == "1,2"
    assert lines[4].startswith("0.333333333333,")   # 12 significant digits


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025])
def test_emit_csv_blocks_give_the_per_row_bytes(tmp_path, count):
    # rows go out in blocks of CSV_BLOCK_ROWS per format operation; the bytes
    # are those of one format per row, across and at the block edges
    rng = np.random.default_rng(count)
    rows = rng.standard_normal((count, 4)) * 10.0 ** rng.integers(-20, 20, (count, 4))
    special = np.array([-0.0, 1e-300, 1e300, -1e300, 1.0 / 3.0])
    rows.ravel()[:min(rows.size, special.size)] = special[:rows.size]
    if count > 1:
        rows[-1] = [-0.0, 1e-300, 1e300, 0.0]
    path = tmp_path / "rows.csv"
    emit_csv(str(path), [("n", "2")], ["a", "b", "c", "d"], rows)
    expected = "# n=2\na,b,c,d\n" + "".join(
        "%.12g,%.12g,%.12g,%.12g\n" % tuple(row.tolist()) for row in rows)
    assert path.read_bytes() == expected.encode()
    if count:
        assert path.read_text().splitlines()[2].startswith("-0,1e-300,1e+300,")


def test_failed_write_leaves_no_temporary_file(tmp_path, capsys):
    # the replace fails when the target is a directory: exit code 3, and the
    # temporary file beside it is removed
    target = tmp_path / "taken"
    target.mkdir()
    assert main(["sweep-temp", "--n", "2", "--tmin", "0.1", "--tmax", "1", "--steps", "3",
                 "--out", str(target)]) == 3
    assert capsys.readouterr().err.startswith("i/o error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert list(target.iterdir()) == []


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_csv_mode_follows_the_umask(tmp_path, umask):
    # a CSV gets the mode of any new file, 0666 less the umask, not the
    # 0600 of the temporary file it is renamed from
    old = os.umask(umask)
    try:
        emit_csv(str(tmp_path / "mode.csv"), [], ["x"], [(1.0,)])
    finally:
        os.umask(old)
    assert (tmp_path / "mode.csv").stat().st_mode & 0o777 == 0o666 & ~umask


def test_emit_csv_rejects_non_finite(tmp_path):
    with pytest.raises(NumericalCheckError):
        emit_csv(str(tmp_path / "bad.csv"), [], ["x"], [(float("nan"),)])


def test_sweep_command_end_to_end(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep-temp", "--n", "2", "--tmin", "0.05", "--tmax", "2",
                 "--steps", "12", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "temperature,N_half_one,U,logZ"
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 12
    for row in rows:
        assert all(np.isfinite(float(x)) for x in row.split(","))


def test_sweep_output_bytes_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep-j2", "--n", "4", "--j2min", "0", "--j2max", "1", "--steps", "9",
            "--temperature", "0.1"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_round_trip_config_through_csv(tmp_path):
    out = tmp_path / "orig.csv"
    assert main(["sweep-field", "--n", "2", "--bmin", "0.1", "--bmax", "2.0",
                 "--steps", "8", "--temperature", "0.05", "--out", str(out)]) == 0
    # the comment block is itself a valid config file
    echoed = tmp_path / "echo.cfg"
    echoed.write_text("\n".join(l for l in out.read_text().splitlines()
                                if l.startswith("#")), encoding="utf-8")
    config = parse_config(["--config", str(echoed), "--out", str(tmp_path / "r.csv")])
    assert config.command == "sweep-field"
    assert config.n == 2
    assert (config.bmin, config.bmax) == (0.1, 2.0)
    assert config.temperature == 0.05
    assert config.steps == "8"
    rerun = tmp_path / "r.csv"
    assert main(["--config", str(echoed), "--out", str(rerun)]) == 0
    original_rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    rerun_rows = [l for l in rerun.read_text().splitlines() if not l.startswith("#")]
    assert original_rows == rerun_rows


def test_verify_comment_block_is_a_config(tmp_path):
    out = tmp_path / "v.csv"
    assert main(["verify", "--max-n", "2", "--out", str(out)]) == 0
    echoed = tmp_path / "echo.cfg"
    echoed.write_text("\n".join(l for l in out.read_text().splitlines()
                                if l.startswith("#")), encoding="utf-8")
    config = parse_config(["--config", str(echoed)])
    assert config.command == "verify"
    assert config.max_n == 2


def test_threshold_command(tmp_path, capsys):
    out = tmp_path / "th.csv"
    code = main(["threshold", "--n", "2", "--param", "temperature",
                 "--tmin", "0.5", "--tmax", "2.0", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "1.0820" in printed
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "threshold,bracket_lo,bracket_hi,found"
    values = rows[1].split(",")
    assert abs(float(values[0]) - 1.0820212806667227) <= 1e-4
    assert values[3] == "1"


def test_threshold_without_a_crossing(tmp_path, capsys):
    # a (1/2,1/2) pair of the three-site ring is never entangled: the search
    # says so and writes the range with found = 0
    out = tmp_path / "none.csv"
    assert main(["threshold", "--n", "3", "--pairs", "half_half", "--param", "temperature",
                 "--tmin", "0.1", "--tmax", "2", "--out", str(out)]) == 0
    assert "none in range [0.1, 2]" in capsys.readouterr().out
    assert out.read_text().splitlines()[-2:] == ["threshold,bracket_lo,bracket_hi,found",
                                                 "0,0.1,2,0"]


def test_failed_verify_check_exits_2(tmp_path, capsys, monkeypatch):
    original = verify.check_two_site

    def one_failing():
        first, *rest = original()
        return [replace(first, status="fail"), *rest]

    monkeypatch.setattr(verify, "check_two_site", one_failing)
    out = tmp_path / "v.csv"
    assert main(["verify", "--max-n", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical check failure:")
    assert captured.out.count("[FAIL]") == 1
    assert [l for l in out.read_text().splitlines() if not l.startswith("#")][1][:2] == "0,"


def test_exit_codes(tmp_path):
    # validation error
    assert main(["sweep-j2", "--n", "5", "--j2min", "0", "--j2max", "1",
                 "--steps", "4", "--temperature", "0.1", "--out", "x.csv"]) == 1
    # unknown command
    assert main(["frobnicate"]) == 1
    # i/o error: unwritable output directory
    assert main(["sweep-temp", "--n", "2", "--tmin", "0.1", "--tmax", "1",
                 "--steps", "4", "--out", "/nonexistent_dir_73/x.csv"]) == 3


def _no_eigensolve(*args, **kwargs):
    raise AssertionError("bad input reached an eigensolve")


@pytest.mark.parametrize("args", [
    ["sweep-field", "--n", "4", "--j2", "0.3", "--bmin", "0", "--bmax", "1",
     "--steps", "5", "--temperature", "0.1"],
    ["threshold", "--n", "4", "--j1", "-1", "--j2", "0.3", "--param", "temperature",
     "--tmin", "0.1", "--tmax", "1"],
    ["threshold", "--n", "5", "--param", "j2", "--j2min", "0", "--j2max", "1",
     "--temperature", "0.1"],
    ["threshold", "--n", "3", "--param", "field_b", "--bmin", "0", "--bmax", "1",
     "--temperature", "0.1"],
    ["threshold", "--n", "2", "--param", "temperature", "--tmin", "-1", "--tmax", "1"],
    ["threshold", "--n", "4", "--param", "j2", "--j2min", "0", "--j2max", "1",
     "--temperature", "-0.5"],
    ["sweep-j2", "--n", "4", "--j2min", "-1", "--j2max", "1", "--steps", "5",
     "--temperature", "0.1"],
    ["sweep-temp", "--n", "2", "--tmin", "0", "--tmax", "1", "--steps", "5"],
    ["sweep-temp", "--n", "2", "--tmin", "0.1", "--tmax", "1", "--steps", "1"],
    ["sweep-j2", "--n", "4", "--j1", "-1", "--j2min", "0", "--j2max", "1", "--steps", "5",
     "--temperature", "0.1"],
    ["threshold", "--n", "4", "--param", "temperature", "--tmin", "0.1", "--tmax", "2",
     "--pairs", "half_half,one_one"],
    ["verify", "--max-n", "2", "--n", "7", "--j2", "5"],
    ["sweep-temp", "--n", "4", "--j2", "nan", "--tmin", "0.1", "--tmax", "1", "--steps", "5"],
    ["sweep-temp", "--n", "2", "--j1", "inf", "--tmin", "0.1", "--tmax", "1", "--steps", "5"],
    ["sweep-temp", "--n", "2", "--b", "nan", "--tmin", "0.1", "--tmax", "1", "--steps", "5"],
    ["sweep-j2", "--n", "4", "--j2min", "0", "--j2max", "1", "--steps", "5",
     "--temperature", "nan"],
    ["threshold", "--n", "4", "--param", "j2", "--j2min", "0", "--j2max", "1",
     "--temperature", "nan"],
    ["threshold", "--n", "2", "--param", "temperature", "--tmin", "0", "--tmax", "inf"],
    ["sweep-j2", "--n", "4", "--j2min", "0", "--j2max", "1", "--steps", "5",
     "--temperature", "inf"],
    ["sweep-temp", "--n", "2", "--tmin", "0.5", "--tmax", "2", "--steps", "3",
     "--temperature", "-4"],
    ["grid", "--n", "4", "--j2min", "0", "--j2max", "1", "--tmin", "0.1", "--tmax", "1",
     "--steps", "3x3", "--temperature", "-1"],
    ["threshold", "--n", "2", "--param", "temperature", "--tmin", "0.5", "--tmax", "2",
     "--temperature", "nan"],
    ["sweep-temp", "--n", "4", "--tmin", "0.1", "--tmax", "1", "--steps", "3",
     "--pairs", "half_one,half_one"],
    ["verify", "--max-n", "9"],
    ["verify", "--max-n", "1"],
    ["sweep-temp", "--n", "2", "--tmin", "1e-320", "--tmax", "1", "--steps", "2"],
    ["grid", "--n", "4", "--j2min", "0", "--j2max", "1", "--tmin", "1e-320", "--tmax", "1",
     "--steps", "3x3"],
    ["sweep-j2", "--n", "4", "--j2min", "0", "--j2max", "1", "--steps", "3",
     "--temperature", "1e-320"],
    ["threshold", "--n", "2", "--param", "temperature", "--tmin", "1e-320", "--tmax", "1"],
    # above the smallest normal float, but beta * (E - E_min) still overflows
    ["sweep-temp", "--n", "8", "--tmin", "2.2250738585072014e-308", "--tmax", "1",
     "--steps", "2"],
    ["sweep-temp", "--n", "2", "--tmin", "0.1", "--tmax", "1", "--steps", "abc"],
    ["grid", "--n", "4", "--j2min", "0", "--j2max", "1", "--tmin", "0.1", "--tmax", "1",
     "--steps", "80"],
    ["threshold", "--n", "2", "--tmin", "0.1", "--tmax", "1"],
    ["sweep-temp", "--n", "2", "--tmin", "0.1", "--steps", "5"],
])
def test_bad_input_is_one_error_line(args, tmp_path, capsys, monkeypatch):
    # rejected while parsing: no eigensolve runs and no traceback escapes
    monkeypatch.setattr("mixedspin.sweeps.diagonalize", _no_eigensolve)
    assert main(args + ["--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def _run_python(script, *args, **variables):
    """Run script in a fresh interpreter that finds this mixedspin, with no
    BLAS thread variable set besides the given variables; returns stdout."""
    package = os.path.dirname(os.path.dirname(mixedspin.__file__))
    env = {k: v for k, v in os.environ.items() if k not in mixedspin.THREAD_VARIABLES}
    env.update(variables, PYTHONPATH=os.pathsep.join(
        filter(None, (package, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_coupling_sweep_leaves_numpy_random_unimported(tmp_path):
    # numpy loads numpy.random on first use, which costs a fresh CLI process
    # tens of milliseconds and several MB of peak RSS
    script = ("import sys\n"
              "from mixedspin.cli import main\n"
              "assert main(sys.argv[1:]) == 0\n"
              "print('numpy.random' in sys.modules)\n")
    args = ["sweep-j2", "--n", "8", "--j2min", "0.1", "--j2max", "0.9", "--steps", "2",
            "--temperature", "0.02", "--out", str(tmp_path / "j2.csv")]
    assert _run_python(script, *args).splitlines()[-1] == "False"


def test_temperature_sweep_leaves_lazy_numpy_submodules_unimported(tmp_path):
    # numpy.random and numpy.ma load on first use (np.unique imports
    # numpy.ma), costing a fresh CLI process milliseconds before its first
    # eigensolve
    script = ("import sys\n"
              "from mixedspin.cli import main\n"
              "assert main(sys.argv[1:]) == 0\n"
              "print(sorted({'numpy.random', 'numpy.ma'} & set(sys.modules)))\n")
    args = ["sweep-temp", "--n", "8", "--tmin", "0.05", "--tmax", "2", "--steps", "4",
            "--out", str(tmp_path / "temp.csv")]
    assert _run_python(script, *args).splitlines()[-1] == "[]"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task to count the process's threads")
def test_cli_run_holds_one_thread(tmp_path):
    # with no thread variable set, the BLAS starts no pool beside the main thread
    script = ("import os, sys\n"
              "from mixedspin.cli import main\n"
              "assert main(sys.argv[1:]) == 0\n"
              "print(len(os.listdir('/proc/self/task')))\n")
    args = ["sweep-j2", "--n", "8", "--j2min", "0.1", "--j2max", "0.9", "--steps", "4",
            "--temperature", "0.02", "--out", str(tmp_path / "j2.csv")]
    assert _run_python(script, *args).splitlines()[-1] == "1"


def test_user_thread_count_survives_import():
    script = ("import os, sys\n"
              "assert 'numpy' not in sys.modules\n"
              "import mixedspin\n"
              "print(sorted((k, v) for k, v in os.environ.items()\n"
              "             if k.endswith('_NUM_THREADS')))\n")
    printed = _run_python(script, OPENBLAS_NUM_THREADS="2").splitlines()[-1]
    assert printed == "[('OPENBLAS_NUM_THREADS', '2')]"


def test_import_after_numpy_leaves_the_environment_alone():
    script = ("import os\n"
              "import numpy\n"
              "before = dict(os.environ)\n"
              "import mixedspin\n"
              "print(dict(os.environ) == before)\n")
    assert _run_python(script).splitlines()[-1] == "True"


def test_verify_command_small(capsys):
    code = main(["verify", "--max-n", "3"])
    printed = capsys.readouterr().out
    assert code == 0
    assert "[FAIL]" not in printed
    assert "[INFO]" in printed
    assert "checks passed" in printed


def test_run_config_echo_omits_execution_details():
    config = RunConfig(command="sweep-temp", n=2, tmin=0.1, tmax=1.0,
                       out="x.csv")
    keys = [k for k, _ in config.echo_items()]
    assert "out" not in keys
    assert "command" in keys


def test_read_config_skips_prose_comments(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# just a note\ncommand=verify\nmax_n=2\n", encoding="utf-8")
    values = read_config_file(str(cfg))
    assert values == {"command": "verify", "max_n": 2}
