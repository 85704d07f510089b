import numpy as np
import pytest

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
])
def test_bad_input_is_one_error_line(args, tmp_path, capsys, monkeypatch):
    # rejected while parsing: no eigensolve runs and no traceback escapes
    monkeypatch.setattr("mixedspin.sweeps.diagonalize", _no_eigensolve)
    assert main(args + ["--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith("error:")


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
