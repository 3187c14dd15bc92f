import gc
from pathlib import Path

import pytest

from nearcurve.cli import main


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_count_roundtrip(tmp_path, capsys):
    cfg = _write(tmp_path, "count.cfg", f"""
        curve = parabola
        B = 0,1
        psi_list = 0.5
        Q_list = 10
        output_dir = {tmp_path}/out
    """)
    assert main(["count", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "counts.csv" in out
    assert (tmp_path / "out" / "manifest_count.json").exists()


def test_unknown_key_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "curve = parabola\nmod = count\n")
    assert main(["count", "--config", cfg]) == 1
    assert "mod" in capsys.readouterr().err


def test_zero_samples_is_a_config_error(tmp_path, capsys):
    # a count below 1 is refused when the config is read, before any run starts
    for key, mode in (("qnd.samples", "qnd"), ("grid.points", "detect"), ("identities.draws", "identities")):
        cfg = _write(tmp_path, "zero.cfg", f"curve = parabola\n{key} = 0\noutput_dir = {tmp_path}/z\n")
        assert main([mode, "--config", cfg]) == 1
        assert f"config error: key '{key}' must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "z").exists()


def test_bad_rho_scale_is_a_config_error(tmp_path, capsys):
    # 0 used to fail mid-run (exit 2); nan and inf used to run and write a coverage of 0 or 1
    for value in ("0", "-1", "nan", "inf"):
        cfg = _write(tmp_path, "rho.cfg", f"curve = parabola\ncoverage.rho_scale = {value}\n"
                     f"Q_list = 64\noutput_dir = {tmp_path}/r\n")
        assert main(["coverage", "--config", cfg]) == 1
        assert "config error: key 'coverage.rho_scale' must be finite and > 0" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("mode", ["qnd", "identities", "scaling"])
def test_empty_list_is_a_config_error(tmp_path, capsys, mode):
    # rejected with the config, before any runner makes the output directory
    for key in ("Q_list", "psi_list"):
        cfg = _write(tmp_path, "empty.cfg", f"curve = parabola\n{key} =\noutput_dir = {tmp_path}/e\n")
        assert main([mode, "--config", cfg]) == 1
        assert f"config error: key {key!r} must hold at least one value" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's, on the overflow itself
@pytest.mark.parametrize("mode", ["count", "coverage", "scaling"])
def test_a_y_past_the_doubles_is_an_error(tmp_path, capsys, mode):
    cfg = _write(tmp_path, "steep.cfg", f"curve = poly:0,0,1e306\nQ_list = 400\noutput_dir = {tmp_path}/s\n")
    assert main([mode, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "error: curve poly:0,0,1e306 at Q=400: q f_j(x) - gamma_j is not a finite double" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's, on the overflow itself
@pytest.mark.parametrize("mode", ["count", "scaling"])
def test_a_failed_run_leaves_no_empty_output_dir(tmp_path, capsys, mode):
    cfg = _write(tmp_path, "steep.cfg", f"curve = poly:0,0,1e306\nQ_list = 400\noutput_dir = {tmp_path}/s\n")
    assert main([mode, "--config", cfg]) == 2
    assert not (tmp_path / "s").exists()
    (tmp_path / "s").mkdir()  # a directory the run did not make stays
    assert main([mode, "--config", cfg]) == 2
    assert (tmp_path / "s").is_dir()
    # the missing parents that the run made go too, up to the first directory it found
    deep = _write(tmp_path, "deep.cfg",
                  f"curve = poly:0,0,1e306\nQ_list = 400\noutput_dir = {tmp_path}/s/a/b/c\n")
    assert main([mode, "--config", deep]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["deep.cfg", "s", "steep.cfg"]
    assert not any((tmp_path / "s").iterdir())


def test_missing_config_file(tmp_path):
    assert main(["count", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_precondition_exit_code(tmp_path, capsys):
    # B outside the curve domain is a precondition violation, not a config typo
    cfg = _write(tmp_path, "pre.cfg", f"""
        curve = parabola
        B = 5,20
        Q_list = 16
        output_dir = {tmp_path}/p
    """)
    assert main(["count", "--config", cfg]) == 2


def test_check_failure_exit_code(tmp_path):
    cfg = _write(tmp_path, "cov.cfg", f"""
        curve = parabola
        B = 0,1
        M = 2
        psi_list = 0.3
        Q_list = 512
        coverage.rho_scale = 1e-7
        output_dir = {tmp_path}/c
    """)
    assert main(["coverage", "--config", cfg]) == 3


def test_dim_subcommand(capsys):
    assert main(["dim", "2", "3/4"]) == 0
    out = capsys.readouterr().out
    assert "lower_bound=5/7" in out
    assert "notice" in out


def test_divsum_subcommand(capsys):
    assert main(["divsum", "--tau", "2", "--s", "1", "--n", "2", "--N", "20000"]) == 0
    out = capsys.readouterr().out
    assert "converges" in out


def test_precision_flag(tmp_path):
    cfg = _write(tmp_path, "p.cfg", f"""
        curve = parabola
        B = 0,1
        psi_list = 0.5
        Q_list = 10
        output_dir = {tmp_path}/prec
    """)
    assert main(["count", "--config", cfg, "--precision", "double"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["count", "--config", cfg, "--precision", "extended"])
    assert exc.value.code == 2


def test_bench_worker_argument_list(tmp_path):
    # the argument list bench/worker.py passes on every run
    cfg = _write(tmp_path, "w.cfg", """
        curve = parabola
        B = 0,1
        psi_list = 0.5
        Q_list = 10
    """)
    argv = ["count", "--config", cfg, "--out", str(tmp_path / "w"),
            "--jobs", "1", "--precision", "double"]
    assert main(argv) == 0
    assert (tmp_path / "w" / "counts.csv").exists()


def test_jobs_accepts_only_1(tmp_path):
    cfg = _write(tmp_path, "j.cfg", f"""
        curve = parabola
        B = 0,1
        psi_list = 0.5
        Q_list = 10
        output_dir = {tmp_path}/j
    """)
    with pytest.raises(SystemExit) as exc:
        main(["count", "--config", cfg, "--jobs", "2"])
    assert exc.value.code == 2
    assert not (tmp_path / "j").exists()


def test_parser_is_built_once(capsys):
    # a parser per call would leave its reference cycles for a full collection
    main(["dim", "2", "3/4"])
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        main(["dim", "2", "3/4"])
        gc.collect()
        leaked = [o for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not leaked
