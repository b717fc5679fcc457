import contextlib
import dataclasses
import io
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from polarchan import cli, tomography
from polarchan.bench_sim import affine_map, propagate
from polarchan.channel_analysis import chi_eigenvalues, chi_from_kraus, polar_decompose
from polarchan.cli import ConfigError, _fmt, _fmt_angle, main, parse_config, run_sweep
from polarchan.depolarizer import (
    REFLECTION_COMPENSATION,
    DegenerateLengthRatioWarning,
    DepolarizerSettings,
    build_bench,
    dop_isotropic,
    isotropic_theta1_angles,
    radii_closed_form,
    reachable_region_scan,
)
from polarchan.tomography import TomoSettings, qpt_mle, simulate_counts

from conftest import record_seed_sequence, reference_feasibility_lines, reference_region_lines
from regen_goldens import COUNTS_CASE, DATA, GOLDEN_CASES, counts_config


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("POLARCHAN_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "polarchan", *args],
        capture_output=True, text=True, env=env,
    )


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_valid_fig1_config():
    cfg = parse_config(
        "mode = sweep\npreset = fig1\ntheta1 = 31.32\n"
        "theta2_start = 0\ntheta2_stop = 45\ntheta2_step = 1\n"
    )
    assert cfg.mode == "sweep"
    assert cfg.preset == "fig1"
    assert cfg.theta1 == pytest.approx(31.32)


def test_parse_missing_mode():
    with pytest.raises(ConfigError) as err:
        parse_config("preset = fig1\n")
    assert any("missing required key: mode" in m for m in err.value.errors)


def test_parse_unknown_key_with_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config("mode = region\n\nwibble = 3\n")
    assert any(m.startswith("line 3: unknown key") for m in err.value.errors)


def test_parse_malformed_angle():
    with pytest.raises(ConfigError) as err:
        parse_config("mode = simulate\npreset = fig1\ntheta2 = northwest\n")
    assert any("malformed angle" in m for m in err.value.errors)


def test_parse_degenerate_range():
    bad = "mode = sweep\npreset = fig1\ntheta1 = 10\ntheta2_start = 0\ntheta2_stop = 45\ntheta2_step = 0\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert any("degenerate range" in m for m in err.value.errors)


def test_parse_unknown_preset_and_mode():
    with pytest.raises(ConfigError) as err:
        parse_config("mode = fly\npreset = fig9\n")
    msgs = "\n".join(err.value.errors)
    assert "unknown mode" in msgs and "unknown preset" in msgs


def test_parse_duplicate_key():
    with pytest.raises(ConfigError) as err:
        parse_config("mode = region\ngrid_n = 3\ngrid_n = 4\n")
    assert any("duplicate key" in m for m in err.value.errors)


def test_parse_reports_every_fault_in_order():
    # line faults in file order, then mode and preset, then malformed values in
    # key order, then out-of-range values, then the mode's own checks
    text = (
        "grid_n = many\ntomo = maybe\nwibble = 1\nelement = prism(3)\nlength2 = 0\n"
        "theta1 = nan\nseed = -4\njust some words\nmode = sweep\npreset = fig9\n"
        "theta2_step = 1\ntheta2_step = 2\ntheta2_start = 10\ntheta2_stop = 5\nlength = 1/0\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.errors == [
        "line 3: unknown key 'wibble'",
        "line 8: expected 'key = value', got 'just some words'",
        "line 4: malformed element 'prism(3)' (expected crystal(length, angle), hwp(angle) or qwp(angle))",
        "line 12: duplicate key 'theta2_step' (first on line 11)",
        "line 10: unknown preset 'fig9' (choose from fig1, lyot, two_crystal, rotated_crystals)",
        "line 6: malformed angle for key 'theta1': 'nan'",
        "line 15: malformed length for key 'length': '1/0' (Fraction(1, 0))",
        "line 2: malformed boolean for key 'tomo': 'maybe'",
        "line 1: malformed integer for key 'grid_n': 'many'",
        "line 5: length2 must be positive, got 0",
        "line 7: seed must be non-negative, got -4",
        "sweep mode supports only the fig1 preset",
        "line 11: degenerate range (step 1.0, start 10.0, stop 5.0)",
    ]


def test_parse_inline_elements():
    cfg = parse_config(
        "mode = simulate\nelement = crystal(3/2, 0)\nelement = hwp(22.5)\nelement = qwp(45)\n"
    )
    assert len(cfg.elements) == 3
    assert str(cfg.elements[0].length) == "3/2"
    with pytest.raises(ConfigError) as err:
        parse_config("mode = simulate\nelement = prism(3)\n")
    assert any("malformed element" in m for m in err.value.errors)


def test_parse_bench_exclusivity():
    with pytest.raises(ConfigError) as err:
        parse_config("mode = simulate\npreset = lyot\nelement = hwp(0)\n")
    assert any("mutually exclusive" in m for m in err.value.errors)


def test_presets_checked_and_built_from_one_table(monkeypatch):
    for preset, key in (("fig1", "theta2"), ("two_crystal", "angle"), ("rotated_crystals", "rotation")):
        with pytest.raises(ConfigError) as err:
            parse_config(f"mode = simulate\npreset = {preset}\n")
        assert err.value.errors == [f"preset {preset} requires '{key}'"]
    assert cli.PRESETS == ("fig1", "lyot", "two_crystal", "rotated_crystals")
    # a config built by hand with no bench is refused by name
    with pytest.raises(ConfigError, match="^no bench defined for preset None$"):
        cli.bench_from_config(cli.RunConfig(mode="simulate"))
    # each builder is looked up when it is called, so a patched one is the one called
    built = []
    monkeypatch.setattr(cli, "build_lyot", lambda length: built.append(length) or "bench")
    assert cli.bench_from_config(parse_config("mode = simulate\npreset = lyot\nlength = 3\n")) == "bench"
    assert built == [Fraction(3)]


# ---------------------------------------------------------------------------
# command line behaviour
# ---------------------------------------------------------------------------

def test_help_lists_modes_and_presets():
    res = run_cli("--help")
    assert res.returncode == 0
    for mode in ("simulate", "sweep", "tomo", "feasibility", "region"):
        assert mode in res.stdout
    for preset in ("fig1", "lyot", "two_crystal", "rotated_crystals"):
        assert preset in res.stdout


def test_exit_code_validation_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mode = sweep\npreset = fig1\ntheta1 = 1\n"
                   "theta2_start = 0\ntheta2_stop = 45\ntheta2_step = -1\n")
    res = run_cli("sweep", "--config", str(cfg))
    assert res.returncode == 1
    assert "degenerate range" in res.stderr


@pytest.mark.parametrize("mode,body,lineno", [
    ("simulate", "preset = fig1\ntheta2 = nan\n", 3),
    ("sweep", "preset = fig1\ntheta1 = 10\ntheta2_start = 0\n"
              "theta2_stop = inf\ntheta2_step = 1\n", 5),
    ("sweep", "preset = fig1\ntheta1 = -inf\ntheta2_start = 0\n"
              "theta2_stop = 45\ntheta2_step = 1\n", 3),
    ("sweep", "preset = fig1\ntheta1 = 10\ntheta2_start = nan\n"
              "theta2_stop = 45\ntheta2_step = 1\n", 4),
    ("sweep", "preset = fig1\ntheta1 = 10\ntheta2_start = 0\n"
              "theta2_stop = 45\ntheta2_step = inf\n", 6),
    ("simulate", "preset = two_crystal\nangle = nan\n", 3),
    ("simulate", "preset = rotated_crystals\nrotation = inf\n", 3),
    ("simulate", "element = crystal(1, nan)\n", 2),
    ("simulate", "element = crystal(1, 0)\nelement = hwp(inf)\n", 3),
    ("simulate", "element = crystal(1, 0)\nelement = qwp(-inf)\n", 3),
    ("feasibility", "r_step = nan\n", 2),
])
def test_non_finite_values_rejected(mode, body, lineno, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"mode = {mode}\n{body}")
    assert main([mode, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"polarchan: line {lineno}: malformed ")


@pytest.mark.parametrize("mode,body,message", [
    ("simulate", "preset = lyot\nlength = 0\n", "line 3: length must be positive, got 0"),
    ("simulate", "preset = fig1\ntheta2 = 10\nlength1 = 0\n",
     "line 4: length1 must be positive, got 0"),
    ("tomo", "preset = fig1\ntheta2 = 10\nlength2 = -2\n",
     "line 4: length2 must be positive, got -2"),
    ("sweep", "preset = fig1\ntheta2_start = 0\ntheta2_stop = 10\ntheta2_step = 5\n"
              "length1 = -1/2\n", "line 6: length1 must be positive, got -1/2"),
    ("sweep", "preset = fig1\ntheta2_start = 0\ntheta2_stop = 10\ntheta2_step = 5\n"
              "length2 = 0.0\ntomo = true\n", "line 6: length2 must be positive, got 0"),
])
def test_non_positive_lengths_rejected(mode, body, message, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"mode = {mode}\n{body}")
    assert main([mode, "--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"polarchan: {message}\n")


@pytest.mark.parametrize("mode,body,lineno,reason", [
    ("simulate", "preset = fig1\ntheta2 = 10\nlength1 = 1e10000000\n", 4, "decimal exponent"),
    ("simulate", "preset = lyot\nlength = 1e-1000000\n", 3, "decimal exponent"),
    ("tomo", "preset = fig1\ntheta2 = 10\nlength2 = 2E+1_000_000\n", 4, "decimal exponent"),
    ("simulate", "preset = lyot\nlength = " + "7" * 5000 + "\n", 3, "more than 30 digits"),
    ("simulate", "element = crystal(1e10000000, 0)\n", 2, "decimal exponent"),
    ("simulate", "element = crystal(1, 0)\nelement = crystal(1e-1000000, 30)\n", 3,
     "decimal exponent"),
    ("simulate", "element = crystal(1." + "0" * 40 + "1, 0)\n", 2, "more than 30 digits"),
], ids=["length1", "negative_exponent", "underscored_exponent", "digits", "crystal",
        "crystal_negative_exponent", "crystal_digits"])
def test_length_text_capped_before_parsing(mode, body, lineno, reason, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"mode = {mode}\n{body}")
    start = time.perf_counter()
    assert main([mode, "--config", str(cfg)]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"polarchan: line {lineno}: malformed ")
    assert reason in captured.err.splitlines()[0]


@pytest.mark.parametrize("body", [
    "preset = lyot\nlength = " + "7" * 5000 + "\n",
    "preset = lyot\nlength = 1.5" + "x" * 5000 + "\n",
    "preset = lyot\nangle = " + "9" * 5000 + "\n",
    "preset = " + "p" * 5000 + "\n",
    "k" * 5000 + " = 1\n",
    "v" * 5000 + "\n",
    "element = crystal(1, " + "9" * 5000 + ")\n",
    "preset = lyot\nseed = -" + "9" * 4000 + "\n",
], ids=["length_digits", "length_text", "angle", "preset", "key", "line", "element", "seed"])
def test_offending_values_echoed_bounded(body, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"mode = simulate\n{body}")
    assert main(["simulate", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert lines and all(line.startswith("polarchan: ") for line in lines)
    assert all(len(line.encode()) < 200 for line in lines), lines
    assert "chars)" in captured.err


def test_short_values_echoed_whole():
    assert cli._echo("abc") == "'abc'"
    assert cli._echo(-5) == "-5"
    text = "7" * 61
    assert cli._echo(text) == "'" + "7" * 60 + "…' (61 chars)"
    assert cli._echo(10 ** 100) == "1" + "0" * 59 + "… (101 chars)"


def test_lengths_at_the_caps_parse():
    # 30 digits in all, the exponent's included
    digits = ("1234567890" * 3)[:28]
    cfg = parse_config(f"mode = simulate\nelement = crystal(1.5e30, 0)\n"
                       f"element = crystal({digits}e-30, 45)\n")
    assert [el.length for el in cfg.elements] == [Fraction(15 * 10 ** 29), Fraction(int(digits), 10 ** 30)]
    cfg = parse_config("mode = simulate\npreset = lyot\nlength = 3/2\n")
    assert cfg.length == Fraction(3, 2)


@pytest.mark.parametrize("n", ["-3", "0"])
def test_tomography_sweep_needs_positive_n(n, tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    body = ("mode = sweep\npreset = fig1\ntheta2_start = 0\ntheta2_stop = 10\n"
            f"theta2_step = 5\nn = {n}\n")
    cfg.write_text(body + "tomo = true\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", "polarchan: line 6: n must be at least 1 for tomography\n")
    # without tomography n is unused, as in the other modes
    cfg.write_text(body + "tomo = false\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


@pytest.mark.parametrize("mode,body,lineno", [
    ("tomo", "preset = fig1\ntheta2 = 15\n", 4),
    ("sweep", "preset = fig1\ntheta2_start = 0\ntheta2_stop = 10\ntheta2_step = 5\ntomo = true\n", 7),
])
def test_tomography_shots_capped_below_poisson_limit(mode, body, lineno, tmp_path, capsys):
    # numpy's Poisson sampler refuses means above about 9.2e18
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"mode = {mode}\n{body}n = 100000000000000000000\n")
    assert main([mode, "--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"polarchan: line {lineno}: n must be at most "
                                   "1000000000000000000 (10**18) for tomography, "
                                   "got 100000000000000000000\n")
    cfg.write_text(f"mode = {mode}\n{body}n = 1000000000000000000\n")
    assert main([mode, "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.count("\n") == (2 if mode == "tomo" else 4)


@pytest.mark.parametrize("source", ["flag", "config", "env"])
def test_negative_seed_rejected(source, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "t.cfg"
    body = "mode = tomo\npreset = fig1\ntheta2 = 15\nn = 100\n"
    argv = ["tomo", "--config", str(cfg)]
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    if source == "flag":
        argv += ["--seed", "-1"]
        message = "--seed must be non-negative, got -1"
    elif source == "config":
        body += "seed = -5\n"
        message = "line 5: seed must be non-negative, got -5"
    else:
        monkeypatch.setenv(cli.ENV_SEED, "-3")
        message = f"environment variable {cli.ENV_SEED} must be non-negative, got -3"
    cfg.write_text(body)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"polarchan: {message}\n")


def test_region_grid_capped_before_allocation(tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text("mode = region\ngrid_n = 100000\n")
    assert main(["region", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("polarchan: line 2: region grid of 10000000000 points exceeds")
    assert "decrease grid_n" in err


@pytest.mark.parametrize("grid_n", [1, 2001, 100000])
def test_region_grid_refusal_is_the_library_message(grid_n, tmp_path, capsys):
    # one check owns the region grid rule; the CLI adds only the config line
    with pytest.raises(ValueError) as refused:
        reachable_region_scan(grid_n)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"mode = region\ngrid_n = {grid_n}\n")
    assert main(["region", "--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"polarchan: line 2: {refused.value}\n")


@pytest.mark.parametrize("r_step", ["5e-324", "1e-300", "0.0009", repr(2 / 1999.6)])
def test_feasibility_grid_capped_before_allocation(r_step, tmp_path, capsys):
    # a subnormal step has 2 / r_step = inf points per axis, and 2 / 1999.6 gives
    # 2,001 points per axis, one more than floor(2 / r_step) + 1
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"mode = feasibility\nr_step = {r_step}\n")
    assert main(["feasibility", "--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", "polarchan: line 2: feasibility grid of more than 4000000 points "
                                       "exceeds the limit; increase r_step\n")


def test_sweep_rows_capped_before_allocation(tmp_path, capsys):
    cfg = tmp_path / "long.cfg"
    cfg.write_text("mode = sweep\npreset = fig1\ntheta2_start = 0\n"
                   "theta2_stop = 1e9\ntheta2_step = 1e-9\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("polarchan: line 5: sweep of more than 4000000 rows")
    # a range whose row estimate overflows is refused too
    cfg.write_text("mode = sweep\npreset = fig1\ntheta2_start = -1e308\n"
                   "theta2_stop = 1e308\ntheta2_step = 1e-300\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "sweep of more than" in capsys.readouterr().err


def reference_sweep_thetas(start, stop, step):
    """Step through the rows one at a time, as a sweep used to."""
    values, k = [], 0
    while start + k * step <= stop + 1e-9:
        values.append(start + k * step)
        k += 1
    return values


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e3, 1e3), st.floats(0, 2e3), st.floats(1e-2, 50.0))
def test_sweep_row_count_matches_stepping(start, width, step):
    stop = start + width
    cfg = cli.RunConfig(mode="sweep", theta2_start=start, theta2_stop=stop, theta2_step=step)
    assert cli._sweep_thetas(cfg) == reference_sweep_thetas(start, stop, step)


def test_inline_delay_bins_capped_before_propagation(tmp_path, capsys):
    cfg = tmp_path / "bins.cfg"
    cfg.write_text("mode = simulate\n" + "".join(
        f"element = crystal({2 ** i}, {7 * i})\n" for i in range(17)))
    with mock.patch.object(cli, "propagate", side_effect=AssertionError("propagated")):
        assert main(["simulate", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("polarchan: inline elements may produce more than 65536 delay bins")


def test_exit_code_io_error():
    res = run_cli("region", "--config", "/definitely/not/here.cfg")
    assert res.returncode == 2
    assert "cannot read config" in res.stderr


def test_exit_code_io_error_mid_run(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("mode = tomo\npreset = fig1\ntheta2 = 15\nn = 100\n"
                   "counts_out = /no/such/dir/counts.csv\n")
    res = run_cli("tomo", "--config", str(cfg))
    assert res.returncode == 2
    assert "I/O failure" in res.stderr


def test_exit_code_unwritable_output(tmp_path):
    cfg = tmp_path / "r.cfg"
    cfg.write_text("mode = region\ngrid_n = 3\n")
    res = run_cli("region", "--config", str(cfg), "--out", "/no/such/dir/out.csv")
    assert res.returncode == 2
    assert "cannot write output" in res.stderr


def test_write_failure_on_stdout_names_stdout(tmp_path, capsys, monkeypatch):
    class BrokenPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def writelines(self, lines):
            raise BrokenPipeError(32, "Broken pipe")

    cfg = tmp_path / "r.cfg"
    cfg.write_text("mode = region\ngrid_n = 3\n")
    monkeypatch.setattr(sys, "stdout", BrokenPipe())
    assert main(["region", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "polarchan: cannot write output <stdout>: [Errno 32] Broken pipe\n"


_DEGENERATE = "is degenerate: the closed-form radii do not apply (simulation stays exact)"


def test_degenerate_ratio_warned_once_per_sweep(tmp_path, capsys):
    text = ("mode = sweep\npreset = fig1\ntheta2_start = 0\ntheta2_stop = 45\n"
            "theta2_step = 1\nlength2 = 1\n")
    cfg = tmp_path / "s.cfg"
    cfg.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateLengthRatioWarning)
        expected = "".join(line + "\n" for line in run_sweep(parse_config(text), 1, 0))
    built = []
    with mock.patch.object(cli, "build_bench", lambda s: built.append(s) or build_bench(s)):
        assert main(["sweep", "--config", str(cfg)]) == 0
    assert len(built) == 1  # one bench per sweep; rows differ only in the control plate
    assert capsys.readouterr() == (expected, f"polarchan: warning: length ratio L2/L1 = 1 {_DEGENERATE}\n")


def test_degenerate_ratio_warned_on_every_simulate_run(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("mode = simulate\npreset = fig1\ntheta2 = 10\nlength1 = 2\nlength2 = 1\n")
    for _ in range(2):
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == f"polarchan: warning: length ratio L2/L1 = 1/2 {_DEGENERATE}\n"


def test_other_warnings_pass_through_the_cli(tmp_path, monkeypatch):
    def warn_and_run(cfg):
        warnings.warn("some other warning", UserWarning)
        return ["r1,r2"]

    cfg = tmp_path / "r.cfg"
    cfg.write_text("mode = region\n")
    monkeypatch.setattr(cli, "run_region", warn_and_run)
    with pytest.warns(UserWarning, match="some other warning"):
        assert main(["region", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 0


def test_mode_mismatch_is_validation_error(tmp_path):
    cfg = tmp_path / "r.cfg"
    cfg.write_text("mode = region\ngrid_n = 3\n")
    res = run_cli("sweep", "--config", str(cfg))
    assert res.returncode == 1
    assert "mode mismatch" in res.stderr


def test_env_seed_and_override(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("mode = tomo\npreset = fig1\ntheta2 = 15\nn = 500\n")
    base = run_cli("tomo", "--config", str(cfg))
    env = run_cli("tomo", "--config", str(cfg), env_extra={"POLARCHAN_SEED": "9"})
    override = run_cli("tomo", "--config", str(cfg), "--seed", "0",
                       env_extra={"POLARCHAN_SEED": "9"})
    assert base.returncode == env.returncode == override.returncode == 0
    assert base.stdout != env.stdout       # env seed picked up over default 0
    assert base.stdout == override.stdout  # --seed wins over env
    assert rows_of(env.stdout)[1].endswith(",9")


def rows_of(text):
    return [line for line in text.splitlines() if line]


# ---------------------------------------------------------------------------
# sweep content
# ---------------------------------------------------------------------------

def test_sweep_rows_match_reference_dops():
    cfg = parse_config(
        "mode = sweep\npreset = fig1\ntheta1 = 31.316097420688664\n"
        "theta2_start = 0\ntheta2_stop = 45\ntheta2_step = 1\n"
    )
    lines = run_sweep(cfg, jobs=1, seed=0)
    header = lines[0].split(",")
    dop_col = header.index("dop_closed")
    lam1_col = header.index("lambda1")
    table = {float(r.split(",")[0]): r.split(",") for r in lines[1:]}
    assert len(table) == 46
    for theta2, expected in ((4.0, 0.97), (15.0, 2 / 3), (22.0, 0.36), (30.0, 0.0)):
        assert round(float(table[theta2][dop_col]), 2) == round(expected, 2)
    # identity row spectrum
    row0 = table[0.0]
    assert [float(row0[lam1_col + i]) for i in range(4)] == pytest.approx([1, 0, 0, 0], abs=1e-12)
    # dop column follows cos(4 theta2) monotonically
    dops = [float(table[t][dop_col]) for t in sorted(table)]
    assert all(a >= b - 1e-12 for a, b in zip(dops, dops[1:]))


def test_sweep_csv_reparses():
    cfg = parse_config(
        "mode = sweep\npreset = fig1\ntheta1 = 10\n"
        "theta2_start = 0\ntheta2_stop = 20\ntheta2_step = 5\n"
    )
    lines = run_sweep(cfg, jobs=2, seed=0)
    header = lines[0].split(",")
    dop_col = header.index("dop_closed")
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(header)
        for i, cell in enumerate(cells[:12]):
            if i == dop_col:
                assert cell == ""  # off the isotropic line
            else:
                float(cell)  # numeric columns parse


def reference_sweep_row(cfg, theta1, theta2, seed=None, stream=0):
    """One sweep row through the one-bench API, formatted cell by cell."""
    bench = build_bench(DepolarizerSettings(theta1, theta2, cfg.length1, cfg.length2))
    kraus = propagate(bench)
    sim = polar_decompose(REFLECTION_COMPENSATION @ affine_map(kraus).matrix).radii
    lams = chi_eigenvalues(chi_from_kraus(kraus))
    on_iso_line = any(abs(theta1 - root) < 1e-6 for root in isotropic_theta1_angles())
    cells = [_fmt_angle(theta2)] + [_fmt(v) for v in radii_closed_form(theta1, theta2)]
    cells.append(_fmt(dop_isotropic(theta2)) if on_iso_line else "")
    cells += [_fmt(v) for v in sim] + [_fmt(v) for v in lams]
    if seed is None:
        cells += [""] * 5
    else:
        record = simulate_counts(kraus, TomoSettings(shots=cfg.n, seed=seed), stream=stream)
        cells += [_fmt(v) for v in chi_eigenvalues(qpt_mle(record).chi)] + [str(seed)]
    return ",".join(cells)


# steps that hit 0 and 45 exactly from a start of -m * step
_STEPS = st.sampled_from([0.5, 1.0, 2.5, 3.0, 7.5, 9.0, 15.0, 22.5, 45.0])
_THETA1 = st.one_of(st.sampled_from([0.0, 45.0, 22.5, *isotropic_theta1_angles()]),
                    st.floats(-90.0, 90.0))
_LENGTHS = st.sampled_from([(1, 2), (2, 3), (1, 1), (2, 1), (3, 3), ("3/2", 7), (1, 3)])


@settings(max_examples=30, deadline=None)
@given(_THETA1, _STEPS, st.integers(0, 4), st.integers(0, 4), _LENGTHS, st.integers(1, 300))
# the degenerate ratios 1 and 1/2 send 89 and 90 of these 91 rows to the
# polar_decompose fallback of the compensated radii; ratios 2 and 3/2 send none
@example(isotropic_theta1_angles()[1], 0.5, 0, 0, (1, 1), 40)
@example(isotropic_theta1_angles()[1], 0.5, 0, 0, (2, 1), 40)
def test_sweep_rows_match_one_bench_reference(theta1, step, before, after, lengths, block):
    length1, length2 = (Fraction(v) for v in lengths)
    cfg = cli.RunConfig(mode="sweep", preset="fig1", theta1=theta1,
                        theta2_start=-before * step, theta2_stop=45.0 + after * step,
                        theta2_step=step, length1=length1, length2=length2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateLengthRatioWarning)
        with mock.patch.object(cli, "_SWEEP_BLOCK", block):
            lines = run_sweep(cfg, jobs=1, seed=0)
        thetas = cli._sweep_thetas(cfg)
        assert 0.0 in thetas and 45.0 in thetas
        assert lines[1:] == [reference_sweep_row(cfg, theta1, t2) for t2 in thetas]


def test_tomo_sweep_rows_match_reference_across_blocks():
    cfg = parse_config("mode = sweep\npreset = fig1\ntheta2_start = 0\ntheta2_stop = 45\n"
                       "theta2_step = 7.5\ntomo = true\nn = 300\n")
    theta1 = isotropic_theta1_angles()[1]
    expected = [reference_sweep_row(cfg, theta1, t2, 40, stream=i)
                for i, t2 in enumerate(cli._sweep_thetas(cfg))]
    with mock.patch.object(cli, "_SWEEP_BLOCK", 3):
        for jobs in (1, 2):
            assert run_sweep(cfg, jobs=jobs, seed=40)[1:] == expected


def drawn_streams(cfg, seed):
    """(run seed, stream) of every count record a tomography sweep draws."""
    drawn = []
    poisson_table = tomography._poisson_table

    def spy(seed_, stream, lam):
        drawn.append((seed_, stream))
        return poisson_table(seed_, stream, lam)

    with mock.patch.object(tomography, "_poisson_table", spy):
        run_sweep(cfg, jobs=1, seed=seed)
    return drawn


def test_sweep_rows_share_no_stream():
    cfg = parse_config("mode = sweep\npreset = fig1\ntheta2_start = 0\ntheta2_stop = 45\n"
                       "theta2_step = 15\ntomo = true\nn = 200\n")
    # row i draws stream i of the run seed, not stream 0 of seed + i
    keys = drawn_streams(cfg, 42) + drawn_streams(cfg, 43)
    assert keys == [(seed, i) for seed in (42, 43) for i in range(4)]
    seqs = [record_seed_sequence(seed, stream) for seed, stream in keys]
    assert len({(seq.entropy, seq.spawn_key) for seq in seqs}) == len(seqs)
    # the 128-bit Philox key each stream starts from
    assert len({seq.generate_state(2, np.uint64).tobytes() for seq in seqs}) == len(seqs)


def test_tomo_reproduces_sweep_row_zero():
    tomo = parse_config("mode = tomo\npreset = fig1\ntheta2 = 15\nn = 2000\n")
    sweep = parse_config("mode = sweep\npreset = fig1\ntheta2_start = 15\ntheta2_stop = 30\n"
                         "theta2_step = 15\ntomo = true\nn = 2000\n")
    tomo_row = cli.run_tomo(tomo, seed=7)[1].split(",")
    sweep_rows = [line.split(",") for line in run_sweep(sweep, jobs=1, seed=7)[1:]]
    assert sweep_rows[0][12:17] == tomo_row[:4] + ["7"]
    assert sweep_rows[1][16] == "7"  # every row prints the run seed


def test_sweep_reports_unconverged_fits(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("mode = sweep\npreset = fig1\ntheta2_start = 0\ntheta2_stop = 20\n"
                   "theta2_step = 5\ntomo = true\nn = 300\nseed = 10\n")
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "2"]) == 0
    assert capsys.readouterr().err == ""
    converged_bytes = out.read_bytes()

    # every row shares the run seed, so each record is tagged with the stream it
    # was drawn from; a record is alive, and its id unique, until its fit returns
    streams = {}

    def tagged_counts(design, chi, labels, settings, stream):
        record = tomography._draw_counts(design, chi, labels, settings, stream)
        streams[id(record)] = stream
        return record

    def flaky_mle(record):
        fit = qpt_mle(record)
        return dataclasses.replace(fit, converged=streams[id(record)] not in (1, 3))

    with mock.patch.object(cli, "_draw_counts", tagged_counts), \
            mock.patch.object(cli, "qpt_mle", flaky_mle):
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "2"]) == 0
    assert capsys.readouterr().err == (
        "polarchan: warning: sweep row 1 (theta2 = 5.000000): MLE fit did not converge\n"
        "polarchan: warning: sweep row 3 (theta2 = 15.000000): MLE fit did not converge\n"
    )
    assert out.read_bytes() == converged_bytes


# ---------------------------------------------------------------------------
# grid modes: row-chunked formatting and writing
# ---------------------------------------------------------------------------

_DEFAULTS = cli.RunConfig(mode="region")

#: (mode, config key, value or None for the default, reference lines)
GRID_CASES = (
    [("region", "grid_n", n, reference_region_lines) for n in (None, 2, 3, 46)]
    + [("feasibility", "r_step", s, reference_feasibility_lines) for s in (None, 0.25, 0.7, 2.0)]
)


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize("mode,key,value,reference", GRID_CASES,
                         ids=[f"{m}-{k}-{v}" for m, k, v, _ in GRID_CASES])
def test_grid_modes_match_row_at_a_time_reference(mode, key, value, reference, to_file,
                                                   tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"mode = {mode}\n" + ("" if value is None else f"{key} = {value}\n"))
    expected = ("\n".join(reference(getattr(_DEFAULTS, key) if value is None else value))
                + "\n").encode()
    out = tmp_path / "grid.csv"
    argv = [mode, "--config", str(cfg)] + (["--out", str(out)] if to_file else [])
    assert main(argv) == 0
    written = capsys.readouterr().out.encode()
    assert (out.read_bytes() if to_file else written) == expected


def _cell_texts(cells) -> list:
    return [bytes(cell).replace(b"\0", b"").decode() for cell in cells]


def test_g12_cells_keep_signed_zeros_apart():
    grid = np.array([[0.0, -0.0, 1.5], [-0.0, 0.0, -0.0]])
    assert _cell_texts(cli._g12_cells(grid)) == ["0", "-0", "1.5", "-0", "0", "-0"]


def _from_bits(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


def _nudged(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = float(np.nextafter(value, np.copysign(np.inf, ulps)))
    return value


_SIGN = st.sampled_from([1.0, -1.0])
#: biased exponent fields of the doubles from 2**-14 to 2**10, which hold the fast window
_WINDOW_EXPONENTS = st.integers(1023 - 14, 1023 + 9)
_G12_VALUES = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(_from_bits),
    st.tuples(st.integers(0, 1), _WINDOW_EXPONENTS, st.integers(0, 2 ** 52 - 1)).map(
        lambda t: _from_bits(t[0] << 63 | t[1] << 52 | t[2])),
    st.tuples(st.integers(-2 ** 53, 2 ** 53), st.integers(0, 60)).map(lambda t: t[0] / 2 ** t[1]),
    st.tuples(st.floats(1e-5, 1e4), st.integers(10, 13), _SIGN).map(
        lambda t: t[2] * float(f"{t[0]:.{t[1]}g}")),
    st.tuples(st.integers(10 ** 11, 10 ** 12 - 1), st.integers(-16, -10), _SIGN).map(
        lambda t: t[2] * float(f"{t[0]}5e{t[1]}")),
    st.tuples(st.sampled_from([float(f"1e{k}") for k in range(-4, 4)]), st.integers(-4, 4), _SIGN).map(
        lambda t: t[2] * _nudged(t[0], t[1])),
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]),
    st.tuples(st.integers(0, 1), st.integers(1, 2 ** 52 - 1)).map(lambda t: _from_bits(t[0] << 63 | t[1])),
)


def _decidable(value: float) -> bool:
    """Whether ``value`` lies in [1e-4, 1e3) in magnitude, its exact 12-digit
    significand is more than 2**-14 (the float product's error) from a tie,
    and it rounds to less than 1000: a value whose %.12g text the fast
    path's arithmetic fixes."""
    a = Fraction(abs(value))
    if not Fraction(1, 10 ** 4) <= a < 1000:
        return False
    exponent = -4
    while a >= Fraction(10) ** (exponent + 1):
        exponent += 1
    scaled = a * Fraction(10) ** (11 - exponent)
    fraction = scaled - math.floor(scaled)
    rounded = round(scaled) * Fraction(10) ** (exponent - 11)
    return abs(fraction - Fraction(1, 2)) > Fraction(1, 2 ** 14) and rounded < 1000


@settings(max_examples=300, deadline=None)
@given(st.lists(_G12_VALUES, min_size=1, max_size=64))
def test_g12_cells_match_percent_format(values):
    # random bits in and out of the fast window, dyadic values, values of
    # 10-13 digits, decimal ties at the 13th digit, a few ulp around each power
    # of ten of the window, signed zeros, NaN, infinities and subnormals
    x = np.array(values)
    assert _cell_texts(cli._g12_cells(x)) == ["%.12g" % v for v in values]
    fast, _ = cli._g12_fast(x)
    assert all(_decidable(v) for v in x[fast].tolist())


def test_region_peak_memory_bounded_by_output(tmp_path):
    # rows are formatted and written in chunks: the whole CSV is never
    # joined into one string next to its lines
    cfg = tmp_path / "region.cfg"
    cfg.write_text("mode = region\n")
    out = tmp_path / "region.csv"
    tracemalloc.start()
    try:
        assert main(["region", "--config", str(cfg), "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.stat().st_size


# ---------------------------------------------------------------------------
# golden outputs (regression-fixed, bit-identical across runs and --jobs)
# ---------------------------------------------------------------------------

# GOLDEN_CASES and COUNTS_CASE come from regen_goldens.py, which rewrites them


@pytest.mark.parametrize("mode,cfg_name,golden_name", GOLDEN_CASES)
def test_golden_outputs(mode, cfg_name, golden_name, tmp_path):
    out = tmp_path / "out.csv"
    res = run_cli(mode, "--config", str(DATA / cfg_name), "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert out.read_bytes() == (DATA / golden_name).read_bytes()


def test_sweep_identical_across_jobs(tmp_path):
    outs = []
    for jobs in ("1", "4"):
        out = tmp_path / f"out{jobs}.csv"
        res = run_cli("sweep", "--config", str(DATA / "cfg_sweep.cfg"),
                      "--out", str(out), "--jobs", jobs)
        assert res.returncode == 0, res.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] == (DATA / "golden_sweep.csv").read_bytes()


def test_tomo_counts_out_matches_tomography_golden(tmp_path):
    # the CLI writes the same record the library produces for these settings
    counts = tmp_path / "counts.csv"
    cfg = tmp_path / "t.cfg"
    cfg.write_text(counts_config(counts))
    res = run_cli("tomo", "--config", str(cfg))
    assert res.returncode == 0, res.stderr
    assert counts.read_bytes() == (DATA / COUNTS_CASE[1]).read_bytes()


# ---------------------------------------------------------------------------
# the config grammar, fuzzed
# ---------------------------------------------------------------------------

#: value texts from the grammar's edges, tried under every key
_EDGE_VALUES = [
    "", "=", "==", "0", "-1", "nan", "NaN", "inf", "-inf", "+Infinity", "1e10000000", "-1e-1000000",
    "2E+1_000_000", "1e400", "5e-324", "1/3", "-1/2", "3/0", "0/0", "1_000", "\u0661\u0662",
    "\u0663/\u0664", "\u00b2", "0x10", "7" * 40, "9" * 5000, "true", "x", "1 2", "(", "crystal(1, 0)",
]

#: keys the parser does not know, and lines that are not ``key = value``
_UNKNOWN_KEYS = ["wibble", "Mode", "theta 1", "length3", "", "\u00e9l\u00e9ment"]
_STRAY_LINES = ["= 5", "mode", "mode == simulate", "# comment", "", "   ", "=", "preset = fig1 = 2",
                "theta2 = 15 # note", "\u2028", "element ="]


def _number_text(values):
    """Mostly the text of one of ``values``; else an edge value or a run of number characters."""
    return st.sampled_from(["value"] * 8 + ["edge", "text"]).flatmap(lambda kind: {
        "value": values.map(str),
        "edge": st.sampled_from(_EDGE_VALUES),
        "text": st.text(alphabet="0123456789.-+eE/_ =", max_size=10),
    }[kind])


def _angle_text():
    return _number_text(st.floats(-1e3, 1e3) | st.floats(allow_nan=True, allow_infinity=True))


def _element_text():
    angle = _angle_text()
    return st.one_of(
        st.tuples(_number_text(st.integers(1, 6)), angle).map(lambda args: "crystal(%s, %s)" % args),
        st.tuples(st.sampled_from(["hwp", "qwp"]), angle).map(lambda args: "%s(%s)" % args),
        st.tuples(st.sampled_from(["crystal", "hwp", "qwp", "plate"]),
                  st.lists(_number_text(st.integers(-2, 6)), max_size=3).map(", ".join)).map(
            lambda args: "%s(%s)" % args),
    )


#: value text per known key; every valid size stays small (grid_n <= 60, r_step >= 0.05,
#: and sweeps of more than 50 rows are skipped below)
_VALUES = {
    "mode": st.sampled_from(list(cli.MODES) + ["Simulate", "fig1"]),
    "preset": st.sampled_from(list(cli.PRESETS) + ["Fig1", "lyot2"]),
    "element": _element_text(),
    "theta1": _angle_text(), "theta2": _angle_text(), "angle": _angle_text(), "rotation": _angle_text(),
    "theta2_start": _number_text(st.floats(-100, 100)), "theta2_stop": _number_text(st.floats(-100, 100)),
    "theta2_step": _number_text(st.floats(4, 100) | st.floats(-1, 0) | st.floats(1e-320, 1e-3)),
    "length": _number_text(st.integers(1, 5) | st.floats(1e-30, 1e30)),
    "length1": _number_text(st.integers(1, 5)), "length2": _number_text(st.integers(1, 5)),
    "tomo": st.sampled_from(["true", "false", "TRUE", "yes", ""]),
    "n": _number_text(st.integers(-5, 2 * tomography.MAX_SHOTS)),
    "seed": _number_text(st.integers(-5, 2 ** 64)),
    "r_step": _number_text(st.floats(0.05, 3) | st.floats(-1, 0) | st.floats(0, 1e-3, exclude_min=True)),
    "grid_n": _number_text(st.integers(-3, 60) | st.integers(2001, 10 ** 40)),
    # "@" stands for the example's own temporary directory
    "out": st.sampled_from(["@/out.csv", "@/missing/out.csv", "@", ""]),
    "counts_out": st.sampled_from(["@/counts.csv", "@/missing/counts.csv", "@", ""]),
}
assert set(_VALUES) == {*cli._KEYS, "element"}

_ODD_LINE = st.one_of(
    st.tuples(st.sampled_from(_UNKNOWN_KEYS), _number_text(st.integers())).map(" = ".join),
    st.sampled_from(_STRAY_LINES),
)

#: valid bodies per mode, which the fuzzed lines then join or replace
_TEMPLATES = {
    "simulate": (["preset = lyot"], ["preset = fig1", "theta2 = 15"],
                 ["element = crystal(1, 0)", "element = hwp(22.5)", "element = crystal(2, 45)"]),
    "tomo": (["preset = fig1", "theta2 = 15", "n = 1000"], ["preset = two_crystal", "angle = 30"]),
    "sweep": (["preset = fig1", "theta2_start = 0", "theta2_stop = 45", "theta2_step = 5"],
              ["theta2_start = 0", "theta2_stop = 10", "theta2_step = 1", "tomo = true", "n = 500"]),
    "feasibility": (["r_step = 0.25"],),
    "region": (["grid_n = 20"],),
}


def _key(line: str) -> str:
    return line.split("=", 1)[0].strip()


@st.composite
def _fuzzed_config(draw):
    """(mode, config lines): a template of the mode, up to three ``key = value`` lines that
    favour the template's keys and replace its lines of the same key (or, now and then,
    duplicate them), and at times one line with an unknown key or no ``key = value`` shape."""
    mode = draw(st.sampled_from(cli.MODES))
    template = [f"mode = {mode}", *draw(st.sampled_from(_TEMPLATES[mode]))]
    keys = sorted(_VALUES) + 4 * [_key(line) for line in template]
    line = st.sampled_from(keys).flatmap(lambda key: _VALUES[key].map(lambda v: f"{key} = {v}"))
    lines = draw(st.lists(line, max_size=3, unique_by=_key))
    if not draw(st.sampled_from([False] * 3 + [True])):
        template = [t for t in template if _key(t) not in {_key(x) for x in lines}]
    odd = draw(st.one_of(st.none(), _ODD_LINE))
    return mode, template + lines + ([] if odd is None else [odd])


def _small(cfg) -> bool:
    """Whether a valid config's run stays small: the sizes the fuzz bounds."""
    if cfg.mode == "sweep":
        return cli._sweep_row_count(cfg.theta2_start, cfg.theta2_stop, cfg.theta2_step) <= 50
    return {"region": cfg.grid_n <= 60, "feasibility": cfg.r_step >= 0.05}.get(cfg.mode, True)


@settings(max_examples=200, deadline=None)
@given(_fuzzed_config(), st.booleans(), st.sampled_from([None] * len(cli.MODES) + list(cli.MODES)))
def test_fuzzed_configs_exit_cleanly(config, to_file, cli_mode):
    # cli_mode None runs the config's own mode
    mode, lines = config
    with tempfile.TemporaryDirectory() as tmp:
        text = "\n".join(lines).replace("@", tmp) + "\n"
        try:
            cfg = parse_config(text)
        except ConfigError as exc:
            assert exc.errors and all(isinstance(m, str) and m for m in exc.errors)
        else:
            assume(_small(cfg))
        path = os.path.join(tmp, "fuzz.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [cli_mode or mode, "--config", path] + (["--out", os.path.join(tmp, "o.csv")] if to_file else [])
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), warnings.catch_warnings():
            os.environ.pop(cli.ENV_SEED, None)
            warnings.simplefilter("ignore")  # degenerate-ratio warnings are not CLI output
            tracemalloc.start()
            try:
                start = time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                wall = time.perf_counter() - start
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
    event(f"{mode}: exit {code}")
    assert code in (0, 1, 2)
    assert all(line.startswith("polarchan: ") for line in err.getvalue().splitlines()), err.getvalue()
    assert wall <= 2.0 and peak <= 64 * 2 ** 20, (wall, peak)


def test_config_that_is_not_utf8_is_a_validation_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"mode = simulate\npreset = lyot\n# \xff\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"polarchan: config {str(cfg)!r} is not UTF-8 text "
                                       "(invalid start byte at byte 32)\n")
