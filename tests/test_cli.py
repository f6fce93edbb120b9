import csv
import io
import json
import math
import subprocess
import sys

import pytest
from jsonschema import validate as schema_validate

from diracline import cli
from diracline.schemas import _schema_path  # helper added for tests/tools

from _oracles import composite_simpson

ALPHA_STAR_STR = "0.7071067811865476"


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def load_schema():
    with open(_schema_path()) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# spectrum

def test_spectrum_published_values_csv(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--alpha", ALPHA_STAR_STR, "--levels", "4", "--deterministic"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["index", "nu", "branch", "energy_plus", "energy_minus", "residual"]
    nus = [float(r[1]) for r in rows]
    assert abs(nus[0]) <= 1e-6
    assert nus[1] == pytest.approx(1.524, abs=5e-3)
    assert nus[2] == pytest.approx(2.681, abs=5e-3)
    assert nus[3] == pytest.approx(3.914, abs=5e-3)
    assert [r[2] for r in rows] == ["Plus", "Minus", "Plus", "Minus"]
    # energies come in symmetric pairs
    for r in rows:
        assert float(r[4]) == -float(r[3])


def test_spectrum_m_g_equivalent_to_alpha(capsys):
    _, out_alpha, _ = run_cli(
        ["spectrum", "--alpha", ALPHA_STAR_STR, "--levels", "2", "--deterministic"],
        capsys,
    )
    _, out_mg, _ = run_cli(
        ["spectrum", "--m", "1", "--g", "2", "--levels", "2", "--deterministic"],
        capsys,
    )
    nus_alpha = [float(r[1]) for r in parse_csv(out_alpha)[1]]
    nus_mg = [float(r[1]) for r in parse_csv(out_mg)[1]]
    # m/sqrt(g) differs from the literal alpha by one ulp of rounding, so
    # the orders agree to roundoff rather than bit-for-bit
    for a, b in zip(nus_alpha, nus_mg):
        assert b == pytest.approx(a, rel=1e-9, abs=1e-9)


def test_spectrum_metadata_reports_scan_start(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--alpha", "3", "--levels", "2", "--format", "json",
         "--deterministic"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    window = record["metadata"]["window"]
    # the phase march starts at the floor and may run up to the cap
    assert set(window) == {"nu_floor", "nu_max"}
    assert window["nu_floor"] == pytest.approx(4.68199013703, abs=1e-10)
    assert window["nu_max"] == 199.0
    assert window["nu_floor"] < record["rows"][0][1]


def test_spectrum_metadata_window_covers_roots(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--alpha", "13", "--levels", "2", "--format", "json",
         "--deterministic"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    nu_max = record["metadata"]["window"]["nu_max"]
    assert all(row[1] <= nu_max for row in record["rows"])


def test_spectrum_above_window_cap_exits_2(capsys):
    code, _, err = run_cli(["spectrum", "--alpha", "20", "--levels", "6"], capsys)
    assert code == 2
    assert "nu <= 199" in err


def test_spectrum_usage_errors(capsys):
    assert run_cli(["spectrum", "--alpha", "1", "--levels", "0"], capsys)[0] == 1
    assert run_cli(["spectrum", "--alpha", "1", "--m", "1", "--g", "1"], capsys)[0] == 1
    assert run_cli(["spectrum", "--levels", "2"], capsys)[0] == 1
    assert run_cli(["spectrum", "--m", "1", "--levels", "2"], capsys)[0] == 1
    assert run_cli(["spectrum", "--alpha", "1", "--tol-nu", "1e-3"], capsys)[0] == 1
    assert run_cli(["spectrum", "--alpha", "1", "--step", "0.01"], capsys)[0] == 1
    assert run_cli(["oracle-compare", "--alpha", "1", "--e-step", "0.05"], capsys)[0] == 1


# ---------------------------------------------------------------------------
# scan

def test_scan_flags_sign_change_near_zero(capsys):
    code, out, _ = run_cli(
        ["scan", "--alpha", ALPHA_STAR_STR, "--branch", "plus", "--nu-min", "-0.5",
         "--nu-max", "0.5", "--step", "0.01", "--deterministic"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["nu", "residual_eq_ratio", "residual_eq_deriv", "sign_change"]
    flagged = [float(r[0]) for r in rows if r[3] == "true"]
    assert len(flagged) == 1
    assert abs(flagged[0]) <= 0.011


def test_scan_branch_duality_columnwise(capsys):
    _, out, _ = run_cli(
        ["scan", "--alpha", "1.0", "--branch", "minus", "--nu-min", "0", "--nu-max",
         "3", "--step", "0.1", "--deterministic"],
        capsys,
    )
    _, rows = parse_csv(out)
    for r in rows:
        ratio, deriv = float(r[1]), float(r[2])
        assert abs(ratio + deriv) <= 1e-10 * max(1.0, abs(ratio), abs(deriv))


def test_scan_empty_range_header_only(capsys):
    code, out, _ = run_cli(
        ["scan", "--alpha", "1.0", "--branch", "plus", "--nu-min", "2", "--nu-max",
         "2", "--deterministic"],
        capsys,
    )
    assert code == 0
    assert out == "nu,residual_eq_ratio,residual_eq_deriv,sign_change\n"


# ---------------------------------------------------------------------------
# wavefunction

def test_wavefunction_normalized_csv_reintegrates_to_one(capsys):
    code, out, _ = run_cli(
        ["wavefunction", "--alpha", ALPHA_STAR_STR, "--level", "1", "--x-min", "-6",
         "--x-max", "6", "--dx", "0.01", "--normalize", "--deterministic"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "psi1", "psi2"]
    dens = [float(r[1]) ** 2 + float(r[2]) ** 2 for r in rows]
    norm = composite_simpson(dens, 0.01)
    assert norm == pytest.approx(1.0, abs=1e-6)


def test_wavefunction_metadata_has_coefficients(capsys):
    code, out, _ = run_cli(
        ["wavefunction", "--alpha", ALPHA_STAR_STR, "--level", "1", "--format",
         "json", "--deterministic"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    coeffs = record["metadata"]["coefficients"]
    assert set(coeffs) == {"c_plus", "d_plus", "c_minus", "d_minus"}
    assert record["metadata"]["energy"] == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_wavefunction_out_of_range_grid_exits_3(capsys):
    code, _, err = run_cli(
        ["wavefunction", "--alpha", ALPHA_STAR_STR, "--level", "1", "--x-min", "-30",
         "--x-max", "30"],
        capsys,
    )
    assert code == 3
    assert "eta" in err


@pytest.mark.parametrize("alpha", ["17", "19"])
def test_wavefunction_normalize_at_large_alpha(alpha, capsys):
    # the automatic halfwidth stops where eta_L reaches the evaluation box,
    # and the norm of D values near 1e170 no longer overflows
    code, out, err = run_cli(
        ["wavefunction", "--alpha", alpha, "--level", "1", "--x-min", "-0.5",
         "--x-max", "0.5", "--dx", "0.5", "--normalize", "--format", "json",
         "--deterministic"],
        capsys,
    )
    assert code == 0, err
    record = json.loads(out)
    assert record["metadata"]["norm_error"] < 1e-5
    assert all(math.isfinite(v) for row in record["rows"] for v in row)


def test_wavefunction_unknown_level_exits_2(capsys):
    code, _, _ = run_cli(
        ["wavefunction", "--alpha", "0", "--level", "400"],
        capsys,
    )
    assert code == 2


# ---------------------------------------------------------------------------
# hermite-check

def test_hermite_check_single_root(capsys):
    code, out, err = run_cli(
        ["hermite-check", "--alpha", ALPHA_STAR_STR, "--n-max", "250",
         "--deterministic"],
        capsys,
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 251
    roots = [int(r[0]) for r in rows if r[3] == "true"]
    assert roots == [0]
    assert "1 integer root(s)" in err


def test_hermite_check_single_row(capsys):
    code, out, _ = run_cli(
        ["hermite-check", "--alpha", "1.0", "--n-max", "0", "--deterministic"],
        capsys,
    )
    assert code == 0
    assert len(parse_csv(out)[1]) == 1


def test_hermite_check_json_metadata(capsys):
    code, out, _ = run_cli(
        ["hermite-check", "--alpha", ALPHA_STAR_STR, "--n-max", "10", "--format",
         "json", "--deterministic"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["metadata"]["root_count"] == 1
    assert record["metadata"]["roots_at"] == [0]


def test_hermite_check_usage(capsys):
    assert run_cli(["hermite-check", "--alpha", "1", "--n-max", "251"], capsys)[0] == 1


# ---------------------------------------------------------------------------
# oracle-compare

def test_oracle_compare_passes_at_default_tolerance(capsys):
    code, out, _ = run_cli(
        ["oracle-compare", "--alpha", ALPHA_STAR_STR, "--levels", "3",
         "--deterministic"],
        capsys,
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 3
    assert all(r[5] == "true" for r in rows)
    assert all(float(r[4]) <= 1e-4 for r in rows)


def test_oracle_compare_metadata_shooting_keys(capsys):
    code, out, _ = run_cli(
        ["oracle-compare", "--alpha", ALPHA_STAR_STR, "--levels", "1",
         "--format", "json", "--deterministic"],
        capsys,
    )
    assert code == 0
    shooting = json.loads(out)["metadata"]["shooting"]
    assert set(shooting) == {"x_max", "h", "e_min", "e_max"}


def test_oracle_compare_tight_tolerance_exits_4_with_output(capsys):
    code, out, _ = run_cli(
        ["oracle-compare", "--alpha", ALPHA_STAR_STR, "--levels", "2",
         "--tol-energy", "1e-14", "--deterministic"],
        capsys,
    )
    assert code == 4
    _, rows = parse_csv(out)  # table still written
    assert len(rows) == 2
    assert any(r[5] == "false" for r in rows)


# ---------------------------------------------------------------------------
# output contract

ALL_COMMANDS = [
    ["spectrum", "--alpha", ALPHA_STAR_STR, "--levels", "2"],
    ["scan", "--alpha", ALPHA_STAR_STR, "--branch", "plus", "--nu-min", "0",
     "--nu-max", "1", "--step", "0.1"],
    ["wavefunction", "--alpha", ALPHA_STAR_STR, "--level", "1", "--x-min", "-1",
     "--x-max", "1", "--dx", "0.1"],
    ["hermite-check", "--alpha", ALPHA_STAR_STR, "--n-max", "5"],
    ["oracle-compare", "--alpha", ALPHA_STAR_STR, "--levels", "1"],
]


@pytest.mark.parametrize("args", ALL_COMMANDS, ids=lambda a: a[0])
def test_deterministic_runs_are_byte_identical(args, capsys):
    code1, out1, _ = run_cli(args + ["--deterministic"], capsys)
    code2, out2, _ = run_cli(args + ["--deterministic"], capsys)
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()
    code3, out3, _ = run_cli(args + ["--deterministic", "--format", "json"], capsys)
    code4, out4, _ = run_cli(args + ["--deterministic", "--format", "json"], capsys)
    assert code3 == code4 == 0
    assert out3.encode() == out4.encode()


@pytest.mark.parametrize("args", ALL_COMMANDS, ids=lambda a: a[0])
def test_json_output_validates_against_shipped_schema(args, capsys):
    _, out, _ = run_cli(args + ["--format", "json", "--deterministic"], capsys)
    record = json.loads(out)
    schema_validate(record, load_schema())


def test_json_tolerances_echo_tol_energy_only(capsys):
    _, out, _ = run_cli(
        ["spectrum", "--alpha", "1", "--levels", "1", "--format", "json",
         "--tol-energy", "1e-3", "--deterministic"],
        capsys,
    )
    record = json.loads(out)
    assert record["schema_version"] == "4"
    assert record["metadata"]["tolerances"] == {"tol_energy": 1e-3}


def test_timestamp_present_without_deterministic(capsys):
    _, out, _ = run_cli(
        ["spectrum", "--alpha", "1", "--levels", "1", "--format", "json"], capsys
    )
    assert "timestamp" in json.loads(out)["metadata"]
    _, out, _ = run_cli(
        ["spectrum", "--alpha", "1", "--levels", "1", "--format", "json",
         "--deterministic"],
        capsys,
    )
    assert "timestamp" not in json.loads(out)["metadata"]


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        ["spectrum", "--alpha", "1", "--levels", "1", "--deterministic", "--out",
         str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""
    text = target.read_bytes()
    assert text.endswith(b"\n")
    assert b"\r" not in text
    _, stdout_run, _ = run_cli(
        ["spectrum", "--alpha", "1", "--levels", "1", "--deterministic"], capsys
    )
    assert text.decode() == stdout_run


def test_csv_floats_round_trip(capsys):
    _, out, _ = run_cli(
        ["spectrum", "--alpha", ALPHA_STAR_STR, "--levels", "2", "--deterministic"],
        capsys,
    )
    _, rows = parse_csv(out)
    for r in rows:
        for cell in (r[1], r[3], r[4], r[5]):
            value = float(cell)
            assert "%.17g" % value == cell


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "diracline.cli", "spectrum", "--alpha", "1",
         "--levels", "1", "--deterministic"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("index,nu,branch")
