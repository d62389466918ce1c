"""Golden-bytes CLI test: pinned configs must print exactly the recorded stdout.

The expected output of every config in CONFIGS is kept in
tests/data/cli_golden.json.  A change that is meant to keep the CLI output
byte-identical must pass this test unchanged.  To record the output of a
tree whose output is known to be right, run from the root of a checkout:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from zenogate import cli

DATA = pathlib.Path(__file__).parent / "data" / "cli_golden.json"

# name -> argv; every command, both branch counts, every design strategy
# with n_max 200 and 400, all four enhance mechanisms, csv and json, and the
# atom at four wavelengths
CONFIGS = {
    "gate_2": ["gate", "--branches", "2", "--N", "1000", "--kappa", "1000"],
    "gate_2_control": ["gate", "--branches", "2", "--N", "1000", "--kappa", "1000", "--control"],
    "gate_3_json": ["gate", "--branches", "3", "--N", "200", "--kappa", "500", "--format", "json"],
    "gate_3_rates_control_json": ["gate", "--N", "60", "--xi1", "0.001", "--xi2", "0.5",
                                  "--control", "--format", "json"],
    "curve_2": ["curve", "--samples", "15"],
    "curve_3_json": ["curve", "--branches", "3", "--N", "200", "--kappa", "500",
                     "--xi2-max", "0.5", "--samples", "9", "--format", "json"],
    "design_all_200": ["design", "--p-target", "0.25"],
    "design_min_n_400": ["design", "--p-target", "0.1", "--strategy", "min_n", "--n-max", "400"],
    "design_balanced_400_json": ["design", "--p-target", "0.3", "--strategy", "balanced",
                                 "--n-max", "400", "--format", "json"],
    "design_min_kappa_200": ["design", "--p-target", "0.2", "--strategy", "min_kappa"],
    "design_all_400_json": ["design", "--p-target", "0.05", "--n-max", "400",
                            "--format", "json"],
    "design_all_p09": ["design", "--p-target", "0.9", "--n-max", "30"],
    "tables": ["tables"],
    "tables_json": ["tables", "--wavelength", "600", "--format", "json"],
    "demo": ["demo", "--N", "10"],
    "demo_json": ["demo", "--N", "1000", "--format", "json"],
    "absorber": ["absorber"],
    "absorber_lambda_json": ["absorber", "--lambda-scheme", "--format", "json"],
    "enhance_multipass": ["enhance", "--mechanism", "multipass"],
    "enhance_dicke_json": ["enhance", "--mechanism", "dicke", "--S", "1000", "--s", "10",
                           "--format", "json"],
    "enhance_random_phase": ["enhance", "--mechanism", "random_phase", "--S", "500",
                             "--trials", "50", "--seed", "7"],
    "enhance_pump_json": ["enhance", "--mechanism", "pump", "--format", "json"],
    # the atom at other wavelengths, with a given beam area and dipole length
    "absorber_780_area_dipole": ["absorber", "--wavelength", "780", "--area", "90000",
                                 "--dipole-length", "0.4"],
    "absorber_1064_f_lambda_json": ["absorber", "--wavelength", "1064", "--f", "0.5",
                                    "--lambda-scheme", "--format", "json"],
    "tables_420_delta_control": ["tables", "--wavelength", "420", "--delta-control", "5e13"],
    "enhance_pump_650": ["enhance", "--mechanism", "pump", "--wavelength", "650"],
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_every_config_is_recorded(golden):
    assert sorted(golden) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_stdout_is_byte_identical(golden, name):
    code, stdout = run_cli(CONFIGS[name])
    assert code == 0
    assert stdout == golden[name]


if __name__ == "__main__":
    recorded = {}
    for name, argv in CONFIGS.items():
        code, stdout = run_cli(argv)
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        recorded[name] = stdout
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
