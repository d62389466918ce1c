"""Command-line surface tests: dispatch, formats, config handling, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zenogate
from zenogate import absorber, cli, enhancement
from zenogate.gate import GateGeometry, optimal_rates, segment_matrix


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


class TestDemo:
    def test_ten_segment_survival(self, capsys):
        code, out, err = run_cli(capsys, "demo", "--N", "10")
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert float(rows[0]["survival"]) == pytest.approx(0.780546069781, rel=1e-11)
        assert "0.780546069781" in out  # 12 significant digits

    def test_single_measurement(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "--N", "1")
        _, rows = parse_csv(out)
        assert float(rows[0]["survival"]) < 1e-30

    def test_provenance_block(self, capsys):
        _, out, _ = run_cli(capsys, "demo", "--N", "10")
        assert out.startswith("# zenogate ")
        assert "# seed=0" in out
        assert "# config_hash=" in out
        assert "# units:" in out


class TestGateCommand:
    def test_single_segment_against_matrix_oracle(self, capsys):
        # N=1 three-branch sanity path: epsilon defaults to pi/sqrt(2)
        kappa = 1e9
        rates, _ = optimal_rates(kappa, 1, branches=3)
        seg_1 = segment_matrix(GateGeometry(3, 1), rates.one_photon)
        seg_2 = segment_matrix(GateGeometry(3, 1), rates.two_photon)
        expected_no = 1.0 - abs(seg_1[2, 0]) ** 2
        expected_with = 1.0 - abs(seg_2[0, 0]) ** 2

        code, out, _ = run_cli(capsys, "gate", "--branches", "3", "--N", "1",
                               "--kappa", "1e9")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["p_error_exact"]) == pytest.approx(expected_no, rel=1e-9)

        code, out, _ = run_cli(capsys, "gate", "--branches", "3", "--N", "1",
                               "--kappa", "1e9", "--control")
        _, rows = parse_csv(out)
        assert float(rows[0]["p_error_exact"]) == pytest.approx(expected_with, rel=1e-9)
        assert expected_no != pytest.approx(expected_with, rel=1e-3)

    def test_rates_required(self, capsys):
        code, _, err = run_cli(capsys, "gate", "--N", "10")
        assert code == 2
        assert "kappa" in err

    @pytest.mark.parametrize("argv", [
        ("--xi1", "0.01", "--xi2", "0", "--control"),   # no absorber: pi^2/(N*0)
        ("--xi1", "inf", "--xi2", "inf"),                # N*inf/2
    ], ids=["no_absorber", "infinite_rates"])
    def test_leading_order_is_clipped_to_one(self, capsys, argv):
        # the truncation is clipped as in the curve command (it printed inf)
        code, out, err = run_cli(capsys, "gate", "--N", "10", *argv)
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert float(rows[0]["p_error_leading"]) == 1.0
        assert 0.0 <= float(rows[0]["p_error_exact"]) <= 1.0


class TestCurveCommand:
    def test_columns_and_range(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--samples", "15")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["xi_2gamma", "p1_exact", "p2_exact", "p1_approx", "p2_approx"]
        assert len(rows) == 15
        assert float(rows[0]["xi_2gamma"]) == 0.0
        assert float(rows[-1]["xi_2gamma"]) == pytest.approx(0.14, rel=1e-12)


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv, word", [
        (("gate", "--N", "100", "--kappa", "nan"), "kappa"),
        (("gate", "--N", "100", "--kappa", "inf"), "kappa"),
        (("gate", "--N", "100", "--xi1", "nan", "--xi2", "1"), "one_photon"),
        (("curve", "--kappa", "nan"), "kappa"),
        (("demo", "--N", "inf"), "N"),
        (("absorber", "--wavelength", "0"), "wavelength"),
        (("absorber", "--delta", "nan"), "delta"),
        (("absorber", "--delta", "inf"), "delta"),
        (("absorber", "--area", "inf"), "area"),
        (("enhance", "--mechanism", "multipass", "--tau", "nan"), "tau"),
        (("enhance", "--mechanism", "multipass", "--tau", "inf"), "tau"),
        (("enhance", "--mechanism", "random_phase", "--box", "nan"), "box"),
        # arithmetic failures: l^2 underflows in 1/(m*l^2), omega1 overflows
        (("absorber", "--dipole-length", "1e-200"), "ZeroDivisionError"),
        (("tables", "--delta", "1", "--delta-control", "1",
          "--dipole-length", "4.7308984197589396e-179"), "ZeroDivisionError"),
        (("absorber", "--wavelength", "1.5734782585690014e-266",
          "--area", "0.0004659342528409768", "--dipole-length", "1"), "OverflowError"),
        # out of the model's range: printed p_2gamma = 3.4e11 as a probability
        (("absorber", "--area", "1e-6"), "area"),
        (("enhance", "--mechanism", "pump", "--S", "-1"), "S"),
        (("enhance", "--mechanism", "pump", "--intensity", "-1"), "intensity"),
        (("enhance", "--mechanism", "random_phase", "--S", "-1"), "S"),
        (("enhance", "--mechanism", "random_phase", "--box", "-5"), "box"),
        # excited fraction s/S above 1 (inf and 1514.8 were printed)
        (("enhance", "--mechanism", "pump", "--intensity", "1e300"), "intensity"),
        (("enhance", "--mechanism", "pump", "--intensity", "1e14"), "intensity"),
        # (lambda/2)^2 underflows to a zero diffraction-limited beam area
        (("absorber", "--wavelength", "1e-300"), "wavelength"),
        (("tables", "--wavelength", "1e-300"), "wavelength"),
        (("enhance", "--mechanism", "pump", "--wavelength", "1e-300"), "wavelength"),
    ])
    def test_rejected_with_exit_code_2(self, capsys, argv, word):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and word in err

    @pytest.mark.parametrize("argv", [
        ("gate", "--N", "100", "--xi1", "0.01", "--xi2", "inf"),   # perfect absorber
        ("curve", "--kappa", "inf", "--samples", "3"),             # no one-photon loss
    ])
    def test_infinite_rates_are_limits(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        for row in rows:
            for name in ("p_error_exact", "p1_exact", "p2_exact"):
                if name in row:
                    assert 0.0 <= float(row[name]) <= 1.0


class TestDesignCommand:
    def test_three_strategies(self, capsys):
        code, out, _ = run_cli(capsys, "design", "--p-target", "0.5",
                               "--kappa-max", "2000", "--n-max", "50")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3
        for row in rows:
            assert max(float(row["p1_exact"]), float(row["p2_exact"])) <= 0.5

    @pytest.mark.parametrize("flags, word", [
        (("--kappa-max", "0.9"), "kappa_max"),   # bisection starts at kappa = 1
        (("--kappa-max", "nan"), "kappa_max"),
        (("--n-max", "0"), "n_max"),
        (("--n-max", "-3"), "n_max"),
    ])
    def test_bad_search_config_exit_code(self, capsys, flags, word):
        code, out, err = run_cli(capsys, "design", "--p-target", "0.9", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and word in err

    def test_feasibility_gap_in_n_is_skipped(self, capsys):
        # P = 0.9: N = 2 is infeasible between feasible N = 1 and N = 3
        code, out, err = run_cli(capsys, "design", "--p-target", "0.9")
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert [int(row["segments"]) for row in rows] == [1, 3, 200]
        for row in rows:
            assert max(float(row["p1_exact"]), float(row["p2_exact"])) <= 0.9

    def test_infeasible_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "design", "--p-target", "0.001",
                               "--kappa-max", "10", "--n-max", "30")
        assert code == 3
        assert "kappa" in err


class TestTablesCommand:
    def test_reference_rows(self, capsys):
        code, out, _ = run_cli(capsys, "tables")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[:4] == ["table", "p_target", "segments", "kappa"]
        assert len(rows) == 18  # 9 feasibility rows + three detail tables of 3
        small_n = [r for r in rows if r["table"] == "2"]
        assert len(small_n) == 3
        row = next(r for r in small_n if r["segments"] == "8")
        assert float(row["kappa"]) == pytest.approx(22.0, rel=0.20)
        assert float(row["p2_segment"]) == pytest.approx(0.99, abs=0.005)
        assert float(row["p1_segment"]) == pytest.approx(0.21, abs=0.005)
        assert abs(int(row["enhancement"]) - 471) / 471 < 0.10


class TestAbsorberCommand:
    def test_reference_absorber(self, capsys):
        code, out, _ = run_cli(capsys, "absorber")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["p_2gamma"]) == pytest.approx(8.79e-11, rel=1e-2)
        assert float(rows[0]["kappa0"]) == pytest.approx(0.0479, abs=5e-4)

    def test_lambda_scheme_flag(self, capsys):
        _, out, _ = run_cli(capsys, "absorber", "--delta", "3e9",
                            "--delta-control", "3e10", "--f", "0.03", "--lambda-scheme")
        _, rows = parse_csv(out)
        assert 1e-8 <= float(rows[0]["p_2gamma"]) <= 1e-6

    @pytest.mark.parametrize("given", [
        {},
        {"wavelength": 780.0, "delta": 2e12, "delta_control": 4e13},
        {"wavelength": 1064.0, "delta": 5e11, "delta_control": 6e12},
    ])
    def test_atom_is_the_optical_example(self, given):
        # one diffraction-limit convention: the same atom field for field, bit for bit
        raw = {name: (value, None) for name, value in given.items()}
        atom = cli._atom_from_params(cli._effective_parameters("absorber", raw))
        assert atom == absorber.optical_example(*given.values())


class TestEnhanceCommand:
    def test_multipass_default_is_phase_matched(self, capsys):
        _, out, _ = run_cli(capsys, "enhance", "--mechanism", "multipass", "--n", "16")
        _, rows = parse_csv(out)
        p2 = float(rows[0]["p_2gamma"])
        scatter = float(rows[0]["p_1gamma_scatter"])
        assert p2 / scatter == pytest.approx(16.0, rel=1e-9)

    def test_random_phase_echoes_seed_and_is_deterministic(self, capsys):
        args = ("enhance", "--mechanism", "random_phase", "--S", "500",
                "--trials", "20", "--seed", "7")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        assert "# seed=7" in out1
        _, out3, _ = run_cli(capsys, *args[:-2], "--seed", "8")
        assert out3 != out1

    @pytest.mark.parametrize("argv, word", [
        (("--tau", "-1"), "tau must be >= 0"),           # printed p_2gamma = 256
        (("--tau", "0.1"), "tau*|g|*n = 1.6"),           # printed p_2gamma = 2.56
        (("--n", "100000000"), "tau*|g|*n = 1e+05"),     # built a 1e8-element sum
    ], ids=["negative_tau", "tau_0.1", "n_1e8"])
    def test_multipass_out_of_range_is_rejected(self, capsys, argv, word):
        code, out, err = run_cli(capsys, "enhance", "--mechanism", "multipass", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and word in err

    def test_out_of_memory_is_exit_code_2(self, capsys, monkeypatch):
        # S = 1e11 asked NumPy for 2.18 TiB; raised here instead of allocated
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.18 TiB")

        monkeypatch.setattr(enhancement, "random_phase_sum", exhausted)
        code, out, err = run_cli(capsys, "enhance", "--mechanism", "random_phase",
                                 "--S", "100000000000")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "MemoryError" in err

    def test_pump_summary(self, capsys):
        _, out, _ = run_cli(capsys, "enhance", "--mechanism", "pump")
        _, rows = parse_csv(out)
        assert float(rows[0]["s_over_S"]) == pytest.approx(1.51e-5, rel=1e-2)


class TestOutputAndFormats:
    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "--N", "10", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["provenance"]["seed"] == 0
        assert doc["rows"][0]["survival"] == pytest.approx(0.780546069781, rel=1e-11)

    def test_json_writes_infinity_as_the_csv_token(self, capsys, tmp_path):
        # JSON has no inf: a strict parser rejects the bare Infinity token
        def strict(text):
            def refuse(token):
                raise ValueError(f"non-JSON constant {token}")
            return json.loads(text, parse_constant=refuse)

        argv = ["gate", "--N", "10", "--xi1", "0.01", "--xi2", "inf"]
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert strict(out)["rows"][0]["xi_2gamma"] == "inf"
        _, csv_out, _ = run_cli(capsys, *argv)
        assert parse_csv(csv_out)[1][0]["xi_2gamma"] == "inf"
        # the printed config is valid JSON too, and reads back as the same run
        _, cfg_text, _ = run_cli(capsys, *argv, "--print-config")
        assert strict(cfg_text)["parameters"]["xi2"]["value"] == "inf"
        cfg = tmp_path / "effective.json"
        cfg.write_text(cfg_text)
        _, via_config, _ = run_cli(capsys, "--config", str(cfg))
        assert via_config == csv_out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "demo.csv"
        code, out, _ = run_cli(capsys, "demo", "--N", "10", "--output", str(target))
        assert code == 0 and out == ""
        assert "survival" in target.read_text()

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "demo", "--N", "10",
                               "--output", str(tmp_path / "missing" / "x.csv"))
        assert code == 4
        assert err != ""

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, "tables", "--format", "csv")
        _, out2, _ = run_cli(capsys, "tables", "--format", "csv")
        assert out1 == out2


class TestConfigFile:
    def test_minimal_demo_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "demo",
            "parameters": {"N": {"value": 1, "unit": "dimensionless"}},
        }))
        code, out, _ = run_cli(capsys, "--config", str(cfg))
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["survival"]) < 1e-30

    def test_unit_mismatch_names_parameter(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "demo",
            "parameters": {"N": {"value": 10, "unit": "eV"}},
        }))
        code, _, err = run_cli(capsys, "--config", str(cfg))
        assert code == 2
        assert "'N'" in err

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "demo", "parameters": {}, "bogus": 1}))
        code, _, err = run_cli(capsys, "--config", str(cfg))
        assert code == 2
        assert "bogus" in err

    def test_unknown_parameter_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "demo",
            "parameters": {"M": {"value": 10, "unit": ""}},
        }))
        code, _, err = run_cli(capsys, "--config", str(cfg))
        assert code == 2
        assert "'M'" in err

    def test_print_config_round_trip(self, capsys, tmp_path):
        argv = ["curve", "--kappa", "500", "--N", "200", "--samples", "11"]
        code, cfg_text, _ = run_cli(capsys, *argv, "--print-config")
        assert code == 0
        cfg = tmp_path / "effective.json"
        cfg.write_text(cfg_text)

        _, direct, _ = run_cli(capsys, *argv)
        _, via_config, _ = run_cli(capsys, "--config", str(cfg))
        assert via_config == direct

    def test_cli_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "demo",
            "parameters": {"N": {"value": 1, "unit": ""}},
            "format": "json",
            "seed": 4,
        }))
        code, out, _ = run_cli(capsys, "--config", str(cfg), "demo", "--N", "10")
        assert code == 0
        # N from the flag; format and seed, which only the file sets, from the file
        doc = json.loads(out)
        assert doc["provenance"]["seed"] == 4
        assert doc["rows"][0]["survival"] == pytest.approx(0.780546069781, rel=1e-11)

    def test_config_units_are_converted(self, capsys, tmp_path):
        # wavelength given in metres must equal the nm default run
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "absorber",
            "parameters": {"wavelength": {"value": 5e-7, "unit": "m"}},
        }))
        _, via_config, _ = run_cli(capsys, "--config", str(cfg))
        _, direct, _ = run_cli(capsys, "absorber", "--wavelength", "500")
        v1 = parse_csv(via_config)[1][0]["p_2gamma"]
        v2 = parse_csv(direct)[1][0]["p_2gamma"]
        assert float(v1) == pytest.approx(float(v2), rel=1e-9)


class TestGlobalFlags:
    """Flags common to every command work before the subcommand too."""

    def test_format_and_seed_before_the_subcommand(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "--seed", "5", "demo", "--N", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["provenance"]["seed"] == 5
        assert doc["rows"][0]["segments"] == 3

    def test_config_before_the_subcommand(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "demo",
            "parameters": {"N": {"value": 10, "unit": ""}},
        }))
        code, out, err = run_cli(capsys, "--config", str(cfg), "demo")
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert rows[0]["segments"] == "10"

    def test_print_config_before_the_subcommand(self, capsys):
        code, out, _ = run_cli(capsys, "--print-config", "demo", "--N", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "demo"
        assert doc["parameters"]["N"] == {"unit": "", "value": 3}

    def test_flag_after_the_subcommand_wins(self, capsys):
        code, out, _ = run_cli(capsys, "--seed", "5", "demo", "--N", "3", "--seed", "6")
        assert code == 0
        assert "# seed=6" in out


def test_cli_import_leaves_out_the_oracles_and_absorber_numpy():
    # a fresh interpreter: this one has imported the oracles for other tests
    code = ("import sys, types, zenogate.cli, zenogate.absorber as a; "
            "print('zenogate.oracles' in sys.modules, "
            "any(isinstance(v, types.ModuleType) and v.__name__ == 'numpy' "
            "for v in vars(a).values()))")
    env = {**os.environ, "PYTHONPATH": str(Path(zenogate.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "False"]
