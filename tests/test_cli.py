import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from singletsim.analysis import fit_lorentzian
from singletsim.cli import (
    _PROTOCOL_KEYS,
    ConfigError,
    cmd_fit,
    cmd_scan,
    cmd_simulate,
    load_config,
    main,
    read_trace_file,
)
from singletsim.hamiltonian import pair_center_offset, resonant_nutation
from singletsim.sequences import PROTOCOL_FIELDS
from singletsim.trace import Trace

from cli_cases import ALL_FIELDS_CONFIGS, strict_json, synthetic_trace

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def rabi_config(**extra):
    cfg = {
        "preset": "glutamate",
        "protocol": {
            "kind": "rabi",
            "source_pair": 0,
            "readout_pair": 1,
            "transfer": {"nutation_hz": 599.31, "transmitter_ppm": 2.04},
            "sweep": {"start": 0.02, "stop": 1.5, "count": 60},
        },
    }
    cfg.update(extra)
    return cfg


class TestLoadConfig:
    def test_glutamate_preset_resolves_shifts(self, tmp_path):
        config = load_config(write_config(tmp_path, rabi_config()))
        assert config.system.n_spins == 4
        # pair centers at 2.04 and 2.30 ppm on a 200 MHz instrument
        assert abs(pair_center_offset(config.system, 0) - 408.0) < 1e-9
        assert abs(pair_center_offset(config.system, 1) - 460.0) < 1e-9

    def test_phe_gly_gly_preset_pair_positions(self, tmp_path):
        cfg = rabi_config(preset="phe-gly-gly")
        cfg["protocol"]["transfer"] = {"nutation_hz": 280.0, "transmitter_ppm": 3.89}
        config = load_config(write_config(tmp_path, cfg))
        assert abs(pair_center_offset(config.system, 0) - 3.89 * 200) < 1e-9
        assert abs(pair_center_offset(config.system, 1) - 3.71 * 200) < 1e-9

    def test_ppm_conversion(self, tmp_path):
        config = load_config(write_config(tmp_path, rabi_config()))
        dnu12 = pair_center_offset(config.system, 1) - pair_center_offset(config.system, 0)
        assert abs(dnu12 - 0.26 * 200) < 1e-9  # 52 Hz

    def test_explicit_system_block(self, tmp_path):
        cfg = {
            "system": {
                "spectrometer_mhz": 200.0,
                "spins": [{"shift_ppm": 1.0}, {"offset_hz": 190.0}],
                "couplings_hz": [[0.0, 7.0], [7.0, 0.0]],
                "pairs": [[0, 1]],
            },
            "protocol": {
                "kind": "rabi",
                "readout_pair": 0,  # the one pair
                "transfer": {"nutation_hz": 100.0, "transmitter_offset_hz": 195.0},
                "sweep": {"values": [0.1, 0.2, 0.3]},
            },
        }
        config = load_config(write_config(tmp_path, cfg))
        assert np.allclose(config.system.offsets_hz, [200.0, 190.0])

    def test_missing_couplings_matrix(self, tmp_path):
        cfg = {
            "system": {"spins": [{"shift_ppm": 1.0}], "pairs": []},
            "protocol": {
                "kind": "rabi",
                "transfer": {"nutation_hz": 1.0},
                "sweep": {"values": [0.1]},
            },
        }
        with pytest.raises(ConfigError, match="couplings_hz"):
            load_config(write_config(tmp_path, cfg))

    def test_preset_and_system_mutually_exclusive(self, tmp_path):
        cfg = rabi_config()
        cfg["system"] = {"spins": [], "couplings_hz": []}
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(write_config(tmp_path, cfg))
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(write_config(tmp_path, {"protocol": {}}))

    def test_noise_requires_seed(self, tmp_path):
        cfg = rabi_config(noise={"sigma": 0.01})
        with pytest.raises(ConfigError, match="seed"):
            load_config(write_config(tmp_path, cfg))

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json }")
        with pytest.raises(ConfigError, match="line 1"):
            load_config(path)

    def test_invalid_sweep_named(self, tmp_path):
        cfg = rabi_config()
        cfg["protocol"]["sweep"] = {"values": [0.3, 0.2]}
        with pytest.raises(ConfigError, match="strictly increasing"):
            load_config(write_config(tmp_path, cfg))

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown preset"):
            load_config(write_config(tmp_path, rabi_config(preset="caffeine")))

    def test_unknown_envelope_field_named(self, tmp_path):
        cfg = rabi_config(envelope={"t_rabi_s": 1.6, "t_1_s": 3.0})
        with pytest.raises(ConfigError, match="t_1_s"):
            load_config(write_config(tmp_path, cfg))


class TestConfigHeader:
    @pytest.mark.parametrize(
        "config", [*CONFIGS, *ALL_FIELDS_CONFIGS.values()],
        ids=[*(c.stem for c in CONFIGS), *(f"all_fields_{kind}" for kind in ALL_FIELDS_CONFIGS)],
    )
    def test_header_reruns_byte_identical(self, tmp_path, config):
        if isinstance(config, dict):
            config = write_config(tmp_path, config)
        first = cmd_simulate(config, tmp_path / "first")
        header = [l for l in first.read_text().splitlines() if l.startswith("# config: ")]
        assert len(header) == 1
        reloaded = tmp_path / "header.json"
        reloaded.write_text(header[0][len("# config: "):])
        second = cmd_simulate(reloaded, tmp_path / "second")
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("kind", list(ALL_FIELDS_CONFIGS))
    def test_header_records_every_protocol_field(self, tmp_path, kind):
        config = ALL_FIELDS_CONFIGS[kind]
        out = cmd_simulate(write_config(tmp_path, config), tmp_path / "run")
        line = next(l for l in out.read_text().splitlines() if l.startswith("# config: "))
        header = json.loads(line[len("# config: "):])
        protocol = header["protocol"]
        row = {key for key, (name, *_) in _PROTOCOL_KEYS.items() if name in PROTOCOL_FIELDS[kind]}
        assert set(protocol) == set(config["protocol"]) == {"kind", *row}
        for key, value in config["protocol"].items():
            if key not in ("transfer", "free_lock", "sweep", "scan_tau"):  # written in Hz and as values
                assert protocol[key] == value
        for lock in {"transfer", "free_lock"} & row:
            assert protocol[lock]["phase_deg"] == config["protocol"][lock]["phase_deg"]
        assert header["noise"] == {"sigma": 0.01, "seed": 7}
        envelope = {("t_2s_star_s" if k == "t2s_star_s" else k): v for k, v in config["envelope"].items()}
        assert header["envelope"] == envelope


class TestSimulate:
    def test_trace_file_round_trip(self, tmp_path):
        cfg_path = write_config(tmp_path, rabi_config())
        out = cmd_simulate(cfg_path, tmp_path / "run")
        x, y = read_trace_file(out)
        assert x.size == 60
        assert np.all(np.isfinite(y))
        header = out.read_text().splitlines()
        assert header[0].startswith("#")
        assert any("config:" in line for line in header[:5])

    def test_determinism(self, tmp_path):
        cfg_path = write_config(tmp_path, rabi_config(noise={"sigma": 0.02, "seed": 42}))
        a = cmd_simulate(cfg_path, tmp_path / "a").read_bytes()
        b = cmd_simulate(cfg_path, tmp_path / "b").read_bytes()
        assert a == b

    def test_noise_changes_with_seed(self, tmp_path):
        a = cmd_simulate(
            write_config(tmp_path, rabi_config(noise={"sigma": 0.02, "seed": 1}), "c1.json"),
            tmp_path / "n1",
        ).read_bytes()
        b = cmd_simulate(
            write_config(tmp_path, rabi_config(noise={"sigma": 0.02, "seed": 2}), "c2.json"),
            tmp_path / "n2",
        ).read_bytes()
        assert a != b

    def test_single_point_sweep(self, tmp_path):
        cfg = rabi_config()
        cfg["protocol"]["sweep"] = {"values": [0.25]}
        out = cmd_simulate(write_config(tmp_path, cfg), tmp_path / "single")
        x, y = read_trace_file(out)
        assert x.size == 1

    def test_envelope_applied(self, tmp_path):
        cfg = rabi_config(envelope={"t_rabi_s": 1.6})
        out_env = cmd_simulate(write_config(tmp_path, cfg, "env.json"), tmp_path / "env")
        out_raw = cmd_simulate(write_config(tmp_path, rabi_config(), "raw.json"), tmp_path / "raw")
        _, y_env = read_trace_file(out_env)
        _, y_raw = read_trace_file(out_raw)
        assert y_env[-1] < y_raw[-1]


class TestFit:
    def make_synthetic_trace(self, tmp_path, kind="rabi"):
        path = tmp_path / f"{kind}.csv"
        path.write_text("\n".join(synthetic_trace(kind)) + "\n")
        return path

    def test_rabi_report(self, tmp_path):
        trace = self.make_synthetic_trace(tmp_path)
        report_path = tmp_path / "report.json"
        result = cmd_fit(trace, "rabi", report_path)
        assert abs(result.params["frequency_hz"] / 2.57 - 1) < 1e-6
        report = json.loads(report_path.read_text())
        assert report["converged"] is True
        assert abs(report["params"]["t_rabi_s"] / 1.6 - 1) < 1e-6
        curve = report_path.with_name("report_curve.csv")
        assert curve.exists()

    def test_ramsey_report(self, tmp_path):
        trace = self.make_synthetic_trace(tmp_path, "ramsey")
        result = cmd_fit(trace, "ramsey", tmp_path / "ramsey.json")
        assert abs(result.params["frequency_hz"] / 2.33 - 1) < 1e-6

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.1\n0.2\n")
        with pytest.raises(ConfigError, match="columns"):
            cmd_fit(path, "rabi", tmp_path / "out.json")

    def test_unknown_model(self, tmp_path):
        trace = self.make_synthetic_trace(tmp_path)
        with pytest.raises(ConfigError, match="unknown model"):
            cmd_fit(trace, "gaussian", tmp_path / "out.json")

    def test_simulated_glutamate_pipeline(self, tmp_path):
        # end to end: simulate at the resonance condition, fit the file
        cfg = rabi_config()
        cfg["protocol"]["transfer"]["nutation_hz"] = 599.31
        cfg["protocol"]["sweep"] = {"start": 0.02, "stop": 2.5, "count": 125}
        out = cmd_simulate(write_config(tmp_path, cfg), tmp_path / "glu")
        result = cmd_fit(out, "rabi", tmp_path / "glu.json", no_decay=True)
        assert abs(result.params["frequency_hz"] / 2.57 - 1) < 0.02


class TestScan:
    def scan_config(self, targets, tau_stop=1.6, tau_count=80):
        nus = sorted(resonant_nutation(52.0, d) for d in targets)
        return {
            "preset": "glutamate",
            "protocol": {
                "kind": "resonance_scan",
                "triplet_init": "phi_minus",
                "transfer": {"nutation_hz": 500.0, "transmitter_ppm": 2.04},
                "sweep": {"values": nus},
                "scan_tau": {"start": 0.02, "stop": tau_stop, "count": tau_count},
            },
        }

    def test_scan_output_and_lorentzian(self, tmp_path):
        cfg = self.scan_config([1.0, 1.6, 2.25, 3.0, 4.0, 5.5, 7.0])
        out = cmd_scan(write_config(tmp_path, cfg), tmp_path / "scan")
        lines = out.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 7
        footer = [l for l in lines if l.startswith("# lorentzian:")]
        assert footer
        fit = json.loads(footer[0].split("# lorentzian:")[1])
        assert abs(fit["params"]["center"] / 2.25 - 1) < 0.15

    def test_mirrored_scan_fits_as_a_dip(self, tmp_path):
        # the shipped scan's amplitudes A and their mirror 1 - A share the centre and width
        out = cmd_scan(CONFIG_DIR / "glutamate_scan.json", tmp_path / "scan")
        rows = np.array([[float(v) for v in l.split(",")] for l in out.read_text().splitlines() if l[0] != "#"])
        peak = fit_lorentzian((rows[:, 1], rows[:, 2]))
        dip = fit_lorentzian((rows[:, 1], 1.0 - rows[:, 2]))
        assert dip.converged and dip.params["height"] < 0
        assert abs(dip.params["center"] - peak.params["center"]) < 1e-6
        assert abs(dip.params["fwhm"] / peak.params["fwhm"] - 1) < 1e-6

    def test_lorentzian_header_refits_from_the_rows(self, tmp_path):
        # the header is the fit of the amplitudes as scan.csv writes them
        lines = cmd_scan(CONFIG_DIR / "glutamate_scan.json", tmp_path / "scan").read_text().splitlines()
        rows = np.array([[float(v) for v in l.split(",")] for l in lines if l[0] != "#"])
        header = json.loads(next(l for l in lines if l.startswith("# lorentzian:")).split("# lorentzian:")[1])
        refit = fit_lorentzian((rows[:, 1], rows[:, 2]))
        assert refit.params == header["params"] and refit.uncertainties == header["uncertainties"]
        assert (refit.rss, refit.n_iterations) == (header["rss"], header["n_iterations"])

    def test_non_finite_lorentzian_numbers_are_null(self, tmp_path, monkeypatch):
        # infinite sigmas and a NaN chi-square are written null: the header stays strict JSON
        def unbounded(data):
            fit = fit_lorentzian(data)
            return replace(fit, uncertainties=dict.fromkeys(fit.uncertainties, np.inf), reduced_chi_square=np.nan)

        monkeypatch.setattr("singletsim.cli.fit_lorentzian", unbounded)
        lines = cmd_scan(CONFIG_DIR / "glutamate_scan.json", tmp_path / "scan").read_text().splitlines()
        header = strict_json(next(l for l in lines if l.startswith("# lorentzian:")).split("# lorentzian:")[1])
        assert set(header["uncertainties"].values()) == {None} and header["reduced_chi_square"] is None
        assert None not in header["params"].values()

    def test_flat_scan_skips_lorentzian(self, tmp_path, capsys, monkeypatch):
        # equal amplitudes give no centre or width: the header is left out with a warning
        def flat_scan(system, protocol, envelope):
            n = len(protocol.sweep)
            metadata = {"delta_nu_n_hz": np.linspace(-3.0, 3.0, n), "fitted_frequency_hz": np.full(n, 2.5)}
            return Trace(protocol.sweep, np.full(n, 0.4), None, metadata)

        monkeypatch.setattr("singletsim.cli.run_protocol", flat_scan)
        out = cmd_scan(CONFIG_DIR / "glutamate_scan.json", tmp_path / "flat")
        lines = out.read_text().splitlines()
        assert len([l for l in lines if l[0] != "#"]) >= 5
        assert not any(l.startswith("# lorentzian") for l in lines)
        assert "skipping Lorentzian fit: lorentzian fit needs data that is not constant" in capsys.readouterr().err

    def test_two_point_grid_skips_lorentzian(self, tmp_path, capsys):
        cfg = self.scan_config([1.5, 3.0], tau_count=40)
        out = cmd_scan(write_config(tmp_path, cfg), tmp_path / "scan2")
        assert "# lorentzian" not in out.read_text()

    def test_symmetric_grid_symmetric_amplitudes(self, tmp_path):
        cfg = self.scan_config([1.25, 2.25, 3.25], tau_count=60)
        out = cmd_scan(write_config(tmp_path, cfg), tmp_path / "scan3")
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        amps = {float(r[1]): float(r[2]) for r in rows}
        assert abs(amps[min(amps)] - amps[max(amps)]) < 0.05

    def test_scan_requires_scan_protocol(self, tmp_path):
        with pytest.raises(ConfigError, match="resonance_scan"):
            cmd_scan(write_config(tmp_path, rabi_config()), tmp_path / "bad")

    def test_failed_points_are_omitted(self, tmp_path, capsys):
        # a 7-point tau grid is too short for every per-point fit, so each
        # point is NaN: no rows, and the Lorentzian fit is skipped
        cfg = {
            "preset": "glutamate",
            "protocol": {
                "kind": "resonance_scan",
                "transfer": {"nutation_hz": 500.0, "transmitter_ppm": 2.04},
                "sweep": {"values": [1e-6, 5.0, 600.0]},
                "scan_tau": {"start": 0.02, "stop": 2.0, "count": 7},
            },
        }
        out_dir = tmp_path / "nan"
        assert main(["scan", "--config", str(write_config(tmp_path, cfg)), "--out", str(out_dir)]) == 0
        lines = (out_dir / "scan.csv").read_text().splitlines()
        assert lines[0] == "# singletsim resonance scan"
        assert all(l.startswith("#") for l in lines)
        assert "skipping Lorentzian fit" in capsys.readouterr().err


class TestMainEntry:
    def test_simulate_and_fit_via_main(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, rabi_config())
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "m")]) == 0
        trace = tmp_path / "m" / "trace.csv"
        code = main(
            ["fit", "--trace", str(trace), "--model", "rabi", "--no-decay",
             "--out", str(tmp_path / "m" / "fit.json")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "frequency_hz" in out

    @pytest.mark.parametrize("command, config", [("simulate", "glutamate_rabi"), ("scan", "glutamate_scan")])
    def test_out_path_that_is_a_file_exits_one(self, tmp_path, capsys, monkeypatch, command, config):
        # the path is checked before the run
        def no_run(*args):
            pytest.fail("run_protocol called before the --out path was checked")

        monkeypatch.setattr("singletsim.cli.run_protocol", no_run)
        out = tmp_path / "taken"
        out.write_text("")
        assert main([command, "--config", str(CONFIG_DIR / f"{config}.json"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "File exists" in err
        assert out.read_text() == ""

    def test_unconverged_fit_exits_two(self, tmp_path, capsys, monkeypatch):
        cfg_path = write_config(tmp_path, rabi_config())
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "m")]) == 0
        capsys.readouterr()
        monkeypatch.setattr("singletsim.analysis.MAX_ITERATIONS", 1)
        report = tmp_path / "m" / "fit.json"
        code = main(["fit", "--trace", str(tmp_path / "m" / "trace.csv"), "--model", "rabi", "--out", str(report)])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "fit did not converge after 1 iterations (rss=" in err
        assert json.loads(report.read_text())["converged"] is False

    def test_numerical_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        import singletsim.cli as cli

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(cli, "run_protocol", singular)
        code = main(["simulate", "--config", str(write_config(tmp_path, rabi_config())), "--out", str(tmp_path)])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_presets_dump(self, capsys):
        assert main(["presets", "--dump", "glutamate"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pairs"] == [[0, 1], [2, 3]]
        assert len(payload["offsets_hz"]) == 4
