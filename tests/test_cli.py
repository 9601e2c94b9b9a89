import json
from pathlib import Path

import numpy as np
import pytest

from singletsim.cli import (
    ConfigError,
    cmd_fit,
    cmd_scan,
    cmd_simulate,
    load_config,
    main,
    read_trace_file,
)
from singletsim.hamiltonian import pair_center_offset, resonant_nutation

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))

# sets every protocol field, with non-default values where a field has one
ALL_FIELDS_CONFIG = {
    "preset": "glutamate",
    "protocol": {
        "kind": "ramsey",
        "source_pair": 0,
        "readout_pair": 1,
        "triplet_init": "phi_plus",
        "prep": {"kind": "slic", "nutation_hz": 15.5, "duration_s": 0.157, "phase_deg": 30.0,
                 "polarization": 0.8},
        "readout": "signal_proxy",
        "phase_cycle": True,
        "transfer": {"nutation_hz": 599.31, "transmitter_ppm": 2.04, "phase_deg": 20.0},
        "pi_half_duration_s": 0.1,
        "free_lock": {"nutation_hz": 47.0, "transmitter_pair": 1, "phase_deg": 10.0},
        "double_rabi_phases_deg": [80.0, -100.0],
        "pump_transfer_duration_s": 15.5,
        "pump_reset_delay_s": 3.1,
        "sweep": {"start": 0.01, "stop": 1.0, "count": 8},
    },
    "envelope": {"t_s_s": 4.4, "t2s_star_s": 1.3, "t_rabi_s": 2.0},
    "noise": {"sigma": 0.01, "seed": 7},
}


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
        "config", [*CONFIGS, ALL_FIELDS_CONFIG], ids=[*(c.stem for c in CONFIGS), "all_fields"]
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

    def test_header_records_every_protocol_field(self, tmp_path):
        out = cmd_simulate(write_config(tmp_path, ALL_FIELDS_CONFIG), tmp_path / "run")
        line = next(l for l in out.read_text().splitlines() if l.startswith("# config: "))
        header = json.loads(line[len("# config: "):])
        protocol = header["protocol"]
        assert set(ALL_FIELDS_CONFIG["protocol"]) <= set(protocol)
        assert protocol["prep"]["phase_deg"] == 30.0
        assert protocol["transfer"]["phase_deg"] == 20.0
        assert protocol["free_lock"]["phase_deg"] == 10.0
        assert protocol["double_rabi_phases_deg"] == [80.0, -100.0]
        assert protocol["pump_transfer_duration_s"] == 15.5
        assert protocol["phase_cycle"] is True
        assert header["noise"] == {"sigma": 0.01, "seed": 7}
        assert header["envelope"] == {"t_s_s": 4.4, "t_2s_star_s": 1.3, "t_rabi_s": 2.0}


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
        t = np.linspace(0.01, 3.0, 150)
        if kind == "rabi":
            y = 0.9 * (np.sin(np.pi * 2.57 * t) ** 2 + 0.05) * np.exp(-t / 1.6)
        else:
            y = (np.cos(2 * np.pi * 2.33 * t - 0.3) * np.exp(-t / 1.3) + 0.2) * np.exp(-t / 4.4)
        path = tmp_path / f"{kind}.csv"
        rows = ["# synthetic"] + [f"{a:.12g},{b:.12g}" for a, b in zip(t, y)]
        path.write_text("\n".join(rows) + "\n")
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

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1
        assert "input error" in capsys.readouterr().err

    def test_bad_trace_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("justtext\n")
        code = main(["fit", "--trace", str(path), "--model", "rabi", "--out", str(tmp_path / "r.json")])
        assert code == 1

    def test_rejected_run_input_exits_one(self, tmp_path, capsys):
        cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" / "pgg_pumping.json").read_text())
        cfg["protocol"]["sweep"] = {"values": [0.5, 1, 2]}
        code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "p")])
        assert code == 1
        assert "input error: pumping sweep must contain positive integer cycle counts" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config", [("simulate", "pgg_pumping"), ("scan", "glutamate_scan")])
    def test_signal_proxy_where_unread_exits_one(self, tmp_path, capsys, command, config):
        cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" / f"{config}.json").read_text())
        cfg["protocol"]["readout"] = "signal_proxy"
        code = main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: protocol: readout must be 'projector'")
        assert not (tmp_path / "t").exists()

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

    def test_list_triplet_init_exits_one(self, tmp_path, capsys):
        cfg = rabi_config()
        cfg["protocol"]["triplet_init"] = [1, 0, 0]
        code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err
        assert "input error" in err and "triplet_init" in err

    @pytest.mark.parametrize("phases", [[90], [90, -90, 0]], ids=["one", "three"])
    def test_double_rabi_phases_need_two_numbers(self, tmp_path, capsys, phases):
        cfg = rabi_config()
        cfg["protocol"].update(kind="double_rabi", double_rabi_phases_deg=phases)
        code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err
        assert "input error" in err and "double_rabi_phases_deg" in err

    def test_nan_sweep_value_exits_one(self, tmp_path, capsys):
        cfg = rabi_config()
        cfg["protocol"]["sweep"] = {"values": [0.1, None]}
        code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "t")])
        assert code == 1
        assert "input error" in capsys.readouterr().err
        assert not (tmp_path / "t" / "trace.csv").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("protocol.source_pair", [0]),
            ("protocol.transfer.nutation_hz", [599.0]),
            ("protocol.pi_half_duration_s", "0.1"),
            ("protocol.prep.nutation_hz", "15"),
            ("protocol.transfer.nutation_hz", float("nan")),
            ("envelope.t_rabi_s", float("nan")),
            ("envelope.t_rabi_s", True),
            ("envelope.t_rabi_s", "abc"),
            ("noise.sigma", float("nan")),
        ],
        ids=["source_pair", "transfer_nutation", "pi_half_duration", "prep_nutation", "transfer_nutation_nan",
             "envelope_nan", "envelope_bool", "envelope_string", "noise_sigma_nan"],
    )
    def test_non_numeric_field_exits_one(self, tmp_path, capsys, field, value):
        cfg = rabi_config(envelope={"t_rabi_s": 1.6}, noise={"sigma": 0.01, "seed": 1})
        cfg["protocol"]["prep"] = {"kind": "slic", "nutation_hz": 15.0, "duration_s": 0.157}
        cfg["protocol"].update(pi_half_duration_s=0.1, free_lock={"nutation_hz": 47.0})
        block, _, key = field.rpartition(".")
        target = cfg
        for part in block.split("."):
            target = target[part]
        target[key] = value
        code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error") and f"{field} must be" in err
        assert "Traceback" not in err
        assert not (tmp_path / "t" / "trace.csv").exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("protocol.sweep", {"values": [-1.0, 0.5]}, "protocol: sweep values must be >= 0"),
            ("protocol.scan_tau", {"values": [-0.1, 0.5]}, "protocol: scan_tau_grid_s must be finite and >= 0"),
            ("protocol.sweep.count", 0, "protocol.sweep.count must be >= 1"),
            ("protocol.sweep.count", -1, "protocol.sweep.count must be >= 1"),
            ("noise.seed", -1, "noise.seed must be >= 0"),
            ("protocol.prep.polarization", 2.0, "protocol.prep: polarization must lie in [-1, 1]"),
            ("protocol.prep.polarization", -1.5, "protocol.prep: polarization must lie in [-1, 1]"),
            ("envelope.t2s_star_s", float("nan"), "envelope.t2s_star_s must be a finite number"),
            ("envelope.t2s_star_s", -1.0, "envelope.t2s_star_s must be positive"),
            *((f"protocol.{key}", -20.5, f"protocol: {key} must be finite and >= 0, got -20.5")
              for key in ("pi_half_duration_s", "pump_transfer_duration_s", "pump_reset_delay_s")),
            *((f"protocol.prep.{key}", -20.5, f"protocol.prep: {key} must be finite and >= 0, got -20.5")
              for key in ("duration_s", "tau1_s", "tau2_s", "tau3_s")),
        ],
        ids=["negative_sweep", "negative_scan_tau", "count_zero", "count_negative", "negative_seed",
             "polarization_high", "polarization_low", "t2s_star_nan", "t2s_star_negative",
             "negative_pi_half", "negative_pump_transfer", "negative_pump_reset", "negative_prep_duration",
             "negative_tau1", "negative_tau2", "negative_tau3"],
    )
    def test_out_of_range_field_exits_one_naming_it(self, tmp_path, capsys, field, value, message):
        cfg = rabi_config(envelope={"t_rabi_s": 1.6}, noise={"sigma": 0.01, "seed": 1})
        cfg["protocol"]["prep"] = {"kind": "slic", "nutation_hz": 15.5, "duration_s": 0.157}
        block, _, key = field.rpartition(".")
        target = cfg
        for part in block.split("."):
            target = target[part]
        target[key] = value
        code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "t" / "trace.csv").exists()

    @pytest.mark.parametrize(
        "block, keys",
        [
            ("protocol.transfer", {"transmitter_ppm": 2.04, "transmitter_pair": 5}),
            ("protocol.transfer", {"transmitter_offset_hz": 408.0, "transmitter_ppm": 2.04}),
            ("protocol.free_lock", {"transmitter_offset_hz": 408.0, "transmitter_pair": 1}),
            ("system.spins[0]", {"offset_hz": 408.0, "shift_ppm": 2.04}),
            ("system.spins[0]", {}),
        ],
        ids=["transfer_ppm_pair", "transfer_offset_ppm", "free_lock_offset_pair", "spin_offset_shift",
             "spin_neither"],
    )
    def test_position_needs_at_most_one_key(self, tmp_path, capsys, block, keys):
        # a lock may give none (pair 0's centre), a spin exactly one
        cfg = json.loads(json.dumps(ALL_FIELDS_CONFIG))
        if block == "system.spins[0]":
            del cfg["preset"]
            cfg["system"] = {"spins": [keys, {"offset_hz": 190.0}], "couplings_hz": [[0.0, 7.0], [7.0, 0.0]]}
        else:  # each lock already gives one of the keys
            cfg["protocol"][block.rpartition(".")[2]].update(keys)
        code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error") and f"{block} needs " in err
        assert all(key in err for key in keys)
        assert not (tmp_path / "t" / "trace.csv").exists()

    @pytest.mark.parametrize(
        "block, value",
        [
            ("protocol.prep", []),
            ("protocol.transfer", [1]),
            ("protocol.sweep", [1, 2]),
            ("protocol.free_lock", "weak"),
            ("noise", [1]),
            ("envelope", [1]),
            ("protocol", 5),
        ],
        ids=["prep", "transfer", "sweep", "free_lock", "noise", "envelope", "protocol"],
    )
    def test_non_object_block_exits_one(self, tmp_path, capsys, block, value):
        cfg = rabi_config()
        *path, key = block.split(".")
        target = cfg
        for part in path:
            target = target[part]
        target[key] = value
        code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error") and f"{block} must be a JSON object, got {value!r}" in err
        assert "Traceback" not in err

    def test_unassigned_readout_pair_exits_one(self, tmp_path, capsys):
        cfg = rabi_config()
        cfg["protocol"]["readout_pair"] = 2
        code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error") and "pair 2 is not assigned" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["no", "true", 1, None], ids=["no", "true_string", "one", "null"])
    def test_phase_cycle_must_be_a_json_bool(self, tmp_path, capsys, value):
        cfg = rabi_config()
        cfg["protocol"].update(readout="signal_proxy", phase_cycle=value)
        code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error") and "protocol.phase_cycle must be true or false" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("values", [["0.1", "0.5"], [0.1, True], "0.1"], ids=["strings", "bool", "string"])
    def test_sweep_values_must_be_numbers(self, tmp_path, capsys, values):
        cfg = rabi_config()
        cfg["protocol"]["sweep"] = {"values": values}
        code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error") and "protocol.sweep.values must be a list" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("pairs", [["0", "1"]], "system.pairs[0]"),
            ("pairs", [[0, 1.0]], "system.pairs[0]"),
            ("pairs", [[0, 1, 1]], "system.pairs[0]"),
            ("pairs", "01", "system.pairs"),
            ("couplings_hz", [[0.0, "7"], [7.0, 0.0]], "system.couplings_hz[0]"),
            ("couplings_hz", "[[0, 7], [7, 0]]", "system.couplings_hz"),
        ],
        ids=["pair_strings", "pair_float", "pair_triple", "pairs_string", "coupling_string", "couplings_string"],
    )
    def test_system_lists_must_hold_numbers(self, tmp_path, capsys, key, value, field):
        cfg = {
            "system": {
                "spins": [{"offset_hz": 200.0}, {"offset_hz": 190.0}],
                "couplings_hz": [[0.0, 7.0], [7.0, 0.0]],
                "pairs": [[0, 1]],
            },
            "protocol": {
                "kind": "rabi",
                "transfer": {"nutation_hz": 100.0, "transmitter_offset_hz": 195.0},
                "sweep": {"values": [0.1, 0.2, 0.3]},
            },
        }
        cfg["system"][key] = value
        code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error") and f"{field} must be a list" in err
        assert "Traceback" not in err

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

    def test_presets_list(self, capsys):
        assert main(["presets", "--list"]) == 0
        names = capsys.readouterr().out.split()
        assert "glutamate" in names and "phe-gly-gly" in names
