import json
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

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))

SLIC_PREP = {"kind": "slic", "nutation_hz": 15.5, "duration_s": 0.157, "phase_deg": 30.0, "polarization": 0.8}
THREE_PULSE_PREP = {"kind": "three_pulse", "tau1_s": 0.007, "tau2_s": 0.0205, "tau3_s": 0.00925, "polarization": 0.9}
# one config per protocol kind; each sets every key its kind reads, with a non-default value where a key has one
ALL_FIELDS_CONFIGS = {
    "rabi": {
        "preset": "glutamate",
        "protocol": {
            "kind": "rabi", "source_pair": 1, "readout_pair": 0, "triplet_init": "phi_plus", "prep": SLIC_PREP,
            "readout": "signal_proxy", "phase_cycle": True,
            "transfer": {"nutation_hz": 599.31, "transmitter_ppm": 2.30, "phase_deg": 20.0},
            "sweep": {"start": 0.02, "stop": 1.5, "count": 8},
        },
        "envelope": {"t_rabi_s": 2.0},
        "noise": {"sigma": 0.01, "seed": 7},
    },
    "ramsey": {
        "preset": "glutamate",
        "protocol": {
            "kind": "ramsey", "source_pair": 1, "readout_pair": 0, "triplet_init": "phi_plus", "prep": SLIC_PREP,
            "readout": "signal_proxy", "phase_cycle": True,
            "transfer": {"nutation_hz": 599.31, "transmitter_ppm": 2.04, "phase_deg": 20.0},
            "pi_half_duration_s": 0.1,
            "free_lock": {"nutation_hz": 47.0, "transmitter_pair": 1, "phase_deg": 10.0},
            "sweep": {"start": 0.01, "stop": 1.0, "count": 8},
        },
        "envelope": {"t_s_s": 4.4, "t2s_star_s": 1.3},
        "noise": {"sigma": 0.01, "seed": 7},
    },
    "double_rabi": {
        "preset": "glutamate",
        "protocol": {
            "kind": "double_rabi", "source_pair": 1, "readout_pair": 0, "triplet_init": "phi_minus",
            "prep": THREE_PULSE_PREP, "readout": "signal_proxy", "phase_cycle": True,
            "transfer": {"nutation_hz": 500.0, "transmitter_offset_hz": 434.0, "phase_deg": 20.0},
            "double_rabi_phases_deg": [80.0, -100.0],
            "sweep": {"start": 0.005, "stop": 0.45, "count": 8},
        },
        "envelope": {"t_rabi_s": 2.0},
        "noise": {"sigma": 0.01, "seed": 7},
    },
    "pumping": {
        "preset": "phe-gly-gly",
        "protocol": {
            "kind": "pumping", "source_pair": 1, "readout_pair": 0, "triplet_init": "phi_plus",
            "prep": THREE_PULSE_PREP, "transfer": {"nutation_hz": 250.3, "transmitter_pair": 1, "phase_deg": 20.0},
            "pump_transfer_duration_s": 15.5, "pump_reset_delay_s": 3.1,
            "sweep": {"values": [1, 2, 3, 4]},
        },
        "envelope": {"t_s_s": 25.0},
        "noise": {"sigma": 0.01, "seed": 7},
    },
    "resonance_scan": {
        "preset": "glutamate",
        "protocol": {
            "kind": "resonance_scan", "source_pair": 1, "readout_pair": 0, "triplet_init": "phi_minus",
            "prep": SLIC_PREP, "transfer": {"nutation_hz": 500.0, "transmitter_ppm": 2.30, "phase_deg": 20.0},
            "sweep": {"values": [560.0, 600.0, 640.0]},
            "scan_tau": {"start": 0.02, "stop": 1.5, "count": 40},
        },
        "envelope": {"t_rabi_s": 2.0},
        "noise": {"sigma": 0.01, "seed": 7},
    },
}


def config_reading(field):
    """A copy of the first all-fields config that gives `field`, a dotted path, so that its kind reads it."""
    for config in ALL_FIELDS_CONFIGS.values():
        target = config
        for part in field.split("."):
            if not isinstance(target, dict) or part not in target:
                break
            target = target[part]
        else:
            return json.loads(json.dumps(config))
    raise KeyError(field)


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

    def test_shipped_rabi_config_on_random_sweep_times(self, tmp_path, capsys):
        # the shipped Rabi config, its 125 times drawn at random: the fit finds the uniform sweep's 2.566 Hz
        cfg = json.loads((CONFIG_DIR / "glutamate_rabi.json").read_text())
        times = np.sort(np.random.default_rng(125).uniform(0.02, 2.5, 125))
        cfg["protocol"]["sweep"] = {"values": times.tolist()}
        out = tmp_path / "random"
        assert main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        assert main(["fit", "--trace", str(out / "trace.csv"), "--model", "rabi", "--out", str(out / "fit.json")]) == 0
        report = json.loads((out / "fit.json").read_text())
        assert report["converged"] is True
        assert abs(report["params"]["frequency_hz"] / 2.566 - 1) < 0.01

    def test_shipped_rabi_config_without_envelope_fits_with_decay(self, tmp_path, capsys):
        # an undamped trace puts the fitted decay rate on its bound r = 0: the fit converges, T infinite
        cfg = json.loads((CONFIG_DIR / "glutamate_rabi.json").read_text())
        del cfg["envelope"]
        out = tmp_path / "undamped"
        assert main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        assert main(["fit", "--trace", str(out / "trace.csv"), "--model", "rabi", "--out", str(out / "fit.json")]) == 0
        report = json.loads((out / "fit.json").read_text())
        assert report["converged"] is True
        assert report["params"]["t_rabi_s"] == np.inf
        assert abs(report["params"]["frequency_hz"] / 2.57 - 1) < 0.02

    @pytest.mark.parametrize("model", ["rabi", "ramsey", "lorentzian", "exponential"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_trace_exits_one(self, tmp_path, capsys, model, bad):
        trace = self.make_synthetic_trace(tmp_path)
        rows = trace.read_text().splitlines()
        rows[40] = rows[40].split(",")[0] + "," + bad
        trace.write_text("\n".join(rows) + "\n")
        report = tmp_path / "fit.json"
        assert main(["fit", "--trace", str(trace), "--model", model, "--out", str(report)]) == 1
        assert "input error: fit data must be finite" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("model", ["rabi", "ramsey", "exponential"])
    @pytest.mark.parametrize("order", ["reversed", "doubled"])
    def test_unordered_time_series_exits_one(self, tmp_path, capsys, model, order):
        trace = self.make_synthetic_trace(tmp_path, "ramsey" if model == "ramsey" else "rabi")
        head, *rows = trace.read_text().splitlines()
        rows = rows[::-1] if order == "reversed" else [row for row in rows for _ in range(2)]
        trace.write_text("\n".join([head, *rows]) + "\n")
        report = tmp_path / "fit.json"
        assert main(["fit", "--trace", str(trace), "--model", model, "--out", str(report)]) == 1
        assert "input error: sweep times must be strictly increasing" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize(
        "model, flags, named",
        [
            ("ramsey", ["--no-decay"], "--no-decay"),
            ("ramsey", ["--mode", "sin2"], "--mode"),
            ("exponential", ["--mode", "cos2"], "--mode"),
            ("lorentzian", ["--no-decay"], "--no-decay"),
            ("rabi", ["--sign", "1"], "--sign"),
            ("exponential", ["--sign", "-1"], "--sign"),
        ],
    )
    def test_flag_the_model_does_not_take_exits_one(self, tmp_path, capsys, model, flags, named):
        trace = self.make_synthetic_trace(tmp_path, "ramsey")
        report = tmp_path / "fit.json"
        assert main(["fit", "--trace", str(trace), "--model", model, *flags, "--out", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {named} applies only to --model ")
        assert not report.exists()


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

    def test_noise_block_is_rejected(self, tmp_path, capsys):
        # scan applies no noise, so a noise block is a field it does not read
        cfg = json.loads((CONFIG_DIR / "glutamate_scan.json").read_text())
        cfg["noise"] = {"sigma": 0.05, "seed": 3}
        code = main(["scan", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "s")])
        assert code == 1
        assert capsys.readouterr().err.startswith("input error: noise is not read by scan")
        assert not (tmp_path / "s").exists()

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

    def test_trace_path_that_is_a_directory_exits_one(self, tmp_path, capsys):
        code = main(["fit", "--trace", str(tmp_path), "--model", "rabi", "--out", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "Is a directory" in err

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

    def test_rejected_run_input_exits_one(self, tmp_path, capsys):
        cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" / "pgg_pumping.json").read_text())
        cfg["protocol"]["sweep"] = {"values": [0.5, 1, 2]}
        code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "p")])
        assert code == 1
        assert "input error: protocol: pumping sweep must contain positive integer cycle counts" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("command, config", [("simulate", "pgg_pumping"), ("scan", "glutamate_scan")])
    def test_signal_proxy_where_unread_exits_one(self, tmp_path, capsys, command, config):
        cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" / f"{config}.json").read_text())
        cfg["protocol"]["readout"] = "signal_proxy"
        code = main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: protocol.readout is not read by kind {cfg['protocol']['kind']!r}")
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
        cfg = config_reading(field)
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
            ("protocol.scan_tau", {"values": [0.5, 0.1]},
             "protocol: scan_tau_grid_s must be nonempty and strictly increasing"),
            ("protocol.prep", {"phase_deg": 75.0}, "protocol.prep.phase_deg is not read by kind 'ideal'"),
            ("protocol.prep", {"kind": "three_pulse", "tau1_s": 0.007, "tau2_s": 0.0205, "tau3_s": 0.00925,
                               "phase_deg": 75.0}, "protocol.prep.phase_deg is not read by kind 'three_pulse'"),
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
        ids=["negative_sweep", "negative_scan_tau", "decreasing_scan_tau", "ideal_prep_phase",
             "three_pulse_prep_phase", "count_zero", "count_negative", "negative_seed",
             "polarization_high", "polarization_low", "t2s_star_nan", "t2s_star_negative",
             "negative_pi_half", "negative_pump_transfer", "negative_pump_reset", "negative_prep_duration",
             "negative_tau1", "negative_tau2", "negative_tau3"],
    )
    def test_out_of_range_field_exits_one_naming_it(self, tmp_path, capsys, field, value, message):
        cfg = config_reading(field)
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
        cfg = json.loads(json.dumps(ALL_FIELDS_CONFIGS["ramsey"]))
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
        cfg = config_reading(block)
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

    @pytest.mark.parametrize(
        "block, key",
        [("", "bogus"), ("protocol", "sweeep"), ("protocol.transfer", "nutaton_hz"), ("system.spins[0]", "offset"),
         ("protocol.prep", "polarisation"), ("protocol.sweep", "stepp"), ("envelope", "t_rabi"), ("noise", "sede")],
        ids=["top_level", "protocol", "transfer", "spin", "prep", "sweep", "envelope", "noise"],
    )
    def test_misspelt_key_exits_one_naming_it(self, tmp_path, capsys, block, key):
        cfg = json.loads(json.dumps(ALL_FIELDS_CONFIGS["rabi"]))
        if block == "system.spins[0]":
            del cfg["preset"]
            cfg["system"] = {"spins": [{"offset_hz": 200.0}, {"offset_hz": 190.0}],
                             "couplings_hz": [[0.0, 7.0], [7.0, 0.0]]}
        target = cfg
        for part in filter(None, block.replace("[0]", ".0").split(".")):
            target = target[int(part) if part.isdigit() else part]
        target[key] = 1.0
        code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: unknown field {block + '.' if block else ''}{key}")
        assert not (tmp_path / "t").exists()

    def test_sweep_with_values_and_count_exits_one(self, tmp_path, capsys):
        cfg = rabi_config()
        cfg["protocol"]["sweep"] = {"values": [0.1, 0.2], "count": 5}
        code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: protocol.sweep gives values") and "count" in err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize(
        "config, field, value, kind",
        [
            ("glutamate_rabi", "protocol.pi_half_duration_s", 0.1, "rabi"),
            ("pgg_pumping", "protocol.readout", "projector", "pumping"),
            ("glutamate_scan", "protocol.phase_cycle", False, "resonance_scan"),
            ("glutamate_rabi", "protocol.prep.polarization", 0.3, "ideal"),
            ("glutamate_rabi", "envelope.t_s_s", 4.4, "rabi"),
        ],
        ids=["rabi_pi_half", "pumping_readout", "scan_phase_cycle", "ideal_prep_polarization", "rabi_t_s"],
    )
    def test_field_another_kind_reads_exits_one_naming_it(self, tmp_path, capsys, config, field, value, kind):
        # a key outside its kind's row is rejected even at its default value
        cfg = json.loads((CONFIG_DIR / f"{config}.json").read_text())
        block, _, key = field.rpartition(".")
        target = cfg
        for part in block.split("."):
            target = target.setdefault(part, {"kind": "ideal"} if part == "prep" else {})
        target[key] = value
        code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "t")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"input error: {field} is not read by kind {kind!r}")
        assert not (tmp_path / "t").exists()

    def test_misspelt_and_unread_fields_of_a_rabi_config_exit_one(self, tmp_path, capsys):
        cfg = json.loads((CONFIG_DIR / "glutamate_rabi.json").read_text())
        cfg["bogus"] = 1
        cfg["protocol"].update(sweeep={"values": [0.1]}, pi_half_duration_s=0.1, pump_reset_delay_s=3.1,
                               double_rabi_phases_deg=[10, 20], prep={"kind": "ideal", "polarization": 0.3})
        cfg["protocol"]["transfer"]["nutaton_hz"] = 3
        cfg["envelope"]["t_s_s"] = 4.4
        code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "t")])
        assert code == 1
        assert capsys.readouterr().err.startswith("input error: unknown field bogus")
        assert not (tmp_path / "t").exists()

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

    def test_phase_cycle_needs_the_signal_proxy_readout(self, tmp_path, capsys):
        cfg = rabi_config()
        cfg["protocol"]["phase_cycle"] = True
        code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: protocol: phase_cycle applies to the signal_proxy readout only")
        assert not (tmp_path / "t").exists()

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
