import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from memorymodes import (
    NonPhysical,
    ParseError,
    Reservoir,
    TimeGrid,
    propagate_sector,
    validate_config,
    validate_config_text,
)
from memorymodes.cli import EXPERIMENTS, FIG2_CONFIG_TEXT, RunConfig, main, run
from conftest import gamma_markov

REPO_ROOT = Path(__file__).resolve().parent.parent

BANDGAP_TEXT = """\
model = bandgap
omega0 = 0.0
omega_c = 0.5
w1 = 0.4
w2 = 0.1
gamma1 = 2.0
gamma2 = 0.8
omega_coupling = 0.5477225575051661
t_end = 4.0
n_steps = 400
"""


def fig2_config(experiment, out_dir, **overrides):
    parsed = validate_config_text(FIG2_CONFIG_TEXT, source="<test>")
    return RunConfig(
        experiment=experiment,
        model=parsed.model,
        grid=parsed.grid,
        out_dir=out_dir,
        raw_config=parsed.raw,
        **overrides,
    )


class TestConfigParsing:
    def test_repo_preset_parses_to_reference_parameters(self):
        parsed = validate_config(REPO_ROOT / "configs" / "fig2.cfg")
        model = parsed.model
        assert model.sector.labels == ("b1",)
        assert model.peaks[0][1] == 0.6
        assert model.omega_coupling == math.sqrt(0.15)
        assert model.peaks[0][2] - model.omega0 == 4 * model.peaks[0][1]
        assert gamma_markov(model) == pytest.approx(1.0, rel=1e-15)
        assert parsed.grid.t_end == 10.0
        assert parsed.grid.n_steps == 4000

    def test_repo_bandgap_presets_parse(self):
        bandgap = validate_config(REPO_ROOT / "configs" / "bandgap.cfg")
        assert bandgap.model.sector.labels == ("a1", "a2")
        perfect = validate_config(REPO_ROOT / "configs" / "perfect_gap.cfg")
        assert perfect.model.density(perfect.model.peaks[0][2]) == 0.0

    def test_comments_and_blank_lines(self):
        text = "# leading comment\n\nmodel = lorentzian # trailing\nomega0 = 0\nomega_c = 1\ngamma = 1\nomega_coupling = 0.5\nt_end = 2\nn_steps = 10\n"
        parsed = validate_config_text(text)
        assert parsed.model.peaks[0][2] == 1.0

    def test_missing_key_named(self):
        text = FIG2_CONFIG_TEXT.replace("omega_coupling = 0.3872983346207417\n", "")
        with pytest.raises(ParseError, match="omega_coupling"):
            validate_config_text(text)

    def test_all_violations_collected(self):
        text = "model = lorentzian\nomega0 = abc\nbogus = 1\nomega_c 2\nomega_c = 1\nomega_c = 2\ngamma = 1\nomega_coupling = 0.5\nn_steps = 1\nt_end = 2\n"
        with pytest.raises(ParseError) as excinfo:
            validate_config_text(text)
        message = str(excinfo.value)
        assert "omega0 must be a finite number" in message
        assert "unknown key 'bogus'" in message
        assert "expected 'key = value'" in message
        assert "duplicate key 'omega_c'" in message
        assert "n_steps must be at least 2" in message
        assert "line 2" in message

    def test_nonphysical_names_inequality(self):
        text = BANDGAP_TEXT.replace("w2 = 0.1", "w2 = 0.39").replace(
            "gamma2 = 0.8", "gamma2 = 0.2"
        )
        with pytest.raises(NonPhysical, match="w1\\*gamma2 - w2\\*gamma1"):
            validate_config_text(text)

    def test_allow_nonphysical_passes(self):
        text = BANDGAP_TEXT.replace("w2 = 0.1", "w2 = 0.39").replace(
            "gamma2 = 0.8", "gamma2 = 0.2"
        )
        with pytest.warns():  # coupling no longer matches the mangled weights
            parsed = validate_config_text(text, allow_nonphysical=True)
        assert parsed.model.allow_nonphysical

    def test_unknown_model_kind(self):
        with pytest.raises(ParseError, match="lorentzian.*bandgap"):
            validate_config_text("model = exotic\n")

    def test_nonfinite_values_rejected(self):
        text = FIG2_CONFIG_TEXT.replace("gamma = 0.6", "gamma = inf")
        with pytest.raises(ParseError, match="gamma must be a finite number"):
            validate_config_text(text)


class TestRun:
    def test_fig2_writes_rates_and_manifest(self, tmp_path):
        config = fig2_config("fig2", tmp_path / "out")
        manifest = run(config)
        assert (tmp_path / "out" / "rates.csv").exists()
        assert (tmp_path / "out" / "manifest.txt").exists()
        assert manifest.entries["artifacts"] == "rates.csv"
        assert float(manifest.entries["min_gamma"]) < 0.0
        header = (tmp_path / "out" / "rates.csv").read_text().splitlines()[0]
        assert header == "t,gamma,compensated,gamma_c1sq,valid"

    def test_manifest_lists_every_artifact(self, tmp_path):
        config = fig2_config("evolve", tmp_path / "out")
        manifest = run(config)
        listed = set(manifest.entries["artifacts"].split(","))
        present = {p.name for p in (tmp_path / "out").iterdir()} - {"manifest.txt"}
        assert listed == present

    def test_identity_perfect_gap_manifest_records_zero_rate(self, tmp_path):
        parsed = validate_config(REPO_ROOT / "configs" / "perfect_gap.cfg")
        grid_text = parsed.raw | {"t_end": "4.0", "n_steps": "200"}
        config = RunConfig(
            experiment="identity",
            model=parsed.model,
            grid=type(parsed.grid)(0.0, 4.0, 200),
            out_dir=tmp_path / "out",
            raw_config=grid_text,
        )
        manifest = run(config)
        assert manifest.entries["gamma_p1"] == "0"
        assert float(manifest.entries["max_relative_residual"]) < 1e-6
        assert (tmp_path / "out" / "identity_intermode.csv").exists()

    def test_identity_intermode_follows_the_mode_count(self, tmp_path):
        # w2 = 0 switches the intermode coupling off, but the pair keeps two modes
        pair = Reservoir(0.0, math.sqrt(0.9), ((0.9, 2.0, 0.5), (-0.0, 0.5, 0.5)))
        grid = fig2_config("identity", tmp_path).grid
        manifest = run(RunConfig("identity", pair, grid, tmp_path / "pair"))
        assert manifest.entries["intermode_coupling"] == "0"
        assert float(manifest.entries["gamma_p1"]) == 0.5
        assert (tmp_path / "pair" / "identity_intermode.csv").exists()
        single = run(fig2_config("identity", tmp_path / "single"))
        assert "gamma_p1" not in single.entries
        assert not (tmp_path / "single" / "identity_intermode.csv").exists()

    def test_identity_of_two_lone_peaks_has_no_intermode_balance(self, tmp_path):
        # two modes, both coupled to the emitter: not the band-gap pair
        lone = Reservoir(0.0, 0.6, ((0.5, 1.0, -1.0), (0.5, 1.0, 1.0)))
        out = tmp_path / "lone"
        manifest = run(RunConfig("identity", lone, TimeGrid(0.0, 5.0, 200), out))
        assert (out / "manifest.txt").exists()
        assert not list(out.glob("*.partial"))
        assert sorted(p.name for p in out.iterdir()) == ["identity.csv", "manifest.txt"]
        assert "gamma_p1" not in manifest.entries
        assert float(manifest.entries["max_relative_residual"]) < 1e-6

    def test_compare_run_is_byte_reproducible(self, tmp_path):
        parsed = validate_config_text(
            FIG2_CONFIG_TEXT.replace("n_steps = 4000", "n_steps = 800").replace(
                "t_end = 10.0", "t_end = 4.0"
            )
        )
        outputs = []
        for sub, seed in (("a", 42), ("b", 42), ("c", 43)):
            config = RunConfig(
                experiment="compare",
                model=parsed.model,
                grid=parsed.grid,
                out_dir=tmp_path / sub,
                n_members=2000,
                seed=seed,
                raw_config=parsed.raw,
            )
            run(config)
            outputs.append(
                {
                    name: (tmp_path / sub / name).read_bytes()
                    for name in ("nmqj.csv", "mcwf.csv", "comparison.csv")
                }
            )
        assert outputs[0] == outputs[1]
        assert outputs[0]["nmqj.csv"] != outputs[2]["nmqj.csv"]

    def test_partial_suffix_on_failure(self, tmp_path, monkeypatch):
        import memorymodes.cli as cli_module

        def broken(config, artifact, extras):
            path = artifact("first.csv")
            path.write_text("t\n0\n")
            raise RuntimeError("boom")

        monkeypatch.setitem(cli_module._RUNNERS, "rates", broken)
        config = fig2_config("rates", tmp_path / "out")
        with pytest.raises(RuntimeError):
            run(config)
        assert (tmp_path / "out" / "first.csv.partial").exists()
        assert not (tmp_path / "out" / "first.csv").exists()
        assert not (tmp_path / "out" / "manifest.txt").exists()

    def test_failed_rerun_leaves_no_earlier_manifest(self, tmp_path, capsys):
        preset = REPO_ROOT / "configs" / "perfect_gap.cfg"
        coarse = tmp_path / "coarse.cfg"
        text = preset.read_text(encoding="utf-8").replace("n_steps = 4000", "n_steps = 1000")
        coarse.write_text(text, encoding="utf-8")
        out = tmp_path / "run"
        assert main(["nmqj", "--config", str(preset), "--out", str(out)]) == 0
        # the manifest is renamed into place, so no temporary file remains
        assert sorted(path.name for path in out.iterdir()) == ["manifest.txt", "nmqj.csv"]
        # at 1000 points the first-order jump probability passes its bound
        assert main(["nmqj", "--config", str(coarse), "--out", str(out)]) == 4
        assert "exceeds" in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()

    def test_rerun_removes_the_earlier_runs_artifacts(self, tmp_path, capsys):
        preset = REPO_ROOT / "configs" / "perfect_gap.cfg"
        coarse = tmp_path / "coarse.cfg"
        text = preset.read_text(encoding="utf-8").replace("n_steps = 4000", "n_steps = 1000")
        coarse.write_text(text, encoding="utf-8")
        out = tmp_path / "run"
        assert main(["nmqj", "--config", str(preset), "--out", str(out)]) == 0
        # the refused rerun writes nothing, yet the first run's nmqj.csv goes
        assert main(["nmqj", "--config", str(coarse), "--out", str(out)]) == 4
        assert list(out.iterdir()) == []
        assert main(["info", "--config", str(preset), "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == ["info.csv", "manifest.txt"]

    def test_rerun_removes_only_plain_names_inside_the_directory(self, tmp_path):
        out = tmp_path / "out"
        (out / "sub").mkdir(parents=True)
        kept = [tmp_path / "outside.csv", out / "sub" / "inner.csv", out / "unlisted.csv"]
        for path in kept:
            path.write_text("t\n", encoding="utf-8")
        (out / "listed.csv").write_text("t\n", encoding="utf-8")
        listed = "listed.csv,../outside.csv,sub/inner.csv,..,,"
        (out / "manifest.txt").write_text(f"artifacts = {listed}\n", encoding="utf-8")
        run(fig2_config("rates", out))
        assert all(path.exists() for path in kept)
        assert sorted(path.name for path in out.iterdir()) == [
            "manifest.txt", "rates.csv", "sub", "unlisted.csv"
        ]

    def test_compare_propagates_the_amplitudes_once(self, tmp_path, monkeypatch):
        import memorymodes.amplitudes as amplitudes

        propagate = amplitudes._propagate_constant
        calls = []

        def counted(*args):
            calls.append(args)
            return propagate(*args)

        monkeypatch.setattr(amplitudes, "_propagate_constant", counted)
        preset = REPO_ROOT / "configs" / "fig2.cfg"
        out = tmp_path / "out"
        assert main(["compare", "--config", str(preset), "--out", str(out), "--n", "1000"]) == 0
        # nmqj, mcwf and the exact reference all read the one amplitude solution
        assert len(calls) == 1

    def test_evolve_bridges_and_counts_invalid_rate_points(self, tmp_path, monkeypatch):
        import memorymodes.cli as cli_module

        extract = cli_module.rates_from_amplitudes

        def damaged(traj):
            rates = extract(traj)
            for series in (rates.s, rates.gamma, rates.dgamma, rates.ds):
                series[2000:2002] = np.nan
            rates.valid[2000:2002] = False
            return rates

        intact = run(fig2_config("evolve", tmp_path / "intact")).entries
        assert intact["timelocal.bridged_intervals"] == "0"
        monkeypatch.setattr(cli_module, "rates_from_amplitudes", damaged)
        entries = run(fig2_config("evolve", tmp_path / "out")).entries
        # two invalid points touch three intervals, each integrated by the plain trapezoid
        assert entries["timelocal.bridged_intervals"] == "3"
        assert float(entries["max_diff_amplitude_timelocal"]) < 1e-8

    def test_stochastic_runs_need_members(self, tmp_path):
        with pytest.raises(ValueError, match="n_members"):
            fig2_config("nmqj", tmp_path, n_members=0)

    def test_all_experiments_have_runners(self):
        from memorymodes.cli import _RUNNERS

        assert set(_RUNNERS) == set(EXPERIMENTS)


class TestMain:
    def test_fig2_without_config_uses_preset(self, tmp_path, capsys):
        code = main(["fig2", "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "manifest.txt").exists()
        assert "manifest.txt" in capsys.readouterr().out

    def test_other_experiments_require_config(self, capsys):
        code = main(["rates"])
        assert code == 2
        assert "--config" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model = lorentzian\n")
        code = main(["rates", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "omega0" in err

    def test_grid_span_overflow_is_a_config_error(self, tmp_path, capsys):
        # both bounds are finite, their difference is not
        bad = tmp_path / "bad.cfg"
        text = FIG2_CONFIG_TEXT.replace("t_end = 10.0", "t_start = -1e308\nt_end = 1e308")
        bad.write_text(text.replace("n_steps = 4000", "n_steps = 1"))
        code = main(["rates", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "t_end - t_start must be finite" in err
        assert "n_steps must be at least 2" in err

    @pytest.mark.parametrize(
        "t_start, t_end, n_steps",
        [("0.0", "1e-320", 4000), ("1e10", "10000000000.001", 100000)],
    )
    def test_grid_step_too_small_is_a_config_error(self, tmp_path, capsys, t_start, t_end, n_steps):
        # a subnormal step overshoots t_end; a step below the spacing near 1e10 repeats times
        bad = tmp_path / "bad.cfg"
        text = FIG2_CONFIG_TEXT.replace("t_end = 10.0", f"t_start = {t_start}\nt_end = {t_end}")
        bad.write_text(text.replace("n_steps = 4000", f"n_steps = {n_steps}\nspeed = 1"))
        code = main(["rates", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "is too small for the floats of" in err
        assert "unknown key 'speed'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment", ["rates", "evolve"])
    @pytest.mark.parametrize("omega_c", ["-1e308", "1e308"])
    def test_carrier_overflow_is_nonphysical(self, tmp_path, capsys, omega_c, experiment):
        # omega_c - omega0 or 2*omega0 overflows; no numpy warning on the way
        bad = tmp_path / "bad.cfg"
        text = FIG2_CONFIG_TEXT.replace("omega0 = 0.0", "omega0 = 1e308")
        bad.write_text(text.replace("omega_c = 2.4", f"omega_c = {omega_c}"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([experiment, "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "2*omega0 must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.txt").exists()

    def test_nonphysical_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            BANDGAP_TEXT.replace("w2 = 0.1", "w2 = 0.39").replace("gamma2 = 0.8", "gamma2 = 0.2")
        )
        code = main(["identity", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "nonphysical" in capsys.readouterr().err

    def test_allow_nonphysical_flag(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            BANDGAP_TEXT.replace("w2 = 0.1", "w2 = 0.39").replace("gamma2 = 0.8", "gamma2 = 0.2")
        )
        with pytest.warns():  # coupling no longer matches the mangled weights
            code = main(
                [
                    "identity",
                    "--config",
                    str(bad),
                    "--out",
                    str(tmp_path / "out"),
                    "--allow-nonphysical",
                ]
            )
        assert code == 0
        manifest = (tmp_path / "out" / "manifest.txt").read_text()
        assert "gamma_p1 = -" in manifest  # negative storage rate recorded

    def test_seed_outside_u64_rejected(self, tmp_path, capsys):
        code = main(["fig2", "--out", str(tmp_path / "out"), "--seed", "-1"])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_fractional_seed_rejected(self, tmp_path):
        # a uint64 key would truncate 1.5 to seed 1's stream and record 1.5
        with pytest.raises(ValueError, match="seed"):
            fig2_config("nmqj", tmp_path / "out", seed=1.5)

    @pytest.mark.parametrize("experiment", ["nmqj", "mcwf"])
    def test_ensemble_size_outside_int64_rejected(self, experiment, tmp_path, capsys):
        config = tmp_path / "fig2.cfg"
        config.write_text(FIG2_CONFIG_TEXT)
        out = tmp_path / "out"
        code = main([experiment, "--config", str(config), "--out", str(out), "--n", str(2**63)])
        assert code == 1
        assert "n_members" in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()

    def test_missing_file_reports_error(self, tmp_path, capsys):
        code = main(["rates", "--config", str(tmp_path / "nope.cfg")])
        assert code == 1
        assert capsys.readouterr().err


def test_cli_import_leaves_out_scipy_integrate_and_interpolate():
    # the CLI's start-up loads no public scipy subpackage (integrate, interpolate,
    # stats, ...) beyond those scipy.linalg loads by itself, which differ between
    # scipy versions; a fresh interpreter, so modules imported by other tests do not count
    code = (
        "import sys\n"
        "def public():\n"
        "    return ' '.join(sorted(name for name, module in sys.modules.items() if name.startswith('scipy.') "
        "and name.count('.') == 1 and not name[6:].startswith('_') and hasattr(module, '__path__')))\n"
        "import scipy.linalg\n"
        "print(public())\n"
        "import memorymodes.cli\n"
        "print(public())\n"
    )
    path = os.pathsep.join([str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    with_linalg, with_cli = (line.split() for line in result.stdout.splitlines())
    assert with_cli == with_linalg
    assert not {"scipy.integrate", "scipy.interpolate", "scipy.stats"} & set(with_cli)


@pytest.mark.parametrize("preset", ["fig2", "bandgap", "perfect_gap"])
@pytest.mark.parametrize("experiment", ["evolve", "info"])
def test_manifest_reports_state_invariants(preset, experiment, tmp_path):
    parsed = validate_config(REPO_ROOT / "configs" / f"{preset}.cfg")
    config = RunConfig(
        experiment=experiment,
        model=parsed.model,
        grid=parsed.grid,
        out_dir=tmp_path / "out",
        raw_config=parsed.raw,
    )
    entries = run(config).entries
    assert float(entries["invariant.hermiticity"]) == 0.0
    assert float(entries["invariant.trace"]) <= 1e-14
    assert float(entries["invariant.min_eigenvalue"]) >= -5e-15
    assert (tmp_path / "out" / "manifest.txt").read_text().count("invariant.") == 3


@pytest.mark.parametrize(
    "preset, experiment, calls",
    [("fig2", "evolve", 1), ("bandgap", "evolve", 1), ("fig2", "info", 1), ("bandgap", "info", 2)],
)
def test_diagonal_spectra_skip_eigvalsh(preset, experiment, calls, tmp_path, monkeypatch):
    # every emitter series of a run from |e>, and fig2's mode marginal, is diagonal;
    # the extended series and the two-mode marginal are not
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a.shape) or eigvalsh(a))
    config = REPO_ROOT / "configs" / f"{preset}.cfg"
    assert main([experiment, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert len(seen) == calls


class TestCsvFormats:
    def test_rates_csv_headers(self, tmp_path):
        config = fig2_config("rates", tmp_path / "out")
        run(config)
        lines = (tmp_path / "out" / "rates.csv").read_text().splitlines()
        assert lines[0] == "t,S,gamma,valid"
        assert len(lines) == 1 + 4000

    def test_density_csv_preamble(self, tmp_path):
        config = fig2_config("evolve", tmp_path / "out")
        run(config)
        lines = (tmp_path / "out" / "density_extended.csv").read_text().splitlines()
        assert lines[0] == "# dim=3, basis=g0,g1,e0"
        assert lines[1].startswith("t,re_00,im_00,re_01,im_01,re_02,im_02,re_11")

    def test_trajectory_csv_headers(self, tmp_path):
        config = fig2_config("amplitudes", tmp_path / "out")
        run(config)
        header = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,re_c1,im_c1,re_b1,im_b1"

    def test_ensemble_csv_headers(self, tmp_path):
        config = fig2_config("nmqj", tmp_path / "out", n_members=50, seed=7)
        run(config)
        header = (tmp_path / "out" / "nmqj.csv").read_text().splitlines()[0]
        assert header == "t,n0,n1,re_cg,im_cg,re_ce,im_ce"

    def test_mcwf_csv_headers(self, tmp_path):
        config = fig2_config("mcwf", tmp_path / "out", n_members=50, seed=7)
        run(config)
        header = (tmp_path / "out" / "mcwf.csv").read_text().splitlines()[0]
        assert header == "t,n0,n1,re_cg0,im_cg0,re_cg1,im_cg1,re_ce0,im_ce0"

    def test_mcwf_csv_headers_two_modes(self, tmp_path):
        parsed = validate_config_text(BANDGAP_TEXT)
        config = RunConfig(
            experiment="mcwf",
            model=parsed.model,
            grid=parsed.grid,
            out_dir=tmp_path / "out",
            n_members=50,
            seed=7,
            raw_config=parsed.raw,
        )
        run(config)
        header = (tmp_path / "out" / "mcwf.csv").read_text().splitlines()[0]
        assert header == (
            "t,n0,n1,re_cg00,im_cg00,re_cg10,im_cg10,re_cg01,im_cg01,re_ce00,im_ce00"
        )

    def test_info_csv_headers(self, tmp_path):
        parsed = validate_config_text(
            FIG2_CONFIG_TEXT.replace("n_steps = 4000", "n_steps = 200")
        )
        config = RunConfig(
            experiment="info",
            model=parsed.model,
            grid=parsed.grid,
            out_dir=tmp_path / "out",
            raw_config=parsed.raw,
        )
        run(config)
        header = (tmp_path / "out" / "info.csv").read_text().splitlines()[0]
        assert header == "t,s_atom,s_pseudo,s_joint,mutual_info"

    def test_full_precision_round_trip(self, tmp_path):
        config = fig2_config("amplitudes", tmp_path / "out")
        run(config)
        data = np.genfromtxt(
            tmp_path / "out" / "trajectory.csv", delimiter=",", names=True
        )
        traj = propagate_sector(config.model.sector, None, config.grid)
        assert np.array_equal(data["re_c1"], traj.c1.real)
        assert np.array_equal(data["im_b1"], traj.component("b1").imag)
