import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from memorymodes import (
    ConsistencyWarning,
    NonPhysical,
    ParseError,
    Reservoir,
    TimeGrid,
    propagate_sector,
    validate_config,
    validate_config_text,
)
from memorymodes.cli import EXPERIMENTS, FIG2_CONFIG_TEXT, RunConfig, main, run
from conftest import gamma_markov, traced_peak

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

    def test_evolve_holds_one_extended_series_at_a_time(self, tmp_path):
        # the 4 MiB joint series of bandgap at 16 000 points is streamed, never
        # held whole, and the emitter routes are built one at a time
        parsed = validate_config(REPO_ROOT / "configs" / "bandgap.cfg")
        grid = TimeGrid(parsed.grid.t_start, parsed.grid.t_end, 16_000)
        config = RunConfig("evolve", parsed.model, grid, tmp_path / "out")
        manifest, peak, _ = traced_peak(lambda: run(config))
        assert peak < 5.0, peak
        assert manifest.entries["artifacts"] == ",".join(
            f"density_{name}.csv" for name in ("amplitude", "timelocal", "extended", "traced")
        )

    def test_info_runs_no_lindblad_fill(self, tmp_path, monkeypatch):
        # info reads the amplitude solution of bandgap at 16 000 points (0.7 MiB)
        # and peaks at 2.3 MiB; the Lindblad coordinates alone would take 2 MiB
        import memorymodes.density as density

        def no_fill(*args):
            raise AssertionError("info filled the Lindblad route")

        monkeypatch.setattr(density, "_coordinate_problem", no_fill)
        parsed = validate_config(REPO_ROOT / "configs" / "bandgap.cfg")
        grid = TimeGrid(parsed.grid.t_start, parsed.grid.t_end, 16_000)
        config = RunConfig("info", parsed.model, grid, tmp_path / "out")
        manifest, peak, _ = traced_peak(lambda: run(config))
        assert peak <= 2.6, peak
        assert manifest.entries["invariant.hermiticity"] == "0"

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

    @pytest.mark.parametrize("listed", ["manifest.txt", "sub"])
    def test_rerun_survives_a_listed_manifest_or_directory(self, listed, tmp_path, capsys):
        # deleting such a name would fail the run and keep the manifest for every later one
        out = tmp_path / "out"
        (out / "sub").mkdir(parents=True)
        (out / "listed.csv").write_text("t\n", encoding="utf-8")
        (out / "manifest.txt").write_text(f"artifacts = {listed},listed.csv\n", encoding="utf-8")
        argv = ["rates", "--config", str(REPO_ROOT / "configs" / "fig2.cfg"), "--out", str(out)]
        assert main(argv) == 0
        assert main(argv) == 0
        assert "Errno" not in capsys.readouterr().err
        assert sorted(path.name for path in out.iterdir()) == ["manifest.txt", "rates.csv", "sub"]

    def test_rerun_removes_the_failed_runs_partial_files(self, tmp_path, monkeypatch, capsys):
        import memorymodes.cli as cli_module

        def full_disk(path, report):
            raise OSError("no space left on device")

        preset = REPO_ROOT / "configs" / "fig2.cfg"
        out = tmp_path / "out"
        argv = ["compare", "--config", str(preset), "--out", str(out), "--n", "1000"]
        with monkeypatch.context() as patched:
            patched.setattr(cli_module, "write_comparison_csv", full_disk)
            assert main(argv) == 1
        assert "no space left" in capsys.readouterr().err
        assert sorted(path.name for path in out.iterdir()) == ["mcwf.csv.partial", "nmqj.csv.partial"]
        assert main(argv) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "comparison.csv", "manifest.txt", "mcwf.csv", "nmqj.csv"
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

    def test_evolve_refuses_damaged_rates(self, tmp_path, monkeypatch, capsys):
        import memorymodes.cli as cli_module

        extract = cli_module.rates_from_amplitudes

        def damaged(traj):
            rates = extract(traj)
            for series in (rates.s, rates.gamma, rates.dgamma, rates.ds):
                series[2000:2002] = np.nan
            rates.valid[2000:2002] = False
            return rates

        monkeypatch.setattr(cli_module, "rates_from_amplitudes", damaged)
        out = tmp_path / "out"
        preset = REPO_ROOT / "configs" / "fig2.cfg"
        assert main(["evolve", "--config", str(preset), "--out", str(out)]) == 4
        assert "rate series is invalid at t=" in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()
        # the time-local route refuses before any Lindblad work, so no file is written
        assert list(out.glob("density_extended.csv*")) == []

    @pytest.mark.parametrize(
        "reservoir, n_steps, per_point",
        [("bandgap", (16_000, 64_000), 256), ("lone_peaks_10", (4_000, 16_000), 512)],
    )
    def test_evolve_memory_grows_little_with_the_grid(self, reservoir, n_steps, per_point, tmp_path):
        # the extended series is streamed, so evolve's peak grows by the emitter
        # series and the amplitude solution alone: measured 199 and 250 bytes per
        # added point. Holding the (n, d, d) stack it grew by 464 on bandgap and
        # by 2625 on ten lone peaks (d = 12, scripts/peak_memory.py's reservoir)
        # from 16 000 to 64 000 points; the lone peaks take a shorter range here,
        # as 64 000 points of them run for 10 s under tracemalloc
        if reservoir == "bandgap":
            model = validate_config(REPO_ROOT / "configs" / "bandgap.cfg").model
        else:
            model = Reservoir(0.0, 0.8, tuple(
                (1.0 + 0.1 * k, 0.5 + 0.2 * k, -2.0 + 4.0 * k / 9) for k in range(10)
            ))
        peaks = []
        for n in n_steps:
            config = RunConfig("evolve", model, TimeGrid(0.0, 10.0, n), tmp_path / f"out{n}")
            _, peak, _ = traced_peak(lambda: run(config))
            peaks.append(peak * 2**20)
        growth = (peaks[1] - peaks[0]) / (n_steps[1] - n_steps[0])
        assert growth <= per_point, growth

    def test_a_non_finite_chunk_mid_stream_leaves_a_closed_partial(self, tmp_path, monkeypatch, capsys):
        import builtins

        import memorymodes.cli as cli_module
        import memorymodes.csvio as csvio
        from memorymodes.density import _LindbladStream, _stream_rows

        preset = REPO_ROOT / "configs" / "bandgap.cfg"
        reference = tmp_path / "reference"
        assert main(["evolve", "--config", str(preset), "--out", str(reference)]) == 0
        out = tmp_path / "out"
        extended = out / "density_extended.csv"

        class Poisoned(_LindbladStream):
            # a chunk past the first turns non-finite once density_extended.csv is open
            def coordinates(self):
                for rows, coords in super().coordinates():
                    if rows.start and extended.exists():
                        coords = np.full_like(coords, np.nan)
                    yield rows, coords

        handles = []

        def recorded(*args, **kwargs):
            handle = builtins.open(*args, **kwargs)
            handles.append(handle)
            return handle

        monkeypatch.setattr(cli_module, "evolve_lindblad_single", Poisoned)
        monkeypatch.setattr(csvio, "open", recorded, raising=False)
        assert main(["evolve", "--config", str(preset), "--out", str(out)]) == 1
        assert "matrix entries must be finite" in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()
        assert (out / "density_extended.csv.partial").exists() and not extended.exists()
        assert handles and all(handle.closed for handle in handles)
        # what was written before the bad chunk is the start of the good file
        partial = (out / "density_extended.csv.partial").read_bytes()
        complete = (reference / "density_extended.csv").read_bytes()
        assert complete.startswith(partial)
        # the comment line, the header and every row of the chunk before the bad one
        assert partial.count(b"\n") - 1 == _stream_rows(4)

    @pytest.mark.parametrize(
        "reservoir, n_steps",
        [("fig2", 16_000), ("bandgap", 16_000), ("perfect_gap", 16_000),
         ("lone_peaks_6", 4000), ("lone_peaks_10", 4000)],
    )
    def test_evolve_builds_one_layout_per_artifact(self, reservoir, n_steps, tmp_path, monkeypatch):
        # every chunk of the streamed density_extended.csv asks for the layout of
        # the first, so no file pays for a second one
        import memorymodes.csvio as csvio

        if reservoir.startswith("lone_peaks_"):
            k = int(reservoir.rsplit("_", 1)[1])
            model = Reservoir(0.0, 0.8, tuple(
                (1.0 + 0.1 * j, 0.5 + 0.2 * j, -2.0 + 4.0 * j / (k - 1)) for j in range(k)
            ))
            grid = TimeGrid(0.0, 10.0, n_steps)
        else:
            parsed = validate_config(REPO_ROOT / "configs" / f"{reservoir}.cfg")
            model = parsed.model
            grid = TimeGrid(parsed.grid.t_start, parsed.grid.t_end, n_steps)
        layouts = {}
        layout, write_chunks = csvio._Layout, csvio._write_chunks

        def spy_write(path, *args):
            layouts[Path(path).name] = 0
            write_chunks(path, *args)

        def spy_layout(*args):
            layouts[list(layouts)[-1]] += 1
            return layout(*args)

        monkeypatch.setattr(csvio, "_write_chunks", spy_write)
        monkeypatch.setattr(csvio, "_Layout", spy_layout)
        out = tmp_path / "out"
        manifest = run(RunConfig("evolve", model, grid, out))
        assert sorted(layouts) == sorted(manifest.entries["artifacts"].split(","))
        assert set(layouts.values()) == {1}, layouts

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

    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        # the offset counts bytes of the file, past a long comment
        head = "# " + "x" * 10_000 + "\n" + FIG2_CONFIG_TEXT.replace("omega0 = 0.0", "omega0 = 0.0 # ")
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(head.encode("utf-8").replace(b"0.0 # ", b"0.0 # \xff"))
        out = tmp_path / "out"
        code = main(["rates", "--config", str(bad), "--out", str(out)])
        assert code == 2
        offset = bad.read_bytes().index(b"\xff")
        assert offset > 10_000
        expected = f"config error: {bad}: not UTF-8 text: byte 0xff at offset {offset} (invalid start byte)\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

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

    def test_grid_too_large_to_allocate_is_a_config_error(self, tmp_path, capsys):
        # 10**18 points ask for 6.9 EiB, which fails at once and allocates nothing
        bad = tmp_path / "bad.cfg"
        bad.write_text(FIG2_CONFIG_TEXT.replace("n_steps = 4000", "n_steps = 1000000000000000000"))
        code = main(["rates", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "n_steps = 1000000000000000000 is too large to allocate" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_memory_error_during_a_run_is_an_error_exit(self, tmp_path, monkeypatch, capsys):
        import memorymodes.cli as cli_module

        def exhausted(config, artifact, extras):
            raise MemoryError("Unable to allocate the grid")

        monkeypatch.setitem(cli_module._RUNNERS, "fig2", exhausted)
        assert main(["fig2", "--out", str(tmp_path / "out")]) == 1
        assert "error: Unable to allocate the grid" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.txt").exists()

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

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_overflowing_propagator_ladder_is_an_error_exit(self, tmp_path, capsys, experiment):
        # G * t overflows while the ladder is scaled; the finiteness check after
        # expm reports it, with no numpy warning on the way
        bad = tmp_path / "bad.cfg"
        text = FIG2_CONFIG_TEXT.replace("omega_c = 2.4", "omega_c = 1e308")
        bad.write_text(text.replace("n_steps = 4000", "n_steps = 400"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([experiment, "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 4
        assert "error: propagator exp(G*t) at t=0.0250627 is not finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.txt").exists()

    @pytest.mark.parametrize("model", ["lorentzian", "bandgap"])
    def test_huge_coupling_is_an_error_exit(self, tmp_path, capsys, model):
        # coupling**2 overflows a float; the bandgap weight check must not raise on it
        bad = tmp_path / "bad.cfg"
        text = FIG2_CONFIG_TEXT if model == "lorentzian" else BANDGAP_TEXT
        bad.write_text(re.sub(r"omega_coupling = .*", "omega_coupling = 1e200", text))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConsistencyWarning)
            assert main(["evolve", "--config", str(bad), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "propagator exp(G*t)" in err and "is not finite" in err
        assert not (out / "manifest.txt").exists()

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
        # a uint64 key would truncate 1.5 to seed 1's stream and record 1.5;
        # a bool would run as seed 0 or 1 and record False or True
        for seed in (1.5, True, False):
            with pytest.raises(ValueError, match="seed"):
                fig2_config("nmqj", tmp_path / "out", seed=seed)

    @pytest.mark.parametrize("n_members", [1.5, 3.0, True, False])
    def test_fractional_ensemble_size_rejected(self, n_members, tmp_path):
        # the engines would count members in float64, 1.5 of them in the shared
        # state; True would run one member and record True
        with pytest.raises(ValueError, match="n_members"):
            fig2_config("nmqj", tmp_path / "out", n_members=n_members)

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


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with the package on its path."""
    path = os.pathsep.join([str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, so modules imported by other tests do not count
    code = (
        "import sys\n"
        "import memorymodes.cli\n"
        "print(' '.join(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')))\n"
    )
    result = _python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


def test_cli_import_loads_no_random_module_beyond_numpy():
    # only nmqj, mcwf and compare draw; numpy 1.x loads numpy.random itself
    code = (
        "import sys\n"
        "import numpy\n"
        "def loaded(): return {name for name in sys.modules if name.startswith('numpy.random')}\n"
        "before = loaded()\n"
        "import memorymodes.cli\n"
        "print(' '.join(sorted(loaded() - before)))\n"
    )
    result = _python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


# a finder first in line that refuses every scipy module, then the CLI on sys.argv
_WITHOUT_SCIPY = """\
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, NoScipy())
try:
    import scipy  # noqa: F401
except ImportError:
    pass
else:
    sys.exit("scipy was not blocked")
from memorymodes.cli import main

sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("experiment", ["evolve", "compare"])
def test_experiment_runs_with_scipy_blocked(experiment, tmp_path):
    config = tmp_path / "fig2.cfg"
    config.write_text(FIG2_CONFIG_TEXT.replace("n_steps = 4000", "n_steps = 400"))
    out = tmp_path / "out"
    result = _python(_WITHOUT_SCIPY, experiment, "--config", str(config), "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert (out / "manifest.txt").exists()


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
    if experiment == "evolve":
        assert float(entries["max_diff_extended_amplitude"]) < 1e-14


THREE_LONE_PEAKS = Reservoir(0.0, 0.8, ((1.0, 0.5, -2.0), (1.1, 0.7, 0.0), (1.2, 0.9, 2.0)))


@pytest.mark.parametrize(
    "experiment", ["amplitudes", "rates", "identity", "evolve", "info", "nmqj", "mcwf", "compare"]
)
def test_every_experiment_runs_on_three_modes(experiment, tmp_path, monkeypatch):
    # compare's z-score is not gated: the first-order jump probabilities bias
    # both samplers (ROADMAP item 3), and it reads 7.0 at N=1000 already
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a.shape) or eigvalsh(a))
    out = tmp_path / "out"
    entries = run(RunConfig(experiment, THREE_LONE_PEAKS, TimeGrid(0.0, 10.0, 4000), out)).entries
    assert sorted(p.name for p in out.iterdir()) == sorted(entries["artifacts"].split(",") + ["manifest.txt"])
    if experiment == "identity":
        assert float(entries["max_relative_residual"]) < 1e-6
    if experiment == "evolve":
        assert float(entries["max_diff_amplitude_traced"]) < 1e-14
        assert float(entries["max_diff_amplitude_timelocal"]) < 2e-11
        first = (out / "density_extended.csv").read_text().split("\n", 1)[0]
        assert first == "# dim=5, basis=g000,g100,g010,g001,e000"
    if experiment == "evolve":
        assert float(entries["max_diff_extended_amplitude"]) < 1e-14
    if experiment in ("evolve", "info"):
        assert float(entries["invariant.min_eigenvalue"]) >= -5e-15
        # the emitter series take the 2x2 closed form, the joint states the rank-two
        # one, and evolve bounds the Lindblad spectrum by its distance from them
        assert seen == []


@pytest.mark.parametrize("preset", ["fig2", "bandgap", "perfect_gap"])
@pytest.mark.parametrize("experiment", ["evolve", "info"])
def test_preset_runs_call_no_eigvalsh(preset, experiment, tmp_path, monkeypatch):
    # the emitter series take the 2x2 closed form; info reads the rank-two joint
    # states in closed form, and evolve bounds its Lindblad spectrum by them
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a.shape) or eigvalsh(a))
    config = REPO_ROOT / "configs" / f"{preset}.cfg"
    assert main([experiment, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert seen == []


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
