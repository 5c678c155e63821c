"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion recomputes what it needs from scratch so the printed runtime
reflects the full cost. Run with ``pytest tests/test_acceptance.py -v -s`` to
see the lines inline.
"""

import math
import time

import numpy as np
import pytest

from memorymodes import (
    DensityMatrix,
    LorentzianModel,
    TimeGrid,
    atom_density_from_amplitudes,
    compare_unravelings,
    evolve_atom_timelocal,
    evolve_lindblad_double,
    evolve_lindblad_single,
    intermode_memory_identity,
    memory_identity_double,
    memory_identity_single,
    mode_generator,
    partial_trace_pseudomodes,
    propagate_double,
    propagate_single,
    rates_from_amplitudes,
    rates_pseudomode_form,
    run_mcwf_pseudomode,
    run_nmqj,
    validate_config_text,
    von_neumann_entropy,
)
from memorymodes.cli import FIG2_CONFIG_TEXT, RunConfig, run
from conftest import (
    BANDGAP_PARAMS,
    FIG2_PARAMS,
    PERFECT_GAP_PARAMS,
    gamma_markov,
    max_entry_diff,
    random_bandgap,
    random_lorentzian,
    random_perfect_gap,
)
from memorymodes import BandGapModel

EXCITED_ATOM = np.array([0.0, 1.0 + 0.0j])


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} {name}: {status} ({detail})")


def test_criterion_1_coefficient_equivalence():
    started = time.perf_counter()
    worst_shift, worst_rate = 0.0, 0.0

    def check(model, grid):
        nonlocal worst_shift, worst_rate
        traj = propagate_single(model, None, grid)
        direct = rates_from_amplitudes(traj)
        mode_form = rates_pseudomode_form(traj)
        scale = gamma_markov(model)
        valid = direct.valid
        worst_shift = max(
            worst_shift, float(np.max(np.abs(mode_form.s[valid] - direct.s[valid]))) / scale
        )
        worst_rate = max(
            worst_rate,
            float(np.max(np.abs(mode_form.gamma[valid] - direct.gamma[valid]))) / scale,
        )

    check(LorentzianModel(**FIG2_PARAMS), TimeGrid(0.0, 10.0, 4000))
    rng = np.random.default_rng(101)
    for _ in range(100):
        check(random_lorentzian(rng), TimeGrid(0.0, 5.0, 400))
    elapsed = time.perf_counter() - started
    ok = worst_shift < 1e-6 and worst_rate < 1e-6 and elapsed < 10.0
    report(
        1,
        "coefficient equivalence",
        ok,
        f"max|A-S|={worst_shift:.2e}, max|B-gamma|={worst_rate:.2e} in weak-coupling"
        f" units, tol 1e-6, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_2_memory_identity():
    started = time.perf_counter()
    model = LorentzianModel(**FIG2_PARAMS)
    grid = TimeGrid(0.0, 10.0, 4000)
    traj = propagate_single(model, None, grid)
    rates = rates_from_amplitudes(traj)
    identity = memory_identity_single(traj, rates)
    guard = np.abs(identity.rhs) > 1e-9 * gamma_markov(model)
    keep = guard & identity.valid
    signs_match = bool(
        np.all(np.sign(identity.lhs[keep]) == np.sign(rates.gamma[keep]))
    )
    elapsed = time.perf_counter() - started
    ok = identity.max_relative_residual < 1e-6 and signs_match and elapsed < 1.0
    report(
        2,
        "compensated-drain identity",
        ok,
        f"max relative residual={identity.max_relative_residual:.2e}, "
        f"sign linkage={'yes' if signs_match else 'no'}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_3_reference_curve_reproduction(tmp_path):
    started = time.perf_counter()
    parsed = validate_config_text(FIG2_CONFIG_TEXT, source="<fig2 preset>")
    config = RunConfig(
        experiment="fig2",
        model=parsed.model,
        grid=parsed.grid,
        out_dir=tmp_path / "fig2",
        raw_config=parsed.raw,
    )
    manifest = run(config)
    curve_file = tmp_path / "fig2" / "rates.csv"
    data = np.genfromtxt(curve_file, delimiter=",", names=True)
    min_gamma = float(np.min(data["gamma"]))
    has_pair = {"gamma", "compensated"} <= set(data.dtype.names)
    elapsed = time.perf_counter() - started
    ok = (
        min_gamma < 0.0
        and has_pair
        and curve_file.exists()
        and "rates.csv" in manifest.entries["artifacts"]
        and elapsed < 1.0
    )
    report(
        3,
        "reference preset reproduction",
        ok,
        f"min gamma={min_gamma:.3f} (<0), curve pair exported, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_4_generalized_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    grid = TimeGrid(0.0, 5.0, 400)
    worst_total, worst_intermode = 0.0, 0.0
    perfect_rates_zero = True
    n_perfect = 0
    for index in range(100):
        perfect = index % 10 == 0  # 10 perfect-gap sets
        model = random_perfect_gap(rng) if perfect else random_bandgap(rng)
        sector = model.sector
        if perfect:
            n_perfect += 1
            perfect_rates_zero &= sector.leak_rates[0] == 0.0
        traj = propagate_double(model, None, grid)
        rates = rates_from_amplitudes(traj)
        total = memory_identity_double(traj, rates)
        intermode = intermode_memory_identity(traj)
        worst_total = max(worst_total, total.max_relative_residual)
        worst_intermode = max(worst_intermode, intermode.max_relative_residual)
    elapsed = time.perf_counter() - started
    ok = (
        worst_total < 1e-6
        and worst_intermode < 1e-6
        and perfect_rates_zero
        and n_perfect >= 10
        and elapsed < 30.0
    )
    report(
        4,
        "generalized identities",
        ok,
        f"max relative residuals: total={worst_total:.2e}, intermode={worst_intermode:.2e}, "
        f"{n_perfect} perfect-gap sets, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_5_route_equivalence():
    started = time.perf_counter()
    grid = TimeGrid(0.0, 10.0, 4000)
    worst = 0.0

    def three_routes(model, single):
        traj = (propagate_single if single else propagate_double)(model, None, grid)
        rates = rates_from_amplitudes(traj)
        from_amplitudes = atom_density_from_amplitudes(traj)
        timelocal = evolve_atom_timelocal(rates, DensityMatrix.excited(2))
        if single:
            extended = evolve_lindblad_single(model, DensityMatrix.excited(3), grid)
        else:
            extended = evolve_lindblad_double(model, DensityMatrix.excited(4), grid)
        traced = [partial_trace_pseudomodes(rho) for rho in extended]
        return from_amplitudes, timelocal, traced

    for model, single in (
        (LorentzianModel(**FIG2_PARAMS), True),
        (BandGapModel(**BANDGAP_PARAMS), False),
    ):
        routes = three_routes(model, single)
        for i in range(3):
            for j in range(i + 1, 3):
                worst = max(worst, max_entry_diff(routes[i], routes[j]))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-6 and elapsed < 10.0
    report(
        5,
        "route equivalence",
        ok,
        f"max pairwise entry difference={worst:.2e}, tol 1e-6, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_6_unraveling_convergence():
    started = time.perf_counter()
    n = 100_000
    model = LorentzianModel(**FIG2_PARAMS)
    grid = TimeGrid(0.0, 10.0, 4000)
    traj = propagate_single(model, None, grid)
    rates = rates_from_amplitudes(traj)

    nmqj = run_nmqj(rates, EXCITED_ATOM, n, 2024)
    exact_ee = np.abs(traj.c1) ** 2
    estimate = nmqj.n0 / n  # deterministic state stays |e> for an excited start
    err = np.abs(estimate - exact_ee)
    sigma = np.sqrt(np.clip(exact_ee * (1 - exact_ee), 0.0, None) / n)
    with np.errstate(invalid="ignore", divide="ignore"):
        z_nmqj = float(np.max(np.where(sigma > 0, err / sigma, 0.0)))
    max_err = float(err.max())

    mcwf = run_mcwf_pseudomode(traj, n, 2025)
    lindblad = evolve_lindblad_single(model, DensityMatrix.excited(3), grid)
    vacuum = np.zeros((3, 3))
    vacuum[0, 0] = 1.0
    z_mcwf = 0.0
    for k in range(grid.n_steps):
        share = np.outer(mcwf.psi0[k], mcwf.psi0[k].conj())
        ensemble = (mcwf.n0[k] / n) * share + (mcwf.n1[k] / n) * vacuum
        survival = 1.0 - lindblad[k].matrix[0, 0].real
        scale = np.abs(share - vacuum) * math.sqrt(max(survival * (1 - survival), 0.0) / n)
        gap = np.abs(ensemble - lindblad[k].matrix)
        with np.errstate(invalid="ignore", divide="ignore"):
            scores = np.where(scale > 0, gap / scale, np.where(gap > 1e-9, np.inf, 0.0))
        z_mcwf = max(z_mcwf, float(np.max(scores)))

    cross = compare_unravelings(nmqj, mcwf, atom_density_from_amplitudes(traj))
    elapsed = time.perf_counter() - started
    ok = (
        max_err < 0.01
        and z_nmqj < 5.0
        and z_mcwf < 5.0
        and cross.max_cross_z < 5.0
        and elapsed < 120.0
    )
    report(
        6,
        "unraveling convergence",
        ok,
        f"N=1e5: max|err|={max_err:.4f} (<0.01), z_nmqj={z_nmqj:.2f}, "
        f"z_mcwf={z_mcwf:.2f}, cross z={cross.max_cross_z:.2f} (all <5), {elapsed:.1f}s",
    )
    assert ok


def test_criterion_7_markovian_limit():
    started = time.perf_counter()
    model = LorentzianModel(omega0=0.0, omega_c=0.0, gamma=100.0, omega_coupling=1.0)
    grid = TimeGrid(0.0, 0.5, 2000)
    rates = rates_from_amplitudes(propagate_single(model, None, grid))
    late = grid.times > 10.0 / model.peaks[0][1]
    deviation = float(np.max(np.abs(rates.gamma[late] / gamma_markov(model) - 1.0)))
    elapsed = time.perf_counter() - started
    ok = deviation < 0.02 and elapsed < 1.0
    report(
        7,
        "Markovian limit",
        ok,
        f"max |gamma/gamma_markov - 1| = {deviation:.4f} after 10/width (<0.02), {elapsed:.1f}s",
    )
    assert ok


def test_criterion_8_perfect_gap_trapping():
    started = time.perf_counter()
    model = BandGapModel(**PERFECT_GAP_PARAMS)
    rate_exactly_zero = model.sector.leak_rates[0] == 0.0

    grid = TimeGrid(0.0, 50.0, 4000)
    traj = propagate_double(model, None, grid)
    plateau = float(np.abs(traj.c1[-1]) ** 2)

    # independent eigen-oracle: project the initial state on the undamped mode
    generator = mode_generator(model.sector)
    evals, evecs = np.linalg.eig(generator)
    slowest = int(np.argmax(evals.real))
    coeffs = np.linalg.solve(evecs, np.array([1.0, 0.0, 0.0], dtype=complex))
    predicted = float(abs(evecs[0, slowest] * coeffs[slowest]) ** 2)

    gap = abs(plateau - predicted)
    elapsed = time.perf_counter() - started
    ok = rate_exactly_zero and predicted > 0.0 and gap < 1e-4 and elapsed < 5.0
    report(
        8,
        "perfect-gap trapping",
        ok,
        f"storage rate exactly 0: {rate_exactly_zero}, plateau={plateau:.6f} vs "
        f"oracle={predicted:.6f} (|diff|={gap:.1e} < 1e-4), {elapsed:.1f}s",
    )
    assert ok


def test_criterion_9_entropy_rate_linkage():
    started = time.perf_counter()
    model = LorentzianModel(**FIG2_PARAMS)
    grid = TimeGrid(0.0, 10.0, 4000)
    traj = propagate_single(model, None, grid)
    rates = rates_from_amplitudes(traj)
    entropy = np.array(
        [von_neumann_entropy(rho) for rho in atom_density_from_amplitudes(traj)]
    )
    negative = rates.gamma < 0
    inside = negative[:-1] & negative[1:]
    violations = int(np.sum((np.diff(entropy) > 1e-9) & inside))
    elapsed = time.perf_counter() - started
    ok = inside.any() and violations == 0 and elapsed < 5.0
    report(
        9,
        "entropy-rate linkage",
        ok,
        f"{int(inside.sum())} grid intervals with negative rate, "
        f"{violations} entropy increases, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_10_determinism(tmp_path):
    started = time.perf_counter()
    parsed = validate_config_text(FIG2_CONFIG_TEXT, source="<fig2 preset>")
    artifacts = ("nmqj.csv", "mcwf.csv", "comparison.csv")
    outputs = []
    for label, seed in (("first", 7777), ("repeat", 7777), ("other", 7778)):
        config = RunConfig(
            experiment="compare",
            model=parsed.model,
            grid=parsed.grid,
            out_dir=tmp_path / label,
            n_members=10_000,
            seed=seed,
            raw_config=parsed.raw,
        )
        run(config)
        outputs.append({name: (tmp_path / label / name).read_bytes() for name in artifacts})
    identical = outputs[0] == outputs[1]
    seed_matters = outputs[0]["nmqj.csv"] != outputs[2]["nmqj.csv"]
    elapsed = time.perf_counter() - started
    ok = identical and seed_matters and elapsed < 120.0
    report(
        10,
        "determinism across repeat runs",
        ok,
        f"byte-identical CSVs for a repeat run: {identical}, "
        f"another seed changes nmqj.csv: {seed_matters}, {elapsed:.1f}s",
    )
    assert ok
