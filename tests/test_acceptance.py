"""Acceptance gate: one test per criterion, printing a PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.

Three checks fail by design and are kept at their stated tolerances rather
than loosened; each failing test's docstring states the computed value and
why the target cannot be met (see also the project README):

* the first-order quartic energy oracle (the trap is nonperturbative above
  the lowest levels at the production anharmonicity),
* the 114.8 a.u. mean-position calibration (eigenvector sign-gauge
  dependent; this package fixes the gauge by the reproducible
  leading-coefficient rule),
* the 110 ms heating-time calibration (incompatible by linearity with the
  55 ms point that the model does reproduce).
"""

import os

import numpy as np
import pytest

from iontrapsim import (
    OctConfig,
    SimSystem,
    TargetSet,
    TrapParams,
    bandpass_filter,
    build_dissipation,
    classic_propagate,
    elementary_gate,
    encode,
    evolution_operator,
    fidelity,
    gaussian_packet,
    make_grid,
    make_guess_field,
    mean_position_ion,
    optimize_gate,
    optimize_gate_dissipative,
    periodicity_residual,
    phase_spread,
    solve_trap,
    spectrum,
    transition_table,
)
from iontrapsim.gridsim import unitarity_defect
from iontrapsim.propagator import ClosedPulseMap, ControlField, LindbladPulseMap
from iontrapsim.units import TIME_AU_S

from conftest import desk_oct_config
from test_propagator import short_guess, two_level_basis
from test_trap import pt_oracle


def report(name: str, passed: bool, detail: str):
    print(f"\nACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} — {detail}")


# -------------------------------------------------------------- trap physics

def test_trap_frequency_and_dipole(harmonic_basis):
    nu = harmonic_basis.params.omega / (2 * np.pi * TIME_AU_S)
    freq_ok = abs(nu - 2.77e6) / 2.77e6 < 1e-3
    p = harmonic_basis.params
    mu_exact = p.charge * np.sqrt(1.0 / (2 * p.mass * p.omega))
    mu_ok = abs(harmonic_basis.dipole[0, 1] - mu_exact) / mu_exact < 1e-8
    report(
        "trap-physics (frequency, dipole)",
        freq_ok and mu_ok,
        f"nu = {nu / 1e6:.4f} MHz vs 2.77 (0.1%), mu01 = {harmonic_basis.dipole[0, 1]:.6f}",
    )
    assert freq_ok and mu_ok


def test_trap_perturbation_oracle_1pct(paper_basis):
    """Fails by design: at the production quartic constant the first-order
    shift exceeds the level spacing above n = 5, so first-order theory is
    valid to 1% only at the bottom of the well (0.9% at n = 0, 16% by n = 8).
    The exact diagonalization, not the oracle, is what reproduces the
    3.1-5.1 MHz / 10.1-15.1 MHz transition bands."""
    n = np.arange(9)
    e_pt = pt_oracle(paper_basis.params, n)
    rel = np.abs(paper_basis.energies[:9] - e_pt) / e_pt
    passed = bool(rel.max() < 0.01)
    report(
        "trap-physics (perturbation oracle, n <= 8)",
        passed,
        f"max relative deviation {rel.max():.3f} vs 0.01 allowed",
    )
    assert passed, f"first-order oracle deviates up to {rel.max():.1%} (target 1%)"


# --------------------------------------------------------- gate construction

def test_gate_construction(paper_gate, paper_grid):
    unitarity = unitarity_defect(paper_gate.entries)
    pk = gaussian_packet(paper_grid, 1.0, -0.75)
    traj = classic_propagate(pk, paper_gate, 10)
    residual = periodicity_residual([np.abs(p) ** 2 * paper_grid.delta_x for p in traj])

    g64 = make_grid(-4.0, 4.0, 64)
    gate64 = elementary_gate(
        SimSystem(), g64, 2 * np.pi / 10, 10
    )
    pk64 = gaussian_packet(g64, 1.0, -0.75)
    out = pk64
    for _ in range(10):
        out = classic_propagate(out, gate64, 1)[-1]
    ret = np.abs(np.abs(out) ** 2 - np.abs(pk64) ** 2).max() * g64.delta_x

    passed = unitarity < 1e-10 and residual <= 2e-3 and ret <= 1e-3
    report(
        "gate-construction",
        passed,
        f"unitarity {unitarity:.1e} (<=1e-10), periodicity residual "
        f"{residual:.2e} (<=2e-3), full-period return {ret:.2e} (<=1e-3)",
    )
    assert passed


# ------------------------------------------------------------------ encoding

def test_encoding_roundtrip(paper_grid):
    pk = gaussian_packet(paper_grid, 1.0, -0.75)
    c = encode(pk, paper_grid)
    err = np.abs(np.abs(c) ** 2 / paper_grid.delta_x - np.abs(pk) ** 2).max()
    passed = err < 1e-12
    report("encoding (round trip)", passed, f"max error {err:.2e} (<=1e-12)")
    assert passed


def test_encoding_mean_position_magnitude(paper_basis, paper_grid):
    """Fails by design: <z> of the encoded packet depends on the sign gauge
    of the anharmonic eigenvectors (the trap is strongly mixed above j = 6,
    so no gauge-free value exists).  Under this package's reproducible
    leading-coefficient convention the value is 149.8 a.u.; the 114.8 a.u.
    calibration target corresponds to an unspecified gauge and no standard
    convention reproduces it."""
    c = encode(gaussian_packet(paper_grid, 1.0, -0.75), paper_grid)
    z = abs(mean_position_ion(np.pad(c, (0, 16)), paper_basis))
    passed = bool(abs(z - 114.8) / 114.8 < 0.05)
    report(
        "encoding (mean position)",
        passed,
        f"|<z>| = {z:.1f} a.u. vs 114.8 +/- 5%",
    )
    assert passed, f"|<z>| = {z:.1f} a.u.; 114.8 +/- 5% not met (gauge-dependent)"


# --------------------------------------------------------------- propagators

def test_propagators(desk_basis):
    # zero-field invariance
    rng = np.random.default_rng(42)
    c = rng.normal(size=8) + 1j * rng.normal(size=8)
    c /= np.linalg.norm(c)
    zero = ControlField(np.zeros(400 + 1), 1e8 / 400)
    out = ClosedPulseMap(zero, desk_basis).apply(c)
    zero_ok = np.abs(out - c).max() < 1e-12

    # Rabi oracle
    basis2 = two_level_basis()
    rabi = 1e-2
    t_total = 1.2 * np.pi / rabi
    steps = 19000
    dt = t_total / steps
    t = np.arange(steps + 1) * dt
    fld = ControlField(rabi * np.cos(t), dt)
    rabi_map = ClosedPulseMap(fld, basis2, store_every=10)
    stored = rabi_map.snapshots @ np.array([1.0, 0.0], dtype=complex)
    times = rabi_map.times
    p1 = np.abs(stored[:, 1]) ** 2
    i = int(np.argmax(p1))
    y0, y1, y2 = p1[i - 1], p1[i], p1[i + 1]
    t_pi = times[i] + 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2) * (times[1] - times[0])
    rabi_ok = abs(t_pi - np.pi / rabi) / (np.pi / rabi) < 1e-3

    # Lindblad invariants and closed-system limit
    field = short_guess(desk_basis)
    c0 = np.zeros(8, dtype=complex)
    c0[0] = 1.0
    diss = build_dissipation(desk_basis, kappa=1e-15)
    rho = LindbladPulseMap(field, desk_basis, diss).apply(np.outer(c0, c0.conj()))
    trace_ok = abs(np.trace(rho).real - 1.0) < 1e-8
    herm_ok = np.abs(rho - rho.conj().T).max() < 1e-10
    pos_ok = np.linalg.eigvalsh(rho).min() > -1e-6

    out_vec = ClosedPulseMap(field, desk_basis).apply(c0)
    rho0 = LindbladPulseMap(
        field, desk_basis, build_dissipation(desk_basis, kappa=0.0)
    ).apply(np.outer(c0, c0.conj()))
    limit_ok = np.abs(rho0 - np.outer(out_vec, out_vec.conj())).max() < 1e-8

    # RK4 step halving on the same held field
    halved = np.empty(2 * field.n_steps + 1)
    halved[::2] = field.samples
    halved[1::2] = field.samples[:-1]
    fine = ClosedPulseMap(ControlField(halved, field.dt / 2), desk_basis).apply(c0)
    halving_ok = np.abs(out_vec - fine).max() < 1e-6

    passed = all((zero_ok, rabi_ok, trace_ok, herm_ok, pos_ok, limit_ok, halving_ok))
    report(
        "propagators",
        passed,
        f"zero-field {zero_ok}, Rabi {rabi_ok}, trace {trace_ok}, "
        f"Hermiticity {herm_ok}, positivity {pos_ok}, kappa->0 {limit_ok}, "
        f"step-halving {halving_ok}",
    )
    assert passed


# ----------------------------------------------------- heating calibration

def test_heating_time_55ms(paper_basis):
    diss = build_dissipation(paper_basis, kappa=5e-18)
    t_ms = TIME_AU_S / diss.mean_rate * 1e3
    passed = bool(abs(t_ms - 55.0) / 55.0 < 0.10)
    report(
        "dissipation calibration (kappa = 5e-18)",
        passed,
        f"mean heating time {t_ms:.1f} ms vs 55 +/- 10%",
    )
    assert passed


def test_heating_time_110ms(paper_basis):
    """Fails by design: gamma_bar is exactly linear in kappa, so the 55 ms
    calibration at kappa = 5e-18 forces 275 ms at kappa = 1e-18.  The two
    reference targets (55 ms and 110 ms) are mutually inconsistent under
    every averaging set; this model matches the 55 ms point."""
    diss = build_dissipation(paper_basis, kappa=1e-18)
    t_ms = TIME_AU_S / diss.mean_rate * 1e3
    passed = bool(abs(t_ms - 110.0) / 110.0 < 0.10)
    report(
        "dissipation calibration (kappa = 1e-18)",
        passed,
        f"mean heating time {t_ms:.1f} ms vs 110 +/- 10%",
    )
    assert passed, f"heating time {t_ms:.0f} ms; 110 +/- 10% unattainable (linearity)"


# ------------------------------------------------------- control synthesis

def test_oct_desk_convergence(desk_basis, desk_gate, desk_converged):
    details = []
    passed = True
    for functional in ("P", "F"):
        field, trace = desk_converged[functional]
        sweeps = trace.iterations[-1]
        u_real = evolution_operator(field, desk_basis, 4)
        f_canon = fidelity(desk_gate, u_real)
        peak = field.peak_v_per_m()
        ok = (trace.is_monotonic() and sweeps <= 500 and f_canon >= 0.99
              and peak <= 1.5)
        passed &= ok
        details.append(
            f"{functional}: F = {f_canon:.5f} in {sweeps} iterations, "
            f"monotone {trace.is_monotonic()}, peak {peak:.2f} V/m"
        )
    report("oct desk scale (convergence)", passed, "; ".join(details))
    assert passed


def test_oct_phase_coherence(desk_basis, desk_gate, desk_converged):
    details = []
    passed = True
    for functional in ("P", "F"):
        field, _ = desk_converged[functional]
        u_real = evolution_operator(field, desk_basis, 4)
        spread = phase_spread(desk_gate, u_real)
        passed &= spread <= 0.2
        details.append(f"{functional}: {spread:.3f} rad")
    report("oct desk scale (common phase <= 0.2 rad)", passed, "; ".join(details))
    assert passed


def test_oct_dissipative_zero_kappa_match(desk_basis, desk_gate):
    cfg = desk_oct_config("P", max_iterations=6, fidelity_goal=1.0)
    targets = TargetSet(desk_gate.entries)
    field_c, trace_c = optimize_gate(desk_basis, targets, cfg)
    diss0 = build_dissipation(desk_basis, kappa=0.0)
    cfg2 = desk_oct_config("P", max_iterations=6, fidelity_goal=1.0)
    field_d, trace_d = optimize_gate_dissipative(desk_basis, targets, cfg2, diss0)
    field_err = np.abs(field_d.samples - field_c.samples).max() / np.abs(
        field_c.samples
    ).max()
    obj_err = np.abs(
        np.array(trace_d.objectives) - np.array(trace_c.objectives)
    ).max() / max(map(abs, trace_c.objectives))
    passed = field_err < 1e-6 and obj_err < 1e-6
    report(
        "oct desk scale (dissipative kappa = 0 reduction)",
        passed,
        f"field deviation {field_err:.1e}, objective deviation {obj_err:.1e} (<=1e-6)",
    )
    assert passed


# ----------------------------------------------------------- field spectra

def test_converged_spectrum_alignment(desk_basis, desk_converged):
    trans = np.array([r[2] for r in transition_table(desk_basis, (1, 3), 4)])
    details = []
    passed = True
    for functional in ("P", "F"):
        field, _ = desk_converged[functional]
        spec = spectrum(field)
        peaks = spec.peak_frequencies()
        bin_width = float(spec.frequencies_hz[1] - spec.frequencies_hz[0])
        worst = max(np.abs(peaks - t).min() / bin_width for t in trans)
        passed &= worst <= 1.0
        details.append(f"{functional}: worst transition-to-peak {worst:.2f} bins")
    report("field spectra (transition alignment)", passed, "; ".join(details))
    assert passed


def test_guess_field_line_count(paper_basis):
    cfg = OctConfig(t_pulse=96e-6 / TIME_AU_S, dt=960e-12 / TIME_AU_S, alpha0=1e15)
    field = make_guess_field(paper_basis, cfg)
    spec = spectrum(field)
    peaks = spec.peak_frequencies()
    trans = np.array([r[2] for r in transition_table(paper_basis, (1, 3), 16)])
    bin_width = float(spec.frequencies_hz[1] - spec.frequencies_hz[0])
    aligned = all(np.abs(trans - p).min() <= bin_width for p in peaks)
    passed = len(peaks) == 28 and aligned
    report(
        "guess field (28 spectral lines)",
        passed,
        f"{len(peaks)} peaks, aligned {aligned}",
    )
    assert passed


def test_bandpass_idempotent(desk_basis):
    field = short_guess(desk_basis, steps=4000)
    band = (1.0e6, 11.0e6)
    once = bandpass_filter(field, band)
    twice = bandpass_filter(once, band)
    err = np.abs(twice.samples - once.samples).max() / np.abs(once.samples).max()
    passed = err < 1e-12
    report("band-pass filter (idempotent)", passed, f"second-pass change {err:.1e}")
    assert passed


# ------------------------------------------------------------- full scale

def test_paper_tier_documented():
    script = os.path.join(os.path.dirname(__file__), "..", "scripts",
                          "reproduce_paper.sh")
    passed = os.path.exists(script)
    report(
        "paper tier",
        passed,
        "full-scale run deferred to scripts/reproduce_paper.sh (hours, "
        "checkpointed); see also `pytest -m paper`",
    )
    assert passed


@pytest.mark.paper
def test_paper_tier_gate_field():
    """Full-scale synthesis: 16 states, 96 us pulse, 100,000 steps.
    Hours of runtime; run explicitly with `pytest -m paper`."""
    basis = solve_trap(TrapParams())
    grid = make_grid(-4.0, 4.0, 16)
    gate = elementary_gate(SimSystem(), grid, 2 * np.pi / 10, 10)
    cfg = OctConfig(
        t_pulse=96e-6 / TIME_AU_S,
        dt=960e-12 / TIME_AU_S,
        alpha0=1e15,
        functional="P",
        max_iterations=1500,
        fidelity_goal=0.999,
    )
    field, trace = optimize_gate(basis, TargetSet(gate.entries), cfg)
    u_real = evolution_operator(field, basis, 16)
    f_canon = fidelity(gate, u_real)
    report("paper tier (gate field)", f_canon >= 0.999, f"F = {f_canon:.6f}")
    assert f_canon >= 0.999
    assert field.peak_v_per_m() <= 1.5


@pytest.mark.paper
def test_paper_tier_dissipative_reoptimization():
    """Full-scale dissipative synthesis at kappa = 1e-18; the density-matrix
    iteration runs for days (checkpoint through the CLI for practical use)."""
    basis = solve_trap(TrapParams())
    grid = make_grid(-4.0, 4.0, 16)
    gate = elementary_gate(SimSystem(), grid, 2 * np.pi / 10, 10)
    cfg = OctConfig(
        t_pulse=96e-6 / TIME_AU_S,
        dt=960e-12 / TIME_AU_S,
        alpha0=1e15,
        functional="P",
        max_iterations=700,
        fidelity_goal=0.995,
    )
    diss = build_dissipation(basis, kappa=1e-18)
    field, trace = optimize_gate_dissipative(basis, TargetSet(gate.entries), cfg, diss)
    report(
        "paper tier (dissipative gate field)",
        trace.final_fidelity >= 0.995,
        f"mean target population {trace.final_fidelity:.6f}",
    )
    assert trace.final_fidelity >= 0.995
    assert field.peak_v_per_m() <= 1.5
