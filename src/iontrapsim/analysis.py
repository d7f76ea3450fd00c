"""Post-processing: spectra, filtering, mean positions, fidelity traces.

The fidelity trace over l = 1..n pulses takes one `LindbladPulseMap` per
field and dissipation model: the Hermitian coordinates of the N^2 units
meet the map's real (D^2, D^2) matrix once per pulse.

The band-pass filter works in the interior sine basis (DST-I), whose basis
functions vanish at both pulse ends.  Masking sine components is an exact
projection, so filtering twice equals filtering once and the output always
switches on and off at zero field.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .gridsim import Grid
from .propagator import ControlField, DissipationModel, LindbladPulseMap, hermitian_matrices
from .trap import EigenBasis
from .units import TIME_AU_S


@dataclass
class Spectrum:
    """One-sided power spectrum |S(nu)|^2, normalized to unit peak."""

    frequencies_hz: np.ndarray
    power: np.ndarray
    raw_power: np.ndarray

    def peak_frequencies(self, rel_threshold: float = 0.01) -> np.ndarray:
        """Frequencies of local maxima above rel_threshold * max power."""
        p = self.power
        keep = (p[1:-1] >= p[:-2]) & (p[1:-1] > p[2:]) & (p[1:-1] >= rel_threshold)
        return self.frequencies_hz[1:-1][keep]


def spectrum(field: ControlField) -> Spectrum:
    """Discrete Fourier power spectrum of the sampled field."""
    coeff = np.fft.rfft(field.samples)
    power = np.abs(coeff) ** 2
    dt_s = field.dt * TIME_AU_S
    freqs = np.fft.rfftfreq(len(field.samples), d=dt_s)
    peak = power.max()
    if peak <= 0:
        return Spectrum(freqs, power, power.copy())
    return Spectrum(freqs, power / peak, power)


def _dst1(y: np.ndarray) -> np.ndarray:
    """Type-I discrete sine transform via odd extension and rFFT."""
    m = len(y)
    ext = np.zeros(2 * m + 2)
    ext[1 : m + 1] = y
    ext[m + 2 :] = -y[::-1]
    return -np.fft.rfft(ext).imag[1 : m + 1]


def bandpass_filter(field: ControlField, keep_band) -> ControlField:
    """Keep only sine components with frequency inside [lo, hi] Hz.

    The endpoints are structurally zero in the sine basis; applying the
    filter twice gives the same field back (projection).
    """
    lo, hi = keep_band
    dt_s = field.dt * TIME_AU_S
    nyquist = 0.5 / dt_s
    if not 0 <= lo <= hi:
        raise ValidationError("need 0 <= lo <= hi")
    if hi > nyquist:
        raise ValidationError(f"band edge {hi:.3e} Hz beyond Nyquist {nyquist:.3e} Hz")
    interior = field.samples[1:-1]
    m = len(interior)
    coeff = _dst1(interior)
    # sine mode n has frequency n / (2 (m+1) dt)
    freqs = np.arange(1, m + 1) / (2.0 * (m + 1) * dt_s)
    coeff[(freqs < lo) | (freqs > hi)] = 0.0
    out = np.zeros_like(field.samples)
    out[1:-1] = _dst1(coeff) / (2.0 * m + 2.0)
    return ControlField(out, field.dt)


def mean_position_ion(state, basis: EigenBasis, t: float = 0.0) -> float:
    """<z> in a.u. of an amplitude vector or a density matrix in the
    eigenbasis, with interaction-picture phases restored at time t."""
    state = np.asarray(state)
    dim = state.shape[0]
    z = basis.z_matrix[:dim, :dim]
    phase = np.exp(-1j * basis.energies[:dim] * t)
    if state.ndim == 2:
        rho = phase[:, None] * state * phase.conj()[None, :]
        return float(np.trace(rho @ z).real)
    c = phase * state
    return float((c.conj() @ z @ c).real)


def mean_position_sim(populations: np.ndarray, grid: Grid) -> float:
    """<x> = sum x_j p_j from the populations p_j = |psi(x_j)|^2 dx = |c_j|^2."""
    p = np.asarray(populations, dtype=float)
    if len(p) != grid.n:
        raise ValidationError("population vector does not match the grid")
    return float(np.sum(grid.points * p))


def periodicity_residual(population_trajectory) -> float:
    """Max over l = 0..4 of the max-norm difference between the pulse-l and
    pulse-(10-l) population vectors of a ten-pulse run."""
    traj = [np.asarray(p, dtype=float) for p in population_trajectory]
    if len(traj) != 11:
        raise ValidationError("expected populations after pulses 0..10")
    return max(float(np.abs(traj[l] - traj[10 - l]).max()) for l in range(5))


def fidelity_trace(
    gate_field: ControlField,
    basis: EigenBasis,
    diss: DissipationModel,
    n_pulses: int,
    gate,
) -> np.ndarray:
    """Process fidelity of the cumulative realized map against U_s^l after
    each of n_pulses Lindblad pulses of gate_field; see `map_fidelity_trace`."""
    return map_fidelity_trace(LindbladPulseMap(gate_field, basis, diss), n_pulses, gate)


def map_fidelity_trace(pulse_map: LindbladPulseMap, n_pulses: int, gate) -> np.ndarray:
    """Process fidelity of Phi^l against U_s^l for l = 1..n_pulses.

    Carries the Hermitian coordinates of the N^2 units through the pulses,
    one product with the pulse map's matrix per pulse: the projectors E_jj
    and, for j < k, H = E_jk + E_kj and B = i (E_jk - E_kj), from which
    Phi_l(E_jk) = (Phi_l(H) - i Phi_l(B)) / 2 and
    Phi_l(E_kj) = (Phi_l(H) + i Phi_l(B)) / 2.  It evaluates
    (1/N^2) sum_jk <U^l j| Phi_l(|j><k|) |U^l k>, which equals the gate
    fidelity |Tr(U_s^dag U_P)|^2/N^2 whenever the map is unitary.
    """
    us = getattr(gate, "entries", gate)
    n = us.shape[0]
    d = pulse_map.dim

    # unit u = j n + k holds E_jj (j = k), H (j < k) or B of the pair (k, j),
    # which is coordinate j d + k in the D-state space; recombine[j n + k]
    # gives Phi(E_jk) from the propagated units
    units = (np.arange(n)[:, None] * d + np.arange(n)).ravel()
    recombine = np.zeros((n * n, n * n), dtype=complex)
    for j in range(n):
        recombine[j * n + j, j * n + j] = 1.0
        for k in range(j + 1, n):
            h, b = j * n + k, k * n + j
            recombine[h, h] = recombine[b, h] = 0.5
            recombine[h, b], recombine[b, b] = -0.5j, 0.5j

    fids = np.empty(n_pulses)
    x = np.eye(d * d)[units]
    target = np.eye(n, dtype=complex)
    for pulse in range(n_pulses):
        x = x @ pulse_map.matrix
        target = us @ target
        # blocks[j, k] = Phi_l(|j><k|) on the first n states
        phi_units = hermitian_matrices(x.reshape(n * n, d, d)[:, :n, :n])
        blocks = (recombine @ phi_units.reshape(n * n, n * n)).reshape(n, n, n, n)
        acc = np.einsum("aj,jkab,bk->", target.conj(), blocks, target).real
        fids[pulse] = acc / n**2
    return fids
