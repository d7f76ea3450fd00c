"""Post-processing: spectra, filtering, mean positions, fidelity traces.

The fidelity trace over l = 1..n pulses takes one `LindbladPulseMap` per
field and dissipation model.  Each pulse is one product of the N^2 unit
coordinates with the map's real (D^2, D^2) matrix and one contraction with
that pulse's weights; the weights of every pulse depend only on U_s and
are built before the first.

The band-pass filter works in the interior sine basis (DST-I), whose basis
functions vanish at both pulse ends.  Masking sine components is an exact
projection, so filtering twice equals filtering once and the output always
switches on and off at zero field.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .gridsim import Grid
from .propagator import (ControlField, DissipationModel, LindbladPulseMap, hermitian_coordinates,
                         hermitian_units)
from .trap import EigenBasis
from .units import TIME_AU_S

PEAK_THRESHOLD = 0.01   # least power of a reported spectral peak, over the peak power


@dataclass
class Spectrum:
    """One-sided power spectrum |S(nu)|^2 over its peak (zero for a zero
    field); `peak_frequencies` lists its local maxima of at least
    PEAK_THRESHOLD."""

    frequencies_hz: np.ndarray
    power: np.ndarray

    def peak_frequencies(self) -> np.ndarray:
        """Frequencies of local maxima of at least PEAK_THRESHOLD of the
        maximum power."""
        p = self.power
        keep = (p[1:-1] >= p[:-2]) & (p[1:-1] > p[2:]) & (p[1:-1] >= PEAK_THRESHOLD)
        return self.frequencies_hz[1:-1][keep]


def spectrum(field: ControlField) -> Spectrum:
    """Discrete Fourier power spectrum of the sampled field."""
    coeff = np.fft.rfft(field.samples)
    power = np.abs(coeff) ** 2
    dt_s = field.dt * TIME_AU_S
    freqs = np.fft.rfftfreq(len(field.samples), d=dt_s)
    peak = power.max()
    return Spectrum(freqs, power / peak if peak > 0 else power)


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


def mean_position_ion(state, basis: EigenBasis) -> float:
    """<z> in a.u. of an amplitude vector or a density matrix in the
    eigenbasis, read as given (an interaction-picture state as at t = 0)."""
    state = np.asarray(state)
    dim = state.shape[0]
    z = basis.z_matrix[:dim, :dim]
    if state.ndim == 2:
        return float(np.trace(state @ z).real)
    return float((state.conj() @ z @ state).real)


def mean_position_sim(populations: np.ndarray, grid: Grid) -> float:
    """<x> = sum x_j p_j from the populations p_j = |psi(x_j)|^2 dx = |c_j|^2."""
    p = np.asarray(populations, dtype=float)
    if len(p) != grid.n:
        raise ValidationError("population vector does not match the grid")
    return float(np.sum(grid.points * p))


def periodicity_residual(population_trajectory) -> float:
    """Max over l = 0..4 of the max-norm difference between the pulse-l and
    pulse-(10-l) populations of a ten-pulse run."""
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

    The fidelity (1/N^2) sum_jk <U^l j| Phi_l(|j><k|) |U^l k>, which equals
    the gate fidelity |Tr(U_s^dag U_P)|^2/N^2 whenever the map is unitary,
    is the trace of the map Y -> (U^dag)^l P Phi_l(Y) P U^l on the N x N
    matrices Y, P the projector on the first N states.  On their Hermitian
    units (E_jj, H and B of `hermitian_coordinates`) that trace is the real
    bilinear form sum_uv x_l[u, v] g_l[u, v]:
    - x_l[u] holds the coordinates of P Phi_l(unit u) P, carried through
      the pulses by one product with the pulse map's matrix per pulse;
    - g_l[u, v] is coordinate u of (U^dag)^l (unit v) U^l.  The weights
      g_l = g_1^l of every pulse are built before the first, g_1 from the
      Kronecker product vec(U^dag Y U) = vec(Y) (conj(U) (x) U).
    ValidationError if the gate has more states than the map.
    """
    us = getattr(gate, "entries", gate)
    n = us.shape[0]
    d = pulse_map.dim
    if n > d:
        raise ValidationError(f"gate of {n} states exceeds the map's {d} states")

    units = hermitian_units(n).reshape(n * n, n * n)
    kron = (us.conj()[:, None, :, None] * us[:, None, :]).reshape(n * n, n * n)
    turned = hermitian_coordinates((units @ kron).reshape(n * n, n, n))
    weights = np.empty((n_pulses, n * n, n * n))
    weights[:1] = turned.reshape(n * n, n * n).T
    done = 1
    while done < n_pulses:   # g_(done + l) = g_l g_done, for up to done l at once
        m = min(done, n_pulses - done)
        np.matmul(weights[:m], weights[done - 1], out=weights[done:done + m])
        done += m

    # coordinate j d + k of the D states is coordinate j n + k of the first
    # n; x starts as the n^2 unit rows, set without a D^2 identity (8 MB at
    # D = 32)
    block = (np.arange(n)[:, None] * d + np.arange(n)).ravel()
    fids = np.empty(n_pulses)
    x = np.zeros((n * n, d * d))
    x[np.arange(n * n), block] = 1.0
    for pulse in range(n_pulses):
        x = x @ pulse_map.matrix
        fids[pulse] = np.vdot(weights[pulse], x[:, block])
    return fids / n**2
