"""Atomic-unit conversions (CODATA 2018).

Everything inside the package is computed in Hartree atomic units
(hbar = m_e = e = a0 = 1).  Conversions to laboratory units happen only
at the I/O boundary.
"""

import numpy as np

# CODATA 2018
TIME_AU_S = 2.4188843265e-17        # 1 a.u. of time in seconds
FIELD_AU_V_PER_M = 5.14220675e11    # 1 a.u. of electric field in V/m
AMU_IN_ME = 1822.888486             # atomic mass unit in electron masses


def angular_freq_au_to_hz(omega_au):
    """Angular frequency in a.u. (= energy for hbar=1) to ordinary frequency in Hz."""
    return np.asarray(omega_au) / (2.0 * np.pi * TIME_AU_S)


def hz_to_angular_freq_au(nu_hz):
    return np.asarray(nu_hz) * 2.0 * np.pi * TIME_AU_S
