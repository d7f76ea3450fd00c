"""Outputs pinned at full precision.

The numbers were recorded before the optimizer, the propagators and the
fidelity trace were moved onto the one RK4 kernel and Lindblad generator
of `propagator`.  A change meant to keep results must reproduce them to
1e-12 relative.
"""

import numpy as np
import pytest

from iontrapsim import (
    OctConfig,
    TargetSet,
    build_dissipation,
    evolution_operator,
    fidelity_trace,
    make_guess_field,
    optimize_gate,
    optimize_gate_dissipative,
)
from iontrapsim.units import TIME_AU_S

RTOL = 1e-12

OBJECTIVES = {
    "P": [3.4250149356621065, 4.02113457026271, 4.147124638027958],
    "F": [4.683536210250859, 5.669098371172925, 6.541472278623199],
}
GUESS_GATE = [
    [0.9409646693385407+0.02872821651913617j, 0.3246973212052854-0.07069488496762531j,
     0.018092778427170598+0.04941339329077491j, 0.015135634132039593+0.01759694857247593j],
    [-0.32790128859157364-0.07500343938593886j, 0.912873811478389-0.020730224946051992j,
     0.02326624376296553+0.21555488095325046j, 0.028742983380930492+0.07062740155251811j],
    [0.0030689960518226313-0.02353524170385619j, -0.008298302842297123+0.23459162615726495j,
     0.8716884353276423-0.03687693049142745j, 0.37274580751845743-0.163328180549862j],
    [-0.005730596179462644+0.0035385690796425175j, 0.01254856502678838-0.019294024811066103j,
     -0.3649612331580942-0.16283896318709953j, 0.7294378910015663+0.1459408929198243j],
]
FIDELITY_TRACE = [0.28619803311072334, 0.02564712436797244]
DISSIPATIVE_OBJECTIVES = [3.4242972175328505, 4.020055986060069]


def short_config(functional="P", **overrides):
    """4 us desk pulse in 2,000 steps."""
    kwargs = dict(
        t_pulse=4e-6 / TIME_AU_S,
        dt=2e-9 / TIME_AU_S,
        alpha0={"P": 5e14, "F": 2e15}[functional],
        functional=functional,
        max_iterations=2,
        fidelity_goal=0.995,
    )
    kwargs.update(overrides)
    return OctConfig(**kwargs)


def assert_pinned(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= RTOL * np.abs(want).max()


@pytest.mark.parametrize("functional", ["P", "F"])
def test_closed_gate_objectives(desk_basis, desk_gate, functional):
    _, trace = optimize_gate(
        desk_basis, TargetSet(desk_gate.entries), short_config(functional)
    )
    assert_pinned(trace.objectives, OBJECTIVES[functional])


def test_evolution_operator_of_guess(desk_basis):
    guess = make_guess_field(desk_basis, short_config())
    assert_pinned(evolution_operator(guess, desk_basis, 4), GUESS_GATE)


def test_fidelity_trace(desk_basis, desk_gate):
    guess = make_guess_field(desk_basis, short_config())
    diss = build_dissipation(desk_basis, kappa=1e-15)
    assert_pinned(fidelity_trace(guess, desk_basis, diss, 2, desk_gate), FIDELITY_TRACE)


def test_dissipative_objectives(desk_basis, desk_gate):
    _, trace = optimize_gate_dissipative(
        desk_basis, TargetSet(desk_gate.entries), short_config(max_iterations=1),
        build_dissipation(desk_basis, kappa=1e-17),
    )
    assert_pinned(trace.objectives, DISSIPATIVE_OBJECTIVES)
