"""Outputs pinned at full precision.

`OBJECTIVES` and `DISSIPATIVE_OBJECTIVES` were recorded from the
optimizers before they were moved onto the one RK4 kernel and Lindblad
generator of `propagator`; the optimizers have always held sample n over
step n.  `GUESS_GATE` and `FIDELITY_TRACE` were recorded from that kernel
under the same held-sample rule, fed the guess samples directly, before
`evolution_operator` and `fidelity_trace` adopted the rule.  A change
meant to keep results must reproduce all of them to 1e-12 relative.
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
    [0.9409574330003075+0.028728848514854972j, 0.323278371522562-0.07700577784019219j,
     0.020086385559777323+0.04864264507023856j, 0.016223643694039627+0.01660945483071334j],
    [-0.3263989112062683-0.08137499633998853j, 0.9128624938028936-0.02073505353564354j,
     0.02782618882669153+0.21502632568912863j, 0.03180705930910283+0.06931287343250829j],
    [0.004021958251995846-0.023394270596599924j, -0.013259784148204608+0.23437972732232465j,
     0.8716683691473646-0.03688464085882757j, 0.36898651647608527-0.17171298546503513j],
    [-0.005947754481713932+0.0031698392756123336j, 0.013381126855171942-0.01872941429794891j,
     -0.36121374831908126-0.17104578561488787j, 0.7293917846484314+0.14596199468277246j],
]
FIDELITY_TRACE = [0.2859803022825756, 0.02522173091986784]
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
