import os
import re

import numpy as np
import pytest

import iontrapsim
from iontrapsim import (Grid, NumericalError, OctConfig, SimSystem, TargetSet, TrapParams,
                        ValidationError, elementary_gate, encode, gaussian_packet,
                        optimize_state_prep)


def test_every_export_resolves():
    """Every name in `__all__` exists, once, and a star import binds them
    all; a name left behind by a deletion fails here."""
    exports = iontrapsim.__all__
    assert len(set(exports)) == len(exports)
    assert [name for name in exports if not hasattr(iontrapsim, name)] == []
    namespace = {}
    exec("from iontrapsim import *", namespace)
    assert set(exports) <= set(namespace)


def test_readme_library_sketch_runs():
    """The README's `python` block runs as written (a 200-step pulse and
    two iterations on the paper trap)."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as handle:
        blocks = re.findall(r"```python\n(.*?)```", handle.read(), re.S)
    assert len(blocks) == 1
    exec(blocks[0], {})


# call of the library on the desk basis, grid and one bad value -> the error it must raise
BAD_VALUE_CHECKS = {
    "target-gate": (ValidationError, lambda basis, grid, v: TargetSet(np.full((4, 4), v))),
    "encode": (ValidationError, lambda basis, grid, v: encode(np.full(grid.n, v), grid)),
    "prep-target": (ValidationError, lambda basis, grid, v: optimize_state_prep(
        basis, np.full(grid.n, v), OctConfig(t_pulse=2.0, dt=1.0, alpha0=1.0,
                                             max_iterations=0))),
    "gate-delta-t": (ValidationError, lambda basis, grid, v: elementary_gate(SimSystem(), grid,
                                                                            v, 10)),
    "alpha0": (ValidationError, lambda basis, grid, v: OctConfig(t_pulse=2.0, dt=1.0, alpha0=v)),
    "t-pulse": (ValidationError, lambda basis, grid, v: OctConfig(t_pulse=v, dt=1.0,
                                                                  alpha0=1.0)),
    "trap-k": (ValidationError, lambda basis, grid, v: TrapParams(k=v).validate()),
    "trap-mass": (ValidationError, lambda basis, grid, v: TrapParams(mass=v).validate()),
    "trap-k-quart": (ValidationError, lambda basis, grid, v: TrapParams(k_quart=v).validate()),
    "trap-charge": (ValidationError, lambda basis, grid, v: TrapParams(charge=v).validate()),
    "grid": (ValidationError, lambda basis, grid, v: Grid(v, 4.0, 4)),
    "grid-upper": (ValidationError, lambda basis, grid, v: Grid(0.0, v, 4)),
    "packet-sigma": (ValidationError, lambda basis, grid, v: gaussian_packet(grid, v, 0.0)),
}


# NaN cases keep the bare case name; the infinities get a suffix
BAD_VALUES = [(float("nan"), ""), (float("inf"), "-inf"), (-float("inf"), "-minus-inf")]


@pytest.mark.parametrize("case, value", [
    pytest.param(case, value, id=case + suffix)
    for case in sorted(BAD_VALUE_CHECKS) for value, suffix in BAD_VALUES])
def test_nan_fails_the_checks(desk_basis, desk_grid, case, value):
    """Every check refuses NaN and both infinities before any arithmetic
    can warn: each comparison is one that NaN fails, and each bound is
    finite on both sides."""
    error, call = BAD_VALUE_CHECKS[case]
    with pytest.raises(error):
        call(desk_basis, desk_grid, value)
