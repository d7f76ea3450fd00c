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


NAN = float("nan")
# call of the library on the desk basis and grid -> the error it must raise
NAN_CHECKS = {
    "target-gate": (ValidationError, lambda basis, grid: TargetSet(np.full((4, 4), NAN))),
    "encode": (ValidationError, lambda basis, grid: encode(np.full(grid.n, NAN), grid)),
    "prep-target": (ValidationError, lambda basis, grid: optimize_state_prep(
        basis, np.full(grid.n, NAN), OctConfig(t_pulse=2.0, dt=1.0, alpha0=1.0,
                                               max_iterations=0))),
    "gate-delta-t": (NumericalError, lambda basis, grid: elementary_gate(SimSystem(), grid,
                                                                         NAN, 10)),
    "alpha0": (ValidationError, lambda basis, grid: OctConfig(t_pulse=2.0, dt=1.0, alpha0=NAN)),
    "trap-k": (ValidationError, lambda basis, grid: TrapParams(k=NAN).validate()),
    "trap-mass": (ValidationError, lambda basis, grid: TrapParams(mass=NAN).validate()),
    "trap-k-quart": (ValidationError, lambda basis, grid: TrapParams(k_quart=NAN).validate()),
    "trap-charge": (ValidationError, lambda basis, grid: TrapParams(charge=NAN).validate()),
    "grid": (ValidationError, lambda basis, grid: Grid(NAN, 4.0, 4)),
    "packet-sigma": (ValidationError, lambda basis, grid: gaussian_packet(grid, NAN, 0.0)),
}


@pytest.mark.parametrize("case", sorted(NAN_CHECKS))
def test_nan_fails_the_checks(desk_basis, desk_grid, case):
    """Every check refuses NaN: each comparison is one that NaN fails."""
    error, call = NAN_CHECKS[case]
    with pytest.raises(error):
        call(desk_basis, desk_grid)
