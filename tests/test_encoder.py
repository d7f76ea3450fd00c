import numpy as np
import pytest

from iontrapsim import (
    ValidationError,
    encode,
    gaussian_packet,
)


def test_single_point_packet_maps_to_basis_vector(paper_grid):
    amps = np.zeros(16, dtype=complex)
    amps[5] = 1.0 / np.sqrt(paper_grid.delta_x)
    c = encode(amps, paper_grid)
    expected = np.zeros(16)
    expected[5] = 1.0
    assert np.abs(c - expected).max() < 1e-14


def test_encode_populations_match_localization(paper_grid):
    pk = gaussian_packet(paper_grid, 1.0, -0.75)
    populations = np.abs(encode(pk, paper_grid)) ** 2
    assert np.abs(populations - np.abs(pk) ** 2 * paper_grid.delta_x).max() < 1e-14
    # the packet is centered between grid points 5 and 6 (x = -1, -0.5)
    assert set(np.argsort(populations)[-2:]) == {5, 6}


def test_decode_arithmetic(paper_grid):
    c = np.zeros(16, dtype=complex)
    c[0] = 1.0
    probs = np.abs(c) ** 2 / paper_grid.delta_x   # delta_x = 0.5
    assert probs[0] == pytest.approx(2.0)
    assert np.all(probs[1:] == 0.0)


def test_decode_uniform(paper_grid):
    c = np.full(16, 0.25, dtype=complex)
    probs = np.abs(c) ** 2 / paper_grid.delta_x
    assert np.allclose(probs, 0.125)


def test_round_trips(paper_grid):
    pk = gaussian_packet(paper_grid, 0.5, -0.75)
    c = encode(pk, paper_grid)
    assert np.abs(np.abs(c) ** 2 / paper_grid.delta_x - np.abs(pk) ** 2).max() < 1e-12
    back = c / np.sqrt(paper_grid.delta_x)
    assert np.abs(back - pk).max() < 1e-12
    assert np.abs(encode(back, paper_grid) - c).max() < 1e-14


def test_decoded_probabilities_normalize(paper_grid):
    pk = gaussian_packet(paper_grid, 1.0, -0.75)
    probs = np.abs(encode(pk, paper_grid)) ** 2 / paper_grid.delta_x
    assert np.sum(probs) * paper_grid.delta_x == pytest.approx(1.0, abs=1e-12)


def test_rejects_unnormalized(paper_grid):
    amps = np.ones(16, dtype=complex)
    with pytest.raises(ValidationError):
        encode(amps, paper_grid)


def test_grid_mismatch_rejected(paper_grid, desk_grid):
    with pytest.raises(ValidationError):
        encode(gaussian_packet(paper_grid, 1.0, -0.75), desk_grid)
