"""Unit tests for the RSSI propagation model and normalization."""

import random

import pytest

from repro.world.rssi import (
    NORMALIZE_CEIL_DBM,
    NORMALIZE_FLOOR_DBM,
    PropagationModel,
    normalize_rssi,
)


def test_mean_rssi_decays_with_distance():
    model = PropagationModel()
    assert model.mean_rssi(1.0) > model.mean_rssi(10.0) > model.mean_rssi(100.0)
    # Below the reference distance, clamp to 1 m.
    assert model.mean_rssi(0.1) == model.mean_rssi(1.0)


def test_sample_rssi_none_beyond_range():
    model = PropagationModel(sigma_db=0.0, dropout_probability=0.0)
    rng = random.Random(1)
    far = model.max_range_m() * 3
    assert model.sample_rssi(far, rng) is None


def test_sample_rssi_close_always_visible_without_dropout():
    model = PropagationModel(dropout_probability=0.0)
    rng = random.Random(1)
    for _ in range(100):
        assert model.sample_rssi(5.0, rng) is not None


def test_dropout_probability():
    model = PropagationModel(dropout_probability=0.5, sigma_db=0.0)
    rng = random.Random(7)
    seen = sum(1 for _ in range(1000) if model.sample_rssi(2.0, rng) is not None)
    assert 400 < seen < 600


def test_rssi_clipped_at_minus_25():
    model = PropagationModel(reference_dbm=-10.0, sigma_db=0.0, dropout_probability=0.0)
    rng = random.Random(1)
    assert model.sample_rssi(1.0, rng) == -25.0


def test_normalize_paper_anchors():
    """0 and 1 correspond to -100 dBm and -55 dBm (Section 4.1)."""
    assert normalize_rssi(NORMALIZE_FLOOR_DBM) == 0.0
    assert normalize_rssi(NORMALIZE_CEIL_DBM) == 1.0
    assert normalize_rssi(-77.5) == pytest.approx(0.5)


def test_normalize_clips():
    assert normalize_rssi(-120.0) == 0.0
    assert normalize_rssi(-30.0) == 1.0


def test_max_range_reasonable_for_wifi():
    r = PropagationModel().max_range_m()
    assert 50.0 < r < 500.0
