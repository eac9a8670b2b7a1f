"""Admissible-pair arithmetic and space-time scaling sweeps."""

import numpy as np
import pytest

from fracwkb import strichartz
from fracwkb.fio import ResolutionError
from fracwkb.spectral import frequency_localize, make_grid, modulated_gaussian
from fracwkb.strichartz import (classify_pair, measure_semiclassical_scaling,
                                measure_unscaled_scaling,
                                rescaling_identity_gap)
from fracwkb.symbols import make_bump

CUT = make_bump(0.25, 3.8, (0.5, 3.0))
SWEEP = [2.0**-k for k in range(3, 8)]


def test_classify_pair_exact_exponents():
    pair = classify_pair(8, 4, 1, 2.0)
    assert pair.valid
    assert pair.gamma == 0.0
    assert pair.loss == 0.125
    assert pair.total == 0.125

    pair = classify_pair(2, 6, 3, 2.0)
    assert pair.valid
    assert pair.gamma == 0.0
    assert pair.loss == 0.5
    assert pair.total == 0.5

    pair = classify_pair(np.inf, 2, 1, 3.0)
    assert pair.valid
    assert pair.gamma == 0.0 and pair.loss == 0.0 and pair.total == 0.0


@pytest.mark.parametrize("sigma", [1.5, 2.0, 2.7, 3.0])
def test_total_exponent_is_sigma_independent(sigma):
    assert classify_pair(2, 6, 3, sigma).total == 0.5


def test_classify_pair_gamma_tracks_sigma():
    assert classify_pair(2, 6, 3, 3.0).gamma == -0.5
    assert classify_pair(2, 6, 3, 1.0).gamma == 0.5
    assert classify_pair(2, 6, 3, 1.0).loss == 0.0


@pytest.mark.parametrize("p,q,d", [
    (2, np.inf, 2),     # the forbidden endpoint
    (1.5, 4, 1),        # p below 2
    (4, 1.0, 1),        # q below 2
    (4, np.inf, 1),     # q unbounded
    (2, 8, 1),          # above the scaling line in d=1
])
def test_classify_pair_invalid(p, q, d):
    assert not classify_pair(p, q, d, 2.0).valid


def test_classify_pair_rejects_bad_sigma():
    with pytest.raises(ValueError):
        classify_pair(8, 4, 1, 0.0)


@pytest.mark.parametrize("sigma", [np.inf, np.nan])
def test_classify_pair_rejects_a_sigma_that_is_not_finite(sigma):
    # sigma = inf would give gamma = -inf; sigma = 1, the wave case, is valid
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        classify_pair(8, 4, 1, sigma)
    assert classify_pair(8, 4, 1, 1.0).valid


def test_conservative_pair_slope_is_flat():
    """(inf, 2) costs nothing: the ratio is forced to 1 by unitarity."""
    pair = classify_pair(np.inf, 2, 1, 2.0)
    fit = measure_semiclassical_scaling(2.0, pair, CUT, h_sweep=SWEEP, n_t=33)
    assert abs(fit.slope) < 1e-12
    assert fit.passes()


def test_semiclassical_scaling_within_bound():
    pair = classify_pair(8, 4, 1, 2.0)
    fit = measure_semiclassical_scaling(2.0, pair, CUT, h_sweep=SWEEP, n_t=33)
    assert fit.exponent_bound == 0.125
    assert fit.passes()
    assert fit.slope == pytest.approx(-0.125, abs=0.08)


def test_unscaled_scaling_within_bound():
    pair = classify_pair(8, 4, 1, 2.0)
    fit = measure_unscaled_scaling(2.0, pair, CUT, h_sweep=SWEEP, n_t=33)
    assert fit.exponent_bound == 0.125
    assert fit.passes()


def test_scaling_fit_margin_semantics():
    pair = classify_pair(8, 4, 1, 2.0)
    fit = measure_semiclassical_scaling(2.0, pair, CUT, h_sweep=SWEEP, n_t=33)
    assert fit.passes(margin=0.1)
    assert not fit.passes(margin=-(fit.slope + fit.exponent_bound) - 1e-6)


def test_sweep_validation():
    pair = classify_pair(8, 4, 1, 2.0)
    bad = classify_pair(1.5, 4, 1, 2.0)
    with pytest.raises(ValueError):
        measure_semiclassical_scaling(2.0, pair, CUT, h_sweep=SWEEP[:4])
    with pytest.raises(ValueError):
        measure_semiclassical_scaling(2.0, bad, CUT, h_sweep=SWEEP)
    with pytest.raises(ValueError):
        measure_unscaled_scaling(2.0, bad, CUT, h_sweep=SWEEP)


@pytest.mark.parametrize("h", [0.0, -0.01, np.nan, np.inf])
def test_sweep_checks_every_h_before_the_first_state(monkeypatch, h):
    # no state is built before every h has passed its check
    monkeypatch.setattr(strichartz, "_localized_state", None)
    pair = classify_pair(8, 4, 1, 2.0)
    with pytest.raises(ValueError, match=r"^h must be positive and finite"):
        measure_semiclassical_scaling(2.0, pair, CUT, h_sweep=SWEEP[:4] + [h])


def test_sweep_rejects_a_pair_of_another_dimension():
    # the swept states are 1-D: a d = 3 pair would bound them by -0.725
    # where d = 1 gives -0.225, so the same slope would pass against it
    pair = classify_pair(8, 4, 3, 2.0)
    assert pair.valid
    for measure in (measure_semiclassical_scaling, measure_unscaled_scaling):
        with pytest.raises(ValueError, match="d = 1"):
            measure(2.0, pair, CUT, h_sweep=SWEEP)


def test_sweep_grid_cap(monkeypatch):
    pair = classify_pair(8, 4, 1, 2.0)
    monkeypatch.setattr(strichartz, "GRID_CAP", 512)
    with pytest.raises(ResolutionError):
        measure_semiclassical_scaling(2.0, pair, CUT, h_sweep=SWEEP, n_t=9)


def test_rescaling_identity_gap_seeded_states():
    grid = make_grid(1, 1024)
    rng = np.random.default_rng(5)
    h = 2.0**-4
    for _ in range(5):
        center = rng.uniform(1.0, 5.0)
        omega = float(rng.integers(4, 24))
        v = frequency_localize(
            modulated_gaussian(grid, center, np.sqrt(h), omega), CUT, h)
        assert rescaling_identity_gap(2.0, v, h, 8, 4) < 1e-10


def test_rescaling_identity_gap_sup_norm():
    grid = make_grid(1, 1024)
    h = 2.0**-4
    v = frequency_localize(modulated_gaussian(grid, 2.0, np.sqrt(h), 16.0),
                           CUT, h)
    assert rescaling_identity_gap(0.5, v, h, np.inf, 4) == 0.0
