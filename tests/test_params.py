import math
from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from sniplab.params import (
    DerivedParams,
    GameParams,
    ValidationError,
    check_sigma,
    derive,
    load_config,
    params_from_config,
)


def valid_params(draw):
    h = draw(st.integers(min_value=3, max_value=12))
    alpha = draw(st.floats(min_value=0.01, max_value=5.0))
    mu = draw(st.floats(min_value=0.01, max_value=5.0))
    # keep the latency condition with margin
    delta = draw(st.floats(min_value=0.01, max_value=0.99)) / (alpha + mu)
    gamma = draw(st.floats(min_value=1.0, max_value=50.0))
    return GameParams(H=h, alpha=alpha, mu=mu, delta=delta, gamma=gamma)


valid_params_st = st.composite(valid_params)()


def test_derive_reference_point():
    p = GameParams(H=5, alpha=0.45, mu=0.5, delta=0.5, gamma=2.515)
    d = derive(p)
    assert d.alpha_bar == pytest.approx(0.1125, abs=1e-15)
    assert d.mu_bar == pytest.approx(0.125, abs=1e-15)
    assert d.beta == pytest.approx(9 / 19, abs=1e-15)
    assert d.m == pytest.approx(0.875, abs=1e-15)
    assert d.theta_bar == pytest.approx(2 * (0.1125 * 0.125) / 0.2375, abs=1e-15)
    assert d.q == pytest.approx(1.515, abs=1e-15)


def test_derive_symmetric_rates():
    p = GameParams(H=3, alpha=0.7, mu=0.7, delta=0.4, gamma=1.0)
    d = derive(p)
    assert d.beta == 0.5
    assert d.q == 0.0
    assert d.theta_bar == pytest.approx(d.alpha_bar, abs=1e-16)
    assert d.alpha_bar == d.mu_bar


def test_latency_condition_rejected():
    with pytest.raises(ValidationError, match="latency"):
        GameParams(H=3, alpha=0.6, mu=0.6, delta=1.0, gamma=2.0)


@pytest.mark.parametrize(
    "kwargs,fragment",
    [
        (dict(H=2, alpha=0.1, mu=0.1, delta=0.1, gamma=1.0), "H"),
        (dict(H=3, alpha=-0.1, mu=0.1, delta=0.1, gamma=1.0), "alpha"),
        (dict(H=3, alpha=0.1, mu=0.0, delta=0.1, gamma=1.0), "mu"),
        (dict(H=3, alpha=0.1, mu=0.1, delta=-1.0, gamma=1.0), "delta"),
        (dict(H=3, alpha=0.1, mu=0.1, delta=0.1, gamma=0.9), "gamma"),
    ],
)
def test_first_violated_invariant_is_named(kwargs, fragment):
    with pytest.raises(ValidationError, match=fragment):
        GameParams(**kwargs)


@pytest.mark.parametrize("field", ["H", "alpha", "mu", "delta", "gamma", "sigma"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_field_refused(field, value):
    kwargs = dict(H=5, alpha=0.45, mu=0.5, delta=0.5, gamma=3.0)
    expected = "an integer" if field == "H" else "finite"
    with pytest.raises(ValidationError, match=f"{field} must be {expected}"):
        if field == "sigma":  # the jump size has its own check, not a GameParams field
            check_sigma(value)
        else:
            GameParams(**{**kwargs, field: value})


def test_huge_integer_H_refused():
    # the formulas convert H to a float, which cannot hold these exactly
    rates = dict(alpha=0.45, mu=0.5, delta=0.5, gamma=3.0)
    for h in (2**53, 10**400, 1e300):
        with pytest.raises(ValidationError, match="H must be an integer"):
            GameParams(H=h, **rates)
    assert GameParams(H=2**53 - 1, **rates).H == 2**53 - 1


def test_underflowing_rates_refused_by_derive():
    # alpha * delta / 2 and mu * delta / 2 both round to 0
    p = GameParams(H=5, alpha=1e-300, mu=1e-300, delta=1e-30, gamma=2.0)
    with pytest.raises(ValidationError, match="underflow"):
        derive(p)


def test_theta_bar_refusal_names_underflow():
    # a theta_bar outside [alpha_bar, mu_bar] is refused as such, and as an
    # underflow where alpha_bar * mu_bar is below the smallest normal float
    rest = dict(beta=0.5, q=1.0, m=0.9)
    with pytest.raises(ValidationError, match="theta_bar must lie between"):
        DerivedParams(alpha_bar=0.1, mu_bar=0.2, theta_bar=0.5, **rest)
    with pytest.raises(ValidationError, match=r"^alpha_bar \* mu_bar underflows \(got 1e-320\)"):
        DerivedParams(alpha_bar=1e-160, mu_bar=1e-160, theta_bar=1e-161, **rest)


@given(valid_params_st)
def test_theta_bar_is_harmonic_mean(p):
    d = derive(p)
    harmonic = 2.0 / (1.0 / d.alpha_bar + 1.0 / d.mu_bar)
    assert math.isclose(d.theta_bar, harmonic, rel_tol=0, abs_tol=1e-14)


@given(valid_params_st)
def test_derive_is_deterministic_and_total(p):
    assert derive(p) == derive(p)


def test_config_roundtrip(tmp_path):
    cfg = tmp_path / "game.cfg"
    # every recognised key: the fields of GameParams, and the jump size sigma,
    # which the CLI reads and no formula does
    assert [f.name for f in fields(GameParams)] == ["H", "alpha", "mu", "delta", "gamma"]
    cfg.write_text("# example\nH = 5\nalpha = 0.45\nmu = 0.5\ndelta = 0.5\ngamma = 3.5\n"
                   "sigma = 2\n")
    values = load_config(str(cfg))
    assert values["sigma"] == 2.0
    params = params_from_config(values)
    assert params == GameParams(H=5, alpha=0.45, mu=0.5, delta=0.5, gamma=3.5)


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "game.cfg"
    cfg.write_text("H = 5\nrho = 1.0\n")
    with pytest.raises(ValidationError, match="rho"):
        load_config(str(cfg))


def test_config_missing_key_named(tmp_path):
    cfg = tmp_path / "game.cfg"
    cfg.write_text("H = 5\nalpha = 0.45\ndelta = 0.5\ngamma = 3.5\n")
    with pytest.raises(ValidationError, match="mu"):
        params_from_config(load_config(str(cfg)))
