"""Primitive game parameters, derived quantities and model assumptions.

All formulas are expressed in units of the jump size sigma, so no parameter
holds it: the spreads and utilities the package produces are measured with
sigma as the yardstick.  The CLI holds the jump size a run was given (its
``--sigma`` flag or a config file's ``sigma`` key), the factor that converts
them back, and records it in the run manifest as ``sigma_scale``.  The
quantities a parameter set must satisfy:

* finite values in every field,
* at least three competing high-frequency traders, and fewer than 2**53,
* positive arrival rates and latency,
* risk aversion gamma >= 1,
* the latency condition (alpha + mu) * delta < 1, i.e. strictly less than one
  expected follow-up event during a race.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields


class ValidationError(ValueError):
    """A parameter set or argument violates a model invariant."""


def check_gamma(gamma: float) -> None:
    """GameParams' rule for gamma, which a sweep over gamma applies to each
    value without building a GameParams."""
    if not 1 <= gamma < math.inf:
        raise ValidationError(f"gamma must be finite and >= 1 (got {gamma})")


def check_sigma(sigma: float) -> None:
    """The rule for the jump size sigma, which the CLI holds apart from
    GameParams since no formula reads it."""
    if not 0 < sigma < math.inf:
        raise ValidationError(f"sigma must be finite and positive (got {sigma})")


@dataclass(frozen=True)
class GameParams:
    """Primitive parameters of the stage game.

    H: number of high-frequency traders (>= 3)
    alpha: news arrival rate (events per unit time)
    mu: liquidity-trader arrival rate (events per unit time)
    delta: exchange latency, the duration of a race
    gamma: risk-aversion factor inflating negative payoffs (>= 1)
    """

    H: int
    alpha: float
    mu: float
    delta: float
    gamma: float

    def __post_init__(self) -> None:
        # a chained comparison is false for NaN; its upper bound refuses inf and
        # any H a float cannot hold exactly, since the formulas take H as a float
        if not 3 <= self.H < 2**53 or int(self.H) != self.H:
            raise ValidationError(f"H must be an integer in [3, 2**53) (got {self.H})")
        if not 0 < self.alpha < math.inf:
            raise ValidationError(f"alpha must be finite and positive (got {self.alpha})")
        if not 0 < self.mu < math.inf:
            raise ValidationError(f"mu must be finite and positive (got {self.mu})")
        if not 0 < self.delta < math.inf:
            raise ValidationError(f"delta must be finite and positive (got {self.delta})")
        check_gamma(self.gamma)
        load = (self.alpha + self.mu) * self.delta
        if not load < 1:
            raise ValidationError(
                "latency condition (alpha+mu)*delta < 1 violated "
                f"(got {load})"
            )


@dataclass(frozen=True)
class DerivedParams:
    """Shorthand quantities every formula consumes.

    alpha_bar: half the expected news arrivals during a race, alpha*delta/2
    mu_bar: half the expected liquidity-trader arrivals, mu*delta/2
    beta: probability the trigger event is news, alpha/(alpha+mu)
    q: excess risk aversion, gamma - 1
    m: 1 - mu_bar
    theta_bar: harmonic mean of alpha_bar and mu_bar
    """

    alpha_bar: float
    mu_bar: float
    beta: float
    q: float
    m: float
    theta_bar: float

    def __post_init__(self) -> None:
        if not self.alpha_bar + self.mu_bar < 0.5:
            raise ValidationError(
                "latency condition alpha_bar + mu_bar < 1/2 violated "
                f"(got {self.alpha_bar + self.mu_bar})"
            )
        if not 0 < self.beta < 1:
            raise ValidationError(f"beta must lie in (0, 1) (got {self.beta})")
        lo = min(self.alpha_bar, self.mu_bar)
        hi = max(self.alpha_bar, self.mu_bar)
        slack = 4e-16 * hi  # a few ulps: the harmonic mean can round past min
        if not lo - slack <= self.theta_bar <= hi + slack:
            product = self.alpha_bar * self.mu_bar  # theta_bar's numerator, halved
            raise ValidationError(
                f"alpha_bar * mu_bar underflows (got {product}), so theta_bar = "
                f"{self.theta_bar} does not lie between alpha_bar and mu_bar"
                if product < sys.float_info.min
                else f"theta_bar must lie between alpha_bar and mu_bar (got {self.theta_bar})"
            )
        if self.q < 0:
            raise ValidationError(f"q must be >= 0 (got {self.q})")
        if not 0.5 < self.m <= 1:
            raise ValidationError(f"m must lie in (1/2, 1] (got {self.m})")


def derive(params: GameParams) -> DerivedParams:
    """Compute the derived quantities from a validated parameter set."""
    alpha_bar = params.alpha * params.delta / 2
    mu_bar = params.mu * params.delta / 2
    if not (alpha_bar > 0 and mu_bar > 0):  # positive factors whose product underflowed
        raise ValidationError(
            f"alpha*delta/2 and mu*delta/2 underflow (got {alpha_bar}, {mu_bar})"
        )
    return DerivedParams(
        alpha_bar=alpha_bar,
        mu_bar=mu_bar,
        beta=params.alpha / (params.alpha + params.mu),
        q=params.gamma - 1.0,
        m=1.0 - mu_bar,
        theta_bar=2.0 * alpha_bar * mu_bar / (alpha_bar + mu_bar),
    )


def load_config(path: str) -> dict[str, float]:
    """Read a flat key=value parameter file.

    Recognised keys: the fields of GameParams, and sigma, the jump size,
    which the CLI reads.  Blank lines and '#' comments are ignored; unknown
    keys are an error.
    """
    keys = {f.name for f in fields(GameParams)} | {"sigma"}
    values: dict[str, float] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(
                    f"{path}:{lineno}: expected 'key = value' (got {line!r})"
                )
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in keys:
                raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                values[key] = int(val) if key == "H" else float(val)
            except ValueError as exc:
                raise ValidationError(
                    f"{path}:{lineno}: invalid value for {key!r}: {val.strip()!r}"
                ) from exc
    return values


def params_from_config(values: dict[str, float]) -> GameParams:
    """Build GameParams from a config mapping, naming any missing key."""
    for key in ("H", "alpha", "mu", "delta", "gamma"):
        if key not in values:
            raise ValidationError(f"missing required parameter {key!r}")
    return GameParams(
        H=int(values["H"]),
        alpha=float(values["alpha"]),
        mu=float(values["mu"]),
        delta=float(values["delta"]),
        gamma=float(values["gamma"]),
    )
