"""Wald's sequential probability ratio test on an agent's utility stream.

Knowing its stage-utility law, ``utility.utility_distribution`` (imported
here by name), under compliance (no deceptive agents, H0) and under a posited
number of sure snipers (H1), on one support, an agent monitors its own
utility stream with Wald's sequential probability ratio test.
``monitor_stream`` tabulates log P(u | H1) / P(u | H0) once per support
point (+-inf where only one law allows the outcome), adds the entry of each
observed utility to a running sum, and stops as soon as the sum leaves the
interval between the two thresholds derived from the admissible error
rates.  Every utility the engine pays is ``==`` a support point and is
looked up in a table keyed by the support values; anything else (a stream
file's value that matches only to ``SUPPORT_TOL``, a value merged into a
nearby support point) falls back to ``UtilityDistribution.index_of``'s
tolerance scan, which also refuses values off the support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .params import ValidationError
from .utility import UtilityDistribution, utility_distribution  # noqa: F401 (re-exported)

CONTINUE = "continue"
ACCEPT_H0 = "accept_h0"
REJECT_H0 = "reject_h0"
UNDECIDED = "undecided"

_MISS = object()  # a utility that is not exactly a support point


# ---------------------------------------------------------------------------
# Wald's sequential probability ratio test
# ---------------------------------------------------------------------------


def sprt_thresholds(err_i: float, err_ii: float) -> tuple[float, float]:
    """Wald's stopping thresholds (a, b) for the given error rates.

    err_i bounds the probability of rejecting a compliant game (type I),
    err_ii of accepting a non-compliant one (type II); both must lie in
    (0, 1/2), which makes a < 0 < b.
    """
    for name, value in (("err_i", err_i), ("err_ii", err_ii)):
        if not 0.0 < value < 0.5:
            raise ValidationError(f"{name} must lie in (0, 1/2) (got {value})")
    a = -math.log((1.0 - err_i) / err_ii)
    b = math.log((1.0 - err_ii) / err_i)
    return a, b


@dataclass(frozen=True)
class MonitorResult:
    """Outcome of monitoring a finite utility stream.

    decision is "undecided" when the stream ran out first; trajectory holds
    one (stage, utility, log_ratio, statistic, decision) row per observation.
    """

    decision: str
    stopped_at: int | None
    statistic: float
    trajectory: list[tuple[int, float, float, float, str]]


def monitor_stream(
    stream: Iterable[float],
    dist0: UtilityDistribution,
    dist1: UtilityDistribution,
    err_i: float,
    err_ii: float,
) -> MonitorResult:
    """Wald's SPRT over a utility stream, keeping the full trajectory.

    dist0 and dist1 are the laws under H0 and H1 on one shared support.  The
    stream is read one utility at a time and no further than the decision.
    """
    if dist0.support != dist1.support:
        raise ValidationError("the H0 and H1 utility laws must share one support")
    lower, upper = sprt_thresholds(err_i, err_ii)
    # log P(u | H1) / P(u | H0) per support point; None where both are zero
    ratios: list[float | None] = []
    for p0, p1 in zip(dist0.probs, dist1.probs):
        if p0 == 0.0:
            ratios.append(None if p1 == 0.0 else math.inf)
        else:
            ratios.append(-math.inf if p1 == 0.0 else math.log(p1 / p0))
    # consecutive support points lie more than SUPPORT_TOL apart, so an exact
    # hit is the point the scan would match
    exact = dict(zip(dist0.support, ratios))
    statistic = 0.0
    trajectory: list[tuple[int, float, float, float, str]] = []
    for t, u in enumerate(stream, 1):
        ratio = exact.get(u, _MISS)
        if ratio is _MISS:
            try:
                ratio = ratios[dist0.index_of(u)]
            except ValidationError as exc:
                raise ValidationError(f"stage {t}: {exc}") from exc
        if ratio is None:
            raise ValidationError(
                f"stage {t}: utility {u!r} impossible under both hypotheses"
            )
        if abs(ratio) == math.inf:
            import logging  # only here: a stream with no forced decision skips its import

            log = logging.getLogger(__name__)
            if ratio > 0:
                log.warning("outcome %r impossible under H0: forcing rejection", u)
            else:
                log.warning("outcome %r impossible under H1: forcing acceptance", u)
        previous = statistic
        statistic += ratio
        if statistic < lower:
            decision = ACCEPT_H0
        elif statistic > upper:
            decision = REJECT_H0
        else:
            decision = CONTINUE
        trajectory.append((t, u, statistic - previous, statistic, decision))
        if decision != CONTINUE:
            return MonitorResult(decision, t, statistic, trajectory)
    if not trajectory:
        raise ValidationError("cannot monitor an empty utility stream")
    return MonitorResult(UNDECIDED, None, statistic, trajectory)
