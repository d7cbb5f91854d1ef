"""Race-outcome probabilities under probabilistic sniping.

When the trigger event is news, the market maker races to cancel his stale
quote while each of the other agents (bandits) independently joins the race
with probability ``p``; the winner is uniform among the entrants.  This module
computes

* ``mm_loss(p, n)``     -- (h, h'): the market maker loses the race, and
  the derivative in ``p``, sharing their checks, n*p and log1p(-p);
* ``mixed_race(p, pop)`` -- both race outcomes for a population split into
  trustworthy agents (snipe with probability ``p``) and deceptive agents
  (snipe for sure).

Each of the n-1 bandits is equally likely to be the one who beat the market
maker, so a given bandit enters and wins with probability h / (n-1).

Closed forms (with N_B counting bandit entrants, L = log1p(-p), -inf at
p = 1, and y = (n-1) L):

    h  = E[N_B/(1+N_B)] = (expm1(n L) + n p) / (n p)
    h' = -(expm1(y) + (n-1) p exp(y)) / (n p^2)

These are ((1-p)^n - (1 - n p)) / (n p) and its derivative with (1-p)^n
taken as exp(n L): forming (1-p)**n instead amplifies the rounding of 1 - p
about n times (Goldberg 1991, ACM Comput. Surv. 23:5), which cost up to
2.8e6 ulps at n*p in [1, 2) for n from 2,000 to 10^6, and 7e15 ulps near
n = 2**53.  The numerators still cancel for small n*p, and at p = 0 the forms
are 0/0, so they are used only where n*p >= ``CLOSED_FORM_MIN_NP``.  Below
that, h and h' are the alternating series that the binomial theorem gives
for the same forms (``_series``), with first terms (n-1) p/2 and (n-1)/2:

    h  = sum_{k>=2} (-1)^k C(n,k)/n p^(k-1)
    h' = sum_{k>=2} (-1)^k C(n,k) (k-1)/n p^(k-2)

A term's ratio to the last, -(n-k) p/(k+1) and k/(k-1) times that, has size
r below n*p/3 and 2 n*p/3, so under the cutoff sum |t| / |sum t| <= 1/(1-r)^2
is at most 1.8 and 4.  A series stops where a term falls to 2**-56 of the
first (an alternating tail is smaller than its first term), after at most 17
terms, and adds them smallest first; p = 0 gives the exact 0 and (n-1)/2.
``_series`` forms both in one loop, which shares (k-n) p between them and
stops each series at its own cut.  The ratios' extra factors k/(k-1)
multiply out to j at the j-th term, so each term of h', relative to its
first, is j >= 2 times the term of h taken the same way (a margin that the
few ulps of their rounding cannot close): h stops no later than h', and the
loop ends where h' stops.
``tests/test_race.py`` derives the error bounds of h and h' in ulps and checks
them against a ``decimal`` reference in ``tests/oracles.py``.

The cutoff is set by speed, not by error.  Over 4,000 random (n, p) per band
of width 0.05 in n*p, n log-uniform from 2 to 2**53 - 1, the series stayed
within 1.78 and 2.51 ulps up to n*p = 1.05, the closed forms within 6.49 and
7.53 at n*p >= 3/4.  But a series costs one step per term (1.0-1.8 us at
n = 5, 2.8-6.8 us at n = 2,000, against 0.3-0.8 us for a closed form), and
at a cutoff of 1.05 the p* iterates of an H sweep, at n*p near 0.85, took
the series: its rows took 1.6 times as long, and p* moved in its last bits
(BENCH_27.json).

Mixed populations.  A race depends on who else may enter, not on how likely
the agent it is seen from is to enter.  A deceptive agent in (H_t, H_d) has
H_t rivals that snipe at p and H_d - 1 that snipe for sure: the rivals of a
trustworthy agent in (H_t + 1, H_d - 1).  So ``mixed_race``, the trustworthy
agent's race summed over one window of Bin(H_t - 1, p), serves both, and
``utility.utility_distribution`` weights the win by the agent's own entry
probability, p or 1.  At H_d = 0 it gives h of mm_loss(p, H) and, times p,
h/(H-1), yet the homogeneous function stays: ``transitions`` calls it at H in
the thousands, where a sum costs one term per weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, expm1, inf, log1p

from .params import ValidationError

# Below this expected number of bandit entrants the closed forms' numerators
# cancel and the alternating series are evaluated.  The series are the more
# accurate, but the closed forms cost O(1) (see the module docstring).
CLOSED_FORM_MIN_NP = 0.75


def _check_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"sniping probability must lie in [0, 1] (got {p})")


def _check_n(n_agents: int) -> None:
    if n_agents < 2:
        raise ValidationError(f"need at least 2 agents for a race (got {n_agents})")


@dataclass(frozen=True)
class Population:
    """Split of the agents into trustworthy and deceptive snipers."""

    trustworthy: int
    deceptive: int

    def __post_init__(self) -> None:
        if self.trustworthy < 1:
            raise ValidationError(
                f"need at least one trustworthy agent (got {self.trustworthy})"
            )
        if self.deceptive < 0:
            raise ValidationError(
                f"deceptive count must be >= 0 (got {self.deceptive})"
            )
        if self.total < 3:
            raise ValidationError(
                f"population must have at least 3 agents (got {self.total})"
            )

    @property
    def total(self) -> int:
        return self.trustworthy + self.deceptive


def _binom_pmf(n: int, p: float) -> enumerate:
    """Probability mass of Bin(n, p) where it can reach a float sum.

    Returns the pairs (k, mass at k) in order of k, as an enumerate.  Built
    outward from the mode by the ratio recurrence
    pmf[k+1] / pmf[k] = (n-k) p / ((k+1) (1-p)) and then normalised, so no
    binomial coefficient or power is ever formed: the mass stays finite for n
    in the thousands, where comb(n, k) overflows a float and (1-p)^n
    underflows.  p = 0 and p = 1 give exact point masses.

    The terms go into one list, w[k] below, with 1.0 at the mode: the lower
    side from the mode down, reversed in place, then the upper side.  The
    lower side stops at the first term that underflows to 0.  The upper side
    stops at the first term at or below 2**-56 of w[mode+1], the first term
    past the mode (at n*p < 1 a window holds at most about 18 terms).  Every
    sum over the weights, in order of k by plain left-to-right float
    addition, keeps every bit under that cut:

    * past the mode the terms only fall, and they are added last;
    * the normalising total is >= 1 by then (it holds the mode's 1.0), and
      each dropped term is at most 2**-56 w[mode+1] <= 2**-56, under half an
      ulp of it;
    * an expectation sum of w * f(k) by then holds w[mode+1] f(mode+1), and
      mixed_race's summands f have 0 <= f(k) <= 2 f(mode+1) beyond the mode,
      so each dropped product is at most 2**-55 of the sum, and half an ulp
      of a positive normal float S exceeds 2**-54 S.  (A nonzero dropped term
      needs w[mode+2] > 0, and w[mode+2] <= w[mode+1]**2, so S is far from
      subnormal.)

    So fl(S + t) = S for each dropped term t: the sum with the tail is the
    sum without it.  Python 3.12's compensated ``sum`` carries the low-order
    parts along, so there the tail could still move the last bit.
    """
    q = 1.0 - p
    mode = min(n, int((n + 1) * p))
    w = [1.0]  # mass at mode, mode - 1, ...
    term = 1.0
    for k in range(mode, 0, -1):
        term *= k * q / ((n - k + 1) * p)
        if term == 0.0:
            break
        w.append(term)
    start = mode + 1 - len(w)
    w.reverse()  # mass at start, ..., mode; the upper side follows
    if mode < n:
        cut = (n - mode) * p / ((mode + 1) * q) * 2.0**-56  # w[mode+1] * 2**-56
        term = 1.0
        for k in range(mode, n):
            term *= (n - k) * p / ((k + 1) * q)
            if term <= cut:
                break  # the ratio falls beyond the mode, so the rest is smaller
            w.append(term)
    total = sum(w)
    return enumerate([x / total for x in w], start)


def _series(n: int, p: float) -> tuple[float, float]:
    """(h, h'): the two series of the module docstring, from one loop."""
    t, u = (n - 1) * p / 2, (n - 1) / 2
    h_terms, dh_terms = [t], [u]
    t_cut, u_cut = t * 2.0**-56, u * 2.0**-56
    h_open = True
    for k in range(2, n):
        r = (k - n) * p
        if h_open:
            t *= r / (k + 1)
            if -t_cut <= t <= t_cut:
                h_open = False
            else:
                h_terms.append(t)
        u *= r * k / (k * k - 1)
        if -u_cut <= u <= u_cut:
            break  # h has stopped too
        dh_terms.append(u)
    return sum(h_terms[::-1]), sum(dh_terms[::-1])


def mm_loss(p: float, n_agents: int) -> tuple[float, float]:
    """(h, h'): the market maker loses the race against Bin(n-1, p) entrants
    with probability h, 0 at p = 0 and (n-1)/n at p = 1 and increasing in
    between; h' = dh/dp is (n-1)/2 at p = 0 and 1/n at p = 1."""
    if not (0.0 <= p <= 1.0 and n_agents >= 2):  # one test on the valid path
        _check_p(p)
        _check_n(n_agents)
    n = n_agents
    z = n * p
    if z < CLOSED_FORM_MIN_NP:
        return _series(n, p)
    log_q = log1p(-p) if p < 1.0 else -inf
    y = (n - 1) * log_q
    return (expm1(n * log_q) + z) / z, -(expm1(y) + (n - 1) * p * exp(y)) / (n * p * p)


def mixed_race(p: float, pop: Population) -> tuple[float, float]:
    """(win given entry, loss as market maker) of a trustworthy agent in pop.

    Its rivals are N ~ Bin(H_t - 1, p) trustworthy entrants and H_d sure
    snipers; as market maker it loses E[(H_d + N)/(1 + H_d + N)].  As an
    entered bandit it faces a maker uniform among the other H-1 agents, who
    may or may not already be among the N, so it wins with probability

        (1/(H-1)) * E[ N/(1+N+H_d) + (H_t-1-N)/(2+N+H_d) + H_d/(1+N+H_d) ]
    """
    _check_p(p)
    ht, hd = pop.trustworthy, pop.deceptive
    pairs = list(_binom_pmf(ht - 1, p))
    win = sum(w * (k / (1 + k + hd) + (ht - 1 - k) / (2 + k + hd) + hd / (1 + k + hd))
              for k, w in pairs)
    loss = sum(w * (hd + k) / (1 + hd + k) for k, w in pairs)
    return win / (pop.total - 1), loss
