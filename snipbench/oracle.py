"""Reference computations for checking sniplab's outputs, made apart from it.

Nothing here calls ``sniplab.race``, ``sniplab.transitions`` or
``sniplab.detection``, and nothing calls ``sniplab.params.derive``: the only
thing taken from the package is the payoff table, ``utility.PAYOFF_TABLE``,
which is the model's data.  Everything else is rebuilt from the model's
definition:

* event probabilities from the rates (trigger news/liquidity split by beta,
  race-window events by alpha*delta/2 and mu*delta/2);
* race outcomes by enumerating the number of entrants, with binomial weights
  formed in log space from sums of logarithms (not by a ratio recurrence);
* u*(p) as the crossing of the two expected-utility lines, each summed cell by
  cell over the payoff table at s = 0 and s = 1;
* the sure-to-probabilistic threshold by bisection on a finite-difference
  slope of u*(p) at p = 1, and the no-sniping threshold by its closed form;
* the stage-utility distribution of one agent in a mixed population by
  enumeration over (event, role, field of entrants);
* Wald's approximate expected sample sizes from the two distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Support points closer than this are one outcome.
MERGE_TOL = 1e-9


@dataclass(frozen=True)
class Rates:
    """Game parameters in units of the jump size."""

    H: int
    alpha: float
    mu: float
    delta: float
    gamma: float

    @property
    def abar(self) -> float:
        return self.alpha * self.delta / 2

    @property
    def mbar(self) -> float:
        return self.mu * self.delta / 2

    @property
    def beta(self) -> float:
        return self.alpha / (self.alpha + self.mu)

    def with_gamma(self, gamma: float) -> "Rates":
        return Rates(self.H, self.alpha, self.mu, self.delta, gamma)


def cell_value(expr, s: float, gamma: float) -> float:
    """A payoff cell, stored as coefficients on (1, s, gamma, gamma*s)."""
    c0, cs, cg, cgs = expr
    return c0 + cs * s + cg * gamma + cgs * gamma * s


def event_prob(ev, r: Rates) -> float:
    """Probability of a two-event stage code under the rates."""
    news = ev.first in ("NG", "NB")
    first = r.beta / 2 if news else (1.0 - r.beta) / 2
    if ev.second in ("NG", "NB"):
        second = r.abar
    elif ev.second in ("LA", "LB"):
        second = r.mbar
    else:
        second = 1.0 - 2.0 * (r.abar + r.mbar)
    return first * second


def has_race(ev) -> bool:
    return ev.first in ("NG", "NB")


class Binomial:
    """Bin(n, p) mass functions with log-space weights; coefficient tables cached."""

    def __init__(self) -> None:
        self._log_comb: dict[int, np.ndarray] = {}

    def log_comb(self, n: int) -> np.ndarray:
        """log C(n, k) for k = 0..n.

        With j = min(k, n-k), log C(n, k) = sum_{i=n-j+1}^{n} log i - lgamma(j+1).
        Both terms are of size j log n, so the rounding error grows with j and
        not with n: the weights stay accurate to about 1e-15 relative near
        k = 0 and k = n, where small and large p put their mass, at n in the
        tens of thousands.  (lgamma(n+1) - lgamma(k+1) - lgamma(n-k+1) would
        carry an absolute error of about n log n times the unit roundoff.)
        """
        table = self._log_comb.get(n)
        if table is None:
            top = np.concatenate(([0.0], np.cumsum(np.log(np.arange(n, 0, -1, dtype=float)))))
            j = np.minimum(np.arange(n + 1), np.arange(n, -1, -1))
            lgam = np.array([math.lgamma(i + 1.0) for i in range(n // 2 + 1)])
            table = top[j] - lgam[j]
            self._log_comb[n] = table
        return table

    def pmf(self, n: int, p) -> np.ndarray:
        """Mass on 0..n, one row per value of p (p may be a scalar or an array)."""
        ps = np.atleast_1d(np.asarray(p, dtype=float))
        k = np.arange(n + 1)
        inner = (ps > 0.0) & (ps < 1.0)
        q = np.where(inner, ps, 0.5)
        log_w = (
            self.log_comb(n)[None, :]
            + k[None, :] * np.log(q)[:, None]
            + (n - k)[None, :] * np.log1p(-q)[:, None]
        )
        w = np.exp(log_w)
        w[ps == 0.0] = k == 0
        w[ps == 1.0] = k == n
        return w if np.ndim(p) else w[0]

    def expect(self, n: int, p, f):
        """E[f(N)] for N ~ Bin(n, p), per value of p; f takes an integer array."""
        return self.pmf(n, p) @ f(np.arange(n + 1, dtype=float))


class Oracle:
    """Reference quantities for one payoff table."""

    def __init__(self, table) -> None:
        self.table = tuple(table)
        self.binom = Binomial()
        self._sums: dict[Rates, tuple] = {}

    # -- homogeneous game: u*(p) --------------------------------------------

    def table_sums(self, r: Rates):
        """Probability-weighted payoff sums at s = 0 and s = 1, for each column
        of the table: sniper, market maker losing and winning a race, and the
        market maker's payoff without a race."""
        sums = self._sums.get(r)
        if sums is None:
            sums = []
            for s in (0.0, 1.0):
                sniper = mm_lose = mm_win = quiet = 0.0
                for ev in self.table:
                    pe = event_prob(ev, r)
                    if has_race(ev):
                        sniper += pe * cell_value(ev.sniper, s, r.gamma)
                        mm_lose += pe * cell_value(ev.mm_if_loses, s, r.gamma)
                        mm_win += pe * cell_value(ev.mm_if_wins, s, r.gamma)
                    else:
                        quiet += pe * cell_value(ev.mm_if_loses, s, r.gamma)
                sums.append((sniper, mm_lose, mm_win, quiet))
            self._sums[r] = sums = tuple(sums)
        return sums

    def role_lines(self, p, r: Rates):
        """(A, B, C, D): bandit line at s = 0, 1 and market-maker line at s = 0, 1.

        A bandit enters with probability p and then beats the market maker and
        N ~ Bin(H-2, p) other entrants with probability 1/(2+N).  The market
        maker faces N' ~ Bin(H-1, p) entrants and loses with probability
        N'/(1+N').  p may be an array.
        """
        h = r.H
        win = p * self.binom.expect(h - 2, p, lambda k: 1.0 / (2.0 + k))
        loss = self.binom.expect(h - 1, p, lambda k: k / (1.0 + k))
        ends = []
        for sniper, mm_lose, mm_win, quiet in self.table_sums(r):
            ends.append((win * sniper, loss * mm_lose + (1.0 - loss) * mm_win + quiet))
        (a, c), (b, d) = ends
        return a, b, c, d

    def indifference(self, p, r: Rates):
        """(s*, u*) where the two expected-utility lines cross; p may be an array."""
        a, b, c, d = self.role_lines(p, r)
        s_star = (a - c) / ((a - c) + (d - b))
        return s_star, a + (b - a) * s_star

    def u_star(self, p, r: Rates):
        return self.indifference(p, r)[1]

    def argmax_p(self, r: Rates) -> float:
        """argmax of u*(p) over [0, 1].

        A scan on a log- and a linear-spaced grid finds the best point; the
        search then zooms in, 41 points at a time, on the interval between the
        best point's neighbours until it is narrower than 1e-13 + 1e-11 p.
        """
        grid = np.unique(np.concatenate(([0.0], np.logspace(-9, 0, 181), np.linspace(0, 1, 101))))
        while True:
            i = int(np.argmax(self.u_star(grid, r)))
            lo, hi = grid[max(0, i - 1)], grid[min(len(grid) - 1, i + 1)]
            if hi - lo <= 1e-13 + 1e-11 * lo:
                return float(grid[i])
            grid = np.linspace(lo, hi, 41)

    # -- thresholds ------------------------------------------------------------

    def slope_at_one(self, r: Rates, step: float = 1e-4) -> float:
        """du*/dp at p = 1 by a second-order one-sided finite difference."""
        u = lambda p: self.u_star(p, r)
        return (3 * u(1.0) - 4 * u(1.0 - step) + u(1.0 - 2 * step)) / (2 * step)

    def gamma_to_probabilistic(self, r: Rates) -> float:
        """Smallest gamma at which backing off from p = 1 pays."""
        lo, hi = 1.0, 2.0
        while self.slope_at_one(r.with_gamma(hi)) > 0:
            lo, hi = hi, 2 * hi
        while hi - lo > 1e-8:
            mid = (lo + hi) / 2
            if self.slope_at_one(r.with_gamma(mid)) > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    @staticmethod
    def gamma_to_no_sniping(r: Rates) -> float:
        """1 + sqrt((1 - mbar) Z / (abar theta)), Z = 1 + mbar - beta (1 - mbar),
        theta the harmonic mean of abar and mbar; the gamma at which the p = 0
        slope of u*(p) changes sign."""
        ab, mb, beta = r.abar, r.mbar, r.beta
        theta = 2 * ab * mb / (ab + mb)
        z = 1 + mb - beta * (1 - mb)
        return 1 + math.sqrt((1 - mb) * z / (ab * theta))

    # -- mixed populations ------------------------------------------------------

    def stage_distribution(
        self, r: Rates, p: float, s: float, focal_p: float, trusty: int, rogue: int
    ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Stage-utility distribution of one agent who races with probability
        focal_p, among `trusty` others racing with probability p and `rogue`
        others who always race.

        The agent is market maker with probability 1/H.  As a bandit, the
        market maker is uniform among the other H-1 agents, and the agent wins
        a race he entered with probability 1/(1 + market maker + other
        entrants).  Returns (support, probs), merged to MERGE_TOL and sorted.
        """
        h = trusty + rogue + 1
        if h != r.H:
            raise ValueError(f"population of {h} does not match H={r.H}")
        pairs: list[tuple[float, float]] = []
        as_mm = self.binom.pmf(trusty, p)
        bandit_fields = []  # (weight, pmf of trustworthy entrants, sure entrants)
        if trusty >= 1:
            bandit_fields.append((trusty / (h - 1), self.binom.pmf(trusty - 1, p), rogue))
        if rogue >= 1:
            bandit_fields.append((rogue / (h - 1), self.binom.pmf(trusty, p), rogue - 1))
        for ev in self.table:
            pe = event_prob(ev, r)
            mm_lose = cell_value(ev.mm_if_loses, s, r.gamma)
            if not has_race(ev):
                pairs += [(mm_lose, pe / h), (0.0, pe * (h - 1) / h)]
                continue
            mm_win = cell_value(ev.mm_if_wins, s, r.gamma)
            sniper = cell_value(ev.sniper, s, r.gamma)
            for k, w in enumerate(as_mm):
                field = rogue + k  # bandits racing the market maker
                pairs.append((mm_lose, pe / h * w * field / (1 + field)))
                pairs.append((mm_win, pe / h * w / (1 + field)))
            bandit = pe * (h - 1) / h
            pairs.append((0.0, bandit * (1 - focal_p)))
            for weight, pmf, sure in bandit_fields:
                for k, w in enumerate(pmf):
                    field = 2 + sure + k  # market maker, this agent, the others
                    share = bandit * focal_p * weight * w
                    pairs.append((sniper, share / field))
                    pairs.append((0.0, share * (field - 1) / field))
        merged: list[list[float]] = []
        for value, prob in sorted(pairs):
            if merged and abs(merged[-1][0] - value) <= MERGE_TOL:
                merged[-1][1] += prob
            else:
                merged.append([value, prob])
        return tuple(v for v, _ in merged), tuple(q for _, q in merged)

    def class_mean(
        self, r: Rates, p: float, s: float, deceptive_agent: bool, ht: int, hd: int
    ) -> float:
        """Expected stage utility of a trustworthy or a deceptive agent in a
        population of ht trustworthy and hd deceptive agents."""
        if deceptive_agent:
            support, probs = self.stage_distribution(r, p, s, 1.0, ht, hd - 1)
        else:
            support, probs = self.stage_distribution(r, p, s, p, ht - 1, hd)
        return float(np.dot(support, probs))

    # -- Wald's SPRT ------------------------------------------------------------

    @staticmethod
    def llr_table(dist0, dist1) -> dict[float, float]:
        """log P1(u)/P0(u) for each support point of H0, keyed by value."""
        s1, q1 = dist1
        out = {}
        for v, q0 in zip(*dist0):
            j = min(range(len(s1)), key=lambda i: abs(s1[i] - v))
            if abs(s1[j] - v) > MERGE_TOL:
                raise ValueError(f"outcome {v!r} of H0 is not in the support of H1")
            out[v] = math.log(q1[j] / q0)
        return out

    @staticmethod
    def llr(table: dict[float, float], u: float) -> float:
        for v, ratio in table.items():
            if abs(v - u) <= MERGE_TOL:
                return ratio
        raise ValueError(f"utility {u!r} is not an outcome of the game")

    @staticmethod
    def wald_bounds(err_i: float, err_ii: float) -> tuple[float, float]:
        """Wald's (lower, upper) stopping bounds on the log-likelihood ratio."""
        return math.log(err_ii / (1 - err_i)), math.log((1 - err_ii) / err_i)

    @classmethod
    def sprt(cls, table: dict[float, float], utilities, err_i: float, err_ii: float):
        """Wald's SPRT over `utilities` with the log-likelihood ratios of
        `table`: (the statistic after each stage up to the stop, the decision,
        the stopping stage).  The decision is "undecided" and the stage None
        when the utilities run out first."""
        lower, upper = cls.wald_bounds(err_i, err_ii)
        path, statistic = [], 0.0
        for t, u in enumerate(utilities, start=1):
            statistic += cls.llr(table, float(u))
            path.append(statistic)
            if statistic < lower or statistic > upper:
                return path, "accept_h0" if statistic < lower else "reject_h0", t
        return path, "undecided", None

    def wald_expected_n(self, dist0, dist1, err_i: float, err_ii: float) -> tuple[float, float]:
        """Wald's approximate E[N | H0] and E[N | H1], ignoring overshoot."""
        lower, upper = self.wald_bounds(err_i, err_ii)
        table = self.llr_table(dist0, dist1)
        drift0 = sum(q * table[v] for v, q in zip(*dist0))
        drift1 = sum(q * self.llr(table, v) for v, q in zip(*dist1))
        n0 = (err_i * upper + (1 - err_i) * lower) / drift0
        n1 = ((1 - err_ii) * upper + err_ii * lower) / drift1
        return n0, n1
