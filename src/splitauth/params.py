"""Parameter arithmetic and necessary conditions for splitting designs.

A splitting design with strength t has parameters (t, v, b, c, u, lambda):
v points, b blocks, each block a disjoint union of u parts of size c
(block size l = c*u), and every t-subset of points covered exactly
lambda times, where a block covers a t-subset only if its points fall
in mutually distinct parts.

Everything here is exact: counts are Python ints, ratios are
``fractions.Fraction``.  These checks are necessary conditions only;
passing them does not imply a design exists.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import frozen


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k), with C(n, k) = 0 for k > n."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial requires non-negative arguments, got ({n}, {k})")
    return math.comb(n, k)


@frozen
class DesignParams:
    """The tuple (t, v, b, c, u, lambda) of a candidate splitting design.

    ``l`` is the block size c*u, stored redundantly; passing an
    inconsistent value raises.  Construction enforces t <= u, c*u <= v
    and positivity, the preamble constraints any splitting design must
    satisfy -- candidates violating deeper conditions are still
    representable and screened by :func:`admissible`.
    """

    t: int
    v: int
    b: int
    c: int
    u: int
    lam: int
    l: int = -1

    def __post_init__(self) -> None:
        for name in ("t", "v", "b", "c", "u", "lam"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.l == -1:
            object.__setattr__(self, "l", self.c * self.u)
        elif self.l != self.c * self.u:
            raise ValueError(f"l must equal c*u = {self.c * self.u}, got {self.l}")
        if self.t > self.u:
            raise ValueError(f"strength t={self.t} exceeds parts per block u={self.u}")
        if self.l > self.v:
            raise ValueError(f"block size c*u={self.l} exceeds point count v={self.v}")

    def __str__(self) -> str:
        return f"{self.t}-({self.v},{self.b},{self.l}={self.c}×{self.u},{self.lam})"


def lambda_level(params: DesignParams, s: int) -> Fraction:
    """Number of blocks covering a fixed s-subset, as an exact rational.

    lambda_s = lambda * C(v-s, t-s) / (c^(t-s) * C(u-s, t-s)).  For a
    realizable design this is a positive integer; integrality is *not*
    enforced here so that arbitrary candidates can be screened (see
    :func:`check_divisibility`).
    """
    if not 1 <= s <= params.t:
        raise ValueError(f"level s={s} out of range 1..{params.t}")
    num = params.lam * binomial(params.v - s, params.t - s)
    den = params.c ** (params.t - s) * binomial(params.u - s, params.t - s)
    return Fraction(num, den)


@frozen
class AdmissibilityReport:
    """Outcome of every implemented necessary condition.

    ``identities_ok`` covers the counting identities
      replication:  b*l = v*r
      coverage:     C(v,t)*lambda = b * c^t * C(u,t)
      pairwise:     r * (u-1) * c = lambda_2 * (v-1)   (t >= 2 only)
    ``divisibility_ok`` maps each level s to the congruence
    lambda * C(v-s,t-s) = 0 mod c^(t-s) * C(u-s,t-s), and ``fisher_ok``
    is the block-count bound b*u >= v (None when t < 2: not applicable).
    """

    identities_ok: dict[str, bool]
    divisibility_ok: dict[int, bool]
    fisher_ok: bool | None
    failures: list[str]

    @property
    def all_ok(self) -> bool:
        return not self.failures


def check_identities(params: DesignParams) -> dict[str, bool]:
    """Evaluate the counting identities with exact arithmetic."""
    r = lambda_level(params, 1)
    out = {
        "replication": Fraction(params.b * params.l) == params.v * r,
        "coverage": binomial(params.v, params.t) * params.lam
        == params.b * params.c**params.t * binomial(params.u, params.t),
    }
    if params.t >= 2:
        lam2 = lambda_level(params, 2)
        # the pairs through one point, counted by block and by partner
        out["pairwise"] = r * (params.u - 1) * params.c == lam2 * (params.v - 1)
    return out


def check_divisibility(params: DesignParams) -> dict[int, bool]:
    """Congruence at every level 1 <= s <= t (lambda_s is an integer)."""
    return {
        s: lambda_level(params, s).denominator == 1 for s in range(1, params.t + 1)
    }


def check_fisher(params: DesignParams) -> bool | None:
    """Block-count bound b >= v/u for t >= 2, compared as b*u >= v.

    Returns None (not applicable, distinct from failure) when t < 2.
    """
    if params.t < 2:
        return None
    return params.b * params.u >= params.v


def admissible(params: DesignParams) -> AdmissibilityReport:
    """Run every implemented necessary condition on candidate parameters.

    All-pass is necessary but not sufficient for a design to exist.
    """
    identities = check_identities(params)
    divisibility = check_divisibility(params)
    fisher = check_fisher(params)
    failures = []
    for name, ok in identities.items():
        if not ok:
            failures.append(f"identity '{name}' fails for {params}")
    for s, ok in divisibility.items():
        if not ok:
            failures.append(
                f"divisibility fails at level s={s}: lambda_{s} = "
                f"{lambda_level(params, s)} is not an integer"
            )
    if fisher is False:
        failures.append(
            f"block-count bound fails: b*u = {params.b * params.u} < v = {params.v}"
        )
    return AdmissibilityReport(identities, divisibility, fisher, failures)
