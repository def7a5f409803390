"""Seeded inputs of the four workloads.

Every draw stays inside the domain where fracorder certifies its results:
interval (0, pi), largest mode rate D * n_max**2 <= min(0.5, 4 / t),
measurement time in [2, 10], true order in [0.1, 0.9] and every used
|sin(n x0)| >= 0.1.  Inputs come in rounds: each round draws the same mix of
mode counts and spreads its orders, times and rates over their ranges in
equal strata, so the work in a round hardly depends on the seed.  This
module imports nothing of fracorder; `d` values are filled in by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PI = math.pi
ALPHA_LO, ALPHA_HI = 0.1, 0.9
GRID_X, GRID_T = 41, 40


@dataclass(frozen=True)
class Case:
    """One problem on (0, pi): D, (index, amplitude) modes, the point
    (x0, t1), which is also the horizon, and the true order."""

    diffusivity: float
    modes: tuple
    x0: float
    t1: float
    alpha: float


def _strata(rng, count, lo, hi):
    """`count` values, one uniform draw in each of `count` equal strata of
    [lo, hi], in random order."""
    slots = list(range(count))
    rng.shuffle(slots)
    width = (hi - lo) / count
    return [lo + width * (s + rng.random()) for s in slots]


def _draws(rng, count):
    """(order, time, rate share) for `count` cases: each of the three spread
    over its range in equal strata, independently shuffled."""
    return list(zip(_strata(rng, count, ALPHA_LO, ALPHA_HI), _strata(rng, count, 2.0, 10.0),
                    _strata(rng, count, 0.25, 1.0)))


def _diffusivity(indices, t, share):
    """D such that the largest rate is `share` of min(0.5, 4 / t)."""
    return share * min(0.5, 4.0 / t) / max(indices) ** 2


def _position(rng, indices):
    while True:
        x0 = rng.uniform(0.0, PI)
        if 0.0 < x0 < PI and all(abs(math.sin(n * x0)) >= 0.1 for n in indices):
            return x0


def _magnitude(rng):
    return rng.uniform(0.2, 2.0)


def invert_case(rng, n_modes, draw):
    """1-3 modes, each a_n sin(n x0) > 0: the sign hypothesis holds."""
    alpha, t1, share = draw
    indices = sorted(rng.sample(range(1, 6), n_modes))
    diffusivity = _diffusivity(indices, t1, share)
    x0 = _position(rng, indices)
    modes = tuple((n, math.copysign(_magnitude(rng), math.sin(n * x0))) for n in indices)
    return Case(diffusivity, modes, x0, t1, alpha)


def mixed_case(rng, draw):
    """Two modes whose contributions at x0 have opposed signs."""
    alpha, t1, share = draw
    indices = sorted(rng.sample(range(1, 6), 2))
    diffusivity = _diffusivity(indices, t1, share)
    x0 = _position(rng, indices)
    first = rng.choice((1.0, -1.0))
    signs = (first, -first)
    modes = tuple((n, s * math.copysign(_magnitude(rng), math.sin(n * x0)))
                  for n, s in zip(indices, signs))
    return Case(diffusivity, modes, x0, t1, alpha)


def grid_case(rng, n_modes, draw):
    """4-8 modes of either sign; x0 is unused and t1 is the horizon."""
    alpha, horizon, share = draw
    indices = sorted(rng.sample(range(1, n_modes + 3), n_modes))
    diffusivity = _diffusivity(indices, horizon, share)
    modes = tuple((n, rng.choice((1.0, -1.0)) * _magnitude(rng) / n) for n in indices)
    return Case(diffusivity, modes, 0.0, horizon, alpha)


def grid_axes(horizon):
    """41 positions from wall to wall and 40 times up to the horizon, both
    ends exact."""
    xs = [PI * i / (GRID_X - 1) for i in range(GRID_X)]
    xs[-1] = PI
    ts = [horizon * (j + 1) / GRID_T for j in range(GRID_T)]
    ts[-1] = horizon
    return xs, ts


def invert_round(rng):
    counts = [1, 2, 3] * 4
    rng.shuffle(counts)
    return [invert_case(rng, k, d) for k, d in zip(counts, _draws(rng, len(counts)))]


def mixed_round(rng, simple_root):
    """12 opposed-sign cases.  A draw whose true order is not a simple root,
    by `simple_root(case)`, is drawn again with the same strata."""
    out = []
    for draw in _draws(rng, 12):
        case = mixed_case(rng, draw)
        while not simple_root(case):
            case = mixed_case(rng, draw)
        out.append(case)
    return out


def grid_round(rng):
    counts = [4, 5, 6, 7, 8]
    rng.shuffle(counts)
    return [grid_case(rng, k, d) for k, d in zip(counts, _draws(rng, len(counts)))]


BUNDLED_CONFIGS = ("configs/single_mode.json", "configs/two_mode.json")


def cli_round(rng):
    """Bundled config, seeded config, the other bundled config, seeded config.
    A seeded entry is a Case from the `invert` domain."""
    seeded = [invert_case(rng, k, d) for k, d in zip(rng.sample((1, 2, 3), 2), _draws(rng, 2))]
    return [BUNDLED_CONFIGS[0], seeded[0], BUNDLED_CONFIGS[1], seeded[1]]
