"""Criterion thresholds derived by hand, as a gate that does not come from the code.

``golden.json`` was recorded from the code itself, so it cannot catch a
defect that was already there when it was recorded.  A criterion's
threshold on a one-parameter family, derived on paper, can.  Each test
bisects the verdict along its family on the default grid and compares the
threshold with the closed form, within the grid's resolution.

- becker, m = 2, on f = z + eps z^2.  The field is
  (1 - |z|^2) |2 eps z / (1 + 2 eps z)|, largest on the negative axis, where
  it is g(r) = 2 eps r (1 - r^2) / (1 - 2 eps r).  g = 1 and g' = 0 together
  give 3 r^4 - 5 r^2 + 2 = 0, so r^2 = 2/3 and eps* = 3 / (8 r) = 3 sqrt(6) / 16
  = 0.4592793.  (The true univalence threshold of the family is 1/2.)
- T6, alpha = 1, g = z, on f = z + eps z^2.  The field is
  |eps z / (1 + eps z)|, largest at z = -r, so on |z| <= r the criterion
  holds up to k = eps r / (1 - eps r): eps*(k) = k / (r (1 + k)).  As r -> 1
  this is k* = eps / (1 - eps), the bound of acceptance 08.

Nothing else in ``criteria.PRESETS`` or the criterion table has a family
with a threshold derived here yet.
"""

import math

import pytest

from schlicht.criteria import DiskGrid, check_becker, check_t6
from schlicht.dsl import parse

GRID = DiskGrid()


def _bisect(passes, lo: float, hi: float, steps: int = 45) -> tuple[float, float]:
    """Bracket [lo, hi] of the parameter where ``passes`` turns False.

    ``passes(lo)`` must hold and ``passes(hi)`` must not.
    """
    assert passes(lo) and not passes(hi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _becker_passes(eps: float) -> bool:
    return check_becker(parse(f"z + {eps!r}*z^2"), 2.0, GRID).satisfied


def test_becker_threshold_on_the_quadratic_family():
    eps_star = 3 * math.sqrt(6) / 16
    assert eps_star == pytest.approx(0.4592793, abs=1e-7)
    # the default grid passes just below and fails just above
    assert check_becker(parse("z + 0.45925*z^2"), 2.0, GRID).margin > 0
    assert check_becker(parse("z + 0.4593*z^2"), 2.0, GRID).margin < 0
    lo, hi = _bisect(_becker_passes, 0.45925, 0.4593)
    # the refined samples miss the peak at r = sqrt(2/3) by about 1e-7 in
    # eps, and a sampled maximum is never above the true one
    assert eps_star <= lo <= hi <= eps_star + 1e-6


@pytest.mark.parametrize("k", [0.1, 0.25, 0.5])
def test_t6_threshold_on_the_eps_family(k):
    def passes(eps: float) -> bool:
        return check_t6(parse(f"z + {eps!r}*z^2"), parse("z"), 1.0, k, GRID).satisfied

    lo, hi = _bisect(passes, 0.0, 0.9)
    r = GRID.r_max
    # the grid holds z = -r_max exactly, the field's maximum on |z| <= r_max
    assert lo == pytest.approx(k / (r * (1 + k)), abs=1e-9)
    # k* = eps / (1 - eps) on the unit disk, within the grid's 1 - r_max
    k_star = lo / (1 - lo)
    assert k <= k_star <= k * (1 + 2 * (1 - r) * (1 + k))
