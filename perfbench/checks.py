"""Output checks.  Each returns None when the output is correct and a one-line
reason when it is not; the benchmark counts an operation as failed when any
of its checks returns a reason or the operation raised."""

from __future__ import annotations

import math

CLARKE_LOWER_RTOL = 1e-9  # discrete Clarke values are upper bounds
# The cube's Clarke value sits 0.98% above c_EHZ = 4 (polytope smoothing at
# p = 40), and symmetric mode with 2 restarts reaches 1.03% on some seeds,
# so a 1% limit would fail at random.  2% still catches a broken optimizer;
# smaller losses show in the bounded metric clarke_excess_max.
CLARKE_UPPER_RTOL = 2e-2
GIRTH_RTOL = 1e-2  # |L / 2 pi - 1| for centered ellipsoids
SCHAFFER_TOL = 1e-2  # the violation threshold girth.check_schaffer_bound uses
RATIO_TOL = 1e-2  # the tolerance run_verify applies to the ratio margins
CONTAINMENT_GAP = 1e-7  # relative to max(1, sigma)
SYMMETRY_RESIDUAL = 1e-9
ORBIT_ACTION_RTOL = 1e-3
BOUNDARY_RESIDUAL = 1e-9
CJ_RTOL = 1e-6  # ascent against the exact pairing capacity


def clarke_vs_exact(clarke, exact):
    """exact (1 - 1e-9) <= clarke <= exact (1 + 2e-2)."""
    if not clarke >= exact * (1.0 - CLARKE_LOWER_RTOL):
        return f"clarke {clarke!r} below the exact capacity {exact!r}"
    if not clarke <= exact * (1.0 + CLARKE_UPPER_RTOL):
        return f"clarke {clarke!r} more than 2% above the exact capacity {exact!r}"
    return None


def upper_bound(value, exact):
    """Any loop's Clarke value bounds the capacity from above."""
    if not value >= exact * (1.0 - CLARKE_LOWER_RTOL):
        return f"loop value {value!r} below the exact capacity {exact!r}"
    return None


def capacity_ratio(clarke, cj, n, symmetric):
    """c_EHZ / c_J >= 2 + 1/n for symmetric bodies, >= 1 + 1/(2n) in general."""
    if not (cj > 0 and math.isfinite(cj)):
        return f"c_J {cj!r} is not a positive number"
    bound = 2.0 + 1.0 / n if symmetric else 1.0 + 1.0 / (2.0 * n)
    ratio = clarke / cj
    if not ratio >= bound - RATIO_TOL:
        return f"capacity ratio {ratio!r} below the bound {bound!r}"
    return None


def girth_rel_err(length):
    """Relative error of a girth estimate against 2 pi (centered ellipsoids)."""
    return abs(length / (2.0 * math.pi) - 1.0)


def girth_vs_exact(length):
    err = girth_rel_err(length)
    if not err <= GIRTH_RTOL:
        return f"girth {length!r} is {err:.2e} from 2 pi, tolerance {GIRTH_RTOL}"
    return None


def schaffer(margin, violation=False):
    """Girth margin against the Schaffer bound: no violation flag, and the
    margin is above -tol."""
    if violation or not margin >= -SCHAFFER_TOL:
        return f"Schaffer bound violated: margin {margin!r}"
    return None


def containment_gap(gap, sigma):
    if not gap <= CONTAINMENT_GAP * max(1.0, sigma):
        return f"containment gap {gap!r} above {CONTAINMENT_GAP} * max(1, sigma)"
    return None


def symmetrization(outcome):
    """Residuals of a SymmetrizationOutcome and its length decrease."""
    for key, value in outcome.residuals.items():
        if key != "w_invariance_defect" and not value <= SYMMETRY_RESIDUAL:
            return f"symmetrization residual {key} = {value!r}"
    pre = outcome.normalized_pre_length()
    post = outcome.normalized_post_length()
    if not post <= pre * (1.0 + 1e-12):
        return f"normalized length grew from {pre!r} to {post!r}"
    return None


def orbit_action(action, exact):
    if not abs(action - exact) <= ORBIT_ACTION_RTOL * exact:
        return f"orbit action {action!r} differs from the capacity {exact!r}"
    return None


def boundary_residual(residual):
    if not residual <= BOUNDARY_RESIDUAL:
        return f"trajectory left the boundary by {residual!r}"
    return None


def cj_vs_exact(value, exact):
    if not abs(value / exact - 1.0) <= CJ_RTOL:
        return f"c_J ascent {value!r} differs from the exact value {exact!r}"
    return None


def verify_run(exit_code, records):
    """run_verify exited 0 and every record is ok."""
    bad = [r.body_id for r in records if r.status != "ok"]
    if bad:
        return f"verify records not ok: {', '.join(bad)}"
    if exit_code != 0:
        return f"verify exited {exit_code}"
    return None


def identical(first, other, what):
    if first != other:
        return f"{what} differs between passes with the same seed"
    return None
