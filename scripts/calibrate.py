#!/usr/bin/env python3
"""Re-measure the two frozen empirical constants and compare them with the
values shipped in chenlee_lab.calibration.

C_CONTRACTION bounds the bilinear Duhamel estimate at s=0, eta=1:

    sup_t ||int_0^t S(t-t') u1 d/dx u1 dt'||_{L^2}
        <= C * T^{1/4} * (sup_t ||u1(t)||_{L^2})^2

over linear trajectories u1 = S(t) phi.  The ratio is scale-invariant in
phi; probes are seeded rough random fields plus Gaussian bumps on
Grid(8 pi, 256), horizons T in {0.25, 0.5, 1}.

Each probe stack's AliasingBudgetWarnings are recorded: the rough probes'
squares are under-resolved on this grid, so the script reports how many
stacks exceed the kernel's aliasing budget, the worst tail fraction, and
the largest ratio over the resolved stacks alone.

C_KATO_S2 is the output of limits.calibrated_cs(Grid(8 pi, 256), s=2)
(50 seeded smooth random probes, 2x safety applied inside).

Usage: python3 scripts/calibrate.py
"""
import sys
import warnings

import numpy as np

from chenlee_lab.calibration import C_CONTRACTION, C_KATO_S2
from chenlee_lab.core import (
    AliasingBudgetWarning,
    EquationParams,
    Grid,
    SpectralField,
    random_real_field,
    semigroup_apply,
)
from chenlee_lab.limits import calibrated_cs
from chenlee_lab.solver import Trajectory, chebyshev_nodes, duhamel_integral
from chenlee_lab.spaces import l2_norm

GRID = Grid(8.0 * np.pi, 256)
PARAMS = EquationParams(beta=1.0, eta=1.0)
HORIZONS = (0.25, 0.5, 1.0)
SAFETY = 2.0


def _probes():
    rng = np.random.default_rng(42)
    for _ in range(30):
        yield random_real_field(GRID, rng, spectral_decay=1.0)
    for width in (0.5, 1.0, 2.0):
        yield SpectralField.from_function(
            GRID, lambda x, w=width: np.exp(-((x / w) ** 2)))


def _bilinear_ratio(phi, T: float) -> tuple[float, float]:
    """The probe's ratio, and the worst aliasing tail fraction of its
    stack's products (0.0 when every product is within the budget)."""
    times = chebyshev_nodes(T, 16)
    states = [semigroup_apply(phi, t, PARAMS) for t in times]
    traj = Trajectory(times, states, PARAMS)
    sup_lin = max(l2_norm(u) for u in states)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AliasingBudgetWarning)
        sup_duh = max(l2_norm(duhamel_integral(traj, t, check=False))
                      for t in times[1:])
    worst = max((w.message.fraction for w in caught
                 if issubclass(w.category, AliasingBudgetWarning)), default=0.0)
    return sup_duh / (T ** 0.25 * sup_lin ** 2), worst


def main() -> int:
    probes = [_bilinear_ratio(phi, T) for phi in _probes() for T in HORIZONS]
    ratios = [ratio for ratio, _ in probes]
    over = [worst for _, worst in probes if worst > 0.0]
    resolved = [ratio for ratio, worst in probes if worst == 0.0]
    measured = max(ratios)
    proposed = SAFETY * measured
    print("bilinear Duhamel constant (s=0, eta=1)")
    print(f"  probes: {len(ratios)} ratios, max {measured:.4f}, "
          f"median {np.median(ratios):.4f}")
    print(f"  aliasing budget exceeded on {len(over)} of {len(probes)} stacks "
          f"(worst fraction {max(over, default=0.0):.2e}); the "
          f"{len(resolved)} resolved give max {max(resolved, default=np.nan):.4f}")
    print(f"  with {SAFETY:g}x safety: {proposed:.4f}; frozen C_CONTRACTION = "
          f"{C_CONTRACTION}")

    cs = calibrated_cs(GRID, s=2.0)
    print("commutator-form constant (s=2)")
    print(f"  calibrated_cs (2x safety inside): {cs:.6f}; frozen C_KATO_S2 = "
          f"{C_KATO_S2}")

    ok = C_CONTRACTION >= measured and abs(cs - C_KATO_S2) / C_KATO_S2 <= 0.5
    print("frozen constants " + ("remain consistent with the measurement"
                                 if ok else "DISAGREE with the measurement"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
