"""Frozen empirical constants.

The well-posedness theory carries two non-numeric constants; experiments
need actual numbers, so they are measured once on fixed probe sets and
frozen here.  `scripts/calibrate.py` re-runs both measurements.

C_CONTRACTION: the bilinear Duhamel estimate constant at s=0, eta=1.
    sup_t ||int_0^t S(t-t') (u1 u1)_x / 2 dt'||_{L^2} <= C T^{1/4} (sup_t ||u1||)^2
    over linear trajectories u1 = S(t)phi of 30 seeded rough random fields
    plus Gaussian probes on Grid(8 pi, 256), T in {0.25, 0.5, 1}.
    Measured max ratio 0.196 (median 0.040); frozen with a 2x safety factor.

C_KATO_S2: the commutator-form constant at s=2 of the a-priori envelope
    rho(t); output of `calibrated_cs(Grid(8 pi, 256), s=2)` (max of the
    normalized trilinear ratio over 50 seeded smooth random fields, 2x
    safety already applied).  The library never reads it: eta-limit
    recalibrates C_s on its own grid.  It is the reference that
    `scripts/calibrate.py` and the `picard` workload of `perfbench/`
    compare `calibrated_cs` against.
"""

C_CONTRACTION = 0.4

C_KATO_S2 = 0.008

