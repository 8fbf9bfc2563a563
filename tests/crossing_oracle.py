"""Reference first-crossing sweep of one scenario, used by tests only.

`first_crossing` is the single-scenario kernel that
`estimate_first_crossing` runs for every scenario of a run at once: it
draws each block of trials from its own substream, (trials, positions,
2) standard normals, shadows them into the serving and target
comparands of the front antenna and histograms the first position whose
margin exceeds the hysteresis. The joint sweep must give each scenario
this Estimate bit for bit. It also counts the trials that never
trigger, which the joint sweep does not report.
"""

from __future__ import annotations

import numpy as np

from railhandover import channel, montecarlo
from railhandover.analytics import PositionGrid
from railhandover.montecarlo import DOMAIN_FIRST_CROSSING, Estimate, SeedPolicy
from railhandover.scenario import AntennaId, Scenario


def first_crossing(sc: Scenario, grid: PositionGrid, trials: int,
                   seed: SeedPolicy) -> tuple[Estimate, int]:
    """What estimate_first_crossing returns for sc, one block after another,
    and the number of trials in which no position triggers."""
    table = channel.link_table(sc, grid)
    (mu_s, sig_s), (mu_t, sig_t) = [
        (table.mu[:, 0, c, n], table.sigma[:, 0, c, n])
        for c, n in enumerate(table.trigger_column)]
    n_pos = len(grid.positions)
    counts = np.zeros(n_pos, dtype=np.int64)
    none = 0
    block = montecarlo._BLOCK
    for b in range((trials + block - 1) // block):
        size = min(block, trials - b * block)
        z = seed.stream(DOMAIN_FIRST_CROSSING, AntennaId.FRONT.value, b).standard_normal(
            (size, n_pos, 2))
        margin = (mu_t + sig_t * z[:, :, 1]) - (mu_s + sig_s * z[:, :, 0])
        trig = margin > sc.hysteresis
        has = trig.any(axis=1)
        counts += np.bincount(np.argmax(trig, axis=1)[has], minlength=n_pos)
        none += int(np.count_nonzero(~has))
    masses = counts / float(trials)
    hw = 1.96 * np.sqrt(np.maximum(masses * (1.0 - masses), 0.0) / trials)
    return Estimate(masses, hw, np.full(n_pos, trials)), none


def assert_crossings_equal(got: Estimate, want: Estimate) -> None:
    """Masses, half-widths and base counts equal bit for bit."""
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
