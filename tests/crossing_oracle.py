"""Reference first-crossing sweep of one scenario, used by tests only.

`first_crossing` is the single-scenario kernel that
`estimate_first_crossing` runs for every scenario of a run at once: it
draws each block of trials from its own substream, (trials, positions,
2) standard normals, shadows them into the serving and target
comparands of one antenna and histograms the first position whose
margin exceeds the hysteresis. The joint sweep must give each scenario
these numbers bit for bit.
"""

from __future__ import annotations

import numpy as np

from railhandover import channel, montecarlo
from railhandover.analytics import PositionGrid
from railhandover.montecarlo import DOMAIN_FIRST_CROSSING, FirstCrossingEstimate, SeedPolicy
from railhandover.scenario import AntennaId, Scenario


def first_crossing(sc: Scenario, grid: PositionGrid, trials: int, seed: SeedPolicy,
                   antenna: AntennaId = AntennaId.FRONT) -> FirstCrossingEstimate:
    """What estimate_first_crossing returns for sc, one block after another."""
    table = channel.link_table(sc, grid)
    a = table.antennas.index(antenna)
    (mu_s, sig_s), (mu_t, sig_t) = [
        (table.mu[:, a, c, n], table.sigma[:, a, c, n])
        for c, n in enumerate(table.trigger_column)]
    n_pos = len(grid.positions)
    counts = np.zeros(n_pos, dtype=np.int64)
    none = 0
    block = montecarlo._BLOCK
    for b in range((trials + block - 1) // block):
        size = min(block, trials - b * block)
        z = seed.stream(DOMAIN_FIRST_CROSSING, antenna.value, b).standard_normal(
            (size, n_pos, 2))
        margin = (mu_t + sig_t * z[:, :, 1]) - (mu_s + sig_s * z[:, :, 0])
        trig = margin > sc.hysteresis
        has = trig.any(axis=1)
        counts += np.bincount(np.argmax(trig, axis=1)[has], minlength=n_pos)
        none += int(np.count_nonzero(~has))
    masses = counts / float(trials)
    hw = 1.96 * np.sqrt(np.maximum(masses * (1.0 - masses), 0.0) / trials)
    return FirstCrossingEstimate(grid, masses, hw, none / float(trials), trials, antenna)


def assert_crossings_equal(got: FirstCrossingEstimate, want: FirstCrossingEstimate) -> None:
    """Masses, half-widths and the no-trigger fraction equal bit for bit."""
    assert (got.grid, got.trials, got.antenna) == (want.grid, want.trials, want.antenna)
    for x, y in ((got.masses, want.masses), (got.half_widths, want.half_widths)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert float(got.no_trigger_fraction).hex() == float(want.no_trigger_fraction).hex()
