"""Metamorphic relations: two runs of the package that must agree, with no oracle.

Each relation compares the package with itself under a transformation of
the configuration that the model leaves invariant, and states its
tolerance before it was first run.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from railhandover import channel
from railhandover.scenario import PositionGrid, Scenario, Scheme, SelectionRule

# Scaling every length by k moves each link mean by a few ULPs of its
# path loss, about 1e-14 dB; the stated bound leaves five orders to spare.
LENGTH_SCALING_BOUND_DB = 1e-9


def _lengths_scaled(sc: Scenario, k: float) -> Scenario:
    """sc with every length scaled by k and the path-loss intercept lowered
    by 10 gamma log10(k), so that every link's path loss stays the same."""
    return replace(sc, ds=sc.ds * k, d0=sc.d0 * k, du=sc.du * k, dr=sc.dr * k,
                   train_length=sc.train_length * k,
                   measurement_step=sc.measurement_step * k,
                   pathloss_a=sc.pathloss_a - 10.0 * sc.pathloss_gamma * math.log10(k))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(Scheme)), st.sampled_from(list(SelectionRule)),
       st.floats(min_value=1e-3, max_value=1e3), st.booleans())
def test_scaling_every_length_leaves_every_link_unchanged(scheme, selection, k, per_rau):
    """Every scheme's link mu and sigma on the scaled scenario's scaled grid
    equal the original's within LENGTH_SCALING_BOUND_DB."""
    sc = Scenario(scheme=scheme, selection=selection, measurement_step=50.0,
                  shadow_sigma_per_rau=(2.0, 4.0, 6.0, 8.0) if per_rau else None)
    scaled = _lengths_scaled(sc, k)
    table = channel.link_table(sc, PositionGrid.for_scenario(sc))
    other = channel.link_table(scaled, PositionGrid.for_scenario(scaled))
    assert other.mu.shape == table.mu.shape
    for name in ("mu", "sigma"):
        np.testing.assert_allclose(getattr(other, name), getattr(table, name),
                                   rtol=0.0, atol=LENGTH_SCALING_BOUND_DB, err_msg=name)
