"""Ocean inputs shared by the serve and mine workloads."""

from __future__ import annotations

import numpy as np

from repro.sims import OceanDataGenerator
from repro.sims.ocean import CorrelatedRegion

# The eddy field and noise come from this fixed seed; the run's seed
# only moves the planted temperature-salinity region along longitude.
# A seed that redrew the eddies moved the value range, and with it the
# bin width and the index sizes; one that moved the region across
# latitudes changed its temperature range, and the mining work with it
# by up to a third.  Either way, runs on different seeds would not
# measure the same work.
PHYSICS_SEED = 7


def ocean(shape, seed: int) -> OceanDataGenerator:
    """The generator for ``seed``: the default planted box (the top
    quarter of the depth, the middle third of the latitudes, a quarter
    of the longitudes) where salinity tracks temperature, at a
    longitude drawn from ``seed``."""
    nd, nlat, nlon = shape
    size = (max(1, nd // 4), nlat // 3, nlon // 4)
    rng = np.random.default_rng(seed)
    lat = nlat // 3
    lon = int(rng.integers(0, nlon - size[2] + 1))
    region = CorrelatedRegion(
        (0, lat, lon), (size[0], lat + size[1], lon + size[2])
    )
    return OceanDataGenerator(
        shape, correlated_regions=[region], seed=PHYSICS_SEED
    )
