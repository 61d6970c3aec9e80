"""Tests for Algorithm 2 correlation mining (repro.mining)."""

import numpy as np
import pytest

from repro.bitmap import BitmapIndex, EqualWidthBinning, ZOrderLayout
from repro.mining import (
    correlation_mining,
    correlation_mining_fulldata,
    suggest_value_threshold,
)
from repro.sims.ocean import OceanDataGenerator


@pytest.fixture(scope="module")
def ocean_pair():
    """Z-ordered temperature/salinity with one planted correlated region."""
    gen = OceanDataGenerator((8, 32, 64), seed=13)
    out = gen.advance()
    t, s = out.fields["temperature"], out.fields["salinity"]
    layout = ZOrderLayout.for_shape(t.shape)
    tz, sz = layout.flatten(t), layout.flatten(s)
    bt = EqualWidthBinning.from_data(tz, 12)
    bs = EqualWidthBinning.from_data(sz, 12)
    it = BitmapIndex.build(tz, bt)
    is_ = BitmapIndex.build(sz, bs)
    return gen, layout, tz, sz, bt, bs, it, is_


UNIT_BITS = 512


class TestCorrelationMining:
    def test_matches_fulldata_baseline(self, ocean_pair):
        """Same thresholds + binning => identical hits both paths."""
        _, _, tz, sz, bt, bs, it, is_ = ocean_pair
        kw = dict(value_threshold=0.002, spatial_threshold=0.05, unit_bits=UNIT_BITS)
        bm = correlation_mining(it, is_, **kw)
        fd = correlation_mining_fulldata(tz, sz, bt, bs, **kw)
        assert [(h.a_bin, h.b_bin, h.joint_count) for h in bm.value_hits] == [
            (h.a_bin, h.b_bin, h.joint_count) for h in fd.value_hits
        ]
        assert [
            (h.a_bin, h.b_bin, h.unit, h.joint_count) for h in bm.spatial_hits
        ] == [(h.a_bin, h.b_bin, h.unit, h.joint_count) for h in fd.spatial_hits]
        for x, y in zip(bm.value_hits, fd.value_hits):
            assert x.mutual_information == pytest.approx(y.mutual_information)

    @pytest.mark.parametrize("threshold", [0.0, 1.0], ids=["dense", "streaming"])
    @pytest.mark.parametrize("unit_bits", [UNIT_BITS, 31 * 16])
    def test_both_joint_routes_match_fulldata(self, ocean_pair, threshold, unit_bits):
        """Forcing either joint route, with units on or off 31-bit group
        boundaries, leaves hits, joint counts and work counters as the
        full-data miner has them."""
        _, _, tz, sz, bt, bs, it, is_ = ocean_pair
        kw = dict(value_threshold=0.002, spatial_threshold=0.05, unit_bits=unit_bits)
        bm = correlation_mining(it, is_, threshold=threshold, **kw)
        fd = correlation_mining_fulldata(tz, sz, bt, bs, **kw)
        assert [(h.a_bin, h.b_bin, h.joint_count) for h in bm.value_hits] == [
            (h.a_bin, h.b_bin, h.joint_count) for h in fd.value_hits
        ]
        assert [
            (h.a_bin, h.b_bin, h.unit, h.joint_count) for h in bm.spatial_hits
        ] == [(h.a_bin, h.b_bin, h.unit, h.joint_count) for h in fd.spatial_hits]
        assert bm.n_pairs_evaluated == it.n_bins * is_.n_bins
        assert bm.n_pairs_survived == len(fd.value_hits)

    def test_finds_planted_region(self, ocean_pair):
        """Spatial hits must concentrate inside the planted box."""
        gen, layout, _, _, _, _, it, is_ = ocean_pair
        result = correlation_mining(
            it, is_, value_threshold=0.002, spatial_threshold=0.05, unit_bits=UNIT_BITS
        )
        assert result.spatial_hits, "miner found nothing"
        region = gen.planted_regions()[0]
        # Ground truth: units whose Z-block contains planted cells.
        grid_mask = np.zeros(layout.shape, dtype=bool)
        grid_mask[region.slices()] = True
        planted_units = set(
            (np.flatnonzero(layout.flatten(grid_mask)) // UNIT_BITS).tolist()
        )
        mined = result.spatial_units()
        precision = len(mined & planted_units) / len(mined)
        recall = len(mined & planted_units) / len(planted_units)
        assert precision > 0.8
        assert recall > 0.8

    def test_uncorrelated_data_yields_nothing(self, rng):
        a = rng.normal(0, 1, 4096)
        b = rng.normal(0, 1, 4096)
        ia = BitmapIndex.build(a, EqualWidthBinning.from_data(a, 8))
        ib = BitmapIndex.build(b, EqualWidthBinning.from_data(b, 8))
        threshold = suggest_value_threshold(ia, ib, 256)
        result = correlation_mining(
            ia, ib, value_threshold=max(threshold, 0.01),
            spatial_threshold=0.2, unit_bits=256,
        )
        assert len(result.spatial_hits) == 0

    def test_perfectly_correlated_data(self, rng):
        a = rng.normal(0, 1, 2048)
        binning = EqualWidthBinning.from_data(a, 6)
        ia = BitmapIndex.build(a, binning)
        ib = BitmapIndex.build(a, binning)  # identical variable
        result = correlation_mining(
            ia, ib, value_threshold=0.0, spatial_threshold=-1.0, unit_bits=1024
        )
        # Diagonal pairs carry all the joint mass.
        diag = {(h.a_bin, h.b_bin) for h in result.value_hits if h.joint_count > 0}
        assert all(i == j for i, j in diag)

    def test_threshold_monotonicity(self, ocean_pair):
        _, _, _, _, _, _, it, is_ = ocean_pair
        low = correlation_mining(
            it, is_, value_threshold=0.001, spatial_threshold=0.02, unit_bits=UNIT_BITS
        )
        high = correlation_mining(
            it, is_, value_threshold=0.01, spatial_threshold=0.1, unit_bits=UNIT_BITS
        )
        assert len(high.value_hits) <= len(low.value_hits)
        assert len(high.spatial_hits) <= len(low.spatial_hits)
        assert high.n_pairs_survived <= low.n_pairs_survived

    def test_work_counters(self, ocean_pair):
        _, _, _, _, _, _, it, is_ = ocean_pair
        result = correlation_mining(
            it, is_, value_threshold=0.002, spatial_threshold=0.05, unit_bits=UNIT_BITS
        )
        assert result.n_pairs_evaluated == it.n_bins * is_.n_bins
        assert result.n_pairs_survived == len(result.value_hits)

    def test_misaligned_rejected(self, rng):
        ia = BitmapIndex.build(rng.random(100), EqualWidthBinning(0, 1, 4))
        ib = BitmapIndex.build(rng.random(200), EqualWidthBinning(0, 1, 4))
        with pytest.raises(ValueError, match="different element sets"):
            correlation_mining(
                ia, ib, value_threshold=0.0, spatial_threshold=0.0, unit_bits=31
            )

    def test_suggest_value_threshold(self, rng):
        a = rng.random(10_000)
        ia = BitmapIndex.build(a, EqualWidthBinning(0, 1, 4))
        t = suggest_value_threshold(ia, ia, 100)
        # (u/n) * log2(n/u) with u=100, n=10000
        assert t == pytest.approx(0.01 * np.log2(100))
        assert suggest_value_threshold(ia, ia, 20_000) == 0.0
