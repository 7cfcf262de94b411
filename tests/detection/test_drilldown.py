"""Tests for hierarchical prefix drill-down."""

import numpy as np
import pytest

from repro.detection import PrefixDrilldown, format_prefix
from repro.detection.drilldown import DrilldownNode
from repro.streams import concat_records, make_records


def _background(rng, n=40000, duration=3600.0):
    return make_records(
        timestamps=np.sort(rng.uniform(0, duration, n)),
        dst_ips=rng.integers(0, 2**32, n),
        byte_counts=rng.integers(100, 2000, n),
    )


def _attack(rng, victim, start, end, count=3000, bytes_per=3000):
    return make_records(
        timestamps=np.sort(rng.uniform(start, end, count)),
        dst_ips=np.full(count, victim),
        byte_counts=np.full(count, bytes_per),
    )


class TestFormatPrefix:
    def test_host(self):
        assert format_prefix(0x0A020304, 32) == "10.2.3.4/32"

    def test_slash8(self):
        assert format_prefix(0x0A000000, 8) == "10.0.0.0/8"

    def test_slash24(self):
        assert format_prefix(0xC0A80100, 24) == "192.168.1.0/24"


class TestDrilldownNode:
    def test_render_and_leaves(self):
        child = DrilldownNode(prefix=0x0A020304, prefix_len=32,
                              estimated_error=100.0)
        root = DrilldownNode(prefix=0x0A000000, prefix_len=8,
                             estimated_error=120.0, children=[child])
        text = root.render()
        assert "10.0.0.0/8" in text
        assert "10.2.3.4/32" in text
        assert root.leaves() == [child]


class TestPrefixDrilldown:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrefixDrilldown(levels=(16, 8))
        with pytest.raises(ValueError):
            PrefixDrilldown(levels=())
        with pytest.raises(ValueError):
            PrefixDrilldown(levels=(0, 8))

    def test_attributes_attack_down_to_host(self, rng):
        victim = 0x0A020304  # 10.2.3.4
        background = _background(rng)
        attack = _attack(rng, victim, start=1800.0, end=2100.0)
        records = concat_records([background, attack])
        drill = PrefixDrilldown(
            levels=(8, 16, 24, 32), model="ewma", alpha=0.5, t_fraction=0.3
        )
        reports = {r.interval: r for r in drill.run(records, 300.0)}
        report = reports[6]  # the attack interval
        # Walk the tree: some root chain must end at the victim host.
        leaf_prefixes = {
            leaf.prefix
            for root in report.roots
            for leaf in root.leaves()
            if leaf.prefix_len == 32
        }
        assert victim in leaf_prefixes
        # And the chain above it matches the victim's prefixes.
        root_prefixes = {root.prefix for root in report.roots}
        assert (victim & 0xFF000000) in root_prefixes

    def test_quiet_interval_has_few_roots(self, rng):
        records = _background(rng)
        drill = PrefixDrilldown(
            levels=(8, 24), model="ewma", alpha=0.5, t_fraction=0.5
        )
        reports = list(drill.run(records, 300.0))
        assert reports  # warm-up skipped, some intervals reported
        assert np.mean([len(r.roots) for r in reports]) < 5

    def test_report_render(self, rng):
        victim = 0x0A020304
        records = concat_records([
            _background(rng),
            _attack(rng, victim, 1800.0, 2100.0),
        ])
        drill = PrefixDrilldown(
            levels=(8, 32), model="ewma", alpha=0.5, t_fraction=0.3
        )
        reports = {r.interval: r for r in drill.run(records, 300.0)}
        assert "10.2.3.4/32" in reports[6].render()

    def test_children_sorted_by_magnitude(self, rng):
        big, small = 0x0A010101, 0x0A020202
        records = concat_records([
            _background(rng),
            _attack(rng, big, 1800.0, 2100.0, count=4000),
            _attack(rng, small, 1800.0, 2100.0, count=1500),
        ])
        drill = PrefixDrilldown(
            levels=(8, 32), model="ewma", alpha=0.5, t_fraction=0.2
        )
        reports = {r.interval: r for r in drill.run(records, 300.0)}
        ten_slash_8 = next(
            root for root in reports[6].roots if root.prefix == 0x0A000000
        )
        magnitudes = [abs(c.estimated_error) for c in ten_slash_8.children]
        assert magnitudes == sorted(magnitudes, reverse=True)


class TestAttributionForest:
    """Regression: alarmed fine prefixes with quiet coarse parents used
    to be dropped from the report entirely."""

    def test_orphan_surfaces_as_root(self):
        from repro.detection.drilldown import build_attribution_forest

        # /24 alarms, its /8 stays quiet: the node must still appear.
        roots = build_attribution_forest(
            (8, 24), [{}, {0x0A010200: 500.0}]
        )
        assert len(roots) == 1
        assert roots[0].prefix == 0x0A010200
        assert roots[0].prefix_len == 24
        assert roots[0].orphan

    def test_alarmed_parent_not_orphan(self):
        from repro.detection.drilldown import build_attribution_forest

        roots = build_attribution_forest(
            (8, 24), [{0x0A000000: 600.0}, {0x0A010200: 500.0}]
        )
        assert len(roots) == 1
        assert not roots[0].orphan
        assert [c.prefix for c in roots[0].children] == [0x0A010200]

    def test_mid_level_orphan_adopts_its_children(self):
        from repro.detection.drilldown import build_attribution_forest

        roots = build_attribution_forest(
            (8, 16, 24),
            [
                {},
                {0x0A010000: 400.0},
                {0x0A010200: 390.0, 0x14050600: 100.0},
            ],
        )
        assert [(r.prefix, r.prefix_len, r.orphan) for r in roots] == [
            (0x0A010000, 16, True),   # /16 orphan, coarse level first
            (0x14050600, 24, True),   # unrelated /24 orphan
        ]
        # The /16 orphan adopted its alarmed /24 descendant.
        assert [c.prefix for c in roots[0].children] == [0x0A010200]
        assert not roots[0].children[0].orphan

    def test_every_alarm_appears_exactly_once(self):
        from repro.detection.drilldown import build_attribution_forest

        per_level = [
            {0x0A000000: 600.0},
            {0x0A010000: 550.0, 0x0B020000: -300.0},
            {0x0A010200: 500.0, 0x0B020300: -290.0, 0x30303000: 80.0},
        ]
        roots = build_attribution_forest((8, 16, 24), per_level)

        def collect(node):
            yield (node.prefix, node.prefix_len)
            for child in node.children:
                yield from collect(child)

        seen = [pair for root in roots for pair in collect(root)]
        expected = [
            (p, l)
            for level, l in zip(per_level, (8, 16, 24))
            for p in level
        ]
        assert sorted(seen) == sorted(expected)
        assert len(seen) == len(set(seen))

    def test_level_count_mismatch_rejected(self):
        from repro.detection.drilldown import build_attribution_forest

        with pytest.raises(ValueError, match="levels"):
            build_attribution_forest((8, 16), [{}])


class TestAttributeKeyErrors:
    def test_aggregates_hosts_up_the_hierarchy(self):
        from repro.detection.drilldown import attribute_key_errors

        keys = np.array([0x0A010204, 0x0A010205, 0x0B000001], dtype=np.uint64)
        errors = np.array([300.0, 250.0, -400.0])
        report = attribute_key_errors(
            keys, errors, threshold=100.0, levels=(8, 32), interval=7
        )
        assert report.interval == 7
        by_prefix = {root.prefix: root for root in report.roots}
        assert by_prefix[0x0A000000].estimated_error == pytest.approx(550.0)
        assert by_prefix[0x0B000000].estimated_error == pytest.approx(-400.0)

    def test_zero_aggregate_never_alarms_at_zero_threshold(self):
        from repro.detection.drilldown import attribute_key_errors

        keys = np.array([0x0A010204, 0x0A090905], dtype=np.uint64)
        errors = np.array([300.0, -300.0])  # cancel exactly at /8
        report = attribute_key_errors(
            keys, errors, threshold=0.0, levels=(8, 32)
        )
        prefixes = {(r.prefix, r.prefix_len) for r in report.roots}
        assert (0x0A000000, 8) not in prefixes

    def test_validation(self):
        from repro.detection.drilldown import attribute_key_errors

        with pytest.raises(ValueError, match="levels"):
            attribute_key_errors(
                np.array([1], dtype=np.uint64), np.array([1.0]),
                threshold=1.0, levels=(24, 8),
            )
        with pytest.raises(ValueError, match="match"):
            attribute_key_errors(
                np.array([1, 2], dtype=np.uint64), np.array([1.0]),
                threshold=1.0,
            )


class TestPlantedDilution:
    def test_diluted_fine_spike_survives_quiet_coarse_parent(self, rng):
        """A /24 spike offset by an equal drop elsewhere in the same /8
        cancels at the /8 level; the fine alarms must surface as orphan
        roots instead of vanishing under the quiet parent."""
        spike_host = 0x0A010204   # 10.1.2.4
        drop_host = 0x0A630909    # 10.99.9.9 -- same /8, different /24
        steady = []
        for t in range(8):
            lo, hi = t * 300.0, (t + 1) * 300.0
            # The drop host carries heavy steady traffic that stops in
            # interval 6; the spike host lights up there with the same
            # volume, so the /8 aggregate barely moves.
            if t != 6:
                steady.append(_attack(rng, drop_host, lo, hi,
                                      count=2000, bytes_per=1000))
            else:
                steady.append(_attack(rng, spike_host, lo, hi,
                                      count=2000, bytes_per=1000))
                # A trickle keeps the collapsed key in the interval's
                # candidate set (two-pass candidates are observed keys).
                steady.append(_attack(rng, drop_host, lo, hi,
                                      count=10, bytes_per=10))
            # Light background elsewhere keeps other levels honest.
            steady.append(
                make_records(
                    timestamps=np.sort(rng.uniform(lo, hi, 500)),
                    dst_ips=rng.integers(0xC0000000, 0xC1000000, 500),
                    byte_counts=rng.integers(100, 300, 500),
                )
            )
        records = concat_records(steady)
        order = np.argsort(records["timestamp"], kind="stable")
        records = records[order]
        drill = PrefixDrilldown(
            levels=(8, 24), model="ewma", alpha=0.5, t_fraction=0.3
        )
        reports = {r.interval: r for r in drill.run(records, 300.0)}
        report = reports[6]
        ten_slash8_roots = {
            r.prefix for r in report.roots if r.prefix_len == 8
        }
        assert 0x0A000000 not in ten_slash8_roots  # parent stayed quiet
        orphan_24s = {
            r.prefix for r in report.roots if r.prefix_len == 24 and r.orphan
        }
        assert (spike_host & 0xFFFFFF00) in orphan_24s
        assert (drop_host & 0xFFFFFF00) in orphan_24s


class TestZeroThreshold:
    def test_identical_intervals_raise_no_alarms(self):
        """Regression: repeating traffic under MA(1) gives Se(t) = 0 and
        a zero threshold at every level; exact-zero errors must not
        alarm, so no interval reports any root."""
        per, intervals = 40, 6
        records = make_records(
            timestamps=np.concatenate(
                [t * 300.0 + np.linspace(1, 299, per) for t in range(intervals)]
            ),
            dst_ips=np.tile(0x0A000000 + np.arange(per), intervals),
            byte_counts=np.tile(np.arange(per) * 10 + 100, intervals),
        )
        reports = list(
            PrefixDrilldown(model="ma", window=1).run(records, 300.0)
        )
        assert len(reports) == intervals - 1
        assert all(report.roots == [] for report in reports)
