"""Unit tests for match-action tables."""

import pytest

from repro.p4.errors import TableError
from repro.p4.tables import (
    ActionSpec,
    Table,
    exact_key,
    lpm_key,
    range_key,
    ternary_key,
)


def simple_table(**kwargs):
    return Table(
        "t",
        keys=[exact_key("port", 9)],
        actions=[ActionSpec("fwd", ("out",)), ActionSpec("drop")],
        **kwargs,
    )


class TestEntryManagement:
    def test_add_and_lookup(self):
        table = simple_table()
        table.add_entry([5], "fwd", {"out": 2})
        entry = table.lookup([5])
        assert entry is not None
        assert entry.action == "fwd"
        assert entry.params == {"out": 2}

    def test_miss_returns_none(self):
        table = simple_table()
        assert table.lookup([7]) is None

    def test_modify_entry(self):
        table = simple_table()
        entry_id = table.add_entry([5], "fwd", {"out": 2})
        table.modify_entry(entry_id, params={"out": 9})
        assert table.lookup([5]).params == {"out": 9}
        table.modify_entry(entry_id, matches=[6])
        assert table.lookup([5]) is None
        assert table.lookup([6]) is not None

    def test_modify_action(self):
        table = simple_table()
        entry_id = table.add_entry([5], "fwd", {"out": 2})
        table.modify_entry(entry_id, action="drop", params={})
        assert table.lookup([5]).action == "drop"

    def test_delete_entry(self):
        table = simple_table()
        entry_id = table.add_entry([5], "fwd", {"out": 1})
        table.delete_entry(entry_id)
        assert table.lookup([5]) is None
        with pytest.raises(TableError):
            table.delete_entry(entry_id)

    def test_capacity_enforced(self):
        table = simple_table(max_size=2)
        table.add_entry([1], "drop")
        table.add_entry([2], "drop")
        with pytest.raises(TableError):
            table.add_entry([3], "drop")

    def test_unknown_action_rejected(self):
        table = simple_table()
        with pytest.raises(TableError):
            table.add_entry([1], "nope")

    def test_wrong_params_rejected(self):
        table = simple_table()
        with pytest.raises(TableError):
            table.add_entry([1], "fwd", {"wrong": 1})
        with pytest.raises(TableError):
            table.add_entry([1], "fwd", {})

    def test_value_must_fit_key_width(self):
        table = simple_table()
        with pytest.raises(TableError):
            table.add_entry([1 << 9], "drop")

    def test_clear(self):
        table = simple_table()
        table.add_entry([1], "drop")
        table.clear()
        assert len(table) == 0


class TestLpm:
    def make(self):
        return Table(
            "routes",
            keys=[lpm_key("dst", 32)],
            actions=[ActionSpec("fwd", ("out",))],
        )

    def test_longest_prefix_wins(self):
        table = self.make()
        table.add_entry([(0x0A000000, 8)], "fwd", {"out": 1})  # 10.0.0.0/8
        table.add_entry([(0x0A000500, 24)], "fwd", {"out": 2})  # 10.0.5.0/24
        assert table.lookup([0x0A000506]).params["out"] == 2  # 10.0.5.6
        assert table.lookup([0x0A010101]).params["out"] == 1  # 10.1.1.1

    def test_zero_prefix_matches_all(self):
        table = self.make()
        table.add_entry([(0, 0)], "fwd", {"out": 9})
        assert table.lookup([0xFFFFFFFF]).params["out"] == 9

    def test_invalid_prefix_length_rejected(self):
        table = self.make()
        with pytest.raises(TableError):
            table.add_entry([(0, 33)], "fwd", {"out": 1})

    def test_lpm_needs_tuple(self):
        table = self.make()
        with pytest.raises(TableError):
            table.add_entry([5], "fwd", {"out": 1})


class TestTernaryAndRange:
    def test_ternary_mask(self):
        table = Table(
            "acl",
            keys=[ternary_key("flags", 8)],
            actions=[ActionSpec("count")],
        )
        table.add_entry([(0x02, 0x02)], "count")  # SYN bit set
        assert table.lookup([0x02]) is not None
        assert table.lookup([0x12]) is not None
        assert table.lookup([0x10]) is None

    def test_priority_breaks_ternary_ties(self):
        table = Table(
            "acl",
            keys=[ternary_key("flags", 8)],
            actions=[ActionSpec("a"), ActionSpec("b")],
        )
        table.add_entry([(0, 0)], "a", priority=1)
        table.add_entry([(0x02, 0x02)], "b", priority=10)
        assert table.lookup([0x02]).action == "b"
        assert table.lookup([0x00]).action == "a"

    def test_range_match(self):
        table = Table(
            "ports",
            keys=[range_key("dst_port", 16)],
            actions=[ActionSpec("well_known")],
        )
        table.add_entry([(0, 1023)], "well_known")
        assert table.lookup([80]) is not None
        assert table.lookup([8080]) is None

    def test_empty_range_rejected(self):
        table = Table(
            "ports", keys=[range_key("p", 16)], actions=[ActionSpec("a")]
        )
        with pytest.raises(TableError):
            table.add_entry([(10, 5)], "a")


class TestCompositeKeysAndDefaults:
    def test_multi_key(self):
        table = Table(
            "flows",
            keys=[exact_key("proto", 8), lpm_key("dst", 32)],
            actions=[ActionSpec("track", ("dist",))],
        )
        table.add_entry([6, (0x0A000000, 8)], "track", {"dist": 1})
        assert table.lookup([6, 0x0A010203]) is not None
        assert table.lookup([17, 0x0A010203]) is None

    def test_key_count_validated(self):
        table = simple_table()
        with pytest.raises(TableError):
            table.lookup([1, 2])
        with pytest.raises(TableError):
            table.add_entry([1, 2], "drop")

    def test_default_action(self):
        table = Table(
            "t",
            keys=[exact_key("x", 8)],
            actions=[ActionSpec("miss_count")],
            default_action="miss_count",
        )
        assert table.default() == ("miss_count", {})

    def test_unknown_default_rejected(self):
        with pytest.raises(TableError):
            Table(
                "t",
                keys=[exact_key("x", 8)],
                actions=[ActionSpec("a")],
                default_action="nope",
            )

    def test_no_keys_rejected(self):
        with pytest.raises(TableError):
            Table("t", keys=[], actions=[ActionSpec("a")])

    def test_hit_accounting(self):
        table = simple_table()
        table.add_entry([1], "drop")
        table.lookup([1])
        table.lookup([2])
        assert table.lookups == 2
        assert table.hits == 1


def two_action_table():
    return Table(
        "t",
        keys=[exact_key("port", 9)],
        actions=[ActionSpec("a", ("x",)), ActionSpec("b", ("y",))],
    )


class TestVersion:
    def test_each_write_bumps_the_version(self):
        table = two_action_table()
        assert table.version == 0
        entry_id = table.add_entry([1], "a", {"x": 1})
        assert table.version == 1
        table.modify_entry(entry_id, params={"x": 2})
        assert table.version == 2
        table.modify_entry(entry_id, action="b", params={"y": 3})
        table.modify_entry(entry_id, matches=[2])
        table.modify_entry(entry_id, priority=4)
        assert table.version == 5
        table.delete_entry(entry_id)
        assert table.version == 6
        table.add_entry([3], "a", {"x": 1})
        table.clear()
        assert table.version == 8

    def test_reads_and_no_op_writes_leave_the_version(self):
        table = two_action_table()
        entry_id = table.add_entry([1], "a", {"x": 1})
        before = table.version
        table.lookup([1])
        table.lookup([2])
        table.match([1])
        table.modify_entry(entry_id)
        table.clear()
        table.clear()  # already empty: nothing changes
        assert table.version == before + 1

    def test_match_leaves_the_counters(self):
        table = two_action_table()
        table.add_entry([1], "a", {"x": 1})
        assert table.match([1]).params == {"x": 1}
        assert table.match([2]) is None
        assert (table.lookups, table.hits) == (0, 0)
        assert table.lookup([1]) is table.match([1])
        assert (table.lookups, table.hits) == (1, 1)

    def test_writes_that_raise_leave_the_version(self):
        table = two_action_table()
        entry_id = table.add_entry([1], "a", {"x": 1})
        before = table.version
        attempts = [
            lambda: table.add_entry([1], "nope"),
            lambda: table.add_entry([1 << 9], "a", {"x": 1}),
            lambda: table.modify_entry(99, params={"x": 1}),
            lambda: table.modify_entry(entry_id, params={"y": 1}),
            lambda: table.modify_entry(entry_id, matches=[1 << 9]),
            lambda: table.delete_entry(99),
        ]
        for attempt in attempts:
            with pytest.raises(TableError):
                attempt()
        assert table.version == before


class TestModifyIsAllOrNothing:
    def test_action_change_with_the_old_actions_params_changes_nothing(self):
        table = two_action_table()
        entry_id = table.add_entry([1], "a", {"x": 1})
        before = table.version
        with pytest.raises(TableError):
            table.modify_entry(entry_id, action="b", params={"x": 2})
        entry = table.match([1])
        assert (entry.action, entry.params) == ("a", {"x": 1})
        assert table.version == before

    def test_a_bad_match_leaves_action_and_params(self):
        table = two_action_table()
        entry_id = table.add_entry([1], "a", {"x": 1})
        with pytest.raises(TableError):
            table.modify_entry(
                entry_id, matches=[1 << 9], action="b", params={"y": 2}, priority=7
            )
        entry = table.match([1])
        assert (entry.action, entry.params, entry.priority) == ("a", {"x": 1}, 0)

    def test_an_action_change_needs_params_that_fit_it(self):
        table = two_action_table()
        entry_id = table.add_entry([1], "a", {"x": 1})
        with pytest.raises(TableError):
            table.modify_entry(entry_id, action="b")
        assert table.match([1]).action == "a"
