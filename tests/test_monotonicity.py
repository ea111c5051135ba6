"""Monotonicity classification and interleavability (§4.2.1)."""

import pytest

from repro.analysis import can_interleave, is_monotone
from repro.sql import parse
from repro.workloads import PolicyParams, make_policy


def q(sql):
    return parse(sql)


class TestMonotone:
    def test_spj_is_monotone(self):
        assert is_monotone(q("SELECT DISTINCT 'e' FROM users u WHERE u.uid = 1"))

    def test_filters_do_not_break_monotonicity(self):
        assert is_monotone(
            q("SELECT DISTINCT 'e' FROM users u WHERE u.uid <> 1 AND u.ts > 5")
        )

    def test_union_of_monotone_is_monotone(self):
        assert is_monotone(
            q("SELECT 'a' FROM users u UNION SELECT 'b' FROM schema s")
        )

    def test_count_greater_is_monotone(self):
        assert is_monotone(
            q("SELECT DISTINCT 'e' FROM users u HAVING COUNT(DISTINCT u.uid) > 10")
        )

    def test_count_ge_is_monotone(self):
        assert is_monotone(q("SELECT DISTINCT 'e' FROM users u HAVING COUNT(*) >= 3"))

    def test_flipped_comparison_normalized(self):
        assert is_monotone(q("SELECT DISTINCT 'e' FROM users u HAVING 10 < COUNT(*)"))

    def test_max_greater_is_monotone(self):
        assert is_monotone(q("SELECT DISTINCT 'e' FROM users u HAVING MAX(u.ts) > 5"))

    def test_having_filter_on_group_key_is_monotone(self):
        assert is_monotone(
            q(
                "SELECT DISTINCT 'e' FROM users u GROUP BY u.uid "
                "HAVING u.uid > 3 AND COUNT(*) > 2"
            )
        )


class TestNonMonotone:
    def test_count_less_is_not_monotone(self):
        assert not is_monotone(
            q("SELECT DISTINCT 'e' FROM provenance p HAVING COUNT(*) < 10")
        )

    def test_count_le_is_not_monotone(self):
        assert not is_monotone(
            q("SELECT DISTINCT 'e' FROM provenance p HAVING COUNT(*) <= 3")
        )

    def test_count_equality_is_not_monotone(self):
        assert not is_monotone(
            q("SELECT DISTINCT 'e' FROM provenance p HAVING COUNT(*) = 3")
        )

    def test_sum_greater_not_assumed_monotone(self):
        # sum can shrink with negative values; conservatively non-monotone
        assert not is_monotone(
            q("SELECT DISTINCT 'e' FROM provenance p HAVING SUM(p.otid) > 3")
        )

    def test_min_greater_is_not_monotone(self):
        assert not is_monotone(
            q("SELECT DISTINCT 'e' FROM provenance p HAVING MIN(p.otid) > 3")
        )

    def test_except_is_not_monotone(self):
        assert not is_monotone(
            q("SELECT uid FROM users EXCEPT SELECT otid FROM provenance")
        )

    def test_aggregate_on_both_sides_not_monotone(self):
        assert not is_monotone(
            q("SELECT DISTINCT 'e' FROM users u HAVING COUNT(*) > COUNT(DISTINCT u.uid)")
        )

    def test_aggregate_under_arithmetic_is_not_monotone(self):
        # The aggregate sits right of an operator that is no comparison:
        # there is nothing to flip, so the verdict is "not monotone".
        assert not is_monotone(
            q("SELECT DISTINCT 'e' FROM users u HAVING 1 + COUNT(*)")
        )

    def test_non_monotone_subquery_poisons(self):
        assert not is_monotone(
            q(
                "SELECT DISTINCT 'e' FROM "
                "(SELECT p.ts FROM provenance p HAVING COUNT(*) < 2) x"
            )
        )


class TestCanInterleave:
    def test_monotone_always_interleaves(self):
        assert can_interleave(q("SELECT DISTINCT 'e' FROM users u"))

    def test_non_monotone_with_group_by_interleaves(self):
        assert can_interleave(
            q(
                "SELECT DISTINCT 'e' FROM provenance p "
                "GROUP BY p.ts, p.otid HAVING COUNT(DISTINCT p.itid) <= 3"
            )
        )

    def test_non_monotone_scalar_does_not_interleave(self):
        assert not can_interleave(
            q("SELECT DISTINCT 'e' FROM provenance p HAVING COUNT(*) < 10")
        )

    def test_except_does_not_interleave(self):
        assert not can_interleave(
            q("SELECT uid FROM users EXCEPT SELECT otid FROM provenance")
        )


class TestPaperPolicies:
    def test_classification_of_p1_to_p6(self):
        """P4 (count <= k) is the only non-monotone experiment policy, and
        it still interleaves thanks to its GROUP BY."""
        params = PolicyParams()
        monotone = {
            "P1": True,
            "P2": True,
            "P3": True,
            "P4": False,
            "P5": True,
            "P6": True,
        }
        for name, want in monotone.items():
            policy = make_policy(name, params)
            assert is_monotone(policy.select) is want, name
            assert can_interleave(policy.select), name
