"""Tests for the membership ledger."""

import pytest

from repro.fl import MembershipLedger


@pytest.fixture
def ledger():
    lg = MembershipLedger()
    lg.join(0, 0)
    lg.join(1, 0)
    lg.join(2, 5)  # joins mid-way — the paper's forgotten-client shape
    return lg


class TestJoin:
    def test_join_round_recorded(self, ledger):
        assert ledger.join_round(2) == 5

    def test_double_join_raises(self, ledger):
        with pytest.raises(ValueError):
            ledger.join(0, 3)

    def test_negative_round_raises(self):
        with pytest.raises(ValueError):
            MembershipLedger().join(0, -1)

    def test_unknown_client_raises(self, ledger):
        with pytest.raises(KeyError):
            ledger.join_round(99)


class TestLeave:
    def test_leave_recorded(self, ledger):
        ledger.leave(0, 10)
        assert ledger.leave_round(0) == 10
        assert not ledger.is_member(0, 10)
        assert ledger.is_member(0, 9)

    def test_double_leave_raises(self, ledger):
        ledger.leave(0, 10)
        with pytest.raises(ValueError):
            ledger.leave(0, 12)

    def test_leave_before_join_raises(self, ledger):
        with pytest.raises(ValueError):
            ledger.leave(2, 5)


class TestMembership:
    def test_not_member_before_join(self, ledger):
        assert not ledger.is_member(2, 4)
        assert ledger.is_member(2, 5)

    def test_members_at(self, ledger):
        assert ledger.members_at(0) == [0, 1]
        assert ledger.members_at(5) == [0, 1, 2]

    def test_known_clients(self, ledger):
        assert ledger.known_clients() == [0, 1, 2]


class TestDropout:
    def test_dropout_blocks_participation(self, ledger):
        ledger.record_dropout(0, 3)
        assert ledger.is_member(0, 3)  # still a member...
        assert 0 not in ledger.participants_at(3)  # ...but no gradient

    def test_participants_at(self, ledger):
        ledger.record_dropout(1, 2)
        assert ledger.participants_at(2) == [0]
        assert ledger.participants_at(3) == [0, 1]
