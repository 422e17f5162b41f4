import random
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, strategies as st

from translate_kiss import (
    ParameterError,
    PrefixTable,
    RangeError,
    check_lemma1_exhaustive,
    prefix_sum,
    ruler,
)
from translate_kiss.ruler import MAX_TABLE_LIMIT, MAX_WINDOW_WORK, _narrowed, _ruler_sums, ruler_sum

from oracles import lemma1_first_failure, ruler_by_halving

# First 32 terms, frozen from the displayed definition of the sequence.
FIRST_32 = [1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 3, 1, 2, 1, 5,
            1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 3, 1, 2, 1, 6]


def test_known_values():
    assert ruler(1) == 1
    assert ruler(2) == 2
    assert ruler(8) == 4
    assert ruler(32) == 6
    assert [ruler(i) for i in range(1, 33)] == FIRST_32


def test_odd_terms_are_one():
    assert all(ruler(i) == 1 for i in range(1, 2000, 2))


def test_powers_of_two():
    # counting the bits of 2^j directly gives j + 1
    for j in range(21):
        assert ruler(2**j) == j + 1
        assert ruler(2**j) == len(bin(2**j)) - 2


def test_invalid_argument():
    with pytest.raises(ParameterError):
        ruler(0)
    with pytest.raises(ParameterError):
        ruler(-3)
    with pytest.raises(ParameterError):
        ruler_by_halving(0)


@given(st.integers(min_value=1, max_value=2**40))
def test_halving_agrees_with_bits(i):
    assert ruler(i) == ruler_by_halving(i)


def planted_dips(seed):
    """(k_max, r_max, terms): the ruler sequence with one to three
    even-numbered terms below r_max lowered by 1 or 2.  A term lowered to 0
    fails at k = 1, one lowered to 1 or more only in a longer window (k = 2,
    4 and 8 all occur)."""
    rng = random.Random(seed)
    limit = rng.randint(8, 64)
    r_max = rng.randint(limit // 2, limit)
    k_max = rng.randint(1, r_max)
    terms = [ruler(i) for i in range(1, limit + 1)]
    for i in rng.sample(range(1, r_max, 2), rng.randint(1, 3)):
        terms[i] -= rng.randint(1, 2)
    return k_max, r_max, terms


class TestPrefixTable:
    def test_build_and_invariants(self):
        table = PrefixTable.build(256)
        assert table.sums[0] == 0
        diffs = [table.sums[i] - table.sums[i - 1] for i in range(1, 257)]
        assert diffs == [ruler(i) for i in range(1, 257)]
        assert all(d >= 1 for d in diffs)

    def test_prefix_sum_examples(self):
        table = PrefixTable.build(64)
        assert prefix_sum(0, table) == 0
        assert prefix_sum(4, table) == 7  # 1 + 2 + 1 + 3

    def test_power_of_two_sums(self):
        table = PrefixTable.build(2**16)
        for k in range(1, 17):
            # direct summation oracle
            assert sum(ruler(i) for i in range(1, 2**k + 1)) == 2 ** (k + 1) - 1
            assert prefix_sum(2**k, table) == 2 ** (k + 1) - 1

    def test_out_of_range(self):
        table = PrefixTable.build(16)
        with pytest.raises(RangeError):
            prefix_sum(17, table)
        with pytest.raises(ParameterError):
            prefix_sum(-1, table)
        with pytest.raises(ParameterError):
            PrefixTable.build(0)
        with pytest.raises(ParameterError):
            PrefixTable.build(MAX_TABLE_LIMIT + 1)


class TestLemma1:
    def test_examples(self):
        table = PrefixTable.build(64)
        assert check_lemma1_exhaustive(1, 7, table) is None
        # k = 5 with r_max = 5 leaves only the prefix itself: equality
        assert check_lemma1_exhaustive(5, 5, table) is None
        # terms 1, 2, 1, 0: the single term at r = 4 is below the first
        assert check_lemma1_exhaustive(4, 4, PrefixTable(4, (0, 1, 3, 4, 4))) == (1, 4)

    def test_out_of_range_window(self):
        table = PrefixTable.build(16)
        with pytest.raises(RangeError):
            check_lemma1_exhaustive(8, 17, table)

    def test_small_exhaustive_matches_naive(self):
        table = PrefixTable.build(200)
        terms = [ruler(i) for i in range(1, 201)]
        for k_max, r_max in [(1, 1), (32, 200), (200, 200), (7, 64)]:
            assert check_lemma1_exhaustive(k_max, r_max, table) is None
            assert lemma1_first_failure(k_max, r_max, terms) is None

    @pytest.mark.parametrize("seed", range(40))
    def test_planted_dips_match_naive_scan(self, seed):
        k_max, r_max, terms = planted_dips(seed)
        table = PrefixTable(len(terms), (0, *accumulate(terms)))
        expected = lemma1_first_failure(k_max, r_max, terms)
        assert check_lemma1_exhaustive(k_max, r_max, table) == expected

    @pytest.mark.filterwarnings("error")
    def test_shifted_tables_match_the_oracle_on_every_lane(self):
        # the same terms scaled by 1, 2**20 or 2**32, which fixes the lane:
        # W lies in 1..448, in 2**20..448 * 2**20 or at 2**32 and above.  Each
        # scaled table is shifted so that its sums sit at zero, cross 0,
        # +-2**15 or +-2**31, or lie wholly past int32 on either side; a
        # narrow lane then wraps every sum, and the verdict depends on the
        # terms alone.
        seen = {np.int16: set(), np.int32: set(), np.int64: set()}
        for seed in range(40):
            k_max, r_max, terms = planted_dips(seed)
            expected = lemma1_first_failure(k_max, r_max, terms)
            for scale, lane in [(1, np.int16), (2**20, np.int32), (2**32, np.int64)]:
                base = (0, *accumulate(t * scale for t in terms))
                half = base[r_max] // 2
                for shift in [0, -half, 2**15 - half, -(2**15) - half, 2**31 - half, -(2**31) - half, 2**40, -(2**40)]:
                    table = PrefixTable(len(terms), tuple(s + shift for s in base))
                    sums = np.array(table.sums[: r_max + 1], np.int64)
                    assert _narrowed(sums, min(k_max, r_max)).dtype == lane, (seed, scale, shift)
                    assert check_lemma1_exhaustive(k_max, r_max, table) == expected, (seed, scale, shift)
                    seen[lane].add(expected is None)
        assert all(verdicts == {True, False} for verdicts in seen.values())

    def test_sums_in_int32_but_spread_past_it_run_on_int64(self):
        # every sum fits in int32, but two differ by more than 2**31 - 1
        terms = [3, 1, 2**31 - 1, 1, 0, 2]
        table = PrefixTable(6, tuple(s - 2**30 for s in (0, *accumulate(terms))))
        assert max(table.sums) < 2**31 and _narrowed(np.array(table.sums), 6).dtype == np.int64
        assert check_lemma1_exhaustive(6, 6, table) == lemma1_first_failure(6, 6, terms) == (1, 2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dip", [None, 2**20 - 5])
    def test_built_table_same_on_every_lane(self, dip):
        # the built table, and copies scaled by 2**11 and by 2**27 and moved
        # past int32, whose windows need int32 and int64 (W = 16 * 21 * scale)
        r_max = 2**20
        sums = PrefixTable.build(r_max).sums
        if dip is not None:  # term dip + 1 becomes 0, so a window of one fails there
            sums = sums[: dip + 1] + tuple(s - (sums[dip + 1] - sums[dip]) for s in sums[dip + 1 :])
        want = None if dip is None else (1, dip + 1)
        for scale, shift, lane in [(1, 0, np.int16), (2**11, 0, np.int32), (2**27, 2**31, np.int64)]:
            table = PrefixTable(r_max, tuple(s * scale + shift for s in sums))
            assert _narrowed(np.array(table.sums), 16).dtype == lane
            assert check_lemma1_exhaustive(16, r_max, table) == want, scale

    @pytest.mark.parametrize("sums", [(0, 1, 3.5, 4, 7), (0, True, 3, 4, 7), (0, 1, 3)])
    def test_a_float_bool_or_short_table_is_refused(self, sums):
        # 3.5 truncated to 3 would pass, though exact arithmetic fails at
        # (1, 3); a short table would reach numpy's broadcast error
        with pytest.raises(ParameterError) as excinfo:
            check_lemma1_exhaustive(4, 4, PrefixTable(4, sums))
        assert excinfo.type is ParameterError
        if 3.5 in sums:
            assert lemma1_first_failure(4, 4, [1, 2.5, 0.5, 3]) == (1, 3)
            assert lemma1_first_failure(4, 4, [1, 2, 1, 3]) is None

    @pytest.mark.parametrize("sums", [(0, 1, 3, 4, 2**70), (0, 1, 3, 4, -(2**63) - 1), (-(2**62), 1, 3, 4, 2**62)])
    def test_sums_past_int64_are_a_range_error(self, sums):
        # the last: each sum fits in int64, but their difference does not
        with pytest.raises(RangeError):
            check_lemma1_exhaustive(4, 4, PrefixTable(4, sums))

    def test_exhaustive_checker_agrees_with_scalar(self):
        table = PrefixTable.build(300)
        assert check_lemma1_exhaustive(40, 300, table) is None

    @pytest.mark.parametrize("k_max, r_max", [(0, 16), (-5, 16), (4, 0)])
    def test_exhaustive_needs_a_window(self, k_max, r_max):
        with pytest.raises(ParameterError):
            check_lemma1_exhaustive(k_max, r_max, PrefixTable.build(16))

    def test_window_work_bounded_before_table_limit(self):
        # 2**44 window sums would run for days; the refusal comes before the
        # table's own RangeError and before any window is summed
        with pytest.raises(ParameterError, match="window sums") as excinfo:
            check_lemma1_exhaustive(2**22, 2**22, PrefixTable.build(16))
        assert excinfo.type is ParameterError

    def test_window_work_limit_is_inclusive(self):
        k = 2**15
        assert k * k == MAX_WINDOW_WORK
        with pytest.raises(RangeError):  # within the work limit, beyond the table
            check_lemma1_exhaustive(k, k, PrefixTable.build(16))
        with pytest.raises(ParameterError, match="window sums"):
            check_lemma1_exhaustive(k, k + 1, PrefixTable.build(16))

    def test_even_reduction_identity(self):
        # halving the prefix length: sum of first k terms = k + sum of first k/2
        table = PrefixTable.build(2**16)
        for k in range(2, 2**16 + 1, 2):
            assert table.sums[k] == k + table.sums[k // 2]

    def test_ceiling_division_step(self):
        # even-length windows shrink to half-length windows at ceil(r/2)
        table = PrefixTable.build(2048)
        for k in range(2, 64, 2):
            for r in range(1, 512):
                rp = (r + 1) // 2
                lhs = table.sums[r + k - 1] - table.sums[r - 1]
                rhs = k + table.sums[rp + k // 2 - 1] - table.sums[rp - 1]
                assert lhs == rhs


@given(st.integers(min_value=1, max_value=512))
def test_prefix_sum_strictly_monotone(i):
    table = PrefixTable.build(513)
    assert prefix_sum(i, table) > prefix_sum(i - 1, table)


def test_ruler_sum_closed_form_matches_table():
    table = PrefixTable.build(2**16)
    assert [ruler_sum(k) for k in range(2**16 + 1)] == list(table.sums)


def test_ruler_sums_match_the_closed_form():
    want = [ruler_sum(i) for i in range(2**12)]
    for k in range(2**12 + 1):
        got = _ruler_sums(k)
        assert got.dtype == np.int64 and got.tolist() == want[:k], k


def test_table_at_the_cap():
    table = PrefixTable.build(MAX_TABLE_LIMIT)
    assert len(table.sums) == MAX_TABLE_LIMIT + 1
    assert table.sums[-1] == ruler_sum(2**22)


def popcount(i):
    return bin(i).count("1")


def test_lemma1_is_popcount_subadditivity():
    # With sums[k] = 2k - popcount(k), window (k, r) holds iff
    # popcount(r - 1 + k) <= popcount(r - 1) + popcount(k): the carries of
    # (r - 1) + k in Kummer's theorem.  Both sides hold for every window.
    limit = 4096
    table = PrefixTable.build(limit)
    sums = np.asarray(table.sums)
    pc = np.array([popcount(i) for i in range(limit + 1)])
    for k in range(1, limit + 1):
        # index s = r - 1 runs over 0..limit - k
        held = sums[k] <= sums[k:] - sums[: limit + 1 - k]
        subadditive = pc[k:] <= pc[: limit + 1 - k] + pc[k]
        assert np.array_equal(held, subadditive) and held.all()
