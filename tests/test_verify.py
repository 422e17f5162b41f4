import copy
import dataclasses
import hashlib
import pickle
from itertools import combinations

import numpy as np
import pytest

from translate_kiss import (
    ContractViolation,
    DocumentInvariantError,
    ParameterError,
    PrefixTable,
    Rect,
    SubCopyRef,
    Vec2,
    build_disk,
    check_lemma1_exhaustive,
    check_lemma2_exhaustive,
    extract_sub_copy,
    parse,
    place_translates,
    render_svg,
    rightward_runs,
    serialize,
    theorem_pair_witness,
    verify_construction,
    verify_touching_heights,
)
from translate_kiss import cli, disk, rect, render, verify
from translate_kiss.ruler import ruler_sum

from oracles import merge_lines, naive_contacts, swept_ends, tallest_by_max

# sha256 of serialize(verify_construction(m, n)), schema tk-1, for the
# parameters of acceptance criterion 5, as the pure-Python rect sweep
# produced them before the int64 sweep replaced it
GOLDEN_CERTIFICATES = {
    (2, 2): "c8917c9ec9532fbef6e35f0d0bc52551177fe6ec02e99f6ffd622781d6dee8f9",
    (4, 2): "0dd9b1d9288510fa4274f2c99be8a73973b9889860656d27ce30fdcb4a3e8cbf",
    (3, 3): "e0f7aa040ba590fcb2392426d1989f81b64a60af68759a9880973cc9f67cd1ac",
    (5, 3): "da8a4b64a4d45babc1526b3037d2530a85f81c6ca40f9cfa9111b796eaea66f3",
    (4, 4): "b3f6686d3ef6134b7f9fc7ac5f574a7f39af1eaf6da7f14f401ab017216a1916",
    (6, 4): "36c2ecf5cf268336e7439ae2852dd9e044aa08bd939b6a6bfe1633b0e1c8298d",
    (5, 5): "2430f65c66ea9f3d8cc6ed8710a45ac2fdaded0e9ad56ce6421eab15b1aeaa04",
    (7, 5): "1a80720e1d62a5f4b2ac7ae7f3e54e11d23e728b241c28da4a17e2174b502a17",
    (6, 6): "86fc4be1e05b2ca209132c03e9f7429ca41608998eb11499b4efe5fc745657a6",
    (8, 6): "18ed1d9d710188414e6dcfd10ed69e2eb1c8c7c1f50ec3c44aa06f513459e9f7",
    (7, 7): "0244561eb0f0032fb55ae81993bd7bbf6a26952ecc6c856a2736c4ab3cd5e8fb",
    (9, 7): "fed2ca43092565a9799499fb6a144802cb9a54b3cb250d16071fb6ff9f87c7a6",
    (8, 8): "f208241b15174c3d23e50325e75d520a801bd3351164ed80cafc76681300d055",
    (10, 8): "9e8227ba6fd9626fc860e43b422f068317561b36531449fa7f5503548eaf7247",
    (9, 9): "600468f188d43313d162fe1a256c7dc680d64ad031a7e32572b44ac5b6fb1024",
    (11, 9): "18f60fca84b739c33b5273a32cf5fe848d12910508eb4c9e5ae2fbc57cba708b",
    (10, 10): "67bcb9248f6bcac2a04c06095267733052e79b0ffb28a979c06cafa829c4477c",
    (12, 10): "ebfae977786d4892c08849089699f878b07725f9759d2e8c44fb21857589e189",
    # recorded from the sweep on Rect-free int64 rows, before the sweep ran
    # in the second translate's frame
    (11, 11): "9fa526f2cd8231367816097c6c36bae40f472af476316f8987f6bf38538cd90e",
}

# sha256 of serialize(build_disk(m, n)), schema tk-1, for n = 1..10 and
# m in {2, n + 2}; they pin the role and index serialize derives from each
# piece's position in the path
GOLDEN_SHAPES = {
    (2, 1): "4cbc78fc6a335f2128eb37536fd3988dc2c5124e67ee3e03f6c16ccd2ccd695c",
    (3, 1): "3e580ac4da21281cbaab27c142489001cc65cb0a381ba8fe7570f8c69df8e800",
    (2, 2): "dd243853f088b1864a66f7e89ae84195e4cfc2a6afbfc7c504ba43c3a6f52582",
    (4, 2): "18885ed781a7837dd576f45cbad815fdb99476b3988ba671a0ecede33d671cf6",
    (2, 3): "7c3ae452f64a5a01ade60cab3148a346a5ea54894e086060a2da6f2a8dbd0aea",
    (5, 3): "163cc17bd94c96bc3e6143180dffa961448b181baaabe4d1dd2cdfd9d76d4b79",
    (2, 4): "f1e35d2ed3b0fcd2579d059bf67016f361c9defda9035e95468b78eec2c4c1f9",
    (6, 4): "7bf51ed5b3142e7005458e91b485228c49ada0cbfed28b0fed65d0576e4a6454",
    (2, 5): "bf4f49adde8d7bec5118bc112ca5b35bc5343cea47d8a7027441451098c1426a",
    (7, 5): "1afcb785bd2f60f2c5eaf68e04672f1f018f2b8787afdcb4d3bd05b022ead1a5",
    (2, 6): "07ee386417b9c3b7abfd3895577cb9fce4da9d0d712b56d389e4d5f76ef25361",
    (8, 6): "ab1d8b4b86298a555d86dc532923599a086b992003b4f22a30327d253e4b12d9",
    (2, 7): "c37a2f832b531b9ff77671243c01a72c71ad1a058b651b6e545ba7be5b2869a9",
    (9, 7): "6ad421cf133b745d72d962b17984edfe86a1db71a2599894ec8713b362acbc99",
    (2, 8): "5eeaae89cc8c529ab9830b82bae0726bb9875aa2ee16305d9e0179812db6adbc",
    (10, 8): "c9b90b97cdf5cf674603c52c07f48c018bf6958fd98b6900e3d0ecf4f4a33e10",
    (2, 9): "732a1f3eacabf8b0561ec02dcf5dc2dbd04dc9c335c293491cd766d14c658f29",
    (11, 9): "9586a56b3f9272dd303a5b9766ca77b52ce947c67e5354e2645ea38723de9bdb",
    (2, 10): "939bd4298ac981874bce23af28ace361b5aca34de9e6c033bc5c92d129e3ebdc",
    (12, 10): "b700a7c1c6d09877534720f8d4ebbc3c4a8eee7ad937b8f1a20d0876ebbbf002",
}
# sha256 over the concatenated serialize bytes of every sub-copy with
# level >= 1 of the (5, 6) disk, by level and then by copy
GOLDEN_SUB_COPIES_5_6 = "36ce8c4039ba042ec6497f95037ae47aee476584088960c036732583511648d9"

# sha256 over the concatenated render_svg bytes of place_translates(m, n)
# and then build_disk(m, n), each at unit_px 1, 7 and 10, for n = 2..9 and
# m in {n, n + 2}; recorded while render_svg still drew translated rect copies
GOLDEN_SVGS = {
    (2, 2): "026b1b41e2dc3becd3a60c3c7211448cdf8d43c8f7901f24e63b2c6fc8d07374",
    (4, 2): "208c9351f3c1edafe39fb24b0126b50422809333b379edbb7d70c8467714b592",
    (3, 3): "05d43561979fdebb488e5a901325795c564ebf9d04164cd803b83473a981b5e3",
    (5, 3): "a6f03ab27be3e6753f40dd2b1897498c8381a69cffba55cd1d91c338d6048635",
    (4, 4): "8311575a1d660b96627e81cef0f3284d8b9038f990429c0ed892857881bf50ba",
    (6, 4): "a2437c755f17bac5e5b6737026a24172a857bdc4c9ad11dbc73820300311f0f4",
    (5, 5): "c26d863d90c0b74fbc7b415502684d966e3e1377321d6ae677673201351d9f7c",
    (7, 5): "d2cbf44f79bdf0a99df09429b1615968e5fa1cc162b72a90333ede428c0d237a",
    (6, 6): "2f5807fc1d30d32c8eee32046894a334c192d80373e9df8561c1557e3322b016",
    (8, 6): "06fdb56bc96d55a8319756f1df57a6488fb20012e1f7e54f78a8cf0239693c59",
    (7, 7): "bc41941f37de1050df8d20527e906a083fcda440bd2d2f6377d019dbf933c112",
    (9, 7): "d74d44528c92a35ba5d7f66495e469d336c979b2b0953072fd28219a395d7488",
    (8, 8): "32a8cfbe584130636609a32d5688b76a11f90a7e0e62696bf0e09f29314472c0",
    (10, 8): "b98046df70e48c963ea9492551fa333f495d95d653c9c24c68f2bf991037c6ec",
    (9, 9): "677872823c6742a61a79ad1a0d96ef787c422ad414c47301b18fce4e3d2a6357",
    (11, 9): "63eefcc0b8a205854a861b0905ba12f310fbb8b4e8924031c9a084539434c60b",
}
# sha256 of render_svg(build_disk(3, 1), unit_px=2**58 - 1), the largest unit_px it accepts
GOLDEN_SVG_3_1_HUGE = "c906b664289b308dbc4c5485d6d8a4a72889296a10d2764ec950b07df7261ca5"
# sha256 over the concatenated render_svg bytes of build_disk(m, n) at unit_px
# 1, 7 and 10: one bar, a bar, connector and bar, and 131,071 rects, which
# cross a 2**16-row chunk boundary; recorded while render_svg still formatted
# all four sizes of every rect
GOLDEN_SHAPE_SVGS = {
    (2, 0): "f636202dfdddceeb4d5c3741f27de680b3665d184ba19875a195a822f2aa13af",
    (2, 1): "2551a13c6c20b6b4c687d63d2eaa5a82977d4e82babaf81f684e8521a0af0b0b",
    (16, 16): "7875a2bdb3513e928ab0655afa6dce04059a93c4e3c7ca07e79bd9132b99ee07",
}


def _overlap_bound(L):
    """c(L) = max{t : S(t - 1) <= L + 1}, S the ruler prefix sum."""
    t = 1
    while ruler_sum(t) <= L + 1:
        t += 1
    return t


def find_verdict(cert, i, j):
    return next(v for v in cert.pair_verdicts if (v.i, v.j) == (i, j))


def has_segment(verdict, a, b):
    """True if some contact segment of the verdict covers segment a-b."""
    for c in verdict.contacts:
        if c.kind == "horizontal-segment" and a[1] == b[1] == c.a[1]:
            if c.a[0] <= a[0] and b[0] <= c.b[0]:
                return True
        if c.kind == "vertical-segment" and a[0] == b[0] == c.a[0]:
            if c.a[1] <= a[1] and b[1] <= c.b[1]:
                return True
    return False


class TestVerifyConstruction:
    def test_certificate_4_3(self):
        cert = verify_construction(4, 3)
        assert cert.ok
        assert cert.touching_count == 3
        assert cert.offsets == (Vec2(0, -4), Vec2(0, 0), Vec2(17, 6), Vec2(26, 8))
        assert len(cert.pair_verdicts) == 6
        assert has_segment(find_verdict(cert, 0, 1), (15, 4), (16, 4))
        assert has_segment(find_verdict(cert, 0, 2), (23, 7), (24, 7))

    def test_all_pairs_disjoint_4_3(self):
        cert = verify_construction(4, 3)
        assert all(v.interiors_disjoint for v in cert.pair_verdicts)
        for i in range(1, 4):
            assert find_verdict(cert, 0, i).segment_length_total >= 1

    def test_5_5(self):
        assert verify_construction(5, 5).ok

    def test_square_parameters(self):
        for n in range(2, 7):
            assert verify_construction(n, n).ok

    def test_pair_order_fixed(self):
        cert = verify_construction(4, 3)
        assert [(v.i, v.j) for v in cert.pair_verdicts] == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
        ]

    def test_deterministic(self):
        assert verify_construction(5, 4) == verify_construction(5, 4)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            verify_construction(4, 1)
        with pytest.raises(ParameterError):
            verify_construction(1, 3)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_m_binds_at_n_minus_1(self, n):
        # the paper takes m >= n; the verdict holds down to m = n - 1, and
        # below it only pairs (0, j) overlap, at m = n - 2 exactly (0, n - 1)
        for m in range(2, n + 1):
            cert = verify_construction(m, n)
            overlapping = [(v.i, v.j) for v in cert.pair_verdicts if not v.interiors_disjoint]
            assert cert.ok == (m >= n - 1), (m, n)
            assert all(i == 0 for i, _ in overlapping), (m, n)
            if m == n - 2:
                assert overlapping == [(0, n - 1)]

    @staticmethod
    def _disjoint_flags(m, n):
        # every pair swept on the full rows, which the proof engine is held to
        return [(i, j, ends is not None) for i, j, ends in swept_ends(m, n)]

    def test_overlap_bound(self):
        want = [3, 4, 4, 4, 5, 6, 6, 7, 8, 8, 8, 8, 9, 10, 10, 11, 12, 12, 12]
        assert [_overlap_bound(L) for L in range(2, 21)] == want

    @pytest.mark.parametrize("n", range(3, 14))
    def test_overlap_map(self, n):
        # measured, not proved: (0, j) overlaps iff L = n + 1 - j >= 2 and
        # m + 1 <= j <= c(L) m + 1, and no other pair overlaps (L >= 2 is j < n)
        for m in range(2, n + 2):
            want = {(0, j) for j in range(m + 1, n) if j <= _overlap_bound(n + 1 - j) * m + 1}
            pairs = combinations(range(n + 1), 2)
            assert self._disjoint_flags(m, n) == [(i, j, (i, j) not in want) for i, j in pairs], (m, n)

    @pytest.mark.parametrize("n", range(3, 12))
    def test_facing_reduction(self, n):
        # (0, j) overlaps iff the (m, L) disk, L = n + 1 - j, overlaps its own
        # copy moved by (j - 1, L + 1): A_0's last and A_j's first level-L sub-copy
        for m in range(2, n + 2):
            flags = self._disjoint_flags(m, n)[:n]
            facing = [
                (0, j, disk._placed_ends(build_disk(m, n + 1 - j).rows, Vec2(0, 0), Vec2(j - 1, n + 2 - j)) is not None)
                for j in range(1, n + 1)
            ]
            assert flags == facing, (m, n)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_largest_m_stays_inside_the_sweep_bound(self, n):
        # every coordinate lies below m * 2^(n+1), so the largest m under the
        # 2^61 bound verifies without a RangeError and the next is refused
        m = 2**61 // 2 ** (n + 1) - 1
        assert verify_construction(m, n).ok
        with pytest.raises(ParameterError):
            verify_construction(m + 1, n)


def _fast_sweeps(m, n, also=()):
    """The (rows, a, b) of each sweep that verify._verdicts makes of the (m,
    n) scene, as its rows' length and the two offsets: A_0's last level-L
    sub-copy, L = n + 1 - j, against A_j for each j, then the consecutive
    pairs and the pairs in also on the full rows, in combinations order."""
    offsets = place_translates(m, n).offsets
    facing = [
        (2 ** (n + 2 - j) - 1, offsets[0] + disk.sub_copy_offset(m, n, SubCopyRef(n + 1 - j, 2 ** (j - 1))), offsets[j])
        for j in range(1, n + 1)
    ]
    full = [
        (2 ** (n + 1) - 1, offsets[i], offsets[j])
        for i, j in combinations(range(1, n + 1), 2)
        if j == i + 1 or (i, j) in also
    ]
    return facing + full


def _engine_run(monkeypatch, m, n):
    """How verify_construction and verify._line_verdicts depart, on the (m, n)
    scene, from swept_ends, the sweep of every pair on the full rows: the
    names of the flags, ends and totals that differ, and the sweeps each
    made, as _fast_sweeps gives them."""
    want = swept_ends(m, n)
    calls, placed_ends = [], verify._placed_ends

    def recording(rows, a, b):
        calls.append((len(rows), a, b))
        return placed_ends(rows, a, b)

    monkeypatch.setattr(verify, "_placed_ends", recording)
    cert = verify_construction(m, n)
    cert_calls = calls[:]
    calls.clear()
    line_verdicts = list(verify._line_verdicts(place_translates(m, n)))
    first = next(((v.i, v.j) for v in line_verdicts if not v.interiors_disjoint), None)
    line = (*verify._verdict_totals(n, line_verdicts), first)
    monkeypatch.setattr(verify, "_placed_ends", placed_ends)
    got = [(v.i, v.j, v.interiors_disjoint, verify._ends(v).tolist(), v.segment_length_total) for v in cert.pair_verdicts]
    swept = [
        (i, j, ends is not None, [] if ends is None else ends.tolist(), 0 if ends is None else int(rect._lengths(ends).sum()))
        for i, j, ends in want
    ]
    touching = sum(1 for i, _, _, _, total in swept if i == 0 and total >= 1)
    ok = all(flag for _, _, flag, _, _ in swept) and touching == n
    first = next(((i, j) for i, j, ends in want if ends is None), None)
    differ = [
        name
        for name, same in [
            ("verdicts", got == swept),
            ("totals", (cert.touching_count, cert.ok) == (touching, ok)),
            ("line", line == (touching, ok, first)),
        ]
        if not same
    ]
    return differ, cert_calls, calls


class TestProofEngine:
    """verify decides a pair with i >= 1 by the Lemma 2 offset and Lemma 1's
    windows, and A_0's pairs on their facing sub-disks; each test holds it to
    swept_ends."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_engine_equals_the_full_sweep(self, monkeypatch, n):
        # every pair of the 99 scenes 2 <= n <= 12, 2 <= m <= n + 3, FAIL
        # scenes included: the same flags, ends and totals, with only A_0's
        # facing sub-disks and the consecutive pairs swept
        for m in range(2, n + 4):
            differ, cert_calls, line_calls = _engine_run(monkeypatch, m, n)
            assert differ == [], (m, n)
            assert cert_calls == _fast_sweeps(m, n), (m, n)
            assert line_calls == _fast_sweeps(m, n)[:n], (m, n)

    def test_a_facing_shift_of_j_fails_the_differential_test(self, monkeypatch):
        # a mutant that takes the facing shift to be (j, L + 1) finds no
        # pair (0, j) at it, so A_0's pairs leave the facing sub-disks
        monkeypatch.setattr(verify, "_facing_shift", lambda j, level: Vec2(j, level + 1))
        _, cert_calls, line_calls = _engine_run(monkeypatch, 6, 6)
        assert cert_calls != _fast_sweeps(6, 6) and line_calls != _fast_sweeps(6, 6)[:6]

    @pytest.mark.parametrize("patch", [
        lambda rows: rows + (0, 1, 0, 1),  # moved up one: H(0) = 1
        lambda rows: rows - np.pad([[0, 1, 0, 0]], ((1, len(rows) - 2), (0, 0))),  # connector 1 starts a cell lower
        # each even bar a cell lower, so every odd connector has height 0,
        # though H(k) = S(k) at each even k, where the offsets read it
        lambda rows: disk._staircase_rows(5, rows[0::2, 1] - np.arange(len(rows) // 2 + 1) % 2),
        # bars 1 and 2 a cell higher: H(0) = 1, and H(k) = S(k) from k = 2 on,
        # so pair (4, 5), at k = 2, would be taken one cell too high
        lambda rows: disk._staircase_rows(5, rows[0::2, 1] + (np.arange(len(rows) // 2 + 1) < 2)),
    ], ids=["moved-up", "connector-lowered", "flat-steps", "first-bars-up"])
    def test_rows_off_the_staircase_are_all_swept(self, monkeypatch, patch):
        m, n = 5, 5
        rows = patch(build_disk(m, n).rows)
        monkeypatch.setattr(disk.Shape, "rows", property(lambda shape: rows))
        differ, cert_calls, line_calls = _engine_run(monkeypatch, m, n)
        assert differ == []
        offsets = place_translates(m, n).offsets
        every = [(len(rows), offsets[i], offsets[j]) for i, j in combinations(range(n + 1), 2)]
        assert cert_calls == line_calls == every
        # Lemma 2's check reads the same rows and refuses them
        with pytest.raises(ContractViolation, match="not the staircase of the bar heights S"):
            check_lemma2_exhaustive(m, n)

    @pytest.mark.parametrize("moved", ["odd-bars-up", "last-bar-up", "late-bars-down"])
    def test_a_staircase_of_other_heights(self, monkeypatch, moved):
        # the disk's bars moved by one on the staircase of other heights H:
        # every odd bar index up, so H(k) = S(k) at each even k, which the
        # pair offsets and A_0's sub-copies use, and the proof decides every
        # pair it decides on the ruler; the last up, which no sub-copy of A_0
        # then repeats, so A_0's pairs are swept on the full rows; or those
        # from 2^(n-1) on down, so later pairs sit off their Lemma 2 offsets
        # and consecutive ones there overlap
        m, n = 4, 6
        index = np.arange(2**n)
        heights = disk._ruler_sums(2**n) + {
            "odd-bars-up": index % 2,
            "last-bar-up": index == 2**n - 1,
            "late-bars-down": np.where(index >= 2 ** (n - 1), -1, 0),
        }[moved]
        rows = disk._staircase_rows(m, heights)
        monkeypatch.setattr(disk.Shape, "rows", property(lambda shape: rows))
        differ, cert_calls, line_calls = _engine_run(monkeypatch, m, n)
        assert differ == []
        fast, offsets = _fast_sweeps(m, n), place_translates(m, n).offsets
        if moved == "last-bar-up":
            fast[:n] = [(len(rows), offsets[0], offsets[j]) for j in range(1, n + 1)]
        if moved == "late-bars-down":
            late = [(len(rows), offsets[i], offsets[i + 1]) for i in range(1, n) if theorem_pair_witness(m, n, i, i + 1).bar_index > 2 ** (n - 1)]
            assert late and set(late) <= set(line_calls)
            assert not verify_construction(m, n).ok
        else:
            assert cert_calls == fast and line_calls == fast[:n]
        # a staircase, but of heights other than the S(i) that Lemma 2's
        # case offsets use, so its check refuses these rows
        with pytest.raises(ContractViolation, match="not the staircase of the bar heights S"):
            check_lemma2_exhaustive(m, n)

    @pytest.mark.parametrize("pair", [(1, 3), (2, 3)])
    def test_a_short_window_sends_only_its_pairs_to_the_sweep(self, monkeypatch, pair):
        # the helper reports a short window of k terms, k that of the pair's
        # witness; each pair of the (6, 6) scene has its own k
        m, n = 6, 6
        ks = {(i, j): theorem_pair_witness(m, n, i, j).bar_index - 1 for i, j in combinations(range(1, n + 1), 2)}
        short = verify._short_window
        monkeypatch.setattr(verify, "_short_window", lambda lanes, k, buffer: 1 if k == ks[pair] else short(lanes, k, buffer))
        differ, cert_calls, line_calls = _engine_run(monkeypatch, m, n)
        assert differ == []
        pairs = {p for p, k in ks.items() if k == ks[pair]}
        assert cert_calls == _fast_sweeps(m, n, also=pairs)
        offsets = place_translates(m, n).offsets
        assert line_calls == _fast_sweeps(m, n)[:n] + [(2 ** (n + 1) - 1, offsets[i], offsets[j]) for i, j in sorted(pairs)]


@pytest.mark.parametrize("m, n", [(5, 5), (4, 6)])
def test_one_copy_of_the_rows_for_every_reader(tmp_path, monkeypatch, capsys, m, n):
    # every reader of a scene's verdicts builds the disk's rows once and
    # sweeps, on those rows or a leading slice of them, only the pairs the
    # proof leaves: A_0's facing sub-disks and, for a certificate, the
    # consecutive pairs
    data = serialize(verify_construction(m, n))
    argv = ["verify", "-m", str(m), "-n", str(n)]
    runs = {
        "verify_construction": lambda: verify_construction(m, n),
        "parse": lambda: parse(data),
        "cli": lambda: cli.main(argv),
        "cli --json": lambda: cli.main(argv + ["--json", str(tmp_path / "cert.json")]),
    }
    builds, swept = [], []
    build_disk, placed_ends = verify.build_disk, verify._placed_ends

    def counted_build(*args):
        builds.append(build_disk(*args))
        return builds[-1]

    def counted_ends(rows, a, b):
        swept.append((rows, a, b))
        return placed_ends(rows, a, b)

    monkeypatch.setattr(verify, "build_disk", counted_build)
    monkeypatch.setattr(verify, "_placed_ends", counted_ends)
    for name, run in runs.items():
        builds.clear()
        swept.clear()
        run()
        assert len(builds) == 1, name
        full = builds[0].rows
        assert all(rows.base is full or rows is full for rows, _, _ in swept), name
        assert all(np.array_equal(rows, full[: len(rows)]) for rows, _, _ in swept), name
        want = _fast_sweeps(m, n)[: n if name == "cli" else None]
        assert [(len(rows), a, b) for rows, a, b in swept] == want, name


@pytest.mark.parametrize("edit", [
    (b'"interiors_disjoint":true', b'"interiors_disjoint":false'),  # pair (0, 1), the first
    (b'"ok":true}', b'"ok":false}'),  # the trailer
])
def test_refused_certificate_sweeps_each_pair_at_most_once(monkeypatch, edit):
    m, n = 5, 5
    data = serialize(verify_construction(m, n)).replace(*edit, 1)
    swept = []
    placed_ends = verify._placed_ends

    def counted_ends(rows, a, b):
        swept.append((a, b))
        return placed_ends(rows, a, b)

    monkeypatch.setattr(verify, "_placed_ends", counted_ends)
    with pytest.raises(DocumentInvariantError):
        parse(data)
    assert 1 <= len(swept) <= n * (n + 1) // 2


@pytest.mark.parametrize("m, n", GOLDEN_CERTIFICATES)
def test_certificate_bytes_golden(m, n):
    data = serialize(verify_construction(m, n))
    assert hashlib.sha256(data).hexdigest() == GOLDEN_CERTIFICATES[(m, n)]


def test_shape_bytes_golden():
    for (m, n), digest in GOLDEN_SHAPES.items():
        assert hashlib.sha256(serialize(build_disk(m, n))).hexdigest() == digest, (m, n)
    shape = build_disk(5, 6)
    h = hashlib.sha256()
    for level in range(1, 7):
        for copy in range(1, 2 ** (6 - level) + 1):
            h.update(serialize(extract_sub_copy(shape, SubCopyRef(level, copy))))
    assert h.hexdigest() == GOLDEN_SUB_COPIES_5_6


def test_svg_bytes_golden():
    for (m, n), digest in GOLDEN_SVGS.items():
        h = hashlib.sha256()
        for obj in (place_translates(m, n), build_disk(m, n)):
            for unit_px in (1, 7, 10):
                h.update(render_svg(obj, unit_px))
        assert h.hexdigest() == digest, (m, n)
    huge = render_svg(build_disk(3, 1), unit_px=2**58 - 1)
    assert hashlib.sha256(huge).hexdigest() == GOLDEN_SVG_3_1_HUGE


@pytest.mark.parametrize("m, n", list(GOLDEN_SHAPE_SVGS))
def test_shape_svg_bytes_golden(m, n):
    h = hashlib.sha256()
    for unit_px in (1, 7, 10):
        h.update(render_svg(build_disk(m, n), unit_px))
    assert h.hexdigest() == GOLDEN_SHAPE_SVGS[m, n]


@pytest.mark.parametrize("call, rects_allowed", [
    pytest.param(lambda: render_svg(place_translates(5, 4)), 1, id="render-scene"),
    pytest.param(lambda: render_svg(build_disk(5, 4)), 1, id="render-shape"),
    pytest.param(lambda: parse(serialize(build_disk(5, 4))), 0, id="serialize-parse-shape"),
    pytest.param(lambda: verify_construction(5, 4), 0, id="verify"),
    pytest.param(lambda: [verify_touching_heights(5, 4, i) for i in range(1, 5)], 0, id="touching"),
    pytest.param(lambda: check_lemma2_exhaustive(5, 4), 0, id="lemma2"),
    pytest.param(lambda: check_lemma1_exhaustive(16, 256, PrefixTable.build(256)), 0, id="lemma1"),
])
def test_no_rect_is_built(monkeypatch, call, rects_allowed):
    # the disk is its int64 rows: only render_svg's bounding box is a Rect
    want = call()
    made = []
    post_init = Rect.__post_init__

    def counted(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(Rect, "__post_init__", counted)
    assert call() == want
    assert len(made) == rects_allowed, made[:3]


class TestRightwardRuns:
    @pytest.mark.parametrize("n", range(9))
    def test_runs_are_the_merged_right_edges(self, n):
        for m in range(2, 6):
            edges = [(x1, y0, y1) for _, y0, x1, y1 in build_disk(m, n).rows.tolist()]
            assert [[r.x, r.y0, r.y1] for r in rightward_runs(build_disk(m, n))] == merge_lines(edges)

    def test_runs_of_4_3(self):
        runs = rightward_runs(build_disk(4, 3))
        tallest = max(runs, key=lambda r: r.height)
        # middle bar and connector edges join into one run of height 4
        assert (tallest.x, tallest.y0, tallest.y1) == (16, 4, 8)
        assert sum(1 for r in runs if r.height == tallest.height) == 1

    def test_last_bar_run_is_short(self):
        runs = rightward_runs(build_disk(3, 2))
        last = max(runs, key=lambda r: r.x)
        assert last.height == 1


class TestTouchingHeights:
    def test_report_4_3_i1(self):
        rep = verify_touching_heights(4, 3, 1)
        assert rep.offset == Vec2(0, 4)
        assert rep.offset_ok
        assert rep.tallest_run.height == 4
        assert rep.tallest_run.x == 16
        assert rep.tallest_is_unique
        assert rep.has_segment_contact
        assert rep.ok

    def test_report_4_3_i2(self):
        rep = verify_touching_heights(4, 3, 2)
        assert rep.offset == Vec2(1, 3)
        assert any(
            c.kind == "horizontal-segment" and c.a == (23, 7) and c.b[0] >= 24
            for c in rep.contacts
        )
        assert rep.ok

    def test_offset_formula(self):
        for m, n in [(3, 3), (5, 5), (6, 4)]:
            for i in range(1, n + 1):
                rep = verify_touching_heights(m, n, i)
                assert rep.offset == Vec2(i - 1, n + 2 - i)
                assert rep.tallest_run.height == n + 2 - i
                assert rep.ok

    @pytest.mark.parametrize("n", range(2, 8))
    def test_contacts_match_naive_oracle(self, n):
        # the facing sub-copies sliced out of the placed disks, without
        # sub_copy_offset: A_0's last level sub-copy and A_i's first
        for m in (n, n + 2):
            pieces = build_disk(m, n).pieces
            offsets = place_translates(m, n).offsets
            for i in range(1, n + 1):
                k = 2 ** (n + 2 - i) - 1  # pieces in a level n+1-i sub-copy
                A = [r.translate(offsets[0]) for r in pieces[-k:]]
                B = [r.translate(offsets[i]) for r in pieces[:k]]
                want = {(kind, a, b, b[0] - a[0] + b[1] - a[1]) for kind, a, b in naive_contacts(A, B)}
                got = verify_touching_heights(m, n, i).contacts
                assert {(c.kind, c.a, c.b, c.length) for c in got} == want, (m, n, i)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_tallest_run_matches_max_oracle(self, n):
        for m in (n, n + 2):
            for i in range(1, n + 1):
                rep = verify_touching_heights(m, n, i)
                tallest, unique = tallest_by_max(build_disk(m, n + 1 - i))
                assert rep == dataclasses.replace(rep, tallest_run=tallest, tallest_is_unique=unique), (m, n, i)
                run = rep.tallest_run
                assert [type(v) for v in (run.x, run.y0, run.y1, rep.tallest_is_unique)] == [int, int, int, bool]

    def test_no_translated_rect_copies(self, monkeypatch):
        # a translate is its offset: render_svg and the touching report build
        # no translated Rect and never go through contact_components
        scene = place_translates(5, 4)
        want = [render_svg(scene)] + [verify_touching_heights(5, 4, i) for i in range(1, 5)]

        def refuse(*args):
            raise AssertionError("a translated rect copy was built")

        monkeypatch.setattr(Rect, "translate", refuse)
        for module in (rect, render, verify):
            monkeypatch.setattr(module, "contact_components", refuse, raising=False)
        assert [render_svg(scene)] + [verify_touching_heights(5, 4, i) for i in range(1, 5)] == want

    def test_overlapping_sub_copies_raise(self, monkeypatch):
        # a sub-copy offset that lands A_0's facing copy on A_1's
        offsets = place_translates(4, 3).offsets
        monkeypatch.setattr(verify, "sub_copy_offset", lambda m, n, ref: offsets[1] - offsets[0])
        with pytest.raises(ContractViolation):
            verify_touching_heights(4, 3, 1)

    @pytest.mark.parametrize("m, n", [(2, 4), (3, 5), (8, 10)])
    def test_overlap_at_m_n_minus_2_raises(self, m, n):
        # A_{n-1} overlaps A_0 there, and so do their facing sub-copies
        with pytest.raises(ContractViolation):
            verify_touching_heights(m, n, n - 1)

    def test_invalid_index(self):
        with pytest.raises(ParameterError):
            verify_touching_heights(4, 3, 0)
        with pytest.raises(ParameterError):
            verify_touching_heights(4, 3, 4)


class TestTranslationInvariance:
    def test_verdicts_shift_with_scene(self):
        # re-deriving the certificate from shifted geometry changes only
        # the reported coordinates, never the verdicts
        from translate_kiss import contact_components, place_translates, union_interiors_disjoint

        m, n = 4, 3
        shape = build_disk(m, n)
        scene = place_translates(m, n)
        v = Vec2(-9, 13)
        placed = [[r.translate(t) for r in shape.rects()] for t in scene.offsets]
        shifted = [[r.translate(v) for r in group] for group in placed]
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                assert union_interiors_disjoint(placed[i], placed[j]) == \
                    union_interiors_disjoint(shifted[i], shifted[j])
                base = contact_components(placed[i], placed[j])
                moved = contact_components(shifted[i], shifted[j])
                assert [(c.kind, c.length) for c in base] == [
                    (c.kind, c.length) for c in moved
                ]


def _contact_builds(monkeypatch):
    """Counts of rect._bulk calls and ContactComponent constructions, by
    either __new__ or the trusted constructor _bulk uses, from here on."""
    counts = {"bulk": 0, "contacts": 0}
    bulk, trusted, new = rect._bulk, rect._trusted, rect.ContactComponent.__new__

    def counted_bulk(ends):
        counts["bulk"] += 1
        return bulk(ends)

    def counted_trusted(fields):
        counts["contacts"] += 1
        return trusted(fields)

    def counted_new(cls, a, b):
        counts["contacts"] += 1
        return new(cls, a, b)

    for module in (rect, verify):
        monkeypatch.setattr(module, "_bulk", counted_bulk)
    monkeypatch.setattr(rect, "_trusted", counted_trusted)
    monkeypatch.setattr(rect.ContactComponent, "__new__", counted_new)
    return counts


class TestLazyContacts:
    """verify_construction and parse return verdicts that hold their
    contacts' rows of ends; the ContactComponent tuple is made on the first
    read of contacts."""

    @pytest.mark.parametrize("m, n", [(4, 4), (6, 7), (8, 10)])
    def test_no_contact_is_built_until_read(self, monkeypatch, m, n):
        counts = _contact_builds(monkeypatch)
        made = verify_construction(m, n)
        data = serialize(made)
        parsed = parse(data)
        assert serialize(parsed) == data
        assert counts == {"bulk": 0, "contacts": 0}
        assert made.ok is parsed.ok is (m >= n - 1)
        for cert in (made, parsed):
            built = dict(counts)
            for v in cert.pair_verdicts:
                first = v.contacts
                assert first is v.contacts and type(first) is tuple
                assert counts["bulk"] == built["bulk"] + 1
                assert counts["contacts"] == built["contacts"] + len(first)
                built = dict(counts)
        assert counts["contacts"] == 2 * sum(len(v.contacts) for v in made.pair_verdicts) > 0

    def test_held_ends_are_read_only(self):
        for v in verify_construction(5, 5).pair_verdicts:
            assert not verify._ends(v).flags.writeable

    def test_contacts_field_has_no_default(self):
        assert all(f.default is dataclasses.MISSING for f in dataclasses.fields(verify.PairVerdict))
        with pytest.raises(TypeError):
            verify.PairVerdict(0, 1, True, segment_length_total=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            verify_construction(3, 2).pair_verdicts[0].contacts = ()

    @pytest.mark.parametrize("m, n", [(3, 2), (4, 5), (6, 7), (8, 10)])
    def test_lazy_verdict_behaves_as_its_tuple(self, m, n):
        data = serialize(verify_construction(m, n))
        eager = [
            verify.PairVerdict(v.i, v.j, v.interiors_disjoint, tuple(v.contacts), v.segment_length_total)
            for v in verify_construction(m, n).pair_verdicts
        ]
        # each check reads fresh verdicts, whose contacts are still rows of ends
        checks = [
            lambda v, e: v == e,
            lambda v, e: e == v,
            lambda v, e: not (v != e) and not (e != v),
            lambda v, e: hash(v) == hash(e),
            lambda v, e: repr(v) == repr(e),
            lambda v, e: pickle.loads(pickle.dumps(v)) == e,
            lambda v, e: pickle.loads(pickle.dumps(e)) == v,
            lambda v, e: copy.deepcopy(v) == e and copy.copy(v) == e,
            lambda v, e: dataclasses.replace(v) == e and type(dataclasses.replace(v).contacts) is tuple,
            lambda v, e: dataclasses.replace(v, i=-1) == dataclasses.replace(e, i=-1),
        ]
        for check in checks:
            for cert in (verify_construction(m, n), parse(data)):
                assert all(map(check, cert.pair_verdicts, eager))
        # a certificate whose contacts were all read writes them from the tuples
        cert = parse(data)
        assert [v.contacts for v in cert.pair_verdicts] == [e.contacts for e in eager]
        assert serialize(cert) == data
