import numpy as np
import pytest

from lidkit import submission as sub
from lidkit.errors import (
    ArityMismatch,
    DuplicateSegment,
    LineError,
    MalformedLine,
    NaNScore,
    UnknownLanguage,
)

FOUR_LANGS = ["l1", "l2", "l3", "l4"]


class TestParseScores:
    def test_sample_line(self):
        records = sub.parse_scores("seg_1 0.5 -0.2 -0.3 0.1\n", FOUR_LANGS)
        assert len(records) == 1
        assert records[0].segment_id == "seg_1"
        assert np.array_equal(records[0].scores, [0.5, -0.2, -0.3, 0.1])

    def test_empty_file(self):
        assert sub.parse_scores("", FOUR_LANGS) == []

    def test_blank_and_comment_lines_skipped(self):
        text = "# stamp\n\nseg_1 1 2 3 4\n\n"
        assert len(sub.parse_scores(text, FOUR_LANGS)) == 1

    def test_arity_mismatch_reports_line(self):
        lines = ["ok 1 2 3 4 5 6 7 8 9 10", "bad 1 2 3 4 5 6 7 8 9"]
        with pytest.raises(ArityMismatch) as err:
            sub.parse_scores("\n".join(lines), [f"g{i}" for i in range(10)])
        assert err.value.line_no == 2

    def test_infinities_accepted(self):
        records = sub.parse_scores("s inf -inf 0 1\n", FOUR_LANGS)
        assert records[0].scores[0] == np.inf
        assert records[0].scores[1] == -np.inf

    def test_nan_rejected(self):
        with pytest.raises(NaNScore):
            sub.parse_scores("s nan 0 0 0\n", FOUR_LANGS)

    def test_garbage_token_rejected(self):
        with pytest.raises(MalformedLine) as err:
            sub.parse_scores("s 0.1 zap 0 0\n", FOUR_LANGS)
        assert err.value.line_no == 1

    def test_duplicate_segment_rejected(self):
        text = "s 1 2 3 4\ns 1 2 3 4\n"
        with pytest.raises(DuplicateSegment):
            sub.parse_scores(text, FOUR_LANGS)


class TestWriteScores:
    def test_sample_round_trip_is_token_identical(self):
        text = "seg_1 0.5 -0.2 -0.3 0.1\n"
        records = sub.parse_scores(text, FOUR_LANGS)
        assert sub.write_scores(records) == text

    def test_empty_list_empty_stream(self):
        assert sub.write_scores([]) == ""

    def test_minus_inf_token(self):
        line = sub.write_scores([sub.ScoreRecord("s", [-np.inf, 1.0, 2.0, 3.0])])
        assert line.split()[1] == "-inf"

    def test_nan_score_refused_with_segment_id(self):
        records = [sub.ScoreRecord("s0", [0.1, 0.2]), sub.ScoreRecord("s1", [0.5, np.nan])]
        with pytest.raises(NaNScore, match="s1"):
            sub.write_scores(records)

    def test_parse_write_parse_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n_lang = int(rng.integers(1, 8))
            langs = [f"g{i}" for i in range(n_lang)]
            records = [
                sub.ScoreRecord(f"u{i}", rng.normal(size=n_lang) * 10.0 ** rng.integers(-6, 6))
                for i in range(int(rng.integers(0, 30)))
            ]
            once = sub.write_scores(sub.parse_scores(sub.write_scores(records), langs))
            twice = sub.write_scores(sub.parse_scores(once, langs))
            assert once == twice


class TestParseKey:
    def test_header_and_entry(self):
        key = sub.parse_key("A B C\ns1 A\n")
        assert key.language_list == ["A", "B", "C"]
        assert key.num_languages == 3
        assert key.entries == {"s1": "A"}

    def test_unknown_language(self):
        with pytest.raises(UnknownLanguage) as err:
            sub.parse_key("A B C\ns1 D\n")
        assert err.value.line_no == 2

    def test_out_of_set_entry(self):
        key = sub.parse_key("A B C\ns2 OOS\n")
        assert key.entries == {"s2": sub.OUT_OF_SET}

    def test_duplicate_segment(self):
        with pytest.raises(DuplicateSegment):
            sub.parse_key("A B\ns1 A\ns1 B\n")

    def test_missing_header(self):
        with pytest.raises(MalformedLine):
            sub.parse_key("")

    def test_reserved_marker_cannot_name_language(self):
        with pytest.raises(MalformedLine):
            sub.parse_key("A OOS\n")

    def test_key_round_trip(self):
        key = sub.TrialKey(["A", "B"], {"s1": "A", "s2": sub.OUT_OF_SET})
        again = sub.parse_key(sub.write_key(key))
        assert again == key


class TestFillMissing:
    def _key(self):
        return sub.TrialKey(["A", "B"], {"s1": "A", "s2": "B"})

    def test_missing_segment_filled_with_neg_inf(self):
        records = [sub.ScoreRecord("s1", [0.1, 0.2])]
        result = sub.fill_missing(records, self._key())
        assert [r.segment_id for r in result.records] == ["s1", "s2"]
        assert np.all(result.records[1].scores == -np.inf)
        assert result.added_ids == ["s2"]

    def test_exact_match_is_identity(self):
        records = [sub.ScoreRecord("s1", [0.1, 0.2]), sub.ScoreRecord("s2", [0.3, 0.4])]
        result = sub.fill_missing(records, self._key())
        assert result.records == records
        assert result.num_filled == 0 and not result.dropped_ids

    def test_extra_segment_dropped_with_warning_count(self):
        records = [
            sub.ScoreRecord("s1", [0.1, 0.2]),
            sub.ScoreRecord("s2", [0.3, 0.4]),
            sub.ScoreRecord("s3", [0.5, 0.6]),
        ]
        result = sub.fill_missing(records, self._key())
        assert result.dropped_ids == ["s3"]
        assert len(result.records) == 2

    def test_output_cardinality_always_matches_key(self):
        rng = np.random.default_rng(9)
        langs = ["A", "B", "C"]
        key = sub.TrialKey(langs, {f"k{i}": langs[i % 3] for i in range(20)})
        for _ in range(20):
            ids = [f"k{i}" for i in rng.choice(40, size=rng.integers(0, 30), replace=False)]
            records = [sub.ScoreRecord(s, rng.normal(size=3)) for s in ids]
            result = sub.fill_missing(records, key)
            assert len(result.records) == len(key.entries)
            assert {r.segment_id for r in result.records} == set(key.entries)


class TestValidationIsTotal:
    def test_fuzzed_garbage_never_crashes(self):
        rng = np.random.default_rng(123)
        alphabet = "abc 01.-\txz#\n"
        for _ in range(300):
            text = "".join(rng.choice(list(alphabet), size=rng.integers(0, 120)))
            try:
                sub.parse_scores(text, FOUR_LANGS)
            except LineError as err:
                assert err.line_no is not None
            try:
                sub.parse_key(text)
            except LineError as err:
                assert err.line_no is not None
