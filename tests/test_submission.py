import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from lidkit import submission as sub
from lidkit.errors import (
    ArityMismatch,
    DuplicateSegment,
    InconsistentLanguageSet,
    LineError,
    MalformedLine,
    NaNScore,
    UnknownLanguage,
)

FOUR_LANGS = ["l1", "l2", "l3", "l4"]


class TestParseScores:
    def test_sample_line(self):
        table = sub.parse_scores("seg_1 0.5 -0.2 -0.3 0.1\n", FOUR_LANGS)
        assert len(table) == 1
        assert table.ids == ["seg_1"]
        assert np.array_equal(table.values, [[0.5, -0.2, -0.3, 0.1]])

    def test_empty_file(self):
        table = sub.parse_scores("", FOUR_LANGS)
        assert table.ids == [] and table.values.shape == (0, 4)

    def test_blank_and_comment_lines_skipped(self):
        text = "# stamp\n\nseg_1 1 2 3 4\n\n"
        assert len(sub.parse_scores(text, FOUR_LANGS)) == 1

    def test_arity_mismatch_reports_line(self):
        lines = ["ok 1 2 3 4 5 6 7 8 9 10", "bad 1 2 3 4 5 6 7 8 9"]
        with pytest.raises(ArityMismatch) as err:
            sub.parse_scores("\n".join(lines), [f"g{i}" for i in range(10)])
        assert err.value.line_no == 2

    def test_infinities_accepted(self):
        table = sub.parse_scores("s inf -inf 0 1\n", FOUR_LANGS)
        assert table.values[0, 0] == np.inf
        assert table.values[0, 1] == -np.inf

    def test_nan_rejected(self):
        with pytest.raises(NaNScore):
            sub.parse_scores("s nan 0 0 0\n", FOUR_LANGS)

    def test_garbage_token_rejected(self):
        with pytest.raises(MalformedLine) as err:
            sub.parse_scores("s 0.1 zap 0 0\n", FOUR_LANGS)
        assert err.value.line_no == 1

    @pytest.mark.parametrize("token", ["1_0", "+inf", "Infinity", "INF", "1e400", "٣"])
    def test_token_float_reads_but_the_rule_refuses(self, token):
        with pytest.raises(MalformedLine) as err:
            sub.parse_scores(f"s 0.1 {token} 0 0\n", FOUR_LANGS)
        assert err.value.line_no == 1
        assert str(err.value) == (
            f"line 1: bad score token: could not convert string to float: {token!r}")

    def test_duplicate_segment_rejected(self):
        text = "s 1 2 3 4\ns 1 2 3 4\n"
        with pytest.raises(DuplicateSegment):
            sub.parse_scores(text, FOUR_LANGS)


class TestWriteScores:
    def test_sample_round_trip_is_token_identical(self):
        text = "seg_1 0.5 -0.2 -0.3 0.1\n"
        table = sub.parse_scores(text, FOUR_LANGS)
        assert sub.write_scores(table) == text

    def test_empty_list_empty_stream(self):
        assert sub.write_scores(sub.ScoreTable.of([])) == ""

    def test_minus_inf_token(self):
        line = sub.write_scores(sub.ScoreTable(["s"], [[-np.inf, 1.0, 2.0, 3.0]]))
        assert line.split()[1] == "-inf"

    def test_nan_score_refused_with_segment_id(self):
        table = sub.ScoreTable(["s0", "s1"], [[0.1, 0.2], [0.5, np.nan]])
        with pytest.raises(NaNScore, match="s1"):
            sub.write_scores(table)

    def test_parse_write_parse_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n_lang = int(rng.integers(1, 8))
            langs = [f"g{i}" for i in range(n_lang)]
            records = [
                sub.ScoreRecord(f"u{i}", rng.normal(size=n_lang) * 10.0 ** rng.integers(-6, 6))
                for i in range(int(rng.integers(0, 30)))
            ]
            text = sub.write_scores(sub.ScoreTable.of(records))
            once = sub.write_scores(sub.parse_scores(text, langs))
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

    def test_header_language_starting_with_hash_refused_at_the_header(self):
        with pytest.raises(MalformedLine) as err:
            sub.parse_key("# stamp\nA #x\ns1 A\n")
        assert str(err.value) == "line 2: header language '#x' starts with '#'"

    def test_reserved_marker_cannot_name_language(self):
        with pytest.raises(MalformedLine):
            sub.parse_key("A OOS\n")

    def test_key_round_trip(self):
        key = sub.TrialKey(["A", "B"], {"s1": "A", "s2": sub.OUT_OF_SET})
        again = sub.parse_key(sub.write_key(key))
        assert again == key


class TestScoreTable:
    @pytest.mark.parametrize("ids, values", [
        (["s1"], [[0.1, 0.2], [0.3, 0.4]]),  # more rows than ids
        (["s1", "s2"], [[0.1, 0.2], [0.3]]),  # ragged
        (["s1", "s2"], [0.1, 0.2]),  # not a matrix
    ])
    def test_constructor_refuses_a_table_that_is_not_one_row_per_id(self, ids, values):
        with pytest.raises(InconsistentLanguageSet):
            sub.ScoreTable(ids, values)

    def test_of_records_keeps_their_order_and_bits(self):
        records = [sub.ScoreRecord("s2", [-0.0, np.inf]), sub.ScoreRecord("s1", [1e-310, 2.0])]
        table = sub.ScoreTable.of(records)
        assert table.ids == ["s2", "s1"] and len(table) == 2
        assert table.values.tobytes() == np.array([[-0.0, np.inf], [1e-310, 2.0]]).tobytes()
        assert sub.ScoreTable.of(table) is table


class TestFillMissing:
    def _key(self):
        return sub.TrialKey(["A", "B"], {"s1": "A", "s2": "B"})

    def test_missing_segment_filled_with_neg_inf(self):
        table = sub.ScoreTable(["s1"], [[0.1, 0.2]])
        result = sub.fill_missing(table, self._key())
        assert result.table.ids == ["s1", "s2"]
        assert np.all(result.table.values[1] == -np.inf)
        assert result.added_ids == ["s2"]

    def test_exact_match_is_identity(self):
        table = sub.ScoreTable(["s1", "s2"], [[0.1, 0.2], [0.3, 0.4]])
        result = sub.fill_missing(table, self._key())
        assert result.table.ids == table.ids
        assert result.table.values.tobytes() == table.values.tobytes()
        assert result.num_filled == 0 and not result.dropped_ids

    def test_extra_segment_dropped_with_warning_count(self):
        table = sub.ScoreTable(["s1", "s2", "s3"], [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        result = sub.fill_missing(table, self._key())
        assert result.dropped_ids == ["s3"]
        assert len(result.table) == 2

    def test_output_cardinality_always_matches_key(self):
        rng = np.random.default_rng(9)
        langs = ["A", "B", "C"]
        key = sub.TrialKey(langs, {f"k{i}": langs[i % 3] for i in range(20)})
        for _ in range(20):
            ids = [f"k{i}" for i in rng.choice(40, size=rng.integers(0, 30), replace=False)]
            table = sub.ScoreTable(ids, rng.normal(size=(len(ids), 3)))
            result = sub.fill_missing(table, key)
            assert len(result.table) == len(key.entries)
            assert set(result.table.ids) == set(key.entries)


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


# ---------------------------------------------------------------------------
# the block readers and writers against the line-by-line oracles

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)
# every float64 but NaN: -0.0, subnormals, 1e308 and +/-inf included
FLOAT64 = st.floats(allow_nan=False)
IDS = ["s1", "s2", "7", "1_0", "#x", "٣"] + [f"u{i}" for i in range(20)]
# tokens the token rule accepts, then tokens it refuses or reads as NaN
SCORES = (["0.5", "-1", "-0", "inf", "-inf", "5e-324"],
          ["nan", "-NaN", "zap", "0x1p3", "#", "1_0", "+inf", "Infinity", "INF", "1e400", "٣"])
KEY_HEADERS = ["A B C\n", "A B\r\n", "# stamp\n\nA  B\tC\n", "A A\n", "A OOS\n", "A #x\n", ""]
LANGUAGES = (["A", "B", "C", "OOS"], ["D", "s1"])
# spaces and line endings, then odd ones: \x0b and \x85 end a line as
# well, \x1f and \xa0 are whitespace to str.split but end no line
SPACES = ([" ", "\t", "  "], [" \t\x0b", "\x1f", "\xa0"])
ENDINGS = (["\n", "\r\n"], ["\r", "\x85", "\x0b", ""])


@st.composite
def texts(draw, tokens, width, headers=("",)):
    """Line-oriented text after one of ``headers``: blank lines, comments
    and data lines of an id and ``width`` tokens. A text drawn ragged has
    other token counts too, one drawn dirty the second kind of ``tokens``
    and one drawn odd the second kind of spaces and line endings."""
    ragged, dirty, odd = (draw(st.sampled_from([False, False, True])) for _ in range(3))

    def pick(kinds, other):
        return draw(st.sampled_from(kinds[0] + kinds[1] if other else kinds[0]))

    lines = [draw(st.sampled_from(headers))]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(6 * ["data"] + ["blank", "comment"]))
        if kind == "blank":
            body = draw(st.sampled_from(["", " ", "\t"]))
        elif kind == "comment":
            body = draw(st.sampled_from(["# stamp seed=1", "  #x 1 2"]))
        else:
            count = draw(st.integers(0, width + 2)) if ragged else width
            row = [draw(st.sampled_from(IDS))]
            row += [pick(tokens, dirty) for _ in range(count)]
            body = pick(SPACES, odd).join(row) + draw(st.sampled_from(["", " "]))
        lines.append(draw(st.sampled_from(["", " "])) + body + pick(ENDINGS, odd))
    return "".join(lines)


def outcome(parse, *args):
    """What a parser made of its input: its result in a comparable form,
    or the LineError it raised. Any other exception escapes."""
    try:
        result = parse(*args)
    except LineError as err:
        return type(err), err.line_no, str(err)
    if isinstance(result, sub.TrialKey):
        return result.language_list, list(result.entries.items())
    table = sub.ScoreTable.of(result)
    return table.ids, [(row.shape, row.tobytes()) for row in table.values]


def bits_records(rng, count, width):
    """Records whose scores are random float64 bit patterns, NaN replaced."""
    bits = rng.integers(0, 2**64 - 1, size=(count, width), dtype=np.uint64, endpoint=True)
    values = bits.view(np.float64)
    values[np.isnan(values)] = -0.0
    return [sub.ScoreRecord(f"u{i:05d}", row) for i, row in enumerate(values)]


# (id, scores) rows: any ids and score counts, zero included; or one count
RAGGED_ROWS = st.lists(
    st.tuples(st.text(min_size=1, max_size=6), st.lists(FLOAT64, max_size=4)), max_size=12
)
UNIFORM_ROWS = st.integers(0, 4).flatmap(lambda width: st.lists(
    st.tuples(st.sampled_from(IDS), st.lists(FLOAT64, min_size=width, max_size=width)),
    max_size=12,
))
# a table with any id text: repeated, empty, with whitespace or a leading #
TABLES = st.integers(1, 4).flatmap(lambda width: st.lists(
    st.tuples(st.sampled_from(IDS) | st.text(max_size=6),
              st.lists(FLOAT64, min_size=width, max_size=width)),
    max_size=12,
).map(lambda rows: sub.ScoreTable([seg for seg, _ in rows],
                                  np.reshape([values for _, values in rows], (-1, width)))))


# key tokens the id rule accepts, then any text: empty, with whitespace or
# a line break, a leading #, or OOS
KEY_TOKENS = st.sampled_from(["A", "B", "C", "s1", "s2", "7"]) | st.sampled_from(
    ["", "#x", "a b", "x\x85", sub.OUT_OF_SET]) | st.text(max_size=4)


@st.composite
def keys(draw):
    """A key of any language and id text, its entry languages mostly from
    its header (repeats and OOS included)."""
    languages = draw(st.lists(KEY_TOKENS, max_size=4))
    entry_language = st.sampled_from(languages + [sub.OUT_OF_SET]) | KEY_TOKENS
    return sub.TrialKey(languages, draw(st.dictionaries(KEY_TOKENS, entry_language, max_size=6)))


class TestBlockParsers:
    @PROPERTY
    @given(st.one_of(texts(SCORES, len(FOUR_LANGS)), st.text(max_size=60)))
    def test_scores_as_the_line_parser_reads_them(self, text):
        got = outcome(sub.parse_scores, text, FOUR_LANGS)
        assert got == outcome(oracles.parse_scores_by_line, text, FOUR_LANGS)

    @PROPERTY
    @given(st.one_of(texts(LANGUAGES, 1, KEY_HEADERS), st.text(max_size=60)))
    def test_key_as_the_line_parser_reads_it(self, text):
        assert outcome(sub.parse_key, text) == outcome(oracles.parse_key_by_line, text)

    @pytest.mark.parametrize("bad, error", [
        ("u00003 1 2 3 4", DuplicateSegment),
        ("v 1 2 nan 4", NaNScore),
        ("v 1 2 3", ArityMismatch),
        ("v 1 2 zap 4", MalformedLine),
    ])
    def test_defect_in_a_late_block_found_at_its_line(self, bad, error):
        lines = [f"u{i:05d} {i} -inf {i / 7:.9g} 1e-300" for i in range(2 * sub.BLOCK_ROWS + 5)]
        text = "# stamp\n" + "\n".join(lines) + "\n"
        assert outcome(sub.parse_scores, text, FOUR_LANGS) == outcome(
            oracles.parse_scores_by_line, text, FOUR_LANGS)
        lines[-2] = bad
        text = "# stamp\n" + "\n".join(lines) + "\n"
        with pytest.raises(error) as err:
            sub.parse_scores(text, FOUR_LANGS)
        assert err.value.line_no == len(lines)  # lines[-2] follows the stamp line
        assert outcome(sub.parse_scores, text, FOUR_LANGS) == outcome(
            oracles.parse_scores_by_line, text, FOUR_LANGS)

    # {row: line} edits of a three-block file, the refused row, its error
    @pytest.mark.parametrize("edits, row, error", [
        ({10: "u00003 1 2 3 4", 20: "v 1 zap 3 4"}, 10, DuplicateSegment),
        ({20: "v 1 zap 3 4", 30: "u00003 1 2 3 4"}, 20, MalformedLine),
        ({sub.BLOCK_ROWS + 10: "v 1 nan 3 4", 2 * sub.BLOCK_ROWS + 2: "w 1 2 3"},
         sub.BLOCK_ROWS + 10, NaNScore),
        ({sub.BLOCK_ROWS + 10: "u00003 1 2 nan 4"}, sub.BLOCK_ROWS + 10, NaNScore),
        ({2 * sub.BLOCK_ROWS: "u00003 1 2 3 4", 2 * sub.BLOCK_ROWS + 1: "w 1 2 3"},
         2 * sub.BLOCK_ROWS, DuplicateSegment),
        ({sub.BLOCK_ROWS - 2: "v 1 2 3", sub.BLOCK_ROWS - 1: "u00003 1 2 3 4"},
         sub.BLOCK_ROWS - 2, ArityMismatch),
        ({5: "v 1_0 nan 3 4", 6: "w 1 2 3"}, 5, MalformedLine),
    ])
    def test_first_of_two_defects_found_at_its_line(self, edits, row, error):
        lines = [f"u{i:05d} {i} -inf {i / 7:.9g} 1e-300" for i in range(2 * sub.BLOCK_ROWS + 5)]
        for i, line in edits.items():
            lines[i] = line
        text = "# stamp\n" + "\n".join(lines) + "\n"
        with pytest.raises(error) as err:
            sub.parse_scores(text, FOUR_LANGS)
        assert err.value.line_no == row + 2
        assert outcome(sub.parse_scores, text, FOUR_LANGS) == outcome(
            oracles.parse_scores_by_line, text, FOUR_LANGS)

    @pytest.mark.parametrize("edits, row, error", [
        ({10: "v Z", 20: "u00003 A"}, 10, UnknownLanguage),
        ({10: "u00003 A", 20: "v Z"}, 10, DuplicateSegment),
        ({10: "u00003 Z"}, 10, UnknownLanguage),
        ({10: "v Z", 11: "w A B"}, 10, UnknownLanguage),
        ({10: "w A B", 11: "v Z"}, 10, MalformedLine),
    ])
    def test_first_of_two_key_defects_found_at_its_line(self, edits, row, error):
        lines = [f"u{i:05d} {'ABC'[i % 3]}" for i in range(2 * sub.BLOCK_ROWS + 5)]
        for i, line in edits.items():
            lines[i] = line
        text = "# stamp\nA B C\n" + "\n".join(lines) + "\n"
        with pytest.raises(error) as err:
            sub.parse_key(text)
        assert err.value.line_no == row + 3
        assert outcome(sub.parse_key, text) == outcome(oracles.parse_key_by_line, text)


class TestBlockWriter:
    @PROPERTY
    @given(st.one_of(RAGGED_ROWS, UNIFORM_ROWS))
    def test_bytes_equal_a_format_per_score(self, rows):
        records = [sub.ScoreRecord(seg, np.array(values, dtype=np.float64))
                   for seg, values in rows]
        if len({rec.scores.shape for rec in records}) > 1:
            with pytest.raises(InconsistentLanguageSet):  # a ragged table
                sub.ScoreTable.of(records)
            return
        table = sub.ScoreTable.of(records)
        try:
            text = sub.write_scores(table)
        except (DuplicateSegment, MalformedLine):  # see the round-trip test below
            return
        assert text == oracles.write_scores_by_record(records)

    @PROPERTY
    @given(TABLES)
    def test_written_table_reads_back_to_the_same_text(self, table):
        # the writer refuses a table exactly when the reader would not give
        # back the ids of its text written row by row
        languages = [f"g{i}" for i in range(table.values.shape[1])]
        records = [sub.ScoreRecord(seg, row) for seg, row in zip(table.ids, table.values)]
        naive = outcome(sub.parse_scores, oracles.write_scores_by_record(records), languages)
        try:
            text = sub.write_scores(table)
        except (DuplicateSegment, MalformedLine) as err:
            assert naive[0] != table.ids
            assert any(repr(seg) in str(err) for seg in table.ids)
            return
        back = sub.parse_scores(text, languages)
        assert back.ids == table.ids
        rounded = [float(sub.SCORE_FORMAT % v) for v in table.values.ravel().tolist()]
        assert back.values.tobytes() == np.array(rounded).tobytes()
        assert sub.write_scores(back) == text

    def test_random_bits_across_blocks(self):
        records = bits_records(np.random.default_rng(4), 2 * sub.BLOCK_ROWS + 3, 10)
        records[1].scores[:2] = np.inf, -np.inf
        text = sub.write_scores(sub.ScoreTable.of(records))
        assert text == oracles.write_scores_by_record(records)
        # every token the writer emits is one the reader takes
        assert sub.write_scores(sub.parse_scores(text, [f"g{i}" for i in range(10)])) == text

    def test_nan_in_a_late_record_named(self):
        records = bits_records(np.random.default_rng(6), 10_000, 10)
        records[9_000].scores[4] = np.nan
        records[9_500].scores[0] = np.nan
        with pytest.raises(NaNScore) as err:
            sub.write_scores(sub.ScoreTable.of(records))
        assert str(err.value) == "segment 'u09000' has a NaN score"
        with pytest.raises(NaNScore) as want:
            oracles.write_scores_by_record(records)
        assert str(err.value) == str(want.value)


class TestKeyWriter:
    @PROPERTY
    @given(keys())
    @example(sub.TrialKey(["A", "#x"], {}))  # a later header language starting with "#"
    @example(sub.TrialKey(["a", "b"], {"s": "a", "s ": "b"}))  # two ids that split to one
    def test_written_key_reads_back_to_the_same_key(self, key):
        # the writer refuses a key exactly when the reader would not give
        # back the key from its text written line by line
        naive = "".join(f"{line}\n" for line in [" ".join(key.language_list)]
                        + [f"{seg} {lang}" for seg, lang in key.entries.items()])
        fields = (key.language_list, list(key.entries.items()))
        try:
            text = sub.write_key(key)
        except LineError as err:
            assert outcome(sub.parse_key, naive) != fields
            named = [repr(key.language_list), *map(repr, key.entries)]
            assert any(name in str(err) for name in named)
            return
        assert text == naive
        assert outcome(sub.parse_key, text) == fields
        assert sub.write_key(sub.parse_key(text)) == text

    @pytest.mark.parametrize("languages, entries, error, named", [
        (["#x", "b"], {"s": "b"}, MalformedLine, "'#x'"),  # the header reads as a comment
        (["a", "b"], {"#s": "a"}, MalformedLine, "'#s'"),  # the entry reads as a comment
        (["a b"], {"s": "a b"}, MalformedLine, "'a b'"),  # two languages
        (["a", sub.OUT_OF_SET], {}, MalformedLine, "'OOS'"),
        (["a", "a"], {}, MalformedLine, "['a', 'a']"),
        ([], {"s": "a"}, MalformedLine, "[]"),
        (["a", "b"], {"s": "c"}, UnknownLanguage, "'c'"),
    ])
    def test_refused_key_names_its_field(self, languages, entries, error, named):
        with pytest.raises(error) as err:
            sub.write_key(sub.TrialKey(languages, entries))
        assert named in str(err.value)

    def test_ids_that_split_to_one_are_refused_as_the_reader_refuses_them(self):
        # "s " reads back as "s", so the key file would name s twice
        key = sub.TrialKey(["a", "b"], {"s": "a", "s ": "b"})
        with pytest.raises(DuplicateSegment) as err:
            sub.write_key(key)
        assert err.value.line_no is None
        assert str(err.value) == f"{key!r} would not read back: line 3: segment 's' appears twice"
