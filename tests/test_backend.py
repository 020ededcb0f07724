import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import TOTALITY, token_texts
from lidkit import backend, harness, net
from lidkit.errors import (
    DimMismatch, InconsistentLanguageSet, LineError, MalformedLine, NoUsableReferences, TooFewFrames,
    ZeroNormVector, data_lines,
)

LABELS = [f"l{i}" for i in range(7)]  # the label order of seven_class_net


def seven_class_net(seed=2):
    return net.init_network(7, seed=seed, feat_dim=4, frame_dim=8, stats_dim=12, embed_dim=8)


def feats(rng, t=24):
    return rng.standard_normal((t, 4))


def silent_embedding_net():
    """``seven_class_net`` with all-zero ``segment6`` weights (and, from
    init, bias): every x-vector it extracts is the zero vector."""
    params = seven_class_net()
    params.weights[net.EMBED_LAYER][:] = 0.0
    assert not params.biases[net.EMBED_LAYER].any()
    return params


class TestClosedSet:
    def test_full_scores_exponentiate_to_one(self):
        rng = np.random.default_rng(1)
        params = seven_class_net()
        scores = backend.score_closed_set(params, feats(rng))
        assert scores.shape == (7,)
        assert np.exp(scores).sum() == pytest.approx(1.0, abs=1e-9)

    def test_subset_of_six_projects_exactly(self):
        rng = np.random.default_rng(2)
        params = seven_class_net()
        f = feats(rng)
        full = backend.score_closed_set(params, f)
        subset = [5, 0, 2, 6, 3, 1]
        partial = harness.closed_set_scorer(params, LABELS, [LABELS[i] for i in subset])(f)
        assert partial.shape == (6,)
        assert np.array_equal(partial, full[subset])

    def test_too_few_frames_raises(self):
        # harness.iter_features skips such a segment before it gets here
        rng = np.random.default_rng(3)
        with pytest.raises(TooFewFrames):
            backend.score_closed_set(seven_class_net(), feats(rng, t=5))

    def test_bad_subset_rejected(self):
        # l7 has no column in a seven-class model
        with pytest.raises(InconsistentLanguageSet):
            harness.closed_set_scorer(seven_class_net(), LABELS, ["l0", "l7"])

    def test_repeated_label_rejected(self):
        # two labels for one class would leave another class unnamed
        with pytest.raises(InconsistentLanguageSet, match="label the 3-class model"):
            harness.closed_set_classes(3, ["alpha", "alpha", "charlie"], ["alpha", "charlie"])
        labels = LABELS[:6] + ["l0"]
        with pytest.raises(InconsistentLanguageSet):
            harness.closed_set_scorer(seven_class_net(), labels, ["l0", "l1"])


class TestCosine:
    def test_identical_vector_scores_one(self):
        v = np.array([1.0, -2.0, 3.0])
        assert backend.cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_scores_zero(self):
        assert backend.cosine_similarity([1.0, 0.0], [0.0, 2.0]) == 0.0

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = rng.standard_normal(8), rng.standard_normal(8)
            s = backend.cosine_similarity(a, b)
            assert s == backend.cosine_similarity(b, a)
            assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        base = backend.cosine_similarity(a, b)
        for c in (0.5, 3.0, 1e6):
            assert backend.cosine_similarity(c * a, b) == pytest.approx(base, abs=1e-12)

    def test_zero_norm_raises(self):
        with pytest.raises(ZeroNormVector):
            backend.cosine_similarity(np.zeros(4), np.ones(4))

    @pytest.mark.parametrize("a, b", [
        ([1e200, 1e200], [1.0, 0.0]),  # a norm overflows: dividing by it would give 0
        ([1e154, 0.0], [1e155, 0.0]),  # each norm is finite, their product is not
    ])
    def test_norm_that_cannot_divide_gives_nan(self, a, b):
        assert np.isnan(backend.cosine_similarity(a, b))


class TestEnrollment:
    def test_single_reference_centroid_equals_its_xvector(self):
        rng = np.random.default_rng(7)
        params = seven_class_net()
        f = feats(rng)
        models = backend.enroll_languages(params, {"lang": [f]})
        assert np.array_equal(models.centroids[0], net.extract_xvector(params, f).values)
        assert models.num_reference_utts == [1]

    def test_ten_references_match_direct_mean(self):
        rng = np.random.default_rng(8)
        params = seven_class_net()
        refs = {"a": [feats(rng) for _ in range(10)], "b": [feats(rng) for _ in range(10)]}
        models = backend.enroll_languages(params, refs)
        for row, lang in zip(models.centroids, models.language_ids):
            direct = np.mean(
                [net.extract_xvector(params, f).values for f in refs[lang]], axis=0
            )
            np.testing.assert_allclose(row, direct, atol=1e-12)

    def test_too_short_reference_raises(self):
        # harness.enroll_entries skips such a reference before it gets here
        rng = np.random.default_rng(9)
        with pytest.raises(TooFewFrames):
            backend.enroll_languages(seven_class_net(), {"lang": [feats(rng, t=3), feats(rng)]})

    def test_no_usable_references_raises(self):
        with pytest.raises(NoUsableReferences):
            backend.enroll_languages(seven_class_net(), {"lang": []})

    def test_references_averaging_to_zero_norm_are_refused(self):
        rng = np.random.default_rng(10)
        refs = {"x": [feats(rng)], "y": [feats(rng), feats(rng)]}
        with pytest.raises(ZeroNormVector, match="references of 'x' average to a zero-norm"):
            backend.enroll_languages(silent_embedding_net(), refs)

    def test_opposite_references_make_degenerate_centroid(self, monkeypatch):
        # the mean of v and -v is the zero vector, refused before it is scored
        rng = np.random.default_rng(14)
        params = seven_class_net()
        f, g = feats(rng), feats(rng)
        v = net.extract_xvector(params, f).values
        opposite = {id(f): v, id(g): -v}
        monkeypatch.setattr(net, "extract_xvector",
                            lambda params, features: net.XVector(opposite[id(features)]))
        assert backend.enroll_languages(params, {"x": [f]}).centroids.tolist() == [v.tolist()]
        with pytest.raises(ZeroNormVector, match="'y'"):
            backend.enroll_languages(params, {"x": [f], "y": [f, g]})

    @pytest.mark.parametrize("vectors", [
        [[np.nan, 1.0]], [[np.inf, 1.0]],
        [[1e308, 1e308]],  # finite, but its squares' sum overflows
        [[1.5e308, 1.0], [1.5e308, 1.0]],  # finite x-vectors whose sum overflows
    ], ids=["nan", "inf", "norm-overflows", "mean-overflows"])
    def test_centroid_with_no_finite_norm_is_refused(self, vectors):
        with pytest.raises(NoUsableReferences, match="^references of 'x' average to a "
                                                     "centroid with no finite norm$"):
            backend.enroll_xvectors({"y": [np.ones(2)], "x": [np.array(v) for v in vectors]})


class TestZeroResource:
    def _models(self, params, rng):
        refs = {"x": [feats(rng)], "y": [feats(rng)]}
        return backend.enroll_languages(params, refs)

    def test_test_vector_equal_to_centroid_scores_one(self):
        rng = np.random.default_rng(11)
        params = seven_class_net()
        f = feats(rng)
        models = backend.enroll_languages(params, {"x": [f], "y": [feats(rng)]})
        scores = backend.score_zero_resource(models, f, params)
        assert scores[0] == pytest.approx(1.0, abs=1e-12)

    def test_scores_bounded_and_ordered_like_cosine(self):
        rng = np.random.default_rng(12)
        params = seven_class_net()
        models = self._models(params, rng)
        scores = backend.score_zero_resource(models, feats(rng), params)
        assert np.all(scores >= -1.0) and np.all(scores <= 1.0)

    def test_zero_norm_centroid_raises(self):
        # enroll_languages and parse_models refuse one; built by hand, it is not scored
        rng = np.random.default_rng(13)
        params = seven_class_net()
        models = self._models(params, rng)
        models.centroids[1][:] = 0.0
        with pytest.raises(ZeroNormVector):
            backend.score_zero_resource(models, feats(rng), params)

    def test_zero_norm_test_embedding_raises(self):
        rng = np.random.default_rng(19)
        models = backend.LanguageModelSet(["x", "y"], rng.standard_normal((2, 8)), [1, 1])
        with pytest.raises(ZeroNormVector):
            backend.score_zero_resource(models, feats(rng), silent_embedding_net())

    def test_scorer_scores_only_the_languages_asked_for_in_their_order(self):
        rng = np.random.default_rng(16)
        params = seven_class_net()
        refs = {"x": [feats(rng)], "y": [feats(rng)], "z": [feats(rng)]}
        models = backend.enroll_languages(params, refs)
        models.centroids[1][:] = 0.0  # y, left out below, would raise ZeroNormVector
        f = feats(rng)
        scores = harness.zero_resource_scorer(params, models, ["z", "x"])(f)
        xvec = net.extract_xvector(params, f).values
        assert scores.tolist() == [backend.cosine_similarity(xvec, models.centroids[i])
                                   for i in (2, 0)]

    @pytest.mark.parametrize("languages, dim, error, message", [
        (["x", "w", "v"], 8, InconsistentLanguageSet, "key language(s) w, v not enrolled"),
        (["x"], 5, DimMismatch, "centroid dim 5 != model embedding dim 8"),
    ])
    def test_scorer_refuses_before_scoring(self, languages, dim, error, message):
        models = backend.LanguageModelSet(["x", "y"], np.ones((2, dim)), [1, 1])
        with pytest.raises(error) as err:
            harness.zero_resource_scorer(seven_class_net(), models, languages)
        assert str(err.value) == message

    def test_too_few_frames_raises(self):
        rng = np.random.default_rng(15)
        params = seven_class_net()
        models = self._models(params, rng)
        with pytest.raises(TooFewFrames):
            backend.score_zero_resource(models, feats(rng, t=4), params)

    def test_argmax_invariant_under_positive_scaling_of_xvectors(self):
        rng = np.random.default_rng(16)
        params = seven_class_net()
        models = self._models(params, rng)
        for _ in range(10):
            f = feats(rng)
            scores = backend.score_zero_resource(models, f, params)
            scaled = backend.LanguageModelSet(
                models.language_ids, models.centroids * 7.5, models.num_reference_utts
            )
            rescored = backend.score_zero_resource(scaled, f, params)
            assert np.argmax(scores) == np.argmax(rescored)


# model-set fields the reader takes, then, drawn dirty, ones it refuses or drops
CLEAN = {"language": st.sampled_from(["delta", "echo", "OOS", "é"]),
         "count": st.integers(1, 12), "value": st.floats(allow_nan=False, allow_infinity=False)}
DIRTY = {"language": CLEAN["language"] | st.sampled_from(["", "#x", "a b", "x\x85"])
         | st.text(max_size=3),
         "count": st.integers(-2, 12) | st.sampled_from([True, 2.0]), "value": st.floats()}


@st.composite
def model_sets(draw):
    """A model set the reader gives back, or, drawn dirty, one of any
    language text, centroid values (NaN, infinities and zero-norm rows
    included) and counts, sometimes one too few or too many."""
    dirty = draw(st.booleans())
    field = DIRTY if dirty else CLEAN
    languages = draw(st.lists(field["language"], min_size=not dirty, max_size=3,
                              unique=not dirty))
    n, dim = len(languages), draw(st.integers(not dirty, 3))
    row = st.lists(field["value"], min_size=dim, max_size=dim)
    rows = [draw(row if dirty else row.filter(nonzero_norm)) for _ in range(n)]
    counts = draw(st.lists(field["count"], min_size=max(n - dirty, 0), max_size=n + dirty))
    return backend.LanguageModelSet(languages, np.reshape(rows, (n, dim)), counts)


def nonzero_norm(row):
    """Whether ``row``'s 2-norm is not 0.0 (not all zero, nor so small its
    squares all underflow)."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(row) != 0.0


def models_by_line(models):
    """The text of ``models`` written line by line, unchecked."""
    return "".join(
        " ".join([language, str(count), *(f"{v:.17g}" for v in centroid)]) + "\n"
        for language, count, centroid in zip(
            models.language_ids, models.num_reference_utts, models.centroids)
    )


def model_fields(models):
    return models.language_ids, models.num_reference_utts, models.centroids.tobytes()


class TestModelSetSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(17)
        models = backend.LanguageModelSet(
            ["a", "b"], rng.standard_normal((2, 8)), [10, 9]
        )
        back = backend.parse_models(backend.write_models(models))
        assert back.language_ids == models.language_ids
        assert back.num_reference_utts == models.num_reference_utts
        assert np.array_equal(back.centroids, models.centroids)

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            backend.parse_models("lang 3\n")

    @pytest.mark.parametrize("bad_line, message", [
        ("echo 3", "expected 'language count value...'"),
        ("echo three 0.5 0.25", "bad count or value"),
        ("echo 3 0.5 half", "bad count or value"),
        ("delta \u0663 0.5 0.5", "bad count or value: '\u0663'"),  # an Arabic-Indic 3
        ("delta -3 0.5 0.5", "bad count or value: '-3'"),
        ("delta 3 1_0 0.5", "bad count or value: '1_0'"),
        ("delta 3 0.5 1e400", "bad count or value: '1e400'"),
        ("echo 3 nan 0.25", "non-finite"),
        ("echo 3 0.5 inf", "non-finite"),
        ("echo 3 0.5 0.25 0.125", "centroid dim 3 != 2"),
        ("delta 3 0.5 0.5", "language 'delta' enrolled twice"),
        ("echo 0 0.5 0.25", "bad count or value: '0'"),  # a centroid of no reference
        ("echo 000 0.5 0.25", "bad count or value: '000'"),
        ("echo 3 0 -0.0", "zero-norm centroid for 'echo'"),
        ("echo 3 1e-200 0", "zero-norm centroid for 'echo'"),  # its square underflows
        ("echo 3 1e308 1e308", "centroid norm overflows for 'echo'"),
        ("echo 3 -1e200 0", "centroid norm overflows for 'echo'"),  # its square overflows
    ])
    def test_bad_line_names_its_line(self, bad_line, message):
        text = f"# enrolled\ndelta 4 0.5 -0.5\n{bad_line}\n"
        with pytest.raises(MalformedLine, match=message) as err:
            backend.parse_models(text)
        assert err.value.line_no == 3

    @TOTALITY
    @given(model_sets())
    def test_written_models_read_back_to_the_same_text(self, models):
        # the writer refuses a set exactly when the reader would not give
        # back its fields from its text written line by line
        try:
            given_back = model_fields(backend.parse_models(models_by_line(models)))
        except MalformedLine:
            given_back = None
        try:
            text = backend.write_models(models)
        except MalformedLine as err:
            assert given_back != model_fields(models)
            named = [repr(models.language_ids), repr(models.num_reference_utts)]
            assert any(name in str(err) for name in named + list(map(repr, models.language_ids)))
            return
        assert given_back == model_fields(models)
        assert text == models_by_line(models)
        assert backend.write_models(backend.parse_models(text)) == text

    @pytest.mark.parametrize("languages, counts, centroids, named", [
        (["#x"], [1], [[0.5]], "['#x']"),  # reads as a comment
        (["a b"], [1], [[0.5]], "['a b']"),
        (["a", "a"], [1, 1], [[0.5], [0.5]], "['a', 'a']"),
        ([], [], np.empty((0, 1)), "[]"),
        (["a"], [-1], [[0.5]], "[-1]"),
        (["a", "b"], [1], [[0.5], [0.5]], "[1]"),  # b would vanish
        (["a"], [1], [[np.nan]], "'a'"),
        (["a"], [1], [[np.inf]], "'a'"),
        (["a"], [1], [[-np.inf]], "'a'"),
        (["a"], [1], np.empty((1, 0)), "'a'"),
    ])
    def test_refused_models_name_their_field(self, languages, counts, centroids, named):
        with pytest.raises(MalformedLine) as err:
            backend.write_models(backend.LanguageModelSet(languages, centroids, counts))
        assert named in str(err.value)

    def test_refusal_is_one_line_naming_the_writer_and_the_readers_error(self):
        # the repr of a set of several centroids runs over many lines
        models = backend.LanguageModelSet(["a b", "c"], np.full((2, 64), 0.5), [3, 3])
        with pytest.raises(MalformedLine) as err:
            backend.write_models(models)
        message = str(err.value)
        assert "\n" not in message and len(message) < 200
        assert message.startswith("write_models: LanguageModelSet(language_ids=['a b', 'c'], ")
        assert message.endswith("... would not read back: line 1: bad count or value: 'b'")

    @pytest.mark.parametrize("centroids", [[0.5, 0.25], np.full((2, 1, 2), 0.5)], ids=["1d", "3d"])
    def test_centroids_not_one_row_per_language_are_refused(self, centroids):
        # their values would read back as rows of another shape
        models = backend.LanguageModelSet(["a", "b"], centroids, [1, 1])
        with pytest.raises(MalformedLine, match="would not read back unchanged$"):
            backend.write_models(models)

    @TOTALITY
    @given(token_texts(["delta", "3", "0.5", "-1e3", "nan", "inf", "1_0", "٣", "x", "#"]))
    def test_any_text_gives_models_or_a_line_error(self, text):
        try:
            backend.parse_models(text)
        except LineError as err:  # only a text with no model line has no line
            assert err.line_no is not None or not list(data_lines(text))
