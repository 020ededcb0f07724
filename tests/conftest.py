import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from lidkit import dsp, harness, net
from lidkit import submission as sub

# parser totality: a parser's only outcomes are a result or a LidkitError
TOTALITY = settings(derandomize=True, max_examples=150, deadline=None, database=None)


def token_texts(tokens):
    """Arbitrary text, or up to 6 lines of up to 6 of ``tokens`` each."""
    line = st.lists(st.sampled_from(tokens), max_size=6).map(" ".join)
    return st.one_of(st.text(max_size=80), st.lists(line, max_size=6).map("\n".join))


def make_random_scorefile(rng, n_segments, languages, oos_fraction=0.0, tie_grid=None):
    """Random records + key; optional ties (grid-snapped scores) and out-of-set
    segments, plus an occasional -inf to exercise the lost-trial convention."""
    n = len(languages)
    entries = {}
    records = []
    for i in range(n_segments):
        seg = f"seg{i:05d}"
        if oos_fraction and rng.random() < oos_fraction:
            entries[seg] = sub.OUT_OF_SET
        else:
            entries[seg] = languages[int(rng.integers(n))]
        scores = rng.normal(size=n)
        if tie_grid:
            scores = np.round(scores * tie_grid) / tie_grid
        if rng.random() < 0.02:
            scores[int(rng.integers(n))] = -np.inf
        records.append(sub.ScoreRecord(seg, scores))
    key = sub.TrialKey(list(languages), entries)
    # every language needs at least one segment for cost denominators
    for j, lang in enumerate(languages):
        if not any(v == lang for v in entries.values()):
            seg = f"pad{j}"
            entries[seg] = lang
            records.append(sub.ScoreRecord(seg, rng.normal(size=n)))
    return records, key


@pytest.fixture
def score_factory():
    return make_random_scorefile


def corpus_and_model(root, seed, damage):
    """A small corpus under ``root`` with ``damage(corpus_dir)`` applied,
    plus the path of a model trained on its training split."""
    corpus = root / "corpus"
    train_langs = ["alpha", "bravo", "charlie"]
    counts = {
        "train": {lang: 8 for lang in train_langs},
        "test": {lang: 4 for lang in train_langs},
        "reference": {"delta": 3, "echo": 3},
        "zr_test": {"delta": 4, "echo": 4},
    }
    specs = harness.default_training_specs() + harness.default_zero_resource_specs()
    entries = harness.generate_corpus(specs, counts, seed=seed, out_dir=corpus)
    damage(corpus)
    train = [e for e in entries if e.split == "train"]
    params = harness.train_network(corpus, train, train_langs, {"train.epochs": "2"}, seed=seed)
    model = root / "model.bin"
    model.write_bytes(net.save_params(params))
    return corpus, model


# one segment per test split whose WAV is cut to 20 bytes (header only)
TRUNCATED = {"test": "bravo-test-0001", "zr_test": "echo-zr_test-0002"}


@pytest.fixture(scope="session")
def damaged_corpus(tmp_path_factory):
    """A small corpus with one unreadable WAV in each test split, plus the
    path of a model trained on its (intact) training split."""
    def truncate(corpus):
        for utt_id in TRUNCATED.values():
            wav = corpus / "wav" / f"{utt_id}.wav"
            wav.write_bytes(wav.read_bytes()[:20])
    return corpus_and_model(tmp_path_factory.mktemp("damaged"), 8, truncate)


# one segment per split cut to its central 0.1 s: 8 frames before VAD,
# under the 15 the network needs at the default contexts
SHORT = {"train": "alpha-train-0001", "test": "alpha-test-0001",
         "reference": "delta-reference-0001", "zr_test": "delta-zr_test-0001"}


@pytest.fixture(scope="session")
def short_corpus(tmp_path_factory):
    """A small corpus with one too-short WAV in each split, plus the path
    of a model trained on its training split (which skips the short one)."""
    def shorten(corpus):
        for utt_id in SHORT.values():
            path = corpus / "wav" / f"{utt_id}.wav"
            samples = dsp.read_wav(path)
            mid = samples.size // 2
            dsp.write_wav(path, samples[mid - 800 : mid + 800])
    return corpus_and_model(tmp_path_factory.mktemp("short"), 9, shorten)
