"""Task back-ends: closed-set posterior scoring and zero-resource scoring.

Closed-set tasks score each segment with the network's log posteriors
(``harness.closed_set_scorer`` picks a key's columns, without
renormalization).
The zero-resource task enrolls each unseen language as the mean of its
reference-utterance embeddings and scores test embeddings by cosine
similarity against the key's centroids (``harness.zero_resource_scorer``).

Segments that fail to load, or that keep too few frames for the network,
never reach a back-end: ``harness.iter_features`` skips them and
``submission.fill_missing`` fills them as lost trials. Given such a
segment directly, a back-end raises ``TooFewFrames`` from the network.
A back-end never writes ``-inf``: ``enroll_languages`` and ``parse_models``
refuse a centroid whose 2-norm is zero or overflows, which
``cosine_similarity`` cannot score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import net
from .errors import MalformedLine, NoUsableReferences, ZeroNormVector, data_lines, read_back
from .submission import bad_token


@dataclass
class LanguageModelSet:
    """Per-language centroid embeddings built from reference utterances."""

    language_ids: list[str]
    centroids: np.ndarray  # (num_languages, embed_dim)
    num_reference_utts: list[int]

    def __post_init__(self):
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        if self.centroids.shape[0] != len(self.language_ids):
            raise ValueError("one centroid per language required")


def score_closed_set(params: net.NetworkParams, features) -> np.ndarray:
    """Log posteriors for one segment over the training languages, in label order."""
    return net.forward(params, features).log_posteriors


def l2_norm(v: np.ndarray) -> float:
    """The 2-norm that ``cosine_similarity`` divides by: 0.0 for a nonzero
    vector whose squares all underflow too, and inf for a finite one whose
    squares' sum overflows."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(v))


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; raises ZeroNormVector on degenerate input,
    and is NaN when a norm, or the product of the two, is not finite."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    norm_a, norm_b = l2_norm(a), l2_norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroNormVector("cannot take cosine of a zero-norm vector")
    if not norm_a * norm_b < np.inf:  # NaN too; dividing by inf would give 0
        return np.nan
    return float(np.dot(a, b) / (norm_a * norm_b))


def enroll_languages(params: net.NetworkParams, references: dict[str, list]) -> LanguageModelSet:
    """``enroll_xvectors`` of each language's reference-utterance embeddings;
    a reference too short for the network raises ``TooFewFrames``."""
    return enroll_xvectors({language: [net.extract_xvector(params, f).values for f in features]
                            for language, features in references.items()})


def enroll_xvectors(xvectors: dict[str, list]) -> LanguageModelSet:
    """Average each language's reference x-vectors into a centroid. A language
    with no reference at all is an error, and so is one whose references
    average to a zero-norm centroid (``ZeroNormVector``), or to one that is
    not finite or whose norm overflows (``NoUsableReferences``)."""
    centroids = []
    for language, vectors in xvectors.items():
        if not vectors:
            raise NoUsableReferences(f"no usable reference utterances for {language!r}")
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            centroids.append(np.mean(vectors, axis=0))
        norm = l2_norm(centroids[-1])
        if norm == 0.0:
            raise ZeroNormVector(f"references of {language!r} average to a zero-norm centroid")
        if not norm < np.inf:  # also NaN, and inf for a value or for the norm alone
            raise NoUsableReferences(
                f"references of {language!r} average to a centroid with no finite norm")
    return LanguageModelSet(list(xvectors), np.array(centroids),
                            [len(vectors) for vectors in xvectors.values()])


def score_zero_resource(
    models: LanguageModelSet, features, params: net.NetworkParams
) -> np.ndarray:
    """Cosine similarity of the segment's embedding against each centroid.
    A zero-norm embedding or centroid raises ZeroNormVector; an embedding
    whose norm is not finite scores NaN, which ``harness.score_table`` refuses."""
    xvec = net.extract_xvector(params, features).values
    return np.array([cosine_similarity(xvec, centroid) for centroid in models.centroids])


# ---------------------------------------------------------------------------
# model-set serialization (text, one language per line)

def write_models(models: LanguageModelSet) -> str:
    """Enrolled-models text, refused through ``errors.read_back`` unless
    ``parse_models`` gives back its languages, counts, and centroids' shape
    and bytes."""
    lines = [" ".join([language, str(count), *(f"{v:.17g}" for v in np.ravel(centroid))])
             for language, count, centroid in
             zip(models.language_ids, models.num_reference_utts, models.centroids)]
    return read_back("write_models", "\n".join(lines) + "\n", parse_models, lambda m: (
        m.language_ids, m.num_reference_utts, m.centroids.shape, m.centroids.tobytes()), models)


def parse_models(text: str) -> LanguageModelSet:
    """Parse ``write_models`` output. Raises MalformedLine with the line
    number for a short line, a count that is not ASCII digits or is 0, a
    value that breaks the score-token rule (``submission.bad_token``), a
    non-finite value, a centroid whose 2-norm is zero or overflows (which
    ``cosine_similarity`` cannot score), a centroid whose dimension differs
    from the first one, or a language enrolled on an earlier line, and
    without one for a text holding no model line."""
    language_ids = []
    centroids = []
    counts = []
    for line_no, line in data_lines(text):
        tokens = line.split()
        if len(tokens) < 3:
            raise MalformedLine("expected 'language count value...'", line_no)
        count_ok = tokens[1].isascii() and tokens[1].isdigit() and int(tokens[1]) > 0
        bad = tokens[1] if not count_ok else next(filter(bad_token, tokens[2:]), None)
        if bad is not None:
            raise MalformedLine(f"bad count or value: {bad!r}", line_no)
        count = int(tokens[1])
        vec = np.array([float(t) for t in tokens[2:]])
        if not np.all(np.isfinite(vec)):
            raise MalformedLine(f"non-finite centroid value for {tokens[0]!r}", line_no)
        norm = l2_norm(vec)
        if norm == 0.0:
            raise MalformedLine(f"zero-norm centroid for {tokens[0]!r}", line_no)
        if norm == np.inf:
            raise MalformedLine(f"centroid norm overflows for {tokens[0]!r}", line_no)
        if centroids and vec.size != centroids[0].size:
            raise MalformedLine(
                f"centroid dim {vec.size} != {centroids[0].size} for {tokens[0]!r}", line_no
            )
        if tokens[0] in language_ids:
            raise MalformedLine(f"language {tokens[0]!r} enrolled twice", line_no)
        language_ids.append(tokens[0])
        counts.append(count)
        centroids.append(vec)
    if not language_ids:
        raise MalformedLine("no enrolled languages found")
    return LanguageModelSet(language_ids, np.array(centroids), counts)
