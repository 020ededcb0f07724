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
refuse a zero-norm centroid, which ``cosine_similarity`` cannot score.
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


def _zero_norm(v: np.ndarray) -> bool:
    """The degenerate input of ``cosine_similarity``: a 2-norm of 0.0, which
    a nonzero vector whose squares all underflow has too."""
    with np.errstate(over="ignore"):  # a norm that overflows is inf, not zero
        return float(np.linalg.norm(v)) == 0.0


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; raises ZeroNormVector on degenerate input."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if _zero_norm(a) or _zero_norm(b):
        raise ZeroNormVector("cannot take cosine of a zero-norm vector")
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def enroll_languages(params: net.NetworkParams, references: dict[str, list]) -> LanguageModelSet:
    """Average each language's reference-utterance embeddings into a centroid.

    A reference too short for the network raises ``TooFewFrames``
    (``harness.enroll_entries`` skips those first), a language with no
    reference at all is an error, and so is one whose references average
    to a zero-norm centroid (``ZeroNormVector``).
    """
    centroids = []
    for language, feature_list in references.items():
        if not feature_list:
            raise NoUsableReferences(f"no usable reference utterances for {language!r}")
        vectors = [net.extract_xvector(params, features).values for features in feature_list]
        centroids.append(np.mean(vectors, axis=0))
        if _zero_norm(centroids[-1]):
            raise ZeroNormVector(f"references of {language!r} average to a zero-norm centroid")
    return LanguageModelSet(list(references), np.array(centroids),
                            [len(feature_list) for feature_list in references.values()])


def score_zero_resource(
    models: LanguageModelSet, features, params: net.NetworkParams
) -> np.ndarray:
    """Cosine similarity of the segment's embedding against each centroid.
    A zero-norm embedding or centroid raises ZeroNormVector."""
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
    return read_back("\n".join(lines) + "\n", parse_models, lambda m: (
        m.language_ids, m.num_reference_utts, m.centroids.shape, m.centroids.tobytes()), models)


def parse_models(text: str) -> LanguageModelSet:
    """Parse ``write_models`` output. Raises MalformedLine with the line
    number for a short line, a count that is not ASCII digits or is 0, a
    value that breaks the score-token rule (``submission.bad_token``), a
    non-finite value, a zero-norm centroid (which ``cosine_similarity``
    refuses), a centroid whose dimension differs from the first one, or a
    language enrolled on an earlier line, and without one for a text
    holding no model line."""
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
        if _zero_norm(vec):
            raise MalformedLine(f"zero-norm centroid for {tokens[0]!r}", line_no)
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
