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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import net
from .errors import MalformedLine, NoUsableReferences, ZeroNormVector, data_lines
from .submission import bad_id, bad_token

log = logging.getLogger(__name__)


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


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; raises ZeroNormVector on degenerate input."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ZeroNormVector("cannot take cosine of a zero-norm vector")
    return float(np.dot(a, b) / (na * nb))


def enroll_languages(
    params: net.NetworkParams, references: dict[str, list]
) -> LanguageModelSet:
    """Average each language's reference-utterance embeddings into a centroid.

    A reference too short for the network raises ``TooFewFrames``
    (``harness.enroll_entries`` skips those first), and a language with no
    reference at all is an error.
    """
    language_ids = []
    centroids = []
    counts = []
    for language, feature_list in references.items():
        vectors = [net.extract_xvector(params, features).values for features in feature_list]
        if not vectors:
            raise NoUsableReferences(f"no usable reference utterances for {language!r}")
        language_ids.append(language)
        centroids.append(np.mean(vectors, axis=0))
        counts.append(len(vectors))
    return LanguageModelSet(language_ids, np.array(centroids), counts)


def score_zero_resource(
    models: LanguageModelSet, features, params: net.NetworkParams
) -> np.ndarray:
    """Cosine similarity of the segment's embedding against each centroid.

    Zero-norm centroids (or a zero-norm test embedding) produce -inf in the
    affected columns with a diagnostic, never an exception.
    """
    xvec = net.extract_xvector(params, features).values
    scores = np.full(len(models.language_ids), -np.inf)
    for i, language in enumerate(models.language_ids):
        try:
            scores[i] = cosine_similarity(xvec, models.centroids[i])
        except ZeroNormVector as exc:
            log.warning("zero-resource scoring %s: %s; emitting -inf", language, exc)
    return scores


# ---------------------------------------------------------------------------
# model-set serialization (text, one language per line)

def write_models(models: LanguageModelSet) -> str:
    """Enrolled-models text. Refuses with MalformedLine, naming the field, a
    set ``parse_models`` would not give back: no language, one repeated or
    breaking the id rule (``submission.bad_id``), a count that is not a
    non-negative integer, or a centroid that is empty or not finite."""
    ids, counts = models.language_ids, models.num_reference_utts
    if not ids or len(set(ids)) != len(ids) or any(map(bad_id, ids)):
        raise MalformedLine(f"language list {ids!r} is empty, repeats a language "
                            "or holds one that breaks the id rule")
    if len(counts) != len(ids) or not all(str(c).isascii() and str(c).isdigit() for c in counts):
        raise MalformedLine(f"counts {counts!r} are not one non-negative integer per language")
    lines = []
    for language, count, centroid in zip(ids, counts, models.centroids):
        if np.ndim(centroid) != 1 or not np.size(centroid) or not np.isfinite(centroid).all():
            raise MalformedLine(f"centroid of {language!r} is empty or not finite")
        lines.append(" ".join([language, str(count), *(f"{v:.17g}" for v in centroid)]))
    return "\n".join(lines) + "\n"


def parse_models(text: str) -> LanguageModelSet:
    """Parse ``write_models`` output. Raises MalformedLine with the line
    number for a short line, a count that is not ASCII digits, a value
    that breaks the score-token rule (``submission.bad_token``), a
    non-finite value, a centroid whose dimension differs from the first
    one, or a language enrolled on an earlier line, and without one for a
    text holding no model line."""
    language_ids = []
    centroids = []
    counts = []
    for line_no, line in data_lines(text):
        tokens = line.split()
        if len(tokens) < 3:
            raise MalformedLine("expected 'language count value...'", line_no)
        count_ok = tokens[1].isascii() and tokens[1].isdigit()
        bad = tokens[1] if not count_ok else next(filter(bad_token, tokens[2:]), None)
        if bad is not None:
            raise MalformedLine(f"bad count or value: {bad!r}", line_no)
        count = int(tokens[1])
        vec = np.array([float(t) for t in tokens[2:]])
        if not np.all(np.isfinite(vec)):
            raise MalformedLine(f"non-finite centroid value for {tokens[0]!r}", line_no)
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
