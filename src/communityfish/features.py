"""Document-feature count matrices: community features and unigram features."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat

import numpy as np

from .corpus import Corpus
from .graph import Partition


class MatrixError(ValueError):
    """Raised when a count matrix is degenerate for downstream estimation."""


@dataclass(frozen=True)
class TrimReport:
    dropped_doc_ids: tuple[str, ...] = ()
    dropped_features: tuple[str, ...] = ()


@dataclass(frozen=True)
class CountMatrix:
    doc_ids: tuple[str, ...]
    feature_labels: tuple[str, ...]
    counts: np.ndarray  # (n_docs, n_features) non-negative integers

    def __post_init__(self):
        if self.counts.shape != (len(self.doc_ids), len(self.feature_labels)):
            raise MatrixError("count matrix dimensions do not match labels")

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape


def community_dtm(
    corpus: Corpus, partition: Partition, bigram_match: bool = False
) -> tuple[CountMatrix, TrimReport]:
    """Documents x communities count matrix.

    Default convention: entry (i, j) is the number of token occurrences in
    document i whose word belongs to community j. With ``bigram_match`` the
    stricter alternative is used: only adjacent token pairs falling inside
    one community are counted.
    """
    if not partition.assignment:
        raise MatrixError("empty partition: no communities to count")
    members = partition.members
    col_of = {w: j for j, words in enumerate(members.values()) for w in words}
    counts = _count_matrix(corpus, col_of, len(members), bigram_match)
    vocab = corpus.vocabulary
    labels = tuple(
        _community_label(cid, words, vocab) for cid, words in members.items()
    )
    matrix = CountMatrix(
        doc_ids=tuple(d.id for d in corpus.documents),
        feature_labels=labels,
        counts=counts,
    )
    return trim(matrix)


def _community_label(cid: int, words: list[str], vocab: Counter) -> str:
    top = sorted(words, key=lambda w: (-vocab[w], w))[:3]
    return f"com_{cid}:" + "+".join(top)


def unigram_dtm(corpus: Corpus, min_count: int = 1) -> tuple[CountMatrix, TrimReport]:
    """Documents x words count matrix over words with corpus frequency >= min_count."""
    vocab = corpus.vocabulary
    words = sorted(w for w, c in vocab.items() if c >= min_count)
    if not words:
        raise MatrixError("empty vocabulary after frequency threshold")
    col_of = {w: j for j, w in enumerate(words)}
    counts = _count_matrix(corpus, col_of, len(words))
    matrix = CountMatrix(
        doc_ids=tuple(d.id for d in corpus.documents),
        feature_labels=tuple(words),
        counts=counts,
    )
    return trim(matrix)


def _count_matrix(
    corpus: Corpus, col_of: dict[str, int], k: int, bigram_match: bool = False
) -> np.ndarray:
    """Documents x k counts of the tokens whose word has a column in ``col_of``.

    With ``bigram_match``, count instead the adjacent pairs of two different
    words that share a column, at that column. Works one document at a time,
    so no corpus-wide column array is ever built.
    """
    coding = corpus.coding
    # a word without a column goes to column k, which is cut off below
    col_of_id = np.fromiter(map(col_of.get, coding.words, repeat(k)), np.intp,
                            len(coding.words))
    counts = np.zeros((len(corpus.documents), k), dtype=np.int64)
    starts = coding.starts.tolist()
    for i, (start, end) in enumerate(zip(starts, starts[1:])):
        ids = coding.ids[start:end]
        cols = col_of_id[ids]
        if bigram_match:
            cols = cols[:-1][(ids[:-1] != ids[1:]) & (cols[:-1] == cols[1:])]
        counts[i] = np.bincount(cols, minlength=k + 1)[:k]
    return counts


def trim(matrix: CountMatrix) -> tuple[CountMatrix, TrimReport]:
    """Drop all-zero rows and columns.

    One pass leaves none: counts are non-negative, so dropping all-zero rows
    leaves every column sum unchanged, and dropping all-zero columns every
    row sum.
    """
    counts = matrix.counts
    row_ok = counts.sum(axis=1) > 0
    col_ok = counts.sum(axis=0) > 0
    if not row_ok.any():
        raise MatrixError("count matrix is entirely zero after trimming")
    if not (row_ok.all() and col_ok.all()):
        counts = counts[np.ix_(row_ok, col_ok)]
    doc_ids, labels = matrix.doc_ids, matrix.feature_labels
    trimmed = CountMatrix(tuple(compress(doc_ids, row_ok)),
                          tuple(compress(labels, col_ok)), counts)
    return trimmed, TrimReport(tuple(compress(doc_ids, ~row_ok)),
                               tuple(compress(labels, ~col_ok)))
