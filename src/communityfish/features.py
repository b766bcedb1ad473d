"""Document-feature count matrices: community features and unigram features."""

from __future__ import annotations

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


@dataclass(frozen=True)
class CountMatrix:
    doc_ids: tuple[str, ...]
    feature_labels: tuple[str, ...]
    # (n_docs, n_features) non-negative integers, held as float64: the one
    # copy the fit reads; a float64 array is kept, not copied
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.float64)
        if counts.shape != (len(self.doc_ids), len(self.feature_labels)):
            raise MatrixError("count matrix dimensions do not match labels")
        # NaN fails the first comparison
        if counts.size and not (0 <= counts.min() and counts.max() < np.inf):
            raise MatrixError("count matrix has a negative or non-finite count")
        object.__setattr__(self, "counts", counts)

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
    coding, members = corpus.coding, partition.members
    col_of = {w: j for j, words in enumerate(members.values()) for w in words}
    col_of_id = np.fromiter(map(col_of.get, coding.words, repeat(len(members))), np.intp)
    counts = _count_matrix(corpus, col_of_id, len(members), bigram_match)
    frequency = dict(zip(coding.words,
                         np.bincount(coding.ids, minlength=len(coding.words)).tolist()))
    labels = tuple(
        _community_label(cid, words, frequency) for cid, words in members.items()
    )
    matrix = CountMatrix(
        doc_ids=tuple(d.id for d in corpus.documents),
        feature_labels=labels,
        counts=counts,
    )
    return trim(matrix)


def _community_label(cid: int, words: list[str], frequency: dict[str, int]) -> str:
    """The community's three most frequent words in the corpus, ties broken
    by word; a word absent from the corpus counts 0."""
    top = sorted(words, key=lambda w: (-frequency.get(w, 0), w))[:3]
    return f"com_{cid}:" + "+".join(top)


def unigram_dtm(corpus: Corpus, min_count: int = 1) -> tuple[CountMatrix, TrimReport]:
    """Documents x words count matrix over words with corpus frequency >= min_count."""
    coding = corpus.coding
    kept = np.bincount(coding.ids, minlength=len(coding.words)) >= min_count
    if not kept.any():
        raise MatrixError("empty vocabulary after frequency threshold")
    # the kept words, in their sorted order, are the columns
    k = int(kept.sum())
    col_of_id = np.where(kept, np.cumsum(kept) - 1, k)
    matrix = CountMatrix(
        doc_ids=tuple(d.id for d in corpus.documents),
        feature_labels=tuple(compress(coding.words, kept)),
        counts=_count_matrix(corpus, col_of_id, k),
    )
    return trim(matrix)


def _count_matrix(
    corpus: Corpus, col_of_id: np.ndarray, k: int, bigram_match: bool = False
) -> np.ndarray:
    """Documents x k counts of the tokens, each at its word id's column in
    ``col_of_id``; a word without a column has column k, which is not kept.

    With ``bigram_match``, count instead the adjacent pairs of two different
    words that share a column, at that column. Works one document at a time,
    so no corpus-wide column array is ever built.
    """
    coding = corpus.coding
    counts = np.zeros((len(corpus.documents), k))  # CountMatrix's float64
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
    doc_ids = matrix.doc_ids
    trimmed = CountMatrix(tuple(compress(doc_ids, row_ok)),
                          tuple(compress(matrix.feature_labels, col_ok)), counts)
    return trimmed, TrimReport(tuple(compress(doc_ids, ~row_ok)))
