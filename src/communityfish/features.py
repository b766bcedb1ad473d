"""Document-feature count matrices: community features and unigram features."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

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
    cids = sorted(set(partition.assignment.values()))
    col_of = {c: k for k, c in enumerate(cids)}
    word_comm = partition.assignment
    counts = np.zeros((len(corpus.documents), len(cids)), dtype=np.int64)
    for i, doc in enumerate(corpus.documents):
        if bigram_match:
            for u, w in zip(doc.tokens, doc.tokens[1:]):
                cu, cw = word_comm.get(u), word_comm.get(w)
                if cu is not None and cu == cw and u != w:
                    counts[i, col_of[cu]] += 1
        else:
            for t in doc.tokens:
                c = word_comm.get(t)
                if c is not None:
                    counts[i, col_of[c]] += 1
    vocab = corpus.vocabulary
    labels = tuple(
        _community_label(cid, partition.members[cid], vocab) for cid in cids
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
    counts = np.zeros((len(corpus.documents), len(words)), dtype=np.int64)
    for i, doc in enumerate(corpus.documents):
        for t in doc.tokens:
            j = col_of.get(t)
            if j is not None:
                counts[i, j] += 1
    matrix = CountMatrix(
        doc_ids=tuple(d.id for d in corpus.documents),
        feature_labels=tuple(words),
        counts=counts,
    )
    return trim(matrix)


def trim(matrix: CountMatrix) -> tuple[CountMatrix, TrimReport]:
    """Iteratively drop all-zero rows and columns until none remain."""
    counts = matrix.counts
    doc_ids = list(matrix.doc_ids)
    labels = list(matrix.feature_labels)
    dropped_docs: list[str] = []
    dropped_feats: list[str] = []
    while True:
        if counts.size == 0:
            raise MatrixError("count matrix is entirely zero after trimming")
        row_ok = counts.sum(axis=1) > 0
        col_ok = counts.sum(axis=0) > 0
        if row_ok.all() and col_ok.all():
            break
        dropped_docs += [d for d, ok in zip(doc_ids, row_ok) if not ok]
        dropped_feats += [f for f, ok in zip(labels, col_ok) if not ok]
        doc_ids = [d for d, ok in zip(doc_ids, row_ok) if ok]
        labels = [f for f, ok in zip(labels, col_ok) if ok]
        counts = counts[np.ix_(row_ok, col_ok)]
    trimmed = CountMatrix(tuple(doc_ids), tuple(labels), counts)
    return trimmed, TrimReport(tuple(dropped_docs), tuple(dropped_feats))
