from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from communityfish.corpus import Corpus, Document
from communityfish.features import (
    CountMatrix,
    MatrixError,
    community_dtm,
    trim,
    unigram_dtm,
)
from communityfish.graph import Partition


def make_corpus(*token_lists):
    # every token is a lowercase word, so the text rule reads it back as it is
    return Corpus(tuple(
        Document(id=f"d{i}", text=" ".join(toks))
        for i, toks in enumerate(token_lists)
    ))


class TestCommunityDtm:
    def test_member_count_convention(self):
        corpus = make_corpus(["a", "a", "c", "z"])
        part = Partition({"a": 0, "b": 0, "c": 1})
        matrix, report = community_dtm(corpus, part)
        assert matrix.counts.tolist() == [[2, 1]]
        assert report.dropped_doc_ids == ()

    def test_doc_without_community_words_dropped(self):
        corpus = make_corpus(["a", "b"], ["z", "z"])
        part = Partition({"a": 0, "b": 0, "c": 1})
        matrix, report = community_dtm(corpus, part)
        assert matrix.doc_ids == ("d0",)
        assert report.dropped_doc_ids == ("d1",)

    def test_identical_documents_identical_rows(self):
        corpus = make_corpus(["a", "c", "b"], ["a", "c", "b"])
        part = Partition({"a": 0, "b": 0, "c": 1})
        matrix, _ = community_dtm(corpus, part)
        assert (matrix.counts[0] == matrix.counts[1]).all()

    def test_bigram_match_convention(self):
        # only adjacent within-community pairs count
        corpus = make_corpus(["a", "b", "c", "a"])
        part = Partition({"a": 0, "b": 0, "c": 1, "d": 1})
        matrix, _ = community_dtm(corpus, part, bigram_match=True)
        assert matrix.feature_labels[0].startswith("com_0")
        assert matrix.counts.tolist() == [[1]]

    def test_empty_partition_rejected(self):
        with pytest.raises(MatrixError, match="empty partition"):
            community_dtm(make_corpus(["a"]), Partition({}))

    def test_all_docs_empty_after_mapping(self):
        corpus = make_corpus(["z"], ["q"])
        part = Partition({"a": 0, "b": 0, "c": 1})
        with pytest.raises(MatrixError):
            community_dtm(corpus, part)

    def test_column_sums_equal_member_word_totals(self):
        rng = np.random.default_rng(0)
        vocab = [f"w{i}" for i in range(9)]
        docs = [[vocab[int(rng.integers(9))] for _ in range(30)] for _ in range(5)]
        corpus = make_corpus(*docs)
        part = Partition({"w0": 0, "w1": 0, "w2": 0, "w3": 1, "w4": 1})
        matrix, _ = community_dtm(corpus, part)
        kept = set(matrix.doc_ids)
        for j, label in enumerate(matrix.feature_labels):
            cid = int(label.split(":")[0].split("_")[1])
            members = [w for w, c in part.assignment.items() if c == cid]
            expected = sum(
                toks.count(w)
                for d, toks in zip(corpus.documents, docs) if d.id in kept
                for w in members
            )
            assert matrix.counts[:, j].sum() == expected

    def test_row_sums_bounded_by_doc_length(self):
        corpus = make_corpus(["a", "b", "z", "c"])
        part = Partition({"a": 0, "b": 0, "c": 1})
        matrix, _ = community_dtm(corpus, part)
        assert matrix.counts.sum(axis=1)[0] <= 4

    def test_labels_carry_top_member_words(self):
        corpus = make_corpus(["d", "d", "d", "d", "b", "b", "c", "c", "a", "e", "f", "f"],
                             ["j", "i", "h", "g"])
        part = Partition({"a": 0, "b": 0, "c": 0, "d": 0, "e": 0,
                          "aa": 1, "f": 1, "g": 2, "h": 2, "i": 2, "j": 2})
        matrix, _ = community_dtm(corpus, part)
        assert matrix.feature_labels == (
            # the top three by corpus frequency, the tie of b and c by word
            "com_0:d+b+c",
            # a member absent from the corpus ranks last; fewer than three words
            "com_1:f+aa",
            # four words tied: the first three by word
            "com_2:g+h+i",
        )


class TestUnigramDtm:
    def test_basic(self):
        matrix, _ = unigram_dtm(make_corpus(["a", "b"], ["a"]), min_count=1)
        assert matrix.feature_labels == ("a", "b")
        assert matrix.counts.tolist() == [[1, 1], [1, 0]]

    def test_min_count_filters(self):
        matrix, report = unigram_dtm(make_corpus(["a", "b"], ["a"]), min_count=2)
        assert matrix.feature_labels == ("a",)
        # the doc losing all features is trimmed
        assert matrix.counts.tolist() == [[1], [1]]

    def test_min_count_too_high(self):
        with pytest.raises(MatrixError, match="empty vocabulary"):
            unigram_dtm(make_corpus(["a", "b"]), min_count=5)


def reference_counts(docs, col_of, k, bigram_match=False):
    """Per-token (or per-adjacent-pair) counting loop, the reference."""
    counts = np.zeros((len(docs), k), dtype=np.int64)
    for i, toks in enumerate(docs):
        if bigram_match:
            for u, w in zip(toks, toks[1:]):
                if u != w and u in col_of and col_of.get(w) == col_of[u]:
                    counts[i, col_of[u]] += 1
        else:
            for t in toks:
                if t in col_of:
                    counts[i, col_of[t]] += 1
    return counts


def expected_matrix(docs, labels, col_of, bigram_match=False):
    """The trimmed reference matrix, or None when trimming leaves nothing."""
    ids = tuple(f"d{i}" for i in range(len(docs)))
    ref = reference_counts(docs, col_of, len(labels), bigram_match)
    try:
        return trim(CountMatrix(ids, labels, ref))[0]
    except MatrixError:
        return None


def assert_same_cells(matrix, expected):
    assert matrix.doc_ids == expected.doc_ids
    assert matrix.counts.dtype == np.float64
    assert matrix.counts.tolist() == expected.counts.tolist()


# words f and g are never in the partition; empty documents and adjacent
# repeats come from the small alphabet
DOCS = st.lists(st.lists(st.sampled_from("abcdefg"), max_size=15), min_size=1, max_size=5)


class TestCountsMatchLoop:
    @given(
        docs=DOCS,
        assignment=st.dictionaries(st.sampled_from("abcde"), st.integers(0, 3), min_size=1),
        bigram_match=st.booleans(),
    )
    def test_community_dtm(self, docs, assignment, bigram_match):
        cids = sorted(set(assignment.values()))
        col_of = {w: cids.index(c) for w, c in assignment.items()}
        expected = expected_matrix(docs, tuple(map(str, cids)), col_of, bigram_match)
        corpus, partition = make_corpus(*docs), Partition(assignment)
        if expected is None:
            with pytest.raises(MatrixError):
                community_dtm(corpus, partition, bigram_match)
            return
        matrix, _ = community_dtm(corpus, partition, bigram_match)
        assert_same_cells(matrix, expected)
        assert [f.split(":")[0] for f in matrix.feature_labels] == [
            f"com_{c}" for c in expected.feature_labels]

    @given(docs=DOCS, min_count=st.integers(1, 4))
    def test_unigram_dtm(self, docs, min_count):
        freq = Counter(t for toks in docs for t in toks)
        words = tuple(sorted(w for w, c in freq.items() if c >= min_count))
        if not words:
            with pytest.raises(MatrixError, match="empty vocabulary"):
                unigram_dtm(make_corpus(*docs), min_count)
            return
        matrix, _ = unigram_dtm(make_corpus(*docs), min_count)
        expected = expected_matrix(docs, words, {w: j for j, w in enumerate(words)})
        assert_same_cells(matrix, expected)
        assert matrix.feature_labels == expected.feature_labels


class TestCountMatrix:
    def test_counts_are_held_once_as_float64(self):
        counts = np.random.default_rng(0).poisson(5.0, size=(6, 5))
        matrix = CountMatrix(tuple("abcdef"), tuple("vwxyz"), counts)
        assert matrix.counts.dtype == np.float64
        assert (matrix.counts == counts).all()
        again = CountMatrix(matrix.doc_ids, matrix.feature_labels, matrix.counts)
        assert again.counts is matrix.counts

    @pytest.mark.parametrize("value", [-1.0, np.inf, np.nan])
    def test_rejects_counts_that_are_not_counts(self, value):
        counts = np.random.default_rng(0).poisson(5.0, size=(6, 5)).astype(float)
        counts[2, 3] = value
        with pytest.raises(MatrixError,
                           match="^count matrix has a negative or non-finite count$"):
            CountMatrix(tuple("abcdef"), tuple("vwxyz"), counts)

    def test_rejects_labels_that_do_not_match_the_counts(self):
        with pytest.raises(MatrixError, match="^count matrix dimensions do not match labels$"):
            CountMatrix(tuple("abc"), tuple("vwxyz"), np.ones((2, 5)))


class TestTrim:
    def test_drops_zero_row_and_column(self):
        matrix = CountMatrix(("d0", "d1"), ("f0", "f1"),
                             np.array([[1, 0], [0, 0]]))
        trimmed, report = trim(matrix)
        assert trimmed.counts.tolist() == [[1]]
        assert report.dropped_doc_ids == ("d1",)
        assert trimmed.feature_labels == ("f0",)

    def test_identity_when_no_zeros(self):
        matrix = CountMatrix(("d0",), ("f0", "f1"), np.array([[1, 2]]))
        trimmed, report = trim(matrix)
        assert (trimmed.counts == matrix.counts).all()
        assert report == type(report)()

    def test_all_zero_is_error(self):
        matrix = CountMatrix(("d0",), ("f0",), np.array([[0]]))
        with pytest.raises(MatrixError, match="entirely zero"):
            trim(matrix)


def test_community_dtm_has_fewer_columns_than_unigram():
    rng = np.random.default_rng(1)
    vocab = [f"w{i}" for i in range(12)]
    docs = [[vocab[int(rng.integers(12))] for _ in range(60)] for _ in range(6)]
    corpus = make_corpus(*docs)
    part = Partition({w: i // 3 for i, w in enumerate(vocab)})
    com, _ = community_dtm(corpus, part)
    uni, _ = unigram_dtm(corpus)
    assert com.shape[1] < uni.shape[1]
