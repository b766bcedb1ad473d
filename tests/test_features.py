import numpy as np
import pytest

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
    return Corpus(tuple(
        Document(id=f"d{i}", text="", tokens=tuple(toks))
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
                d.tokens.count(w)
                for d in corpus.documents if d.id in kept
                for w in members
            )
            assert matrix.counts[:, j].sum() == expected

    def test_row_sums_bounded_by_doc_length(self):
        corpus = make_corpus(["a", "b", "z", "c"])
        part = Partition({"a": 0, "b": 0, "c": 1})
        matrix, _ = community_dtm(corpus, part)
        assert matrix.counts.sum(axis=1)[0] <= 4

    def test_labels_carry_top_member_words(self):
        corpus = make_corpus(["b", "b", "b", "a", "c"])
        part = Partition({"a": 0, "b": 0, "c": 0})
        matrix, _ = community_dtm(corpus, part)
        assert matrix.feature_labels[0].startswith("com_0:b+")


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


class TestTrim:
    def test_drops_zero_row_and_column(self):
        matrix = CountMatrix(("d0", "d1"), ("f0", "f1"),
                             np.array([[1, 0], [0, 0]]))
        trimmed, report = trim(matrix)
        assert trimmed.counts.tolist() == [[1]]
        assert report.dropped_doc_ids == ("d1",)
        assert report.dropped_features == ("f1",)

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
