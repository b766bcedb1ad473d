import csv
import json
import re
import sys
from collections import Counter
from itertools import accumulate, chain

import numpy as np

import pytest
from hypothesis import example, given, settings, strategies as st

from communityfish.corpus import (
    Corpus,
    CorpusError,
    Document,
    count_bigrams,
    filter_bigrams,
    load_corpus,
    read_lemma_table,
    read_stopwords,
    tokenize,
)
from communityfish.features import unigram_dtm

from oracles import bigram_counts, pair_dict


_DIGITS_RE = re.compile(r"^\d+$")


def reference_tokenize(text, stopwords):
    """The per-match tokenizer loop that ``tokenize`` must agree with."""
    return tuple(
        t
        for t in (m.group(0).lower() for m in re.finditer(r"\w+", text))
        if not _DIGITS_RE.match(t) and t not in stopwords
    )


def brute_force_pairs(docs) -> Counter:
    """Unordered adjacent pairs of different words, by a scan of each document."""
    expected = Counter()
    for toks in docs:
        for i in range(len(toks) - 1):
            if toks[i] != toks[i + 1]:
                expected[frozenset((toks[i], toks[i + 1]))] += 1
    return expected


def make_corpus(*token_lists):
    # every token is a lowercase word, so the text rule reads it back as it is
    return Corpus(tuple(
        Document(id=f"d{i}", text=" ".join(toks))
        for i, toks in enumerate(token_lists)
    ))


class TestLoadCorpus:
    def test_jsonl_preserves_order(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": "a", "text": "x"}\n{"id": "b", "text": "y"}\n')
        corpus = load_corpus(p, "jsonl")
        assert [d.id for d in corpus.documents] == ["a", "b"]
        assert corpus.documents[0].text == "x"

    def test_jsonl_metadata_and_default_id(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"text": "x", "party": "spd"}\n')
        corpus = load_corpus(p, "jsonl")
        assert corpus.documents[0].id == "1"
        assert corpus.documents[0].metadata == {"party": "spd"}

    def test_jsonl_integer_id_is_kept(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": 7, "text": "x"}\n')
        assert load_corpus(p, "jsonl").documents[0].id == "7"

    @pytest.mark.parametrize("record, message", [
        ('{"id": "a", "text": null}', ":2: 'text' must be a string"),
        ('{"id": "a", "text": 5}', ":2: 'text' must be a string"),
        ('{"id": "a", "text": ["x"]}', ":2: 'text' must be a string"),
        ('{"id": null, "text": "x"}', ":2: 'id' must be a string or an integer"),
        ('{"id": true, "text": "x"}', ":2: 'id' must be a string or an integer"),
        ('{"id": 1.5, "text": "x"}', ":2: 'id' must be a string or an integer"),
        ('{"id": [1], "text": "x"}', ":2: 'id' must be a string or an integer"),
        ('{"id": {"a": 1}, "text": "x"}', ":2: 'id' must be a string or an integer"),
    ])
    def test_jsonl_field_of_wrong_type_reports_line(self, tmp_path, record, message):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": "ok", "text": "x"}\n' + record + "\n")
        with pytest.raises(CorpusError) as info:
            load_corpus(p, "jsonl")
        assert str(info.value) == f"{p}{message}"

    def test_empty_jsonl_is_error(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text("")
        with pytest.raises(CorpusError, match="empty corpus"):
            load_corpus(p, "jsonl")

    def test_malformed_record_reports_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"text": "x"}\nnot json\n')
        with pytest.raises(CorpusError, match=":2"):
            load_corpus(p, "jsonl")

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n')
        with pytest.raises(CorpusError, match="duplicate"):
            load_corpus(p, "jsonl")

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="not found"):
            load_corpus(tmp_path / "nope.jsonl", "jsonl")

    def test_text_directory(self, tmp_path):
        for name in ("one", "two", "three"):
            (tmp_path / f"{name}.txt").write_text(f"text of {name}")
        corpus = load_corpus(tmp_path, "text-directory")
        assert sorted(d.id for d in corpus.documents) == ["one", "three", "two"]

    def test_csv(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("id,text,year\na,hello,1990\nb,world,1994\n")
        corpus = load_corpus(p, "csv")
        assert [d.id for d in corpus.documents] == ["a", "b"]
        assert corpus.documents[1].metadata["year"] == "1994"

    def test_csv_document_longer_than_the_csv_field_limit(self, tmp_path):
        limit = csv.field_size_limit()
        text = "word " * 40_000  # 200,000 characters, past csv's default 131,072
        p = tmp_path / "c.csv"
        with open(p, "w", newline="") as fh:
            csv.writer(fh).writerows([("id", "text"), ("long", text), ("short", "a b")])
        corpus = load_corpus(p, "csv")
        assert [d.text for d in corpus.documents] == [text, "a b"]
        assert csv.field_size_limit() == limit

    def test_csv_error_names_the_file_line(self, tmp_path):
        # a quoted field spans lines 2-3, so the short record is on line 4
        p = tmp_path / "bad.csv"
        p.write_text('id,text\na,"two\nlines"\nb\n')
        with pytest.raises(CorpusError, match=r"bad\.csv:4: missing text field$"):
            load_corpus(p, "csv")
        # default ids stay record numbers
        p.write_text('text\n"two\nlines"\nthird\n')
        assert [d.id for d in load_corpus(p, "csv").documents] == ["1", "2"]

    def test_csv_requires_text_column(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("id,body\na,hello\n")
        with pytest.raises(CorpusError, match="text"):
            load_corpus(p, "csv")

    # a file saved with a UTF-8 byte-order mark reads as one saved without
    def test_jsonl_with_byte_order_mark(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": "a", "text": "x"}\n{"id": "b", "text": "y"}\n',
                     encoding="utf-8-sig")
        corpus = load_corpus(p, "jsonl")
        assert [(d.id, d.text) for d in corpus.documents] == [("a", "x"), ("b", "y")]

    def test_csv_with_byte_order_mark(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("id,text,year\na,hello,1990\n", encoding="utf-8-sig")
        corpus = load_corpus(p, "csv")
        assert [d.id for d in corpus.documents] == ["a"]
        assert corpus.documents[0].metadata == {"year": "1990"}

    def test_text_directory_with_byte_order_mark(self, tmp_path):
        (tmp_path / "one.txt").write_text("text of one", encoding="utf-8-sig")
        corpus = load_corpus(tmp_path, "text-directory")
        assert corpus.documents[0].text == "text of one"


class TestTokenize:
    def test_basic(self):
        tokens = tokenize(Document(id="d", text="The Panama Canal."))
        assert tokens == ("the", "panama", "canal")

    def test_empty_text(self):
        assert tokenize(Document(id="d", text="")) == ()

    def test_digits_dropped(self):
        tokens = tokenize(Document(id="d", text="Bürger zählen 2022"))
        assert tokens == ("bürger", "zählen")

    def test_stopwords(self):
        tokens = tokenize(Document(id="d", text="the panama canal"),
                          stopwords=frozenset({"the"}))
        assert tokens == ("panama", "canal")

    def test_original_text_retained(self):
        doc = Document(id="d", text="Hello World")
        assert Corpus((doc,)).tokenized().documents[0].text == "Hello World"

    @settings(deadline=None)
    @given(
        text=st.text(alphabet="aAbBσΣςßİǅ²٣1\u0307\u00a0_ .,!?'\n", max_size=60),
        stopwords=st.frozensets(st.sampled_from(["a", "ab", "σ", "ς", "ss", "i\u0307"])),
    )
    # "²" is a digit but not decimal, so it stays a token; "٣" is decimal
    @example(text="x ² ٣ 12 ²٣ İ ǅ ΣΑΣ ßΣ", stopwords=frozenset())
    @example(text="ΣΑΣ. ² a! !", stopwords=frozenset({"a"}))
    def test_matches_per_match_loop(self, text, stopwords):
        tokens = tokenize(Document(id="d", text=text), stopwords=stopwords)
        assert tokens == reference_tokenize(text, stopwords)


class TestApplyLemmas:
    @staticmethod
    def lemmatized(tokens, table):
        doc = Document(id="d", text=" ".join(tokens))
        return Corpus((doc,)).tokenized(lemmas=table).token_lists[0]

    def test_basic(self):
        assert self.lemmatized(("ran", "fast"), {"ran": "run"}) == ("run", "fast")

    def test_empty_table_is_identity(self):
        assert self.lemmatized(("ran", "fast"), {}) == ("ran", "fast")

    def test_plural(self):
        assert self.lemmatized(("islands",), {"islands": "island"}) == ("island",)

    @given(st.lists(st.sampled_from(["run", "island", "fast"]), max_size=10))
    def test_idempotent_on_identity_lemmas(self, tokens):
        table = {"run": "run", "island": "island"}
        once = self.lemmatized(tokens, table)
        assert self.lemmatized(once, table) == once


class TestTokenized:
    @settings(deadline=None)
    @given(
        texts=st.lists(st.text(alphabet="aAbBσΣςßİ²٣1\u0307_ .,!'\n", max_size=30),
                       max_size=5),
        stopwords=st.frozensets(st.sampled_from(["a", "ab", "σ", "ς", "ss", "i\u0307"])),
        lemmas=st.dictionaries(st.sampled_from(["a", "b", "ab", "ba", "σ", "ς", "ß", "i\u0307"]),
                               st.sampled_from(["a", "b", "ab", "σ", "ς", "ss", "1"]),
                               max_size=5),
    )
    # a lemma that is a stopword stays; a lemma is not looked up again
    @example(texts=["Ab a B ba", "", "b ab 12"], stopwords=frozenset({"a"}),
             lemmas={"ab": "a", "b": "ab", "ba": "1"})
    def test_matches_per_match_loop_then_lemmas(self, texts, stopwords, lemmas):
        corpus = Corpus(tuple(Document(id=f"d{i}", text=t) for i, t in enumerate(texts)))
        assert corpus.tokenized(stopwords, lemmas).token_lists == [
            tuple(lemmas.get(t, t) for t in reference_tokenize(text, stopwords))
            for text in texts]

    @settings(deadline=None)
    @given(
        texts=st.lists(st.text(alphabet="aAbBσΣςßİ²٣1\u0307_ .,!'\n", max_size=30),
                       max_size=5),
        stopwords=st.frozensets(st.sampled_from(["a", "ab", "σ", "ς", "ss", "i\u0307"])),
        lemmas=st.dictionaries(st.sampled_from(["a", "b", "ab", "ba", "σ", "ς", "ß", "i\u0307"]),
                               st.sampled_from(["a", "b", "ab", "σ", "ς", "ss", "1"]),
                               max_size=5),
    )
    @example(texts=[], stopwords=frozenset(), lemmas={})  # no documents
    # empty texts, and documents whose every word drops: no tokens at all
    @example(texts=["", "12 ٣", "a A", ""], stopwords=frozenset({"a"}), lemmas={})
    # a document whose every word drops between two that keep theirs
    @example(texts=["b ab", "a 1 A", "", "ba B"], stopwords=frozenset({"a"}),
             lemmas={"ba": "1"})
    def test_coding_matches_a_token_built_corpus(self, texts, stopwords, lemmas):
        docs = tuple(Document(id=f"d{i}", text=t) for i, t in enumerate(texts))
        expected = [tuple(lemmas.get(t, t) for t in reference_tokenize(text, stopwords))
                    for text in texts]
        # the coding built from the expected tokens
        words = tuple(sorted(set(chain(*expected))))
        ids = [words.index(t) for t in chain(*expected)]
        starts = [0, *accumulate(map(len, expected))]
        coded = Corpus(docs).tokenized(stopwords, lemmas)
        assert coded.coding.words == words
        assert coded.coding.ids.dtype == np.int32
        assert coded.coding.ids.tolist() == ids
        assert coded.coding.starts.tolist() == starts
        assert coded.token_lists == expected
        assert coded.documents == docs

    def test_a_corpus_not_tokenized_is_coded_by_the_text_rule(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"text": "The Panama Canal: the canal of 1914"}\n'
                     '{"text": "panama canal canal Panama"}\n{"text": "12"}\n')
        plain, coded = load_corpus(p, "jsonl"), load_corpus(p, "jsonl").tokenized()
        assert plain.token_lists == [("the", "panama", "canal", "the", "canal", "of"),
                                     ("panama", "canal", "canal", "panama"), ()]
        assert plain.coding.words == coded.coding.words
        assert plain.coding.ids.tolist() == coded.coding.ids.tolist()
        assert plain.coding.starts.tolist() == coded.coding.starts.tolist()
        assert pair_dict(count_bigrams(plain)) == pair_dict(count_bigrams(coded))
        (matrix, report), (want, want_report) = unigram_dtm(plain), unigram_dtm(coded)
        assert (matrix.doc_ids, matrix.feature_labels) == (want.doc_ids, want.feature_labels)
        assert matrix.counts.tolist() == want.counts.tolist()
        assert report == want_report

    @pytest.mark.parametrize("lemma", ["", "a b", "a\tb", "a\u00a0b"])
    def test_lemma_that_is_no_token_is_named(self, lemma):
        corpus = Corpus((Document(id="d", text="y x z"),))
        with pytest.raises(CorpusError, match=re.escape(f"bad lemma {lemma!r} for word 'x'")):
            corpus.tokenized(lemmas={"x": lemma})
        # a lemma of a word no text holds is never applied
        assert corpus.tokenized(lemmas={"w": lemma}).token_lists == [("y", "x", "z")]

    def test_a_word_is_one_object_across_documents(self):
        corpus = Corpus((Document(id="a", text="the canal"),
                         Document(id="b", text="Canal, canal"))).tokenized()
        first, second = corpus.token_lists
        assert first[1] is second[0] is second[1]

    def test_word_characters_are_isalnum_or_underscore(self):
        chars = list(map(chr, range(sys.maxunicode + 1)))
        assert ([c for c in chars if c.isalnum() or c == "_"]
                == [c for c in chars if re.fullmatch(r"\w", c)])
        # no word character is a space that str.split() would cut at
        assert not [c for c in chars if c.isalnum() and c.isspace()]
        text = "\x00".join(chars)
        assert tokenize(Document(id="d", text=text)) == reference_tokenize(text, frozenset())


class TestCountBigrams:
    def test_alternating(self):
        counts = count_bigrams(make_corpus(["a", "b", "a", "b"]))
        assert pair_dict(counts) == {frozenset(("a", "b")): 3}

    def test_across_documents(self):
        counts = count_bigrams(make_corpus(["a", "b", "a", "b"], ["a", "b"]))
        assert pair_dict(counts) == {frozenset(("a", "b")): 4}

    def test_self_pair_excluded(self):
        assert pair_dict(count_bigrams(make_corpus(["a", "a"]))) == {}

    def test_no_cross_document_pairs(self):
        counts = count_bigrams(make_corpus(["a"], ["b"]))
        assert pair_dict(counts) == {}

    @given(st.lists(
        st.lists(st.sampled_from("abcde"), max_size=12), min_size=1, max_size=4,
    ))
    # empty documents first and last put document offsets at both ends
    @example(docs=[[], ["a", "b"], ["b", "a"], []])
    def test_matches_brute_force_scan(self, docs):
        corpus = make_corpus(*docs)
        expected = brute_force_pairs(docs)
        counts = count_bigrams(corpus)
        assert counts.words == corpus.coding.words
        assert counts.pairs.dtype == np.int32 and counts.pairs.shape == (len(expected), 2)
        assert (counts.pairs[:, 0] < counts.pairs[:, 1]).all()
        assert pair_dict(counts) == dict(expected)

    def test_vocabulary_too_large_for_int32_codes(self):
        # 50,000 words: the largest pair code, about V**2, exceeds 2**31
        rng = np.random.default_rng(0)
        ids = np.concatenate((rng.permutation(50_000), rng.integers(0, 50_000, 20_000),
                              [49_998, 49_999, 49_998, 49_999]))
        words = [f"w{i:05d}" for i in ids.tolist()]
        docs = [words[:25_000], words[25_000:60_000], words[60_000:]]
        expected = brute_force_pairs(docs)
        as_dict = pair_dict(count_bigrams(make_corpus(*docs)))
        assert as_dict == dict(expected)
        assert as_dict[frozenset(("w49998", "w49999"))] >= 3

    @given(st.lists(
        st.lists(st.sampled_from("abc"), max_size=10), min_size=1, max_size=4,
    ))
    def test_total_adjacency_conservation(self, docs):
        corpus = make_corpus(*docs)
        self_pairs = sum(
            1
            for toks in docs
            for i in range(len(toks) - 1)
            if toks[i] == toks[i + 1]
        )
        adjacencies = sum(max(len(toks) - 1, 0) for toks in docs)
        total = count_bigrams(corpus).counts.sum()
        assert total == adjacencies - self_pairs


class TestFilterBigrams:
    def test_threshold(self):
        counts = bigram_counts({frozenset(("a", "b")): 4, frozenset(("b", "c")): 2})
        kept = filter_bigrams(counts, 3)
        assert kept.words == counts.words
        assert pair_dict(kept) == {frozenset(("a", "b")): 4}

    def test_threshold_one_is_identity(self):
        counts = bigram_counts({frozenset(("a", "b")): 4, frozenset(("b", "c")): 2})
        kept = filter_bigrams(counts, 1)
        assert kept.pairs.tolist() == counts.pairs.tolist()
        assert kept.counts.tolist() == counts.counts.tolist()

    def test_everything_filtered(self):
        counts = bigram_counts({frozenset(("a", "b")): 4})
        assert pair_dict(filter_bigrams(counts, 5)) == {}

    def test_strict_greater(self):
        # the threshold is inclusive
        counts = bigram_counts({frozenset(("a", "b")): 4})
        assert pair_dict(filter_bigrams(counts, 4)) != {}

    def test_zero_threshold_rejected(self):
        with pytest.raises(CorpusError):
            filter_bigrams(bigram_counts({}), 0)


def test_read_stopwords_and_lemmas(tmp_path):
    (tmp_path / "stop.txt").write_text("the\nof\n\n")
    assert read_stopwords(tmp_path / "stop.txt") == frozenset({"the", "of"})
    (tmp_path / "lem.tsv").write_text("ran\trun\nislands\tisland\n")
    assert read_lemma_table(tmp_path / "lem.tsv") == {"ran": "run", "islands": "island"}


def test_stopwords_with_byte_order_mark(tmp_path):
    (tmp_path / "stop.txt").write_text("the\nof\n", encoding="utf-8-sig")
    assert read_stopwords(tmp_path / "stop.txt") == frozenset({"the", "of"})


def test_lemma_table_with_byte_order_mark(tmp_path):
    (tmp_path / "lem.tsv").write_text("ran\trun\n", encoding="utf-8-sig")
    assert read_lemma_table(tmp_path / "lem.tsv") == {"ran": "run"}


def test_stopword_and_lemma_entries_are_lowercased(tmp_path):
    # tokens are lowercased, so an entry as written in capitals must match too
    (tmp_path / "stop.txt").write_text("The\n")
    (tmp_path / "lem.tsv").write_text("Islands\tIsland\n")
    stopwords = read_stopwords(tmp_path / "stop.txt")
    table = read_lemma_table(tmp_path / "lem.tsv")
    assert stopwords == frozenset({"the"}) and table == {"islands": "island"}
    corpus = Corpus((Document(id="d", text="The Islands of the north"),))
    assert corpus.tokenized(stopwords, table).token_lists[0] == (
        "island", "of", "north")

