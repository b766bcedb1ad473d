import csv
import json
import re
import time
from collections import Counter

import numpy as np

import pytest
from hypothesis import example, given, settings, strategies as st

from communityfish.corpus import (
    BigramCounts,
    Corpus,
    CorpusError,
    Document,
    apply_lemmas,
    count_bigrams,
    filter_bigrams,
    load_corpus,
    read_lemma_table,
    read_stopwords,
    tokenize,
)


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
    return Corpus(tuple(
        Document(id=f"d{i}", text="", tokens=tuple(toks))
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


class TestDocument:
    @pytest.mark.parametrize("bad", ["", "a b", "a\tb", "a\u00a0b", "a\u2028b", "a\x1cb"])
    def test_bad_token_rejected_and_named(self, bad):
        with pytest.raises(CorpusError, match=re.escape(repr(bad))):
            Document(id="d", text="", tokens=("ok", bad, "fine"))


class TestTokenize:
    def test_basic(self):
        doc = tokenize(Document(id="d", text="The Panama Canal."))
        assert doc.tokens == ("the", "panama", "canal")

    def test_empty_text(self):
        assert tokenize(Document(id="d", text="")).tokens == ()

    def test_digits_dropped(self):
        doc = tokenize(Document(id="d", text="Bürger zählen 2022"))
        assert doc.tokens == ("bürger", "zählen")

    def test_stopwords(self):
        doc = tokenize(Document(id="d", text="the panama canal"),
                       stopwords=frozenset({"the"}))
        assert doc.tokens == ("panama", "canal")

    def test_original_text_retained(self):
        doc = tokenize(Document(id="d", text="Hello World"))
        assert doc.text == "Hello World"

    @settings(deadline=None)
    @given(
        text=st.text(alphabet="aAbBσΣςßİǅ²٣1\u0307\u00a0_ .,!?'\n", max_size=60),
        stopwords=st.frozensets(st.sampled_from(["a", "ab", "σ", "ς", "ss", "i\u0307"])),
    )
    # "²" is a digit but not decimal, so it stays a token; "٣" is decimal
    @example(text="x ² ٣ 12 ²٣ İ ǅ ΣΑΣ ßΣ", stopwords=frozenset())
    @example(text="ΣΑΣ. ² a! !", stopwords=frozenset({"a"}))
    def test_matches_per_match_loop(self, text, stopwords):
        doc = tokenize(Document(id="d", text=text), stopwords=stopwords)
        assert doc.tokens == reference_tokenize(text, stopwords)


class TestApplyLemmas:
    def test_basic(self):
        doc = Document(id="d", text="", tokens=("ran", "fast"))
        assert apply_lemmas(doc, {"ran": "run"}).tokens == ("run", "fast")

    def test_empty_table_is_identity(self):
        doc = Document(id="d", text="", tokens=("ran", "fast"))
        assert apply_lemmas(doc, {}).tokens == ("ran", "fast")

    def test_plural(self):
        doc = Document(id="d", text="", tokens=("islands",))
        assert apply_lemmas(doc, {"islands": "island"}).tokens == ("island",)

    @given(st.lists(st.sampled_from(["run", "island", "fast"]), max_size=10))
    def test_idempotent_on_identity_lemmas(self, tokens):
        table = {"run": "run", "island": "island"}
        doc = Document(id="d", text="", tokens=tuple(tokens))
        once = apply_lemmas(doc, table)
        assert apply_lemmas(once, table).tokens == once.tokens


class TestCountBigrams:
    def test_alternating(self):
        counts = count_bigrams(make_corpus(["a", "b", "a", "b"]))
        assert counts.pairs == {frozenset(("a", "b")): 3}

    def test_across_documents(self):
        counts = count_bigrams(make_corpus(["a", "b", "a", "b"], ["a", "b"]))
        assert counts.pairs == {frozenset(("a", "b")): 4}

    def test_self_pair_excluded(self):
        assert count_bigrams(make_corpus(["a", "a"])).pairs == {}

    def test_no_cross_document_pairs(self):
        counts = count_bigrams(make_corpus(["a"], ["b"]))
        assert counts.pairs == {}

    @given(st.lists(
        st.lists(st.sampled_from("abcde"), max_size=12), min_size=1, max_size=4,
    ))
    # empty documents first and last put document offsets at both ends
    @example(docs=[[], ["a", "b"], ["b", "a"], []])
    def test_matches_brute_force_scan(self, docs):
        corpus = make_corpus(*docs)
        expected = brute_force_pairs(docs)
        pairs = count_bigrams(corpus).pairs
        assert len(pairs) == len(expected)
        assert pairs == dict(expected)
        assert dict(pairs.items()) == dict(expected.items())
        with pytest.raises(TypeError):
            pairs[frozenset(("a", "b"))] = 1

    def test_vocabulary_too_large_for_int32_codes(self):
        # 50,000 words: the largest pair code, about V**2, exceeds 2**31
        rng = np.random.default_rng(0)
        ids = np.concatenate((rng.permutation(50_000), rng.integers(0, 50_000, 20_000),
                              [49_998, 49_999, 49_998, 49_999]))
        words = [f"w{i:05d}" for i in ids.tolist()]
        docs = [words[:25_000], words[25_000:60_000], words[60_000:]]
        expected = brute_force_pairs(docs)
        pairs = count_bigrams(make_corpus(*docs)).pairs
        t0 = time.perf_counter()
        as_dict = dict(pairs)
        # each key lookup is O(1): a quadratic one takes minutes here
        assert time.perf_counter() - t0 < 10
        assert as_dict == dict(expected)
        assert dict(pairs.items()) == dict(expected.items())
        assert pairs[frozenset(("w49998", "w49999"))] >= 3

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
        total = sum(count_bigrams(corpus).pairs.values())
        assert total == adjacencies - self_pairs


class TestFilterBigrams:
    def test_threshold(self):
        counts = BigramCounts({frozenset(("a", "b")): 4, frozenset(("b", "c")): 2})
        kept = filter_bigrams(counts, 3)
        assert kept.pairs == {frozenset(("a", "b")): 4}

    def test_threshold_one_is_identity(self):
        counts = BigramCounts({frozenset(("a", "b")): 4, frozenset(("b", "c")): 2})
        assert filter_bigrams(counts, 1).pairs == counts.pairs

    def test_everything_filtered(self):
        counts = BigramCounts({frozenset(("a", "b")): 4})
        assert filter_bigrams(counts, 5).pairs == {}

    def test_strict_greater(self):
        # the threshold is inclusive
        counts = BigramCounts({frozenset(("a", "b")): 4})
        assert filter_bigrams(counts, 4).pairs != {}

    def test_zero_threshold_rejected(self):
        with pytest.raises(CorpusError):
            filter_bigrams(BigramCounts({}), 0)


def test_read_stopwords_and_lemmas(tmp_path):
    (tmp_path / "stop.txt").write_text("the\nof\n\n")
    assert read_stopwords(tmp_path / "stop.txt") == frozenset({"the", "of"})
    (tmp_path / "lem.tsv").write_text("ran\trun\nislands\tisland\n")
    assert read_lemma_table(tmp_path / "lem.tsv") == {"ran": "run", "islands": "island"}


def test_stopword_and_lemma_entries_are_lowercased(tmp_path):
    # tokens are lowercased, so an entry as written in capitals must match too
    (tmp_path / "stop.txt").write_text("The\n")
    (tmp_path / "lem.tsv").write_text("Islands\tIsland\n")
    stopwords = read_stopwords(tmp_path / "stop.txt")
    table = read_lemma_table(tmp_path / "lem.tsv")
    assert stopwords == frozenset({"the"}) and table == {"islands": "island"}
    doc = tokenize(Document(id="d", text="The Islands of the north"), stopwords)
    assert apply_lemmas(doc, table).tokens == ("island", "of", "north")


def test_vocabulary_matches_token_union():
    corpus = make_corpus(["a", "b", "a"], ["b", "c"])
    assert corpus.vocabulary == Counter({"a": 2, "b": 2, "c": 1})
