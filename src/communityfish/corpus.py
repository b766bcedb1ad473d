"""Corpus ingestion, tokenization, and bigram co-occurrence counting."""

from __future__ import annotations

import csv
import json
import re
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from pathlib import Path

import numpy as np

# matches exactly the characters for which str.isspace() is true
_SPACE_RE = re.compile(r"\s")


class CorpusError(ValueError):
    """Raised for malformed or degenerate corpus input."""


@dataclass(frozen=True)
class Document:
    id: str
    text: str
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.id:
            raise CorpusError("document id must be non-empty")


@dataclass(frozen=True)
class TokenCoding:
    """A corpus's tokens as integers: each token is the index of its word in
    the sorted word types."""

    words: tuple[str, ...]  # sorted word types
    ids: np.ndarray  # int32 word id of every token, in document order
    # offset of each document's first token in ``ids``, then the token count
    starts: np.ndarray


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]

    def __post_init__(self):
        seen = set()
        for d in self.documents:
            if d.id in seen:
                raise CorpusError(f"duplicate document id {d.id!r}")
            seen.add(d.id)

    @cached_property
    def coding(self) -> TokenCoding:
        """The integer coding of the documents' texts, built on first use by
        ``tokenized()``, with no stopwords and no lemmas. A corpus from
        ``tokenized`` holds the coding it was built with."""
        return self.tokenized().coding

    @property
    def token_lists(self) -> list[tuple[str, ...]]:
        """Each document's tokens, read from the coding; all tokens of one
        word are one string object."""
        coding = self.coding
        word = coding.words.__getitem__
        ids, starts = coding.ids.tolist(), coding.starts.tolist()
        return [tuple(map(word, ids[start:end])) for start, end in zip(starts, starts[1:])]

    def __len__(self):
        return len(self.documents)

    def tokenized(self, stopwords: frozenset[str] = frozenset(),
                  lemmas: Mapping[str, str] | None = None) -> "Corpus":
        """The corpus coded from its texts: each document's tokens are the
        ``\\w+`` words of its text, each lowercased on its own, less decimal
        numbers and ``stopwords``, then mapped through ``lemmas``. The rule
        runs once per distinct word. The corpus it returns holds the same
        documents; ``token_lists`` reads their tokens from the coding."""

        def token(word: str) -> str | None:
            low = word.lower()
            if low.isdecimal() or low in stopwords:
                return None
            if not lemmas or low not in lemmas:
                return low
            lemma = lemmas[low]
            if not lemma or _SPACE_RE.search(lemma):
                raise CorpusError(f"bad lemma {lemma!r} for word {low!r}")
            return lemma
        # \w matches exactly the characters that are str.isalnum() or "_"
        spaces = _Memo(lambda c: c if chr(c).isalnum() or c == 0x5F else " ")
        corpus = Corpus(self.documents)
        # fills in the cached property, which has no setter
        object.__setattr__(corpus, "coding", _code(
            (d.text.translate(spaces).split() for d in self.documents), token))
        return corpus


def _code(word_lists: Iterable[Sequence[str]],
          token: Callable[[str], str | None]) -> TokenCoding:
    """Code each document's raw words by the rule ``token`` (a word's token,
    or None to drop it), which runs once per distinct raw word.

    The raw words are numbered on first sight, one document at a time, so
    only one document's words are held; one remap then gives the tokens'
    ids in the sorted word types, and the dropped words are cut out.
    """
    raw_id = _Memo(lambda word: len(raw_id))
    chunks = [np.fromiter(map(raw_id.__getitem__, words), np.int32, len(words))
              for words in word_lists]
    raw_starts = np.zeros(len(chunks) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, chunks), np.intp, len(chunks)), out=raw_starts[1:])
    raw = np.concatenate(chunks) if chunks else np.empty(0, np.int32)
    del chunks  # one copy of the raw ids at a time
    tokens = list(map(token, raw_id))  # in raw id order
    words = tuple(sorted(set(tokens) - {None}))
    index = dict(zip(words, range(len(words))))
    remap = np.fromiter(map(index.get, tokens, repeat(-1)), np.int32, len(tokens))
    raw = remap[raw]  # -1 marks a dropped word
    dropped = np.flatnonzero(raw < 0)
    # a document's tokens start where its raw words do, less the drops before it
    ids, starts = np.delete(raw, dropped), raw_starts - dropped.searchsorted(raw_starts)
    # every caller shares the cached arrays
    ids.flags.writeable = starts.flags.writeable = False
    return TokenCoding(words, ids, starts)


class _Memo(dict):
    """A dict that fills in a missing key with ``fn(key)`` on first lookup."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        self[key] = value = self.fn(key)
        return value


@dataclass(frozen=True)
class BigramCounts:
    """Unordered word-pair co-occurrence counts; self-pairs are excluded."""

    words: tuple[str, ...]  # sorted word types
    # one row (u, w) per pair, u < w indexing ``words``
    pairs: np.ndarray
    counts: np.ndarray  # each pair's count


def load_corpus(source, format: str) -> Corpus:
    """Load a corpus from a JSONL file, a directory of .txt files, or a CSV.

    JSONL: one object per line, required key ``text``, optional ``id``
    (defaults to the 1-based line number); every other string-valued key
    becomes metadata. CSV: header row with a mandatory ``text`` column and
    optional ``id`` (defaults to the record number); errors name the line a
    record ends on. Text directory: every ``*.txt`` file is one document
    whose id is the filename without extension. Every file is UTF-8; a
    byte-order mark at its start is ignored.
    """
    path = Path(source)
    if not path.exists():
        raise CorpusError(f"input not found: {path}")
    loaders = {"jsonl": _load_jsonl, "text-directory": _load_textdir, "csv": _load_csv}
    if format not in loaders:
        raise CorpusError(f"unknown corpus format {format!r}")
    try:
        docs = loaders[format](path)
    except UnicodeDecodeError:
        raise CorpusError(f"{path}: not UTF-8 text") from None
    if not docs:
        raise CorpusError("empty corpus")
    return Corpus(tuple(docs))


def _check_id(path: Path, line: int, doc_id: str, first_line: dict[str, int]) -> None:
    """Reject an empty id, or one in ``first_line``, the line of each id so far."""
    if not doc_id:
        raise CorpusError(f"{path}:{line}: document id must be non-empty")
    if doc_id in first_line:
        raise CorpusError(f"{path}:{line}: duplicate document id {doc_id!r} "
                          f"(first on line {first_line[doc_id]})")
    first_line[doc_id] = line


def _load_jsonl(path: Path) -> list[Document]:
    docs, first_line = [], {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except ValueError as exc:  # a JSONDecodeError, or an integer past int's digit limit
                raise CorpusError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            if not isinstance(rec, dict) or "text" not in rec:
                raise CorpusError(f"{path}:{lineno}: record missing 'text' key")
            text, doc_id = rec["text"], rec.get("id", lineno)
            if not isinstance(text, str):
                raise CorpusError(f"{path}:{lineno}: 'text' must be a string")
            if isinstance(doc_id, bool) or not isinstance(doc_id, (str, int)):
                raise CorpusError(f"{path}:{lineno}: 'id' must be a string or an integer")
            _check_id(path, lineno, str(doc_id), first_line)
            meta = {
                k: v
                for k, v in rec.items()
                if k not in ("id", "text") and isinstance(v, str)
            }
            docs.append(Document(id=str(doc_id), text=text, metadata=meta))
    return docs


def _load_textdir(path: Path) -> list[Document]:
    if not path.is_dir():
        raise CorpusError(f"not a directory: {path}")
    docs = []
    for fp in sorted(path.glob("*.txt")):
        docs.append(Document(id=fp.stem, text=_read_text(fp)))
    return docs


def _load_csv(path: Path) -> list[Document]:
    docs, first_line = [], {}
    # a field is at most as long as the file; a manifesto can run past the
    # csv module's default limit of 131,072 characters
    limit = csv.field_size_limit(max(csv.field_size_limit(), path.stat().st_size))
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "text" not in reader.fieldnames:
                raise CorpusError(f"{path}: CSV must have a header with a 'text' column")
            for record, row in enumerate(reader, start=1):
                if row["text"] is None:
                    raise CorpusError(f"{path}:{reader.line_num}: missing text field")
                if None in row:  # DictReader's key for the fields past the header
                    raise CorpusError(f"{path}:{reader.line_num}: more fields than the header")
                doc_id = row.get("id") or str(record)
                _check_id(path, reader.line_num, doc_id, first_line)
                meta = {
                    k: v
                    for k, v in row.items()
                    if k not in ("id", "text") and v is not None
                }
                docs.append(Document(id=doc_id, text=row["text"], metadata=meta))
    finally:
        csv.field_size_limit(limit)
    return docs


def tokenize(doc: Document, stopwords: frozenset[str] = frozenset()) -> tuple[str, ...]:
    """``doc``'s tokens, read from its text by ``Corpus.tokenized``."""
    return Corpus((doc,)).tokenized(stopwords).token_lists[0]


def count_bigrams(corpus: Corpus) -> BigramCounts:
    """Count unordered adjacent token pairs across all documents.

    Pairs of identical tokens are excluded; pairs never span document
    boundaries.
    """
    coding = corpus.coding
    ids, n_words = coding.ids, len(coding.words)
    # the pair {u, w} as one code, min * V + max; V * V marks an adjacency
    # that is no pair (a self-pair, or two documents' ends)
    dtype = np.int32 if n_words * n_words < 2**31 else np.int64
    none = dtype(n_words * n_words)
    left, right = ids[:-1], ids[1:]
    codes = np.minimum(left, right, dtype=dtype)
    codes *= n_words
    codes += np.maximum(left, right)
    codes[left == right] = none
    # adjacency s - 1 joins the token before offset s to the one at it
    bounds = coding.starts[1:-1]
    codes[bounds[(bounds > 0) & (bounds < len(ids))] - 1] = none
    codes.sort()
    n = codes.searchsorted(none)
    codes = codes[:n]
    heads = np.flatnonzero(np.concatenate(([n > 0], codes[1:] != codes[:-1])))
    pairs = np.stack(np.divmod(codes[heads], n_words), axis=1).astype(np.int32)
    return BigramCounts(coding.words, pairs, np.diff(heads, append=n))


def filter_bigrams(counts: BigramCounts, threshold: int) -> BigramCounts:
    """Keep pairs with count >= threshold."""
    if threshold < 1:
        raise CorpusError("bigram threshold must be >= 1")
    keep = counts.counts >= threshold
    return BigramCounts(counts.words, counts.pairs[keep], counts.counts[keep])


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise CorpusError(f"{path}: not UTF-8 text") from None


def read_stopwords(path) -> frozenset[str]:
    """One token per line, UTF-8, lowercased like the tokens."""
    lines = _read_text(path).splitlines()
    return frozenset(t.strip().lower() for t in lines if t.strip())


def read_lemma_table(path) -> dict[str, str]:
    """Two-column TSV, surface form then lemma; a lemma must be one token.
    Both columns are lowercased like the tokens."""
    table = {}
    for lineno, line in enumerate(_read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise CorpusError(f"{path}:{lineno}: expected 2 tab-separated columns")
        lemma = parts[1].strip().lower()
        if not lemma or _SPACE_RE.search(lemma):
            raise CorpusError(f"{path}:{lineno}: bad lemma {lemma!r}")
        table[parts[0].strip().lower()] = lemma
    return table
