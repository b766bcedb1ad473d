"""Corpus ingestion, tokenization, and bigram co-occurrence counting."""

from __future__ import annotations

import csv
import json
import re
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import filterfalse
from pathlib import Path
from typing import Mapping

_WORD_RE = re.compile(r"\w+", re.UNICODE)
# matches exactly the characters for which str.isspace() is true
_SPACE_RE = re.compile(r"\s")


class CorpusError(ValueError):
    """Raised for malformed or degenerate corpus input."""


@dataclass(frozen=True)
class Document:
    id: str
    text: str
    metadata: Mapping[str, str] = field(default_factory=dict)
    tokens: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.id:
            raise CorpusError("document id must be non-empty")
        if "" in self.tokens or _SPACE_RE.search("".join(self.tokens)):
            bad = next(t for t in self.tokens if not t or _SPACE_RE.search(t))
            raise CorpusError(f"bad token {bad!r} in document {self.id}")


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]

    def __post_init__(self):
        seen = set()
        for d in self.documents:
            if d.id in seen:
                raise CorpusError(f"duplicate document id {d.id!r}")
            seen.add(d.id)

    @property
    def vocabulary(self) -> Counter:
        vocab = Counter()
        for d in self.documents:
            vocab.update(d.tokens)
        return vocab

    def __len__(self):
        return len(self.documents)

    def map_documents(self, fn) -> "Corpus":
        return Corpus(tuple(fn(d) for d in self.documents))


@dataclass(frozen=True)
class BigramCounts:
    """Unordered word-pair co-occurrence counts; self-pairs are excluded."""

    pairs: Mapping[frozenset, int]


def load_corpus(source, format: str) -> Corpus:
    """Load a corpus from a JSONL file, a directory of .txt files, or a CSV.

    JSONL: one object per line, required key ``text``, optional ``id``
    (defaults to the 1-based line number); every other string-valued key
    becomes metadata. CSV: header row with a mandatory ``text`` column and
    optional ``id``. Text directory: every ``*.txt`` file is one document
    whose id is the filename without extension.
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


def _load_jsonl(path: Path) -> list[Document]:
    docs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            if not isinstance(rec, dict) or "text" not in rec:
                raise CorpusError(f"{path}:{lineno}: record missing 'text' key")
            doc_id = str(rec.get("id", lineno))
            meta = {
                k: v
                for k, v in rec.items()
                if k not in ("id", "text") and isinstance(v, str)
            }
            docs.append(Document(id=doc_id, text=str(rec["text"]), metadata=meta))
    return docs


def _load_textdir(path: Path) -> list[Document]:
    if not path.is_dir():
        raise CorpusError(f"not a directory: {path}")
    docs = []
    for fp in sorted(path.glob("*.txt")):
        docs.append(Document(id=fp.stem, text=_read_text(fp)))
    return docs


def _load_csv(path: Path) -> list[Document]:
    docs = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "text" not in reader.fieldnames:
            raise CorpusError(f"{path}: CSV must have a header with a 'text' column")
        for lineno, row in enumerate(reader, start=2):
            if row["text"] is None:
                raise CorpusError(f"{path}:{lineno}: missing text field")
            doc_id = row.get("id") or str(lineno - 1)
            meta = {
                k: v
                for k, v in row.items()
                if k not in ("id", "text") and v is not None
            }
            docs.append(Document(id=doc_id, text=row["text"], metadata=meta))
    return docs


def tokenize(doc: Document, stopwords: frozenset[str] = frozenset()) -> Document:
    """Lowercase, Unicode-aware word tokenization.

    Punctuation and purely numeric tokens are dropped; ``stopwords`` are
    removed after that. The raw text is retained on the document.
    Tokens are interned, so each word type is one string object.
    """
    words = _WORD_RE.findall(doc.text)
    # Lowercase the words joined, not the text: lowercasing never makes a
    # space, but "İ".lower() adds U+0307, which \w does not match.
    lowered = " ".join(words).lower().split(" ") if words else ()
    tokens = tuple(map(sys.intern, filterfalse(
        stopwords.__contains__, filterfalse(str.isdecimal, lowered))))
    return replace(doc, tokens=tokens)


def apply_lemmas(doc: Document, lemma_table: Mapping[str, str]) -> Document:
    """Replace each token by its lemma when the table has one."""
    return replace(doc, tokens=tuple(map(lemma_table.get, doc.tokens, doc.tokens)))


def count_bigrams(corpus: Corpus) -> BigramCounts:
    """Count unordered adjacent token pairs across all documents.

    Pairs of identical tokens are excluded; pairs never span document
    boundaries. Keys are in order of each pair's first occurrence.
    """
    ordered: Counter = Counter()
    for doc in corpus.documents:
        ordered.update(zip(doc.tokens, doc.tokens[1:]))
    # (u, w) and (w, u) fold into one key at whichever came first
    pairs: dict[frozenset, int] = {}
    for (u, w), c in ordered.items():
        if u != w:
            key = frozenset((u, w))
            pairs[key] = pairs.get(key, 0) + c
    return BigramCounts(pairs=pairs)


def filter_bigrams(
    counts: BigramCounts, threshold: int, strict_greater: bool = False
) -> BigramCounts:
    """Keep pairs with count >= threshold (or > threshold if strict_greater)."""
    if threshold < 1:
        raise CorpusError("bigram threshold must be >= 1")
    if strict_greater:
        kept = {p: c for p, c in counts.pairs.items() if c > threshold}
    else:
        kept = {p: c for p, c in counts.pairs.items() if c >= threshold}
    return BigramCounts(pairs=kept)


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise CorpusError(f"{path}: not UTF-8 text") from None


def read_stopwords(path) -> frozenset[str]:
    """One token per line, UTF-8."""
    lines = _read_text(path).splitlines()
    return frozenset(t.strip() for t in lines if t.strip())


def read_lemma_table(path) -> dict[str, str]:
    """Two-column TSV, surface form then lemma; a lemma must be one token."""
    table = {}
    for lineno, line in enumerate(_read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise CorpusError(f"{path}:{lineno}: expected 2 tab-separated columns")
        lemma = parts[1].strip()
        if not lemma or _SPACE_RE.search(lemma):
            raise CorpusError(f"{path}:{lineno}: bad lemma {lemma!r}")
        table[parts[0].strip()] = lemma
    return table
