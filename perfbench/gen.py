"""Seeded planted-truth corpora for the benchmark workloads.

Every document is a sequence of blocks: a run of words from one planted
community (consecutive words distinct, so each run yields within-community
bigrams) followed by a stretch of Zipf-distributed background words. The run's
community is drawn with a rate that is log-linear in the document's planted
position theta, which is what the Poisson scaling model estimates.

Everything is vectorised numpy: the generator does not use the package under
test, so the inputs stay fixed while the package changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class CorpusShape:
    n_docs: int
    runs_per_doc: int
    run_length: int
    background_per_run: int  # background tokens after each community run
    n_communities: int
    community_sizes: tuple[int, int]  # inclusive range of words per community
    background_vocab: int
    zipf_exponent: float = 1.07
    polarity_sd: float = 0.8
    background_polarity_sd: float = 0.2
    n_eras: int = 5


def _syllable_names(n: int, prefix: str) -> np.ndarray:
    """Distinct lowercase alphabetic words, so no token is purely numeric."""
    letters = np.array(list("bcdfghklmnprstvz"))
    vowels = np.array(list("aeiou"))
    names = []
    for i in range(n):
        word, k = prefix, i
        while True:
            word += letters[k % 16] + vowels[(k // 16) % 5]
            k //= 80
            if k == 0:
                break
        names.append(word)
    return np.array(names)


def _era_theta(rng: np.random.Generator, n_docs: int, n_eras: int):
    """Documents in order fall into eras; era means drift as a random walk and
    documents scatter around their era mean. Returned theta is z-scored."""
    era = np.arange(n_docs) * n_eras // n_docs
    era_mean = np.cumsum(rng.normal(scale=0.8, size=n_eras))
    theta = era_mean[era] + rng.normal(scale=0.6, size=n_docs)
    return era, (theta - theta.mean()) / theta.std(ddof=1)


def _draw_rows(rng, probs: np.ndarray, size: int) -> np.ndarray:
    """One categorical draw per (row, column): probs is (rows, categories)."""
    cum = np.cumsum(probs, axis=1)
    cum /= cum[:, -1:]
    u = rng.random((probs.shape[0], size))
    out = np.empty((probs.shape[0], size), dtype=np.int64)
    for i in range(probs.shape[0]):
        out[i] = np.searchsorted(cum[i], u[i], side="right")
    return np.minimum(out, probs.shape[1] - 1)


def make_corpus(shape: CorpusShape, seed: int, structure_seed: int = 0):
    """Return (records, theta) for one planted corpus.

    ``structure_seed`` fixes the planted population: positions, eras,
    communities and their polarities. ``seed`` draws the tokens from it.
    records is a list of JSONL-ready dicts with ``id``, ``era`` and ``text``.
    """
    fixed = np.random.default_rng(structure_seed)
    rng = np.random.default_rng(seed)
    n, r = shape.n_docs, shape.runs_per_doc
    era, theta = _era_theta(fixed, n, shape.n_eras)

    lo, hi = shape.community_sizes
    sizes = fixed.integers(lo, hi + 1, size=shape.n_communities)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    n_com_words = int(sizes.sum())
    polarity = fixed.normal(scale=shape.polarity_sd, size=shape.n_communities)
    base = fixed.normal(scale=0.5, size=shape.n_communities)
    rates = np.exp(base[None, :] + theta[:, None] * polarity[None, :])
    run_com = _draw_rows(rng, rates, r)  # (n, r)

    # words inside a run: uniform start, then a uniform non-zero step modulo
    # the community size, so adjacent words always differ
    size_of = sizes[run_com][..., None]  # (n, r, 1)
    steps = 1 + np.floor(rng.random((n, r, shape.run_length)) * (size_of - 1))
    steps[..., 0] = np.floor(rng.random((n, r)) * size_of[..., 0])
    within = np.cumsum(steps, axis=2).astype(np.int64) % size_of
    run_words = offsets[run_com][..., None] + within  # (n, r, run_length)

    blocks = [run_words]
    if shape.background_per_run > 0:
        v = shape.background_vocab
        zipf = 1.0 / (np.arange(v) + 2.7) ** shape.zipf_exponent
        bg_pol = fixed.normal(scale=shape.background_polarity_sd, size=v)
        bg_rates = zipf[None, :] * np.exp(theta[:, None] * bg_pol[None, :])
        bg = _draw_rows(rng, bg_rates, r * shape.background_per_run)
        blocks.append(n_com_words + bg.reshape(n, r, shape.background_per_run))
    ids = np.concatenate(blocks, axis=2).reshape(n, -1)

    vocab = np.concatenate([
        _syllable_names(n_com_words, "q"),
        _syllable_names(shape.background_vocab, "x"),
    ])
    records = [
        {"id": f"d{i:05d}", "era": f"e{era[i]}", "text": " ".join(vocab[ids[i]])}
        for i in range(n)
    ]
    return records, theta


def write_inputs(directory: Path, shape: CorpusShape, seed: int, config: dict) -> dict:
    """Write corpus.jsonl, config.txt and theta.json; return the file paths."""
    directory.mkdir(parents=True, exist_ok=True)
    records, theta = make_corpus(shape, seed)
    corpus = directory / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    theta_path = directory / "theta.json"
    theta_path.write_text(json.dumps(
        {rec["id"]: float(t) for rec, t in zip(records, theta)}))
    config_path = directory / "config.txt"
    lines = [f"input = {corpus.resolve()}", "format = jsonl"]
    lines += [f"{k} = {v}" for k, v in config.items()]
    config_path.write_text("\n".join(lines) + "\n")
    return {"corpus": corpus, "theta": theta_path, "config": config_path}
