"""Generative simulation harness: planted-truth count matrices and corpora,
and recovery metrics against the planted positions. The community-vs-unigram
comparison is ``communityfish.cli.compare_models``."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .corpus import Corpus, Document, tokenize
from .features import CountMatrix
from .scaling import ScalingResult

# Unused here. perfbench/child.py wraps these seven stage functions by name on
# this module as well as on communityfish.cli, so the names must resolve.
from .corpus import count_bigrams, filter_bigrams  # noqa: F401
from .features import community_dtm, unigram_dtm  # noqa: F401
from .graph import build_graph, louvain  # noqa: F401
from .scaling import fit  # noqa: F401


class SynthError(ValueError):
    """Raised for invalid simulation specs or persistently degenerate draws."""


def check_spec(n_docs: int, n_features: int, expected_row_total: int) -> None:
    """A SynthError naming the first spec value below its floor."""
    for key, value, floor in (("n_docs", n_docs, 2), ("n_features", n_features, 2),
                              ("expected_row_total", expected_row_total, 1)):
        if value < floor:
            raise SynthError(f"spec key {key!r} must be >= {floor}, got {value!r}")


@dataclass(frozen=True)
class SyntheticSpec:
    n_docs: int
    n_features: int
    expected_row_total: int
    seed: int
    theta_star: np.ndarray
    beta_star: np.ndarray
    psi_star: np.ndarray
    alpha_star: np.ndarray

    @classmethod
    def create(
        cls,
        n_docs: int = 25,
        n_features: int = 40,
        expected_row_total: int = 500,
        seed: int = 0,
    ) -> "SyntheticSpec":
        check_spec(n_docs, n_features, expected_row_total)
        rng = np.random.default_rng(seed)
        theta = rng.normal(size=n_docs)
        theta = (theta - theta.mean()) / theta.std(ddof=1)
        beta = rng.normal(size=n_features)
        psi = rng.normal(scale=0.5, size=n_features)
        alpha = rng.normal(scale=0.3, size=n_docs)
        alpha[0] = 0.0
        # shift psi so the average expected row total hits the target
        rates = np.exp(alpha[:, None] + psi[None, :] + theta[:, None] * beta[None, :])
        psi = psi + np.log(expected_row_total / rates.sum(axis=1).mean())
        return cls(
            n_docs=n_docs,
            n_features=n_features,
            expected_row_total=expected_row_total,
            seed=seed,
            theta_star=theta,
            beta_star=beta,
            psi_star=psi,
            alpha_star=alpha,
        )


def generate_matrix(spec: SyntheticSpec) -> tuple[CountMatrix, SyntheticSpec]:
    """Draw counts from the exact Poisson model; degenerate draws (all-zero
    row or column) are resampled up to 10 times."""
    rng = np.random.default_rng(spec.seed)
    rates = np.exp(
        spec.alpha_star[:, None]
        + spec.psi_star[None, :]
        + spec.theta_star[:, None] * spec.beta_star[None, :]
    )
    for _ in range(10):
        y = rng.poisson(rates)
        if (y.sum(axis=1) > 0).all() and (y.sum(axis=0) > 0).all():
            matrix = CountMatrix(
                doc_ids=tuple(f"doc_{i}" for i in range(spec.n_docs)),
                feature_labels=tuple(f"feat_{j}" for j in range(spec.n_features)),
                counts=y,
            )
            return matrix, spec
    raise SynthError("persistent degenerate draws: all-zero row or column")


@dataclass(frozen=True)
class PlantedCorpusSpec:
    """Corpus generator spec: documents are streams of word runs, each run
    drawn from one planted community with a theta-dependent intensity."""

    communities: tuple[tuple[str, ...], ...]
    polarity: tuple[float, ...]  # per-community log-rate slope in theta
    n_docs: int = 20
    runs_per_doc: int = 40
    run_length: int = 10
    # Dirichlet concentration of per-document word preferences inside a
    # community; small values give each document idiosyncratic word choice
    # (community totals are unaffected, word-level counts become noisy)
    word_concentration: float = 1.0
    seed: int = 0
    theta_star: np.ndarray | None = None

    def __post_init__(self):
        if len(self.communities) < 2:
            raise SynthError("need >= 2 planted communities")
        if len(self.polarity) != len(self.communities):
            raise SynthError("polarity must match the number of communities")
        if self.n_docs < 1:
            raise SynthError("need at least one document")
        for com in self.communities:
            if len(com) < 2:
                raise SynthError("planted communities need >= 2 words")
            # a document's text is its words joined by spaces
            for word in com:
                if tokenize(Document(id="word", text=word)) != (word,):
                    raise SynthError(f"planted word {word!r} does not tokenize to itself")


def generate_corpus(
    spec: PlantedCorpusSpec, doc_metadata: list[dict] | None = None
) -> tuple[Corpus, PlantedCorpusSpec]:
    """Sample documents so that each planted community's words co-occur
    adjacently within runs, with run frequencies following the planted
    theta-dependent intensities. A document's text is its words joined by
    spaces, so its tokens are those words."""
    rng = np.random.default_rng(spec.seed)
    theta = spec.theta_star
    if theta is None:
        theta = rng.normal(size=spec.n_docs)
        theta = (theta - theta.mean()) / theta.std(ddof=1)
    polarity = np.asarray(spec.polarity)
    docs = []
    for i in range(spec.n_docs):
        weights = np.exp(polarity * theta[i])
        probs = weights / weights.sum()
        word_prefs = [
            rng.dirichlet(np.full(len(com), spec.word_concentration))
            for com in spec.communities
        ]
        tokens: list[str] = []
        for _ in range(spec.runs_per_doc):
            c = int(rng.choice(len(spec.communities), p=probs))
            words = spec.communities[c]
            pref = word_prefs[c]
            prev = None
            for _ in range(spec.run_length):
                if prev is not None and len(words) > 1:
                    p = pref.copy()
                    p[words.index(prev)] = 0.0
                    p = p / p.sum()
                else:
                    p = pref
                w = words[int(rng.choice(len(words), p=p))]
                tokens.append(w)
                prev = w
        meta = dict(doc_metadata[i]) if doc_metadata else {}
        meta.setdefault("theta_star", f"{theta[i]:.6f}")
        docs.append(Document(id=f"doc_{i}", text=" ".join(tokens), metadata=meta))
    return Corpus(tuple(docs)), replace(spec, theta_star=theta)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def spearman(a, b) -> float | None:
    """Spearman rank correlation: Pearson's r of the average ranks. None
    when a or b has fewer than two distinct values: then it is undefined."""
    ranks = np.column_stack([_average_ranks(a), _average_ranks(b)])
    if (ranks.min(axis=0) == ranks.max(axis=0)).any():
        return None
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def recovery_report(theta_star: np.ndarray, result: ScalingResult) -> dict:
    """Recovery metrics for a fit against the planted positions, after sign
    alignment (the model's direction is arbitrary)."""
    theta_hat = result.params.theta
    if theta_hat.shape != theta_star.shape:
        raise SynthError("dimension mismatch between truth and fit")
    sign = 1.0 if np.corrcoef(theta_hat, theta_star)[0, 1] >= 0 else -1.0
    aligned = sign * theta_hat
    pearson = float(np.corrcoef(aligned, theta_star)[0, 1])
    # affine alignment before RMSE: truth regressed on the aligned estimate
    slope, intercept = np.polyfit(aligned, theta_star, 1)
    rmse = float(np.sqrt(np.mean((slope * aligned + intercept - theta_star) ** 2)))
    report = {
        "pearson": pearson,
        "spearman": spearman(aligned, theta_star),
        "rmse_affine": rmse,
        "sign": sign,
    }
    if result.theta_ci_low is not None:
        low, high = result.theta_ci_low, result.theta_ci_high
        if sign < 0:
            low, high = -high, -low
        report["ci_coverage"] = float(np.mean((low <= theta_star) & (theta_star <= high)))
    return report
