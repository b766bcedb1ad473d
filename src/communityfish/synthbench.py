"""Generative simulation harness: planted-truth count matrices and corpora,
recovery metrics against the planted positions, and ``simulate``, which runs
one planted-truth recovery. The community-vs-unigram comparison is
``communityfish.cli.compare_models``."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .corpus import Corpus, Document, tokenize
from .features import CountMatrix
from .scaling import FitConfig, ScalingResult, bootstrap, fit

# Unused here. perfbench/child.py wraps these six stage functions, and fit, by
# name on this module as well as on communityfish.cli, so the names must resolve.
from .corpus import count_bigrams, filter_bigrams  # noqa: F401
from .features import community_dtm, unigram_dtm  # noqa: F401
from .graph import build_graph, louvain  # noqa: F401


class SynthError(ValueError):
    """Raised for invalid simulation specs or persistently degenerate draws."""


@dataclass(frozen=True)
class SimulationSpec:
    """The size of a planted count matrix: the keys of a ``simulate`` spec
    file, whose seed and bootstrap replicates come from the run's config. A
    value below its floor is a ``SynthError``."""

    n_docs: int = 25
    n_features: int = 40
    expected_row_total: int = 500

    def __post_init__(self):
        for key, floor in (("n_docs", 2), ("n_features", 2), ("expected_row_total", 1)):
            if (value := getattr(self, key)) < floor:
                raise SynthError(f"spec key {key!r} must be >= {floor}, got {value!r}")


@dataclass(frozen=True)
class SyntheticSpec:
    """Planted parameters: one document per theta, one feature per beta."""

    seed: int
    theta_star: np.ndarray
    beta_star: np.ndarray
    psi_star: np.ndarray
    alpha_star: np.ndarray

    @classmethod
    def create(
        cls,
        n_docs: int = SimulationSpec.n_docs,
        n_features: int = SimulationSpec.n_features,
        expected_row_total: int = SimulationSpec.expected_row_total,
        seed: int = 0,
    ) -> "SyntheticSpec":
        SimulationSpec(n_docs, n_features, expected_row_total)
        rng = np.random.default_rng(seed)
        try:  # a size past memory fails at its first draw, or at the rates
            theta = _standard_theta(rng, n_docs)
            beta = rng.normal(size=n_features)
            psi = rng.normal(scale=0.5, size=n_features)
            alpha = rng.normal(scale=0.3, size=n_docs)
            alpha[0] = 0.0
            spec = cls(seed, theta, beta, psi, alpha)
            rates = spec.rates()
        except (MemoryError, ValueError):
            raise SynthError(f"a {n_docs} x {n_features} planted matrix does not fit "
                             "in memory") from None
        try:  # shift psi so the average expected row total hits the target
            shift = np.log(expected_row_total / rates.sum(axis=1).mean())
        except OverflowError:  # a total past the float range
            raise SynthError("planted rates too large to draw") from None
        return replace(spec, psi_star=psi + shift)

    def rates(self) -> np.ndarray:
        """The planted Poisson rates exp(alpha_i + psi_j + theta_i * beta_j)."""
        return np.exp(self.alpha_star[:, None] + self.psi_star[None, :]
                      + self.theta_star[:, None] * self.beta_star[None, :])


def _standard_theta(rng: np.random.Generator, n_docs: int) -> np.ndarray:
    """Planted positions: standard normal draws, z-scored."""
    theta = rng.normal(size=n_docs)
    return (theta - theta.mean()) / theta.std(ddof=1)


def generate_matrix(spec: SyntheticSpec) -> tuple[CountMatrix, SyntheticSpec]:
    """Draw counts from the exact Poisson model; degenerate draws (all-zero
    row or column) are resampled up to 10 times."""
    rng = np.random.default_rng(spec.seed)
    rates = spec.rates()
    n, k = rates.shape
    for _ in range(10):
        try:
            y = rng.poisson(rates)
        except ValueError:  # a rate past what numpy's Poisson sampler draws
            raise SynthError("planted rates too large to draw") from None
        if (y.sum(axis=1) > 0).all() and (y.sum(axis=0) > 0).all():
            matrix = CountMatrix(
                doc_ids=tuple(f"doc_{i}" for i in range(n)),
                feature_labels=tuple(f"feat_{j}" for j in range(k)),
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
        if not np.isfinite(self.polarity).all():
            raise SynthError(f"polarity must be finite, got {self.polarity!r}")
        for key in ("n_docs", "runs_per_doc", "run_length"):
            if (value := getattr(self, key)) < 1:
                raise SynthError(f"spec key {key!r} must be >= 1, got {value!r}")
        theta = self.theta_star
        if theta is not None and not (np.shape(theta) == (self.n_docs,)
                                      and np.isfinite(theta).all()):
            raise SynthError(f"theta_star must hold n_docs = {self.n_docs} finite positions")
        if not 0 < self.word_concentration < np.inf:
            raise SynthError("word_concentration must be positive and finite, "
                             f"got {self.word_concentration!r}")
        for com in self.communities:
            if len(com) < 2:
                raise SynthError("planted communities need >= 2 words")
            # a document's text is its words joined by spaces
            for word in com:
                if tokenize(Document(id="word", text=word)) != (word,):
                    raise SynthError(f"planted word {word!r} does not tokenize to itself")


def _cdf(p: np.ndarray) -> list[float]:
    """The table ``rng.choice(len(p), p=p)`` draws from: its pick for one
    ``rng.random()`` double ``u`` is ``bisect_right(table, u)``."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def generate_corpus(
    spec: PlantedCorpusSpec, doc_metadata: list[dict] | None = None
) -> tuple[Corpus, PlantedCorpusSpec]:
    """Sample documents so that each planted community's words co-occur
    adjacently within runs, with run frequencies following the planted
    theta-dependent intensities. A document's text is its words joined by
    spaces, so its tokens are those words."""
    if doc_metadata is not None and len(doc_metadata) != spec.n_docs:
        raise SynthError(f"doc_metadata holds {len(doc_metadata)} entries "
                         f"for {spec.n_docs} documents")
    rng = np.random.default_rng(spec.seed)
    theta = spec.theta_star
    if theta is None:
        theta = _standard_theta(rng, spec.n_docs)
    polarity = np.asarray(spec.polarity)
    docs = []
    for i in range(spec.n_docs):
        with np.errstate(over="ignore", under="ignore"):
            weights = np.exp(polarity * theta[i])
            total = weights.sum()
        if not 0 < total < np.inf:
            raise SynthError(f"document {i}: run intensities exp(polarity * theta) "
                             f"{'overflow' if total else 'all underflow to 0'}")
        run_cdf = _cdf(weights / total)
        # each community's table of its first word, from the document's word
        # preference, and of the word after each word: the preference with
        # that word's first index zeroed, renormalized
        tables = []
        for c, words in enumerate(spec.communities):
            pref = rng.dirichlet(np.full(len(words), spec.word_concentration))
            after = {}
            for word in words:
                p = pref.copy()
                p[words.index(word)] = 0.0
                if not (total := p.sum()) > 0:
                    raise SynthError(f"document {i}, planted community {c}: the word preference "
                                     f"puts all weight on {word!r}, so no word can follow it")
                after[word] = _cdf(p / total)
            tables.append((_cdf(pref), after))
        # one double per run and per word, in the order they are drawn
        draws = iter(rng.random(spec.runs_per_doc * (1 + spec.run_length)).tolist())
        tokens: list[str] = []
        for _ in range(spec.runs_per_doc):
            c = bisect_right(run_cdf, next(draws))
            words, (cdf, after) = spec.communities[c], tables[c]
            for _ in range(spec.run_length):
                word = words[bisect_right(cdf, next(draws))]
                tokens.append(word)
                cdf = after[word]
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


def simulate(sim: SimulationSpec, config: FitConfig, seed: int, bootstrap_b: int) -> dict:
    """One planted-truth recovery run: draw a planted matrix of size ``sim``
    from ``seed``, fit it under ``config``, bootstrap it with ``bootstrap_b``
    replicates when that is positive, and return the fit's summary and its
    recovery metrics as one dict of JSON values."""
    spec = SyntheticSpec.create(sim.n_docs, sim.n_features, sim.expected_row_total, seed=seed)
    matrix, spec = generate_matrix(spec)
    result = fit(matrix, config)
    if bootstrap_b > 0:
        result = bootstrap(result, B=bootstrap_b, seed=seed)
    return {**result.summary(), **recovery_report(spec.theta_star, result)}
