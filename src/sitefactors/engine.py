"""Latent-factor extraction engine.

Pipeline: correlation matrix R, ridged once in place if need be -> squared-
multiple-correlation start values from the one inverse of R, dropped at
once -> iterated principal-axis factoring with Kaiser retention, in R's own
buffer: a full eigendecomposition on the first pass, and on each later pass
a Chebyshev-filtered subspace step on the last pass's retained eigenvectors,
with a full eigendecomposition again wherever that step cannot vouch for its
pairs -> varimax rotation -> regression scoring weights, solved against R.
:func:`fit_factor_model` chains the stages and returns a fully populated,
sign-canonicalized model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .datamodel import AttributeTable
from .errors import (
    DimensionMismatchError,
    NoFactorRetainedError,
    SchemaError,
    SingularCorrelationError,
)

# A correlation matrix whose condition number exceeds CONDITION_LIMIT is not
# inverted as is; with ridge_fallback on, RIDGE_DELTA is added to its diagonal.
CONDITION_LIMIT = 1e12
RIDGE_DELTA = 1e-8
# Varimax stops after this many sweeps even if the criterion still improves.
VARIMAX_MAX_SWEEPS = 100
# A principal-axis pass after the first filters the last basis with a
# Chebyshev polynomial of degree SUBSPACE_DEGREE, for SUBSPACE_ROUNDS rounds
# at most, and keeps the Ritz pairs once their residuals and orthonormality
# are within SUBSPACE_TOLERANCE of the matrix's norm and no two retained Ritz
# values lie within RITZ_TIE of it; else the pass runs a full eigh.
SUBSPACE_DEGREE = 12
SUBSPACE_ROUNDS = 4
SUBSPACE_TOLERANCE = 1e-14
RITZ_TIE = 1e-8


@dataclass(frozen=True)
class EngineConfig:
    epsilon: float = 1e-5
    max_iterations: int = 200
    kaiser_threshold: float = 1.0
    ridge_fallback: bool = False
    varimax_tolerance: float = 1e-8

    def __post_init__(self):
        # the manifest records every setting, and JSON has no infinity
        if not 0 < self.epsilon < np.inf:
            raise SchemaError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.max_iterations < 1:
            raise SchemaError("max_iterations must be at least 1")
        # at or below 0 the rule keeps factors of non-positive eigenvalue,
        # whose zero loading columns make the scoring system singular
        if not self.kaiser_threshold > 0:
            raise SchemaError(
                f"kaiser_threshold must be positive, got {self.kaiser_threshold}"
            )
        # under NaN or a negative tolerance the sweeps never stop before the cap
        if not 0 <= self.varimax_tolerance < np.inf:
            raise SchemaError(
                "varimax_tolerance must be 0 or more and finite, got "
                f"{self.varimax_tolerance}"
            )


@dataclass(frozen=True)
class FactorModel:
    """Everything the extraction produces, each result once.

    `eigenvalues` are the retained values from the first pass (the ones the
    retention rule saw; variance percentages derive from them with
    `variance_accounting`); `trajectory` holds each pass's clamped
    communalities, read-only. `dominant_factor` is the 0-based factor of
    each attribute's largest |rotated loading|. The rotation-stage fields
    are None in the model `paf_iterate` returns.
    """

    attribute_names: tuple[str, ...]
    unrotated_loadings: np.ndarray
    eigenvalues: np.ndarray
    converged: bool
    trajectory: tuple[np.ndarray, ...]
    warnings: tuple[str, ...] = ()
    rotated_loadings: np.ndarray | None = None
    rotation: np.ndarray | None = None
    scoring_weights: np.ndarray | None = None
    dominant_factor: np.ndarray | None = None

    @property
    def n_factors(self) -> int:
        return self.unrotated_loadings.shape[1]

    @property
    def communalities(self) -> np.ndarray:
        return self.trajectory[-1]

    @property
    def iterations_used(self) -> int:
        return len(self.trajectory)

    @property
    def factor_labels(self) -> tuple[str, ...]:
        return factor_labels(self.n_factors)


def factor_labels(n_factors: int) -> tuple[str, ...]:
    """Labels of the retained factors in model order: factor_1, factor_2, ..."""
    return tuple(f"factor_{m + 1}" for m in range(n_factors))


@dataclass(frozen=True)
class FactorScores:
    values: np.ndarray
    region_ids: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        values.setflags(write=False)

    @property
    def n_factors(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class VarimaxResult:
    loadings: np.ndarray
    rotation: np.ndarray
    criterion_history: tuple[float, ...]
    sweeps_used: int
    converged: bool


def correlation(a: AttributeTable) -> np.ndarray:
    """Correlation of the raw attributes via the standardized table: N x N, C order.

    One buffer, exactly symmetric: numpy forms A A' by `syrk`, mirroring a
    triangle (a strided view would go through `gemm`, so it is copied)."""
    values = np.ascontiguousarray(a.values)
    corr = values @ values.T
    corr /= a.n_regions - 1
    np.fill_diagonal(corr, 1.0)
    return corr


def correlation_ridge(corr: np.ndarray, config: EngineConfig = EngineConfig()):
    """The ridge the fit adds to R's diagonal, in place: 0, or RIDGE_DELTA.

    Returns (ridge, warnings). The 2-norm condition number of the symmetric
    R is max|eigenvalue| / min|eigenvalue|, from one `eigvalsh`. The ridge
    path is flag-controlled and warns because a silent regularization would
    change results unannounced.
    """
    magnitudes = np.abs(np.linalg.eigvalsh(corr))
    # a zero eigenvalue makes the quotient inf, which is past the limit
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = magnitudes.max() / magnitudes.min()
    if cond <= CONDITION_LIMIT:
        return 0.0, ()
    if not config.ridge_fallback:
        raise SingularCorrelationError(
            f"correlation matrix condition number {cond:.3e} exceeds "
            f"{CONDITION_LIMIT:.1e}; enable ridge_fallback to proceed"
        )
    warning = (
        f"ridge: added {RIDGE_DELTA:.1e} to the correlation diagonal "
        f"(condition number {cond:.3e})"
    )
    return RIDGE_DELTA, (warning,)


def initial_communalities(corr: np.ndarray):
    """Squared multiple correlations: 1 - 1/diag(R^-1), R ridged if need be.

    Returns (values, warnings), the values clamped into [0, 1]. The inverse
    is the fit's only one, and it is gone when this returns.
    """
    values = 1.0 - 1.0 / np.diag(np.linalg.inv(corr))
    clamped = np.clip(values, 0.0, 1.0)
    warnings = ()
    if np.any(clamped != values):
        warnings = ("heywood: initial communalities clamped into [0, 1]",)
    return clamped, warnings


def retained_count(first_eigenvalues: np.ndarray, config: EngineConfig = EngineConfig()) -> int:
    """The Kaiser count: how many of the first pass's eigenvalues, largest
    first, reach `config.kaiser_threshold`. None is a NoFactorRetainedError."""
    n_factors = int(np.sum(first_eigenvalues >= config.kaiser_threshold))
    if n_factors == 0:
        raise NoFactorRetainedError(
            "no eigenvalue reached the retention threshold "
            f"{config.kaiser_threshold:g} (largest was {first_eigenvalues[0]:.6g})"
        )
    return n_factors


def _subspace_pairs(corr, diagonal, basis, anchor):
    """The retained eigenpairs of `corr`, largest first, from a warm basis; or None.

    `basis` holds the last pass's retained eigenvectors. `anchor` holds the
    diagonal, the retained count's last eigenvalue, the next one, the lowest
    one and the 2-norm of the last full eigh. Only the diagonal has moved
    since, each entry by `low` to `high`, so by Weyl's bound every
    unretained eigenvalue lies in [lower, upper], every retained one at or
    above `kept + low` and none above `norm + high`. Each round damps that
    interval with a Chebyshev polynomial (Zhou & Saad 2007), orthonormalizes
    the block by SVQB (Stathopoulos & Wu 2002) and takes one Rayleigh-Ritz
    step. None stands for no gap under the bound (or one too narrow for the
    filter), no convergence, a collapsed Gram matrix or tied Ritz values.
    """
    anchor_diagonal, kept, dropped, lowest, norm = anchor
    change = diagonal - anchor_diagonal
    low, high = change.min(), change.max()
    lower, upper = lowest + low, dropped + high
    if not kept + low > upper > lower:
        return None
    centre, half = (upper + lower) / 2, (upper - lower) / 2
    # the filter's gain at the top of the spectrum, cosh(d arccosh(t)), is
    # kept below e^300 so that the block's Gram matrix stays finite
    if SUBSPACE_DEGREE * np.arccosh((norm + high - centre) / half) > 300:
        return None
    for _ in range(SUBSPACE_ROUNDS):
        # T_k((A - centre I) / half) applied to the basis by the three-term
        # rule, the centre taken off A's diagonal in place; N x M blocks only
        np.fill_diagonal(corr, diagonal - centre)
        previous, block = basis, corr @ basis
        block /= half
        for _ in range(SUBSPACE_DEGREE - 1):
            step = corr @ block
            step *= 2.0 / half
            step -= previous
            previous, block = block, step
        np.fill_diagonal(corr, diagonal)
        del previous, step
        gram = block.T @ block
        scaling = 1.0 / np.sqrt(np.diag(gram))
        spread, axes = np.linalg.eigh(gram * scaling * scaling[:, None])
        if not spread[0] > SUBSPACE_TOLERANCE * spread[-1]:
            return None
        block *= scaling
        frame = block @ (axes / np.sqrt(spread))
        del block
        image = corr @ frame
        values, turn = np.linalg.eigh(frame.T @ image)
        values, turn = values[::-1], turn[:, ::-1]
        basis = frame @ turn
        del frame
        residual = image @ turn
        del image
        residual -= basis * values
        if np.sum(residual**2, axis=0).max() <= (SUBSPACE_TOLERANCE * norm) ** 2:
            break
    else:
        return None
    drift = np.abs(basis.T @ basis - np.eye(len(values))).max()
    gaps = values[:-1] - values[1:]
    if drift > SUBSPACE_TOLERANCE or values[-1] <= upper or np.any(gaps <= RITZ_TIE * norm):
        return None
    return values, basis


def paf_iterate(corr: np.ndarray, config: EngineConfig = EngineConfig()) -> FactorModel:
    """Iterated principal-axis extraction from squared-multiple-correlation starts.

    The starts come from the inverse of `corr`, ridged if need be, which is
    dropped before the first pass. Each pass writes the current communality
    estimates onto the diagonal of `corr` itself (borrowed, not copied, and
    given back bit-identical on return or raise), takes the retained
    eigenpairs, rebuilds loadings from them (square roots taken only for
    positive eigenvalues) and updates the communalities as row sums of
    squared loadings. The first pass runs a full `eigh`, which fixes the
    retained count by `retained_count`, the selection eigenvalues and the
    starting basis. Between passes only the diagonal changes, so a later
    pass takes its pairs from `_subspace_pairs`, which filters the last
    pass's basis; where that step returns None the pass runs a full `eigh`,
    which also renews the step's bounds. The loop stops when the total
    absolute communality change drops below epsilon.
    """
    # an integer buffer would truncate each diagonal written into it
    if corr.dtype != np.float64 or not corr.flags.writeable:
        raise TypeError("paf_iterate writes into corr: pass a writeable float64 array")
    comm, start_warnings = initial_communalities(corr)
    diagonal = np.diag(corr).copy()
    trajectory: list[np.ndarray] = []
    heywood_hits: list[int] = []
    worst_heywood = 1.0
    anchor = None

    try:
        for iteration in range(1, config.max_iterations + 1):
            np.fill_diagonal(corr, comm)
            pairs = None if anchor is None else _subspace_pairs(corr, comm, vectors, anchor)
            if pairs is None:
                values, vectors = np.linalg.eigh(corr)
                values, vectors = values[::-1], vectors[:, ::-1]
                if iteration == 1:
                    n_factors = retained_count(values, config)
                    selection_eigenvalues = values[:n_factors].copy()
                # with every factor retained no eigenvalue is left to damp
                if n_factors < len(values):
                    norm = max(values[0], -values[-1])
                    anchor = (comm, values[n_factors - 1], values[n_factors], values[-1], norm)
                # only the retained block is kept: the N x N matrix is not
                # alive beside the next pass's solve
                pairs = values[:n_factors], np.ascontiguousarray(vectors[:, :n_factors])
            values, vectors = pairs
            loadings = vectors * np.sqrt(np.maximum(values, 0.0))
            updated = np.sum(loadings**2, axis=1)
            if np.any(updated > 1.0):
                heywood_hits.append(iteration)
                worst_heywood = max(worst_heywood, float(updated.max()))
                updated = np.clip(updated, 0.0, 1.0)
            delta = float(np.sum(np.abs(updated - comm)))
            updated.setflags(write=False)
            trajectory.append(updated)
            comm = updated
            if delta < config.epsilon:
                break
    finally:
        np.fill_diagonal(corr, diagonal)

    converged = delta < config.epsilon
    warnings = list(start_warnings)
    if heywood_hits:
        warnings.append(
            f"heywood: communalities above 1 clamped in {len(heywood_hits)} "
            f"iteration(s), first at {heywood_hits[0]}, worst {worst_heywood:.6f}"
        )
    if not converged:
        warnings.append(
            f"non_convergence: iteration cap {config.max_iterations} reached "
            f"(last total change {delta:.3e})"
        )
    return FactorModel(
        attribute_names=(),
        unrotated_loadings=loadings,
        eigenvalues=selection_eigenvalues,
        converged=converged,
        trajectory=tuple(trajectory),
        warnings=tuple(warnings),
    )


def variance_accounting(eigenvalues, n_attributes: int):
    """Percent of total variance per eigenvalue plus the running total.

    Order is preserved: the cumulative column is the prefix sum in the order
    the eigenvalues are given.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    pct = eigenvalues / n_attributes * 100.0
    return pct, np.cumsum(pct)


def varimax_criterion(loadings) -> float:
    """Sum over factors of the variance of the squared loadings."""
    squared = np.asarray(loadings, dtype=float) ** 2
    return float(np.sum(np.mean(squared**2, axis=0) - np.mean(squared, axis=0) ** 2))


def _pair_waves(m: int) -> list[np.ndarray]:
    """The cyclic pairs (0, 1), (0, 2), ..., (m - 2, m - 1) in waves of disjoint pairs.

    Pair (p, q) goes in wave p + q - 1, the one after the last waves of p and
    q, so each factor meets its pairs in the cyclic order and no two pairs of
    a wave share a factor. Rotations of disjoint factors commute exactly, so
    a wave run at once gives the bits of its pairs run in turn.
    """
    return [
        np.array([(p, s - p) for p in range(max(0, s - m + 1), (s + 1) // 2)])
        for s in range(1, 2 * m - 2)
    ]


def varimax(
    loadings,
    tolerance: float = 1e-8,
    max_sweeps: int = VARIMAX_MAX_SWEEPS,
) -> VarimaxResult:
    """Varimax rotation by pairwise planar sweeps with Kaiser normalization.

    Rows are scaled to unit length (zero rows are left alone), all column
    pairs are rotated by their criterion-maximizing angle in the cyclic
    order, a wave of disjoint pairs at a time, and sweeping stops once a
    full sweep improves the criterion by less than `tolerance`, or not at
    all. The rotation matrix is accumulated so the returned loadings are
    exactly `loadings @ rotation`.
    """
    loadings = np.asarray(loadings, dtype=float)
    n, m = loadings.shape
    if m == 1:
        return VarimaxResult(
            loadings=loadings.copy(),
            rotation=np.eye(1),
            criterion_history=(varimax_criterion(loadings),),
            sweeps_used=0,
            converged=True,
        )

    norms = np.sqrt(np.sum(loadings**2, axis=1))
    scale = np.where(norms > 0, norms, 1.0)
    # factor-major state: row p holds factor p of the normalized loadings and
    # row p of the rotation, transposed, side by side, so one gather per wave
    # takes both; the criterion is taken on a C-ordered (n, m) copy, since
    # its reductions round by memory order
    state = np.zeros((m, n + m))
    working, turned = state[:, :n], state[:, n:]
    working[...] = (loadings / scale[:, None]).T
    np.fill_diagonal(turned, 1.0)
    waves = _pair_waves(m)
    history = [varimax_criterion(working.T.copy())]
    converged = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        for pairs in waves:
            block = state[pairs]
            x, y = block[:, 0, :n], block[:, 1, :n]
            # each pair rounds as it would rotated alone with scalar steps:
            # x * (2y) as (2x) * y, doubling being exact; each row sum as
            # u.sum(); each stacked (1, n) @ (n, 1) product as the ddot of
            # u.dot(v); and Python's ** as libm's pow, from which numpy's
            # square and power differ in the last bit now and then
            u = x * x - y * y
            v = x * (y * 2.0)
            u_sum, v_sum = u.sum(1), v.sum(1)
            uv, uu, vv = (
                (a[:, None] @ b[..., None]).ravel() for a, b in ((u, v), (u, u), (v, v))
            )
            squares = [a**2 - b**2 for a, b in zip(u_sum.tolist(), v_sum.tolist())]
            numer = 2.0 * uv - 2.0 * u_sum * v_sum / n
            denom = uu - vv - np.array(squares) / n
            angle = 0.25 * np.arctan2(numer, denom)
            # a pair at angle 0 keeps its rows as they are, signed zeros too
            turning = angle != 0.0
            if not turning.all():
                pairs, block, angle = pairs[turning], block[turning], angle[turning]
            cos, sin = np.cos(angle), np.sin(angle)
            planes = np.stack((cos, sin, -sin, cos), 1).reshape(-1, 2, 2)
            state[pairs] = planes @ block
        history.append(varimax_criterion(working.T.copy()))
        # at tolerance 0 a sweep that no longer raises the criterion ends it
        change = history[-1] - history[-2]
        if change < tolerance or change <= 0.0:
            converged = True
            break
    rotation = turned.T.copy()
    return VarimaxResult(
        loadings=loadings @ rotation,
        rotation=rotation,
        criterion_history=tuple(history),
        sweeps_used=sweeps,
        converged=converged,
    )


def scoring_weights(corr: np.ndarray, rotated_loadings) -> np.ndarray:
    """Regression-method scoring weights (L' R^-1 L)^-1 L' R^-1, a left
    inverse of the loadings L, with R the correlation, ridged if need be.
    X = R^-1 L comes from a solve against R, no inverse, and the weights
    from a second solve: (X' L)^-1 X'."""
    loadings = np.asarray(rotated_loadings, dtype=float)
    projected = np.linalg.solve(corr, loadings).T
    return np.linalg.solve(projected @ loadings, projected)


def factor_scores(weights, a: AttributeTable) -> FactorScores:
    """Per-region factor scores: weights applied to the standardized table."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape[1] != a.n_attributes:
        raise DimensionMismatchError(
            f"weights expect {weights.shape[1]} attributes, matrix has {a.n_attributes}"
        )
    return FactorScores(values=weights @ a.values, region_ids=a.region_ids)


def dominant_attributes(rotated_loadings):
    """Assign every attribute to the factor with the largest absolute loading.

    Returns (assigned, warnings): the 0-based factor per attribute, and a
    warning per exact tie, which goes to the lowest factor index.
    """
    magnitude = np.abs(np.asarray(rotated_loadings, dtype=float))
    assigned = magnitude.argmax(axis=1)
    warnings = []
    for i in range(len(assigned)):
        ties = np.flatnonzero(magnitude[i] == magnitude[i, assigned[i]])
        if len(ties) > 1:
            warnings.append(
                f"tie: attribute index {i} has equal |loading| on factors "
                f"{[int(t) + 1 for t in ties]}; assigned to factor {int(assigned[i]) + 1}"
            )
    return assigned, tuple(warnings)


def sign_canonicalize(rotated, rotation, weights):
    """Flip rotated factor columns whose largest-|loading| entry is negative.

    One vector of +-1 flips the rotated loadings' columns, the rotation's
    columns and the scoring weights' rows, which are returned in that
    order, so a model built from them stays internally consistent and
    downstream scores pick the flip up automatically. Idempotent, and
    independent of eigen solver sign conventions.
    """
    columns = np.arange(rotated.shape[1])
    pivots = np.abs(rotated).argmax(axis=0)
    flip = np.where(rotated[pivots, columns] < 0, -1.0, 1.0)
    # C order whatever the inputs' order: the scores matmul rounds by layout
    return (
        np.multiply(rotated, flip, order="C"),
        np.multiply(rotation, flip, order="C"),
        np.multiply(weights, flip[:, None], order="C"),
    )


def fit_factor_model(
    a: AttributeTable, config: EngineConfig = EngineConfig()
) -> FactorModel:
    """Full extraction chain on a standardized table.

    Runs correlation -> the ridge decision, added to R's diagonal -> start
    communalities -> principal-axis iteration -> varimax -> scoring weights,
    then sign-canonicalizes and assigns each attribute its dominant factor.
    The returned model carries the attribute names and all accumulated
    warnings, the ridge note first and the tie warnings last.
    """
    corr = correlation(a)
    ridge, ridge_warnings = correlation_ridge(corr, config)
    corr[np.diag_indices_from(corr)] += ridge
    model = paf_iterate(corr, config)
    # the cap is read at call time, so it can be lowered module-wide
    rotated = varimax(
        model.unrotated_loadings,
        tolerance=config.varimax_tolerance,
        max_sweeps=VARIMAX_MAX_SWEEPS,
    )
    rotation_warnings = ()
    if not rotated.converged:
        history = rotated.criterion_history
        rotation_warnings = (
            f"non_convergence: varimax sweep cap {VARIMAX_MAX_SWEEPS} "
            f"reached (last criterion change {history[-1] - history[-2]:.3e})",
        )
    weights = scoring_weights(corr, rotated.loadings)
    loadings, rotation, weights = sign_canonicalize(
        rotated.loadings, rotated.rotation, weights
    )
    dominant, tie_warnings = dominant_attributes(loadings)
    return replace(
        model,
        attribute_names=a.attribute_names,
        rotated_loadings=loadings,
        rotation=rotation,
        scoring_weights=weights,
        dominant_factor=dominant,
        warnings=ridge_warnings + model.warnings + rotation_warnings + tie_warnings,
    )
