"""Latent-factor extraction engine.

Pipeline: correlation matrix -> squared-multiple-correlation start values ->
iterated principal-axis factoring with Kaiser retention -> varimax rotation
-> regression scoring weights. Every stage is a pure function; the
convenience wrapper :func:`fit_factor_model` chains them and returns a fully
populated, sign-canonicalized model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .datamodel import StandardizedMatrix
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


@dataclass(frozen=True)
class EngineConfig:
    epsilon: float = 1e-5
    max_iterations: int = 200
    kaiser_threshold: float = 1.0
    ridge_fallback: bool = False
    varimax_tolerance: float = 1e-8
    varimax_max_sweeps: int = 100

    def __post_init__(self):
        if not self.epsilon > 0:
            raise SchemaError("epsilon must be positive")
        if self.max_iterations < 1:
            raise SchemaError("max_iterations must be at least 1")
        # at or below 0 the rule keeps factors of non-positive eigenvalue,
        # whose zero loading columns make the scoring system singular
        if not self.kaiser_threshold > 0:
            raise SchemaError(
                f"kaiser_threshold must be positive, got {self.kaiser_threshold}"
            )
        # under NaN or a negative tolerance the sweeps never stop before the cap
        if not self.varimax_tolerance >= 0:
            raise SchemaError(
                f"varimax_tolerance must be 0 or more, got {self.varimax_tolerance}"
            )
        if self.varimax_max_sweeps < 1:
            raise SchemaError("varimax_max_sweeps must be at least 1")


@dataclass(frozen=True)
class CorrelationMatrix:
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        values.setflags(write=False)

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @cached_property
    def condition_number(self) -> float:
        """2-norm condition number, taken once and shared by every stage.

        Only the number is kept: a cached inverse would stay alive through
        the principal-axis loop and raise the peak memory of a wide fit.
        """
        return np.linalg.cond(self.values)


@dataclass(frozen=True)
class CommunalityVector:
    """Communality estimates at a given refinement step (clamped to [0, 1])."""

    values: np.ndarray
    iteration_index: int
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        values.setflags(write=False)


@dataclass(frozen=True)
class PafStep:
    """Loadings and updated communalities produced by one refinement pass."""

    loadings: np.ndarray
    communalities: np.ndarray
    delta: float


@dataclass(frozen=True)
class FactorModel:
    """Everything the extraction produces.

    `eigenvalues` are the retained values from the first pass (the ones the
    retention rule saw; variance percentages derive from them), while
    `final_eigenvalues`/`eigenvectors`/`adjusted_diagonal` describe the last
    eigendecomposition, kept so the residual of that decomposition can be
    audited. Rotation-related fields are None until the rotation and scoring
    stages fill them in.
    """

    attribute_names: tuple[str, ...]
    unrotated_loadings: np.ndarray
    eigenvalues: np.ndarray
    final_eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    adjusted_diagonal: np.ndarray
    communalities: CommunalityVector
    iterations_used: int
    converged: bool
    variance_percent: np.ndarray
    cumulative_variance_percent: np.ndarray
    trajectory: tuple[PafStep, ...]
    warnings: tuple[str, ...] = ()
    rotated_loadings: np.ndarray | None = None
    rotation: np.ndarray | None = None
    scoring_weights: np.ndarray | None = None

    @property
    def n_factors(self) -> int:
        return self.unrotated_loadings.shape[1]

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

    @property
    def n_regions(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class VarimaxResult:
    loadings: np.ndarray
    rotation: np.ndarray
    criterion_history: tuple[float, ...]
    sweeps_used: int
    converged: bool


@dataclass(frozen=True)
class DominantAttributeMap:
    """Assignment of each attribute to its highest-|loading| factor."""

    assigned_factor: np.ndarray  # per attribute, 0-based factor index
    assigned_loading: np.ndarray  # the signed loading behind the assignment
    per_factor: tuple[tuple[int, ...], ...]  # attribute indices by falling |loading|
    warnings: tuple[str, ...] = ()


def correlation(a: StandardizedMatrix) -> CorrelationMatrix:
    """Correlation of the raw attributes via the standardized matrix."""
    values = a.values
    r = a.n_regions
    corr = (values @ values.T) / (r - 1)
    corr = (corr + corr.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(values=corr)


def _inverse(corr: CorrelationMatrix, config: EngineConfig, stage: str) -> np.ndarray:
    """Inverse of the correlation matrix with the optional ridge fallback.

    Returns (inverse, warnings). The ridge path is flag-controlled because a
    silent regularization would change results unannounced.
    """
    matrix = corr.values
    cond = corr.condition_number
    if cond <= CONDITION_LIMIT:
        return np.linalg.inv(matrix), ()
    if not config.ridge_fallback:
        raise SingularCorrelationError(
            f"correlation matrix condition number {cond:.3e} exceeds "
            f"{CONDITION_LIMIT:.1e} during {stage}; enable ridge_fallback "
            "to proceed"
        )
    ridged = matrix + RIDGE_DELTA * np.eye(matrix.shape[0])
    warning = (
        f"ridge: added {RIDGE_DELTA:.1e} to the correlation diagonal "
        f"during {stage} (condition number {cond:.3e})"
    )
    return np.linalg.inv(ridged), (warning,)


def initial_communalities(
    corr: CorrelationMatrix, config: EngineConfig = EngineConfig()
) -> CommunalityVector:
    """Squared multiple correlations: 1 - 1/diag(inverse correlation)."""
    inverse, warnings = _inverse(corr, config, "initial communalities")
    values = 1.0 - 1.0 / np.diag(inverse)
    clamped = np.clip(values, 0.0, 1.0)
    extra = ()
    if np.any(clamped != values):
        extra = ("heywood: initial communalities clamped into [0, 1]",)
    return CommunalityVector(
        values=clamped, iteration_index=0, warnings=warnings + extra
    )


def _sorted_eigh(matrix: np.ndarray):
    """Symmetric eigendecomposition, eigenvalues descending."""
    values, vectors = np.linalg.eigh(matrix)
    return values[::-1], vectors[:, ::-1]


def paf_iterate(
    corr: CorrelationMatrix,
    start: CommunalityVector,
    config: EngineConfig = EngineConfig(),
) -> FactorModel:
    """Iterated principal-axis extraction.

    Each pass replaces the correlation diagonal with the current communality
    estimates, eigendecomposes, rebuilds loadings from the retained
    eigenpairs (square roots taken only for positive eigenvalues) and updates
    the communalities as row sums of squared loadings. The retained factor
    count is fixed by the Kaiser rule on the first pass and the loop stops
    when the total absolute communality change drops below epsilon.
    """
    matrix = corr.values
    n = corr.size
    comm = start.values.copy()
    warnings: list[str] = list(start.warnings)
    n_factors = None
    selection_eigenvalues = None
    trajectory: list[PafStep] = []
    converged = False
    iterations = 0
    final_values = final_vectors = final_diag = None
    heywood_hits: list[int] = []
    worst_heywood = 1.0

    for iteration in range(1, config.max_iterations + 1):
        adjusted = matrix.copy()
        np.fill_diagonal(adjusted, comm)
        values, vectors = _sorted_eigh(adjusted)
        if n_factors is None:
            n_factors = int(np.sum(values >= config.kaiser_threshold))
            if n_factors == 0:
                raise NoFactorRetainedError(
                    "no eigenvalue reached the retention threshold "
                    f"{config.kaiser_threshold:g} (largest was {values[0]:.6g})"
                )
            selection_eigenvalues = values[:n_factors].copy()
        retained = values[:n_factors]
        loadings = vectors[:, :n_factors] * np.sqrt(np.maximum(retained, 0.0))
        updated = np.sum(loadings**2, axis=1)
        if np.any(updated > 1.0):
            heywood_hits.append(iteration)
            worst_heywood = max(worst_heywood, float(updated.max()))
            updated = np.clip(updated, 0.0, 1.0)
        delta = float(np.sum(np.abs(updated - comm)))
        trajectory.append(
            PafStep(loadings=loadings, communalities=updated.copy(), delta=delta)
        )
        comm = updated
        iterations = iteration
        final_values, final_vectors = retained, vectors[:, :n_factors]
        final_diag = np.diag(adjusted).copy()
        if delta < config.epsilon:
            converged = True
            break

    if heywood_hits:
        warnings.append(
            f"heywood: communalities above 1 clamped in {len(heywood_hits)} "
            f"iteration(s), first at {heywood_hits[0]}, worst {worst_heywood:.6f}"
        )
    if not converged:
        warnings.append(
            f"non_convergence: iteration cap {config.max_iterations} reached "
            f"(last total change {trajectory[-1].delta:.3e})"
        )
    pct, cumulative = variance_accounting(selection_eigenvalues, n)
    return FactorModel(
        attribute_names=(),
        unrotated_loadings=trajectory[-1].loadings,
        eigenvalues=selection_eigenvalues,
        final_eigenvalues=final_values,
        eigenvectors=final_vectors,
        adjusted_diagonal=final_diag,
        communalities=CommunalityVector(values=comm, iteration_index=iterations),
        iterations_used=iterations,
        converged=converged,
        variance_percent=pct,
        cumulative_variance_percent=cumulative,
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
    max_sweeps: int = 100,
) -> VarimaxResult:
    """Varimax rotation by pairwise planar sweeps with Kaiser normalization.

    Rows are scaled to unit length (zero rows are left alone), all column
    pairs are rotated by their criterion-maximizing angle in the cyclic
    order, a wave of disjoint pairs at a time, and sweeping stops once a
    full sweep improves the criterion by less than `tolerance`. The rotation
    matrix is accumulated so the returned loadings are exactly
    `loadings @ rotation`.
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
        if history[-1] - history[-2] < tolerance:
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


def scoring_weights(
    corr: CorrelationMatrix,
    rotated_loadings,
    config: EngineConfig = EngineConfig(),
):
    """Regression-method scoring weights (loadings' generalized left inverse).

    Returns (weights, warnings); warnings carry the ridge note when the
    fallback engaged.
    """
    loadings = np.asarray(rotated_loadings, dtype=float)
    inverse, warnings = _inverse(corr, config, "scoring weights")
    projected = loadings.T @ inverse
    weights = np.linalg.solve(projected @ loadings, projected)
    return weights, warnings


def factor_scores(weights, a: StandardizedMatrix) -> FactorScores:
    """Per-region factor scores: weights applied to the standardized matrix."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape[1] != a.n_attributes:
        raise DimensionMismatchError(
            f"weights expect {weights.shape[1]} attributes, matrix has {a.n_attributes}"
        )
    return FactorScores(values=weights @ a.values, region_ids=a.region_ids)


def dominant_attributes(rotated_loadings) -> DominantAttributeMap:
    """Assign every attribute to the factor with the largest absolute loading.

    Exact ties go to the lowest factor index and are logged. Per-factor lists
    are ordered by falling absolute loading (attribute index breaks ties).
    """
    loadings = np.asarray(rotated_loadings, dtype=float)
    n, m = loadings.shape
    magnitude = np.abs(loadings)
    assigned = magnitude.argmax(axis=1)
    warnings = []
    for i in range(n):
        ties = np.flatnonzero(magnitude[i] == magnitude[i, assigned[i]])
        if len(ties) > 1:
            warnings.append(
                f"tie: attribute index {i} has equal |loading| on factors "
                f"{[int(t) + 1 for t in ties]}; assigned to factor {int(assigned[i]) + 1}"
            )
    signed = loadings[np.arange(n), assigned]
    per_factor = []
    for factor in range(m):
        members = np.flatnonzero(assigned == factor)
        ordered = sorted(members, key=lambda i: (-magnitude[i, factor], i))
        per_factor.append(tuple(int(i) for i in ordered))
    return DominantAttributeMap(
        assigned_factor=assigned,
        assigned_loading=signed,
        per_factor=tuple(per_factor),
        warnings=tuple(warnings),
    )


def sign_canonicalize(model: FactorModel) -> FactorModel:
    """Flip rotated factor columns whose largest-|loading| entry is negative.

    The same flips are applied to the rotation columns and the scoring-weight
    rows, so the model stays internally consistent and downstream scores pick
    the flip up automatically. Idempotent, and independent of eigen solver
    sign conventions.
    """
    rotated = model.rotated_loadings
    if rotated is None:
        return model
    rotated = rotated.copy()
    rotation = None if model.rotation is None else model.rotation.copy()
    weights = None if model.scoring_weights is None else model.scoring_weights.copy()
    for m in range(rotated.shape[1]):
        pivot = int(np.argmax(np.abs(rotated[:, m])))
        if rotated[pivot, m] < 0:
            rotated[:, m] = -rotated[:, m]
            if rotation is not None:
                rotation[:, m] = -rotation[:, m]
            if weights is not None:
                weights[m, :] = -weights[m, :]
    return replace(
        model,
        rotated_loadings=rotated,
        rotation=rotation,
        scoring_weights=weights,
    )


def fit_factor_model(
    a: StandardizedMatrix, config: EngineConfig = EngineConfig()
) -> FactorModel:
    """Full extraction chain on a standardized matrix.

    Runs correlation -> start communalities -> principal-axis iteration ->
    varimax -> scoring weights, then sign-canonicalizes. The returned model
    carries the attribute names and all accumulated warnings.
    """
    corr = correlation(a)
    start = initial_communalities(corr, config)
    model = paf_iterate(corr, start, config)
    rotated = varimax(
        model.unrotated_loadings,
        tolerance=config.varimax_tolerance,
        max_sweeps=config.varimax_max_sweeps,
    )
    rotation_warnings = ()
    if not rotated.converged:
        history = rotated.criterion_history
        rotation_warnings = (
            f"non_convergence: varimax sweep cap {config.varimax_max_sweeps} "
            f"reached (last criterion change {history[-1] - history[-2]:.3e})",
        )
    weights, ridge_warnings = scoring_weights(corr, rotated.loadings, config)
    model = replace(
        model,
        attribute_names=a.attribute_names,
        rotated_loadings=rotated.loadings,
        rotation=rotated.rotation,
        scoring_weights=weights,
        warnings=model.warnings + rotation_warnings + ridge_warnings,
    )
    return sign_canonicalize(model)
