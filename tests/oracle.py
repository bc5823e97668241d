"""Independent brute-force reference implementations used to check the package.

Everything here is written from the defining formulas with explicit loops and
plain inverses. Nothing imports from sitefactors; agreement between the two
code paths is the whole point.
"""

import math
from fractions import Fraction

import numpy as np


def zscore_rows(values):
    """Standardize each row to mean 0, sample std 1 (denominator n-1)."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    for i in range(values.shape[0]):
        row = values[i]
        n = len(row)
        mean = sum(row) / n
        var = sum((x - mean) ** 2 for x in row) / (n - 1)
        std = math.sqrt(var)
        out[i] = [(x - mean) / std for x in row]
    return out


def correlation_from_standardized(a_std):
    """R = (1/(n_regions-1)) * A A^T, symmetrized, unit diagonal."""
    a_std = np.asarray(a_std, dtype=float)
    n, r = a_std.shape
    c = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            c[i, j] = sum(a_std[i, k] * a_std[j, k] for k in range(r)) / (r - 1)
    c = (c + c.T) / 2.0
    for i in range(n):
        c[i, i] = 1.0
    return c


def smc(corr):
    """Initial communalities 1 - 1/diag(R^-1)."""
    inv = np.linalg.inv(np.asarray(corr, dtype=float))
    return np.array([1.0 - 1.0 / inv[i, i] for i in range(inv.shape[0])])


def paf_trajectory(corr, c0, epsilon=1e-5, max_iterations=200, kaiser=1.0):
    """Run the iterated principal-axis loop, recording every iteration.

    Returns a dict with the retained factor count m (fixed from the first
    iteration's eigenvalues), the selection eigenvalues, a list of
    (loadings, communalities) per iteration, iterations used and a
    convergence flag.
    """
    corr = np.asarray(corr, dtype=float)
    n = corr.shape[0]
    comm = np.asarray(c0, dtype=float).copy()
    m = None
    selection_eigenvalues = None
    steps = []
    converged = False
    iterations = 0
    for k in range(1, max_iterations + 1):
        r_star = corr.copy()
        for i in range(n):
            r_star[i, i] = comm[i]
        vals, vecs = np.linalg.eigh(r_star)
        vals = vals[::-1]
        vecs = vecs[:, ::-1]
        if m is None:
            m = int(sum(1 for v in vals if v >= kaiser))
            selection_eigenvalues = vals[:m].copy()
            if m == 0:
                return {
                    "m": 0,
                    "selection_eigenvalues": np.array([]),
                    "steps": [],
                    "iterations": 0,
                    "converged": False,
                }
        loads = np.zeros((n, m))
        for col in range(m):
            lam = vals[col]
            if lam > 0:
                for i in range(n):
                    loads[i, col] = vecs[i, col] * math.sqrt(lam)
        new_comm = np.array([sum(loads[i, col] ** 2 for col in range(m)) for i in range(n)])
        new_comm = np.clip(new_comm, 0.0, 1.0)
        delta = sum(abs(new_comm[i] - comm[i]) for i in range(n))
        steps.append((loads.copy(), new_comm.copy()))
        comm = new_comm
        iterations = k
        if delta < epsilon:
            converged = True
            break
    return {
        "m": m,
        "selection_eigenvalues": selection_eigenvalues,
        "steps": steps,
        "iterations": iterations,
        "converged": converged,
    }


def varimax_criterion(loads):
    """Sum over factors of the variance of squared loadings."""
    loads = np.asarray(loads, dtype=float)
    n, m = loads.shape
    total = 0.0
    for col in range(m):
        sq = [loads[i, col] ** 2 for i in range(n)]
        mean_sq = sum(sq) / n
        total += sum(x ** 2 for x in sq) / n - mean_sq ** 2
    return total


def kaiser_normalize(loads):
    """Divide each row by its length; zero rows stay zero."""
    loads = np.asarray(loads, dtype=float)
    norms = np.array([math.sqrt(sum(x ** 2 for x in row)) for row in loads])
    out = loads.copy()
    for i, h in enumerate(norms):
        if h > 0:
            out[i] = loads[i] / h
    return out, norms


def varimax_grid_m2(loads, step=1e-4):
    """Grid search the single planar angle for a two-factor rotation.

    Scans theta in [0, pi/2) on Kaiser-normalized loadings and returns the
    best criterion value found along with the best angle.
    """
    loads = np.asarray(loads, dtype=float)
    assert loads.shape[1] == 2
    w, _ = kaiser_normalize(loads)
    best_crit = -np.inf
    best_theta = 0.0
    theta = 0.0
    while theta < math.pi / 2:
        rot = np.array(
            [
                [math.cos(theta), -math.sin(theta)],
                [math.sin(theta), math.cos(theta)],
            ]
        )
        crit = varimax_criterion(w @ rot)
        if crit > best_crit:
            best_crit = crit
            best_theta = theta
        theta += step
    return best_crit, best_theta


def varimax_refine_m2(loads, theta0, span=2e-4, rounds=14):
    """Shrinking grid search around theta0 for a near-exact two-factor angle."""
    loads = np.asarray(loads, dtype=float)
    w, _ = kaiser_normalize(loads)
    lo, hi = theta0 - span, theta0 + span
    best_theta = theta0
    for _ in range(rounds):
        thetas = np.linspace(lo, hi, 21)
        crits = []
        for theta in thetas:
            rot = np.array(
                [
                    [math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)],
                ]
            )
            crits.append(varimax_criterion(w @ rot))
        best_theta = float(thetas[int(np.argmax(crits))])
        width = (hi - lo) * 0.2
        lo, hi = best_theta - width / 2, best_theta + width / 2
    return best_theta


def rotation_matrix(theta):
    return np.array(
        [
            [math.cos(theta), -math.sin(theta)],
            [math.sin(theta), math.cos(theta)],
        ]
    )


def regression_weights(corr, loads):
    """B = (L^T R^-1 L)^-1 L^T R^-1 with explicit inverses."""
    corr = np.asarray(corr, dtype=float)
    loads = np.asarray(loads, dtype=float)
    r_inv = np.linalg.inv(corr)
    gram = loads.T @ r_inv @ loads
    return np.linalg.inv(gram) @ loads.T @ r_inv


def _exact_inverse(rows):
    """Gauss-Jordan inverse of a square matrix of Fractions, exactly."""
    n = len(rows)
    work = [
        list(row) + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        work[col] = [x / work[col][col] for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def _exact_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def exact_regression_weights(corr, loads, ridge=0.0):
    """B = (L^T S^-1 L)^-1 L^T S^-1 with S = R + ridge * I, in exact rational
    arithmetic on the float inputs, rounded to float once at the end. A
    float64 inverse of a nearly singular S would be off by about its
    condition number times machine epsilon."""
    corr = np.asarray(corr, dtype=float)
    n = corr.shape[0]
    s = [
        [Fraction(corr[i, j]) + (Fraction(ridge) if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    loads_t = [[Fraction(x) for x in col] for col in np.asarray(loads, dtype=float).T]
    projected = _exact_product(loads_t, _exact_inverse(s))
    gram = _exact_product(projected, [list(row) for row in zip(*loads_t)])
    weights = _exact_product(_exact_inverse(gram), projected)
    return np.array([[float(x) for x in row] for row in weights])


def factor_scores(weights, a_std):
    """F = B A, summed out by hand."""
    weights = np.asarray(weights, dtype=float)
    a_std = np.asarray(a_std, dtype=float)
    m, n = weights.shape
    r = a_std.shape[1]
    f = np.zeros((m, r))
    for mm in range(m):
        for j in range(r):
            f[mm, j] = sum(weights[mm, i] * a_std[i, j] for i in range(n))
    return f


def composite_scores(f, suit_idx, attr_idx, signs):
    """Signed sums of factor scores per region for each dimension."""
    f = np.asarray(f, dtype=float)
    r = f.shape[1]
    suit = np.array([sum(signs[m] * f[m, j] for m in suit_idx) for j in range(r)])
    attr = np.array([sum(signs[m] * f[m, j] for m in attr_idx) for j in range(r)])
    return suit, attr


def v_score(s, a, alpha):
    return alpha * s + (1.0 - alpha) * a


def sweep_counts(suit, attr, alphas, thetas):
    """Count regions whose v-score strictly exceeds each threshold."""
    grid = np.zeros((len(thetas), len(alphas)), dtype=int)
    for ti, theta in enumerate(thetas):
        for ai, alpha in enumerate(alphas):
            count = 0
            for s, a in zip(suit, attr):
                if v_score(s, a, alpha) > theta:
                    count += 1
            grid[ti, ai] = count
    return grid


def median_quadrants(suit, attr):
    """Median-split quadrant labels; values at the median go high."""
    med_s = float(np.median(suit))
    med_a = float(np.median(attr))
    labels = []
    for s, a in zip(suit, attr):
        s_high = s >= med_s
        a_high = a >= med_a
        if s_high and a_high:
            labels.append("BothHigh")
        elif s_high:
            labels.append("SuitabilityBiased")
        elif a_high:
            labels.append("AttractivenessBiased")
        else:
            labels.append("BothLow")
    return labels


def average_rank_fractions(values):
    """Average 0-based rank of each value over n - 1; a lone value sits at 0.5."""
    n = len(values)
    if n == 1:
        return [0.5]
    return [
        (sum(v < x for v in values) + (sum(v == x for v in values) - 1) / 2) / (n - 1)
        for x in values
    ]


def typologies(suit, attr, balance_band, bias_band):
    """High-high typologies from the rank-fraction gap; other quadrants get None."""
    labels = []
    for quadrant, s, a in zip(
        median_quadrants(suit, attr),
        average_rank_fractions(suit),
        average_rank_fractions(attr),
    ):
        gap = s - a
        if quadrant != "BothHigh":
            labels.append("None")
        elif abs(gap) <= balance_band:
            labels.append("Balanced")
        elif gap > bias_band:
            labels.append("SuitabilityBiased")
        elif -gap > bias_band:
            labels.append("AttractivenessBiased")
        else:
            labels.append("None")
    return labels


def top_k(region_ids, values, k):
    """Descending by value, ties by region id."""
    order = sorted(zip(region_ids, values), key=lambda t: (-t[1], t[0]))
    return [rid for rid, _ in order[:k]]


def moments(row):
    """count/mean/std/min/median/max plus adjusted skewness and excess kurtosis."""
    row = [float(x) for x in row]
    n = len(row)
    mean = sum(row) / n
    m2 = sum((x - mean) ** 2 for x in row) / n
    m3 = sum((x - mean) ** 3 for x in row) / n
    m4 = sum((x - mean) ** 4 for x in row) / n
    var_sample = sum((x - mean) ** 2 for x in row) / (n - 1)
    std = math.sqrt(var_sample)
    if m2 == 0 or n < 3:
        skew = float("nan")
    else:
        g1 = m3 / m2 ** 1.5
        skew = math.sqrt(n * (n - 1)) / (n - 2) * g1
    if m2 == 0 or n < 4:
        kurt = float("nan")
    else:
        g2 = m4 / m2 ** 2 - 3.0
        kurt = (n - 1) / ((n - 2) * (n - 3)) * ((n + 1) * g2 + 6.0)
    srt = sorted(row)
    if n % 2 == 1:
        median = srt[n // 2]
    else:
        median = (srt[n // 2 - 1] + srt[n // 2]) / 2.0
    return {
        "count": n,
        "mean": mean,
        "std": std,
        "min": srt[0],
        "median": median,
        "max": srt[-1],
        "skewness": skew,
        "kurtosis": kurt,
    }


def canon_column_signs(loads):
    """Flip each column so its largest-magnitude entry is positive.

    Shared comparison helper: both code paths are mapped through this before
    asserting closeness, which removes eigenvector sign indeterminacy.
    """
    loads = np.asarray(loads, dtype=float).copy()
    for col in range(loads.shape[1]):
        pivot = int(np.argmax(np.abs(loads[:, col])))
        if loads[pivot, col] < 0:
            loads[:, col] = -loads[:, col]
    return loads


def engine_varimax_criterion(loadings):
    """The package's vectorised criterion, kept as the reference rotation's own."""
    squared = np.asarray(loadings, dtype=float) ** 2
    return float(np.sum(np.mean(squared**2, axis=0) - np.mean(squared, axis=0) ** 2))


def varimax_reference(loadings, tolerance=1e-8, max_sweeps=100):
    """Pairwise varimax on attribute-major loadings, columns rotated by fancy index.

    The bit-exact reference for the package's rotation, which must match it
    in every bit. Returns (loadings, rotation, criterion_history,
    sweeps_used, converged).
    """
    loadings = np.asarray(loadings, dtype=float)
    n, m = loadings.shape
    if m == 1:
        return (
            loadings.copy(),
            np.eye(1),
            (engine_varimax_criterion(loadings),),
            0,
            True,
        )

    norms = np.sqrt(np.sum(loadings**2, axis=1))
    scale = np.where(norms > 0, norms, 1.0)
    working = loadings / scale[:, None]
    rotation = np.eye(m)
    history = [engine_varimax_criterion(working)]
    converged = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        for p in range(m - 1):
            for q in range(p + 1, m):
                x = working[:, p]
                y = working[:, q]
                u = x**2 - y**2
                v = 2.0 * x * y
                numer = 2.0 * (u @ v) - 2.0 * u.sum() * v.sum() / n
                denom = (u @ u) - (v @ v) - (u.sum() ** 2 - v.sum() ** 2) / n
                angle = 0.25 * np.arctan2(numer, denom)
                if angle == 0.0:
                    continue
                cos, sin = np.cos(angle), np.sin(angle)
                plane = np.array([[cos, -sin], [sin, cos]])
                working[:, [p, q]] = working[:, [p, q]] @ plane
                rotation[:, [p, q]] = rotation[:, [p, q]] @ plane
        history.append(engine_varimax_criterion(working))
        if history[-1] - history[-2] < tolerance:
            converged = True
            break
    return loadings @ rotation, rotation, tuple(history), sweeps, converged
