"""Independent reference implementations used as test oracles.

Everything here is deliberately written straight from the defining
formulas, sharing no code with the package: the generator is a
from-scratch Philox-4x64-10, normals come from the standard library's
inverse CDF, and the estimators are literal weight-sum translations in
plain Python loops.  Slow is fine; these run on tiny fixtures.  The one
exception is ``oracle_curve_error``, a vectorised closed form that runs
on every replication of a Monte Carlo cell.  ``oracle_read_columns`` is
the CSV reader as a ``csv`` row loop with ``float`` per cell; it takes
only the error classes from the package.  ``oracle_cv_by_pass`` is the
one reference built on the package's own window sums: it checks how the
sweep shares work between bandwidths, not the sums themselves.
"""

from __future__ import annotations

import csv
import math
from statistics import NormalDist

import numpy as np
from scipy.signal import lfilter
from scipy.special import erf

from partlin.errors import ParseError, SchemaError
from partlin.kernel import KERNEL_AT_ZERO, KernelSpec, _block_sums, _prefix_table
from partlin.sls import _fit_rows

_M64 = (1 << 64) - 1
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B

_INV_CDF = NormalDist().inv_cdf


def _philox_block(counter: list[int], key: tuple[int, int]) -> list[int]:
    x = list(counter)
    k = list(key)
    for _ in range(10):
        p0 = _PHILOX_M0 * x[0]
        p1 = _PHILOX_M1 * x[2]
        hi0, lo0 = p0 >> 64, p0 & _M64
        hi1, lo1 = p1 >> 64, p1 & _M64
        x = [hi1 ^ x[1] ^ k[0], lo1, hi0 ^ x[3] ^ k[1], lo0]
        k = [(k[0] + _W0) & _M64, (k[1] + _W1) & _M64]
    return x


def oracle_raw64(seed: int, stream: int, count: int) -> list[int]:
    """Philox-4x64-10 words for key (seed, stream), counter bumped
    before each block (so the first block encrypts counter value 1)."""
    key = (seed & _M64, stream & _M64)
    counter = [0, 0, 0, 0]
    out: list[int] = []
    while len(out) < count:
        for i in range(4):
            counter[i] = (counter[i] + 1) & _M64
            if counter[i]:
                break
        out.extend(_philox_block(counter, key))
    return out[:count]


def oracle_uniforms(seed: int, stream: int, count: int) -> list[float]:
    return [((w >> 12) + 0.5) * 2.0**-52 for w in oracle_raw64(seed, stream, count)]


def oracle_normals(seed: int, stream: int, count: int) -> list[float]:
    return [_INV_CDF(u) for u in oracle_uniforms(seed, stream, count)]


def oracle_ar1(innov, rho: float, start: float) -> np.ndarray:
    """e_t = innov_t + rho e_{t-1} with rho e_{-1} = ``start``, run by
    scipy's direct form II transposed filter."""
    out, _ = lfilter([1.0], [1.0, -rho], np.asarray(innov, dtype=float),
                     zi=np.array([start]))
    return out


# ------------------------------------------------------------- kernels


def oracle_kernel(family: str, u: float) -> float:
    if abs(u) > 1.0:
        return 0.0
    if family == "uniform":
        return 0.5
    return 0.75 * (1.0 - u * u)


def oracle_weights(v_series, v, family, h):
    k = [oracle_kernel(family, (vt - v) / h) for vt in v_series]
    total = sum(k)
    if total <= 0.0:
        return None
    return [ki / total for ki in k]


def oracle_pn(v_series, v, family, h, n_blocks):
    k = sum(oracle_kernel(family, (vt - v) / h) for vt in v_series)
    return k / (n_blocks * h)


def oracle_window_sums(v_series, points, family, h, targets):
    """Kernel mass and kernel weighted sums of each target column
    (``targets`` holds one row per sample point) at each point."""
    mass, sums = [], []
    for p in points:
        k = [oracle_kernel(family, (vt - p) / h) for vt in v_series]
        mass.append(sum(k))
        sums.append(
            [sum(ki * row[j] for ki, row in zip(k, targets))
             for j in range(len(targets[0]))]
        )
    return mass, sums


def oracle_mask(v_series, family, h, bn, lo, hi):
    visits = sum(1 for vt in v_series if lo <= vt <= hi)
    return [
        oracle_pn(v_series, vt, family, h, visits) > bn for vt in v_series
    ]


def _oracle_tilde(y, x, v, family, h):
    """Detrended response and regressors via literal weight sums."""
    n = len(y)
    d = len(x[0])
    yt, xt = [], []
    for t in range(n):
        w = oracle_weights(v, v[t], family, h)
        sy = sum(w[k] * y[k] for k in range(n))
        sx = [sum(w[k] * x[k][j] for k in range(n)) for j in range(d)]
        yt.append(y[t] - sy)
        xt.append([x[t][j] - sx[j] for j in range(d)])
    return yt, xt


def _solve_weighted(yt, xt, keep):
    d = len(xt[0])
    a = np.zeros((d, d))
    b = np.zeros(d)
    for t, on in enumerate(keep):
        if not on:
            continue
        row = np.array(xt[t])
        a += np.outer(row, row)
        b += row * yt[t]
    return np.linalg.solve(a, b)


def oracle_naive_theta(y, x, v, family, h):
    """Least squares on every detrended row."""
    yt, xt = _oracle_tilde(y, x, v, family, h)
    return _solve_weighted(yt, xt, [True] * len(y))


def oracle_truncated_theta(y, x, v, family, h, bn, lo, hi):
    """Least squares on rows passing the density floor."""
    keep = oracle_mask(v, family, h, bn, lo, hi)
    yt, xt = _oracle_tilde(y, x, v, family, h)
    return _solve_weighted(yt, xt, keep)


def oracle_g_at(y, x, v, theta, point, family, h):
    """Kernel average of the partial residual at one location."""
    n = len(y)
    w = oracle_weights(v, point, family, h)
    if w is None:
        return None
    resid = [
        y[t] - sum(x[t][j] * theta[j] for j in range(len(theta)))
        for t in range(n)
    ]
    return sum(w[t] * resid[t] for t in range(n))


def oracle_cv_criterion(y, x, v, family, h, bn, lo, hi):
    """Leave-one-out criterion at one bandwidth: refit theta with the
    floor, then score kept observations whose reduced window is not
    empty.  Returns (criterion, dropped)."""
    n = len(y)
    keep = oracle_mask(v, family, h, bn, lo, hi)
    theta = oracle_truncated_theta(y, x, v, family, h, bn, lo, hi)
    resid = [
        y[t] - sum(x[t][j] * theta[j] for j in range(len(theta)))
        for t in range(n)
    ]
    crit = 0.0
    dropped = 0
    for t in range(n):
        if not keep[t]:
            continue
        num = 0.0
        den = 0.0
        for k in range(n):
            if k == t:
                continue
            kv = oracle_kernel(family, (v[k] - v[t]) / h)
            num += kv * resid[k]
            den += kv
        if den <= 0.0:
            dropped += 1
            continue
        crit += (resid[t] - num / den) ** 2
    return crit, dropped


def oracle_cv_dense(y, x, v, family, h, bn, lo, hi, chunk=256):
    """``oracle_cv_criterion`` for walks too long for it: the same kernel
    sums, taken with numpy for a chunk of points at a time against every
    sample point within 2h of the chunk (a pair further apart has kernel
    value exactly 0).  The leave-one-out fit of each point is its
    left-out sums of y and x combined with (1, -theta), which is its
    left-out sum of residuals.  Returns ``(criterion, dropped, mask,
    theta)``; ``theta`` is None, and the criterion infinite, when the
    mask keeps nothing or the refit is singular."""
    v = np.asarray(v, dtype=float)
    stacked = np.column_stack([y, x]).astype(float)
    n = v.size
    mass, loo_mass = np.empty(n), np.empty(n)
    sums, loo_sums = np.empty(stacked.shape), np.empty(stacked.shape)
    order = np.argsort(v)
    ranked = v[order]
    for s in range(0, n, chunk):
        rows = order[s:s + chunk]
        span = [ranked[s] - 2 * h, ranked[s + rows.size - 1] + 2 * h]
        cols = order[slice(*np.searchsorted(ranked, span))]
        u = (v[None, cols] - v[rows, None]) / h
        k = 0.5 if family == "uniform" else 0.75 * (1.0 - u * u)
        k = np.where(np.abs(u) <= 1.0, k, 0.0)
        mass[rows], sums[rows] = k.sum(axis=1), k @ stacked[cols]
        k[rows[:, None] == cols[None, :]] = 0.0
        loo_mass[rows], loo_sums[rows] = k.sum(axis=1), k @ stacked[cols]
    visits = np.count_nonzero((v >= lo) & (v <= hi))
    mask = mass / (visits * h) > bn
    tilde = stacked - sums / mass[:, None]
    a = tilde[mask, 1:].T @ tilde[mask, 1:]
    if not mask.any() or not np.linalg.cond(a) <= 1e12:
        return np.inf, 0, mask, None
    theta = np.linalg.solve(a, tilde[mask, 1:].T @ tilde[mask, 0])
    coef = np.append(1.0, -theta)
    scored = mask & (loo_mass > 0.0)
    err = stacked[scored] @ coef - (loo_sums[scored] @ coef) / loo_mass[scored]
    crit = float(err @ err) if scored.any() else np.inf
    return crit, int(mask.sum() - scored.sum()), mask, theta


def oracle_cv_by_pass(ds, grid, family, trunc):
    """``cv_select``'s criterion and dropped counts on ``grid`` with
    nothing shared between bandwidths: each is its own left-out
    ``_block_sums`` pass of (y, x) on a prefix table built for it,
    refit as the sweep refits (``_fit_rows`` on the full sums, left-out
    sums plus K(0) times the own values), and scored on the gathered
    rows it can score.  Returns ``(criterion, dropped)``."""
    stacked = np.column_stack([ds.y, ds.x])
    visits = np.count_nonzero(trunc.small_set.contains(ds.sorted_v.values), axis=1)
    k0 = KERNEL_AT_ZERO[family]
    crit, dropped = np.full(len(grid), np.inf), np.zeros(len(grid), dtype=int)
    for i, h in enumerate(grid):
        spec = KernelSpec(family, float(h))
        table = _prefix_table(ds.sorted_v, spec, stacked[None])
        (lm,), (ls,) = _block_sums(ds.sorted_v, None, spec, table, leave_out=True)
        (theta,), (mask,), _ = _fit_rows(
            stacked[None], (lm + k0)[None], (ls + k0 * stacked)[None], visits, spec, trunc
        )
        if not isinstance(theta, np.ndarray):
            continue
        scored = mask & (lm > 0.0)
        dropped[i] = mask.sum() - scored.sum()
        if scored.any():
            coef = np.append(1.0, -theta)
            err = stacked[scored] @ coef - (ls[scored] @ coef) / lm[scored]
            crit[i] = err @ err
    return crit, dropped


def oracle_curve_error(v, x, h, points, g, eps_rho, eps_sd, theta_var):
    """Expected curve error of one replication given its walk and
    regressors: the average over the table grid of E|g_hat(p) - g(p)|.

    The grid is v_min + (j/points)(v_max - v_min), j = 0..points-1, and
    the uniform window of p holds the t with |(v_t - p)/h| <= 1; points
    with an empty window are left out, as the table leaves them out.
    Given (v, x), g_hat(p) - g(p) is taken as Gaussian with

    * mean b(p), the window average of g(v_t) - g(p);
    * variance sigma^2 Q(p) / m(p)^2 + xbar(p)^2 theta_var, where m(p)
      is the window size, Q(p) = sum over window pairs (s, t) of
      eps_rho^|s - t|, sigma^2 = eps_sd^2 / (1 - eps_rho^2) is the
      stationary AR(1) variance and xbar(p) the window mean of x.

    The first variance term is exact for the window mean of the errors;
    the second treats theta_hat - theta0 as independent of it with
    variance ``theta_var``.  Then E|N(b, s^2)| is
    s sqrt(2/pi) exp(-b^2 / 2s^2) + b erf(b / (s sqrt 2)), or |b| at s = 0.
    """
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    lo = float(v.min())
    hi = float(v.max())
    grid = lo + (np.arange(points) / points) * (hi - lo)
    dist = v[None, :] - grid[:, None]
    dist /= h
    inside = np.abs(dist, out=dist) <= 1.0
    m = inside.sum(axis=1)
    keep = m > 0
    grid, m = grid[keep], m[keep]
    ind = inside[keep].astype(float)
    b = ind @ g(v) / m - g(grid)
    xbar = ind @ x / m
    # Q = sum_t I_t (2 z_t - I_t), z_t = sum_{s <= t} I_s eps_rho^(t - s)
    z = lfilter([1.0], [1.0, -eps_rho], ind, axis=1)
    q = 2.0 * np.einsum("ij,ij->i", ind, z) - m
    sigma_sq = eps_sd**2 / (1.0 - eps_rho**2)
    s = np.sqrt(sigma_sq * q / m**2 + xbar**2 * theta_var)
    err = np.abs(b)
    pos = s > 0
    r = b[pos] / s[pos]
    err[pos] = (
        s[pos] * math.sqrt(2.0 / math.pi) * np.exp(-0.5 * r * r)
        + b[pos] * erf(r / math.sqrt(2.0))
    )
    return float(err.mean())


def oracle_blocks(v, fvals, lo, hi):
    """Head, complete block sums and tail of sum(f) split at visits."""
    visits = [t for t, vt in enumerate(v) if lo <= vt <= hi]
    if not visits:
        raise ValueError("no visits")
    head = sum(fvals[: visits[0] + 1])
    blocks = [
        sum(fvals[visits[i] + 1 : visits[i + 1] + 1])
        for i in range(len(visits) - 1)
    ]
    tail = sum(fvals[visits[-1] + 1 :])
    return head, blocks, tail


def oracle_df_t(z) -> float:
    """No-intercept AR(1) t ratio against unity, from the sums."""
    lag = z[:-1]
    cur = z[1:]
    sxx = sum(a * a for a in lag)
    rho = sum(a * b for a, b in zip(lag, cur)) / sxx
    rss = sum((b - rho * a) ** 2 for a, b in zip(lag, cur))
    se = math.sqrt(rss / (len(cur) - 1) / sxx)
    return (rho - 1.0) / se


def _oracle_resolve(col, names, path):
    """Map a column selector (name or 0-based position) to a position."""
    if isinstance(col, int):
        width = len(names) if names is not None else None
        if col < 0 or (width is not None and col >= width):
            raise SchemaError(f"{path}: no column at position {col}")
        return col
    if names is None:
        raise SchemaError(
            f"{path}: column {col!r} requested by name but the file was "
            "read without a header row"
        )
    try:
        return names.index(col)
    except ValueError:
        raise SchemaError(
            f"{path}: column {col!r} not found; header has {names}"
        ) from None


def oracle_read_columns(path, cols, header=True):
    """``dataset.read_columns``: every row through ``csv.reader``, every
    selected cell through ``float``, errors naming column and row."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r]
    names = None
    if header:
        if not rows:
            raise SchemaError(f"{path}: empty file")
        names = [c.strip() for c in rows[0]]
        rows = rows[1:]
    if not rows:
        raise SchemaError(f"{path}: no data rows")

    positions = [_oracle_resolve(c, names, path) for c in cols]
    labels = [
        names[p] if names is not None else f"col{p}" for p in positions
    ]

    data = np.empty((len(rows), len(positions)))
    for i, row in enumerate(rows):
        for j, pos in enumerate(positions):
            if pos >= len(row):
                raise ParseError(
                    f"{path}: data row {i + 1} has only {len(row)} fields"
                )
            cell = row[pos].strip()
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: cannot parse {cell!r} in column "
                    f"{labels[j]!r} at data row {i + 1}"
                ) from None
    return data, labels
