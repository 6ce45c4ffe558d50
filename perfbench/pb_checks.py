"""Output checks for the benchmark, computed apart from the program.

Every function here takes plain numpy arrays and returns a list of
problems (empty when the output is correct).  None of them calls into
``repro``: the reference computations are written out from the
problem statements (a sorted permutation, a matrix product, a direct
2-D correlation, the Black-Scholes closed form, a tridiagonal residual,
full-grid red-black SOR and the Eckart-Young bound), so a fault shared
by the program and its own reference helpers cannot hide here.

Floats are compared within tolerances scaled to the inputs, never bit
for bit: BLAS thread counts and summation order move the last digits.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

#: Black-Scholes market parameters of the benchmark's problem statement.
BS_STRIKE = 100.0
BS_RATE = 0.02
BS_VOLATILITY = 0.30
BS_EXPIRY = 1.5

#: Poisson2D SOR: relaxation factor and red-black iterations per run.
SOR_OMEGA = 1.5
SOR_ITERATIONS = 20

#: Relative tolerance for float results, scaled by the inputs' size.
RTOL = 1e-9


def check_sort(values: np.ndarray, out: np.ndarray) -> List[str]:
    """``out`` is ascending and a permutation of ``values``."""
    if out.shape != values.shape:
        return [f"sort: output shape {out.shape} != input shape {values.shape}"]
    problems = []
    descents = int(np.count_nonzero(out[1:] < out[:-1]))
    if descents:
        problems.append(f"sort: output has {descents} descents")
    if not np.array_equal(np.sort(out, kind="stable"), np.sort(values, kind="stable")):
        problems.append("sort: output is not a permutation of the input")
    return problems


def check_matmul(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> List[str]:
    """``c`` equals ``a @ b`` within a bound scaled to ``|a| @ |b|``."""
    expected = a @ b
    scale = np.abs(a) @ np.abs(b)
    bound = RTOL * a.shape[1] * scale + 1e-300
    worst = float(np.max(np.abs(c - expected) / bound))
    if not worst <= 1.0:
        return [f"strassen: product off by {worst:.3g}x the tolerance"]
    return []


def check_correlation(
    image: np.ndarray, kernel: np.ndarray, out: np.ndarray
) -> List[str]:
    """``out`` is the valid 2-D correlation of ``image`` with the
    separable kernel ``outer(kernel, kernel)``, summed directly."""
    width = len(kernel)
    rows = image.shape[0] - width + 1
    cols = image.shape[1] - width + 1
    if out.shape != (rows, cols):
        return [f"convolution: output shape {out.shape} != {(rows, cols)}"]
    expected = np.zeros((rows, cols))
    for dy in range(width):
        for dx in range(width):
            expected += kernel[dy] * kernel[dx] * image[dy : dy + rows, dx : dx + cols]
    scale = float(np.max(np.abs(image))) * float(np.sum(np.abs(kernel))) ** 2
    err = float(np.max(np.abs(out - expected)))
    if not err <= RTOL * width * width * scale:
        return [f"convolution: max error {err:.3g} (scale {scale:.3g})"]
    return []


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def black_scholes_call(spot: float) -> float:
    """Closed-form European call price for one spot price."""
    sqrt_t = math.sqrt(BS_EXPIRY)
    d1 = (
        math.log(spot / BS_STRIKE) + (BS_RATE + 0.5 * BS_VOLATILITY**2) * BS_EXPIRY
    ) / (BS_VOLATILITY * sqrt_t)
    d2 = d1 - BS_VOLATILITY * sqrt_t
    return spot * _normal_cdf(d1) - BS_STRIKE * math.exp(-BS_RATE * BS_EXPIRY) * _normal_cdf(d2)


def check_black_scholes(spot: np.ndarray, out: np.ndarray) -> List[str]:
    """Every price matches the closed form written with ``math.erf``."""
    if out.shape != spot.shape:
        return [f"black-scholes: output shape {out.shape} != {spot.shape}"]
    expected = np.array([black_scholes_call(s) for s in spot.tolist()])
    # erf and erfc-based CDFs differ by a few ulps of the spot price.
    bound = 1e-10 * np.maximum(spot, BS_STRIKE)
    bad = int(np.count_nonzero(~(np.abs(out - expected) <= bound)))
    if bad:
        return [f"black-scholes: {bad} prices differ from the closed form"]
    return []


def check_tridiagonal(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
    rhs: np.ndarray, x: np.ndarray,
) -> List[str]:
    """``||T x - r|| / ||r||`` is small, where ``T`` has ``lower[i]`` at
    ``(i, i-1)``, ``diag[i]`` at ``(i, i)`` and ``upper[i]`` at
    ``(i, i+1)``."""
    if x.shape != rhs.shape:
        return [f"tridiagonal: output shape {x.shape} != {rhs.shape}"]
    tx = diag * x
    tx[1:] += lower[1:] * x[:-1]
    tx[:-1] += upper[:-1] * x[1:]
    residual = float(np.linalg.norm(tx - rhs) / np.linalg.norm(rhs))
    if not residual <= RTOL:
        return [f"tridiagonal: relative residual {residual:.3g}"]
    return []


def red_black_sor(
    grid: np.ndarray, rhs_red: np.ndarray, rhs_black: np.ndarray,
    iterations: int = SOR_ITERATIONS, omega: float = SOR_OMEGA,
) -> np.ndarray:
    """Full-grid red-black SOR for the five-point stencil, zero outside
    the grid.  Cell ``(i, j)`` is red when ``i + j`` is even; the
    right-hand sides hold each colour's cells of a row in column
    order."""
    n, m = grid.shape
    u = np.array(grid, dtype=float)
    rows, cols = np.indices((n, m))
    red = (rows + cols) % 2 == 0
    rhs = np.zeros((n, m))
    # Boolean indexing walks cells row by row, in column order: the
    # packed layout of the right-hand sides.
    rhs[red] = np.asarray(rhs_red).reshape(-1)
    rhs[~red] = np.asarray(rhs_black).reshape(-1)
    for _ in range(iterations):
        for colour in (red, ~red):
            padded = np.pad(u, 1)
            total = (
                padded[1:-1, :-2] + padded[1:-1, 2:]
                + padded[:-2, 1:-1] + padded[2:, 1:-1]
            )
            gauss = 0.25 * (total - rhs)
            u[colour] = (1.0 - omega) * u[colour] + omega * gauss[colour]
    return u


def check_sor(
    grid: np.ndarray, rhs_red: np.ndarray, rhs_black: np.ndarray, out: np.ndarray
) -> List[str]:
    """``out`` matches an independent full-grid red-black SOR."""
    if out.shape != grid.shape:
        return [f"sor: output shape {out.shape} != {grid.shape}"]
    expected = red_black_sor(grid, rhs_red, rhs_black)
    scale = float(np.max(np.abs(grid))) + float(np.max(np.abs(rhs_red)))
    err = float(np.max(np.abs(out - expected)))
    if not err <= RTOL * scale:
        return [f"sor: max error {err:.3g} against full-grid SOR"]
    return []


def check_low_rank(
    a: np.ndarray, out: np.ndarray, rank: int, target: float
) -> List[str]:
    """The relative Frobenius error of ``out`` is at most ``target``
    and no better than the optimal rank-``rank`` error (Eckart-Young)."""
    if out.shape != a.shape:
        return [f"svd: output shape {out.shape} != {a.shape}"]
    norm = float(np.linalg.norm(a))
    err = float(np.linalg.norm(out - a)) / norm
    sigma = np.linalg.svd(a, compute_uv=False)
    optimal = float(np.sqrt(np.sum(sigma[rank:] ** 2))) / norm
    problems = []
    if not err <= target:
        problems.append(f"svd: error {err:.6g} above the target {target}")
    if not err >= optimal * (1.0 - 1e-9):
        problems.append(
            f"svd: error {err:.17g} below the optimal rank-{rank} error {optimal:.17g}"
        )
    return problems


def check_output(app: str, env: Dict[str, np.ndarray], **extra) -> List[str]:
    """Dispatch on the registry name of a benchmark.

    ``env`` holds the program's inputs and the output it wrote; SVD
    needs ``rank`` and ``target`` in ``extra``.
    """
    if app == "Sort":
        return check_sort(env["In"], env["Out"])
    if app == "Strassen":
        return check_matmul(env["A"], env["B"], env["C"])
    if app == "SeparableConv.":
        return check_correlation(env["In"], env["Kernel"], env["Out"])
    if app == "Black-Sholes":
        return check_black_scholes(env["In"], env["Out"])
    if app == "Tridiagonal Solver":
        return check_tridiagonal(
            env["Lower"], env["Diag"], env["Upper"], env["Rhs"], env["Out"]
        )
    if app == "Poisson2D SOR":
        return check_sor(env["In"], env["RhsRed"], env["RhsBlack"], env["Out"])
    if app == "SVD":
        return check_low_rank(env["A"], env["Out"], extra["rank"], extra["target"])
    return [f"no output check for {app!r}"]
