"""The benchmark's output checks accept correct outputs and reject
corrupted ones.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import numpy as np
import pytest

import pb_checks

RNG_SEED = 20240611


@pytest.fixture
def rng():
    return np.random.default_rng(RNG_SEED)


def test_sort_accepts_sorted_permutation(rng):
    values = rng.random(1000)
    assert pb_checks.check_sort(values, np.sort(values)) == []


def test_sort_rejects_two_swapped_elements(rng):
    values = rng.random(1000)
    out = np.sort(values)
    out[[10, 500]] = out[[500, 10]]
    assert pb_checks.check_sort(values, out)


def test_sort_rejects_a_sorted_non_permutation(rng):
    values = rng.random(1000)
    out = np.sort(values)
    out[-1] = out[-2]  # still ascending, one value lost
    assert pb_checks.check_sort(values, out)


def test_matmul_accepts_product_and_rejects_perturbed_one(rng):
    a, b = rng.random((64, 64)), rng.random((64, 64))
    assert pb_checks.check_matmul(a, b, a @ b) == []
    c = a @ b
    c[3, 7] *= 1.0 + 1e-6
    assert pb_checks.check_matmul(a, b, c)


def test_correlation_matches_fft_and_rejects_one_pixel(rng):
    from scipy.signal import fftconvolve

    image = rng.random((40, 40))
    kernel = rng.random(7)
    kernel /= kernel.sum()
    k2 = np.outer(kernel, kernel)
    out = fftconvolve(image, k2[::-1, ::-1], mode="valid")
    assert pb_checks.check_correlation(image, kernel, out) == []
    out[5, 5] += 1e-6
    assert pb_checks.check_correlation(image, kernel, out)


def test_black_scholes_matches_closed_form_and_rejects_one_price(rng):
    from scipy.special import ndtr

    spot = rng.uniform(50.0, 150.0, 500)
    t = pb_checks.BS_EXPIRY
    vol = pb_checks.BS_VOLATILITY
    d1 = (np.log(spot / pb_checks.BS_STRIKE) + (pb_checks.BS_RATE + 0.5 * vol**2) * t) / (
        vol * np.sqrt(t)
    )
    d2 = d1 - vol * np.sqrt(t)
    out = spot * ndtr(d1) - pb_checks.BS_STRIKE * np.exp(-pb_checks.BS_RATE * t) * ndtr(d2)
    assert pb_checks.check_black_scholes(spot, out) == []
    out[17] += 1e-6
    assert pb_checks.check_black_scholes(spot, out)


def _tridiagonal(rng, n):
    lower = rng.random(n) * 0.4
    upper = rng.random(n) * 0.4
    diag = 1.0 + lower + upper
    rhs = rng.random(n)
    dense = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
    return lower, diag, upper, rhs, np.linalg.solve(dense, rhs)


def test_tridiagonal_accepts_solution_and_rejects_perturbed_one(rng):
    lower, diag, upper, rhs, x = _tridiagonal(rng, 200)
    assert pb_checks.check_tridiagonal(lower, diag, upper, rhs, x) == []
    x[100] += 1e-6
    assert pb_checks.check_tridiagonal(lower, diag, upper, rhs, x)


def test_tridiagonal_rejects_transposed_bands(rng):
    lower, diag, upper, rhs, x = _tridiagonal(rng, 200)
    assert pb_checks.check_tridiagonal(upper, diag, lower, rhs, x)


def test_full_grid_sor_matches_the_program_reference_and_rejects_noise():
    from repro.apps import poisson2d

    env = poisson2d.make_env(32, seed=5)
    expected = poisson2d.reference(env)
    args = (env["In"], env["RhsRed"], env["RhsBlack"])
    assert pb_checks.check_sor(*args, expected) == []
    corrupted = expected.copy()
    corrupted[9, 12] += 1e-6
    assert pb_checks.check_sor(*args, corrupted)


def test_sor_constants_are_the_programs():
    from repro.apps import poisson2d

    assert pb_checks.SOR_OMEGA == poisson2d.OMEGA
    assert pb_checks.SOR_ITERATIONS == poisson2d.DEFAULT_ITERATIONS


def test_black_scholes_constants_are_the_programs():
    from repro.apps import blackscholes

    assert (pb_checks.BS_STRIKE, pb_checks.BS_RATE, pb_checks.BS_VOLATILITY,
            pb_checks.BS_EXPIRY) == (blackscholes.STRIKE, blackscholes.RATE,
                                     blackscholes.VOLATILITY, blackscholes.EXPIRY)


def _low_rank_case(rng, n=48, rank=8):
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sigma = np.exp(-np.arange(n) / (n / 8.0))
    a = (u * sigma) @ v.T
    uu, ss, vt = np.linalg.svd(a)
    return a, (uu[:, :rank] * ss[:rank]) @ vt[:rank, :], rank


def test_low_rank_accepts_optimal_truncation(rng):
    a, out, rank = _low_rank_case(rng)
    assert pb_checks.check_low_rank(a, out, rank, target=0.5) == []


def test_low_rank_rejects_error_below_the_optimal_rank_k_error(rng):
    a, _, rank = _low_rank_case(rng)
    # A full-rank answer beats every rank-k one: it cannot come from a
    # rank-k reconstruction.
    assert pb_checks.check_low_rank(a, a.copy(), rank, target=0.5)


def test_low_rank_rejects_error_above_the_target(rng):
    a, out, rank = _low_rank_case(rng)
    assert pb_checks.check_low_rank(a, np.zeros_like(a), rank, target=0.5)


def test_dispatch_knows_every_registered_app():
    from repro.apps.registry import all_benchmarks

    for spec in all_benchmarks():
        env = spec.make_env(8 if spec.name != "Sort" else 64, 1)
        problems = pb_checks.check_output(spec.name, env, rank=1, target=1.0)
        assert not any(p.startswith("no output check") for p in problems), spec.name
