"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all)
and then asserts, so a red criterion is visible both ways.  Expected values
come from closed-form antiderivative oracles, exact rational arithmetic, or
brute-force quadrature that is independent of the code paths under test.
"""
import math
import time
from fractions import Fraction

import numpy as np

from opnormlab import (BoundednessQuery, KernelSpec, SpaceSpec,
                       SweepPlan, build_grid, check_boundedness,
                       envelope_indicator_image, fit_growth_exponent,
                       majorant_integral, manufactured_case, matrix_pq_norm,
                       integrate, powerlaw_weighted_norm, apply_operator,
                       run_boundedness_sweep, sample, sample_spec,
                       sharpness_probe, solve_corner, verify_holder_step,
                       weighted_norm)
from opnormlab.cli import run_cli
from opnormlab.conditions import space_thresholds
from opnormlab.corner import CornerSystem


def report(number: int, description: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {number:2d} {status}: {description} "
          f"[{elapsed:.2f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


def test_criterion_01_threshold_reduction_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        s1 = float(rng.uniform(-3.0, -1e-12))
        s2 = float(rng.uniform(-3.0, 3.0))
        base = space_thresholds(SpaceSpec("h", s1, 2.0), SpaceSpec("h", s2, 2.0))
        for family in ("hsp", "hps"):
            inner, outer = space_thresholds(SpaceSpec(family, s1, 2.0), SpaceSpec(family, s2, 2.0))
            worst = max(worst, abs(inner - base[0]), abs(outer - base[1]))
    report(1, f"p=2 reduction identities (worst |diff| = {worst:.2e})",
           worst <= 1e-12, time.perf_counter() - started, 1.0)


def test_criterion_02_same_parameter_reduction_exact():
    started = time.perf_counter()
    ok = True
    for p in (Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4)):
        q = p / (p - 1)
        for s in (Fraction(-2), Fraction(-1), Fraction(-1, 4)):
            # exact rational cross-check: the formulas are plain arithmetic
            hsp, hps = SpaceSpec("hsp", s, p), SpaceSpec("hps", s, p)
            thr2 = max(space_thresholds(hsp, hsp))
            thr3 = max(space_thresholds(hps, hps))
            ok = ok and thr2 == max(1 / q - s, Fraction(1))
            ok = ok and thr3 == max(1 / q - 2 * s / p, Fraction(1))
            # double precision lands within an ulp of the rational value
            hsp, hps = SpaceSpec("hsp", float(s), float(p)), SpaceSpec("hps", float(s), float(p))
            ok = ok and abs(max(space_thresholds(hsp, hsp)) - float(thr2)) <= 1e-12
            ok = ok and abs(max(space_thresholds(hps, hps)) - float(thr3)) <= 1e-12
    report(2, "same-parameter reduced thresholds, exact rationals", ok,
           time.perf_counter() - started, 1.0)


def test_criterion_03_quadrature_vs_closed_forms():
    started = time.perf_counter()
    R = 1e4
    grid = build_grid(R, 40, 1.3, 8)
    worst = 0.0
    for a in (1.1, 1.3, 1.7, 2.0, 2.5, 3.0, 4.0, 5.0):
        for x in (0.0, 1.0, 10.0, 100.0):
            exact = majorant_integral(x, a, R=R)
            got = integrate(grid, lambda y: (1.0 + x + np.abs(y)) ** -a)
            worst = max(worst, abs(got - exact) / exact)
    cases = [(0.05, SpaceSpec.h(-0.5)), (1.0, SpaceSpec.h(-1.0)),
             (0.55, SpaceSpec.h(0.0)), (0.25, SpaceSpec.hsp(-1.0, 4.0)),
             (1.25, SpaceSpec.hsp(-0.1, 2.0)), (0.3, SpaceSpec.hps(4.0, -1.0))]
    for t, space in cases:
        exact = powerlaw_weighted_norm(t, space, R=R)
        got = weighted_norm(sample_spec(grid, f"powerlaw({t})"), space)
        worst = max(worst, abs(got - exact) / exact)
    report(3, f"graded quadrature vs antiderivatives at R=1e4 (worst rel = {worst:.2e})",
           worst <= 1e-6, time.perf_counter() - started, 10.0)


def test_criterion_04_nystrom_vs_closed_form():
    started = time.perf_counter()
    grid = build_grid(1.0, 8, 1.2, 8)  # panel edge at the indicator jump
    f = sample_spec(grid, "indicator(0,1)")
    kernel = KernelSpec(kappa=2.0)
    worst = 0.0
    for x in (0.0, 1.0, 5.0, 50.0):
        exact = envelope_indicator_image(2.0, x)
        got = apply_operator(kernel, f, grid, x)
        worst = max(worst, abs(got - exact) / exact)
    report(4, f"operator application vs closed form (worst rel = {worst:.2e})",
           worst <= 1e-6, time.perf_counter() - started, 5.0)


def test_criterion_05_norm_estimator_cross_validation():
    started = time.perf_counter()
    rng = np.random.default_rng(20240808)
    worst_svd = worst_transpose = worst_rank1 = 0.0
    for _ in range(20):
        shape = (int(rng.integers(20, 201)), int(rng.integers(20, 201)))
        matrix = rng.normal(size=shape)
        estimate = matrix_pq_norm(matrix, 2.0, 2.0)
        assert estimate.converged
        power = estimate.value
        dense = float(np.linalg.svd(matrix, compute_uv=False)[0])
        worst_svd = max(worst_svd, abs(power - dense) / dense)
        transposed = matrix_pq_norm(matrix.T, 2.0, 2.0).value
        worst_transpose = max(worst_transpose, abs(transposed - power) / power)
    for p1, p2 in ((1.5, 3.0), (2.0, 2.0), (4.0, 1.5), (3.0, 3.0)):
        a = rng.uniform(0.1, 1.0, size=60)
        b = rng.uniform(0.1, 1.0, size=80)
        q1 = p1 / (p1 - 1.0)
        exact = float(np.sum(a ** p2) ** (1 / p2) * np.sum(b ** q1) ** (1 / q1))
        estimate = matrix_pq_norm(np.outer(a, b), p1, p2)
        worst_rank1 = max(worst_rank1, abs(estimate.value - exact) / exact)
        assert estimate.certified
    ok = worst_svd <= 1e-8 and worst_transpose <= 1e-8 and worst_rank1 <= 1e-10
    report(5, f"power iteration vs SVD ({worst_svd:.2e}), A vs A^T ({worst_transpose:.2e}), "
              f"rank-one ({worst_rank1:.2e})", ok, time.perf_counter() - started, 30.0)


# Nine parameter sets, three per mapping family, each with margin >= 0.5.
SATURATION_QUERIES = {
    "h": (BoundednessQuery("h", -0.25, -0.25, 1.5),
          BoundednessQuery("h", -1.0, -1.0, 2.25),
          BoundednessQuery("h", -0.5, 0.5, 2.5)),
    "hsp": (BoundednessQuery("hsp", -1.0, -1.0, 2.0, 1.5, 1.5),
            BoundednessQuery("hsp", -0.5, 0.0, 2.25, 3.0, 2.0),
            BoundednessQuery("hsp", -0.3, 0.2, 2.0, 3.0, 3.0)),
    "hps": (BoundednessQuery("hps", -0.5, -0.5, 1.75, 4.0, 4.0),
            BoundednessQuery("hps", -1.0, -1.0, 2.0, 2.0, 4.0),
            BoundednessQuery("hps", -1.0, 0.0, 2.5, 2.0, 2.0)),
}


def test_criterion_06_above_threshold_saturation():
    started = time.perf_counter()
    schedule = (10.0, 40.0, 160.0, 640.0)
    ok = True
    details = []
    for family, queries in SATURATION_QUERIES.items():
        for query in queries:
            margin = check_boundedness(query).margin
            ok = ok and margin >= 0.5 - 1e-12
        plan = SweepPlan(queries=queries, kernel=None, R_schedule=schedule)
        result = run_boundedness_sweep(plan)
        for index in range(len(queries)):
            values = [c.value for c in result.cells if c.query_index == index]
            monotone = all(b >= a - 1e-10 for a, b in zip(values, values[1:]))
            certified = all(c.certified for c in result.cells if c.query_index == index)
            gamma = result.summaries[index].gamma
            details.append(f"{family}[{index}] gamma={gamma:+.4f}")
            ok = ok and monotone and certified and abs(gamma) < 0.05
    report(6, "saturation for 9 margin>=0.5 sets (" + ", ".join(details) + ")",
           ok, time.perf_counter() - started, 300.0)


def _brute_force_ratio(R: float, t: float, kappa: float, s1: float, s2: float,
                       n: int = 2001) -> float:
    # trapezoid rule on a uniform mesh: independent of the graded-grid code
    y = np.linspace(-R, R, n)
    w = np.full(n, 2.0 * R / (n - 1))
    w[0] = w[-1] = R / (n - 1)
    f = (1.0 + np.abs(y)) ** (-t)
    kf = ((1.0 + np.abs(y[:, None]) + np.abs(y[None, :])) ** (-kappa)) @ (w * f)
    num = math.sqrt(float(np.sum(w * kf ** 2 * (1.0 + np.abs(y)) ** (2 * s2))))
    den = math.sqrt(float(np.sum(w * f ** 2 * (1.0 + np.abs(y)) ** (2 * s1))))
    return num / den


def test_criterion_07_below_threshold_growth_witness():
    started = time.perf_counter()
    query = BoundednessQuery("h", -1.0, 0.0, 0.0)
    assert not check_boundedness(query).satisfied
    # pre-verify the witness by brute force before scaling up
    brute = [_brute_force_ratio(R, 0.6, 0.0, -1.0, 0.0) for R in (10.0, 40.0)]
    ok = brute[1] > brute[0]
    cells = sharpness_probe(query, KernelSpec(kappa=0.0), 0.6,
                            (10.0, 40.0, 160.0, 640.0))
    ratios = [(c.R, c.ratio) for c in cells]
    ok = ok and all(r is not None for _, r in ratios)
    gamma = fit_growth_exponent(ratios)
    # the probe at the shared radii must agree with the brute-force oracle
    for (R, ratio), reference in zip(ratios[:2], brute):
        ok = ok and abs(ratio - reference) / reference < 1e-2
    report(7, f"growth witness: brute {brute[0]:.2f}->{brute[1]:.2f}, "
              f"gamma = {gamma:.3f}", ok and gamma > 0.1,
           time.perf_counter() - started, 60.0)


def test_criterion_08_holder_proof_step():
    started = time.perf_counter()
    rng = np.random.default_rng(88)
    grid = build_grid(100.0, 14, 1.3, 8)
    failures = 0
    for family in ("h", "hsp", "hps"):
        for _ in range(100):
            s1 = float(rng.uniform(-2.0, -0.1))
            s2 = float(rng.uniform(-2.0, 2.0))
            if family == "h":
                p1 = p2 = 2.0
            else:
                p1 = float(rng.uniform(1.2, 4.0))
                p2 = float(rng.uniform(1.2, 4.0))
            inner = space_thresholds(SpaceSpec(family, s1, p1), SpaceSpec(family, s2, p2))[0]
            kappa = inner + float(rng.uniform(0.05, 2.0))
            query = BoundednessQuery(family, s1, s2, kappa, p1, p2)
            center = float(rng.uniform(-20.0, 20.0))
            width = float(rng.uniform(0.5, 5.0))
            scale = float(rng.uniform(-3.0, 3.0))
            f = sample(grid, lambda v: scale * np.exp(-((v - center) / width) ** 2))
            x = float(rng.choice([0.0, 1.0, 10.0]))
            check = verify_holder_step(KernelSpec(kappa=kappa), f, query, x, grid)
            failures += 0 if check.holds else 1
    report(8, f"factor-splitting inequality, 300 random triples ({failures} failures)",
           failures == 0, time.perf_counter() - started, 60.0)


def test_criterion_09_corner_round_trip():
    started = time.perf_counter()
    grid1 = build_grid(20.0, 25, 1.3, 4)  # 200 nodes
    grid2 = build_grid(20.0, 25, 1.3, 4)
    space = SpaceSpec.h(-0.25)
    k = KernelSpec(kappa=2.0)
    c_star = sample_spec(grid1, "powerlaw(1.5)")
    d_star = sample_spec(grid2, "gauss(1)")
    f, g = manufactured_case(c_star, d_star, k, k, grid1, grid2)
    solution = solve_corner(CornerSystem(k, k, f, g, space), grid1, grid2)
    err_c = (weighted_norm(sample(grid1, solution.c.values - c_star.values), space)
             / weighted_norm(c_star, space))
    err_d = (weighted_norm(sample(grid2, solution.d.values - d_star.values), space)
             / weighted_norm(d_star, space))
    ok = (grid1.size == 200 and grid2.size == 200
          and solution.condition_estimate < 1e8 and err_c < 1e-8 and err_d < 1e-8)
    zero = CornerSystem(KernelSpec.zero(), KernelSpec.zero(),
                        sample_spec(grid2, "gauss(2)"), sample_spec(grid1, "powerlaw(1)"),
                        space)
    plain = solve_corner(zero, grid1, grid2)
    ok = ok and np.array_equal(plain.c.values, zero.g_data.values)
    ok = ok and np.array_equal(plain.d.values, zero.f_data.values)
    report(9, f"manufactured round trip (errors {err_c:.2e}/{err_d:.2e}, "
              f"cond {solution.condition_estimate:.1e}), zero-kernel identity",
           ok, time.perf_counter() - started, 30.0)


def test_criterion_10_sweep_determinism(tmp_path):
    started = time.perf_counter()
    outputs = []
    for name in ("one.csv", "two.csv"):
        path = tmp_path / name
        code = run_cli([
            "sweep",
            "--query", "thm=1,s1=-0.25,s2=-0.25,kappa=1.5",
            "--query", "thm=3,s1=-1,s2=-1,p1=2,p2=4,kappa=2",
            "--panels", "8", "--order", "6",
            "--out", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    report(10, f"repeated sweep runs byte-identical ({len(outputs[0])} bytes)",
           outputs[0] == outputs[1], time.perf_counter() - started, 120.0)
