"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Criteria 2 and 3 assert the full stated ordering;
see the per-leg printout for which comparisons hold.
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest
from scipy import integrate, special

import lcdsc
from lcdsc import (
    EmdConfig,
    LcdscConfig,
    LocalSignalSpec,
    Penalty,
    SegStats,
    detect_changepoints,
    f_cdf,
    gamma_sweep,
    lcdsc_clean,
    local_doppler,
    penalty_value,
    reconstruct,
    run_benchmark,
    segment_cost,
    separability_check,
)
from lcdsc.cli import main as cli_main
from lcdsc.emd import emd

ALL_METHODS = ["lcdsc", "khigh", "llow", "band", "powerset", "wht", "wit", "none"]


def report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_sim1_onset_accuracy():
    """Local Doppler onset: median first nonzero in [975, 1050], < 60 s total."""
    onsets = []
    start = time.perf_counter()
    for seed in range(10):
        noisy, truth, _ = local_doppler(LocalSignalSpec(2500, 1000, 1500, 0.2, seed=seed))
        config = LcdscConfig(emd=EmdConfig(ensemble_size=100, seed=seed))
        rep = lcdsc_clean(noisy, config)
        nonzero = np.flatnonzero(rep.cleaned_signal)
        onsets.append(int(nonzero[0]) if nonzero.size else -1)
    elapsed = time.perf_counter() - start
    median = float(np.median(onsets))
    ok = 975 <= median <= 1050 and elapsed < 60.0
    assert report(
        1, ok, f"median onset {median:.0f} over seeds {onsets}, runtime {elapsed:.1f}s"
    )


def test_criterion_02_sim2_ordering():
    """Mean RSS of the cleaner vs every competitor at T=2500, sigma=0.35."""
    config = LcdscConfig(emd=EmdConfig(ensemble_size=16))
    results = run_benchmark(
        ALL_METHODS, [(2500, 0.35, 0.25)], replicates=20, base_seed=2024, config=config
    )
    means = {
        m: float(np.mean([r.rss for r in results if r.method == m])) for m in ALL_METHODS
    }
    legs = {m: means["lcdsc"] < v for m, v in means.items() if m != "lcdsc"}
    detail = "  ".join(f"{m}={means[m]:.1f}" for m in sorted(means, key=means.get))
    ok = all(legs.values())
    report(2, ok, detail + f"  | losing legs: {[m for m, v in legs.items() if not v] or 'none'}")
    assert ok, (
        "strict mean-RSS dominance fails against "
        f"{[m for m, v in legs.items() if not v]}: the truth-guided oracle "
        "floor of whole-segment cleaning already ties the interval threshold "
        "on this grid, so the stated ordering is unattainable for the method"
    )


def test_criterion_03_sim3_crossover():
    """Locality sweep: dominance at ratio 4, within 2x of the best at 0.25."""
    config = LcdscConfig(emd=EmdConfig(ensemble_size=12))
    outcomes = {}
    details = []
    for ratio in (4.0, 0.25):
        results = run_benchmark(
            ALL_METHODS, [(2000, 0.35, ratio)], replicates=20, base_seed=777, config=config
        )
        means = {
            m: float(np.mean([r.rss for r in results if r.method == m])) for m in ALL_METHODS
        }
        best_other = min(v for m, v in means.items() if m != "lcdsc")
        if ratio == 4.0:
            outcomes["dominates_at_4"] = means["lcdsc"] == min(means.values())
        else:
            outcomes["within_2x_at_025"] = means["lcdsc"] <= 2.0 * best_other
        details.append(
            f"ratio={ratio}: lcdsc={means['lcdsc']:.1f} best-other={best_other:.1f}"
        )
    ok = all(outcomes.values())
    report(3, ok, "; ".join(details) + f" | {outcomes}")
    assert ok, (
        f"{outcomes}: with the signal spanning 4/5 of the record, the "
        "neighbor-referenced variance test zeroes interior signal segments "
        "(their neighbors are signal too), so dominance at ratio 4 is "
        "unattainable for the method as defined"
    )


def _alternating_instance(seed):
    rng = np.random.default_rng([4242, seed])
    n = int(rng.integers(16, 41))
    mags = rng.uniform(0.7, 1.3, n)
    signs = np.ones(n)
    signs[1::2] = -1
    x = mags * signs
    kind = seed % 3
    if kind == 1:
        cut = int(rng.integers(5, n - 5))
        x[cut:] *= 3.0
    elif kind == 2:
        c1 = int(rng.integers(4, n // 2))
        c2 = int(rng.integers(n // 2 + 2, n - 4))
        x[c1:c2] *= 3.0
    return x


def _enumerate_best(x, penalty, msl, max_m=3):
    n = len(x)
    stats = SegStats.from_series(x)
    best = None
    for m in range(0, max_m + 1):
        for taus in itertools.combinations(range(msl - 1, n - msl), m):
            starts = [0] + [t + 1 for t in taus]
            ends = list(taus) + [n - 1]
            lengths = [e - s + 1 for s, e in zip(starts, ends)]
            if any(length < msl for length in lengths):
                continue
            total = sum(segment_cost(stats, s, e) for s, e in zip(starts, ends))
            total += penalty_value(penalty, lengths)
            key = (total, m, taus)
            if best is None or key < best:
                best = key
    return best


def test_criterion_04_changepoint_oracle_equivalence():
    """Detector matches exhaustive enumeration exactly on 50 seeded instances."""
    start = time.perf_counter()
    checked = 0
    for seed in range(50):
        x = _alternating_instance(seed)
        for penalty in (Penalty("bic"), Penalty("mbic")):
            got = detect_changepoints(x, penalty, 3)
            assert len(got.taus) <= 3, f"seed {seed}: optimum exceeded the enumeration cap"
            want = _enumerate_best(x, penalty, 3)
            assert got.taus == want[2], (seed, penalty.kind, got.taus, want[2])
            assert got.total_cost == want[0], (seed, penalty.kind)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 100 and elapsed < 10.0
    assert report(4, ok, f"{checked} instances matched enumeration, runtime {elapsed:.1f}s")


def test_criterion_05_emd_additive_identity():
    """Reconstruction error below 1e-9 of the signal range for 100 signals."""
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(64, 4097))
        x = rng.normal(0, 1, n)
        d = emd(x)
        err = float(np.max(np.abs(x - reconstruct(d)))) / (x.max() - x.min())
        worst = max(worst, err)
    ok = worst < 1e-9
    assert report(5, ok, f"worst relative reconstruction error {worst:.2e}")


def _f_cdf_quadrature(x, df1, df2):
    a, b = df1 / 2, df2 / 2
    z = df1 * x / (df1 * x + df2)
    ln_beta = special.betaln(a, b)

    def regularized(a_, b_, z_):
        val, _ = integrate.quad(
            lambda t: (1 - t) ** (b_ - 1) / math.exp(ln_beta),
            0,
            z_,
            weight="alg",
            wvar=(a_ - 1, 0),
            limit=200,
        )
        return val

    if z <= 0.5:
        return regularized(a, b, z)
    return 1 - regularized(b, a, 1 - z)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_criterion_06_f_cdf_accuracy():
    """F-distribution values within 1e-8 of quadrature across the grid."""
    worst = 0.0
    for x in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0):
        for df1 in (1, 2, 5, 10, 100, 500):
            for df2 in (1, 2, 5, 10, 100, 500):
                err = abs(f_cdf(x, df1, df2) - _f_cdf_quadrature(x, df1, df2))
                worst = max(worst, err)
    center = max(abs(f_cdf(1.0, d, d) - 0.5) for d in range(1, 21))
    ok = worst < 1e-8 and center < 1e-12
    assert report(6, ok, f"max quadrature error {worst:.2e}, center error {center:.2e}")


def test_criterion_07_null_sparsity():
    """At most 10% of pure-noise runs produce any nonzero cleaned output."""
    nonzero_runs = 0
    for seed in range(100):
        x = np.random.default_rng([9090, seed]).normal(0, 1, 2000)
        config = LcdscConfig(emd=EmdConfig(ensemble_size=8, seed=seed))
        rep = lcdsc_clean(lcdsc.TimeSeries(x), config)
        if np.any(rep.cleaned_signal != 0):
            nonzero_runs += 1
    ok = nonzero_runs / 100 <= 0.10
    assert report(7, ok, f"{nonzero_runs}/100 null runs produced nonzero output")


def test_criterion_08_sim4_separability():
    """Two bursts: mid components separable at low noise, the fastest not at high."""
    passes_low = {j: 0 for j in (3, 4, 5)}
    passes_high_imf1 = 0
    for seed in range(20):
        for sigma in (0.25, 0.9):
            noisy, truth, a1, a2 = lcdsc.double_doppler(500, sigma, seed=seed)
            config = LcdscConfig(emd=EmdConfig(ensemble_size=12, seed=seed))
            rep = lcdsc_clean(noisy, config)
            if sigma == 0.25:
                for j in (3, 4, 5):
                    if j <= len(rep.cleaned_imfs):
                        try:
                            passes_low[j] += separability_check(rep.cleaned_imfs[j - 1], a1, a2)
                        except ValueError:
                            pass
            else:
                try:
                    passes_high_imf1 += separability_check(rep.cleaned_imfs[0], a1, a2)
                except ValueError:
                    pass
    ok = all(v >= 16 for v in passes_low.values()) and passes_high_imf1 <= 6
    assert report(
        8,
        ok,
        f"sigma=0.25 passes imf3-5 {tuple(passes_low.values())}/20, "
        f"sigma=0.9 imf1 passes {passes_high_imf1}/20",
    )


def test_criterion_09_gamma_sweep_monotonicity():
    """Nonzero counts never increase across the gamma ladder, every seed."""
    gammas = [1.0, 1.5, 2.0, 3.0, 4.0]
    all_ok = True
    counts_by_seed = []
    for seed in range(10):
        noisy, truth, _ = local_doppler(LocalSignalSpec(2500, 1000, 1500, 0.2, seed=seed))
        config = LcdscConfig(emd=EmdConfig(ensemble_size=16, seed=seed))
        reports = gamma_sweep(noisy, gammas, config)
        counts = [int(np.count_nonzero(r.cleaned_signal)) for r in reports]
        counts_by_seed.append(counts)
        if any(b > a for a, b in zip(counts, counts[1:])):
            all_ok = False
    assert report(9, all_ok, f"counts per seed {counts_by_seed}")


def test_criterion_10_cli_determinism(tmp_path):
    """Every command yields byte-identical output across reruns."""
    sim = tmp_path / "sim"
    assert cli_main([
        "simulate", "doppler", "--T", "700", "--a-start", "280", "--a-end", "420",
        "--sigma", "0.25", "--seed", "3", "--out", str(sim),
    ]) == 0
    grid = tmp_path / "grid.cfg"
    grid.write_text("T = 500\nsigma = 0.3\nlocality = 0.25\n")

    mismatches = []
    cases = {
        "clean": lambda out: cli_main([
            "clean", str(sim / "noisy.csv"), "--out-dir", str(out),
            "--ensemble-size", "8", "--seed", "3",
        ]),
        "sweep": lambda out: cli_main([
            "sweep-gamma", str(sim / "noisy.csv"), "--gammas", "1,2", "--out-dir", str(out),
            "--ensemble-size", "8", "--seed", "3",
        ]),
        "decompose": lambda out: cli_main([
            "decompose", str(sim / "noisy.csv"), "--out-dir", str(out),
            "--amplitudes", "--ensemble-size", "8", "--seed", "3",
        ]),
        "bench": lambda out: cli_main([
            "bench", "--grid", str(grid), "--methods", "lcdsc,none,wht,wit",
            "--replicates", "2", "--seed", "9", "--ensemble-size", "6",
            "--out", str(out / "table.csv"),
        ]),
    }
    for name, invoke in cases.items():
        out_a, out_b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        out_a.mkdir(), out_b.mkdir()
        assert invoke(out_a) == 0
        assert invoke(out_b) == 0
        for root, _, files in os.walk(out_a):
            rel = os.path.relpath(root, out_a)
            for fname in files:
                a = os.path.join(root, fname)
                b = os.path.join(out_b, rel, fname)
                if open(a, "rb").read() != open(b, "rb").read():
                    mismatches.append(f"{name}/{rel}/{fname}")
    ok = not mismatches
    assert report(10, ok, f"mismatched outputs: {mismatches or 'none'}")
