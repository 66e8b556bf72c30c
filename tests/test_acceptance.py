"""Acceptance gate: the headline checks at their pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one verdict line per
criterion.  Everything is deterministic given the seeds baked into the shared
fixtures; it runs in 22-32 s, and the full suite in 42-54 s, on two shared cores.
"""

import math

import numpy as np

import xjulia as xj
from xjulia import dynamics as dyn
from xjulia import exceptional as ex
from xjulia import measures as ms
from xjulia.cli import main as cli_main

import oracles
from test_jacobi import beta_integral_oracle

LOG2 = math.log(2.0)
GREEN_POINTS = (2.0, 1 + 1j, -3.0, 0.5 + 2j)


def verdict(num, ok, detail):
    from conftest import ACCEPTANCE_VERDICTS

    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}"
    ACCEPTANCE_VERDICTS.append(line)
    print(line)
    assert ok, line


class TestAcceptance:
    def test_c01_classical_oracles(self):
        leg = xj.JacobiParams(0.0, 0.0)
        cheb = xj.JacobiParams(-0.5, -0.5)
        closed = [
            abs(xj.eval_orthonormal_jacobi(leg, 1, 1.0) - math.sqrt(1.5)),
            abs(xj.eval_orthonormal_jacobi(leg, 0, 0.0) - 1 / math.sqrt(2)),
            abs(xj.eval_orthonormal_jacobi(cheb, 3, 0.5)
                - math.sqrt(2 / math.pi) * (-1.0)),
            abs(xj.leading_coeff_jacobi(cheb, 4) - math.sqrt(2 / math.pi) * 8),
            abs(xj.gauss_jacobi_rule(cheb, 6).weights.sum() - math.pi),
            abs(xj.gauss_jacobi_rule(leg, 6).weights.sum() - 2.0),
        ]
        worst_closed = max(closed)

        worst_quad = 0.0
        count = 0
        for alpha, beta in ((0.0, 0.0), (-0.5, -0.5), (1.0, 1.0), (2.5, 0.5)):
            params = xj.JacobiParams(alpha, beta)
            rule = xj.gauss_jacobi_rule(params, 6)
            scale = params.weight_mass
            for k in range(5):
                exact = beta_integral_oracle(alpha, beta, k)
                got = rule.integrate_values(rule.nodes ** k)
                worst_quad = max(worst_quad,
                                 abs(got - exact) / max(abs(exact), 1e-3 * scale))
                count += 1
        assert count == 20
        verdict(1, worst_closed <= 1e-10 and worst_quad <= 1e-12,
                f"closed-form dev {worst_closed:.2e}, beta-integral rel {worst_quad:.2e}")

    def test_c02_construction_oracles(self, stock_family):
        ortho_dev, _ = ex.orthonormality_deviation(stock_family, 15)
        sigma_dev = max(ex.sigma_discrepancy(stock_family, n) for n in range(51))
        lead_dev = 0.0
        for n in range(10, 51, 5):
            lead = xj.leading_coeff_exceptional(stock_family, n)
            est = oracles.leading_coeff_estimate(stock_family, n)
            lead_dev = max(lead_dev, abs(lead - est) / abs(est))
        verdict(2, ortho_dev <= 1e-8 and sigma_dev <= 1e-6 and lead_dev <= 1e-6,
                f"ortho {ortho_dev:.2e}, sigma {sigma_dev:.2e}, lead {lead_dev:.2e}")

    def test_c03_leading_coeff_root_limit(self, stock_family):
        g25 = abs(xj.leading_coeff_exceptional(stock_family, 25) ** (1 / 25) - 2.0)
        g50 = abs(xj.leading_coeff_exceptional(stock_family, 50) ** (1 / 50) - 2.0)
        verdict(3, g50 <= 0.15 and g50 < g25,
                f"gap(25) {g25:.4f} -> gap(50) {g50:.4f}")

    def test_c04_green_function_limit(self, stock_family):
        ok = True
        worst40 = 0.0
        for z in GREEN_POINTS:
            g = ms.green_complement_interval(z)
            gaps = [abs(math.log(abs(ex.eval_exceptional(stock_family, n, complex(z))))
                        / n - g)
                    for n in (10, 20, 40)]
            ok = ok and gaps[0] > gaps[1] > gaps[2] and gaps[2] <= 0.1
            worst40 = max(worst40, gaps[2])
        verdict(4, ok, f"worst gap at n=40: {worst40:.4f}, decreasing at 4 points")

    def test_c05_zero_counting(self, stock_classifications, stock_pole):
        zc50 = stock_classifications[50]
        counts_ok = (len(zc50.regular) == 50 and len(zc50.exceptional) == 1
                     and np.all(np.diff(zc50.regular) > 1e-10)
                     and np.all(np.abs(zc50.regular) < 1))
        ks = {n: xj.ks_distance_real(xj.zero_counting_measure(zc), xj.arcsine_cdf)
              for n, zc in stock_classifications.items()}
        dists = [float(np.max(np.abs(zc.exceptional - stock_pole)))
                 for n, zc in sorted(stock_classifications.items())]
        trend_ok = all(b < a for a, b in zip(dists, dists[1:]))
        verdict(5, counts_ok and ks[50] <= 0.05 and ks[50] < ks[10] and trend_ok,
                f"KS(10) {ks[10]:.4f} -> KS(50) {ks[50]:.4f}, exc dist "
                f"{dists[0]:.4f} -> {dists[-1]:.4f}")

    def test_c06_dynamics_oracles(self, square_escape, square_sample, cheb_sample):
        radius_dev = float(np.max(np.abs(np.abs(square_sample.points) - 1.0)))
        mean_dev = abs(square_sample.points.mean())
        im_dev = float(np.max(np.abs(cheb_sample.points.imag)))
        ks = xj.ks_distance_real(
            xj.EmpiricalMeasure(cheb_sample.points / 2.0),
            xj.arcsine_cdf)
        raster = dyn.escape_raster(square_escape, half_width=1.5, resolution=512,
                                   max_iter=100)
        xs, ys = raster.pixel_centers()
        zz = np.abs(xs[None, :] + 1j * ys[:, None])
        pix = raster.pixel_width
        bounded = raster.counts == raster.max_iter
        raster_ok = (np.all(bounded[zz <= 1 - pix])
                     and not np.any(bounded[zz >= 1 + pix]))
        verdict(6, radius_dev <= 1e-9 and mean_dev <= 0.02 and im_dev <= 1e-9
                and ks <= 0.02 and raster_ok,
                f"circle radius dev {radius_dev:.1e}, |mean z| {mean_dev:.3f}, "
                f"segment im {im_dev:.1e}, KS {ks:.4f}, raster disk +-1px")

    def test_c07_balanced_measure_limit(self, stock_samples):
        moms, ims = [], []
        for n in (10, 20, 40):
            mu = stock_samples[n].to_measure()
            moms.append(float(np.max(np.abs(xj.chebyshev_moments(mu, 6)[1:]))))
            ims.append(float(np.mean(np.abs(stock_samples[n].points.imag))))
        decreasing = all(b < a for a, b in zip(moms, moms[1:]))
        im_decreasing = all(b < a for a, b in zip(ims, ims[1:]))
        verdict(7, moms[-1] <= 0.1 and decreasing and im_decreasing,
                f"max |T_k moment| {moms[0]:.3f} -> {moms[1]:.3f} -> {moms[2]:.3f}, "
                f"mean|Im| {ims[0]:.5f} -> {ims[2]:.5f}")

    def test_c08_uniform_bound_and_containment(self, stock_escape, stock_samples):
        r_uniform = stock_escape[10].r_uniform
        sample_bound = max(float(np.max(np.abs(s.points)))
                           for s in stock_samples.values())
        contained_from = None
        for n in sorted(stock_escape):
            ok, _ = oracles.boundary_preimage_containment(stock_escape[n])
            if ok and contained_from is None:
                contained_from = n
            elif not ok:
                contained_from = None
        verdict(8, sample_bound <= r_uniform + 1e-6 and contained_from is not None,
                f"samples bounded by {sample_bound:.3f} <= R~ {r_uniform:.3f}, "
                f"boundary containment from n={contained_from}")

    def test_c09_preimage_counts(self, stock_escape, stock_samples):
        region = (1.5, 2.5, -0.5, 0.5)
        rng = np.random.Generator(np.random.Philox(key=20260808))
        counts = {}
        for n in (10, 20, 30, 40, 50):
            targets = rng.choice(stock_samples[n].points, size=20, replace=False)
            counts[n] = max(dyn.preimage_count_in_set(stock_escape[n], w, region)
                            for w in targets)
        late = max(counts[40], counts[50])
        early = max(counts[10], counts[20])
        verdict(9, late <= early + 1,
                f"max counts by n: {[counts[n] for n in (10, 20, 30, 40, 50)]}")

    def test_c10_potential_constants(self):
        cloud = xj.EmpiricalMeasure(
            oracles.arcsine_quantiles(512).astype(complex))
        energy_dev = abs(oracles.energy(cloud) - LOG2)
        rng = np.random.default_rng(22)
        worst_pot = 0.0
        count = 0
        while count < 20:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            x = min(max(z.real, -1.0), 1.0)
            if abs(z - x) < 0.5:
                continue
            count += 1
            want = LOG2 - ms.green_complement_interval(z)
            worst_pot = max(worst_pot, abs(oracles.log_potential(cloud, z) - want))
        verdict(10, energy_dev <= 2e-2 and worst_pot <= 5e-3,
                f"|energy - log 2| {energy_dev:.4f}, potential identity {worst_pot:.1e}")

    def test_c11_cli_determinism(self, tmp_path):
        preset = ["--preset", "x1", "--alpha", "0.02", "--beta", "1.2"]
        jobs = [
            ("zeros", [*preset, "--n-list", "8,12"]),
            ("julia", ["--raw-poly", "0,0,1", "--resolution", "64",
                       "--max-iter", "40", "--half-width", "1.5"]),
            ("brolin", [*preset, "--n", "6", "--samples", "400",
                        "--burn-in", "25", "--seed", "77"]),
        ]
        identical = True
        for cmd, args in jobs:
            blobs = []
            for tag in ("one", "two"):
                out = tmp_path / f"{cmd}_{tag}"
                assert cli_main([cmd, *args, "--out", str(out)]) == 0
                blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            identical = identical and blobs[0] == blobs[1]
        verdict(11, identical, "zeros/julia/brolin outputs byte-identical on rerun")
