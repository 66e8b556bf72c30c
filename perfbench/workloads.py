"""The three workloads.  Each one has a cold set-up, a round (the fixed unit
of work that is timed and repeated), a pool of round inputs made from the
seed (round k of a run gets input k mod pool), an output check and its own
rates.

Why each workload is here:

* scan     -- the loop a user runs when choosing weight exponents: a fresh
              x1 family per round, its zeros at n = 10..50 and the file-free
              report sections.  Every family pays a cold Gauss-Jacobi rule, so
              jacobi dominates; Chebyshev-basis Aberth runs; the sampler and
              the raster never run.
* sample   -- balanced-measure sampling of the stock family at degrees
              11/21/41: warm-started monomial Aberth solves plus a recurrence
              refine per step.  Quadrature runs only in set-up.
* geometry -- escape rasters of interior-heavy closed forms (z^2, z^2 - 1)
              and escape-heavy stock members, plus cold preimage solves from
              the Cauchy circle: the same solver as sample, started cold.
"""

import time
from collections import defaultdict

import numpy as np

import checks

STOCK = (0.02, 1.2)

SCAN_NS = (10, 20, 30, 40, 50)
SCAN_ALPHA = (0.01, 0.3)
SCAN_BETA = (0.8, 2.0)
GREEN_POINTS = (2.0 + 0j, 1.0 + 1j, -3.0 + 0j, 0.5 + 2j)

SAMPLE_NS = (10, 20, 40)
SAMPLE_POINTS = 100
BURN_IN = 100

RASTER = {"center": 0j, "half_width": 2.0, "resolution": 512, "max_iter": 100}
FILLED = (("z2", (0.0, 0.0, 1.0)), ("z2m1", (-1.0, 0.0, 1.0)))
RASTER_NS = (10, 20, 40)
SOLVE_NS = (10, 20, 40, 50)
SOLVES_PER_DEGREE = 2
TARGET_BOX = (-1.5, 1.5, -0.5, 0.5)


def _timed(parts, part, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    parts[part] += time.perf_counter() - t0
    return out


def _round_seed(seed: int, i: int, n: int) -> int:
    return int(np.random.SeedSequence([seed, i, n]).generate_state(1, np.uint64)[0])


class Tally:
    """Checked operations: attempted, failed, and wrong counts by kind."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checked = defaultdict(int)
        self.wrong = defaultdict(int)
        self.counters = defaultdict(int)
        self.errors = []

    def record(self, kind: str, checked: int, wrong: int):
        self.attempted += checked
        self.failed += wrong
        self.checked[kind] += checked
        self.wrong[kind] += wrong


def _stock_family(xj, tr):
    with tr.span("exceptional.make_x1_preset"):
        return xj.make_x1_preset(xj.JacobiParams(*STOCK))


class Scan:
    name = "scan"
    ops_per_round = len(SCAN_NS)
    pool = 8

    def __init__(self, xj, seed: int):
        self.xj = xj
        self._rng = np.random.default_rng([seed, 0])
        self._params = []
        self.family = None

    def family_params(self, i: int):
        while len(self._params) <= i:
            a = float(self._rng.uniform(*SCAN_ALPHA))
            b = float(self._rng.uniform(*SCAN_BETA))
            self._params.append(self.xj.JacobiParams(a, b))
        return self._params[i]

    def setup(self, tr):
        with tr.span("exceptional.make_x1_preset"):
            self.family = self.xj.make_x1_preset(self.family_params(0))

    def setup_family(self):
        return self.family

    def run_round(self, i, tr, parts):
        xj = self.xj
        with tr.span("exceptional.make_x1_preset"):
            fam = xj.make_x1_preset(self.family_params(i))
        with tr.span("rootfind.roots"):
            bt_roots = xj.roots(fam.b_tilde) if fam.b_tilde.degree >= 1 else np.array([])
        zcs, ks, exc_dist = {}, {}, {}
        for n in SCAN_NS:
            with tr.span("rootfind.classify_zeros", f"n{n}"):
                zc = xj.classify_zeros(fam, n)
            with tr.span("measures"):
                ks[n] = xj.ks_distance_real(xj.zero_counting_measure(zc), xj.arcsine_cdf)
                if len(zc.exceptional) and len(bt_roots):
                    exc_dist[n] = float(np.max(np.min(
                        np.abs(zc.exceptional[:, None] - bt_roots[None, :]), axis=1)))
            zcs[n] = zc
        with tr.span("exceptional.asymptotics"):
            lead_gap = [abs(xj.leading_coeff_exceptional(fam, n) ** (1.0 / n) - 2.0)
                        for n in SCAN_NS]
            green_gap = []
            for z in GREEN_POINTS:
                g = xj.green_complement_interval(z)
                green_gap.append([abs(float(np.log(abs(xj.eval_exceptional(fam, n, z)))) / n - g)
                                  for n in SCAN_NS])
        return {"family": fam, "zeros": zcs, "ks": ks, "exc_dist": exc_dist,
                "lead_gap": lead_gap, "green_gap": green_gap}

    def round_family(self, out):
        return out["family"]

    def check(self, out, tally, i):
        fam = out["family"]
        for n, zc in out["zeros"].items():
            tally.record("classify", 1, 0 if checks.zeros_ok(self.xj, fam, n, zc) else 1)

    def rates(self, rounds, parts):
        return {"families_per_s": (len(rounds) / sum(rounds), "1/s")}


class Sample:
    name = "sample"
    ops_per_round = len(SAMPLE_NS) * (SAMPLE_POINTS - 1)
    pool = 4

    def __init__(self, xj, seed: int):
        self.xj = xj
        self.seed = seed
        self.family = None

    def setup(self, tr):
        xj = self.xj
        fam = _stock_family(xj, tr)
        with tr.span("exceptional.monomial_coeffs"):
            polys = [xj.monomial_coeffs(fam, n) for n in SAMPLE_NS]
        with tr.span("exceptional.newton_refiner"):
            refiners = [xj.exceptional.newton_refiner(fam, n) for n in SAMPLE_NS]
        with tr.span("dynamics.escape_radius"):
            datas = xj.dynamics.batch_escape_data(polys, refiners)
        self.family = fam
        self.datas = dict(zip(SAMPLE_NS, datas))
        # the traced rounds time each refine step by wrapping the callable the
        # sampler is given; untraced rounds keep the bare one
        self.traced_datas = {n: xj.EscapeData(e.poly, e.r_escape, e.r_uniform,
                                              self._traced_refine(tr, e))
                             for n, e in self.datas.items()} if tr.enabled else None

    @staticmethod
    def _traced_refine(tr, e):
        refine = e.refine
        key = f"d{e.degree}"

        def traced(z, w):
            with tr.span("exceptional.refine", key):
                return refine(z, w)

        return traced

    def setup_family(self):
        return self.family

    def run_round(self, i, tr, parts):
        datas = self.traced_datas if tr.enabled else self.datas
        out = {}
        for n in SAMPLE_NS:
            e = datas[n]
            key = f"d{e.degree}"
            with tr.span("dynamics.brolin_sample", key):
                s = _timed(parts, key, self.xj.brolin_sample, e, SAMPLE_POINTS,
                           burn_in=BURN_IN, seed=_round_seed(self.seed, i, n))
            with tr.span("measures"):
                self.xj.chebyshev_moments(s.to_measure(), 6)
            out[n] = s
        return out

    def round_family(self, out):
        return None

    def check(self, out, tally, i):
        for n, s in out.items():
            e = self.datas[n]
            checked, wrong = checks.orbit_wrong_steps(self.xj, self.family, n, e, s.points)
            tally.record(f"steps.d{e.degree}", checked, wrong)

    def rates(self, rounds, parts):
        steps = len(rounds) * (BURN_IN + SAMPLE_POINTS)
        return {f"steps_per_s.d{self.datas[n].degree}":
                (steps / parts[f"d{self.datas[n].degree}"], "1/s") for n in SAMPLE_NS}


class Geometry:
    name = "geometry"
    ops_per_round = len(FILLED) + len(RASTER_NS) + len(SOLVE_NS) * SOLVES_PER_DEGREE
    pool = 12

    def __init__(self, xj, seed: int):
        self.xj = xj
        self.seed = seed
        self.family = None

    def setup(self, tr):
        xj = self.xj
        with tr.span("dynamics.escape_radius"):
            self.filled = {label: xj.escape_radius(xj.Poly(list(c))) for label, c in FILLED}
        fam = _stock_family(xj, tr)
        with tr.span("exceptional.monomial_coeffs"):
            polys = {n: xj.monomial_coeffs(fam, n) for n in SOLVE_NS}
        with tr.span("dynamics.escape_radius"):
            self.members = {n: xj.escape_radius(p) for n, p in polys.items()}
        self.family = fam

    def setup_family(self):
        return self.family

    def run_round(self, i, tr, parts):
        xj = self.xj
        rasters = []
        for kind, items in (("filled", self.filled.items()),
                            ("family", ((n, self.members[n]) for n in RASTER_NS))):
            for label, e in items:
                with tr.span("dynamics.escape_raster", kind):
                    r = _timed(parts, kind, xj.escape_raster, e, **RASTER)
                rasters.append((kind, label, e, r))
        rng = np.random.default_rng([self.seed, 2, i])
        lo, hi, ilo, ihi = TARGET_BOX
        solves = []
        for n in SOLVE_NS:
            e = self.members[n]
            for _ in range(SOLVES_PER_DEGREE):
                w = complex(rng.uniform(lo, hi), rng.uniform(ilo, ihi))
                with tr.span("dynamics.solve_preimages", f"d{e.degree}"):
                    z = _timed(parts, "solve", xj.dynamics.solve_preimages, e, w)
                solves.append((n, e, w, z))
        return {"rasters": rasters, "solves": solves}

    def round_family(self, out):
        return None

    def check(self, out, tally, i):
        for j, (kind, label, e, r) in enumerate(out["rasters"]):
            ok = checks.recount_ok(e, r, np.random.default_rng([self.seed, 3, i, j]))
            if label == "z2":
                ok = ok and checks.unit_disk_ok(r)
            elif label == "z2m1":
                ok = ok and checks.basilica_interior_ok(r)
            tally.record(f"raster.{kind}", 1, 0 if ok else 1)
            tally.counters[f"pixel_iters.{kind}"] += int(r.counts.sum(dtype=np.int64))
        for n, e, w, z in out["solves"]:
            ok = checks.solve_ok(self.xj, self.family, n, e, w, z)
            tally.record(f"solve.d{e.degree}", 1, 0 if ok else 1)

    def rates(self, rounds, parts):
        pixels = RASTER["resolution"] ** 2 * len(rounds)
        n_solves = len(rounds) * len(SOLVE_NS) * SOLVES_PER_DEGREE
        return {
            "raster_mpix_per_s.filled": (pixels * len(FILLED) / parts["filled"] / 1e6, "Mpix/s"),
            "raster_mpix_per_s.family": (pixels * len(RASTER_NS) / parts["family"] / 1e6, "Mpix/s"),
            "solves_per_s": (n_solves / parts["solve"], "1/s"),
        }


WORKLOADS = {w.name: w for w in (Scan, Sample, Geometry)}
