"""Benchmark of xjulia's public pipelines; see NOTES.md for the design.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Workloads: scan, sample, geometry.  Each workload generates a fixed pool of
round inputs from --seed.  The run sets up cold several times, then cycles
through the pool until --seconds of round time have passed and the pool has
been run once.  The outputs of the first pass are checked, outside the timed
sections, so `attempted` and `failed` depend on the seed alone.  Every round
is bracketed by a fixed reference kernel that does not touch xjulia, and the
gated time is the round's wall time in units of that kernel (see NOTES.md).
With --trace 1 each round runs untraced and traced, and the metrics are
per-layer self times plus the tracing overhead.

Standard output ends with one JSON line {"correct", "attempted", "failed",
"metrics"}; the lines before it are a readable report.  The full record,
with provenance and, for traced runs, every span, is written to
perfbench/out/<workload>-seed<seed>-trace<0|1>.json.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
RULE_ORDER = 200
LOAD_MODEL = ("closed loop: one single-client Python process, each call issued "
              "after the previous one returns; no worker count passed, so the "
              "sampler runs one orbit; numpy may use up to nproc threads")


class Reference:
    """A fixed kernel that calls nothing in xjulia, so a change to xjulia
    never moves its time.  It runs complex Horner sweeps in a Python loop
    over a 41-point array, the shape of the Aberth and recurrence sweeps that
    dominate scan and sample, and over a 65536-point array, the shape of the
    escape raster.  Small-array sweeps follow the host's processor speed;
    large-array sweeps are also bound by memory traffic."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.coeffs = rng.standard_normal(41) + 0j
        self.small = 0.5 * (rng.standard_normal(41) + 1j * rng.standard_normal(41))
        self.large = 0.5 * (rng.standard_normal(65536) + 1j * rng.standard_normal(65536))

    def __call__(self):
        """Wall seconds of one pass of the kernel."""
        import numpy as np

        c = self.coeffs
        t0 = time.perf_counter()
        for _ in range(240):
            pv = np.full(self.small.shape, c[-1])
            dv = np.zeros(self.small.shape, dtype=complex)
            for ck in c[-2::-1]:
                dv = dv * self.small + pv
                pv = pv * self.small + ck
        for _ in range(6):
            pv = np.full(self.large.shape, c[-1])
            for ck in c[:12]:
                pv = pv * self.large + ck
        return time.perf_counter() - t0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("scan", "sample", "geometry"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_xjulia():
    """Import the package from this checkout's src/, timing the cold import."""
    src = ROOT / "src"
    if not (src / "xjulia" / "__init__.py").is_file():
        sys.exit(f"perfbench: no xjulia package under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import xjulia
    import_s = time.perf_counter() - t0
    if Path(xjulia.__file__).resolve().parent != (src / "xjulia").resolve():
        sys.exit(f"perfbench: xjulia was imported from {xjulia.__file__}, not {src}")
    return xjulia, import_s


def clear_caches():
    """Empty every functools cache in the package, so set-up and rounds start cold."""
    for name, mod in list(sys.modules.items()):
        if name == "xjulia" or name.startswith("xjulia."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def probe_rule(xj, tracer, fam):
    """The quadrature rule make_x1_preset builds internally, timed on its own."""
    with tracer.span("jacobi.rule"):
        xj.gauss_jacobi_rule(fam.weight_params, RULE_ORDER)


def tail(values):
    """(percentile, value): the highest percentile with ten samples beyond it,
    or the maximum when there are ten samples or fewer."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return 100.0, v[-1]
    return 100.0 * (n - 10) / n, v[n - 11]


def measure(xj, wl, seconds, trace):
    """Cold set-ups, then rounds over the input pool until `seconds` of round
    time have passed and every pool entry has run once."""
    import tracing
    import workloads

    reference = Reference()
    tracer = tracing.Tracer() if trace else tracing.NullTracer()
    untraced = tracing.NullTracer()
    setups = []
    for _ in range(SETUP_REPS):
        clear_caches()
        tracer.run_id = "setup"
        t0 = time.perf_counter()
        with tracer.span("setup"):
            wl.setup(tracer)
        setups.append(time.perf_counter() - t0)
        if trace:
            probe_rule(xj, tracer, wl.setup_family())

    tally = workloads.Tally()
    rounds = {False: [], True: []}
    refs = {False: [], True: []}
    parts = {False: defaultdict(float), True: defaultdict(float)}
    spent = 0.0
    i = 0
    while spent < seconds or i < wl.pool:
        k = i % wl.pool
        first_pass = i < wl.pool
        # traced runs alternate which mode goes first, so warm-up cancels
        modes = (False,) if not trace else ((False, True) if i % 2 == 0 else (True, False))
        for traced in modes:
            tr = tracer if traced else untraced
            clear_caches()
            tracer.run_id = i
            t_ref = time.perf_counter()
            ref_before = reference()
            t0 = time.perf_counter()
            try:
                with tr.span("round"):
                    out = wl.run_round(k, tr, parts[traced])
            except Exception:
                spent += time.perf_counter() - t_ref
                if first_pass and not traced:
                    tally.attempted += wl.ops_per_round
                    tally.failed += wl.ops_per_round
                tally.errors.append(traceback.format_exc())
                print(tally.errors[-1], file=sys.stderr)
                continue
            dt = time.perf_counter() - t0
            ref_after = reference()
            rounds[traced].append(dt)
            refs[traced].append(0.5 * (ref_before + ref_after))
            if traced and wl.round_family(out) is not None:
                probe_rule(xj, tracer, wl.round_family(out))
            # the reference runs and the rule probe count against the budget
            spent += time.perf_counter() - t_ref
            # the inputs repeat after the first pass, and so do the outputs
            if first_pass and not traced:
                wl.check(out, tally, k)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not rounds[False] or (trace and not rounds[True]):
        sys.exit("perfbench: no round completed")
    return tracer, tally, setups, rounds, refs, parts, peak_rss_mb


def per_layer_metrics(tracer, tally, pool, rounds, setup_family_s, import_s):
    """Per-layer values from the traced rounds; see NOTES.md for each one."""
    selfs = tracer.self_times()
    agg = defaultdict(lambda: [0.0, 0])
    durations = defaultdict(list)
    for (name, key, start, end, _, run), s in zip(tracer.spans, selfs):
        phase = "setup" if run == "setup" else "round"
        for k in (key, "*"):
            acc = agg[(name, k, phase)]
            acc[0] += s
            acc[1] += 1
        durations[(name, key)].append(end - start)
    n_rounds = len(rounds[True])

    def per_phase(name, key="*", field=0):
        # layers that run in rounds are totalled per round, set-up-only ones per set-up
        if (name, key, "round") in agg:
            return agg[(name, key, "round")][field] / n_rounds
        if (name, key, "setup") in agg:
            return agg[(name, key, "setup")][field] / SETUP_REPS
        return 0.0

    def p50_ms(name, key):
        d = durations.get((name, key))
        return 1e3 * statistics.median(d) if d else 0.0

    def tail_ms(name, key):
        d = durations.get((name, key))
        return 1e3 * tail(d)[1] if d else 0.0

    m = {
        "setup.import_s": (import_s, "s"),
        "setup.family_s": (setup_family_s, "s"),
        "jacobi.rule.s": (per_phase("jacobi.rule"), "s"),
        "jacobi.rule.calls": (len(durations[("jacobi.rule", None)]), "count"),
        "exceptional.make_x1_preset.s": (per_phase("exceptional.make_x1_preset"), "s"),
        "exceptional.asymptotics.s": (per_phase("exceptional.asymptotics"), "s"),
        "exceptional.monomial_coeffs.s": (per_phase("exceptional.monomial_coeffs"), "s"),
        "measures.s": (per_phase("measures"), "s"),
        "rootfind.classify_zeros.s": (per_phase("rootfind.classify_zeros"), "s"),
        "rootfind.classify_zeros.calls": (per_phase("rootfind.classify_zeros", field=1), "count"),
        "rootfind.classify_zeros.p50_ms.n50": (p50_ms("rootfind.classify_zeros", "n50"), "ms"),
        "rootfind.classify_zeros.wrong": (tally.wrong["classify"], "count"),
    }
    for d in ("d11", "d21", "d41"):
        m[f"dynamics.brolin_sample.s.{d}"] = (per_phase("dynamics.brolin_sample", d), "s")
        m[f"exceptional.refine.s.{d}"] = (per_phase("exceptional.refine", d), "s")
        m[f"exceptional.refine.calls.{d}"] = (per_phase("exceptional.refine", d, 1), "count")
        m[f"dynamics.brolin_sample.wrong_steps.{d}"] = (tally.wrong[f"steps.{d}"], "count")
    for kind in ("filled", "family"):
        m[f"dynamics.escape_raster.s.{kind}"] = (per_phase("dynamics.escape_raster", kind), "s")
        m[f"dynamics.escape_raster.pixel_iters.{kind}"] = (
            tally.counters[f"pixel_iters.{kind}"] // pool, "count")
    for d in ("d11", "d21", "d41", "d51"):
        m[f"dynamics.solve_preimages.p50_ms.{d}"] = (p50_ms("dynamics.solve_preimages", d), "ms")
        m[f"dynamics.solve_preimages.tail_ms.{d}"] = (tail_ms("dynamics.solve_preimages", d), "ms")
        m[f"dynamics.solve_preimages.wrong.{d}"] = (tally.wrong[f"solve.{d}"], "count")
    m["dynamics.solve_preimages.calls"] = (per_phase("dynamics.solve_preimages", field=1), "count")
    # both modes run every round index on the same inputs, so the overhead is
    # the median of the paired differences
    paired = [t - u for t, u in zip(rounds[True], rounds[False])]
    m["trace.wall_s"] = (statistics.median(rounds[True]), "s")
    m["trace.untraced_wall_s"] = (statistics.median(rounds[False]), "s")
    m["trace.overhead_s"] = (statistics.median(paired), "s")

    table = {f"{phase}:{name}" + (f"[{key}]" if key is not None else ""): acc
             for (name, key, phase), acc in agg.items() if key != "*"}
    sample_counts = {f"{name}[{key}]": {"n": len(d), "tail_percentile": tail(d)[0]}
                     for (name, key), d in durations.items()
                     if name in ("dynamics.solve_preimages", "rootfind.classify_zeros")}
    return m, table, sample_counts


def git_commit():
    """HEAD of the checkout's git directory, read from its files; None outside git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, r = line.partition(" ")
            if r.strip() == name:
                return sha
    except OSError:
        pass
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(xj):
    import numpy
    import scipy

    digest = hashlib.sha256()
    src = ROOT / "src" / "xjulia"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "xjulia": xj.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "load_model": LOAD_MODEL,
    }


def workload_inputs(name):
    import workloads as w

    common = {"setup_reps": SETUP_REPS, "pool": w.WORKLOADS[name].pool}
    if name == "scan":
        return {**common, "alpha": w.SCAN_ALPHA, "beta": w.SCAN_BETA, "n": w.SCAN_NS,
                "green_points": [[z.real, z.imag] for z in w.GREEN_POINTS]}
    if name == "sample":
        return {**common, "family": w.STOCK, "n": w.SAMPLE_NS, "points": w.SAMPLE_POINTS,
                "burn_in": w.BURN_IN}
    return {**common, "family": w.STOCK, "filled": [c for _, c in w.FILLED],
            "raster": {**w.RASTER, "center": [0.0, 0.0]}, "raster_n": w.RASTER_NS,
            "solve_n": w.SOLVE_NS, "solves_per_degree": w.SOLVES_PER_DEGREE,
            "target_box": w.TARGET_BOX}


def main(argv=None):
    args = parse_args(argv)
    xj, import_s = import_xjulia()
    import workloads

    wl = workloads.WORKLOADS[args.workload](xj, args.seed)
    tracer, tally, setups, rounds, refs, parts, peak_rss_mb = measure(
        xj, wl, args.seconds, args.trace)
    setup_family_s = statistics.median(setups)
    error_rate = tally.failed / tally.attempted if tally.attempted else 0.0
    untraced = rounds[False]
    e2e = {
        "setup_s": (import_s + setup_family_s, "s"),
        "round_cost": (statistics.median(t / r for t, r in zip(untraced, refs[False])), "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    # raw wall times are reported next to the gated metrics, not gated: they
    # follow the shared host's processor speed, which drifts by tens of percent
    raw = {
        "wall_s": (statistics.median(untraced), "s"),
        "ref_s": (statistics.median(refs[False]), "s"),
    }
    rates = wl.rates(untraced, parts[False])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": workload_inputs(args.workload),
        "provenance": provenance(xj),
        "rounds": {"untraced": untraced, "traced": rounds[True]},
        "reference_s": {"untraced": refs[False], "traced": refs[True]},
        "setup_family_s": setups, "import_s": import_s,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "raw_times": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "workload_rates": {k: {"value": v, "unit": u} for k, (v, u) in rates.items()},
        "error_rate": error_rate, "attempted": tally.attempted, "failed": tally.failed,
        "checked_by_kind": dict(tally.checked), "wrong_by_kind": dict(tally.wrong),
        "errors": tally.errors,
    }

    print(f"xjulia benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(untraced)} untraced / {len(rounds[True])} traced rounds")
    for k, (v, u) in {**e2e, **raw, **rates}.items():
        print(f"  {k:<28} {v:12.6g} {u}")
    print(f"  {'error_rate':<28} {error_rate:12.6g} ({tally.failed} wrong of "
          f"{tally.attempted} checked: {dict(tally.wrong)})")
    if args.trace:
        metrics, table, counts = per_layer_metrics(tracer, tally, wl.pool, rounds,
                                                   setup_family_s, import_s)
        record.update(per_layer={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                      self_times=table, sample_counts=counts, spans=tracer.records())
        print("  per layer (self time per round, or per set-up for set-up-only layers):")
        for k, (v, u) in metrics.items():
            print(f"    {k:<44} {v:12.6g} {u}")
        print(f"  tracing overhead {metrics['trace.overhead_s'][0]:.6g} s per round "
              f"(median traced minus untraced on the same inputs); wall_s traced "
              f"{metrics['trace.wall_s'][0]:.6g} s, untraced "
              f"{metrics['trace.untraced_wall_s'][0]:.6g} s")
    else:
        metrics = e2e

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"  record: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
