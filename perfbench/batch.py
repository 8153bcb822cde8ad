"""The two `latol run` workloads: surface_stream (streamed, warm-started
lattice) and grid_cold (materialised grid that changes the machine at
every point). Each invocation runs cold: a fresh --out directory, the
scenario file kept outside it, and the solve-cache files removed after.
grid_cold's traced run also holds the serve session (serve_load.py)."""

import json
import os
import random
import shutil
import time

import lib
import serve_load

HOT_COLUMNS = ["n_t", "p_remote", "memory_latency", "U_p", "S_obs",
               "lambda_net", "tol_network", "solver", "converged"]
# Rows of the surface are 1961 points: two rows fill the runner's default
# 4096-point block, the regime where block-level row parallelism, not the
# worker count, bounds the speed-up.
SURFACE_ROW = 1961


def surface_scenario(seed):
    """Four rows (n_t = 2, 4, 6, 8, each with its own seeded p_remote) of
    SURFACE_ROW memory-latency points. The seed moves parameters within
    narrow ranges, so the work per run stays nearly constant."""
    rng = random.Random(seed)
    return {
        "name": "surface_stream",
        "description": "seeded warm-started tolerance surface slice",
        "base": {"runlength": 10, "switch_delay": round(rng.uniform(9, 11), 3)},
        "axes": [
            {"zip": [
                {"param": "threads", "values": [2, 4, 6, 8]},
                {"param": "p_remote",
                 "values": stratified(rng, 0.18, 0.26, 4, 4)},
            ]},
            {"param": "memory_latency",
             "range": {"from": round(rng.uniform(1, 1.5), 3),
                       "to": round(rng.uniform(48, 50), 3),
                       "steps": SURFACE_ROW}},
        ],
        "outputs": {"network_tolerance": True, "columns": HOT_COLUMNS},
        "solver": {"warm_start": True},
    }


def stratified(rng, lo, hi, n, digits):
    """n sorted values, one drawn uniformly from each of n equal strata of
    [lo, hi]: seeded, yet every seed covers the range the same way."""
    width = (hi - lo) / n
    return [round(lo + width * (i + rng.random()), digits) for i in range(n)]


def grid_scenario(seed):
    rng = random.Random(seed)
    return {
        "name": "grid_cold",
        "description": "seeded cold grid; k is the fastest axis",
        "base": {"runlength": 10},
        "axes": [
            {"param": "threads", "values": [1, 2, 3, 4, 5, 6, 7, 8]},
            {"param": "p_remote", "values": stratified(rng, 0.05, 0.8, 6, 4)},
            {"param": "switch_delay",
             "values": stratified(rng, 5, 20, 5, 3)},
            {"param": "k", "values": [2, 3, 4, 5, 6, 7, 8]},
        ],
        "outputs": {"network_tolerance": True, "memory_tolerance": True},
    }


SPECS = {
    "surface_stream": (surface_scenario, ["--stream", "--format", "jsonl"]),
    "grid_cold": (grid_scenario, ["--format", "both"]),
}


def invoke(latol, scenario_path, out_dir, jobs, flags, trace_path=None):
    """One cold `latol run`; returns (Finished, manifest, output bytes)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [latol, "run", scenario_path, "--out", out_dir, "--jobs",
            str(jobs)] + flags
    if trace_path:
        argv += ["--trace-out", trace_path]
    done = lib.run(argv)
    name = os.path.splitext(os.path.basename(scenario_path))[0]
    with open(os.path.join(out_dir, name + ".manifest.json")) as f:
        manifest = json.load(f)
    emitted = sum(os.path.getsize(os.path.join(out_dir, f))
                  for f in os.listdir(out_dir)
                  if not f.startswith("latol_cache.json"))
    return done, manifest, emitted


def read_rows(out_dir, name, streamed):
    if streamed:
        with open(os.path.join(out_dir, name + ".jsonl")) as f:
            return [json.loads(line) for line in f]
    with open(os.path.join(out_dir, name + ".json")) as f:
        return json.load(f)["rows"]


def check_rows(probe, scenario_path, rows, warm, seed, expected):
    """Row count, tolerance range, and a seeded sample re-solved through
    core::analyze. Cold solves (grid_cold) must agree bit for bit. The
    streamed surface is warm-started, and DESIGN.md §15 promises warm
    solves equal to the cold solve only within the tolerance orbit (about
    1e-11 relative), not bit for bit, so there the bound is 1e-9."""
    problems = []
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows for {expected} grid points")
    for r in rows:
        for col in ("tol_network", "tol_memory"):
            if col in r and not 0.0 < r[col] <= 1.0:
                problems.append(f"{col} = {r[col]} outside (0, 1]")
                break
    rng = random.Random(seed * 7919 + 1)
    sample = sorted({rng.randrange(len(rows)) for _ in range(30)})
    fresh = lib.probe_json([probe, "resolve", scenario_path] +
                           [str(i) for i in sample])
    for got in fresh:
        i = int(got["index"])
        row = rows[i]
        for col in ("U_p", "S_obs", "lambda_net", "tol_network", "tol_memory"):
            if col not in got:
                continue
            a, b = row[col], got[col]
            if abs(a - b) > 1e-9 * abs(b) if warm else a != b:
                problems.append(f"point {i} {col}: run {a!r} vs "
                                f"core::analyze {b!r}")
    return problems, len(sample)


def run(workload, latol, probe, seed, seconds, trace, jobs):
    make, flags = SPECS[workload]
    streamed = "--stream" in flags
    work = lib.workdir(workload, seed)
    try:
        scenario = make(seed)
        scenario_path = os.path.join(work, workload + ".json")
        with open(scenario_path, "w") as f:
            json.dump(scenario, f, indent=1)
        out_dir = os.path.join(work, "out")
        # Set-up: a bare process launch (`latol help`, 3 after every timed
        # invocation, so the median covers the whole run) plus
        # exp::load_scenario and grid expansion (median of 7, in the probe).
        load = lib.probe_json([probe, "setup", scenario_path, "7"])["seconds"]
        launches = []

        # The first invocation warms the page cache and carries the
        # correctness checks; it is not timed.
        _, manifest, emitted = invoke(latol, scenario_path, out_dir, jobs,
                                      flags)
        rows = read_rows(out_dir, workload, streamed)
        problems, checked = check_rows(probe, scenario_path, rows,
                                       manifest["warm"]["enabled"], seed,
                                       manifest["grid_points"])
        del rows
        shutil.rmtree(out_dir, ignore_errors=True)
        speed = lib.Speed(probe, jobs)

        # Timed invocations: (Finished, manifest). A traced run times one
        # untraced invocation against one traced one. `gaps` is the
        # harness's own time between invocations.
        runs, gaps = [], []
        started = time.monotonic()
        ended = None
        while len(runs) < (1 if trace else 3) or (
                not trace and time.monotonic() - started < seconds):
            if ended is not None:
                gaps.append(time.monotonic() - ended)
            done, m, _ = invoke(latol, scenario_path, out_dir, jobs, flags)
            shutil.rmtree(out_dir, ignore_errors=True)
            runs.append((done, m))
            launches += [lib.run([latol, "help"]).wall for _ in range(3)]
            speed.sample()
            ended = time.monotonic()

        points = manifest["grid_points"] + sum(m["grid_points"]
                                               for _, m in runs)
        failed = manifest["failed_points"] + sum(m["failed_points"]
                                                 for _, m in runs)
        degraded = manifest["degraded_points"] + sum(
            m["degraded_points"] for _, m in runs)
        if degraded:
            problems.append(f"{degraded} degraded points")
        preloaded = sum(m["cache_preloaded"] for _, m in runs)
        if manifest["cache_preloaded"] or preloaded:
            problems.append("a run started with a warm solve cache")
        per_run = manifest["grid_points"]
        f = speed.factor()
        walls = [d.wall * f for d, _ in runs]
        cpus = [d.cpu * f for d, _ in runs]
        result = {
            "correct": not problems,
            "problems": problems,
            "attempted": points,
            "failed": failed,
            "checked_rows": checked,
            "timed_invocations": len(runs),
            "raw_walls_s": [round(d.wall, 4) for d, _ in runs],
            "speed_factor": f,
            "cache_state": "cold (fresh --out, no cache file)",
            "build": manifest.get("build", "unknown"),
        }
        if not trace:
            lat, label = lib.tail([w * 1e3 for w in walls])
            result["tail_label"] = label
            result["metrics"] = {
                "ops_per_s": per_run / lib.median(walls),
                "cpu_ms_per_op": 1e3 * lib.median(cpus) / per_run,
                "latency_ms": lib.median(walls) * 1e3,
                "tail_latency_ms": lat,
                "peak_rss_mb": max(d.rss_mb for d, _ in runs),
                "setup_s": (lib.median(launches) + load) * f,
            }
            return result

        trace_path = os.path.join(work, "trace.json")
        gaps.append(time.monotonic() - ended)
        tdone, tmanifest, _ = invoke(latol, scenario_path, out_dir, jobs,
                                     flags, trace_path)
        shutil.rmtree(out_dir, ignore_errors=True)
        spans = lib.analyze_trace(trace_path)
        # Cache lookups: every solve outside a warm chain goes through the
        # cache, so lookups = hits + (solves - warm main solves).
        hits = tmanifest["cache_hits"]
        lookups = hits + tmanifest["solves"] - (
            tmanifest["grid_points"] if tmanifest["warm"]["enabled"] else 0)
        layers = lib.probe_json([probe, "layers", scenario_path, "32",
                                 str(seed), "-", scenario_path])
        main = spans["inclusive"].get("exp.run_stream", 0.0) + \
            spans["inclusive"].get("exp.run_scenario", 0.0)
        pts = tmanifest["grid_points"]
        m = {
            "qn.solves": spans["count"].get("qn.robust_solve", 0),
            "qn.amva_iters_per_solve":
                tmanifest["warm"]["total_iterations"] / pts,
            "qn.fallbacks": spans["instants"].get("qn.robust.fallback", 0),
            "core.solves_per_point": tmanifest["solves"] / pts,
            "exp.cache_hit_ratio": hits / lookups if lookups else 0.0,
            "exp.cache_lookups": lookups,
            "exp.warm_hinted_ratio": tmanifest["warm"]["hinted_points"] / pts,
            "exp.emit_bytes": emitted,
            "exp.block_idle_ratio": block_idle(
                spans["rows"], tmanifest["grid"]["row_length"], jobs),
            "util.cpu_util": lib.median(cpus) / (lib.median(walls) * jobs),
            "util.threads_observed": spans["lanes"],
            "util.jobs_requested": jobs,
            "obs.trace_overhead_ratio":
                tdone.wall * f / lib.median(walls) - 1.0,
            "obs.span_coverage": main / tdone.wall,
            "bench.gen_late_p99_ms": lib.tail([g * 1e3 for g in gaps])[0],
        }
        m["obs.uncovered_share"] = 1.0 - m["obs.span_coverage"]
        m.update(lib.layer_shares(spans))
        m.update(layers)
        if workload == "grid_cold":
            # The serve layer is measured here (see serve_load.py).
            serve, serve_problems, sent, lost = serve_load.session(
                latol, probe, seed, jobs, work)
            m.update(serve)
            problems += serve_problems
            result["correct"] = not problems
            result["attempted"] += sent
            result["failed"] += lost
        result["metrics"] = m
        return result
    finally:
        lib.remove_workdir(work)


def block_idle(rows, row_length, jobs):
    """Share of worker time in streamed blocks spent idle behind the
    block's slowest row: 1 - sum(row time) / (jobs x slowest row), over
    all blocks. Blocks hold max(1, 4096 // row_length) rows, the runner's
    default. 0 when the run has no exp.row spans (materialised runs)."""
    if not rows:
        return 0.0
    per_block = max(1, 4096 // row_length)
    blocks = {}
    for row, dur in rows:
        blocks.setdefault(row // per_block, []).append(dur)
    busy = sum(sum(d) for d in blocks.values())
    capacity = sum(jobs * max(d) for d in blocks.values())
    return 1.0 - busy / capacity
