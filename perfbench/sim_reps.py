"""The sim_reps workload: DES and STPN replication batches through
sim::replicate_mms and sim::replicate_mms_petri, run by the probe on
seeded machine configs, each validated against the analytical model."""

import json
import os
import random

import lib

SIM_TIME = 20000.0   # simulated horizon of every replication
REPS = 4             # replications per batch
TRACE_CALLS = 60     # batches in each pass of a traced run


def scenario(seed):
    """Six configs of fixed shape (k and n_t), with seeded workload
    parameters, so every seed simulates machines of the same size."""
    rng = random.Random(seed)
    shape = [(2, 4), (3, 6), (4, 8), (2, 8), (3, 4), (4, 6)]
    return {
        "name": "sim_reps",
        "base": {},
        "axes": [{"zip": [
            {"param": "k", "values": [k for k, _ in shape]},
            {"param": "threads", "values": [t for _, t in shape]},
            {"param": "p_remote",
             "values": [round(rng.uniform(0.18, 0.22), 4) for _ in shape]},
            {"param": "runlength",
             "values": [round(rng.uniform(9.5, 10.5), 3) for _ in shape]},
        ]}],
    }


def probe_sim(probe, path, jobs, seconds, first, calls, check,
              trace_path=None):
    argv = [probe, "sim", path, repr(SIM_TIME), str(REPS), str(jobs),
            repr(seconds), str(first), str(calls), "1" if check else "0"]
    if trace_path:
        argv.append(trace_path)
    out = os.path.join(os.path.dirname(path), "probe.out")
    done = lib.run(argv, stdout_path=out)
    with open(out) as f:
        return json.load(f), done


def run(probe, seed, seconds, trace, jobs):
    work = lib.workdir("sim_reps", seed)
    try:
        path = os.path.join(work, "sim_reps.json")
        with open(path, "w") as f:
            json.dump(scenario(seed), f)
        # Warm-up and the 1-vs-N-worker check; not timed.
        first, _ = probe_sim(probe, path, jobs, 60.0, 0, 4, True)
        problems = []
        if not first["identical_across_workers"]:
            problems.append(f"replications differ between 1 and {jobs} "
                            "workers")

        speed = lib.Speed(probe, jobs)
        # A traced run repeats a fixed number of batches; an untraced one
        # runs batches for `seconds`.
        budget = 60.0 if trace else float(seconds)
        calls = TRACE_CALLS if trace else 10**9
        r, done = probe_sim(probe, path, jobs, budget, 0, calls, False)
        speed.sample()
        f = speed.factor()
        if not r["plausible"]:
            problems.append("simulated U_p outside (0, 1] or far from the "
                            "model")
        reps = r["des_reps"] + r["petri_reps"]
        calls_ms = [c * 1e3 * f for c in r["calls"]]
        result = {"correct": not problems, "problems": problems,
                  "attempted": reps, "failed": 0,
                  "batches": len(calls_ms), "sim_time": SIM_TIME,
                  "reps_per_batch": REPS, "speed_factor": f}
        if not trace:
            tail_ms, label = lib.tail(calls_ms)
            result["tail_label"] = label
            result["metrics"] = {
                "ops_per_s": reps / (r["wall_s"] * f),
                "cpu_ms_per_op": 1e3 * r["cpu_s"] * f / reps,
                "latency_ms": lib.median(calls_ms),
                "tail_latency_ms": tail_ms,
                "peak_rss_mb": done.rss_mb,
                "setup_s": r["petri_build_s"] * f,
            }
            return result

        # Traced pass over the same batches, then one more untraced, so
        # warm-up does not show as tracing overhead.
        trace_path = os.path.join(work, "trace.json")
        t, _ = probe_sim(probe, path, jobs, 60.0, 0, TRACE_CALLS, False,
                         trace_path)
        r2, _ = probe_sim(probe, path, jobs, 60.0, 0, TRACE_CALLS, False)
        if (t["des_events"], t["petri_firings"]) != (r["des_events"],
                                                     r["petri_firings"]):
            problems.append("event counts differ between two runs of the "
                            "same seeds")
            result["correct"] = False
        spans = lib.analyze_trace(trace_path)
        layers = lib.probe_json([probe, "layers", path, "6", str(seed),
                                 "-", path])
        main = spans["inclusive"].get("sim.replications", 0.0)
        m = {
            "qn.solves": spans["count"].get("qn.robust_solve", 0),
            "qn.fallbacks": spans["instants"].get("qn.robust.fallback", 0),
            "sim.des_events": t["des_events"],
            "sim.petri_firings": t["petri_firings"],
            "sim.des_events_per_s":
                r["des_events"] / (r["des_seconds"] * f),
            "sim.petri_firings_per_s":
                r["petri_firings"] / (r["petri_seconds"] * f),
            "util.cpu_util": r["cpu_s"] / (r["wall_s"] * jobs),
            "util.threads_observed": spans["lanes"],
            "util.jobs_requested": jobs,
            "obs.trace_overhead_ratio":
                2 * t["wall_s"] / (r["wall_s"] + r2["wall_s"]) - 1.0,
            "obs.span_coverage": main / t["wall_s"],
            # The harness's own delay between batches.
            "bench.gen_late_p99_ms": lib.tail(
                [g * 1e3 for g in r["gaps"]])[0],
        }
        m["obs.uncovered_share"] = 1.0 - m["obs.span_coverage"]
        m.update(lib.layer_shares(spans))
        m.update(layers)
        result["metrics"] = m
        return result
    finally:
        lib.remove_workdir(work)
