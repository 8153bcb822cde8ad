#!/usr/bin/env python3
"""latol's benchmark. One command per run:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of a latol checkout. The first run builds latol and the
probe harness under .bench_build/. A run generates its inputs from the
seed, runs the workload for about --seconds, checks the outputs, and
prints as its last stdout line one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, the per-layer metrics with --trace 1. The line before it
records the context (build type, compiler, nproc, git describe, --jobs
requested). --smoke runs every workload tiny in both modes and checks
that every declared metric is printed with its unit. See README.md.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import batch  # noqa: E402
import lib  # noqa: E402
import sim_reps  # noqa: E402

WORKLOADS = ("surface_stream", "grid_cold", "sim_reps")

# Per-layer metrics of layers a workload does not run. They print as 0,
# overwriting whatever a span or probe timing gave, so every run carries
# the full set and no value stands for work the workload never does.
SIM = ["sim.des_events", "sim.petri_firings", "sim.des_events_per_s",
       "sim.petri_firings_per_s", "sim.petri_build_ms"]
SERVE = ["serve.queue_depth_max", "serve.shed", "serve.cache_hit_ratio",
         "serve.http_parse_us"]
NOT_RUN = {
    "surface_stream": SIM + SERVE,
    # grid_cold's traced run also measures the serve layer.
    "grid_cold": SIM + ["exp.warm_hinted_ratio"],
    # The simulators build the traffic distribution but no queueing model;
    # the model answers the batches are checked against are solved outside
    # the timed loop.
    "sim_reps": SERVE + ["qn.amva_iters_per_solve", "core.solves_per_point",
                         "core.model_build_us", "core.ideal_config_us",
                         "exp.cache_hit_ratio", "exp.cache_lookups",
                         "exp.cache_key_us", "exp.warm_hinted_ratio",
                         "exp.emit_bytes", "exp.block_idle_ratio"],
}


def declared():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(args):
    root = os.getcwd()
    latol, probe = lib.build(root)
    jobs = lib.nproc()
    end_to_end, per_layer = declared()
    wanted = per_layer if args.trace else end_to_end

    try:
        if args.workload in batch.SPECS:
            r = batch.run(args.workload, latol, probe, args.seed,
                          args.seconds, args.trace, jobs)
        else:
            r = sim_reps.run(probe, args.seed, args.seconds, args.trace,
                             jobs)
    finally:
        try:
            os.rmdir(lib.WORK_ROOT)
        except OSError:
            pass

    values = r.pop("metrics")
    if args.trace:
        for name in NOT_RUN[args.workload]:
            values[name] = 0
        values["bench.failed_ratio"] = r["failed"] / r["attempted"]
    missing = sorted(set(wanted) - set(values))
    extra = sorted(set(values) - set(wanted))
    if missing or extra:
        raise lib.BenchError(f"metric set mismatch: missing {missing}, "
                             f"undeclared {extra}")

    ctx = lib.context(jobs)
    ctx.update({k: v for k, v in r.items()
                if k not in ("correct", "attempted", "failed")})
    ctx["workload"] = args.workload
    ctx["seed"] = args.seed
    if args.trace:
        ctx["threads_observed"] = values["util.threads_observed"]
    print(json.dumps({"context": ctx}))
    print(json.dumps({
        "correct": bool(r["correct"]),
        "attempted": int(r["attempted"]),
        "failed": int(r["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in wanted.items()},
    }))


def smoke():
    """Every workload, tiny, in both modes: each declared metric must be
    printed by name with its declared unit, and the checks must pass."""
    end_to_end, per_layer = declared()
    bad = []
    for workload in WORKLOADS:
        for trace, wanted in (("0", end_to_end), ("1", per_layer)):
            p = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", "1", "--seconds", "1", "--trace", trace],
                capture_output=True, text=True, timeout=600)
            lines = p.stdout.strip().splitlines()
            try:
                last = json.loads(lines[-1])
                got = {k: v["unit"] for k, v in last["metrics"].items()}
                ok = (p.returncode == 0 and last["correct"] and got == wanted)
            except (IndexError, KeyError, ValueError):
                ok = False
            print(f"smoke: {workload} trace={trace}: "
                  f"{'ok' if ok else 'FAIL'}")
            if not ok:
                bad.append((workload, trace))
                sys.stderr.write(p.stderr[-2000:])
    print(json.dumps({"smoke_failures": bad}))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.smoke:
        return smoke()
    if not args.workload:
        ap.error("--workload is required")
    try:
        run_workload(args)
    except (lib.BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
