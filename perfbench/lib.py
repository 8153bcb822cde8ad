"""Shared plumbing of the benchmark: building latol from the checkout,
running child processes with their resource usage, quantiles, and the
span analysis of Chrome traces written by `--trace-out` (or by the probe).
Standard library only."""

import json
import os
import shutil
import signal
import subprocess
import threading
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_ROOT = ".bench_work"
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class BenchError(Exception):
    """The benchmark cannot run (no sources, build failure, crashed child)."""


def nproc():
    return len(os.sched_getaffinity(0))


# --------------------------------------------------------------- building

def build(root):
    """Build latol and latol_probe (RelWithDebInfo, the project default)
    under .bench_build/. `cmake --build` is incremental, so a run on an
    unchanged tree only checks time stamps. Returns (latol, probe) paths."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(root, need)):
            raise BenchError(f"no latol sources here (missing {need})")
    latol = os.path.join(BUILD_DIR, "latol", "src", "cli", "latol")
    probe = os.path.join(BUILD_DIR, "latol_probe")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DLATOL_WERROR=OFF"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT):
                raise BenchError(f"cmake configure failed, see {log_path}")
        cmd = ["cmake", "--build", BUILD_DIR, "--target", "latol",
               "latol_probe", "-j", str(nproc())]
        if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT):
            raise BenchError(f"build failed, see {log_path}")
    return latol, probe


def context(jobs):
    """Machine and build facts recorded with every result."""
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = compiler
    return {"build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "compiler": version, "nproc": nproc(),
            "git_describe": git_describe(), "jobs_requested": jobs}


def git_describe():
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty"],
                           capture_output=True, text=True, timeout=30)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


# -------------------------------------------------------------- processes

class Finished:
    """A child that has ended: exit code, wall seconds, CPU seconds
    (user + sys) and peak resident set in MB, from wait4."""

    def __init__(self, code, wall, cpu, rss_mb):
        self.code, self.wall, self.cpu, self.rss_mb = code, wall, cpu, rss_mb


def wait(proc, started, timeout):
    """Reap `proc`, started at `started`, with its rusage; kill it if it
    has not ended `timeout` seconds from now. The wait blocks, so the wall
    time is not rounded up to a polling interval."""
    lock = threading.Lock()
    state = {"reaped": False, "killed": False}

    def kill():
        with lock:
            if not state["reaped"]:
                state["killed"] = True
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout, kill)
    timer.start()
    _, status, ru = os.wait4(proc.pid, 0)
    wall = time.monotonic() - started
    with lock:
        state["reaped"] = True
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if state["killed"]:
        raise BenchError(f"{proc.args[:3]} timed out after {timeout} s")
    return Finished(proc.returncode, wall, ru.ru_utime + ru.ru_stime,
                    ru.ru_maxrss / 1024.0)


def run(argv, stdout_path=None, timeout=150):
    """Run argv to completion; stdout goes to `stdout_path` (or is
    discarded), stderr is kept for the error message."""
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        started = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.PIPE)
        err_reader = Drain(proc.stderr)
        done = wait(proc, started, timeout)
        err = err_reader.join()
    finally:
        if stdout_path:
            out.close()
    if done.code != 0:
        raise BenchError(f"{' '.join(argv[:4])} exited {done.code}: "
                         f"{err.decode(errors='replace')[-400:]}")
    return done


def probe_json(argv, timeout=150):
    """Run a latol_probe command and parse its JSON answer."""
    r = subprocess.run(argv, capture_output=True, timeout=timeout)
    if r.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])} exited {r.returncode}: "
                         f"{r.stderr.decode(errors='replace')[-400:]}")
    return json.loads(r.stdout)


class Drain:
    """Reads a pipe on a thread so a chatty child never blocks on it."""

    def __init__(self, pipe):
        self.chunks = []
        self.thread = threading.Thread(target=self._pump, args=(pipe,),
                                       daemon=True)
        self.thread.start()

    def _pump(self, pipe):
        for chunk in iter(lambda: pipe.read(65536), b""):
            self.chunks.append(chunk)
        pipe.close()

    def join(self):
        self.thread.join(timeout=30)
        return b"".join(self.chunks)


def stop(proc, started, timeout=20):
    """SIGTERM a daemon and reap it. (Popen.poll/send_signal would reap
    the child themselves and lose its rusage, hence os.kill.)"""
    os.kill(proc.pid, signal.SIGTERM)
    return wait(proc, started, timeout)


# ------------------------------------------------------------ machine speed

# The shared hosts this runs on change speed by 20-50% between sets of
# runs minutes apart (other tenants come and go): raw medians of two sets
# of ten runs of the same code moved by up to 0.29 (grid_cold points/s),
# past the bounds. So every run samples the machine's speed with the
# probe's calibrate kernel (no latol code, nproc threads) and reports
# times in reference-machine seconds:
# raw x REF_CAL_S / (median calibration of the run), where REF_CAL_S is
# what the kernel takes on the reference machine (4-vCPU Xeon VM).
REF_CAL_S = 0.1
CAL_REPS = "3000"
SETTLE_S = 1.5
SETTLE_MAX_S = 10.0


class Speed:
    """The run's calibration samples; factor() maps raw seconds to
    reference-machine seconds."""

    def __init__(self, probe, jobs):
        # vCPUs woken from idle run up to 4x slow for a second or so:
        # calibrate for at least SETTLE_S, until the last three samples
        # agree within 10%, and keep only those three.
        self.argv = [probe, "calibrate", CAL_REPS, str(jobs)]
        started = time.monotonic()
        self.samples = []
        while True:
            self.samples = self.samples[-2:] + [self._kernel()]
            elapsed = time.monotonic() - started
            if elapsed > SETTLE_MAX_S or (
                    elapsed >= SETTLE_S and len(self.samples) == 3
                    and max(self.samples) <= 1.1 * min(self.samples)):
                break

    def _kernel(self):
        return probe_json(self.argv)["seconds"]

    def sample(self):
        self.samples.append(self._kernel())

    def factor(self):
        return REF_CAL_S / median(self.samples)


# ------------------------------------------------------------- statistics

def median(values):
    v = sorted(values)
    n = len(v)
    if n == 0:
        return 0.0
    return v[n // 2] if n % 2 else 0.5 * (v[n // 2 - 1] + v[n // 2])


def quantile(values, q):
    """Linear-interpolated quantile q in [0, 1] of `values`."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail(values):
    """The highest of p99/p90/max that has at least ten samples beyond it
    (max when there are fewer than 100 samples), and its label."""
    n = len(values)
    for q, label in ((0.99, "p99"), (0.9, "p90")):
        if n * (1 - q) >= 10:
            return quantile(values, q), label
    return max(values), "max"


# ---------------------------------------------------------------- tracing

def analyze_trace(path):
    """Span statistics of a Chrome trace_event file: per-name counts,
    inclusive and self seconds (self = duration minus same-lane children),
    instants per name, the lanes seen, the `row` arg and duration of every
    exp.row span, and the total root-span time over all lanes."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    count, inclusive, self_s, instants = {}, {}, {}, {}
    lanes, rows, roots = set(), [], 0.0
    stacks = {}
    for e in events:
        ph = e.get("ph")
        if ph not in ("B", "E", "i"):
            continue
        tid = e["tid"]
        lanes.add(tid)
        stack = stacks.setdefault(tid, [])
        if ph == "i":
            instants[e["name"]] = instants.get(e["name"], 0) + 1
        elif ph == "B":
            stack.append([e["name"], e["ts"], 0.0])
        else:
            name, start, child = stack.pop()
            dur = (e["ts"] - start) / 1e6
            count[name] = count.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - child
            if stack:
                stack[-1][2] += dur
            else:
                roots += dur
            if name == "exp.row":
                rows.append((int(e.get("args", {}).get("row", 0)), dur))
    return {"count": count, "inclusive": inclusive, "self": self_s,
            "instants": instants, "lanes": len(lanes), "rows": rows,
            "root_seconds": roots}


def layer_shares(trace):
    """Self time of the named layers as shares of all span time."""
    total = trace["root_seconds"] or 1.0
    s = trace["self"]

    def share(*names):
        return sum(s.get(n, 0.0) for n in names) / total

    return {
        "qn.amva_self_share": share("qn.solver.amva"),
        "qn.bind_self_share": share("qn.workspace.bind"),
        "qn.robust_self_share": share("qn.robust_solve", "qn.solver.linearizer",
                                      "qn.solver.exact-mva",
                                      "qn.solver.bounds", "qn.solver.fesc"),
        "exp.row_self_share": share("exp.row"),
        "exp.point_self_share": share("exp.point", "exp.sim_point"),
        "sim.self_share": share("sim.replications", "sim.round",
                                "sim.replication", "sim.des.run",
                                "sim.stpn.run", "sim.open.run"),
        "serve.request_self_share": share("serve.request"),
    }


# ------------------------------------------------------------- work files

def workdir(workload, seed):
    path = os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_workdir(path):
    shutil.rmtree(path, ignore_errors=True)
