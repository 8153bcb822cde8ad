"""The serve session of grid_cold's traced run: `latol serve` under a
closed loop driven by the probe's C++ load client, nproc requests in
flight, traced with --trace-out. It gives the serve layer's per-layer
metrics and runs serve's correctness checks.

It is not a workload of its own. A serve workload's wall-time metrics
(throughput, median and tail latency) spread by 0.2 to 0.4 of their
median across seeds on the shared 4-vCPU hosts this was built on, with a
closed or an open loop, raw or scaled by a compute or a loopback-TCP
calibration kernel, past every bound a benchmark may set.

Every request has a 5 s timeout; one that gets no answer, or answers
with anything but 200 and exit 0, counts as failed. The daemon's log goes
to a file, never to an unread pipe. No recorded traffic of `latol serve`
exists, so the request mix (see make_requests) is an assumption."""

import json
import os
import random
import socket
import subprocess
import time

import lib

SESSION_REQUESTS = 8000
TIMEOUT_S = 5.0       # per-request timeout of the probe's client
PARAMS = {"k": [2, 3, 4], "threads": [2, 3, 4, 5, 6, 8],
          "p_remote": (0.05, 0.6), "runlength": (5, 20)}


def random_config(rng, i):
    """Config i: k and n_t cycle through fixed lists (so every seed has
    the same mix of machine sizes); p_remote and R are seeded."""
    return {"k": PARAMS["k"][i % len(PARAMS["k"])],
            "threads": PARAMS["threads"][i % len(PARAMS["threads"])],
            "p_remote": round(rng.uniform(*PARAMS["p_remote"]), 4),
            "runlength": round(rng.uniform(*PARAMS["runlength"]), 3)}


def config_set(rng, n):
    """n configs whose p_remote and R are stratified over their ranges
    (in seeded, independent orders), so every seed's hot set holds the
    same spread of solve costs."""
    def strata(lo, hi, digits):
        order = rng.sample(range(n), n)
        return [round(lo + (hi - lo) * (j + rng.random()) / n, digits)
                for j in order]

    p_remote = strata(*PARAMS["p_remote"], 4)
    runlength = strata(*PARAMS["runlength"], 3)
    return [dict(random_config(rng, i), p_remote=p_remote[i],
                 runlength=runlength[i]) for i in range(n)]


def cli_args(cfg):
    return ["--k", str(cfg["k"]), "--threads", str(cfg["threads"]),
            "--p-remote", repr(cfg["p_remote"]),
            "--runlength", repr(cfg["runlength"])]


def scenario_doc(name, cfg, axis, values):
    # One worker per scenario: a sweep holds one daemon worker instead of
    # fanning out over the whole shared pool.
    return {"name": name,
            "base": {"k": cfg["k"], "threads": cfg["threads"],
                     "runlength": cfg["runlength"]},
            "axes": [{"param": axis, "values": values}],
            "outputs": {"network_tolerance": True},
            "solver": {"workers": 1}}


def make_requests(seed, count):
    """The seeded mix. Class shares are fixed (the seed only draws configs
    and the order), so every seed offers the same kind of load:
      54% /v1/tolerance and 30% /v1/analyze, 70% of them over a hot set of
           24 stratified configs and 30% over fresh configs;
      15% short /v1/scenario grids (4 points), half from 8 hot grids that
           hit the daemon's shared cache, half fresh ones that insert;
      0.75% long /v1/scenario sweeps (96 points on k = 3) that hold a
           worker. Under 1%, so the tail measures how long the other
           requests wait behind them, not the sweeps' own run time."""
    rng = random.Random(seed)
    hot = config_set(rng, 24)
    hot_grids = [scenario_doc(f"hot{i}", cfg, "p_remote",
                              sorted(round(rng.uniform(0.05, 0.6), 4)
                                     for _ in range(4)))
                 for i, cfg in enumerate(config_set(rng, 8))]
    kinds = (["tolerance"] * 217 + ["analyze"] * 120 + ["short"] * 60 +
             ["long"] * 3)
    plan = [kinds[i % len(kinds)] for i in range(count)]
    rng.shuffle(plan)
    requests = []
    for i, kind in enumerate(plan):
        if kind in ("tolerance", "analyze"):
            cfg = (rng.choice(hot) if rng.random() < 0.7 else
                   random_config(rng, i))
            body = {"args": cli_args(cfg)}
            requests.append((f"/v1/{kind}", body, [kind] + cli_args(cfg)))
        elif kind == "short":
            doc = (rng.choice(hot_grids) if rng.random() < 0.5 else
                   scenario_doc(f"fresh{i}", random_config(rng, i), "p_remote",
                                sorted(round(rng.uniform(0.05, 0.6), 4)
                                       for _ in range(4))))
            requests.append(("/v1/scenario", doc, None))
        else:
            # Same machine size every time (k = 3, n_t = 6), so each long
            # sweep costs about the same.
            cfg = dict(random_config(rng, i), k=3, threads=6)
            lo = round(rng.uniform(0.02, 0.1), 4)
            doc = scenario_doc(f"long{i}", cfg, "p_remote",
                               [round(lo + j * 0.006, 4) for j in range(96)])
            requests.append(("/v1/scenario", doc, None))
    return requests, hot


def get_request(target):
    return (f"GET {target} HTTP/1.1\r\nHost: bench\r\n"
            "Content-Length: 0\r\n\r\n").encode()


def encode(target, body):
    payload = json.dumps(body).encode()
    head = (f"POST {target} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n")
    return head, head.encode() + payload


def fetch(port, payload):
    """One blocking exchange on a fresh connection (the daemon closes it
    after the response)."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=TIMEOUT_S) as sock:
        sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def parse_response(raw):
    """(status, body) of a raw response; status 0 when there was none."""
    head, _, body = raw.partition(b"\r\n\r\n")
    try:
        return int(head.split(b" ", 2)[1]), body
    except (IndexError, ValueError):
        return 0, b""


def prom_value(text, name):
    for line in text.decode(errors="replace").splitlines():
        if line.startswith(name + " ") or line.startswith(name + "{"):
            return float(line.rsplit(" ", 1)[1])
    return 0.0


class Daemon:
    """One `latol serve` child with its log in a file."""

    def __init__(self, latol, config_path, log_path, trace_path=None):
        argv = [latol, "serve", config_path]
        if trace_path:
            argv += ["--trace-out", trace_path]
        self.log_path = log_path
        self.log = open(log_path, "wb")
        self.started = time.monotonic()
        self.proc = subprocess.Popen(argv, stdout=self.log,
                                     stderr=subprocess.STDOUT)
        self.port = None

    def wait_ready(self, timeout=30.0):
        """Follow the log for the port, then poll /healthz until it
        answers 200. Returns seconds from spawn to the first 200."""
        deadline = self.started + timeout
        health = get_request("/healthz")
        with open(self.log_path, "rb") as log:
            text = b""
            while self.port is None:
                text += log.read()
                # Only whole lines: the last one may still be written.
                for line in text.decode(errors="replace").split("\n")[:-1]:
                    if "listening on" in line:
                        self.port = int(line.rsplit(":", 1)[1].split()[0])
                if time.monotonic() > deadline:
                    raise lib.BenchError("latol serve did not report its "
                                         "port")
                time.sleep(0.0002)
        while True:
            try:
                if parse_response(fetch(self.port, health))[0] == 200:
                    return time.monotonic() - self.started
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise lib.BenchError("latol serve never answered /healthz")
            time.sleep(0.0002)

    def metrics(self):
        return parse_response(fetch(self.port, get_request("/metrics")))[1]

    def stop(self):
        try:
            return lib.stop(self.proc, self.started)
        finally:
            self.log.close()


def load(probe, work, port, requests, clients, keep=(), scrape=False):
    """Send `requests` through the probe's closed-loop client. Returns the
    probe's answer, the parsed responses of the indices in `keep` (as
    {index: (status, body)}), and, with `scrape`, the daemon's queue depth
    sampled every 250 ms meanwhile."""
    path = os.path.join(work, "requests.json")
    with open(path, "w") as f:
        json.dump([encode(t, b)[1].decode() for t, b, _ in requests], f)
    argv = [probe, "load", str(port), path, str(clients)]
    keep = sorted(keep)
    if keep:
        with open(os.path.join(work, "keep.json"), "w") as f:
            json.dump(keep, f)
        argv += [os.path.join(work, "keep.json"),
                 os.path.join(work, "responses.json")]
    out_path = os.path.join(work, "load.out")
    depths = []
    with open(out_path, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.PIPE)
        err = lib.Drain(proc.stderr)
        deadline = time.monotonic() + 150
        while proc.poll() is None:
            if time.monotonic() > deadline:
                proc.kill()
                proc.wait()
                raise lib.BenchError("latol_probe load timed out")
            if scrape:
                try:
                    depths.append(prom_value(
                        parse_response(fetch(port, get_request(
                            "/metrics")))[1], "latol_serve_queue_depth"))
                except OSError:
                    pass
            time.sleep(0.25 if scrape else 0.01)
        message = err.join()
    if proc.returncode != 0:
        raise lib.BenchError(f"latol_probe load exited {proc.returncode}: "
                             f"{message.decode(errors='replace')[-400:]}")
    with open(out_path) as f:
        answer = json.load(f)
    responses = {}
    if keep:
        with open(os.path.join(work, "responses.json"), "rb") as f:
            raws = json.loads(f.read().decode("latin-1"))
        responses = {i: parse_response(raw.encode("latin-1"))
                     for i, raw in zip(keep, raws)}
    return answer, responses, depths


def check_rows(responses, requests):
    """Every kept scenario response's tolerance indices lie in (0, 1]."""
    problems = []
    for i, (status, body) in responses.items():
        if requests[i][0] != "/v1/scenario" or status != 200:
            continue  # a failed request is counted as failed already
        for row in json.loads(body)["results"]["rows"]:
            if not 0.0 < row["tol_network"] <= 1.0:
                problems.append(f"tol_network {row['tol_network']} "
                                "outside (0, 1]")
    return problems


def check_cli_identity(latol, responses, requests):
    """The kept command responses must equal the CLI's stdout."""
    problems = []
    for i, (status, body) in responses.items():
        if requests[i][2] is None or status != 200:
            continue
        cli = subprocess.run([latol] + requests[i][2], capture_output=True,
                             timeout=60)
        if cli.stdout != body:
            problems.append(f"{requests[i][0]} {requests[i][2][1:]} differs "
                            "from the CLI")
    return problems


def scenario_for_probe(path, hot):
    """The hot configs as one zipped-axis scenario, so the probe can time
    the layer entry points on the configs this mix serves."""
    doc = {"name": "serve_hot", "base": {},
           "axes": [{"zip": [{"param": p, "values": [c[p] for c in hot]}
                             for p in ("k", "threads", "p_remote",
                                       "runlength")]}],
           "outputs": {"network_tolerance": True}}
    with open(path, "w") as f:
        json.dump(doc, f)


def session(latol, probe, seed, jobs, work):
    """One traced session of SESSION_REQUESTS requests of the mix against
    a cold daemon. Returns (per-layer metrics, problems, requests sent,
    requests failed)."""
    config_path = os.path.join(work, "serve.json")
    with open(config_path, "w") as f:
        json.dump({"port": 0, "max_concurrent": jobs, "queue_limit": 256,
                   "cache_path": os.path.join(work, "serve.cache",
                                              "latol_cache.json")}, f)
    os.makedirs(os.path.join(work, "serve.cache"))
    trace_path = os.path.join(work, "serve.trace.json")
    d = Daemon(latol, config_path, os.path.join(work, "serve.log"),
               trace_path)
    try:
        d.wait_ready()
        requests, hot = make_requests(seed, SESSION_REQUESTS)
        rng = random.Random(seed + 17)
        commands = [i for i, r in enumerate(requests) if r[2] is not None]
        keep = ([i for i, r in enumerate(requests)
                 if r[0] == "/v1/scenario"] +
                rng.sample(commands, min(6, len(commands))))
        answer, responses, depths = load(probe, work, d.port, requests, jobs,
                                         keep, scrape=True)
        prom = d.metrics()
    finally:
        d.stop()
    problems = (check_rows(responses, requests) +
                check_cli_identity(latol, responses, requests))
    spans = lib.analyze_trace(trace_path)
    hot_path = os.path.join(work, "serve_hot.json")
    scenario_for_probe(hot_path, hot)
    heads_path = os.path.join(work, "heads.json")
    with open(heads_path, "w") as f:
        json.dump([encode(t, b)[0] for t, b, _ in requests[:64]], f)
    layers = lib.probe_json([probe, "layers", hot_path, "24", str(seed),
                             heads_path])
    metrics = {
        "serve.http_parse_us": layers["serve.http_parse_us"],
        "serve.queue_depth_max": max(depths, default=0.0),
        "serve.shed": prom_value(prom, "latol_serve_shed_total"),
        "serve.cache_hit_ratio": prom_value(prom,
                                            "latol_serve_cache_hit_ratio"),
        "serve.request_self_share":
            lib.layer_shares(spans)["serve.request_self_share"],
    }
    return metrics, problems, len(requests), len(requests) - int(answer["ok"])
