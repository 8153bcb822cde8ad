// latol_probe: the benchmark's in-process harness. It calls latol's
// public functions directly and times them from the outside, so the
// benchmark can check correctness and attribute time per layer without
// any instrumentation inside the library. Every command prints one JSON
// document on stdout; numbers use the library's shortest round-trip form,
// so the caller can compare doubles exactly.
//
//   latol_probe resolve <scenario.json> <index>...
//       Re-solve grid points through core::analyze (plus the ideal-system
//       solves of the tolerance indices) the way a library caller would.
//   latol_probe layers <scenario.json> <samples> <seed> <heads.json|-> <doc>...
//       Median per-call cost of the layer entry points on a seeded sample
//       of the scenario's grid, of io::parse_json/Json::dump on the given
//       documents, and of serve::parse_http_head on the given heads (0
//       when the heads are "-": the workload serves no HTTP).
//   latol_probe setup <scenario.json> <repeats>
//       Median time of exp::load_scenario plus grid expansion.
//   latol_probe sim <scenario.json> <sim_time> <reps> <workers> <seconds>
//                   <first_call> <calls> <check> [trace.json]
//       Replication batches numbered first_call, first_call + 1, ...
//       (DES on even numbers, STPN on odd, cycling over the grid) until
//       `seconds` or `calls` run out; with check = 1, first compares both
//       engines at 1 and <workers> workers. With a trace path the batches
//       run under a span sink whose Chrome trace is written there.
//       Reports each batch's wall time, the batches' total wall and CPU
//       time, the loop's own gap between batches, and the median time to
//       build and compile the STPN models of all the configs (timed after
//       every 4th batch). The model answers the batches are checked
//       against are solved before the timed loop.
//   latol_probe load <port> <requests.json> <clients> [<keep.json> <responses.json>]
//       Closed loop against a running `latol serve`: <clients> threads each
//       send the next request of the array of raw HTTP requests, on a
//       fresh connection, when their last one is answered. Reports each
//       request's latency (ms), whether it was answered 200 with
//       X-Latol-Exit 0, and the seconds from the first send to the last
//       answer. With keep.json, an array of request indices, writes the
//       raw responses of those requests to responses.json.
//   latol_probe calibrate <reps> <threads>
//       Wall time of a fixed kernel that uses no latol code.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cmath>
#include <exception>
#include <fstream>
#include <iostream>
#include <iterator>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/mms_model.hpp"
#include "core/tolerance.hpp"
#include "exp/scenario.hpp"
#include "exp/solve_cache.hpp"
#include "io/json.hpp"
#include "obs/span.hpp"
#include "serve/http.hpp"
#include "sim/mms_petri.hpp"
#include "sim/petri.hpp"
#include "sim/replicate.hpp"
#include "topo/traffic.hpp"

namespace {

using namespace latol;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Keeps the optimizer from discarding a timed call's result.
volatile double g_sink = 0.0;

/// Median wall time in seconds of `fn` over `reps` calls.
template <typename Fn>
double time_median(std::size_t reps, Fn&& fn) {
  std::vector<double> t;
  t.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    t.push_back(seconds_since(start));
  }
  return median(std::move(t));
}

core::AnalysisOptions analysis_options(const exp::Scenario& s) {
  core::AnalysisOptions opts;
  opts.amva = s.amva;
  opts.method = s.method;
  return opts;
}

int cmd_resolve(int argc, char** argv) {
  const exp::Scenario s = exp::load_scenario(argv[2]);
  const core::AnalysisOptions opts = analysis_options(s);
  io::Json rows = io::Json::array();
  for (int a = 3; a < argc; ++a) {
    const std::size_t index = std::stoull(argv[a]);
    const core::MmsConfig cfg = exp::config_at(s, index);
    const auto start = Clock::now();
    const core::MmsPerformance perf = core::analyze(cfg, opts);
    io::Json row = io::Json::object();
    row.set("index", static_cast<double>(index));
    row.set("U_p", perf.processor_utilization);
    row.set("S_obs", perf.network_latency);
    row.set("lambda_net", perf.message_rate);
    if (s.network_tolerance) {
      const core::MmsPerformance ideal = core::analyze(
          core::ideal_config(cfg, core::Subsystem::kNetwork,
                             s.network_method),
          opts);
      row.set("tol_network",
              perf.processor_utilization / ideal.processor_utilization);
    }
    if (s.memory_tolerance) {
      const core::MmsPerformance ideal = core::analyze(
          core::ideal_config(cfg, core::Subsystem::kMemory,
                             core::IdealMethod::kZeroDelay),
          opts);
      row.set("tol_memory",
              perf.processor_utilization / ideal.processor_utilization);
    }
    row.set("seconds", seconds_since(start));
    rows.push_back(std::move(row));
  }
  std::cout << rows.dump() << '\n';
  return 0;
}

int cmd_layers(int argc, char** argv) {
  const exp::Scenario s = exp::load_scenario(argv[2]);
  const std::size_t samples = std::stoull(argv[3]);
  std::mt19937_64 rng(std::stoull(argv[4]));
  const std::size_t n = exp::grid_size(s);
  std::vector<core::MmsConfig> configs;
  for (std::size_t i = 0; i < samples; ++i) {
    configs.push_back(exp::config_at(s, rng() % n));
  }
  const qn::AmvaOptions amva = s.amva;
  std::vector<double> model, traffic, ideal, key, petri;
  for (const core::MmsConfig& cfg : configs) {
    model.push_back(time_median(3, [&] {
      const core::MmsModel m(cfg);
      g_sink = static_cast<double>(m.build_network().num_stations());
    }));
    const core::MmsModel m(cfg);
    traffic.push_back(time_median(3, [&] {
      const topo::RemoteAccessDistribution d(m.topology(), cfg.traffic);
      g_sink = d.average_distance();
    }));
    ideal.push_back(time_median(3, [&] {
      g_sink = core::ideal_config(cfg, core::Subsystem::kNetwork,
                                  s.network_method)
                   .p_remote;
    }));
    key.push_back(time_median(3, [&] {
      g_sink = static_cast<double>(
          exp::SolveCache::config_key(cfg, amva, s.method).size());
    }));
  }
  // STPN build + compile is the simulators' set-up; a handful of configs
  // is enough (large machines build nets with thousands of arcs).
  for (std::size_t i = 0; i < std::min<std::size_t>(configs.size(), 4); ++i) {
    if (configs[i].open_arrival_rate > 0.0) continue;
    petri.push_back(time_median(3, [&] {
      const sim::MmsPetriModel pm = sim::build_mms_petri(configs[i]);
      const sim::CompiledPetriNet compiled(pm.net);
      g_sink = static_cast<double>(compiled.num_transitions());
    }));
  }

  std::vector<double> head_parse;
  const io::Json heads = std::string(argv[5]) == "-"
                             ? io::Json::array()
                             : io::parse_json(read_file(argv[5]));
  for (const io::Json& h : heads.as_array()) {
    const std::string& text = h.as_string();
    head_parse.push_back(time_median(5, [&] {
      serve::HttpRequest req;
      std::string error;
      g_sink = serve::parse_http_head(text, req, &error) ? 1.0 : 0.0;
    }));
  }

  std::vector<double> parse, dump;
  for (int a = 6; a < argc; ++a) {
    const std::string text = read_file(argv[a]);
    io::Json doc;
    parse.push_back(time_median(3, [&] { doc = io::parse_json(text); }));
    dump.push_back(time_median(3, [&] {
      g_sink = static_cast<double>(doc.dump().size());
    }));
  }

  io::Json out = io::Json::object();
  out.set("core.model_build_us", 1e6 * median(model));
  out.set("topo.traffic_us", 1e6 * median(traffic));
  out.set("core.ideal_config_us", 1e6 * median(ideal));
  out.set("exp.cache_key_us", 1e6 * median(key));
  out.set("sim.petri_build_ms", 1e3 * median(petri));
  out.set("serve.http_parse_us", 1e6 * median(head_parse));
  out.set("io.parse_us", 1e6 * median(parse));
  out.set("io.dump_ms", dump.empty() ? 0.0
                                     : 1e3 * *std::max_element(dump.begin(),
                                                               dump.end()));
  std::cout << out.dump() << '\n';
  return 0;
}

int cmd_setup(char** argv) {
  const std::string path = argv[2];
  const std::size_t repeats = std::stoull(argv[3]);
  std::size_t points = 0;
  const double t = time_median(repeats, [&] {
    const exp::Scenario s = exp::load_scenario(path);
    points = exp::expand_grid(s).size();
  });
  io::Json out = io::Json::object();
  out.set("seconds", t);
  out.set("points", static_cast<double>(points));
  std::cout << out.dump() << '\n';
  return 0;
}

/// The DES and STPN results of one replication batch as exact doubles, so
/// runs at different worker counts can be compared bit for bit.
io::Json des_fingerprint(const sim::ReplicationRun<sim::SimulationResult>& r) {
  io::Json a = io::Json::array();
  for (const auto& x : r.runs) {
    a.push_back(io::Json(io::Json::Array{
        x.processor_utilization, x.message_rate, x.network_latency,
        x.memory_latency, static_cast<double>(x.events)}));
  }
  return a;
}

io::Json petri_fingerprint(const sim::ReplicationRun<sim::PetriMmsResult>& r) {
  io::Json a = io::Json::array();
  for (const auto& x : r.runs) {
    a.push_back(io::Json(io::Json::Array{
        x.processor_utilization, x.message_rate, x.network_latency,
        x.memory_latency, static_cast<double>(x.total_firings)}));
  }
  return a;
}

int cmd_sim(int argc, char** argv) {
  const exp::Scenario s = exp::load_scenario(argv[2]);
  const double sim_time = std::stod(argv[3]);
  const std::size_t reps = std::stoull(argv[4]);
  const std::size_t workers = std::stoull(argv[5]);
  const double budget = std::stod(argv[6]);
  const std::size_t first_call = std::stoull(argv[7]);
  const std::size_t max_calls = first_call + std::stoull(argv[8]);
  const bool check = std::string(argv[9]) == "1";
  const std::vector<core::MmsConfig> grid = exp::expand_grid(s);

  sim::ReplicationPlan plan;
  plan.min_reps = reps;
  plan.max_reps = reps;
  plan.round_size = reps;
  plan.workers = workers;
  constexpr std::uint64_t kBaseSeed = 1;

  // Determinism: the same seeds at one worker and at `workers` workers
  // must give identical replications, for both engines.
  bool identical = true;
  if (check) {
    sim::ReplicationPlan serial = plan;
    serial.workers = 1;
    sim::SimulationConfig des;
    des.mms = grid.front();
    des.sim_time = sim_time;
    des.seed = kBaseSeed;
    identical = des_fingerprint(sim::replicate_mms(des, serial)) ==
                    des_fingerprint(sim::replicate_mms(des, plan)) &&
                petri_fingerprint(sim::replicate_mms_petri(
                    grid.front(), sim_time, 0.1, kBaseSeed, serial)) ==
                    petri_fingerprint(sim::replicate_mms_petri(
                        grid.front(), sim_time, 0.1, kBaseSeed, plan));
  }

  // Set-up: the STPN build + compile each petri batch pays once, timed
  // for all the configs after every kBuildEvery-th batch, so its median
  // covers the whole run.
  constexpr std::size_t kBuildEvery = 4;
  std::vector<double> builds;
  const auto build_round = [&grid] {
    const auto t0 = Clock::now();
    for (const core::MmsConfig& cfg : grid) {
      const sim::MmsPetriModel pm = sim::build_mms_petri(cfg);
      const sim::CompiledPetriNet compiled(pm.net);
      g_sink = static_cast<double>(compiled.num_transitions());
    }
    return seconds_since(t0);
  };

  // The model answers the replications are validated against, solved
  // here so no qn work falls inside a timed batch.
  std::vector<double> model_up;
  for (const core::MmsConfig& cfg : grid) {
    model_up.push_back(core::analyze(cfg).processor_utilization);
  }

  obs::TraceSink sink;
  const bool traced = argc > 10;
  obs::TraceSink* previous =
      traced ? obs::set_default_trace_sink(&sink) : nullptr;
  io::Json calls = io::Json::array();
  io::Json gaps = io::Json::array();
  auto last_end = Clock::now();
  std::uint64_t des_events = 0, petri_firings = 0, des_reps = 0,
                petri_reps = 0;
  double des_seconds = 0, petri_seconds = 0;
  double wall = 0, cpu = 0;  // of the batches alone
  bool plausible = true;
  const auto start = Clock::now();
  for (std::size_t call = first_call;
       call < max_calls && seconds_since(start) < budget; ++call) {
    const std::size_t at = (call / 2) % grid.size();
    const core::MmsConfig& cfg = grid[at];
    const std::uint64_t seed = kBaseSeed + 1000 * call;
    const auto t0 = Clock::now();
    if (call > first_call) {
      gaps.push_back(io::Json(
          std::chrono::duration<double>(t0 - last_end).count()));
    }
    const double cpu0 = cpu_seconds();
    double mean_up = 0;
    if (call % 2 == 0) {
      sim::SimulationConfig c;
      c.mms = cfg;
      c.sim_time = sim_time;
      c.seed = seed;
      const auto r = sim::replicate_mms(c, plan);
      for (const auto& x : r.runs) {
        des_events += x.events;
        mean_up += x.processor_utilization / static_cast<double>(r.runs.size());
      }
      des_reps += r.runs.size();
      des_seconds += seconds_since(t0);
    } else {
      const auto r = sim::replicate_mms_petri(cfg, sim_time, 0.1, seed, plan);
      for (const auto& x : r.runs) {
        petri_firings += x.total_firings;
        mean_up += x.processor_utilization / static_cast<double>(r.runs.size());
      }
      petri_reps += r.runs.size();
      petri_seconds += seconds_since(t0);
    }
    // Simulated utilization must sit in (0, 1] and near the model's.
    plausible = plausible && mean_up > 0.0 && mean_up <= 1.0 &&
                std::abs(mean_up - model_up[at]) < 0.25 * model_up[at];
    calls.push_back(io::Json(seconds_since(t0)));
    wall += seconds_since(t0);
    cpu += cpu_seconds() - cpu0;
    if ((call - first_call) % kBuildEvery == 0) builds.push_back(build_round());
    last_end = Clock::now();
  }
  if (traced) {
    obs::set_default_trace_sink(previous);
    std::ofstream out(argv[10]);
    sink.write_chrome_trace(out);
  }

  io::Json out = io::Json::object();
  out.set("wall_s", wall);
  out.set("cpu_s", cpu);
  out.set("calls", std::move(calls));
  out.set("gaps", std::move(gaps));
  out.set("des_reps", static_cast<double>(des_reps));
  out.set("petri_reps", static_cast<double>(petri_reps));
  out.set("des_events", static_cast<double>(des_events));
  out.set("petri_firings", static_cast<double>(petri_firings));
  out.set("des_seconds", des_seconds);
  out.set("petri_seconds", petri_seconds);
  out.set("petri_build_s", median(builds));
  out.set("identical_across_workers", identical);
  out.set("plausible", plausible);
  std::cout << out.dump() << '\n';
  return 0;
}

/// One request on a fresh connection (the daemon closes it after the
/// response), with a 5 s receive timeout. Returns the raw response, empty
/// when there was none.
std::string exchange_raw(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::string raw;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    std::size_t sent = 0;
    while (sent < request.size()) {
      const ssize_t n = ::send(fd, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    char chunk[16384];
    while (sent == request.size()) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) break;
      raw.append(chunk, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return raw;
}

/// True when a raw response is 200 and, if the header is present,
/// X-Latol-Exit is 0.
bool answer_ok(const std::string& raw) {
  const std::string head = raw.substr(0, raw.find("\r\n\r\n"));
  if (head.rfind("HTTP/1.1 200 ", 0) != 0) return false;
  const std::string tag = "\r\nX-Latol-Exit: ";
  const std::size_t at = head.find(tag);
  if (at == std::string::npos) return true;
  const std::size_t from = at + tag.size();
  return head.substr(from, head.find("\r\n", from) - from) == "0";
}

int cmd_load(int argc, char** argv) {
  const int port = std::stoi(argv[2]);
  const io::Json doc = io::parse_json(read_file(argv[3]));
  std::vector<std::string> requests;
  for (const io::Json& r : doc.as_array()) requests.push_back(r.as_string());
  const std::size_t clients = std::stoull(argv[4]);
  std::vector<bool> keep(requests.size(), false);
  std::vector<std::size_t> kept;
  if (argc > 6) {
    const io::Json indices = io::parse_json(read_file(argv[5]));
    for (const io::Json& i : indices.as_array()) {
      kept.push_back(static_cast<std::size_t>(i.as_number()));
      keep.at(kept.back()) = true;
    }
  }

  struct Record {
    double seconds = 0;
    bool ok = false;
    std::string raw;
  };
  std::vector<Record> records(requests.size());
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now();
  std::vector<std::thread> pool;
  for (std::size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < requests.size(); i = next++) {
        Record& r = records[i];
        const auto sent = Clock::now();
        std::string raw = exchange_raw(port, requests[i]);
        r.seconds = seconds_since(sent);
        r.ok = answer_ok(raw);
        if (keep[i]) r.raw = std::move(raw);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const double elapsed = seconds_since(start);

  io::Json latency = io::Json::array(), ok = io::Json::array();
  std::size_t answered = 0;
  for (const Record& r : records) {
    latency.push_back(io::Json(1e3 * r.seconds));
    ok.push_back(io::Json(r.ok));
    answered += r.ok ? 1 : 0;
  }
  if (argc > 6) {
    io::Json raws = io::Json::array();
    for (std::size_t i : kept) raws.push_back(io::Json(records[i].raw));
    std::ofstream out(argv[6], std::ios::binary);
    out << raws.dump();
  }
  io::Json out = io::Json::object();
  out.set("seconds", elapsed);
  out.set("ok", static_cast<double>(answered));
  out.set("latency_ms", std::move(latency));
  out.set("answered", std::move(ok));
  std::cout << out.dump() << '\n';
  return 0;
}

/// Exact MVA of a closed single-class network with kStations queues,
/// `reps` times. It uses no latol code, so its time tracks the machine's
/// current speed and not the code under test.
double calibration_kernel(std::size_t reps) {
  constexpr int kStations = 64;
  constexpr int kPopulation = 400;
  std::vector<double> demand(kStations), queue(kStations);
  for (int m = 0; m < kStations; ++m) demand[m] = 1.0 + 0.01 * m;
  double x = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    std::fill(queue.begin(), queue.end(), 0.0);
    for (int n = 1; n <= kPopulation; ++n) {
      double total = 0.0;
      for (int m = 0; m < kStations; ++m) total += demand[m] * (1.0 + queue[m]);
      x = n / total;
      for (int m = 0; m < kStations; ++m) {
        queue[m] = x * demand[m] * (1.0 + queue[m]);
      }
    }
  }
  return x;
}

/// Wall time of the calibration kernel run on `threads` threads at once.
int cmd_calibrate(char** argv) {
  const std::size_t reps = std::stoull(argv[2]);
  const std::size_t threads = std::stoull(argv[3]);
  const auto start = Clock::now();
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([reps] { g_sink = calibration_kernel(reps); });
  }
  for (std::thread& t : pool) t.join();
  io::Json out = io::Json::object();
  out.set("seconds", seconds_since(start));
  std::cout << out.dump() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  try {
    if (cmd == "resolve" && argc >= 3) return cmd_resolve(argc, argv);
    if (cmd == "layers" && argc >= 6) return cmd_layers(argc, argv);
    if (cmd == "setup" && argc == 4) return cmd_setup(argv);
    if (cmd == "sim" && argc >= 10) return cmd_sim(argc, argv);
    if (cmd == "load" && argc >= 5) return cmd_load(argc, argv);
    if (cmd == "calibrate" && argc == 4) return cmd_calibrate(argv);
  } catch (const std::exception& e) {
    std::cerr << "latol_probe: " << e.what() << '\n';
    return 1;
  }
  std::cerr << "usage: latol_probe resolve|layers|setup|sim|load|calibrate ... "
               "(see the comment at the top of probe.cpp)\n";
  return 2;
}
