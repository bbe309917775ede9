// serve_mixed: two exported artifacts behind an in-process socket server
// with the streaming controller on the batch thread, quiet traffic, and a
// SWAP between the artifacts at a fixed interval. An open-loop phase at a
// fixed rate measures latency; a closed-loop phase measures throughput.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/benchmark_suite.h"
#include "data/splits.h"
#include "preprocess/pipeline_parse.h"
#include "serve/artifact.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "stream/controller.h"
#include "trace.h"

namespace perfbench {

namespace {

using namespace autofp;

constexpr size_t kRowsPerRequest = 16;
constexpr int kConnections = 2;         ///< open-loop connections.
constexpr double kOpenRate = 1000.0;     ///< open-loop requests per second.
constexpr long kClosedRequests = 32000;  ///< per closed-loop round.
/// Closed-loop requests in flight: twice the server's default
/// micro-batch of 2048 rows, in 16-row requests.
constexpr long kClosedWindow = 256;
constexpr double kSwapInterval = 0.25;   ///< seconds between SWAPs.
constexpr int kSetups = 3;
/// The split the artifacts are exported on is part of the workload, so
/// every run serves the same deployment; --seed draws the traffic.
constexpr uint64_t kExportSeed = 1000;
const char* const kPipelineA = "PowerTransformer -> StandardScaler";
const char* const kPipelineB = "QuantileTransformer -> MinMaxScaler";

/// One encoded request and the answers the two artifacts give in process.
struct Request {
  std::string bytes;
  std::vector<int> a;
  std::vector<int> b;
};

/// The serving stack set-up builds; members are destroyed server first.
struct Stack {
  std::string path_a, path_b;
  Matrix export_features;
  std::unique_ptr<ArtifactRegistry> registry;
  std::unique_ptr<StreamController> stream;
  std::unique_ptr<TimingBatchObserver> observer;
  std::unique_ptr<ServeSocketServer> server;

  ~Stack() {
    if (server != nullptr) server->Stop();
    server.reset();
    if (stream != nullptr) stream->WaitForResearch();
  }
};

/// Export, load and start: the set-up a deployment pays before serving.
std::unique_ptr<Stack> Setup(uint64_t seed, const std::string& dir,
                             Dataset* pool, double* load_seconds) {
  auto stack = std::make_unique<Stack>();
  const double begin = Now();
  Result<Dataset> data = GetSuiteDataset("higgs_syn");
  AUTOFP_CHECK(data.ok()) << data.status().ToString();
  *load_seconds = Now() - begin;
  Rng rng(kExportSeed);
  TrainValidSplit split = SplitTrainValid(data.value(), 0.5, &rng);
  *pool = split.valid;
  stack->export_features = split.train.features;

  stack->path_a = dir + "/a.afpa";
  stack->path_b = dir + "/b.afpa";
  const ModelConfig mlp = ModelConfig::Defaults(ModelKind::kMlp);
  for (const auto& [path, text] :
       {std::pair{stack->path_a, kPipelineA},
        std::pair{stack->path_b, kPipelineB}}) {
    Result<PipelineSpec> pipeline = ParsePipelineSpec(text);
    AUTOFP_CHECK(pipeline.ok()) << pipeline.status().ToString();
    Result<ArtifactSchema> exported =
        ExportArtifact(path, split.train, pipeline.value(), mlp);
    AUTOFP_CHECK(exported.ok()) << exported.status().ToString();
  }

  stack->registry = std::make_unique<ArtifactRegistry>();
  Status swapped = stack->registry->Swap(stack->path_a);
  AUTOFP_CHECK(swapped.ok()) << swapped.ToString();
  // higgs_syn's log-normal columns make a 512-row window's standard
  // deviation noisy: at the library's default drift settings (512 rows,
  // 0.5 sigma, 1 column) iid traffic from the export distribution fires
  // in a large share of windows. These settings keep quiet traffic quiet
  // (see README.md), so research_started == 0 stays a meaningful check.
  StreamConfig stream_config;
  stream_config.drift.window_rows = 4096;
  stream_config.drift.threshold = 1.0;
  stream_config.drift.min_columns = 2;
  stream_config.seed = seed;
  stream_config.research.candidate_path = dir + "/candidate.afpa";
  stack->stream =
      std::make_unique<StreamController>(stack->registry.get(), stream_config);
  stack->observer = std::make_unique<TimingBatchObserver>(stack->stream.get());
  ServerOptions options;
  options.batch_observer = stack->observer.get();
  stack->server =
      std::make_unique<ServeSocketServer>(stack->registry.get(), options);
  Status started = stack->server->Start();
  AUTOFP_CHECK(started.ok()) << started.ToString();
  return stack;
}

/// In-process answers of an artifact file for every request's rows.
std::vector<std::vector<int>> Reference(const std::string& path,
                                        const std::vector<Matrix>& rows) {
  Predictor::LoadResult loaded = Predictor::Load(path);
  AUTOFP_CHECK(loaded.ok()) << loaded.status().ToString();
  std::vector<std::vector<int>> out;
  for (const Matrix& batch : rows) {
    Result<std::vector<int>> predicted = loaded.predictor().Predict(batch);
    AUTOFP_CHECK(predicted.ok()) << predicted.status().ToString();
    out.push_back(predicted.value());
  }
  return out;
}

/// Thread-safe tally of served responses.
struct Tally {
  std::atomic<long> sent{0};
  std::atomic<long> bad{0};  ///< error, shed, torn or mismatched.

  /// A response is correct when it equals, whole, artifact A's or B's
  /// in-process answer for the request.
  void Judge(const Status& status, const ServeResponse& response,
             const Request& request) {
    const std::vector<int> got(response.predictions.begin(),
                               response.predictions.end());
    const bool ok = status.ok() && response.ok() &&
                    response.type == FrameType::kPredictions &&
                    (got == request.a || got == request.b);
    if (!ok) bad.fetch_add(1);
  }
};

/// Waits until `when` and returns the time it woke. Sleeps until shortly
/// before and spins the rest, so timer wake-up jitter does not make the
/// generator late.
double WaitUntil(double when) {
  constexpr double kSpin = 0.002;
  double now = Now();
  if (when - now > kSpin) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(when - now - kSpin));
  }
  while ((now = Now()) < when) {
  }
  return now;
}

/// Open loop: requests go out on a fixed schedule whatever the server
/// does; each latency runs from the request's scheduled send time.
void OpenLoop(int port, const std::vector<Request>& requests, double seconds,
              Tally* tally, std::vector<double>* latency_ms,
              std::vector<double>* late_ms) {
  const long count = static_cast<long>(seconds * kOpenRate);
  std::vector<BlockingFrameClient> clients(kConnections);
  for (BlockingFrameClient& client : clients) {
    AUTOFP_CHECK(client.Connect("127.0.0.1", port).ok());
  }
  const double start = Now() + 0.01;
  auto scheduled = [&](long i) {
    return start + static_cast<double>(i) / kOpenRate;
  };
  std::vector<std::vector<double>> latencies(kConnections);
  std::vector<std::thread> receivers;
  for (int c = 0; c < kConnections; ++c) {
    receivers.emplace_back([&, c] {
      for (long i = c; i < count; i += kConnections) {
        Frame frame;
        ServeResponse response;
        Status status = clients[c].RecvFrame(&frame);
        if (status.ok() && !DecodeResponseFrame(frame, &response)) {
          status = Status::InvalidArgument("undecodable response");
        }
        latencies[c].push_back((Now() - scheduled(i)) * 1e3);
        tally->Judge(status, response, requests[i % requests.size()]);
        if (!status.ok()) {
          // The connection is unusable: count the rest as failed.
          for (long j = i + kConnections; j < count; j += kConnections) {
            tally->bad.fetch_add(1);
          }
          return;
        }
      }
    });
  }
  for (long i = 0; i < count; ++i) {
    const double now = WaitUntil(scheduled(i));
    late_ms->push_back((now - scheduled(i)) * 1e3);
    tally->sent.fetch_add(1);
    // A send failure surfaces as a receive failure on that connection.
    (void)clients[i % kConnections].SendBytes(
        requests[i % requests.size()].bytes);
  }
  for (std::thread& receiver : receivers) receiver.join();
  for (const auto& part : latencies) {
    latency_ms->insert(latency_ms->end(), part.begin(), part.end());
  }
}

/// Closed loop on one connection with `window` requests in flight: the
/// next request goes out when an answer arrives. With more rows in
/// flight than a micro-batch holds, the server always has a full batch
/// queued, so a round times its scoring capacity rather than thread
/// wake-ups and the batcher's wait for stragglers. Returns the round's
/// wall time.
double ClosedLoop(int port, const std::vector<Request>& requests,
                  long count, long window, Tally* tally) {
  const double begin = Now();
  BlockingFrameClient client;
  Status status = client.Connect("127.0.0.1", port);
  long sent = 0;
  auto send_next = [&] {
    // A send failure surfaces as a receive failure below.
    if (status.ok()) {
      status = client.SendBytes(requests[sent % requests.size()].bytes);
    }
    ++sent;
    tally->sent.fetch_add(1);
  };
  while (sent < std::min(window, count)) send_next();
  for (long i = 0; i < count; ++i) {
    Frame frame;
    ServeResponse response;
    Status received = status.ok() ? client.RecvFrame(&frame) : status;
    if (received.ok() && !DecodeResponseFrame(frame, &response)) {
      received = Status::InvalidArgument("undecodable response");
    }
    tally->Judge(received, response, requests[i % requests.size()]);
    if (!received.ok()) status = received;  // the rest fail as well
    if (sent < count) send_next();
  }
  return Now() - begin;
}

}  // namespace

RunResult RunServeWorkload(const RunArgs& args) {
  RunResult out;
  std::vector<double> setup_s, load_s;
  std::unique_ptr<Stack> stack;
  Dataset pool;
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();
    const double begin = Now();
    double load = 0.0;
    stack = Setup(args.seed, args.work_dir, &pool, &load);
    setup_s.push_back(Now() - begin);
    load_s.push_back(load);
  }
  const double start = Now();
  const int port = stack->server->port();

  // The request pool: consecutive 16-row slices of the held-out rows in
  // an order drawn from the seed.
  Rng rng(args.seed);
  const std::vector<size_t> order = rng.Permutation(pool.num_rows());
  std::vector<Matrix> rows;
  for (size_t r = 0; r + kRowsPerRequest <= pool.num_rows();
       r += kRowsPerRequest) {
    Matrix batch(kRowsPerRequest, pool.num_cols());
    for (size_t i = 0; i < kRowsPerRequest; ++i) {
      std::copy(pool.features.RowPtr(order[r + i]),
                pool.features.RowPtr(order[r + i]) + pool.num_cols(),
                batch.RowPtr(i));
    }
    rows.push_back(std::move(batch));
  }
  const auto answers_a = Reference(stack->path_a, rows);
  const auto answers_b = Reference(stack->path_b, rows);
  std::vector<Request> requests(rows.size());
  long correct_a = 0, correct_b = 0, labelled = 0;
  for (size_t q = 0; q < rows.size(); ++q) {
    EncodePredictDense(rows[q], &requests[q].bytes);
    requests[q].a = answers_a[q];
    requests[q].b = answers_b[q];
    for (size_t i = 0; i < kRowsPerRequest; ++i) {
      const int label = pool.labels[order[q * kRowsPerRequest + i]];
      correct_a += answers_a[q][i] == label;
      correct_b += answers_b[q][i] == label;
      ++labelled;
    }
  }

  // SWAPs run beside the traffic for both phases. Each outgoing
  // predictor is kept so its latency histogram can be read at the end.
  std::atomic<bool> stop_swaps{false};
  std::vector<std::shared_ptr<const Predictor>> generations;
  std::vector<double> swap_ms;
  long swaps_failed = 0;
  std::thread swapper([&] {
    BlockingFrameClient admin;
    if (!admin.Connect("127.0.0.1", port).ok()) {
      ++swaps_failed;
      return;
    }
    bool to_b = true;
    double next = Now() + kSwapInterval;
    while (!stop_swaps.load()) {
      if (Now() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      next += kSwapInterval;
      generations.push_back(stack->registry->Acquire());
      std::string bytes;
      EncodeSwap(to_b ? stack->path_b : stack->path_a, &bytes);
      ServeResponse response;
      const double begin = Now();
      Status status = admin.RoundTrip(bytes, &response);
      swap_ms.push_back((Now() - begin) * 1e3);
      if (!status.ok() || response.type != FrameType::kSwapped) {
        ++swaps_failed;
      }
      to_b = !to_b;
    }
  });

  // Warm-up, then the open-loop phase, then a second warm-up and the
  // closed-loop rounds: the first saturated round after the open loop
  // runs markedly slower than the rest. A traced run alternates untraced
  // and traced rounds to measure the overhead.
  Tally tally;
  ClosedLoop(port, requests, 4 * kClosedWindow, kClosedWindow, &tally);
  stack->observer->set_tracing(args.trace);
  std::vector<double> latency_ms, late_ms;
  OpenLoop(port, requests, 0.45 * args.seconds, &tally, &latency_ms,
           &late_ms);
  ClosedLoop(port, requests, kClosedRequests / 2, kClosedWindow, &tally);
  std::vector<double> walls, traced_walls;
  const double end = start + args.seconds;
  while (walls.size() < 3 || (args.trace && traced_walls.size() < 3) ||
         Now() < end) {
    const bool trace_this = args.trace && traced_walls.size() < walls.size();
    stack->observer->set_tracing(trace_this);
    const double wall =
        ClosedLoop(port, requests, kClosedRequests, kClosedWindow, &tally);
    (trace_this ? traced_walls : walls).push_back(wall);
  }
  stop_swaps.store(true);
  swapper.join();
  generations.push_back(stack->registry->Acquire());
  const ServerCounters counters = stack->server->counters();
  const StreamCounters stream_counters = stack->stream->counters();

  out.attempted += tally.sent.load();
  out.failed += tally.bad.load();
  out.attempted += static_cast<long>(swap_ms.size());
  out.failed += swaps_failed;
  out.Check(counters.busy_shed == 0 && counters.protocol_errors == 0,
            "server shed or rejected requests");
  out.Check(stream_counters.research_started == 0,
            "quiet traffic started a background re-search");
  out.Check(stream_counters.windows_compared > 0,
            "the drift monitor compared no window");

  char line[256];
  std::snprintf(line, sizeof(line),
                "serve_mixed seed=%llu requests=%ld bad=%ld swaps=%zu "
                "open-loop samples=%zu closed rounds=%zu+%zu traced",
                static_cast<unsigned long long>(args.seed),
                tally.sent.load(), tally.bad.load(), swap_ms.size(),
                latency_ms.size(), walls.size(), traced_walls.size());
  out.Note(line);
  std::snprintf(line, sizeof(line),
                "open-loop latency ms: p50 %.3f p90 %.3f p95 %.3f p99 %.3f "
                "p99.9 %.3f; generator late ms: p50 %.3f p99 %.3f",
                Percentile(latency_ms, 0.5), Percentile(latency_ms, 0.9),
                Percentile(latency_ms, 0.95), Percentile(latency_ms, 0.99),
                Percentile(latency_ms, 0.999), Percentile(late_ms, 0.5),
                Percentile(late_ms, 0.99));
  out.Note(line);
  std::string round_line = "closed-loop round walls (s):";
  for (double wall : walls) round_line += " " + std::to_string(wall);
  out.Note(round_line);

  const double round_rows = static_cast<double>(
      kClosedRequests * static_cast<long>(kRowsPerRequest));
  if (!args.trace) {
    out.Set("setup_s", Median(setup_s), "s");
    out.Set("wall_s", Median(walls), "s");
    out.Set("throughput_per_s", round_rows / Median(walls), "1/s");
    out.Set("accuracy",
            0.5 * static_cast<double>(correct_a + correct_b) /
                static_cast<double>(labelled),
            "ratio");
    out.Set("peak_rss_mb", PeakRssMb(), "MiB");
    return out;
  }

  for (const auto& [name, unit] : PerLayerMetrics()) out.Set(name, 0.0, unit);
  double busy = 0.0, p99_weighted = 0.0;
  long batches = 0;
  for (const auto& predictor : generations) {
    const ServeStats stats = predictor->stats();
    busy += stats.busy_seconds;
    p99_weighted += stats.p99_ms * static_cast<double>(stats.batches);
    batches += stats.batches;
  }
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  auto& m = out.metrics;
  m["trace_overhead_ratio"].value =
      ratio(Median(traced_walls) - Median(walls), Median(walls));
  m["data.load_s"].value = Median(load_s);
  m["serve.predict_busy_s"].value = busy;
  m["serve.predict_batch_p99_ms"].value =
      ratio(p99_weighted, static_cast<double>(batches));
  m["serve.rows_per_batch"].value =
      ratio(static_cast<double>(counters.predict_rows),
            static_cast<double>(counters.micro_batches));
  m["serve.coalesced_ratio"].value =
      ratio(static_cast<double>(counters.coalesced_requests),
            static_cast<double>(counters.predict_requests));
  m["serve.busy_shed_ratio"].value =
      ratio(static_cast<double>(counters.busy_shed),
            static_cast<double>(counters.predict_requests));
  m["serve.swap_ms"].value = Median(swap_ms);
  m["serve.gen_late_p99_ms"].value = Percentile(late_ms, 0.99);
  m["serve.open_p50_ms"].value = Percentile(latency_ms, 0.50);
  m["serve.open_p99_ms"].value = Percentile(latency_ms, 0.99);
  m["stream.observe_ns_per_row"].value =
      ratio(stack->observer->seconds() * 1e9,
            static_cast<double>(stack->observer->rows()));
  m["stream.windows_compared"].value =
      static_cast<double>(stream_counters.windows_compared);
  m["stream.research_started"].value =
      static_cast<double>(stream_counters.research_started);
  ProbePreprocessors(stack->export_features, &out);
  return out;
}

}  // namespace perfbench
