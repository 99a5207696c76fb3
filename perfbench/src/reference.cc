#include "reference.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "connectivity/natural_connectivity.h"
#include "core/baselines.h"
#include "core/eta.h"
#include "core/planning_context.h"
#include "demand/ranked_list.h"
#include "gen/datasets.h"
#include "linalg/csr_matrix.h"
#include "linalg/dense_eigen.h"
#include "linalg/hutchinson.h"
#include "linalg/lanczos.h"
#include "linalg/rng.h"
#include "linalg/vector_ops.h"
#include "net/frame.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

using ctbus::core::CtBusOptions;
using ctbus::core::PlanResult;
using ctbus::net::RequestFrame;
using ctbus::net::ResponseFrame;
using PrecomputePtr = std::shared_ptr<const ctbus::core::Precompute>;

// Keeps kernel results observable so the timed calls cannot be elided.
volatile double g_sink = 0.0;

struct ClientRecord {
  std::int64_t index = 0;
  bool ok = false;
  std::uint64_t checksum = 0;
};

// Whole-token integer parse (no sign, no trailing bytes).
template <typename Int>
bool ParseWhole(const std::string& token, int base, Int* out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out, base);
  return ec == std::errc() && ptr == end && !token.empty();
}

// Reads the client's records (client.cc writes them): index, ok, checksum.
bool ReadRecords(const std::string& path, std::vector<ClientRecord>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::vector<std::string> cols;
    for (std::string col; std::getline(fields, col, '\t');) {
      cols.push_back(col);
    }
    ClientRecord record;
    if (cols.size() < 8 || !ParseWhole(cols[0], 10, &record.index) ||
        !ParseWhole(cols[7], 16, &record.checksum)) {
      return false;
    }
    record.ok = cols[5] == "1" && cols[6] == "ok";
    out->push_back(record);
  }
  return true;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// One span around a call into a layer; records on destruction. Children
// carry "parent=<root span>" in Span::detail (obs::Span has no parent
// field), roots carry "".
class ScopedSpan {
 public:
  ScopedSpan(ctbus::obs::TraceLog* trace, std::uint64_t trace_id,
             std::string name, const std::string& parent)
      : trace_(trace) {
    if (trace_ == nullptr) return;
    span_.trace_id = trace_id;
    span_.name = std::move(name);
    span_.detail = parent.empty() ? "" : "parent=" + parent;
    span_.start_seconds = trace_->Now();
  }
  ~ScopedSpan() {
    if (trace_ == nullptr) return;
    span_.duration_seconds = trace_->Now() - span_.start_seconds;
    trace_->Record(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Rename(std::string name) { span_.name = std::move(name); }

 private:
  ctbus::obs::TraceLog* trace_;
  ctbus::obs::Span span_;
};

const char* PlannerSpan(ctbus::core::Planner planner) {
  switch (planner) {
    case ctbus::core::Planner::kEta:
      return "core.eta_online";
    case ctbus::core::Planner::kEtaPre:
      return "core.eta_pre";
    case ctbus::core::Planner::kVkTsp:
      return "core.vktsp";
  }
  return "core.plan";
}

// The serving pipeline a request takes through the library, minus the
// service's queueing: decode -> precompute -> context build -> planner ->
// encode. Precomputes are shared across requests by key, like the
// service's cache, and run on one thread, like the server's.
class Pipeline {
 public:
  Pipeline(const ctbus::gen::Dataset& dataset, ctbus::obs::TraceLog* trace)
      : dataset_(dataset), trace_(trace) {}

  PrecomputePtr Precompute(const CtBusOptions& options,
                           std::uint64_t trace_id, const std::string& parent) {
    const auto& est = options.precompute_estimator;
    const Key key{options.tau, est.probes, est.lanczos_steps, est.seed};
    ScopedSpan span(trace_, trace_id, "core.precompute_lookup", parent);
    PrecomputePtr& slot = precomputes_[key];
    if (slot == nullptr) {
      span.Rename("core.run_precompute");
      CtBusOptions run = options;
      run.precompute_threads = 1;
      slot = std::make_shared<const ctbus::core::Precompute>(
          ctbus::core::PlanningContext::RunPrecompute(
              dataset_.road, dataset_.transit, run));
    }
    return slot;
  }

  ResponseFrame Serve(const RequestFrame& frame, const std::string& root,
                      PlanResult* plan_out = nullptr) {
    const std::vector<std::uint8_t> wire =
        ctbus::net::EncodeRequestFrame(frame);
    const std::uint64_t id = trace_ != nullptr ? trace_->NextTraceId() : 0;
    ScopedSpan root_span(trace_, id, root, "");
    RequestFrame decoded;
    {
      ScopedSpan span(trace_, id, "net.request_decode", root);
      std::string error;
      if (!ctbus::net::DecodeRequestPayload(
              wire.data() + ctbus::net::kHeaderBytes,
              wire.size() - ctbus::net::kHeaderBytes, &decoded, &error)) {
        throw std::runtime_error("request does not decode: " + error);
      }
    }
    const ctbus::service::PlanRequest& request = decoded.request;
    const PrecomputePtr precompute = Precompute(request.options, id, root);
    ctbus::service::ServiceResult result;
    result.request = request;
    result.stats.snapshot_version = 1;  // a fresh server, no commits
    std::optional<ctbus::core::PlanningContext> context;
    {
      ScopedSpan span(trace_, id, "core.context_build", root);
      context.emplace(ctbus::core::PlanningContext::BuildWithPrecompute(
          dataset_.road, dataset_.transit, request.options, precompute));
    }
    {
      ScopedSpan span(trace_, id, PlannerSpan(request.planner), root);
      switch (request.planner) {
        case ctbus::core::Planner::kEta:
          result.plan = ctbus::core::RunEta(&*context,
                                            ctbus::core::SearchMode::kOnline);
          break;
        case ctbus::core::Planner::kEtaPre:
          result.plan = ctbus::core::RunEta(
              &*context, ctbus::core::SearchMode::kPrecomputed);
          break;
        case ctbus::core::Planner::kVkTsp:
          result.plan = ctbus::core::RunVkTsp(&*context);
          break;
      }
    }
    ResponseFrame response;
    {
      ScopedSpan span(trace_, id, "net.response_encode", root);
      response = ctbus::net::MakeOkResponse(decoded.request_id, result);
      if (ctbus::net::EncodeResponseFrame(response).size() <
          ctbus::net::kHeaderBytes) {
        throw std::runtime_error("response frame shorter than its header");
      }
    }
    if (plan_out != nullptr) *plan_out = std::move(result.plan);
    return response;
  }

 private:
  using Key = std::tuple<double, int, int, std::uint64_t>;

  const ctbus::gen::Dataset& dataset_;
  ctbus::obs::TraceLog* const trace_;
  std::map<Key, PrecomputePtr> precomputes_;
};

using Metrics = std::vector<std::pair<std::string, double>>;

// Times `reps` calls of `fn` per span, `batches` spans, and records the
// median time per call as metric "<name>_<unit>" (unit "us" or "ms"). One
// span per batch keeps the recording cost out of microsecond kernels.
template <typename Fn>
void TimeKernel(ctbus::obs::TraceLog* trace, Metrics* metrics,
                const std::string& name, const std::string& unit, int batches,
                int reps, Fn&& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    ctbus::obs::Span span;
    span.trace_id = trace->NextTraceId();
    span.name = name;
    span.detail = "reps=" + std::to_string(reps);
    span.start_seconds = trace->Now();
    for (int r = 0; r < reps; ++r) fn();
    span.duration_seconds = trace->Now() - span.start_seconds;
    per_call.push_back(span.duration_seconds / reps);
    trace->Record(std::move(span));
  }
  metrics->emplace_back(name + "_" + unit,
                        (unit == "us" ? 1e6 : 1e3) * Median(per_call));
}

std::vector<double> RandomVector(int n, std::uint64_t seed) {
  ctbus::linalg::Rng rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  ctbus::linalg::FillGaussian(&rng, &v);
  return v;
}

// The kernel rows: each layer's public entry point timed on the dataset's
// own adjacency matrix, at the parameters the workloads use.
void TimeKernels(ctbus::obs::TraceLog* trace, const ctbus::gen::Dataset& data,
                 const PrecomputePtr& precompute, const RequestFrame& sample,
                 Pipeline* pipeline, Metrics* metrics) {
  namespace linalg = ctbus::linalg;
  using Entry = linalg::SymmetricSparseMatrix::Entry;
  const linalg::SymmetricSparseMatrix adjacency =
      data.transit.AdjacencyMatrix();
  const int n = adjacency.dim();
  std::size_t stored = 0;
  for (int u = 0; u < n; ++u) stored += adjacency.RowDegree(u);
  const CtBusOptions& options = sample.request.options;
  const int steps = options.online_estimator.lanczos_steps;

  std::vector<double> x = RandomVector(n, 1);
  std::vector<double> y(x.size());
  TimeKernel(trace, metrics, "linalg.matvec", "us", 7, 2000,
             [&] { adjacency.Apply(x, &y); });
  g_sink = g_sink + y[0];
  // Bytes one Apply streams: every stored entry (column + value) plus the
  // x element it gathers, one y write and one row header per row.
  metrics->emplace_back(
      "linalg.matvec_bytes",
      static_cast<double>(stored * (sizeof(Entry) + sizeof(double)) +
                          static_cast<std::size_t>(n) *
                              (sizeof(double) + sizeof(std::vector<Entry>))));

  std::vector<double> v = RandomVector(n, 2);
  linalg::Normalize(&v);
  std::vector<double> w = RandomVector(n, 3);
  const std::vector<double> u = RandomVector(n, 4);
  TimeKernel(trace, metrics, "linalg.vector_step", "us", 7, 2000, [&] {
    const double a = linalg::Dot(v, w);
    linalg::Axpy(-a, v, &w);
    linalg::Axpy(-0.1, u, &w);
    linalg::Scale(0.99, &w);
  });
  g_sink = g_sink + w[0];

  const std::vector<double> probe = RandomVector(n, 5);
  TimeKernel(trace, metrics, "linalg.lanczos_quadrature", "us", 7, 200, [&] {
    g_sink = g_sink + linalg::LanczosExpQuadrature(adjacency, probe, steps);
  });
  linalg::LanczosOptions lanczos_options;
  lanczos_options.steps = steps;
  const linalg::LanczosResult t =
      linalg::LanczosTridiagonalize(adjacency, probe, lanczos_options);
  TimeKernel(trace, metrics, "linalg.tridiag_eigen", "us", 7, 1000, [&] {
    g_sink = g_sink +
             linalg::TridiagonalEigen(t.alpha, t.beta, true).eigenvalues[0];
  });
  // The rows above time the adjacency-list path (TopEigenvalues' matvec).
  // ConnectivityEstimator::Estimate on an adjacency matrix runs another:
  // freeze into CSR, then every probe through the fused batched quadrature
  // (one ApplyBatch over all probes per Lanczos step). These rows time it.
  linalg::CsrMatrix csr;
  TimeKernel(trace, metrics, "linalg.csr_freeze", "us", 7, 200,
             [&] { csr.AssignFrom(adjacency); });
  const int probes = options.online_estimator.probes;
  const std::vector<double> lanes_x = RandomVector(n * probes, 6);
  std::vector<double> lanes_y(lanes_x.size());
  TimeKernel(trace, metrics, "linalg.csr_apply_batch", "us", 7, 200,
             [&] { csr.ApplyBatch(lanes_x.data(), probes, lanes_y.data()); });
  g_sink = g_sink + lanes_y[0];
  linalg::Rng probe_rng(options.online_estimator.seed);
  const std::vector<std::vector<double>> probe_set =
      linalg::MakeGaussianProbes(n, probes, &probe_rng);
  TimeKernel(trace, metrics, "linalg.trace_exp_batched", "ms", 7, 2, [&] {
    g_sink = g_sink + linalg::EstimateTraceExpBatched(csr, probe_set, steps);
  });
  // The context build's call at the largest k any workload sends: top 2k
  // eigenvalues from 2k + 30 iterations.
  const int needed = std::min(2 * kMaxK, n);
  const int iters = std::min(n, 2 * kMaxK + 30);
  TimeKernel(trace, metrics, "linalg.top_eigenvalues", "ms", 7, 3, [&] {
    linalg::Rng rng(options.online_estimator.seed ^ 0x9e3779b9ULL);
    g_sink = g_sink + linalg::TopEigenvalues(adjacency, needed, iters, &rng)[0];
  });

  const ctbus::connectivity::ConnectivityEstimator online(
      n, options.online_estimator);
  TimeKernel(trace, metrics, "connectivity.estimate_online", "ms", 7, 2,
             [&] { g_sink = g_sink + online.Estimate(adjacency); });
  const ctbus::connectivity::ConnectivityEstimator bulk(
      n, options.precompute_estimator);
  TimeKernel(trace, metrics, "connectivity.estimate_precompute", "ms", 7, 20,
             [&] { g_sink = g_sink + bulk.Estimate(adjacency); });

  TimeKernel(trace, metrics, "demand.ranked_list", "us", 7, 20, [&] {
    const ctbus::demand::RankedList list(precompute->universe.DemandScores());
    g_sink = g_sink + list.TopSum(1);
  });

  // Online increment of a planned route's edges, as ETA evaluates it.
  RequestFrame route_request = sample;
  route_request.request.planner = ctbus::core::Planner::kEtaPre;
  route_request.request.options.k = kMaxK;
  route_request.request.options.max_iterations = kSearchMaxIterations;
  PlanResult route;
  pipeline->Serve(route_request, "probe", &route);
  const ctbus::core::PlanningContext context =
      ctbus::core::PlanningContext::BuildWithPrecompute(
          data.road, data.transit, route_request.request.options, precompute);
  TimeKernel(trace, metrics, "core.online_increment", "ms", 7, 2, [&] {
    g_sink = g_sink + context.OnlineConnectivityIncrement(route.path.edges());
  });
}

// Per-layer medians and the attribution check over the request spans.
void SummarizeSpans(const std::vector<ctbus::obs::Span>& spans,
                    Metrics* metrics) {
  std::map<std::string, std::vector<double>> by_name;
  std::map<std::uint64_t, double> root_seconds;   // "request" roots only
  std::map<std::uint64_t, double> child_seconds;  // their children
  std::map<std::uint64_t, double> exec_seconds;   // precompute+context+plan
  for (const ctbus::obs::Span& span : spans) {
    if (span.detail.rfind("reps=", 0) == 0) continue;  // kernel batches
    if (span.detail.empty()) {
      if (span.name == "request") {
        root_seconds[span.trace_id] = span.duration_seconds;
      }
      continue;
    }
    by_name[span.name].push_back(span.duration_seconds);
    if (span.detail == "parent=request") {
      child_seconds[span.trace_id] += span.duration_seconds;
      if (span.name.rfind("net.", 0) != 0) {
        exec_seconds[span.trace_id] += span.duration_seconds;
      }
    }
  }
  const auto median_of = [&](const char* name, double scale) {
    return scale * Median(by_name[name]);
  };
  metrics->emplace_back("net.request_decode_us",
                        median_of("net.request_decode", 1e6));
  metrics->emplace_back("net.response_encode_us",
                        median_of("net.response_encode", 1e6));
  metrics->emplace_back("core.run_precompute_s",
                        median_of("core.run_precompute", 1.0));
  metrics->emplace_back("core.context_build_ms",
                        median_of("core.context_build", 1e3));
  metrics->emplace_back("core.eta_pre_ms", median_of("core.eta_pre", 1e3));
  metrics->emplace_back("core.vktsp_ms", median_of("core.vktsp", 1e3));
  metrics->emplace_back("core.eta_online_ms",
                        median_of("core.eta_online", 1e3));
  double root_total = 0.0;
  double child_total = 0.0;
  std::vector<double> exec;
  for (const auto& [id, seconds] : root_seconds) {
    root_total += seconds;
    child_total += child_seconds[id];
    exec.push_back(exec_seconds[id]);
  }
  metrics->emplace_back("trace.attributed_fraction",
                        root_total > 0.0 ? child_total / root_total : 0.0);
  metrics->emplace_back("trace.exec_ms_p50", 1e3 * Median(exec));
}

void PrintLayers(const Metrics& metrics) {
  std::printf("layers {");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": %.9g", i == 0 ? "" : ", ",
                metrics[i].first.c_str(), metrics[i].second);
  }
  std::printf("}\n");
}

}  // namespace

int RunReference(const ReferenceArgs& args) {
  std::vector<ClientRecord> all;
  if (!ReadRecords(args.records_path, &all)) {
    std::fprintf(stderr, "perfbench: cannot read records %s\n",
                 args.records_path.c_str());
    return 2;
  }
  std::vector<ClientRecord> records;
  for (const ClientRecord& r : all) {
    if (r.ok) records.push_back(r);
  }
  const ctbus::gen::Dataset data =
      ctbus::gen::MakeDatasetByName(args.dataset, kScale);
  ctbus::obs::TraceLog trace(1u << 17, /*enabled=*/args.trace);
  Pipeline pipeline(data, args.trace ? &trace : nullptr);

  std::vector<RequestFrame> frames;
  std::vector<ResponseFrame> responses(records.size());
  std::vector<PlanResult> plans(records.size());
  std::vector<std::string> errors(records.size());
  frames.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    frames.push_back(
        MakeRequest(args.workload, args.seed, args.dataset, records[i].index));
    try {
      responses[i] = pipeline.Serve(frames[i], "request", &plans[i]);
    } catch (const std::exception& e) {
      errors[i] = e.what();
    }
  }

  int drift = 0;
  std::uint64_t fold = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::uint64_t expected = ctbus::net::ResponseChecksum(responses[i]);
    if (records[i].index == args.perturb_index) expected ^= 1;
    fold += expected;
    if (errors[i].empty() && expected == records[i].checksum) continue;
    if (++drift <= 5) {
      std::fprintf(stderr,
                   "perfbench: checksum drift workload=%s index=%" PRId64
                   " server=%016" PRIx64 " reference=%016" PRIx64 "%s%s\n",
                   WorkloadName(args.workload), records[i].index,
                   records[i].checksum, expected, errors[i].empty() ? "" : " ",
                   errors[i].c_str());
    }
  }
  std::printf("reference %zu drift %d checksum_fold %016" PRIx64 "\n",
              records.size(), drift, fold);

  if (args.trace && !frames.empty()) {
    // Time each planner the workload did not send once, on its first key
    // and at the iteration cap the other workloads send it with, so every
    // workload reports every planner row.
    std::map<ctbus::core::Planner, bool> seen;
    double iterations = 0.0;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      seen[frames[i].request.planner] = true;
      iterations += plans[i].iterations;
    }
    for (ctbus::core::Planner planner :
         {ctbus::core::Planner::kEtaPre, ctbus::core::Planner::kVkTsp,
          ctbus::core::Planner::kEta}) {
      if (seen[planner]) continue;
      RequestFrame probe = frames.front();
      probe.request.planner = planner;
      probe.request.options.max_iterations =
          planner == ctbus::core::Planner::kEta ? kOnlineMaxIterations
                                                : kSearchMaxIterations;
      pipeline.Serve(probe, "probe");
    }
    Metrics metrics;
    metrics.emplace_back("core.iterations",
                         iterations / static_cast<double>(frames.size()));
    TimeKernels(&trace, data,
                pipeline.Precompute(frames.front().request.options, 0, ""),
                frames.front(), &pipeline, &metrics);
    SummarizeSpans(trace.Snapshot(), &metrics);
    std::ofstream dump(args.spans_path);
    trace.Dump(dump);
    if (!dump) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans_path.c_str());
      return 2;
    }
    PrintLayers(metrics);
  }
  return drift == 0 ? 0 : 1;
}

}  // namespace perfbench
