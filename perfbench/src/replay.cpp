#include "replay.hpp"

#include <chrono>
#include <cstdio>

#include "core/planner.hpp"
#include "fleet.hpp"
#include "gpusim/finetune_sim.hpp"
#include "gpusim/gpu_spec.hpp"
#include "gpusim/memory_model.hpp"
#include "net/framing.hpp"
#include "net/server.hpp"
#include "router/hash_ring.hpp"
#include "serve/wire.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kMaxReplayRequests = 10000;

using ftsim::PlanRequest;
using ftsim::PlanResponse;
using ftsim::QueryKind;

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The GPUs a request's planner touches, in the planner's order. */
std::vector<ftsim::GpuSpec>
requestGpus(const PlanRequest& request, const ftsim::CloudCatalog& catalog)
{
    std::vector<ftsim::GpuSpec> gpus;
    if (request.query != QueryKind::CostTable &&
        request.query != QueryKind::CheapestPlan) {
        if (const ftsim::GpuSpec* gpu = ftsim::GpuSpec::byName(request.gpu))
            gpus.push_back(*gpu);
        return gpus;
    }
    if (request.gpus.empty()) {
        gpus = ftsim::GpuSpec::paperGpus();
    } else {
        for (const std::string& name : request.gpus)
            if (const ftsim::GpuSpec* gpu = ftsim::GpuSpec::byName(name))
                gpus.push_back(*gpu);
    }
    // costTable skips unpriced GPUs before it simulates them.
    std::vector<ftsim::GpuSpec> priced;
    for (const ftsim::GpuSpec& gpu : gpus)
        if (catalog.has(gpu.name))
            priced.push_back(gpu);
    return priced;
}

/** The request's question asked of a fresh Planner. */
void
askPlanner(const ftsim::Planner& planner, const PlanRequest& request,
           const std::vector<ftsim::GpuSpec>& gpus)
{
    if (gpus.empty())
        return;
    switch (request.query) {
    case QueryKind::MaxBatch:
        (void)planner.maxBatch(gpus.front());
        break;
    case QueryKind::Throughput:
        (void)planner.throughput(gpus.front());
        break;
    case QueryKind::CostTable:
        (void)planner.costTable(gpus);
        break;
    case QueryKind::CheapestPlan:
        (void)planner.cheapestPlan(gpus);
        break;
    case QueryKind::Report:
        (void)planner.report(gpus.front());
        break;
    default:
        break;
    }
}

/** The step simulations the planner runs for @p request, straight on
 *  FineTuneSim; returns the number of configs simulated. */
std::size_t
simulateLikePlanner(const PlanRequest& request,
                    const std::vector<ftsim::GpuSpec>& gpus,
                    const std::shared_ptr<ftsim::PlanRegistry>& registry)
{
    if (request.query == QueryKind::MaxBatch)
        return 0;  // Memory arithmetic only.
    const ftsim::Scenario& s = request.scenario;
    std::size_t configs = 0;
    for (const ftsim::GpuSpec& gpu : gpus) {
        const int max_batch =
            ftsim::MemoryModel::analyze(s.model, gpu, s.medianSeqLen,
                                        s.sparse)
                .maxBatchSize;
        if (max_batch < 1)
            continue;
        ftsim::FineTuneSim sim(s.model, gpu, s.calibration, registry);
        ftsim::RunConfig config;
        config.batchSize = static_cast<std::size_t>(max_batch);
        config.seqLen = sim.paddedSeqLen(s.medianSeqLen, config.batchSize,
                                         s.lengthSigma);
        config.sparse = s.sparse;
        (void)sim.profileStep(config);
        ++configs;
        if (request.query == QueryKind::Report) {
            const std::vector<ftsim::RunConfig> sweep =
                sim.sweepConfigs(s.medianSeqLen, s.lengthSigma);
            (void)sim.profileSweep(sweep);
            configs += sweep.size();
        }
    }
    return configs;
}

struct PassOutput {
    std::vector<double> pipelineUs;
    /** Immediate repeats of replayed questions: submit-to-ready, us. */
    std::vector<double> repeatHitUs;
    /** Per miss with simulations: simulate duration per config, us. */
    std::vector<double> sweepPerConfigUs;
};

/** One pass over @p seq through fresh layers; spans when @p tracer is
 *  on, and then also the replay of every miss. */
PassOutput
runPass(const WorkloadSpec& spec, const RunPlan& plan, const Oracle& oracle,
        const ftsim::ServiceConfig& config,
        const std::vector<std::string>& shardNames,
        const std::vector<std::uint32_t>& seq, double budgetUs,
        Tracer& tracer, ReplayResult& result)
{
    PassOutput out;
    ftsim::PlanService service(config);
    ftsim::StatsCounter& coalesced =
        service.statsRegistry()->counter("serve.coalesced");
    ftsim::HashRing ring;
    for (std::size_t i = 0; i < shardNames.size(); ++i)
        ring.addShard(i, shardNames[i]);
    ftsim::WireFramer framer(1 << 20);
    const double start = nowUs();
    for (std::uint32_t i = 0; i < seq.size(); ++i) {
        if (nowUs() - start > budgetUs)
            break;
        const std::uint32_t q = seq[i];
        const std::string id = "t" + std::to_string(i);
        const std::string bytes = plan.encode(q, id, spec.wire);
        ++result.attempted;

        const double t0 = nowUs();
        const int root = tracer.begin(i, "request", -1);
        const int frame_span = tracer.begin(i, "frame", root);
        framer.feed(bytes.data(), bytes.size());
        ftsim::WireFramer::Frame frame;
        const bool framed = framer.next(frame);
        tracer.end(frame_span);
        const int decode_span = tracer.begin(i, "decode", root);
        PlanRequest request;
        bool decoded = false;
        if (framed && frame.binary) {
            ftsim::Result<ftsim::WireMessage> m =
                ftsim::decodeWirePayload(frame.payload);
            decoded = m && m.value().type == ftsim::WireMsg::Request;
            if (decoded)
                request = std::move(m.value().request);
        } else if (framed) {
            ftsim::Result<PlanRequest> r = ftsim::parsePlanRequest(frame.payload);
            decoded = static_cast<bool>(r);
            if (decoded)
                request = std::move(r.value());
        }
        tracer.end(decode_span);
        if (!decoded) {
            tracer.end(root);
            ++result.wrong;
            if (result.firstWrong.empty())
                result.firstWrong = "replay: request " + id + " did not decode";
            continue;
        }
        const int route_span = tracer.begin(i, "route", root);
        const int key_span = tracer.begin(i, "key", route_span);
        const std::string key = request.canonicalKey();
        tracer.end(key_span);
        const int shard = ring.shardFor(key);
        tracer.end(route_span);
        const int submit_span = tracer.begin(i, "submit", root);
        const std::uint64_t before = coalesced.load();
        PlanResponse response = service.submit(request).get();
        const bool hit = coalesced.load() != before;
        tracer.end(submit_span);
        tracer.tag(submit_span, hit ? "hit" : "miss");
        const int encode_span = tracer.begin(i, "encode", root);
        response.id = request.id;
        const std::string answer = frame.binary
                                       ? ftsim::encodeResponseFrame(response)
                                       : ftsim::writePlanResponse(response);
        tracer.end(encode_span);
        tracer.end(root);
        out.pipelineUs.push_back(nowUs() - t0);

        const Verdict verdict =
            frame.binary
                ? oracle.checkFrame(q, id,
                                    std::string_view(answer).substr(
                                        ftsim::kWireHeaderBytes))
                : oracle.checkLine(q, id, answer);
        if (verdict != Verdict::Ok || shard < 0) {
            ++result.wrong;
            if (result.firstWrong.empty())
                result.firstWrong = "replay: request " + id +
                                    " answered differently from the oracle";
        }
        if (!tracer.enabled() || hit)
            continue;
        // The miss again, into a fresh Planner and then straight into
        // FineTuneSim: splits submit into planner and simulate time.
        ftsim::CloudCatalog catalog = service.catalog();
        for (const ftsim::CloudOffering& rate : request.rates)
            catalog.withRate(rate.gpuName, rate.dollarsPerHour);
        const std::vector<ftsim::GpuSpec> gpus = requestGpus(request, catalog);
        const int planner_span = tracer.begin(i, "planner", submit_span, true);
        tracer.tag(planner_span, ftsim::queryKindName(request.query));
        {
            ftsim::Planner planner(request.scenario, catalog,
                                   service.planRegistry());
            askPlanner(planner, request, gpus);
        }
        tracer.end(planner_span);
        if (request.query != QueryKind::MaxBatch) {
            const int sim_span = tracer.begin(i, "simulate", planner_span, true);
            const std::size_t configs =
                simulateLikePlanner(request, gpus, service.planRegistry());
            tracer.end(sim_span);
            if (configs > 0)
                out.sweepPerConfigUs.push_back(
                    tracer.spans()[static_cast<std::size_t>(sim_span)]
                        .durationUs() /
                    static_cast<double>(configs));
        }
    }
    // Immediate repeats of the last questions replayed: answer-cache
    // hits even on a workload whose requests never repeat.
    const std::size_t done = out.pipelineUs.size();
    for (std::size_t i = done > 200 ? done - 200 : 0; i < done; ++i) {
        const PlanRequest request = plan.question(seq[i]).request;
        const double t0 = nowUs();
        (void)service.submit(request).get();
        out.repeatHitUs.push_back(nowUs() - t0);
    }
    return out;
}

/** Round trip of one request to an in-process NetServer over loopback,
 *  one in flight, for questions the server has already answered. */
std::vector<double>
rttProbe(const WorkloadSpec& spec, const RunPlan& plan, const Oracle& oracle,
         const ftsim::ServiceConfig& config,
         const std::vector<std::uint32_t>& questions, ReplayResult& result)
{
    std::vector<double> rtt;
    ftsim::NetServerConfig net;
    net.service = config;
    ftsim::NetServer server(net);
    if (!server.start())
        return rtt;
    ftsim::Result<ftsim::NetClient> connected = connectLocal(server.port());
    if (connected) {
        ftsim::NetClient& client = connected.value();
        const bool binary = spec.wire == Wire::Binary;
        std::uint64_t n = 0;
        for (std::uint32_t q : questions) {
            for (int pass = 0; pass < 2; ++pass) {
                const std::string id = "n" + std::to_string(n++);
                const std::string bytes =
                    plan.encode(q, id, spec.wire);
                const double t0 = nowUs();
                const std::string answer = askOnce(client, bytes);
                const double t1 = nowUs();
                ++result.attempted;
                const Verdict verdict = binary
                                            ? oracle.checkFrame(q, id, answer)
                                            : oracle.checkLine(q, id, answer);
                if (verdict != Verdict::Ok) {
                    ++result.wrong;
                    if (result.firstWrong.empty())
                        result.firstWrong = "rtt probe: request " + id +
                                            " answered differently";
                }
                if (pass == 1)
                    rtt.push_back(t1 - t0);
            }
        }
    }
    server.stop();
    return rtt;
}

/** WireFramer feed + next per frame over the encoded stream, fed in
 *  16 KiB chunks (a typical recv); median of 5 passes. */
double
frameProbeUs(const WorkloadSpec& spec, const RunPlan& plan,
             const std::vector<std::uint32_t>& seq)
{
    std::string stream;
    for (std::size_t i = 0; i < seq.size(); ++i)
        stream += plan.encode(seq[i], "f" + std::to_string(i), spec.wire);
    std::vector<double> per_frame;
    for (int pass = 0; pass < 5; ++pass) {
        ftsim::WireFramer framer(1 << 20);
        ftsim::WireFramer::Frame frame;
        std::size_t frames = 0;
        const double t0 = nowUs();
        for (std::size_t off = 0; off < stream.size(); off += 16384) {
            framer.feed(stream.data() + off,
                        std::min<std::size_t>(16384, stream.size() - off));
            while (framer.next(frame))
                ++frames;
        }
        const double t1 = nowUs();
        if (frames > 0)
            per_frame.push_back((t1 - t0) / static_cast<double>(frames));
    }
    return median(per_frame);
}

}  // namespace

ReplayResult
runReplay(const WorkloadSpec& spec, const RunPlan& plan, const Oracle& oracle,
          const ftsim::ServiceConfig& config,
          const std::vector<std::string>& shardNames, double budgetS,
          const std::string& tracePath)
{
    ReplayResult result;
    std::vector<std::uint32_t> seq = plan.warmup;
    seq.insert(seq.end(), plan.open.begin(), plan.open.end());

    // Enough requests for stable medians, few enough that a trace
    // file stays near 10 MB.
    if (seq.size() > kMaxReplayRequests)
        seq.resize(kMaxReplayRequests);
    Tracer traced(true);
    const PassOutput on = runPass(spec, plan, oracle, config, shardNames, seq,
                                  budgetS * 0.45e6, traced, result);
    seq.resize(on.pipelineUs.size());
    Tracer untraced(false);
    const PassOutput off = runPass(spec, plan, oracle, config, shardNames, seq,
                                   1e300, untraced, result);
    const bool wrote = traced.write(tracePath);

    // Per-span samples out of the trace.
    const std::vector<Span>& spans = traced.spans();
    std::map<std::string, std::vector<double>> by_name;
    std::vector<double> hit_us, miss_us, wait_us, route_us;
    std::map<std::string, std::vector<double>> planner_by_kind;
    std::vector<double> decode_of(seq.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        const double d = s.durationUs();
        by_name[s.name].push_back(d);
        const std::string name = s.name;
        if (name == "submit")
            (std::string(s.tag) == "hit" ? hit_us : miss_us).push_back(d);
        if (name == "decode")
            decode_of[s.request] = d;
        if (name == "route")
            route_us.push_back(decode_of[s.request] + d);
        if (name == "planner") {
            planner_by_kind[s.tag].push_back(d);
            planner_by_kind["all"].push_back(d);
            wait_us.push_back(
                spans[static_cast<std::size_t>(s.parent)].durationUs() - d);
        }
    }
    const bool hits_from_repeats = hit_us.empty();
    if (hits_from_repeats)
        hit_us = off.repeatHitUs;

    std::vector<std::uint32_t> probe_questions;
    for (std::size_t i = 0; i < seq.size() && probe_questions.size() < 200; ++i)
        probe_questions.push_back(seq[i]);
    const std::vector<double> rtt =
        rttProbe(spec, plan, oracle, config, probe_questions, result);

    auto& m = result.metrics;
    m["net.frame_us"] = frameProbeUs(spec, plan, seq);
    m["net.rtt_us"] = median(rtt) - median(hit_us);
    m["serve.decode_us"] = median(by_name["decode"]);
    m["serve.encode_us"] = median(by_name["encode"]);
    m["serve.key_us"] = median(by_name["key"]);
    m["serve.hit_us"] = median(hit_us);
    m["serve.miss_us"] = median(miss_us);
    m["serve.wait_us"] = median(wait_us);
    m["core.planner_us"] = median(planner_by_kind["all"]);
    for (const char* kind : {"max_batch", "throughput", "cost_table",
                             "cheapest_plan", "report"})
        m[std::string("core.planner_us.") + kind] =
            median(planner_by_kind[kind]);
    m["gpusim.sweep_us"] = median(on.sweepPerConfigUs);
    m["router.route_us"] = median(route_us);

    double on_sum = 0.0;
    double off_sum = 0.0;
    for (double us : on.pipelineUs)
        on_sum += us;
    for (double us : off.pipelineUs)
        off_sum += us;
    const double n = static_cast<double>(std::max<std::size_t>(1, seq.size()));
    std::string text = summarise(spans);
    char line[512];
    std::snprintf(line, sizeof line,
                  "traced replay of %s: %zu requests (%zu hits, %zu misses), "
                  "spans %s %s\n",
                  spec.name.c_str(), seq.size(), by_name["submit"].size() -
                                                     miss_us.size(),
                  miss_us.size(), wrote ? "written to" : "NOT written to",
                  tracePath.c_str());
    text = line + text;
    text +=
        "  note: for misses, planner and simulate come from a replay: the\n"
        "  miss is asked again of a fresh Planner, and its step simulations\n"
        "  are run again straight on FineTuneSim; self time = duration minus\n"
        "  the children's durations, so submit self = submit - planner.\n";
    std::snprintf(line, sizeof line,
                  "  tracing overhead: %.3f us/request with spans, %.3f "
                  "without, %+.3f us (%+.2f%%) over %zu requests\n",
                  on_sum / n, off_sum / n, (on_sum - off_sum) / n,
                  off_sum > 0 ? 100.0 * (on_sum - off_sum) / off_sum : 0.0,
                  seq.size());
    text += line;
    std::snprintf(line, sizeof line,
                  "  serve.wait_us = median over %zu misses of (submit - "
                  "planner) = %.3f us; serve.hit_us from %s (%zu samples)\n",
                  wait_us.size(), m["serve.wait_us"],
                  hits_from_repeats ? "immediate repeats of replayed questions"
                                    : "replayed hits",
                  hit_us.size());
    text += line;
    std::snprintf(line, sizeof line,
                  "  net.rtt_us = median loopback round trip %.3f us (%zu "
                  "samples) - serve.hit_us %.3f us\n",
                  median(rtt), rtt.size(), median(hit_us));
    text += line;
    m["trace.overhead_us"] = (on_sum - off_sum) / n;
    result.summary = text;
    if (!wrote) {
        ++result.wrong;
        if (result.firstWrong.empty())
            result.firstWrong = "could not write " + tracePath;
    }
    return result;
}

}  // namespace perfbench
