// serve workload: a closed loop of one connection over serve::ServerLoop's
// in-process channels (no sockets) against a CampaignServer with two
// workers. The connection sends query sessions drawn from the global and
// local lists across three field vantages, and /v1/admin/recategorize at
// fixed points of its sequence. This is the only workload through http
// framing, JSON, admission, the shared verdict store and the world pool,
// with writes that purge the store beside the reads.
//
// One connection, not two: the clients, the loop thread and the workers of
// two connections are five threads on a four-core machine, and with the
// machine loaded by its other tenants the median round trip of two
// connections spread 0.32 over ten runs.
//
// Inputs, per connection and round (the same every round):
//   * 400 requests in 20 date blocks of 20; block b queries the date
//     2012-09-01 + 7b days, so dates walk forward within a round (a date
//     earlier than every pooled replica makes the server build a new one);
//   * in each block 14 fresh sessions (vantage and 5 URLs drawn from the
//     seed) and 6 repeats of earlier sessions of the same block (30%);
//   * connection 0 replaces positions 100 and 300 by recategorizations,
//     the two SmartFilter edits in turn;
//   * every round runs on a fresh server (built outside the timed part), so
//     the snapshot holds at most the round's two edits and the server's
//     state is the same at the start of every round: three database states
//     exist, no edit, the first, both.
// Vantages are the three whose filter chains are deterministic and free of
// side effects (no Netsweeper URL queueing, no offline dice), so every
// answer must equal a standalone measure::Client test on a fresh world.
//
// One operation is one request; op_ms is the median round trip, so the
// purge and rebuild that follow each write are counted.
#include <atomic>
#include <future>
#include <map>
#include <mutex>
#include <thread>

#include "bench.h"
#include "http/wire.h"
#include "measure/client.h"
#include "report/json.h"
#include "serve/channel.h"
#include "serve/loop.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace urlf;
using report::Json;

constexpr std::size_t kConnections = 1;
constexpr int kRoundRequests = 400;
constexpr int kBlock = 20;
constexpr int kFreshPerBlock = 14;
constexpr int kUrlsPerSession = 5;
constexpr int kEditPositions[] = {100, 300};
const char* const kVantages[] = {"field-bayanat", "field-nournet",
                                 "field-etisalat"};

struct Edit {
  const char* host;
  const char* category;
};
/// SmartFilter recategorizations: both hosts are accessible at the Saudi
/// vantages until they gain "Pornography", which those deployments block.
const Edit kEdits[] = {{"humanrightsmonitor.org", "Pornography"},
                       {"mediafreedomwatch.org", "Pornography"}};

struct Query {
  std::string vantage;
  std::string date;  // ISO
  std::vector<std::string> urls;
};

struct Step {
  int edit = -1;  ///< index into kEdits, or -1 for a query
  Query query;
};

http::Request post(const std::string& path, const Json& body) {
  http::Request request;
  request.method = "POST";
  request.url = *net::Url::parse("http://campaigns.sim" + path);
  request.body = body.dump();
  return request;
}

http::Request queryRequest(const Query& q) {
  Json body = Json::object();
  body["kind"] = Json::string("query");
  body["snapshot"] = Json::string("paper");
  body["vantage"] = Json::string(q.vantage);
  body["date"] = Json::string(q.date);
  Json urls = Json::array();
  for (const auto& url : q.urls) urls.push(Json::string(url));
  body["urls"] = std::move(urls);
  return post("/v1/session", body);
}

http::Request editRequest(const Edit& edit) {
  Json body = Json::object();
  body["snapshot"] = Json::string("paper");
  body["product"] = Json::string("McAfee SmartFilter");
  body["host"] = Json::string(edit.host);
  body["category"] = Json::string(edit.category);
  return post("/v1/admin/recategorize", body);
}

util::CivilDate blockDate(int block) {
  return (util::SimTime::fromDate({2012, 9, 1}) + std::int64_t{24 * 7} * block)
      .date();
}

/// One connection's round, drawn from (seed, connection).
std::vector<Step> roundPlan(const scenarios::PaperWorld& paper,
                            std::uint64_t seed, std::size_t connection) {
  util::Rng rng(seed * 1000003ULL + connection + 1);
  std::vector<Step> plan;
  for (int block = 0; block < kRoundRequests / kBlock; ++block) {
    const auto date = blockDate(block).iso();
    const std::size_t blockStart = plan.size();
    for (int i = 0; i < kBlock; ++i) {
      Step step;
      if (i < kFreshPerBlock) {
        const std::string vantage =
            kVantages[rng.index(std::size(kVantages))];
        const auto& local =
            paper.localList(vantage == "field-etisalat" ? "AE" : "SA");
        std::vector<std::string> pool = paper.globalList().urls();
        for (const auto& url : local.urls()) pool.push_back(url);
        step.query.vantage = vantage;
        step.query.date = date;
        for (int u = 0; u < kUrlsPerSession; ++u)
          step.query.urls.push_back(
              pool[rng.index(pool.size())]);
      } else {
        step = plan[blockStart + rng.index(kFreshPerBlock)];
      }
      plan.push_back(std::move(step));
    }
  }
  if (connection == 0)
    for (std::size_t e = 0; e < std::size(kEditPositions); ++e)
      plan[static_cast<std::size_t>(kEditPositions[e])] =
          Step{static_cast<int>(e % std::size(kEdits)), {}};
  return plan;
}

/// Every answer seen, keyed by (edits applied, vantage, date, url), plus
/// the failures client threads ran into (reported after they join).
class Answers {
 public:
  using Key = std::tuple<std::size_t, std::string, std::string, std::string>;

  void add(Key key, const std::string& answer) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = answers_.try_emplace(key, answer);
    if (!inserted && it->second != answer)
      errors_.push_back("server answered " + std::get<3>(key) + " at " +
                        std::get<1>(key) + " on " + std::get<2>(key) +
                        " both " + it->second + " and " + answer);
  }
  void error(std::string what) {
    std::lock_guard<std::mutex> lock(mutex_);
    errors_.push_back(std::move(what));
  }
  /// Only after every client thread has joined.
  const std::map<Key, std::string>& answers() const { return answers_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::mutex mutex_;
  std::map<Key, std::string> answers_;
  std::vector<std::string> errors_;
};

std::string answerOf(const measure::UrlTestResult& r) {
  std::string answer(measure::toString(r.verdict));
  if (r.blockPage) answer += "/" + std::string(filters::toString(r.blockPage->product));
  return answer;
}

}  // namespace

Result runServe(const Args& args) {
  Result result;
  scenarios::CampaignOptions base;
  base.seed = args.seed;
  serve::ServerConfig config;
  config.workers = kThreads;
  config.maxQueued = 8;  // above the one outstanding request: nothing sheds
  config.classifyThreads = 1;

  std::vector<std::vector<Step>> plans;
  std::size_t roundRequests = 0;
  {
    const scenarios::PaperWorld paper(base.seed, base.world);
    for (std::size_t c = 0; c < kConnections; ++c) {
      plans.push_back(roundPlan(paper, args.seed, c));
      roundRequests += plans.back().size();
    }
  }
  Answers answers;

  // Handles one response: status, epoch -> database state, every row.
  const auto absorb = [&](const Query& q, const http::Response& response) {
    if (response.statusCode != 200) {
      answers.error("query answered " + std::to_string(response.statusCode) +
                    ": " + response.body);
      return false;
    }
    const auto body = Json::parse(response.body);
    const auto* epoch = body ? body->find("epoch") : nullptr;
    const auto* rows = body ? body->find("results") : nullptr;
    if (epoch == nullptr || !epoch->asNumber() || rows == nullptr ||
        !rows->asArray() || rows->asArray()->size() != q.urls.size() ||
        *epoch->asNumber() > static_cast<double>(std::size(kEdits))) {
      answers.error("malformed query response: " + response.body);
      return false;
    }
    const auto state = static_cast<std::size_t>(*epoch->asNumber());
    for (std::size_t i = 0; i < q.urls.size(); ++i) {
      const auto& row = (*rows->asArray())[i];
      const auto* verdict = row.find("verdict");
      const auto* product = row.find("product");
      std::string answer =
          verdict && verdict->asString() ? *verdict->asString() : "?";
      if (product && product->asString()) answer += "/" + *product->asString();
      answers.add({state, q.vantage, q.date, q.urls[i]}, answer);
    }
    return true;
  };

  Trace trace;
  Trace* tracer = args.trace ? &trace : nullptr;
  std::vector<std::vector<double>> latencies(kConnections),
      tracedLatencies(kConnections);
  // Wire bytes captured for the per-layer http/json replays.
  std::vector<std::string> wires, bodies;
  std::mutex captureMutex;
  std::atomic<bool> broken{false};
  std::uint64_t shed = 0;

  // One round: a fresh server and loop (built before the clock starts),
  // then every connection sends its plan once, side by side. A fresh server
  // keeps the work of a round the same all run long: the snapshot's overlay
  // gains an entry with every recategorization and is replayed by every
  // capture and materialize, so on one long-lived server it would grow by
  // two entries a round.
  const auto runRound = [&](Trace* t, bool traced, bool capture) {
    serve::CampaignServer server(config);
    server.addSnapshot("paper", base);
    serve::ServerLoop loop(server);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kConnections; ++c) {
      clients.emplace_back([&, c] {
        auto connection = loop.connect();
        for (const auto& step : plans[c]) {
          if (broken) return;
          if (step.edit >= 0) {
            const auto t0 = Clock::now();
            const auto response =
                connection->roundTrip(editRequest(kEdits[step.edit]));
            if (t != nullptr)
              t->record("serve.recategorize", t0, Clock::now());
            if (!response.ok() || response.value().statusCode != 200) {
              answers.error("recategorize failed");
              broken = true;
            }
            continue;
          }
          auto request = queryRequest(step.query);
          if (capture && c == 0) {
            std::lock_guard<std::mutex> lock(captureMutex);
            auto wire = request;
            wire.headers.set("Host", wire.url.host());
            wire.headers.set("Content-Length",
                             std::to_string(wire.body.size()));
            wires.push_back(http::serialize(wire));
          }
          const auto t0 = Clock::now();
          util::Expected<http::Response> response =
              util::Expected<http::Response>::failure("unsent");
          {
            Trace::Scope span(traced ? t : nullptr, "serve.round_trip");
            response = connection->roundTrip(std::move(request));
          }
          (traced ? tracedLatencies : latencies)[c].push_back(msSince(t0));
          if (!response.ok()) answers.error(response.error());
          if (!response.ok() || !absorb(step.query, response.value())) {
            broken = true;
            return;
          }
          if (capture && c == 0) {
            std::lock_guard<std::mutex> lock(captureMutex);
            wires.push_back(http::serialize(response.value()));
            bodies.push_back(response.value().body);
          }
        }
      });
    }
    for (auto& client : clients) client.join();
    const auto stats = server.stats();
    loop.stop();
    shed += stats.admission.shed;
    if (t != nullptr) {
      t->count("serve.memo_hits", static_cast<double>(stats.memo.hits));
      t->count("serve.memo_misses", static_cast<double>(stats.memo.misses));
      t->count("serve.pooled_worlds",
               static_cast<double>(stats.pooledWorlds));
    }
  };

  // No warm-up round: one round's wall time follows its slowest round
  // trips and world builds (a warm-up round took 0.06-0.6 s in runs whose
  // median round trip was 0.15-0.36 ms), and a set-up holding one would
  // follow them too; the first timed round's cold misses are a few of a
  // run's 10^4 round trips and leave the median where it is.
  const double setupS = msSince(args.processStart) / 1000.0;

  const auto begin = Clock::now();
  for (int round = 0; msSince(begin) < args.seconds * 1000.0 && !broken;
       ++round) {
    // Traced runs trace every other round: overhead = the difference.
    runRound(tracer, tracer != nullptr && round % 2 == 1,
             tracer != nullptr && round == 0);
    result.attempted += roundRequests;
  }
  // Before the checks below, which build worlds of their own.
  const double peakMb = peakRssMb();
  for (const auto& error : answers.errors()) result.fail(error);

  std::vector<double> all, allTraced;
  for (std::size_t c = 0; c < kConnections; ++c) {
    all.insert(all.end(), latencies[c].begin(), latencies[c].end());
    allTraced.insert(allTraced.end(), tracedLatencies[c].begin(),
                     tracedLatencies[c].end());
  }
  if (shed != 0) result.fail(std::to_string(shed) + " sessions shed");

  // Every distinct answer against a standalone client on a fresh world
  // built with the same database state.
  std::map<std::pair<std::size_t, std::string>,
           std::vector<std::tuple<std::string, std::string, std::string>>>
      byWorld;
  for (const auto& [key, answer] : answers.answers()) {
    const auto& [state, vantage, date, url] = key;
    byWorld[{state, date}].emplace_back(vantage, url, answer);
  }
  for (const auto& [world, rows] : byWorld) {
    serve::SnapshotSpec spec;
    spec.name = "paper";
    spec.options = base;
    for (std::size_t e = 0; e < world.first; ++e)
      spec.overlay.push_back({filters::ProductKind::kSmartFilter,
                              kEdits[e].host, kEdits[e].category});
    auto paper = serve::SnapshotSpec::materialize(spec);
    const auto date = scenarios::parseCivilDate(world.second);
    scenarios::advanceClockTo(paper->world(), *date);
    auto* lab = paper->world().findVantage("lab-toronto");
    for (const auto& [vantage, url, answer] : rows) {
      measure::Client client(paper->world(),
                             *paper->world().findVantage(vantage), *lab);
      const auto expected = answerOf(client.testUrl(url));
      if (expected != answer)
        result.fail("server answered " + url + " at " + vantage + " on " +
                    world.second + " (" + std::to_string(world.first) +
                    " edits) " + answer + ", a fresh world says " + expected);
    }
  }

  if (!args.trace) {
    result.set("setup_s", setupS, "s");
    result.set("op_ms", median(all), "ms");
    result.set("peak_rss_mb", peakMb, "MB");
    return result;
  }

  // Per-layer replays on the captured traffic and the server's entry points.
  for (const auto& wire : wires) {
    const auto t0 = Clock::now();
    const auto frame = http::messageFrame(wire);
    const std::string_view message(wire.data(), frame.size);
    const bool ok = wire.rfind("HTTP/", 0) == 0
                        ? http::parseResponse(message).has_value()
                        : http::parseRequest(message).has_value();
    trace.record("http.frame", t0, Clock::now());
    if (frame.state != http::Frame::State::kComplete || !ok)
      result.fail("captured wire message does not frame and parse");
  }
  for (const auto& body : bodies) {
    const auto t0 = Clock::now();
    const auto parsed = Json::parse(body);
    const auto text = parsed ? parsed->dump() : std::string();
    trace.record("report.json", t0, Clock::now());
    if (text.empty()) result.fail("captured body does not parse");
  }
  {
    serve::CampaignServer fresh(config);
    fresh.addSnapshot("paper", base);
    std::size_t submitted = 0;
    for (const auto& step : plans[0]) {
      if (submitted == 200) break;
      if (step.edit >= 0) continue;  // the query sessions only
      ++submitted;
      std::promise<http::Response> done;
      auto future = done.get_future();
      const auto t0 = Clock::now();
      fresh.submit(queryRequest(step.query),
                   [&done](http::Response r) { done.set_value(std::move(r)); });
      const auto response = future.get();
      trace.record("serve.submit", t0, Clock::now());
      if (response.statusCode != 200) result.fail("submit answered non-200");
    }
    fresh.drain();
    const auto spec = fresh.findSnapshot("paper")->capture();
    for (int i = 0; i < 50; ++i) {
      const auto t0 = Clock::now();
      const auto world = serve::SnapshotSpec::materialize(spec);
      trace.record("serve.materialize", t0, Clock::now());
    }
  }
  setMedian(result, "http.frame_us", trace.durations("http.frame", 1e-3), "us");
  setMedian(result, "report.json_us", trace.durations("report.json", 1e-3),
            "us");
  setMedian(result, "serve.submit_ms", trace.durations("serve.submit", 1.0),
            "ms");
  setMedian(result, "serve.materialize_ms",
            trace.durations("serve.materialize", 1.0), "ms");
  setMedian(result, "serve.recategorize_ms",
            trace.durations("serve.recategorize", 1.0), "ms");
  for (const char* name :
       {"serve.memo_hits", "serve.memo_misses", "serve.pooled_worlds"})
    setMedian(result, name, trace.counts(name), "count");
  result.set("trace.overhead_ms", median(allTraced) - median(all), "ms");
  return result;
}

}  // namespace perfbench
