// Concurrency battery for the resident campaign server (DESIGN.md §4.6).
// The core contract: N tenants running full paper campaigns at once over a
// shared snapshot must each produce a report digest byte-identical to a
// solo runPaperCampaign — shared verdict store, world pooling and admission
// control may change timing and cost, never results.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "http/message.h"
#include "report/json.h"
#include "scenarios/campaign.h"
#include "serve/channel.h"
#include "serve/loop.h"
#include "serve/server.h"

namespace {

using namespace urlf;
using report::Json;

http::Request post(const std::string& path, const Json& body) {
  http::Request request;
  request.method = "POST";
  request.url = *net::Url::parse("http://campaigns.sim" + path);
  request.headers.set("Content-Type", "application/json");
  request.body = body.dump();
  return request;
}

http::Request get(const std::string& path) {
  http::Request request;
  request.method = "GET";
  request.url = *net::Url::parse("http://campaigns.sim" + path);
  return request;
}

Json campaignBody(const std::string& snapshot, std::size_t classifyThreads = 0) {
  Json body = Json::object();
  body["kind"] = Json::string("campaign");
  body["snapshot"] = Json::string(snapshot);
  if (classifyThreads != 0)
    body["classify_threads"] =
        Json::number(static_cast<std::int64_t>(classifyThreads));
  return body;
}

std::string digestOf(const http::Response& response) {
  const auto body = Json::parse(response.body);
  if (!body) return "<unparseable>";
  const auto* digest = body->find("digest");
  if (digest == nullptr || !digest->asString()) return "<missing>";
  return *digest->asString();
}

/// The ground truth every server-run campaign must reproduce.
std::string soloDigest() {
  static const std::string digest = [] {
    return scenarios::runPaperCampaign(scenarios::CampaignOptions{}).digestHex();
  }();
  return digest;
}

TEST(CampaignServerTest, SingleSessionMatchesSoloDigest) {
  serve::CampaignServer server({.workers = 2});
  server.addSnapshot("paper");

  const auto response = server.handle(post("/v1/session", campaignBody("paper")));
  ASSERT_EQ(response.statusCode, 200) << response.body;
  EXPECT_EQ(digestOf(response), soloDigest());

  const auto stats = server.stats();
  EXPECT_EQ(stats.campaignsCompleted, 1u);
  EXPECT_EQ(stats.admission.completed, 1u);
}

TEST(CampaignServerTest, UnknownSnapshotIs404) {
  serve::CampaignServer server({.workers = 1});
  const auto response =
      server.handle(post("/v1/session", campaignBody("nope")));
  EXPECT_EQ(response.statusCode, 404);
  EXPECT_EQ(server.stats().badRequests, 1u);
}

/// K identical concurrent campaigns at a given worker count: every digest
/// must equal the solo run's, regardless of interleaving.
void runConcurrentBattery(std::size_t workers, std::size_t sessions) {
  serve::CampaignServer server({.workers = workers, .maxQueued = sessions});
  server.addSnapshot("paper");

  std::vector<std::promise<http::Response>> slots(sessions);
  std::vector<std::future<http::Response>> futures;
  futures.reserve(sessions);
  for (auto& slot : slots) futures.push_back(slot.get_future());

  for (std::size_t i = 0; i < sessions; ++i) {
    server.submit(post("/v1/session", campaignBody("paper")),
                  [&slot = slots[i]](http::Response response) {
                    slot.set_value(std::move(response));
                  });
  }

  for (std::size_t i = 0; i < sessions; ++i) {
    const auto response = futures[i].get();
    ASSERT_EQ(response.statusCode, 200) << response.body;
    EXPECT_EQ(digestOf(response), soloDigest())
        << "session " << i << " of " << sessions << " at workers=" << workers;
  }
  server.drain();

  const auto stats = server.stats();
  EXPECT_EQ(stats.campaignsCompleted, sessions);
  EXPECT_EQ(stats.admission.shed, 0u);
  EXPECT_EQ(stats.admission.completed, sessions);
  // Identical sessions share one verdict scope, so the battery must have
  // populated the cross-session store.
  EXPECT_GT(stats.memo.inserts, 0u);
}

TEST(CampaignServerTest, ConcurrentCampaignsSingleWorker) {
  runConcurrentBattery(/*workers=*/1, /*sessions=*/3);
}

TEST(CampaignServerTest, ConcurrentCampaignsFourWorkers) {
  runConcurrentBattery(/*workers=*/4, /*sessions=*/4);
}

TEST(CampaignServerTest, BackToBackSessionsHitSharedStore) {
  serve::CampaignServer server({.workers = 1});
  server.addSnapshot("paper");

  const auto first = server.handle(post("/v1/session", campaignBody("paper")));
  ASSERT_EQ(first.statusCode, 200);
  const auto afterFirst = server.stats().memo;
  EXPECT_GT(afterFirst.inserts, 0u);

  // The second identical session replays the same deterministic fetch
  // sequence, so every safe-chain verdict the first inserted is a hit now —
  // and the digest must not move an inch.
  const auto second = server.handle(post("/v1/session", campaignBody("paper")));
  ASSERT_EQ(second.statusCode, 200);
  EXPECT_EQ(digestOf(second), soloDigest());
  const auto afterSecond = server.stats().memo;
  EXPECT_GT(afterSecond.hits, afterFirst.hits);
}

TEST(CampaignServerTest, SharingDisabledStillMatchesDigest) {
  serve::CampaignServer server({.workers = 2, .shareVerdicts = false});
  server.addSnapshot("paper");
  const auto response = server.handle(post("/v1/session", campaignBody("paper")));
  ASSERT_EQ(response.statusCode, 200);
  EXPECT_EQ(digestOf(response), soloDigest());
  EXPECT_EQ(server.stats().memo.inserts, 0u);
}

TEST(CampaignServerTest, StaggeredStartsInterleaveWithoutPerturbation) {
  serve::CampaignServer server(
      {.workers = 4, .maxQueued = 8, .classifyThreads = 1});
  server.addSnapshot("paper");

  constexpr std::size_t kSessions = 6;
  const std::size_t classifyChoices[] = {1, 2, 4};

  std::vector<std::promise<http::Response>> slots(kSessions);
  std::vector<std::future<http::Response>> futures;
  futures.reserve(kSessions);
  for (auto& slot : slots) futures.push_back(slot.get_future());

  // Three client threads, staggered, each submitting two sessions with a
  // different classify-thread fan-out — a deliberately messy interleaving.
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5 * c));
      for (std::size_t j = 0; j < 2; ++j) {
        const std::size_t i = c * 2 + j;
        server.submit(
            post("/v1/session",
                 campaignBody("paper", classifyChoices[(i + c) % 3])),
            [&slot = slots[i]](http::Response response) {
              slot.set_value(std::move(response));
            });
      }
    });
  }
  for (auto& client : clients) client.join();

  for (std::size_t i = 0; i < kSessions; ++i) {
    const auto response = futures[i].get();
    ASSERT_EQ(response.statusCode, 200) << response.body;
    EXPECT_EQ(digestOf(response), soloDigest()) << "staggered session " << i;
  }
  server.drain();
  EXPECT_EQ(server.stats().campaignsCompleted, kSessions);
}

TEST(CampaignServerTest, LoopCarriesSessionsOverWireFormat) {
  serve::CampaignServer server({.workers = 2, .maxQueued = 4});
  server.addSnapshot("paper");
  serve::ServerLoop loop(server);

  auto alpha = loop.connect();
  auto beta = loop.connect();
  ASSERT_EQ(loop.connectionCount(), 2u);

  // Fire both campaigns before awaiting either: the loop dispatches them to
  // worker threads, so the two sessions overlap on the wire.
  alpha->sendRequest(post("/v1/session", campaignBody("paper")));
  beta->sendRequest(post("/v1/session", campaignBody("paper")));

  const auto fromAlpha = alpha->awaitResponse();
  const auto fromBeta = beta->awaitResponse();
  ASSERT_TRUE(fromAlpha.ok()) << fromAlpha.error();
  ASSERT_TRUE(fromBeta.ok()) << fromBeta.error();
  ASSERT_EQ(fromAlpha.value().statusCode, 200) << fromAlpha.value().body;
  ASSERT_EQ(fromBeta.value().statusCode, 200) << fromBeta.value().body;
  EXPECT_EQ(digestOf(fromAlpha.value()), soloDigest());
  EXPECT_EQ(digestOf(fromBeta.value()), soloDigest());

  // Status rides the same connection after the sessions.
  const auto status = alpha->roundTrip(get("/v1/status"));
  ASSERT_TRUE(status.ok()) << status.error();
  ASSERT_EQ(status.value().statusCode, 200);
  const auto body = Json::parse(status.value().body);
  ASSERT_TRUE(body.has_value());
  const auto* completed = body->find("campaigns_completed");
  ASSERT_NE(completed, nullptr);
  ASSERT_TRUE(completed->asNumber());
  EXPECT_EQ(static_cast<int>(*completed->asNumber()), 2);

  loop.stop();
  EXPECT_EQ(loop.connectionCount(), 0u);
}

TEST(CampaignServerTest, DeeplyNestedSessionBodyIsRejectedAndServerServesOn) {
  serve::CampaignServer server({.workers = 2, .maxQueued = 4});
  server.addSnapshot("paper");
  serve::ServerLoop loop(server);
  auto client = loop.connect();

  // 400 KB of "[[[…]]]": 200k levels, far past Json::kMaxDepth. Parsing it
  // must fail with a one-line reason, not exhaust the worker's stack.
  http::Request hostile;
  hostile.method = "POST";
  hostile.url = *net::Url::parse("http://campaigns.sim/v1/session");
  hostile.headers.set("Content-Type", "application/json");
  hostile.body = std::string(200000, '[') + std::string(200000, ']');
  const auto rejected = client->roundTrip(hostile);
  ASSERT_TRUE(rejected.ok()) << rejected.error();
  EXPECT_EQ(rejected.value().statusCode, 400);
  const auto error = Json::parse(rejected.value().body);
  ASSERT_TRUE(error.has_value());
  const auto* message = error->find("error");
  ASSERT_TRUE(message != nullptr && message->asString());
  EXPECT_NE(message->asString()->find("nesting deeper than"), std::string::npos)
      << *message->asString();
  EXPECT_EQ(message->asString()->find('\n'), std::string::npos);

  // The same connection keeps working.
  const auto status = client->roundTrip(get("/v1/status"));
  ASSERT_TRUE(status.ok()) << status.error();
  EXPECT_EQ(status.value().statusCode, 200);
  loop.stop();
}

}  // namespace
