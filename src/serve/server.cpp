#include "serve/server.h"

#include <chrono>

#include "measure/client.h"
#include "measure/journal.h"
#include "util/hash.h"

namespace urlf::serve {

using measure::CampaignJournal;
using report::Json;

namespace {

/// The self-contained journal header of a server session: everything needed
/// to rebuild the exact world replica on resume — the campaign config AND
/// the snapshot overlay at capture time — so later snapshot mutations (or a
/// different resident server entirely) cannot change what resume replays.
Json serveHeader(const SnapshotSpec& spec) {
  Json header = Json::object();
  header["type"] = Json::string("serve-session");
  header["version"] = Json::number(std::int64_t{1});
  header["snapshot"] = Json::string(spec.name);
  header["epoch"] = Json::number(static_cast<std::int64_t>(spec.epoch));
  header["campaign"] = spec.options.headerJson();
  header["overlay"] = spec.overlayJson();
  return header;
}

util::Expected<SnapshotSpec> specFromHeader(const Json& header) {
  using Result = util::Expected<SnapshotSpec>;
  const auto* type = header.find("type");
  if (type == nullptr || !type->asString() ||
      *type->asString() != "serve-session")
    return Result::failure("journal is not a serve-session journal");

  SnapshotSpec spec;
  if (const auto* name = header.find("snapshot"); name && name->asString())
    spec.name = *name->asString();
  if (const auto* epoch = header.find("epoch"); epoch && epoch->asNumber())
    spec.epoch = static_cast<std::uint64_t>(*epoch->asNumber());

  const auto* campaign = header.find("campaign");
  if (campaign == nullptr)
    return Result::failure("serve-session journal has no campaign header");
  auto options = scenarios::CampaignOptions::fromHeaderJson(*campaign);
  if (!options) return Result::failure(options.error());
  spec.options = std::move(options.value());

  if (const auto* overlay = header.find("overlay")) {
    auto edits = SnapshotSpec::overlayFromJson(*overlay);
    if (!edits) return Result::failure(edits.error());
    spec.overlay = std::move(edits.value());
  }
  return spec;
}

}  // namespace

Json ServerStats::toJson() const {
  Json out = Json::object();
  out["campaigns_completed"] =
      Json::number(static_cast<std::int64_t>(campaignsCompleted));
  out["queries_completed"] =
      Json::number(static_cast<std::int64_t>(queriesCompleted));
  out["holds_completed"] =
      Json::number(static_cast<std::int64_t>(holdsCompleted));
  out["crashes"] = Json::number(static_cast<std::int64_t>(crashes));
  out["divergences"] = Json::number(static_cast<std::int64_t>(divergences));
  out["bad_requests"] = Json::number(static_cast<std::int64_t>(badRequests));

  Json adm = Json::object();
  adm["in_flight"] = Json::number(static_cast<std::int64_t>(admission.inFlight));
  adm["queued"] = Json::number(static_cast<std::int64_t>(admission.queued));
  adm["admitted"] = Json::number(static_cast<std::int64_t>(admission.admitted));
  adm["shed"] = Json::number(static_cast<std::int64_t>(admission.shed));
  adm["completed"] =
      Json::number(static_cast<std::int64_t>(admission.completed));
  out["admission"] = std::move(adm);

  Json memoJson = Json::object();
  memoJson["hits"] = Json::number(static_cast<std::int64_t>(memo.hits));
  memoJson["misses"] = Json::number(static_cast<std::int64_t>(memo.misses));
  memoJson["inserts"] = Json::number(static_cast<std::int64_t>(memo.inserts));
  memoJson["invalidated"] =
      Json::number(static_cast<std::int64_t>(memo.invalidated));
  out["verdict_store"] = std::move(memoJson);

  out["pooled_worlds"] = Json::number(static_cast<std::int64_t>(pooledWorlds));
  return out;
}

CampaignServer::CampaignServer(ServerConfig config)
    : config_(config),
      pool_(config.workers == 0 ? 1 : config.workers, /*widthForced=*/true),
      admission_(config.workers == 0 ? 1 : config.workers, config.maxQueued) {}

CampaignServer::~CampaignServer() { drain(); }

WorldSnapshot& CampaignServer::addSnapshot(std::string name,
                                           scenarios::CampaignOptions base) {
  std::lock_guard<std::mutex> lock(snapshotsMutex_);
  auto& slot = snapshots_[name];
  slot = std::make_unique<WorldSnapshot>(std::move(name), std::move(base));
  return *slot;
}

WorldSnapshot* CampaignServer::findSnapshot(const std::string& name) {
  std::lock_guard<std::mutex> lock(snapshotsMutex_);
  const auto it = snapshots_.find(name);
  return it == snapshots_.end() ? nullptr : it->second.get();
}

http::Response CampaignServer::handle(const http::Request& request) {
  const bool isSession =
      request.method == "POST" && request.url.path() == "/v1/session";
  if (!isSession) return dispatch(request);

  const auto decision = admission_.tryAdmit();
  if (decision == AdmissionController::Decision::kShed)
    return errorResponse(503, kShedMarker);
  {
    std::lock_guard<std::mutex> lock(drainMutex_);
    ++live_;
  }
  if (decision == AdmissionController::Decision::kQueue) admission_.onStart();
  http::Response response = dispatch(request);
  admission_.onComplete();
  {
    std::lock_guard<std::mutex> lock(drainMutex_);
    --live_;
  }
  drainCv_.notify_all();
  return response;
}

void CampaignServer::submit(http::Request request,
                            std::function<void(http::Response)> done) {
  const bool isSession =
      request.method == "POST" && request.url.path() == "/v1/session";
  if (!isSession) {
    done(dispatch(request));
    return;
  }

  const auto decision = admission_.tryAdmit();
  if (decision == AdmissionController::Decision::kShed) {
    done(errorResponse(503, kShedMarker));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(drainMutex_);
    ++live_;
  }
  pool_.submit([this, decision, request = std::move(request),
                done = std::move(done)]() {
    if (decision == AdmissionController::Decision::kQueue)
      admission_.onStart();
    http::Response response = dispatch(request);
    admission_.onComplete();
    {
      std::lock_guard<std::mutex> lock(drainMutex_);
      --live_;
    }
    drainCv_.notify_all();
    done(std::move(response));
  });
}

void CampaignServer::releaseHold(const std::string& token) {
  {
    std::lock_guard<std::mutex> lock(holdsMutex_);
    releasedTokens_.insert(token);
  }
  holdsCv_.notify_all();
}

void CampaignServer::drain() {
  std::unique_lock<std::mutex> lock(drainMutex_);
  drainCv_.wait(lock, [this] { return live_ == 0; });
}

ServerStats CampaignServer::stats() const {
  ServerStats out;
  {
    std::lock_guard<std::mutex> lock(statsMutex_);
    out = stats_;
  }
  out.admission = admission_.stats();
  out.memo = store_.stats();
  {
    std::lock_guard<std::mutex> lock(worldsMutex_);
    std::size_t n = 0;
    for (const auto& [scope, worlds] : worldPool_) n += worlds.size();
    out.pooledWorlds = n;
  }
  return out;
}

http::Response CampaignServer::dispatch(const http::Request& request) {
  const std::string path = std::string(request.url.path());
  if (request.method == "GET" && path == "/v1/status") return handleStatus();
  if (request.method == "GET" && path == "/v1/snapshots")
    return handleSnapshots();
  if (request.method == "POST" && path == "/v1/admin/recategorize")
    return handleRecategorize(request);
  if (request.method == "POST" && path == "/v1/admin/release")
    return handleRelease(request);
  if (request.method == "POST" && path == "/v1/session") {
    std::string why;
    const auto body = bodyJson(request, why);
    if (!body) {
      noteCompletion(400, SessionRequest::Kind::kCampaign);
      return errorResponse(400, "session body is not valid JSON: " + why);
    }
    auto session = SessionRequest::parse(*body);
    if (!session) {
      noteCompletion(400, SessionRequest::Kind::kCampaign);
      return errorResponse(400, session.error());
    }
    return runSession(session.value());
  }
  return errorResponse(404, "no such endpoint: " + request.method + " " + path);
}

http::Response CampaignServer::runSession(const SessionRequest& request) {
  http::Response response;
  switch (request.kind) {
    case SessionRequest::Kind::kCampaign:
      response = runCampaignSession(request);
      break;
    case SessionRequest::Kind::kQuery:
      response = runQuerySession(request);
      break;
    case SessionRequest::Kind::kHold:
      response = runHoldSession(request);
      break;
  }
  noteCompletion(response.statusCode, request.kind);
  return response;
}

http::Response CampaignServer::runCampaignSession(
    const SessionRequest& request) {
  SnapshotSpec spec;
  std::optional<CampaignJournal> journal;

  if (request.resume) {
    auto opened = CampaignJournal::open(request.journalPath);
    if (!opened) return errorResponse(400, opened.error());
    auto fromHeader = specFromHeader(opened.value().header());
    if (!fromHeader) return errorResponse(400, fromHeader.error());
    spec = std::move(fromHeader.value());
    journal.emplace(std::move(opened.value()));
  } else {
    WorldSnapshot* snapshot = findSnapshot(request.snapshot);
    if (snapshot == nullptr)
      return errorResponse(404, "unknown snapshot '" + request.snapshot + "'");
    spec = snapshot->capture();
    if (!request.journalPath.empty())
      journal.emplace(
          CampaignJournal::start(request.journalPath, serveHeader(spec)));
  }
  if (journal && request.crashAfter > 0)
    journal->crashAfterAppends(request.crashAfter);

  scenarios::CampaignOptions options = spec.options;
  options.classifyThreads = request.classifyThreads != 0
                                ? request.classifyThreads
                                : config_.classifyThreads;

  scenarios::CampaignRunContext run;
  run.journal = journal ? &*journal : nullptr;
  run.sharedMemo = config_.shareVerdicts ? &store_ : nullptr;
  run.memoScope = spec.scopeKey();

  try {
    auto paper = SnapshotSpec::materialize(spec);
    const auto report = scenarios::runPaperCampaign(*paper, options, run);

    Json body = report.toJson();
    body["snapshot"] = Json::string(spec.name);
    body["epoch"] = Json::number(static_cast<std::int64_t>(spec.epoch));
    if (journal) {
      body["journal_records"] =
          Json::number(static_cast<std::int64_t>(journal->recordCount()));
      body["journal_appends"] =
          Json::number(static_cast<std::int64_t>(journal->appendCount()));
      body["resumed"] = Json::boolean(request.resume);
    }
    return jsonResponse(200, body);
  } catch (const measure::SimulatedCrash& crash) {
    Json body = Json::object();
    body["error"] = Json::string("simulated-crash");
    body["detail"] = Json::string(crash.what());
    body["journal"] = Json::string(request.journalPath);
    return jsonResponse(500, body);
  } catch (const measure::JournalDivergence& divergence) {
    Json body = Json::object();
    body["error"] = Json::string("journal-divergence");
    body["detail"] = Json::string(divergence.what());
    return jsonResponse(409, body);
  } catch (const std::invalid_argument& bad) {
    return errorResponse(400, bad.what());
  }
}

http::Response CampaignServer::runQuerySession(const SessionRequest& request) {
  WorldSnapshot* snapshot = findSnapshot(request.snapshot);
  if (snapshot == nullptr)
    return errorResponse(404, "unknown snapshot '" + request.snapshot + "'");
  const SnapshotSpec spec = snapshot->capture();

  std::unique_ptr<scenarios::PaperWorld> paper;
  try {
    paper = acquireWorld(spec, *request.date);
  } catch (const std::invalid_argument& bad) {
    return errorResponse(400, bad.what());
  }
  auto& world = paper->world();
  scenarios::advanceClockTo(world, *request.date);

  auto* field = world.findVantage(request.fieldVantage);
  auto* lab = world.findVantage(request.labVantage);
  if (field == nullptr || lab == nullptr) {
    returnWorld(spec, std::move(paper));
    return errorResponse(400, "unknown vantage point");
  }

  measure::Client client(world, *field, *lab);
  client.enableVerdictMemo(true);
  client.attachSharedMemo(config_.shareVerdicts ? &store_ : nullptr,
                          spec.scopeKey());
  const std::size_t classifyThreads = request.classifyThreads != 0
                                          ? request.classifyThreads
                                          : config_.classifyThreads;
  const auto results = client.testListBatched(request.urls, classifyThreads);
  const std::uint64_t sharedHits = client.sharedMemoHits();
  returnWorld(spec, std::move(paper));

  std::string digestText;
  Json rows = Json::array();
  for (const auto& result : results) {
    Json row = Json::object();
    row["url"] = Json::string(result.url);
    row["verdict"] = Json::string(measure::toString(result.verdict));
    if (result.blockPage)
      row["product"] =
          Json::string(filters::toString(result.blockPage->product));
    rows.push(std::move(row));
    digestText += result.url;
    digestText += '=';
    digestText += measure::toString(result.verdict);
    digestText += '\n';
  }

  Json body = Json::object();
  body["snapshot"] = Json::string(spec.name);
  body["epoch"] = Json::number(static_cast<std::int64_t>(spec.epoch));
  body["vantage"] = Json::string(request.fieldVantage);
  body["date"] = Json::string(request.date->iso());
  body["results"] = std::move(rows);
  char digestHex[17];
  std::snprintf(digestHex, sizeof digestHex, "%016llx",
                static_cast<unsigned long long>(util::fnv1a64(digestText)));
  body["digest"] = Json::string(digestHex);
  body["shared_hits"] = Json::number(static_cast<std::int64_t>(sharedHits));
  return jsonResponse(200, body);
}

http::Response CampaignServer::runHoldSession(const SessionRequest& request) {
  std::unique_lock<std::mutex> lock(holdsMutex_);
  const bool released =
      holdsCv_.wait_for(lock, std::chrono::seconds(60), [&] {
        return releasedTokens_.count(request.token) > 0;
      });
  if (!released)
    return errorResponse(500, "hold '" + request.token + "' timed out");
  releasedTokens_.erase(request.token);
  lock.unlock();

  Json body = Json::object();
  body["held"] = Json::string(request.token);
  return jsonResponse(200, body);
}

http::Response CampaignServer::handleStatus() {
  return jsonResponse(200, stats().toJson());
}

http::Response CampaignServer::handleSnapshots() {
  Json list = Json::array();
  std::lock_guard<std::mutex> lock(snapshotsMutex_);
  for (const auto& [name, snapshot] : snapshots_) {
    Json entry = Json::object();
    entry["name"] = Json::string(name);
    entry["epoch"] = Json::number(static_cast<std::int64_t>(snapshot->epoch()));
    entry["overlay"] =
        Json::number(static_cast<std::int64_t>(snapshot->overlaySize()));
    list.push(std::move(entry));
  }
  Json body = Json::object();
  body["snapshots"] = std::move(list);
  return jsonResponse(200, body);
}

http::Response CampaignServer::handleRecategorize(
    const http::Request& request) {
  std::string why;
  const auto body = bodyJson(request, why);
  if (!body)
    return errorResponse(400, "recategorize body is not valid JSON: " + why);
  const auto* name = body->find("snapshot");
  if (name == nullptr || !name->asString())
    return errorResponse(400, "recategorize needs a snapshot");
  auto edit = Recategorization::fromJson(*body);
  if (!edit) return errorResponse(400, "malformed recategorization");

  WorldSnapshot* snapshot = findSnapshot(*name->asString());
  if (snapshot == nullptr)
    return errorResponse(404, "unknown snapshot '" + *name->asString() + "'");

  // The pre-edit scope retires: entries under it are unreachable by new
  // sessions (they capture the bumped epoch), so release the memory now.
  // Pooled worlds of the old generation are stale for the same reason.
  const std::uint64_t oldScope = snapshot->capture().scopeKey();
  auto epoch = snapshot->recategorize(std::move(*edit));
  if (!epoch) return errorResponse(400, epoch.error());
  store_.invalidateScope(oldScope);
  {
    std::lock_guard<std::mutex> lock(worldsMutex_);
    worldPool_.erase(oldScope);
  }

  Json out = Json::object();
  out["snapshot"] = Json::string(*name->asString());
  out["epoch"] = Json::number(static_cast<std::int64_t>(epoch.value()));
  return jsonResponse(200, out);
}

http::Response CampaignServer::handleRelease(const http::Request& request) {
  std::string why;
  const auto body = bodyJson(request, why);
  if (!body)
    return errorResponse(400, "release body is not valid JSON: " + why);
  const auto* token = body->find("token");
  if (token == nullptr || !token->asString())
    return errorResponse(400, "release needs a token");
  releaseHold(*token->asString());
  Json out = Json::object();
  out["released"] = Json::string(*token->asString());
  return jsonResponse(200, out);
}

std::unique_ptr<scenarios::PaperWorld> CampaignServer::acquireWorld(
    const SnapshotSpec& spec, const util::CivilDate& date) {
  const std::uint64_t scope = spec.scopeKey();
  const auto target = util::SimTime::fromDate(date);
  {
    std::lock_guard<std::mutex> lock(worldsMutex_);
    auto it = worldPool_.find(scope);
    if (it != worldPool_.end()) {
      auto& worlds = it->second;
      for (std::size_t i = 0; i < worlds.size(); ++i) {
        if (worlds[i]->world().now() <= target) {
          auto world = std::move(worlds[i]);
          worlds.erase(worlds.begin() + static_cast<std::ptrdiff_t>(i));
          return world;
        }
      }
    }
  }
  return SnapshotSpec::materialize(spec);
}

void CampaignServer::returnWorld(const SnapshotSpec& spec,
                                 std::unique_ptr<scenarios::PaperWorld> world) {
  constexpr std::size_t kMaxPooledPerScope = 16;
  std::lock_guard<std::mutex> lock(worldsMutex_);
  auto& worlds = worldPool_[spec.scopeKey()];
  if (worlds.size() < kMaxPooledPerScope) worlds.push_back(std::move(world));
}

void CampaignServer::noteCompletion(int statusCode,
                                    SessionRequest::Kind kind) {
  std::lock_guard<std::mutex> lock(statsMutex_);
  if (statusCode == 200) {
    switch (kind) {
      case SessionRequest::Kind::kCampaign: ++stats_.campaignsCompleted; break;
      case SessionRequest::Kind::kQuery: ++stats_.queriesCompleted; break;
      case SessionRequest::Kind::kHold: ++stats_.holdsCompleted; break;
    }
  } else if (statusCode == 500) {
    ++stats_.crashes;
  } else if (statusCode == 409) {
    ++stats_.divergences;
  } else if (statusCode >= 400) {
    ++stats_.badRequests;
  }
  (void)kind;
}

}  // namespace urlf::serve
