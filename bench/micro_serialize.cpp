// Micro-benchmarks for the serialization and matching layers: JSON
// dump/parse, base64, CSV, regex matchers, and time-filtered category
// lookups (google-benchmark).
#include <benchmark/benchmark.h>

#include "filters/category_db.h"
#include "fingerprint/matcher.h"
#include "report/csv.h"
#include "report/json.h"
#include "scan/serialize.h"
#include "scenarios/paper_world.h"
#include "util/base64.h"

namespace {

using namespace urlf;

void BM_JsonDump(benchmark::State& state) {
  report::Json doc = report::Json::object();
  for (int i = 0; i < state.range(0); ++i) {
    report::Json item = report::Json::object();
    item["index"] = report::Json::number(std::int64_t{i});
    item["name"] = report::Json::string("installation-" + std::to_string(i));
    item["country"] = report::Json::string("AE");
    doc["key" + std::to_string(i)] = std::move(item);
  }
  for (auto _ : state) {
    auto text = doc.dump();
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_JsonDump)->Arg(10)->Arg(100)->Arg(1000);

void BM_JsonParse(benchmark::State& state) {
  report::Json doc = report::Json::object();
  for (int i = 0; i < state.range(0); ++i)
    doc["key" + std::to_string(i)] =
        report::Json::string("value with \"escapes\" and text " +
                             std::to_string(i));
  const std::string text = doc.dump();
  for (auto _ : state) {
    auto parsed = report::Json::parse(text);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_JsonParse)->Arg(10)->Arg(100)->Arg(1000);

void BM_Base64Roundtrip(benchmark::State& state) {
  std::string data(static_cast<std::size_t>(state.range(0)), '\xAB');
  for (auto _ : state) {
    auto decoded = util::base64Decode(util::base64Encode(data));
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_Base64Roundtrip)->Arg(64)->Arg(1024)->Arg(16384);

void BM_CsvDocument(benchmark::State& state) {
  std::vector<std::vector<std::string>> rows(
      static_cast<std::size_t>(state.range(0)),
      {"McAfee SmartFilter", "Saudi Arabia, KSA", "5/5", "\"confirmed\""});
  for (auto _ : state) {
    auto doc = report::csvDocument({"product", "where", "blocked", "verdict"},
                                   rows);
    benchmark::DoNotOptimize(doc);
  }
}
BENCHMARK(BM_CsvDocument)->Arg(10)->Arg(1000);

void BM_RegexMatcher(benchmark::State& state) {
  const auto matcher =
      fingerprint::Matcher::headerRegex("Via", R"(McAfee Web Gateway [\d.]+)");
  fingerprint::Observation obs;
  obs.headers.add("Via", "1.1 mwg.local (McAfee Web Gateway 7.2.0.9)");
  for (auto _ : state) {
    auto match = matcher.match(obs);
    benchmark::DoNotOptimize(match);
  }
}
BENCHMARK(BM_RegexMatcher);

void BM_SubstringMatcher(benchmark::State& state) {
  const auto matcher =
      fingerprint::Matcher::headerContains("Via", "McAfee Web Gateway");
  fingerprint::Observation obs;
  obs.headers.add("Via", "1.1 mwg.local (McAfee Web Gateway 7.2.0.9)");
  for (auto _ : state) {
    auto match = matcher.match(obs);
    benchmark::DoNotOptimize(match);
  }
}
BENCHMARK(BM_SubstringMatcher);

void BM_CategorizeAsOf(benchmark::State& state) {
  filters::CategoryDatabase db;
  for (int i = 0; i < state.range(0); ++i)
    db.addHost("host" + std::to_string(i) + ".example", i % 40 + 1,
               util::SimTime{i});
  const auto url = net::Url::parse("http://host7.example/page").value();
  for (auto _ : state) {
    auto categories = db.categorizeAsOf(url, util::SimTime{1000000});
    benchmark::DoNotOptimize(categories);
  }
}
BENCHMARK(BM_CategorizeAsOf)->Arg(1000)->Arg(100000);

void BM_ScanExport(benchmark::State& state) {
  scenarios::PaperWorld paper;
  const auto geo = paper.world().buildGeoDatabase();
  const auto records = scan::crawlStream(paper.world(), geo).fetchAllRecords();
  for (auto _ : state) {
    auto text = scan::exportRecords(records);
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_ScanExport)->Unit(benchmark::kMicrosecond);

void BM_ScanImport(benchmark::State& state) {
  scenarios::PaperWorld paper;
  const auto geo = paper.world().buildGeoDatabase();
  const auto text = scan::exportRecords(
      scan::crawlStream(paper.world(), geo).fetchAllRecords());
  for (auto _ : state) {
    auto records = scan::importRecords(text);
    benchmark::DoNotOptimize(records);
  }
}
BENCHMARK(BM_ScanImport)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
