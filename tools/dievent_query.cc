/// \file dievent_query.cc
/// Runs a cross-event query against a sharded event corpus:
///
///   dievent_query corpus/ 'events where occasion = "birthday" : ec(P1,P2)'
///   dievent_query --scenes corpus/ 'events : oh >= 0.5'
///   dievent_query --list corpus/
///
/// Exit codes:
///   0  query ran and matched at least one frame (or --list succeeded)
///   1  query ran but nothing matched
///   2  usage error, missing corpus directory, unparsable query, or a
///      damaged corpus

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "io/file.h"
#include "metadata/corpus.h"
#include "metadata/query_parser.h"

namespace {

int ListShards(const dievent::EventCorpus& corpus) {
  const auto shards = corpus.shards();
  for (const auto& entry : shards) {
    std::printf("%-24s dir=%s records=%llu participants=%d",
                entry.event_id.c_str(), entry.dir.c_str(),
                static_cast<unsigned long long>(entry.records),
                entry.max_lookat_n);
    if (entry.time_bounds) {
      std::printf(" time=[%.3f,%.3f]", entry.time_bounds->first,
                  entry.time_bounds->second);
    }
    if (!entry.context.location.empty()) {
      std::printf(" venue=\"%s\"", entry.context.location.c_str());
    }
    if (!entry.context.occasion.empty()) {
      std::printf(" occasion=\"%s\"", entry.context.occasion.c_str());
    }
    std::printf("\n");
  }
  std::printf("%zu sealed shard(s)\n", shards.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool list = false;
  dievent::CorpusQueryOptions query_options;
  int threads = 0;
  int max_frames = 5;
  std::string dir;
  std::vector<std::string> words;

  dievent::FlagParser flags(
      "dievent_query",
      "Evaluates the query (the words after <corpus-dir>) over a corpus.\n"
      "Query grammar: events [where <scope>] [: <frame terms>]\n"
      "  scope:  event/venue/occasion/date = \"...\", participants >= N\n"
      "  frame:  ec(P1,P2), look(P1,P2), watched(P1), feel(P1,happy),\n"
      "          time[a,b), oh >= x, valence >= x; joined with '&'");
  flags.Bool("list", &list, "list sealed shards and exit (no query)");
  flags.Bool("scenes", &query_options.scenes,
             "also roll matches up into scenes");
  flags.Double("min-coverage", &query_options.min_coverage, 0, 1,
               "scene coverage threshold (default 0.5)");
  flags.Int("threads", &threads, 1, 256,
            "evaluate shards on N threads\n(default: serial)");
  flags.Int("max-frames", &max_frames, 1, 1 << 20,
            "frame matches printed per event\n(default 5)");
  flags.Positional("corpus-dir", &dir);
  flags.Rest("query", &words);
  flags.ParseOrExit(argc, argv);
  const std::string query_text = dievent::Join(words, " ");
  if (query_text.empty() && !list) flags.Fail("missing <query>");
  // EventCorpus::Open creates a missing directory; a query never should.
  if (!dievent::FileSystem::Default()->Exists(dir)) {
    return flags.Error(dievent::Status::NotFound("no corpus directory " + dir));
  }

  auto parsed = list ? dievent::Result<dievent::CorpusQuerySpec>(
                           dievent::CorpusQuerySpec{})
                     : dievent::ParseCorpusQuery(query_text);
  if (!parsed.ok()) return flags.Error(parsed.status());

  std::unique_ptr<dievent::ThreadPool> pool;
  dievent::CorpusOptions corpus_options;
  if (threads > 0) {
    pool = std::make_unique<dievent::ThreadPool>(threads);
    corpus_options.pool = pool.get();
  }
  auto corpus = dievent::EventCorpus::Open(dir, corpus_options);
  if (!corpus.ok()) return flags.Error(corpus.status());
  if (list) return ListShards(*corpus.value());

  auto result = corpus.value()->Query(parsed.value(), query_options);
  if (!result.ok()) return flags.Error(result.status());
  const dievent::CorpusQueryResult& out = result.value();
  std::printf("query: %s\n",
              dievent::FormatCorpusQuery(parsed.value()).c_str());
  for (const auto& event : out.events) {
    std::printf("%s: %zu frame(s)", event.event_id.c_str(),
                event.frames.size());
    if (query_options.scenes) {
      std::printf(", %zu scene(s)", event.scenes.size());
    }
    std::printf("\n");
    int printed = 0;
    for (const auto& frame : event.frames) {
      if (printed++ >= max_frames) {
        std::printf("  ... %zu more\n", event.frames.size() - max_frames);
        break;
      }
      std::printf("  frame %d @ %.3fs\n", frame.frame, frame.timestamp_s);
    }
    for (const auto& scene : event.scenes) {
      std::printf("  scene %d [%d, %d) coverage %.2f\n", scene.index,
                  scene.begin_frame, scene.end_frame, scene.coverage);
    }
  }
  std::printf(
      "%llu event(s) in scope, %llu shard(s) pruned, %llu opened, "
      "%llu total frame match(es)\n",
      static_cast<unsigned long long>(out.shards_in_scope),
      static_cast<unsigned long long>(out.shards_pruned),
      static_cast<unsigned long long>(out.shards_opened),
      static_cast<unsigned long long>(out.total_frames));
  return out.total_frames > 0 ? 0 : 1;
}
