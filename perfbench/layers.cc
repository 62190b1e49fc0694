/// \file layers.cc
/// The per-layer ledger every traced run prints. Each workload reports
/// the same metrics, so a layer a workload never calls reads 0 there;
/// a change to that layer should leave the workload's end-to-end
/// numbers alone. Keep this table and BENCHMARK.json's per_layer list
/// in step.

#include <cstdio>
#include <cstdlib>

#include "bench.h"

namespace perfbench {

namespace {

/// A metric taken from the median duration (or self time) of the spans
/// of one name, scaled into its unit.
struct SpanMetric {
  const char* name;
  const char* unit;
  const char* span;
  double scale;
  bool self = false;
};

const SpanMetric kSpanMetrics[] = {
    {"render.view_ms", "ms", "render.view", 1e3},
    {"video.acquire_ms", "ms", "video.acquire", 1e3, true},
    {"video.signature_ms", "ms", "video.signature", 1e3},
    {"video.parse_ms", "ms", "video.parse", 1e3},
    {"core.analyze_camera_ms", "ms", "core.analyze_camera", 1e3},
    {"ml.emotion_ms", "ms", "ml.emotion", 1e3},
    {"ml.train_s", "s", "ml.train", 1},
    {"core.commit_ms", "ms", "core.commit", 1e3},
    {"core.accuracy_us", "us", "core.accuracy", 1e6},
    {"analysis.lookat_us", "us", "analysis.lookat", 1e6},
    {"analysis.overall_emotion_us", "us", "analysis.overall_emotion", 1e6},
    {"metadata.add_us", "us", "metadata.add", 1e6},
    {"io.sync_ms", "ms", "io.sync", 1e3},
    {"io.append_us", "us", "io.append", 1e6},
    {"io.syncdir_ms", "ms", "io.syncdir", 1e3},
    {"metadata.query_ms.pruned", "ms", "metadata.query.pruned", 1e3},
    {"metadata.query_ms.scoped", "ms", "metadata.query.scoped", 1e3},
    {"metadata.query_ms.scan", "ms", "metadata.query.scan", 1e3},
    {"metadata.query_ms.scenes", "ms", "metadata.query.scenes", 1e3},
    {"metadata.parse_us", "us", "metadata.parse", 1e6},
    {"metadata.append_batch_ms", "ms", "metadata.append_batch", 1e3},
    {"metadata.seal_ms", "ms", "metadata.seal", 1e3},
};

/// Metrics a workload computes itself (ratios of counts it observed).
struct CountMetric {
  const char* name;
  const char* unit;
};

const CountMetric kCountMetrics[] = {
    {"vision.faces_per_view", "count"},
    {"ml.emotion_calls_per_frame", "count"},
    {"ledger.unattributed_share", "ratio"},
    {"trace.overhead_share", "ratio"},
    {"io.syncs_per_record", "count"},
    {"io.journal_bytes_per_record", "B"},
    {"io.snapshot_bytes_per_record", "B"},
    {"io.read_bytes_per_tenant", "B"},
    {"fleet.queue_wait_s", "s"},
    {"fleet.retries", "count"},
    {"metadata.prune_ratio", "ratio"},
    {"metadata.shards_opened_per_query", "count"},
    {"io.read_bytes_per_query", "B"},
    {"io.manifest_bytes_per_seal", "B"},
    {"io.syncs_per_seal", "count"},
};

}  // namespace

void Outcome::AddPerLayer(const SpanRecorder& rec, const LayerCounts& counts,
                          const std::string& trace_path) {
  const SpanStats stats(rec.spans());
  for (const SpanMetric& m : kSpanMetrics) {
    Add(m.name,
        m.scale * (m.self ? stats.MedianSelf(m.span)
                          : stats.MedianDuration(m.span)),
        m.unit);
  }
  size_t used = 0;
  for (const CountMetric& m : kCountMetrics) {
    auto it = counts.find(m.name);
    used += it != counts.end() ? 1 : 0;
    Add(m.name, it != counts.end() ? it->second : 0.0, m.unit);
  }
  if (used != counts.size()) {
    std::fprintf(stderr, "perfbench: a layer count has no ledger entry\n");
    std::abort();
  }
  if (!trace_path.empty() && !rec.WriteCsv(trace_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
  }
}

}  // namespace perfbench
