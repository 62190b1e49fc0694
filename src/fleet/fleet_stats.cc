#include "fleet/fleet_stats.h"

#include "common/strings.h"

namespace dievent {

std::string FleetStats::ToString() const {
  std::string out = StrFormat(
      "fleet: %d job(s) | %d completed, %d parked, %d shed, %d running, "
      "%d waiting | frames %lld | latency q %.4fs (n=%lld) | retries "
      "%lld, watchdog %d, deferred %d",
      submitted, completed, parked, shed, running, waiting,
      frames_committed, frame_latency_quantile_s, latency_samples,
      retries, watchdog_interrupts, deferred_dispatches);
  if (corpus_registered > 0 || corpus_register_failures > 0) {
    out += StrFormat(" | corpus %d registered, %d failed",
                     corpus_registered, corpus_register_failures);
  }
  for (const JobStats& job : jobs) {
    out += StrFormat(
        "\n  [%d] %-16s %-6s %-9s attempts=%d frames=%lld",
        job.id, job.name.c_str(),
        std::string(JobPriorityName(job.priority)).c_str(),
        std::string(JobStateName(job.state)).c_str(), job.attempts,
        job.frames_committed);
    if (!job.watchdog_fired_at_s.empty()) {
      out += StrFormat(" watchdog=%zu", job.watchdog_fired_at_s.size());
    }
    if (!job.last_error.ok() && job.state != JobState::kCompleted) {
      out += " err=" + job.last_error.ToString();
    }
    if (!job.corpus_register_error.ok()) {
      out += " corpus_err=" + job.corpus_register_error.ToString();
    }
  }
  return out;
}

}  // namespace dievent
