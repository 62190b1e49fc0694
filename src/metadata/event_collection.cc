#include "metadata/event_collection.h"

#include <algorithm>

#include "common/strings.h"

namespace dievent {

EventStats ComputeEventStats(const MetadataRepository& repo) {
  EventStats stats;
  const EventContext& ctx = repo.context();
  stats.event_id = ctx.event_id;
  stats.location = ctx.location;
  stats.occasion = ctx.occasion;
  stats.participants = ctx.num_participants;
  stats.frames = static_cast<int>(repo.lookat_records().size());
  const double fps = repo.fps() > 0 ? repo.fps() : 1.0;
  stats.duration_s = stats.frames / fps;

  for (const OverallEmotionRecord& r : repo.overall_records()) {
    stats.mean_overall_happiness += r.overall_happiness;
    stats.mean_valence += r.mean_valence;
  }
  if (!repo.overall_records().empty()) {
    stats.mean_overall_happiness /=
        static_cast<double>(repo.overall_records().size());
    stats.mean_valence /=
        static_cast<double>(repo.overall_records().size());
  }

  for (const EyeContactEpisode& ep : repo.EyeContactEpisodes(2, 1)) {
    stats.eye_contact_s += ep.Length() / fps;
  }

  LookAtSummary summary = repo.Summarize();
  if (summary.size() > 0) {
    int dom = summary.DominantParticipant();
    stats.dominant =
        dom < static_cast<int>(ctx.participant_names.size())
            ? ctx.participant_names[dom]
            : StrFormat("P%d", dom + 1);
  }
  return stats;
}

std::vector<EventStats> EventCollection::RankedBySatisfaction() const {
  std::vector<EventStats> ranked = events_;
  std::sort(ranked.begin(), ranked.end(),
            [](const EventStats& a, const EventStats& b) {
              return a.mean_valence > b.mean_valence;
            });
  return ranked;
}

std::string EventCollection::ComparisonTable() const {
  std::string out = StrFormat(
      "%-18s %-8s %-10s %-10s %-10s %-10s %-8s\n", "event", "guests",
      "dur(s)", "happy", "valence", "ec(s)", "dominant");
  for (const EventStats& e : RankedBySatisfaction()) {
    out += StrFormat("%-18s %-8d %-10.1f %-10.2f %-+10.2f %-10.1f %-8s\n",
                     e.event_id.c_str(), e.participants, e.duration_s,
                     e.mean_overall_happiness, e.mean_valence,
                     e.eye_contact_s, e.dominant.c_str());
  }
  return out;
}

}  // namespace dievent
