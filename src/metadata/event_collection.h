/// \file event_collection.h
/// Cross-event analysis: a collection of analyzed dining events (each a
/// saved MetadataRepository) with aggregate statistics, ranking, and a
/// comparison table — the smart-restaurant longitudinal use case ("which
/// service, which menu, which table works").

#ifndef DIEVENT_METADATA_EVENT_COLLECTION_H_
#define DIEVENT_METADATA_EVENT_COLLECTION_H_

#include <string>
#include <vector>

#include "metadata/repository.h"

namespace dievent {

/// Aggregate statistics of one analyzed event.
struct EventStats {
  std::string event_id;
  std::string location;
  std::string occasion;
  int participants = 0;
  int frames = 0;
  double duration_s = 0;
  double mean_overall_happiness = 0;
  double mean_valence = 0;
  /// Total mutual-eye-contact time across all pairs, seconds.
  double eye_contact_s = 0;
  /// Most-watched participant's name (the dominance result).
  std::string dominant;
};

/// Computes the aggregate statistics of one repository.
EventStats ComputeEventStats(const MetadataRepository& repository);

/// An in-memory set of events for side-by-side analysis.
class EventCollection {
 public:
  /// Adds an already-loaded event.
  void Add(EventStats stats) { events_.push_back(std::move(stats)); }

  int NumEvents() const { return static_cast<int>(events_.size()); }
  const std::vector<EventStats>& events() const { return events_; }

  /// Events sorted by mean valence, best first — the satisfaction
  /// ranking a restaurant would act on.
  std::vector<EventStats> RankedBySatisfaction() const;

  /// Formats the collection as an aligned comparison table.
  std::string ComparisonTable() const;

 private:
  std::vector<EventStats> events_;
};

}  // namespace dievent

#endif  // DIEVENT_METADATA_EVENT_COLLECTION_H_
