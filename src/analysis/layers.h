/// \file layers.h
/// The time-invariant layer of the paper's multilayer information model
/// (Section II-D): context (location, menu, date, occasion, participants,
/// social relations). The time-variant layers sampled per frame (look-at
/// matrices, emotions) are the metadata repository's per-frame records.

#ifndef DIEVENT_ANALYSIS_LAYERS_H_
#define DIEVENT_ANALYSIS_LAYERS_H_

#include <string>
#include <vector>

namespace dievent {

/// A declared social relation between two participants (friend, couple,
/// colleague, family, ...), part of the collected external information.
struct SocialRelation {
  int a = -1;
  int b = -1;
  std::string relation;
};

/// Time-invariant information layer: everything about the event that does
/// not depend on the video clock.
struct EventContext {
  std::string event_id;
  std::string location;         ///< e.g. "IRIT meeting room 12"
  std::string date;             ///< ISO date of the recording
  std::string occasion;         ///< e.g. "team dinner", "menu tasting"
  std::vector<std::string> menu;
  double temperature_c = 20.0;
  int num_participants = 0;     ///< the paper's externally-given n
  std::vector<std::string> participant_names;
  std::vector<SocialRelation> relations;
};

}  // namespace dievent

#endif  // DIEVENT_ANALYSIS_LAYERS_H_
