/// \file bad_hotpath.cc
/// Lint self-test fixture: per-frame heap allocation inside an annotated
/// hot-path region, plus the blessed per-thread scratch idioms that must
/// stay clean and the waiver escape hatch.
/// Never compiled; scanned by `dievent_lint.py --self-test`.

#include <cstdint>
#include <vector>

namespace dievent {

/// The workspace a hot leaf keeps in a function-local `thread_local`.
struct FrameScratch {
  std::vector<uint8_t> mask;
  std::vector<int32_t> stack;
};

void AnalyzeFrame(const uint8_t* pixels, size_t n) {
  thread_local FrameScratch scratch;
  // Grow-only sizing happens before the region opens.
  if (scratch.mask.size() < n) scratch.mask.resize(n);
  // lint: hot-path-begin(analyze-frame)
  std::vector<uint8_t> mask(n);  // lint-expect(hot-path-alloc)
  uint8_t* scratch_mask = scratch.mask.data();  // fine
  float* scores = new float[n];  // lint-expect(hot-path-alloc)
  std::vector<float> feats;  // lint-expect(hot-path-alloc)
  feats.resize(n);  // lint-expect(hot-path-alloc)
  // References and pointers to vectors someone else owns are fine:
  const std::vector<float>& view = feats;
  std::vector<float>* handle = &feats;
  std::vector<int32_t>& stack = scratch.stack;  // fine
  // Steady-state-stable growth may waive per line, with a reason:
  feats.resize(n);  // capacity warmed up on frame 0  // lint: allow(hot-path-alloc)
  (void)pixels;
  (void)mask;
  (void)scratch_mask;
  (void)scores;
  (void)view;
  (void)handle;
  (void)stack;
  // lint: hot-path-end
}

void OutsideRegionIsUnconstrained(size_t n) {
  // Cold paths allocate freely; the rule only fires inside regions.
  std::vector<double> history(n);
  history.resize(2 * n);
  (void)history;
}

// lint: hot-path-end  // lint-expect(hot-path-alloc)

void Unterminated() {
  // lint: hot-path-begin(leaky-region)  // lint-expect(hot-path-alloc)
}

}  // namespace dievent
