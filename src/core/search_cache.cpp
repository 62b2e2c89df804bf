#include "core/search_cache.hpp"

#include <sstream>
#include <utility>

#include "core/search_core.hpp"

namespace qsp {

CacheFingerprint make_cache_fingerprint(int num_qubits,
                                        const CouplingGraph* coupling,
                                        int max_controls) {
  CacheFingerprint fp;
  // The cache canonicalizes as aggressively as the device allows:
  // permutation classes where relabeling is free (complete/no coupling),
  // U(2) classes elsewhere — the same demotion rule the searchers apply.
  fp.level = effective_canonical_level(CanonicalLevel::kPU2Exact, coupling);
  std::ostringstream os;
  os << "table1-v1|w" << num_qubits << "|c" << max_controls << '|';
  if (coupling == nullptr) {
    os << "none";
  } else {
    os << coupling->fingerprint();
  }
  fp.id = os.str();
  return fp;
}

ScopedCacheProbe::ScopedCacheProbe(SearchCache* cache,
                                   const SlotState& target,
                                   const CouplingGraph* coupling,
                                   int max_controls,
                                   double max_wait_seconds,
                                   bool consult_only,
                                   std::optional<SearchAttempt> attempt)
    : cache_(cache), target_(&target) {
  if (cache_ == nullptr) return;
  fingerprint_ =
      make_cache_fingerprint(target.num_qubits(), coupling, max_controls);
  fingerprint_.attempt = std::move(attempt);
  witness_ = canonical_witness(target, fingerprint_.level);
  lookup_ = cache_->begin(target, witness_, fingerprint_, max_wait_seconds,
                          consult_only);
  open_ = lookup_.claim == SearchCache::Claim::kOwner;
}

ScopedCacheProbe::~ScopedCacheProbe() {
  if (open_) cache_->end(*target_, witness_, fingerprint_, nullptr);
}

SynthesisResult ScopedCacheProbe::result(std::int64_t cost_bound) const {
  if (lookup_.result->found && lookup_.result->cnot_cost >= cost_bound) {
    SynthesisResult dropped;
    dropped.stats = lookup_.result->stats;
    return dropped;
  }
  return *lookup_.result;
}

void ScopedCacheProbe::publish(const SynthesisResult& result) {
  if (!open_) return;
  open_ = false;
  cache_->end(*target_, witness_, fingerprint_, &result);
}

}  // namespace qsp
