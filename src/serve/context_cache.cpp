#include "serve/context_cache.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "support/require.hpp"

namespace slim::serve {

namespace {

std::string readFileBytes(const std::string& path, const char* what) {
  std::ifstream in(path, std::ios::binary);
  SLIM_REQUIRE(in.good(),
               std::string("cannot open ") + what + " '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

ContextCache::ContextCache(std::size_t maxEntries)
    : maxEntries_(std::max<std::size_t>(1, maxEntries)) {}

std::shared_ptr<const core::AnalysisContext> ContextCache::acquire(
    const std::string& seqfile, const core::Config& config,
    const core::FitOptions& fit) {
  // Hash the *bytes* of both inputs before touching the cache: an on-disk
  // edit must always be a different key.
  const std::uint64_t alignmentHash =
      fnv1a(readFileBytes(seqfile, "sequence file"));
  const std::uint64_t treeHash =
      fnv1a(readFileBytes(config.treefile, "tree file"));

  support::MutexLock lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->alignmentHash == alignmentHash && it->treeHash == treeHash &&
        it->engine == config.engine &&
        it->frequencyModel == fit.frequencyModel &&
        it->stopCodonsAsMissing == config.stopCodonsAsMissing) {
      ++stats_.hits;
      std::rotate(it, it + 1, entries_.end());
      return entries_.back().prototype->withOptions(fit);
    }
  }

  ++stats_.misses;
  // Cold build.  Parsing under the lock serializes concurrent cold starts;
  // acceptable at job-submission rates, and it guarantees two jobs racing on
  // a new gene share one entry instead of building two.
  Entry entry;
  entry.alignmentHash = alignmentHash;
  entry.treeHash = treeHash;
  entry.engine = config.engine;
  entry.frequencyModel = fit.frequencyModel;
  entry.stopCodonsAsMissing = config.stopCodonsAsMissing;
  entry.prototype = core::AnalysisContext::create(
      core::loadAlignmentFile(seqfile, config.stopCodonsAsMissing),
      std::make_shared<const tree::Tree>(core::loadTreeFile(config.treefile)),
      config.engine, fit);
  if (entries_.size() >= maxEntries_) entries_.erase(entries_.begin());
  entries_.push_back(std::move(entry));
  return entries_.back().prototype->withOptions(fit);
}

ContextCacheStats ContextCache::stats() const {
  support::MutexLock lock(mutex_);
  ContextCacheStats s = stats_;
  s.entries = entries_.size();
  return s;
}

}  // namespace slim::serve
