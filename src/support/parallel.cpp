#include "support/parallel.hpp"

#include <string>
#include <system_error>

namespace slim::support {

// Out of line so the inline constructor stays the size of its success path:
// growing it changes GCC's inlining in the likelihood kernels that include
// this header.  The started workers wait on wake_, which unwinding would
// destroy, so they are stopped and joined before the rethrow.
void ThreadPool::abandonStart(int numThreads) {
  stopWorkers();
  try {
    throw;
  } catch (const std::system_error& e) {
    throw std::system_error(e.code(), "cannot start a pool of " +
                                          std::to_string(numThreads) +
                                          " threads");
  }
}

}  // namespace slim::support
