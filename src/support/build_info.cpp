#include "support/build_info.hpp"

#include <sstream>

#include "linalg/simd.hpp"
#include "support/json.hpp"

// SLIM_GIT_DESCRIBE / SLIM_BUILD_TYPE are injected by CMake on this one
// translation unit only, so touching the git state never rebuilds the world.
#ifndef SLIM_GIT_DESCRIBE
#define SLIM_GIT_DESCRIBE "unknown"
#endif
#ifndef SLIM_BUILD_TYPE
#define SLIM_BUILD_TYPE "unknown"
#endif

namespace slim::support {

namespace {

std::string compilerId() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#elif defined(_MSC_VER)
  return "msvc " + std::to_string(_MSC_VER);
#else
  return "unknown";
#endif
}

}  // namespace

BuildInfo buildInfo() {
  BuildInfo info;
  info.gitDescribe = SLIM_GIT_DESCRIBE;
  info.compiler = compilerId();
  info.buildType = SLIM_BUILD_TYPE;
  info.simd = linalg::simdLevelName(linalg::detectSimdLevel());
  info.schemas = {
      {"serve", "slimcodeml-serve-v1"},
      {"checkpoint", "slimcodeml-checkpoint v1"},
      {"validate", "slimcodeml-validate-v1"},
      {"bench", "slimcodeml-bench-v1"},
  };
  return info;
}

std::string buildInfoLine() {
  const BuildInfo info = buildInfo();
  return "slimcodeml " + info.gitDescribe + " (" + info.compiler + ", " +
         info.buildType + ", simd=" + info.simd + ")";
}

std::string buildInfoJson() {
  const BuildInfo info = buildInfo();
  std::ostringstream os;
  os << "{\"gitDescribe\":";
  jsonString(os, info.gitDescribe);
  os << ",\"compiler\":";
  jsonString(os, info.compiler);
  os << ",\"buildType\":";
  jsonString(os, info.buildType);
  os << ",\"simd\":";
  jsonString(os, info.simd);
  os << ",\"schemas\":{";
  bool first = true;
  for (const auto& s : info.schemas) {
    if (!first) os << ',';
    first = false;
    jsonString(os, s.name);
    os << ':';
    jsonString(os, s.version);
  }
  os << "}}";
  return os.str();
}

}  // namespace slim::support
