#include "backend/compute_backend.hpp"

#include <stdexcept>
#include <string>

namespace slim::backend {

const char* backendModeName(BackendMode m) noexcept {
  switch (m) {
    case BackendMode::Auto:
      return "auto";
    case BackendMode::Reference:
      return "reference";
    case BackendMode::Simd:
      return "simd";
    case BackendMode::Blas:
      return "blas";
  }
  return "?";
}

const char* backendKindName(BackendKind k) noexcept {
  switch (k) {
    case BackendKind::Reference:
      return "reference";
    case BackendKind::Simd:
      return "simd";
    case BackendKind::Blas:
      return "blas";
  }
  return "?";
}

bool parseBackendMode(std::string_view text, BackendMode& out) noexcept {
  if (text == "auto") {
    out = BackendMode::Auto;
  } else if (text == "reference") {
    out = BackendMode::Reference;
  } else if (text == "simd") {
    out = BackendMode::Simd;
  } else if (text == "blas") {
    out = BackendMode::Blas;
  } else {
    return false;
  }
  return true;
}

bool parseBackendKind(std::string_view text, BackendKind& out) noexcept {
  if (text == "reference") {
    out = BackendKind::Reference;
  } else if (text == "simd") {
    out = BackendKind::Simd;
  } else if (text == "blas") {
    out = BackendKind::Blas;
  } else {
    return false;
  }
  return true;
}

bool backendCompiled(BackendKind k) noexcept {
  switch (k) {
    case BackendKind::Reference:
    case BackendKind::Simd:
      return true;  // The scalar table always exists; simd falls back to it.
    case BackendKind::Blas:
      return detail::blasKernelTable() != nullptr;
  }
  return false;
}

BackendKind resolveBackendKind(BackendMode mode, linalg::SimdLevel simdLevel) {
  BackendKind kind;
  switch (mode) {
    case BackendMode::Auto:
      kind = simdLevel == linalg::SimdLevel::Scalar ? BackendKind::Reference
                                                    : BackendKind::Simd;
      break;
    case BackendMode::Reference:
      kind = BackendKind::Reference;
      break;
    case BackendMode::Simd:
      kind = BackendKind::Simd;
      break;
    case BackendMode::Blas:
      kind = BackendKind::Blas;
      break;
    default:
      throw std::invalid_argument("unknown backend mode");
  }
  if (!backendCompiled(kind))
    throw std::invalid_argument(
        std::string("backend '") + backendKindName(kind) +
        "' is not available in this build" +
        (kind == BackendKind::Blas ? " (rebuild with -DSLIM_WITH_BLAS=ON)"
                                   : ""));
  return kind;
}

ComputeBackend computeBackend(BackendKind kind, linalg::SimdLevel simdLevel) {
  ComputeBackend b;
  b.kind = kind;
  b.name = backendKindName(kind);
  b.simdLevel = simdLevel;
  switch (kind) {
    case BackendKind::Reference:
      b.ops = linalg::simdKernels(linalg::SimdLevel::Scalar);
      break;
    case BackendKind::Simd:
      b.ops = linalg::simdKernels(simdLevel);
      break;
    case BackendKind::Blas: {
      const linalg::SimdKernels* table = detail::blasKernelTable();
      if (table == nullptr)
        throw std::invalid_argument(
            "backend 'blas' is not available in this build "
            "(rebuild with -DSLIM_WITH_BLAS=ON)");
      b.ops = *table;
      break;
    }
  }
  return b;
}

ComputeBackend resolveComputeBackend(linalg::Flavor flavor,
                                     BackendMode backend,
                                     linalg::SimdMode simd) {
  if (flavor == linalg::Flavor::Naive) {
    ComputeBackend b;  // labelled simd = scalar, backend = reference
    b.ops = linalg::naiveKernels();
    return b;
  }
  const linalg::SimdLevel level = linalg::resolveSimdLevel(simd);
  return computeBackend(resolveBackendKind(backend, level), level);
}

}  // namespace slim::backend
