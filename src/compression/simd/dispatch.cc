#include "compression/simd/dispatch.h"

#include <cstdio>
#include <cstdlib>

#include "compression/simd/backends.h"

namespace mgcomp::simd {
namespace {

const ProbeKernels* table_for(Backend b) noexcept {
  switch (b) {
    case Backend::kScalar: return scalar_kernels();
    case Backend::kAvx2: return avx2_kernels();
    case Backend::kNeon: return neon_kernels();
  }
  return nullptr;
}

bool cpu_supports(Backend b) noexcept {
  switch (b) {
    case Backend::kScalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case Backend::kAvx2:  // the table's CRC kernel also needs PCLMULQDQ
      return __builtin_cpu_supports("avx2") != 0 && __builtin_cpu_supports("pclmul") != 0;
#endif
#if defined(__aarch64__)
    case Backend::kNeon:
      return true;  // Advanced SIMD is baseline on AArch64
#endif
    default:
      return false;
  }
}

// Selection priority when no override is given.
constexpr Backend kPreferenceOrder[] = {Backend::kAvx2, Backend::kNeon, Backend::kScalar};

struct ActiveState {
  Backend backend;
  const ProbeKernels* table;
};

ActiveState resolve_initial() noexcept {
  const Backend best = best_backend();
  Backend chosen = best;
  if (const char* env = std::getenv("MGCOMP_SIMD"); env != nullptr && *env != '\0') {
    if (const auto parsed = parse_backend(env); !parsed.has_value()) {
      std::fprintf(stderr,
                   "mgcomp: MGCOMP_SIMD=%s names no known backend; using %s\n",
                   env, backend_name(best).data());
    } else if (!backend_available(*parsed)) {
      std::fprintf(stderr,
                   "mgcomp: MGCOMP_SIMD=%s is unavailable on this build/CPU; "
                   "using %s\n",
                   env, backend_name(best).data());
    } else {
      chosen = *parsed;
    }
  }
  return ActiveState{chosen, table_for(chosen)};
}

ActiveState& active_state() noexcept {
  static ActiveState state = resolve_initial();
  return state;
}

}  // namespace

std::string_view backend_name(Backend b) noexcept {
  switch (b) {
    case Backend::kScalar: return "scalar";
    case Backend::kAvx2: return "avx2";
    case Backend::kNeon: return "neon";
  }
  return "unknown";
}

std::optional<Backend> parse_backend(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kNumBackends; ++i) {
    const auto b = static_cast<Backend>(i);
    if (name == backend_name(b)) return b;
  }
  return std::nullopt;
}

bool backend_available(Backend b) noexcept {
  return table_for(b) != nullptr && cpu_supports(b);
}

std::vector<Backend> available_backends() {
  std::vector<Backend> out;
  for (std::size_t i = 0; i < kNumBackends; ++i) {
    const auto b = static_cast<Backend>(i);
    if (backend_available(b)) out.push_back(b);
  }
  return out;
}

Backend best_backend() noexcept {
  for (const Backend b : kPreferenceOrder) {
    if (backend_available(b)) return b;
  }
  return Backend::kScalar;
}

Backend active_backend() noexcept { return active_state().backend; }

bool set_backend(Backend b) noexcept {
  if (!backend_available(b)) return false;
  active_state() = ActiveState{b, table_for(b)};
  return true;
}

bool set_backend(std::string_view name) noexcept {
  const auto parsed = parse_backend(name);
  return parsed.has_value() && set_backend(*parsed);
}

const ProbeKernels& kernels() noexcept { return *active_state().table; }

}  // namespace mgcomp::simd
