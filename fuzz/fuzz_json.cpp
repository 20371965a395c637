// Fuzz target: support::parseJson (RFC 8259 parser used by the serve
// protocol, the daemon journal and the client's replies).  Contract under
// hostile bytes: parse successfully or throw the keyed JsonError — never
// crash, never throw anything else, never read out of bounds (ASan+UBSan
// enforce the latter).

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "support/json_parse.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  try {
    const slim::support::JsonValue v = slim::support::parseJson(text);
    (void)v;
  } catch (const slim::support::JsonError&) {
    // Keyed rejection is the contract for malformed input.
  }
  return 0;
}
