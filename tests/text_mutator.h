// Seeded byte mutation for the text-grammar fuzz tests (.repro files,
// capture-policy specs): one or two edits per input, each a random bit
// flip, an overwrite, insertion or deletion of a byte the grammar cares
// about, or a copy of a random span elsewhere. Small edits keep a good
// share of the mutants parseable, so both the accept path (round trip)
// and the reject path (clean error) see traffic.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "sim/rng.h"

namespace prr::fuzz {

inline std::string mutate_text(std::string text, std::string_view alphabet,
                               sim::Mt64& rng) {
  const int edits = 1 + static_cast<int>(rng() % 2);
  for (int k = 0; k < edits && !text.empty(); ++k) {
    const std::size_t at = rng() % text.size();
    const char pick = alphabet[rng() % alphabet.size()];
    switch (rng() % 5) {
      case 0:
        text[at] = static_cast<char>(text[at] ^ (1 + rng() % 255));
        break;
      case 1:
        text[at] = pick;
        break;
      case 2:
        text.insert(at, 1, pick);
        break;
      case 3:
        text.erase(at, 1);
        break;
      default: {
        const std::size_t len = 1 + rng() % 16;
        text.insert(rng() % (text.size() + 1), text.substr(at, len));
        break;
      }
    }
  }
  return text;
}

}  // namespace prr::fuzz
