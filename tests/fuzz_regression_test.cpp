// Permanent regression suite for the fuzzed parsers: replays the seed
// corpus (fuzz/corpus/<target>/) and every checked-in crash reproducer
// (fuzz/crashes/<target>/) through the same code paths the fuzz harnesses
// drive, asserting the parsers' hostile-input contract — parse or throw the
// keyed error type, never anything else, never UB (the ASan+UBSan CI cell
// runs this test sanitized).
//
// When a fuzzer finds a crash, the input file is committed under
// fuzz/crashes/<target>/ and this test makes the fix permanent.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "serve/protocol.hpp"
#include "support/json_parse.hpp"
#include "tree/branch_classes.hpp"
#include "tree/tree.hpp"

namespace {

namespace fs = std::filesystem;

std::vector<std::string> inputsFor(
    const std::string& target,
    std::initializer_list<const char*> buckets = {"corpus", "crashes"}) {
  std::vector<std::string> paths;
  for (const char* bucket : buckets) {
    const fs::path dir = fs::path(SLIM_FUZZ_DIR) / bucket / target;
    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end; ++it)
      if (it->is_regular_file()) paths.push_back(it->path().string());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Runs `parse` on every corpus/crash input of `target`.  The contract is
/// encoded by the catch clauses in `parse` itself: expected keyed errors
/// are swallowed there; anything else propagates and fails the test.
template <typename Fn>
void replay(const std::string& target, Fn parse) {
  const auto inputs = inputsFor(target);
  ASSERT_FALSE(inputs.empty())
      << "no inputs for '" << target << "' under " << SLIM_FUZZ_DIR;
  for (const auto& path : inputs) {
    const std::string text = readFile(path);
    EXPECT_NO_THROW(parse(text)) << path;
  }
}

/// Mirrors fuzz/fuzz_tree.cpp: first line is Newick, the rest (optional) a
/// branch selector resolved against the parsed tree.
void parseTreeInput(const std::string& text) {
  std::string_view newick = text;
  std::string_view selector;
  if (const auto nl = std::string_view(text).find('\n');
      nl != std::string_view::npos) {
    newick = std::string_view(text).substr(0, nl);
    selector = std::string_view(text).substr(nl + 1);
  }
  const slim::tree::Tree tree = slim::tree::Tree::parseNewick(newick);
  (void)slim::tree::BranchClassMap::fromTree(tree);
  (void)tree.toNewick();
  if (!selector.empty())
    (void)slim::tree::resolveBranchSelector(tree, selector);
}

// The seed corpus must also contain *valid* inputs (a corpus of rejects
// exercises only the error paths): every seed of every target parses
// cleanly unless its name starts with `reject_`, and each target has at
// least one such seed.
template <typename Fn>
void expectSeedsAccepted(const std::string& target, Fn parse) {
  int accepting = 0;
  for (const auto& path : inputsFor(target, {"corpus"})) {
    if (fs::path(path).filename().string().starts_with("reject_")) continue;
    ++accepting;
    EXPECT_NO_THROW(parse(readFile(path))) << path;
  }
  EXPECT_GT(accepting, 0) << target;
}

}  // namespace

TEST(FuzzRegression, JsonParserKeepsItsContract) {
  replay("json", [](const std::string& text) {
    try {
      (void)slim::support::parseJson(text);
    } catch (const slim::support::JsonError&) {
    }
  });
}

TEST(FuzzRegression, ConfigParserKeepsItsContract) {
  replay("config", [](const std::string& text) {
    try {
      (void)slim::core::Config::parseString(text);
    } catch (const slim::core::ConfigError&) {
    }
  });
}

TEST(FuzzRegression, CheckpointParserKeepsItsContract) {
  replay("checkpoint", [](const std::string& text) {
    try {
      (void)slim::core::Checkpoint::parse(text, "fuzz-regression");
    } catch (const slim::core::ConfigError&) {
    }
  });
}

TEST(FuzzRegression, ProtocolParserKeepsItsContract) {
  replay("protocol", [](const std::string& text) {
    try {
      (void)slim::serve::parseRequest(text);
    } catch (const slim::serve::ProtocolError&) {
    } catch (const slim::support::JsonError&) {
    }
  });
}

TEST(FuzzRegression, TreeParserKeepsItsContract) {
  replay("tree", [](const std::string& text) {
    try {
      parseTreeInput(text);
    } catch (const std::invalid_argument&) {
    }
  });
}

TEST(FuzzRegression, SeedCorpusContainsAcceptingInputs) {
  expectSeedsAccepted("json", [](const std::string& text) {
    (void)slim::support::parseJson(text);
  });
  expectSeedsAccepted("config", [](const std::string& text) {
    (void)slim::core::Config::parseString(text);
  });
  expectSeedsAccepted("checkpoint", [](const std::string& text) {
    (void)slim::core::Checkpoint::parse(text, "seed");
  });
  expectSeedsAccepted("protocol", [](const std::string& text) {
    (void)slim::serve::parseRequest(text);
  });
  expectSeedsAccepted("tree", parseTreeInput);
}
