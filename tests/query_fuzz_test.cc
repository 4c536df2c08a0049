// Seeded fuzz over the query language: valid statements must round-trip
// parse -> print -> parse exactly, and mutated (mostly invalid) statements
// must come back as error results — never a crash, hang, or DDC_CHECK
// abort. Parsing is the outermost untrusted-input surface of the codebase
// (ddctool select reads it straight off argv), so it gets the same
// recoverable-error contract the write path has: reject, explain, survive.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cached_cube.h"
#include "ddc/dynamic_data_cube.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/query.h"
#include "test_seed.h"

namespace ddc {
namespace {

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int64_t RandRange(uint64_t* rng, int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(SplitMix(rng) %
                                   static_cast<uint64_t>(hi - lo + 1));
}

// A random read query over up to 4 dimensions; every shape the grammar
// admits (aggregate alone, GROUP BY with/without SIZE, point and interval
// predicates, repeated predicates on one dimension).
Query RandomQuery(uint64_t* rng) {
  Query query;
  switch (SplitMix(rng) % 3) {
    case 0: query.aggregate = Aggregate::kSum; break;
    case 1: query.aggregate = Aggregate::kCount; break;
    default: query.aggregate = Aggregate::kAvg; break;
  }
  if (SplitMix(rng) % 2 == 0) {
    GroupBySpec group;
    group.dim = static_cast<int>(SplitMix(rng) % 4);
    group.group_size = SplitMix(rng) % 3 == 0 ? 1 : RandRange(rng, 2, 9);
    query.group_by = group;
  }
  const int num_preds = static_cast<int>(SplitMix(rng) % 4);
  for (int i = 0; i < num_preds; ++i) {
    Predicate pred;
    pred.dim = static_cast<int>(SplitMix(rng) % 4);
    pred.lo = RandRange(rng, -100, 200);
    pred.hi = SplitMix(rng) % 3 == 0 ? pred.lo
                                     : pred.lo + RandRange(rng, 1, 50);
    query.predicates.push_back(pred);
  }
  return query;
}

// A random write statement mixing point targets (AT [...] = v) and range
// targets (v IN [lo .. hi]) under one verb. Range bounds are sometimes
// degenerate (lo == hi) and sometimes inverted (empty box) — the grammar
// admits both, the latter as a parse-fine no-op write.
WriteStatement RandomWrite(uint64_t* rng, int dims) {
  WriteStatement write;
  const bool is_set = SplitMix(rng) % 2 == 0;
  const int targets = static_cast<int>(1 + SplitMix(rng) % 5);
  for (int i = 0; i < targets; ++i) {
    const int64_t value = RandRange(rng, -1000000, 1000000);
    if (SplitMix(rng) % 3 == 0) {
      Cell lo;
      Cell hi;
      for (int d = 0; d < dims; ++d) {
        lo.push_back(RandRange(rng, -1000000, 1000000));
        hi.push_back(SplitMix(rng) % 4 == 0
                         ? lo.back()
                         : RandRange(rng, -1000000, 1000000));
      }
      write.mutations.push_back(
          is_set ? MakeRangeSet(std::move(lo), std::move(hi), value)
                 : MakeRangeAdd(std::move(lo), std::move(hi), value));
    } else {
      Mutation m;
      for (int d = 0; d < dims; ++d) {
        m.cell.push_back(RandRange(rng, -1000000, 1000000));
      }
      m.delta = value;
      m.kind = is_set ? MutationKind::kSet : MutationKind::kAdd;
      write.mutations.push_back(std::move(m));
    }
  }
  return write;
}

// Random text damage: deletions, insertions from a hostile alphabet,
// duplicated spans, truncation. Roughly half the outputs stay parseable
// (whitespace tweaks, sign flips), the rest must produce parse errors.
std::string MutateText(uint64_t* rng, std::string text) {
  static const char kAlphabet[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
      "[],=-. \t\n\0#;$";
  const int edits = static_cast<int>(1 + SplitMix(rng) % 4);
  for (int e = 0; e < edits; ++e) {
    if (text.empty()) break;
    const size_t pos = SplitMix(rng) % text.size();
    switch (SplitMix(rng) % 4) {
      case 0:
        text.erase(pos, 1 + SplitMix(rng) % 3);
        break;
      case 1:
        text.insert(pos, 1,
                    kAlphabet[SplitMix(rng) % (sizeof(kAlphabet) - 1)]);
        break;
      case 2: {
        const size_t len = 1 + SplitMix(rng) % 8;
        text.insert(pos, text.substr(pos, len));
        break;
      }
      default:
        text.resize(pos);
        break;
    }
  }
  return text;
}

TEST(QueryFuzzTest, ValidQueriesRoundTripThroughParserAndPrinter) {
  uint64_t rng = TestSeed(424242);
  for (int i = 0; i < 400; ++i) {
    const Query query = RandomQuery(&rng);
    const std::string text = QueryToString(query);
    std::string error;
    const std::optional<Query> reparsed = ParseQuery(text, &error);
    ASSERT_TRUE(reparsed.has_value())
        << "failed to reparse printed query: '" << text << "': " << error;
    EXPECT_EQ(QueryToString(*reparsed), text);
  }
}

TEST(QueryFuzzTest, ValidWritesRoundTripThroughParserAndPrinter) {
  uint64_t rng = TestSeed(535353);
  for (int i = 0; i < 400; ++i) {
    const int dims = static_cast<int>(1 + SplitMix(&rng) % 4);
    const WriteStatement write = RandomWrite(&rng, dims);
    const std::string text = WriteToString(write);
    std::string error;
    const std::optional<Statement> reparsed = ParseStatement(text, &error);
    ASSERT_TRUE(reparsed.has_value())
        << "failed to reparse printed write: '" << text << "': " << error;
    ASSERT_TRUE(reparsed->write.has_value()) << text;
    EXPECT_EQ(StatementToString(*reparsed), text);
    EXPECT_EQ(reparsed->write->mutations.size(), write.mutations.size());
  }
}

TEST(QueryFuzzTest, MutatedStatementsParseOrErrorButNeverCrash) {
  uint64_t rng = TestSeed(646464);
  int parse_errors = 0;
  for (int i = 0; i < 1500; ++i) {
    std::string text;
    if (SplitMix(&rng) % 2 == 0) {
      text = QueryToString(RandomQuery(&rng));
    } else {
      text = WriteToString(
          RandomWrite(&rng, static_cast<int>(1 + SplitMix(&rng) % 3)));
    }
    text = MutateText(&rng, text);
    std::string error;
    const std::optional<Statement> statement = ParseStatement(text, &error);
    if (!statement.has_value()) {
      ++parse_errors;
      EXPECT_FALSE(error.empty()) << "silent parse failure on: '" << text
                                  << "'";
    }
  }
  // The damage model must actually be producing invalid inputs, or this
  // test is vacuously passing on happy paths.
  EXPECT_GT(parse_errors, 100);
}

TEST(QueryFuzzTest, ExecutingFuzzedStatementsNeverAborts) {
  uint64_t rng = TestSeed(757575);
  DynamicDataCube cube(2, 16);
  cube.Add({1, 1}, 5);
  for (int i = 0; i < 300; ++i) {
    std::string text;
    if (SplitMix(&rng) % 2 == 0) {
      Query query = RandomQuery(&rng);
      // Clamp to the executor's 2-D world so in-range queries exercise the
      // aggregation path, out-of-range dims exercise the error path.
      text = QueryToString(query);
    } else {
      // Small coordinates: executed writes must not balloon the domain
      // (range corners clamp too — a clamped box covers at most 32^2
      // cells, so even kRangeSet's per-cell expansion stays cheap).
      WriteStatement write = RandomWrite(&rng, 2);
      for (Mutation& m : write.mutations) {
        for (Coord& c : m.cell) c = ((c % 32) + 32) % 32;
        for (Coord& c : m.hi) c = ((c % 32) + 32) % 32;
        m.delta %= 1000;
      }
      text = WriteToString(write);
    }
    if (SplitMix(&rng) % 3 == 0) text = MutateText(&rng, text);
    const QueryResult result = RunStatement(text, &cube);
    // Either it worked or it explained itself; both are fine, aborting is
    // not.
    EXPECT_TRUE(result.ok || !result.error.empty()) << text;
  }
  // Cube still alive: a full aggregate walk works after the fuzz barrage.
  (void)cube.TotalSum();
  EXPECT_EQ(cube.dims(), 2);
}

TEST(QueryFuzzTest, ExplainPrefixedStatementsNeverCrashAndNeverMutate) {
  uint64_t rng = TestSeed(868686);
  DynamicDataCube cube(2, 16);
  cube.Add({1, 1}, 5);
  const int64_t baseline = cube.TotalSum();
  for (int i = 0; i < 300; ++i) {
    std::string text;
    if (SplitMix(&rng) % 2 == 0) {
      text = QueryToString(RandomQuery(&rng));
    } else {
      WriteStatement write = RandomWrite(&rng, 2);
      for (Mutation& m : write.mutations) {
        for (Coord& c : m.cell) c = ((c % 32) + 32) % 32;
        for (Coord& c : m.hi) c = ((c % 32) + 32) % 32;
        m.delta %= 1000;
      }
      text = WriteToString(write);
    }
    // Damage only the statement body: the prefix must survive, or a lucky
    // deletion turns an EXPLAIN into a live write and the no-mutation
    // invariant below stops being the thing under test.
    if (SplitMix(&rng) % 4 == 0) text = MutateText(&rng, text);
    text = (SplitMix(&rng) % 2 == 0 ? "EXPLAIN " : "EXPLAIN ANALYZE ") + text;
    const QueryResult result = RunStatement(text, &cube);
    EXPECT_TRUE(result.ok || !result.error.empty()) << text;
    if (result.ok) {
      EXPECT_TRUE(result.is_explain) << text;
      EXPECT_FALSE(result.explain_text.empty()) << text;
    }
    // EXPLAIN — even EXPLAIN ANALYZE of a write — must never change the
    // cube. ANALYZE executes reads for real costs but only plans writes.
    ASSERT_EQ(cube.TotalSum(), baseline) << "mutated by: " << text;
  }
}

// Every fuzzed statement runs against a cache-enabled cube and an uncached
// shadow twin fed the identical text; results must match exactly. The cache
// is invisible to query semantics by construction (DESIGN.md §15) — any
// divergence here is a stale entry or an invalidation gap. EXPLAIN-prefixed
// statements additionally must never mutate or populate the cache.
TEST(QueryFuzzTest, CachedAndUncachedTwinsAgreeOnEveryStatement) {
  uint64_t rng = TestSeed(979797);
  DynamicDataCube shadow(2, 16);
  DynamicDataCube backend(2, 16);
  CachedCube cached(&backend);
  shadow.Add({1, 1}, 5);
  cached.Add({1, 1}, 5);

  for (int i = 0; i < 400; ++i) {
    std::string text;
    if (SplitMix(&rng) % 2 == 0) {
      text = QueryToString(RandomQuery(&rng));
    } else {
      WriteStatement write = RandomWrite(&rng, 2);
      for (Mutation& m : write.mutations) {
        for (Coord& c : m.cell) c = ((c % 32) + 32) % 32;
        for (Coord& c : m.hi) c = ((c % 32) + 32) % 32;
        m.delta %= 1000;
      }
      text = WriteToString(write);
    }
    if (SplitMix(&rng) % 4 == 0) text = MutateText(&rng, text);
    const bool explain = SplitMix(&rng) % 5 == 0;
    if (explain) {
      text = (SplitMix(&rng) % 2 == 0 ? "EXPLAIN " : "EXPLAIN ANALYZE ") +
             text;
    }

    const CacheStats before = cached.Stats();
    const QueryResult want = RunStatement(text, &shadow);
    const QueryResult got = RunStatement(text, &cached);

    ASSERT_EQ(got.ok, want.ok)
        << text << ": '" << got.error << "' vs '" << want.error << "'";
    if (explain) {
      // The rendered plans differ (the cached header names the cache), but
      // an explained statement must never mutate or populate the cache.
      const CacheStats after = cached.Stats();
      ASSERT_EQ(after.inserts, before.inserts) << text;
      ASSERT_EQ(after.entries, before.entries) << text;
      ASSERT_EQ(backend.TotalSum(), shadow.TotalSum()) << text;
      continue;
    }
    if (!want.ok) {
      ASSERT_EQ(got.error, want.error) << text;
      continue;
    }
    ASSERT_EQ(got.is_write, want.is_write) << text;
    ASSERT_EQ(got.mutations_applied, want.mutations_applied) << text;
    ASSERT_EQ(got.rows.size(), want.rows.size()) << text;
    for (size_t r = 0; r < want.rows.size(); ++r) {
      ASSERT_EQ(got.rows[r].group_start, want.rows[r].group_start) << text;
      ASSERT_EQ(got.rows[r].group_end, want.rows[r].group_end) << text;
      ASSERT_EQ(got.rows[r].sum, want.rows[r].sum)
          << text << " row " << r;
    }
  }

  // Final state differential: the twin cubes saw identical write traffic.
  EXPECT_EQ(backend.TotalSum(), shadow.TotalSum());
  const CacheStats stats = cached.Stats();
  EXPECT_GT(stats.hits + stats.misses, 0);  // The cache actually engaged.
}

TEST(QueryFuzzTest, RangeStatementEdgeCases) {
  DynamicDataCube cube(2, 16);
  // Inverted bounds: parses, executes, writes nothing.
  QueryResult result = RunStatement("ADD 5 IN [7, 7 .. 3, 3]", &cube);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(cube.TotalSum(), 0);
  // Degenerate (single-cell) bounds equal a point write.
  result = RunStatement("ADD 5 IN [2, 2 .. 2, 2]", &cube);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(cube.Get({2, 2}), 5);
  // Both spellings of the range separator tokenize.
  EXPECT_TRUE(RunStatement("ADD 1 IN [0,0..1,1]", &cube).ok);
  EXPECT_TRUE(RunStatement("SET 0 IN [0, 0 .. 3, 3]", &cube).ok);
  EXPECT_EQ(cube.TotalSum(), 0);
  // Mismatched corner arity is a parse error, not an abort.
  result = RunStatement("ADD 5 IN [1 .. 2, 3]", &cube);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
  // A range over the wrong dimensionality is an executor error.
  result = RunStatement("ADD 5 IN [1, 2, 3 .. 4, 5, 6]", &cube);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("dimension"), std::string::npos);
  // Stray dot runs fail cleanly.
  EXPECT_FALSE(RunStatement("ADD 5 IN [1, 2 . 3, 4]", &cube).ok);
  EXPECT_FALSE(RunStatement("ADD 5 IN [1, 2 ... 3, 4]", &cube).ok);
}

}  // namespace
}  // namespace ddc
