#include "ddc/snapshot.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/workload.h"
#include "naive/naive_cube.h"

namespace ddc {
namespace {

// Populates a cube with a deterministic random pattern.
void Populate(DynamicDataCube* cube, int ops, uint64_t seed) {
  WorkloadGenerator gen(Shape::Cube(cube->dims(), 64), seed);
  for (const UpdateOp& op : gen.UniformUpdates(ops, -9, 9)) {
    cube->Add(op.cell, op.delta);
  }
}

void ExpectSameAnswers(const DynamicDataCube& a, const DynamicDataCube& b,
                       uint64_t seed) {
  EXPECT_EQ(a.dims(), b.dims());
  EXPECT_EQ(a.side(), b.side());
  EXPECT_EQ(a.DomainLo(), b.DomainLo());
  EXPECT_EQ(a.TotalSum(), b.TotalSum());
  WorkloadGenerator gen(Shape::Cube(a.dims(), a.side()), seed);
  const Cell lo = a.DomainLo();
  for (int i = 0; i < 100; ++i) {
    Box box = gen.UniformBox();
    for (int d = 0; d < a.dims(); ++d) {
      size_t ud = static_cast<size_t>(d);
      box.lo[ud] += lo[ud];
      box.hi[ud] += lo[ud];
    }
    ASSERT_EQ(a.RangeSum(box), b.RangeSum(box)) << box.ToString();
  }
}

TEST(SnapshotTest, RoundTripThroughStream) {
  DynamicDataCube cube(2, 64);
  Populate(&cube, 300, 5);
  std::stringstream stream;
  ASSERT_TRUE(WriteSnapshot(cube, &stream));
  auto loaded = ReadSnapshot(&stream);
  ASSERT_NE(loaded, nullptr);
  ExpectSameAnswers(cube, *loaded, 6);
}

TEST(SnapshotTest, RoundTripEmptyCube) {
  DynamicDataCube cube(3, 16);
  std::stringstream stream;
  ASSERT_TRUE(WriteSnapshot(cube, &stream));
  auto loaded = ReadSnapshot(&stream);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->TotalSum(), 0);
  EXPECT_EQ(loaded->side(), 16);
  EXPECT_EQ(loaded->dims(), 3);
}

TEST(SnapshotTest, RoundTripPreservesGrownDomain) {
  DynamicDataCube cube(2, 4);
  cube.Add({-100, 50}, 7);
  cube.Add({30, -80}, 9);
  std::stringstream stream;
  ASSERT_TRUE(WriteSnapshot(cube, &stream));
  auto loaded = ReadSnapshot(&stream);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->DomainLo(), cube.DomainLo());
  EXPECT_EQ(loaded->side(), cube.side());
  EXPECT_EQ(loaded->Get({-100, 50}), 7);
  EXPECT_EQ(loaded->Get({30, -80}), 9);
  ExpectSameAnswers(cube, *loaded, 7);
}

TEST(SnapshotTest, RoundTripPreservesOptions) {
  DdcOptions fanout_elide;
  fanout_elide.bc_fanout = 4;
  fanout_elide.elide_levels = 2;
  DdcOptions dense;
  dense.bc_dense = true;
  DdcOptions fenwick;
  fenwick.use_fenwick = true;
  fenwick.elide_levels = 1;
  for (const DdcOptions& options : {fanout_elide, dense, fenwick}) {
    DynamicDataCube cube(2, 32, options);
    Populate(&cube, 100, 8);
    std::stringstream stream;
    ASSERT_TRUE(WriteSnapshot(cube, &stream));
    auto loaded = ReadSnapshot(&stream);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->options().bc_fanout, options.bc_fanout);
    EXPECT_EQ(loaded->options().elide_levels, options.elide_levels);
    EXPECT_EQ(loaded->options().bc_dense, options.bc_dense);
    EXPECT_EQ(loaded->options().use_fenwick, options.use_fenwick);
    // Same options, same cells: the same structure.
    EXPECT_EQ(loaded->StorageCells(), cube.StorageCells());
    ExpectSameAnswers(cube, *loaded, 9);
  }
}

// A handcrafted snapshot: `magic` header for a 2-D cube of side 8 at
// origin (-4, 0) with default options, then `count` and the records.
std::string Handcrafted(const char* magic, int64_t count,
                        const std::vector<int64_t>& records) {
  std::string bytes(magic, 8);
  const auto put = [&bytes](auto v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(int32_t{2});
  put(int64_t{8});
  put(int64_t{-4});
  put(int64_t{0});
  put(int32_t{8});  // bc_fanout
  put(int8_t{0});   // use_fenwick
  if (std::string(magic, 8) == "DDCSNAP2") put(int8_t{0});  // bc_dense
  put(int32_t{0});  // elide_levels
  put(count);
  for (int64_t v : records) put(v);
  return bytes;
}

TEST(SnapshotTest, LoadsVersion1) {
  std::stringstream stream(
      Handcrafted("DDCSNAP1", 2, {-4, 0, 5, /**/ 3, 7, 6}));
  auto loaded = ReadSnapshot(&stream);
  ASSERT_NE(loaded, nullptr);
  EXPECT_FALSE(loaded->options().bc_dense);
  // The persisted full tree, not the (elided) default shape.
  EXPECT_EQ(loaded->options().elide_levels, 0);
  EXPECT_EQ(loaded->Stats().raw_cells, loaded->Stats().raw_blocks * 4);
  EXPECT_EQ(loaded->DomainLo(), (Cell{-4, 0}));
  EXPECT_EQ(loaded->Get({-4, 0}), 5);
  EXPECT_EQ(loaded->Get({3, 7}), 6);
  EXPECT_EQ(loaded->TotalSum(), 11);
}

TEST(SnapshotTest, DuplicateRecordsSum) {
  // Loading no longer replays through Add, but repeated records must still
  // add up, in any order: 3 + 4 at one cell, 5 - 5 at another.
  std::stringstream stream(Handcrafted(
      "DDCSNAP2", 5,
      {1, 2, 3, /**/ -3, 5, 5, /**/ 1, 2, 4, /**/ 0, 0, 9, /**/ -3, 5, -5}));
  auto loaded = ReadSnapshot(&stream);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->Get({1, 2}), 7);
  EXPECT_EQ(loaded->Get({-3, 5}), 0);
  EXPECT_EQ(loaded->Get({0, 0}), 9);
  EXPECT_EQ(loaded->TotalSum(), 16);
  EXPECT_EQ(loaded->RangeSum(Box{{-4, 0}, {1, 7}}), 16);
}

TEST(SnapshotTest, RejectsOutOfDomainRecord) {
  // x = 4 is one past the domain [-4, 4).
  std::stringstream stream(
      Handcrafted("DDCSNAP2", 2, {0, 0, 1, /**/ 4, 0, 1}));
  EXPECT_EQ(ReadSnapshot(&stream), nullptr);
  std::stringstream below(Handcrafted("DDCSNAP2", 1, {-5, 0, 1}));
  EXPECT_EQ(ReadSnapshot(&below), nullptr);
}

TEST(SnapshotTest, RejectsDomainPastInt64) {
  std::string bytes = Handcrafted("DDCSNAP2", 0, {});
  const int64_t origin_x = INT64_MAX - 2;  // origin_x + 7 overflows.
  std::memcpy(&bytes[8 + 4 + 8], &origin_x, sizeof(origin_x));
  std::stringstream stream(bytes);
  EXPECT_EQ(ReadSnapshot(&stream), nullptr);
}

// A stream buffer that cannot seek, like a pipe: reads come from `input`,
// writes append to written().
class PipeBuf : public std::streambuf {
 public:
  explicit PipeBuf(std::string input = "") : input_(std::move(input)) {
    setg(input_.data(), input_.data(), input_.data() + input_.size());
  }
  const std::string& written() const { return written_; }

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) written_.push_back(static_cast<char>(c));
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    written_.append(s, static_cast<size_t>(n));
    return n;
  }

 private:
  std::string input_;
  std::string written_;
};

TEST(SnapshotTest, NonSeekableStreamsRoundTrip) {
  DynamicDataCube cube(3, 16);
  Populate(&cube, 200, 13);
  std::stringstream seekable;
  ASSERT_TRUE(WriteSnapshot(cube, &seekable));
  PipeBuf out_pipe;
  std::ostream out(&out_pipe);
  ASSERT_TRUE(WriteSnapshot(cube, &out));
  // Patching the count in place and writing it up front give one format.
  EXPECT_EQ(out_pipe.written(), seekable.str());

  PipeBuf in_pipe(out_pipe.written());
  std::istream in(&in_pipe);
  auto loaded = ReadSnapshot(&in);
  ASSERT_NE(loaded, nullptr);
  ExpectSameAnswers(cube, *loaded, 14);
}

TEST(SnapshotTest, HugeRecordCountFailsWithoutHugeAllocation) {
  // The count claims 2^60 records over two real ones: decoding runs out of
  // stream after one bounded chunk instead of sizing for the claim.
  std::stringstream stream(
      Handcrafted("DDCSNAP2", int64_t{1} << 60, {0, 0, 1, /**/ 1, 1, 2}));
  EXPECT_EQ(ReadSnapshot(&stream), nullptr);
  // A stream that cannot tell its length decodes in bounded chunks.
  PipeBuf pipe(
      Handcrafted("DDCSNAP2", int64_t{1} << 60, {0, 0, 1, /**/ 1, 1, 2}));
  std::istream piped(&pipe);
  EXPECT_EQ(ReadSnapshot(&piped), nullptr);
  std::stringstream negative(Handcrafted("DDCSNAP2", -1, {}));
  EXPECT_EQ(ReadSnapshot(&negative), nullptr);
}

TEST(SnapshotTest, RejectsBadOptionFlags) {
  std::string bytes = Handcrafted("DDCSNAP2", 0, {});
  // The bc_dense byte sits after magic, dims, side, origin, fanout and
  // use_fenwick.
  bytes[8 + 4 + 8 + 16 + 4 + 1] = 7;
  std::stringstream stream(bytes);
  EXPECT_EQ(ReadSnapshot(&stream), nullptr);
}

TEST(SnapshotTest, RejectsBadMagic) {
  std::stringstream stream;
  stream << "NOTADDC1 garbage follows";
  EXPECT_EQ(ReadSnapshot(&stream), nullptr);
}

TEST(SnapshotTest, RejectsTruncatedStream) {
  DynamicDataCube cube(2, 64);
  Populate(&cube, 50, 10);
  std::stringstream full;
  ASSERT_TRUE(WriteSnapshot(cube, &full));
  const std::string bytes = full.str();
  // Truncate at several byte offsets: header, geometry, mid-records.
  for (size_t cut : {size_t{4}, size_t{10}, size_t{30}, bytes.size() - 5}) {
    std::stringstream truncated(bytes.substr(0, cut));
    EXPECT_EQ(ReadSnapshot(&truncated), nullptr) << "cut=" << cut;
  }
}

TEST(SnapshotTest, RejectsInvalidGeometry) {
  // Handcraft a header with a non-power-of-two side.
  std::stringstream stream;
  stream.write("DDCSNAP1", 8);
  int32_t dims = 2;
  int64_t side = 100;  // Not a power of two.
  stream.write(reinterpret_cast<const char*>(&dims), sizeof(dims));
  stream.write(reinterpret_cast<const char*>(&side), sizeof(side));
  EXPECT_EQ(ReadSnapshot(&stream), nullptr);
}

TEST(SnapshotTest, FileRoundTrip) {
  DynamicDataCube cube(2, 32);
  Populate(&cube, 200, 11);
  const std::string path = "/tmp/ddc_snapshot_test.bin";
  ASSERT_TRUE(SaveSnapshotToFile(cube, path));
  auto loaded = LoadSnapshotFromFile(path);
  ASSERT_NE(loaded, nullptr);
  ExpectSameAnswers(cube, *loaded, 12);
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadFromMissingFileFails) {
  EXPECT_EQ(LoadSnapshotFromFile("/tmp/ddc_no_such_file.bin"), nullptr);
}

}  // namespace
}  // namespace ddc
