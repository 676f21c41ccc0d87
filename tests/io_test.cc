#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "io/atomic_file.h"
#include "io/emxm.h"
#include "io/mmap_file.h"
#include "file_fuzz.h"
#include "util/status.h"

namespace emx {
namespace io {
namespace {

namespace fs = std::filesystem;

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/emx_io_test_" +
           std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
           "_" + ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name();
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& leaf) const { return dir_ + "/" + leaf; }

  std::string dir_;
};

// ---- MmapFile ---------------------------------------------------------------

TEST_F(IoTest, MmapMissingFileIsStatusNotFault) {
  auto r = MmapFile::Open(Path("nope"));
  EXPECT_FALSE(r.ok());
}

TEST_F(IoTest, MmapEmptyFileIsValidZeroLength) {
  const std::string p = Path("empty");
  std::ofstream(p).close();
  auto r = MmapFile::Open(p);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().size(), 0u);
  EXPECT_TRUE(r.value().Advise(MapAdvice::kRandom).ok());
}

TEST_F(IoTest, MmapReadsExactBytes) {
  const std::string p = Path("bytes");
  const std::string payload = "emx mmap round trip";
  std::ofstream(p, std::ios::binary) << payload;
  auto r = MmapFile::Open(p);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const MmapFile& m = r.value();
  ASSERT_EQ(m.size(), payload.size());
  EXPECT_EQ(std::memcmp(m.data(), payload.data(), payload.size()), 0);
  EXPECT_EQ(m.path(), p);
  for (MapAdvice a : {MapAdvice::kNormal, MapAdvice::kSequential,
                      MapAdvice::kRandom, MapAdvice::kWillNeed}) {
    EXPECT_TRUE(m.Advise(a).ok());
  }
}

TEST_F(IoTest, MmapSurvivesRenameOverPath) {
  // The hot-swap contract: a reader of the old version keeps its bytes
  // after a new file is renamed onto the path.
  const std::string p = Path("swap");
  std::ofstream(p, std::ios::binary) << "old-old-old";
  auto r = MmapFile::Open(p);
  ASSERT_TRUE(r.ok());
  std::ofstream(p + ".new", std::ios::binary) << "new-new-new";
  ASSERT_EQ(std::rename((p + ".new").c_str(), p.c_str()), 0);
  EXPECT_EQ(std::memcmp(r.value().data(), "old-old-old", 11), 0);
}

// ---- AtomicFileWriter -------------------------------------------------------

TEST_F(IoTest, AtomicWriterPublishesOnCommit) {
  const std::string p = Path("artifact");
  AtomicFileWriter w(p);
  ASSERT_TRUE(w.status().ok());
  w.stream() << "published";
  EXPECT_FALSE(fs::exists(p)) << "visible before Commit";
  ASSERT_TRUE(w.Commit().ok());
  EXPECT_FALSE(fs::exists(p + ".tmp"));
  std::ifstream in(p);
  std::string got((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(got, "published");
}

TEST_F(IoTest, AtomicWriterAbandonKeepsOldArtifact) {
  const std::string p = Path("artifact");
  std::ofstream(p, std::ios::binary) << "previous";
  {
    AtomicFileWriter w(p);
    ASSERT_TRUE(w.status().ok());
    w.stream() << "half-writ";
    // No Commit: the writer dies mid-flight.
  }
  EXPECT_FALSE(fs::exists(p + ".tmp")) << "stale .tmp left behind";
  std::ifstream in(p);
  std::string got((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(got, "previous");
}

TEST_F(IoTest, AtomicWriterReplacesExistingAtomically) {
  const std::string p = Path("artifact");
  std::ofstream(p, std::ios::binary) << "v1";
  AtomicFileWriter w(p);
  ASSERT_TRUE(w.status().ok());
  w.stream() << "v2";
  ASSERT_TRUE(w.Commit().ok());
  std::ifstream in(p);
  std::string got((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(got, "v2");
}

// ---- EMXM1 round trip -------------------------------------------------------

/// A small container with one section of every kind; payload values are
/// position-dependent so corruption can't alias to a valid file.
std::string WriteSampleContainer(const std::string& path) {
  static std::vector<float> tensor(24);
  static std::vector<int8_t> packed(128);
  static std::vector<float> vec(7);
  static std::vector<int32_t> ivec(7);
  for (size_t i = 0; i < tensor.size(); ++i) {
    tensor[i] = static_cast<float>(i) * 0.5f;
  }
  for (size_t i = 0; i < packed.size(); ++i) {
    packed[i] = static_cast<int8_t>(i - 64);
  }
  for (size_t i = 0; i < vec.size(); ++i) {
    vec[i] = 1.0f / static_cast<float>(i + 1);
    ivec[i] = static_cast<int32_t>(i * i);
  }

  EmxmWriter w;
  w.AddSection("p:enc.w", SectionKind::kF32Tensor, {2, 4, 6, 0, 0, 0},
               tensor.data(), tensor.size() * sizeof(float));
  w.AddSection("q:head:qw", SectionKind::kInt8Packed,
               {4, 2, 16, 8, AuxFromF32(0.125f), 3}, packed.data(),
               packed.size());
  w.AddSection("q:head:ws", SectionKind::kF32Vec, {7, 0, 0, 0, 0, 0},
               vec.data(), vec.size() * sizeof(float));
  w.AddSection("q:head:cs", SectionKind::kI32Vec, {7, 0, 0, 0, 0, 0},
               ivec.data(), ivec.size() * sizeof(int32_t));
  w.AddSection("q:ffn:ffn", SectionKind::kFfnMeta,
               {1, AuxFromF32(0.25f), 9, 0, 0, 0}, nullptr, 0);
  w.AddSection("emxm:manifest", SectionKind::kManifest, {1, 1, 1, 0, 0, 0},
               "bert", 4);
  EXPECT_TRUE(w.WriteFile(path).ok());
  return path;
}

TEST_F(IoTest, EmxmRoundTripPreservesEverySection) {
  const std::string p = WriteSampleContainer(Path("m.emxm"));
  auto r = EmxmReader::Open(p);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const EmxmReader& reader = *r.value();
  EXPECT_EQ(reader.sections().size(), 6u);

  const Section* t = reader.Find("p:enc.w");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->kind, SectionKind::kF32Tensor);
  EXPECT_EQ(t->aux[0], 2u);
  EXPECT_EQ(t->aux[1], 4u);
  EXPECT_EQ(t->aux[2], 6u);
  ASSERT_EQ(t->bytes, 24 * sizeof(float));
  const float* tf = reinterpret_cast<const float*>(t->data);
  for (int i = 0; i < 24; ++i) EXPECT_EQ(tf[i], static_cast<float>(i) * 0.5f);

  const Section* qw = reader.Find("q:head:qw");
  ASSERT_NE(qw, nullptr);
  EXPECT_EQ(qw->kind, SectionKind::kInt8Packed);
  EXPECT_EQ(F32FromAux(qw->aux[4]), 0.125f);
  ASSERT_EQ(qw->bytes, 128u);
  const int8_t* qp = reinterpret_cast<const int8_t*>(qw->data);
  for (int i = 0; i < 128; ++i) EXPECT_EQ(qp[i], static_cast<int8_t>(i - 64));

  const Section* meta = reader.Find("q:ffn:ffn");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->bytes, 0u);
  EXPECT_EQ(F32FromAux(meta->aux[1]), 0.25f);

  const Section* manifest = reader.Find("emxm:manifest");
  ASSERT_NE(manifest, nullptr);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(manifest->data),
                        manifest->bytes),
            "bert");

  EXPECT_EQ(reader.Find("no:such:section"), nullptr);
}

TEST_F(IoTest, EmxmPayloadsAre64ByteAligned) {
  const std::string p = WriteSampleContainer(Path("m.emxm"));
  auto r = EmxmReader::Open(p);
  ASSERT_TRUE(r.ok());
  for (const Section& s : r.value()->sections()) {
    if (s.bytes == 0) continue;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(s.data) % kEmxmAlign, 0u)
        << "section '" << s.name << "' misaligned";
  }
}

TEST_F(IoTest, EmxmFileSizeMatchesHeaderExactly) {
  const std::string p = WriteSampleContainer(Path("m.emxm"));
  auto r = EmxmReader::Open(p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()->file_bytes(), fs::file_size(p));
}

TEST_F(IoTest, EmxmVectorAndStringSectionsRoundTrip) {
  const std::string p = Path("v.emxm");
  {
    // The writer owns these payloads; the temporaries die before the write.
    EmxmWriter w;
    w.AddVector("ids", SectionKind::kU64Vec, std::vector<uint64_t>{3, 1, 4},
                {0, 7, 0, 0, 0, 0});
    w.AddStrings("names", std::vector<std::string>{"acer", "", "dell xps"});
    ASSERT_TRUE(w.WriteFile(p).ok());
  }
  {
    auto r = EmxmReader::Open(p);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const EmxmReader& reader = *r.value();
    auto ids = reader.FindVector("ids", SectionKind::kU64Vec);
    ASSERT_TRUE(ids.ok()) << ids.status().ToString();
    EXPECT_EQ(ids.value()->aux[0], 3u);
    EXPECT_EQ(ids.value()->aux[1], 7u);
    EXPECT_EQ(ids.value()->As<uint64_t>()[2], 4u);
    EXPECT_EQ(reader.FindVector("ids", SectionKind::kI32Vec).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(reader.FindVector("nope", SectionKind::kU64Vec).status().code(),
              StatusCode::kNotFound);
    auto names = reader.FindStrings("names");
    ASSERT_TRUE(names.ok()) << names.status().ToString();
    EXPECT_EQ(names.value(),
              (std::vector<std::string_view>{"acer", "", "dell xps"}));
  }

  // A count that disagrees with the payload, and an end offset past the
  // blob, are refused by the typed lookups (Open itself still succeeds).
  testing::WithPatchedField<uint64_t>(
      p, testing::EmxmAuxOffset(p, "ids", 0), 1ull << 40,
      [](const std::string& patched) {
        auto r = EmxmReader::Open(patched);
        ASSERT_TRUE(r.ok());
        EXPECT_FALSE(r.value()->FindVector("ids", SectionKind::kU64Vec).ok());
      });
  testing::WithPatchedField<uint64_t>(
      p, testing::EmxmPayloadOffset(p, "names:end") + 8, 999,
      [](const std::string& patched) {
        auto r = EmxmReader::Open(patched);
        ASSERT_TRUE(r.ok());
        EXPECT_FALSE(r.value()->FindStrings("names").ok());
      });
}

// ---- EMXM1 corruption matrix ------------------------------------------------

Status OpenStatus(const std::string& path) {
  return EmxmReader::Open(path).status();
}

TEST_F(IoTest, EmxmEveryTruncationFailsCleanly) {
  const std::string p = WriteSampleContainer(Path("m.emxm"));
  // Byte-exhaustive over the structured region (header + table + strtab);
  // strided through the payload area, plus every 8-byte field boundary of
  // the 64-byte header.
  testing::ExpectAllTruncationsFail(p, OpenStatus, /*stride=*/64,
                                    {8, 12, 16, 24, 32, 40, 48, 56, 63, 65});
}

TEST_F(IoTest, EmxmTrailingGarbageIsRejected) {
  const std::string p = WriteSampleContainer(Path("m.emxm"));
  std::ofstream(p, std::ios::binary | std::ios::app) << "extra";
  EXPECT_FALSE(OpenStatus(p).ok()) << "file_bytes mismatch not caught";
}

TEST_F(IoTest, EmxmBadHeaderFieldsAreRejected) {
  const std::string p = WriteSampleContainer(Path("m.emxm"));
  const uint64_t huge = ~0ull - 7;
  auto fails = [&](const std::string& patched) {
    EXPECT_FALSE(OpenStatus(patched).ok()) << "accepted " << patched;
  };
  // magic, version, header_bytes
  testing::WithPatchedField<uint64_t>(p, 0, 0x31505845ull, fails);
  testing::WithPatchedField<uint32_t>(p, 8, kEmxmVersion + 1, fails);
  testing::WithPatchedField<uint32_t>(p, 12, 32, fails);
  // section_count: oversized count must fail bounds checks, not allocate.
  testing::WithPatchedField<uint64_t>(p, 16, huge, fails);
  // table / strtab offsets and length out of bounds.
  testing::WithPatchedField<uint64_t>(p, 24, huge, fails);
  testing::WithPatchedField<uint64_t>(p, 32, huge, fails);
  testing::WithPatchedField<uint64_t>(p, 40, huge, fails);
  // file_bytes disagreeing with the real size.
  testing::WithPatchedField<uint64_t>(p, 48, huge, fails);
  testing::WithPatchedField<uint64_t>(p, 48, 64, fails);
}

TEST_F(IoTest, EmxmBadSectionEntriesAreRejected) {
  const std::string p = WriteSampleContainer(Path("m.emxm"));
  const std::vector<uint8_t> bytes = testing::ReadFileBytes(p);
  uint64_t table = 0;
  std::memcpy(&table, bytes.data() + 24, sizeof(table));
  ASSERT_GT(table, 0u);
  const uint64_t huge = ~0ull - 7;
  auto fails = [&](const std::string& patched) {
    EXPECT_FALSE(OpenStatus(patched).ok()) << "accepted " << patched;
  };
  const size_t e0 = static_cast<size_t>(table);
  // name_offset / name_bytes escaping the string table.
  testing::WithPatchedField<uint64_t>(p, e0 + 0, huge, fails);
  testing::WithPatchedField<uint64_t>(p, e0 + 8, huge, fails);
  // unknown kind.
  testing::WithPatchedField<uint32_t>(p, e0 + 16, 999, fails);
  // payload offset/bytes out of bounds, and misaligned payload.
  testing::WithPatchedField<uint64_t>(p, e0 + 24, huge, fails);
  testing::WithPatchedField<uint64_t>(p, e0 + 32, huge, fails);
  uint64_t payload_off = 0;
  std::memcpy(&payload_off, bytes.data() + e0 + 24, sizeof(payload_off));
  testing::WithPatchedField<uint64_t>(p, e0 + 24, payload_off + 1, fails);
}

}  // namespace
}  // namespace io
}  // namespace emx
