// Property and fuzz tests for the bundle stream encoding
// (src/storage/codec/): bit-identical round-trips over adversarially shaped
// inputs and every bit width, encoded-size sanity, and a structured decoder
// fuzz battery (every truncation prefix, single byte flips, seeded garbage,
// every retired or unknown tag) asserting the bounds-checking contract —
// corrupt input returns Status, never crashes, hangs or reads out of bounds.
#include <algorithm>
#include <random>
#include <vector>

#include "gtest/gtest.h"
#include "storage/codec/codec.h"

namespace slpspan {
namespace storage {
namespace codec {
namespace {

std::string Encode(const std::vector<uint64_t>& values) {
  BundleWriter w;
  WriteTaggedU64s(values.data(), values.size(), &w);
  return w.buffer();
}

Result<std::vector<uint64_t>> Decode(const std::string& bytes, size_t count) {
  BundleReader r(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  std::vector<uint64_t> out;
  Status st = ReadTaggedU64s(&r, count, &out);
  if (!st.ok()) return st;
  return out;
}

void ExpectRoundTrip(const std::vector<uint64_t>& values) {
  const std::string bytes = Encode(values);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(kBitPackTag, static_cast<uint8_t>(bytes[0]));
  Result<std::vector<uint64_t>> back = Decode(bytes, values.size());
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(values, *back);
  // The decoder must consume exactly the bytes the encoder produced —
  // anything less would desynchronize the section that follows.
  BundleReader r(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  std::vector<uint64_t> out;
  ASSERT_TRUE(ReadTaggedU64s(&r, values.size(), &out).ok());
  EXPECT_TRUE(r.AtEnd()) << "left " << r.remaining() << " bytes";
}

// ------------------------------------------------------ round-trip axes ----

TEST(CodecRoundTrip, EmptyStream) { ExpectRoundTrip({}); }

TEST(CodecRoundTrip, SingleValues) {
  for (const uint64_t v :
       {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128},
        uint64_t{0xFFFF}, uint64_t{0x10000}, uint64_t{0xFFFFFFFFull},
        uint64_t{0x100000000ull}, ~uint64_t{0}}) {
    ExpectRoundTrip({v});
  }
}

TEST(CodecRoundTrip, ConstantRuns) {
  for (const size_t len : {size_t{2}, size_t{127}, size_t{128}, size_t{129},
                           size_t{256}, size_t{1000}}) {
    for (const uint64_t v : {uint64_t{0}, uint64_t{42}, ~uint64_t{0}}) {
      ExpectRoundTrip(std::vector<uint64_t>(len, v));
    }
  }
}

TEST(CodecRoundTrip, MaxU64Boundaries) {
  // Every bit length adjacent to the next, ending at the u64 max —
  // exercises width 64 and the wide (58..63) unpack path.
  std::vector<uint64_t> values;
  for (unsigned b = 0; b < 64; ++b) {
    values.push_back((uint64_t{1} << b) - 1);
    values.push_back(uint64_t{1} << b);
  }
  values.push_back(~uint64_t{0});
  ExpectRoundTrip(values);
}

TEST(CodecRoundTrip, AdversarialDeltas) {
  // Alternating tiny/huge values: the worst case for width-per-block
  // decisions and for delta-style assumptions.
  std::vector<uint64_t> values;
  for (int i = 0; i < 500; ++i) {
    values.push_back(i % 2 == 0 ? static_cast<uint64_t>(i)
                                : ~uint64_t{0} - static_cast<uint64_t>(i));
  }
  ExpectRoundTrip(values);
}

TEST(CodecRoundTrip, RandomLengthsAcrossBlockBoundaries) {
  std::mt19937_64 rng(20260808);
  for (int round = 0; round < 200; ++round) {
    // Lengths clustered around the 128-value block boundaries.
    const size_t base = (round % 4) * 128;
    const size_t len = base + rng() % 10;
    std::vector<uint64_t> values(len);
    const unsigned width = static_cast<unsigned>(rng() % 65);
    const uint64_t mask =
        width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
    for (uint64_t& v : values) v = rng() & mask;
    ExpectRoundTrip(values);
  }
}

TEST(CodecRoundTrip, EveryWidthAndBlockTail) {
  // Each unpack path — zero, the byte-aligned widths 8/16/32/64, the 64-bit
  // bit-buffer, the wide 58..63 slow path — on full blocks and on short
  // tails that end the stream mid-word.
  std::mt19937_64 rng(19);
  for (unsigned width = 0; width <= 64; ++width) {
    const uint64_t mask = width == 0    ? 0
                          : width >= 64 ? ~uint64_t{0}
                                        : (uint64_t{1} << width) - 1;
    for (const size_t count : {size_t{1}, size_t{3}, size_t{4}, size_t{7},
                               size_t{128}, size_t{130}}) {
      std::vector<uint64_t> values(count);
      for (uint64_t& v : values) v = rng() & mask;
      SCOPED_TRACE(testing::Message() << "width " << width << " count "
                                      << count);
      ExpectRoundTrip(values);
    }
  }
}

// --------------------------------------------------------- encoded size ----

TEST(CodecSize, SmallValuesPackToTheirWidth) {
  // 1000 values < 256 pack to ~1 byte each where fixed-width u64s would
  // spend 8. The whole point of the layer — assert it, with slack.
  std::vector<uint64_t> values(1000);
  std::mt19937_64 rng(11);
  for (uint64_t& v : values) v = rng() % 256;
  EXPECT_LE(Encode(values).size(), values.size() * 8 / 4);
}

TEST(CodecSize, ZeroRunsCollapse) {
  const std::vector<uint64_t> zeros(1024, 0);
  // The tag byte plus one width-0 byte per 128-block.
  EXPECT_EQ(Encode(zeros).size(), 1 + zeros.size() / 128);
}

// ----------------------------------------------------------------- fuzz ----

// Shared oracle: decoding must return (not crash, not hang); when it
// succeeds on mutated bytes the result must still have the expected count
// (success-with-wrong-length would desynchronize the enclosing section).
void DecodeMustSurvive(const std::string& bytes, size_t count) {
  Result<std::vector<uint64_t>> out = Decode(bytes, count);
  if (out.ok()) {
    EXPECT_EQ(out->size(), count);
  }
}

TEST(CodecFuzz, EveryTruncationPrefixFailsCleanly) {
  std::mt19937_64 rng(20260808);
  std::vector<uint64_t> values(200);
  for (uint64_t& v : values) v = rng() % 100000;
  const std::string bytes = Encode(values);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    // A strict prefix can never satisfy a decoder that consumed the whole
    // encoding: every truncation must be detected.
    EXPECT_FALSE(Decode(bytes.substr(0, cut), values.size()).ok())
        << "accepted a " << cut << "-byte prefix of " << bytes.size();
  }
}

TEST(CodecFuzz, SingleByteFlipsNeverCrash) {
  std::mt19937_64 rng(1);
  std::vector<uint64_t> values(150);
  for (uint64_t& v : values) v = rng() % 4096;
  std::sort(values.begin(), values.end());
  const std::string bytes = Encode(values);
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (const uint8_t flip : {0x01, 0x80, 0xFF}) {
      std::string mutated = bytes;
      mutated[pos] = static_cast<char>(mutated[pos] ^ flip);
      DecodeMustSurvive(mutated, values.size());
    }
  }
}

TEST(CodecFuzz, SeededGarbageNeverCrashesTheDecoder) {
  // frame_test.cc's garbage-fuzz idiom over the stream decoder: arbitrary
  // bytes behind a valid tag (and behind arbitrary ones), arbitrary
  // requested counts (including adversarially huge ones aimed at
  // size-computation overflow).
  std::mt19937_64 rng(20260808);
  std::string buf;
  for (int round = 0; round < 4000; ++round) {
    buf.resize(rng() % 256);
    for (char& b : buf) b = static_cast<char>(rng());
    if (round % 2 == 0 && !buf.empty()) buf[0] = static_cast<char>(kBitPackTag);
    const size_t counts[] = {0, 1, rng() % 1000, size_t{1} << 20,
                             ~size_t{0} / 2, ~size_t{0}};
    for (const size_t count : counts) DecodeMustSurvive(buf, count);
  }
}

TEST(CodecFuzz, TaggedStreamUnknownTagRejected) {
  // Tags 0, 1 and 3 were the retired raw, group-varint and Elias-Fano codecs;
  // every tag but bitpack's must fail, whatever follows it.
  for (int tag = 0; tag < 256; ++tag) {
    if (tag == kBitPackTag) continue;
    std::string bytes(1, static_cast<char>(tag));
    bytes += std::string(64, '\0');
    EXPECT_FALSE(Decode(bytes, 8).ok()) << "tag " << tag;
  }
}

}  // namespace
}  // namespace codec
}  // namespace storage
}  // namespace slpspan
