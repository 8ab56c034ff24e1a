// The integer-stream encoding of the ".prep" bundle format v2 — the one
// layer allowed to turn a section's uint64 stream into bytes and back.
//
// Every v2 section that carries an integer stream writes it as a *tagged
// stream*: one tag byte (always kBitPackTag) followed by the values in
// blocks of 128, each block a width byte (the block's max bit width, 0..64)
// and then its values packed LSB-first at that width (SIMD-BP128 layout).
// `count` is always known to the reader from surrounding section data and
// is never stored in the stream itself.
//
// The tag byte is kept so that files written by older builds, whose
// streams could carry the retired tags 0, 1 and 3, are recognised and
// rejected. The decoder is strictly bounds-checked, mirroring
// bundle_format.h: every length implied by the input is validated against
// the reader's remaining bytes *before* any allocation is sized from it,
// so truncated, corrupt or adversarial input surfaces as Status
// (kCorruption), never a crash, hang or out-of-bounds access. Round-trips
// and the decoder fuzzing live in tests/codec_test.cc.

#ifndef SLPSPAN_STORAGE_CODEC_CODEC_H_
#define SLPSPAN_STORAGE_CODEC_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/bundle_format.h"
#include "util/status.h"

namespace slpspan {
namespace storage {
namespace codec {

/// The only stream tag format v2 readers accept.
inline constexpr uint8_t kBitPackTag = 2;

/// Appends values[0..count) to `*w` as a tagged, block-bitpacked stream.
void WriteTaggedU64s(const uint64_t* values, size_t count, BundleWriter* w);

/// Reads a tagged stream of exactly `count` values into `*out` (resized
/// only after the stream's minimum encoded size has been validated against
/// the reader). kCorruption on any tag other than kBitPackTag or on a
/// malformed payload.
Status ReadTaggedU64s(BundleReader* r, size_t count,
                      std::vector<uint64_t>* out);

}  // namespace codec
}  // namespace storage
}  // namespace slpspan

#endif  // SLPSPAN_STORAGE_CODEC_CODEC_H_
