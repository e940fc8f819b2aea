// Versioned flat artifact container (".tgz1"): the on-disk form of a
// frozen inference plan. The file is designed so a reader never parses
// tensor data — it reads the file once into one owned 64-byte-aligned
// buffer, validates the header and footer checksum, and hands out pointers
// straight into that buffer. Cold-starting a model is then one read plus a
// checksum pass instead of a text parse. The served bytes are private and
// already checked: rewriting or truncating the file afterwards cannot reach
// a loaded artifact.
//
// Layout (all integers little-endian, offsets from the file start):
//
//   [0, 64)                  ArtifactHeader: magic "TARGAD1\0", format
//                            version, dtype tag, section count, and the
//                            offsets/sizes of everything below.
//   [meta_offset, +meta_size)  opaque meta blob — caller-defined bytes
//                            (core::FrozenScorer stores its schema text
//                            here: columns, class names, encoder, steps).
//   [table_offset, +24*n)    SectionDesc[n]: per-tensor {offset, rows, cols}.
//   ...                      tensor payloads, each 64-byte aligned so a
//                            pointer into the (64-byte-aligned) load buffer
//                            is cache-line and SIMD aligned.
//   [file_size-16, file_size)  ArtifactFooter: trailer magic + checksum
//                            of every preceding byte (the trailer magic
//                            included). Format version 2, the only one
//                            ArtifactWriter writes, uses XXH64 (seed 0);
//                            version 1 files use FNV-1a-64 and still load.
//                            The header's version picks the checksum.
//
// The checksum detects corruption, not a hostile writer: anyone can
// recompute it, so everything past it is still bounds-checked.
//
// The format stores element bytes exactly as the writer's process held
// them (native little-endian float32/float64), so a load is bit-identical
// to the frozen plan that was saved — the exactness contract the serving
// tests pin down.

#ifndef TARGAD_NN_ARTIFACT_H_
#define TARGAD_NN_ARTIFACT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "nn/frozen.h"

namespace targad {
namespace nn {

/// Canonical file extension for flat frozen artifacts.
inline constexpr const char kArtifactExtension[] = ".tgz1";

/// FNV-1a 64-bit over `size` bytes — the footer checksum of format
/// version 1.
uint64_t Fnv1a64(const void* data, size_t size);

/// XXH64 with seed 0 over `size` bytes, per the xxHash specification — the
/// footer checksum of format version 2. Portable: every build computes the
/// same value.
uint64_t Xxh64(const void* data, size_t size);

/// Accumulates dtype-homogeneous tensor sections plus one opaque meta blob
/// and writes them as a single flat artifact file. Tensor data is borrowed:
/// every pointer passed to AddTensor must stay valid until WriteFile
/// returns.
class ArtifactWriter {
 public:
  explicit ArtifactWriter(Dtype dtype) : dtype_(dtype) {}

  /// Opaque caller-defined bytes stored between the header and the section
  /// table (schema text, not tensor data).
  void set_meta(std::string meta) { meta_ = std::move(meta); }

  /// Appends one (rows x cols) row-major tensor section in the writer's
  /// dtype. `data` is borrowed, not copied.
  void AddTensor(size_t rows, size_t cols, const void* data);

  /// Serializes header + meta + section table + aligned payloads + footer
  /// checksum to `path`, atomically: a synced sibling temp file is renamed
  /// over it, so a concurrent load sees the old file or the new one, never
  /// a torn mix.
  [[nodiscard]] Status WriteFile(const std::string& path) const;

  /// In-memory serialization — the byte-exact file contents. Exposed for
  /// tests that corrupt specific offsets.
  std::string Serialize() const;

 private:
  struct PendingSection {
    size_t rows = 0;
    size_t cols = 0;
    const void* data = nullptr;
  };

  Dtype dtype_;
  std::string meta_;
  std::vector<PendingSection> sections_;
};

/// One artifact file, read into an owned buffer and validated. Load()
/// verifies the magic, format version, dtype tag, section bounds, and
/// footer checksum up front; after that every accessor is a pointer into
/// the buffer, with no further I/O. Returned as shared_ptr so snapshots
/// built over the buffer (FrozenScorer, registry entries, in-flight
/// batches) pin its lifetime — it is freed when the last reference drops.
class LoadedArtifact {
 public:
  struct Section {
    size_t rows = 0;
    size_t cols = 0;
    const void* data = nullptr;  ///< 64-byte aligned, inside the buffer.
  };

  /// Reads and validates `path`, checking the footer with the checksum of
  /// the header's format version (XXH64 for 2, FNV-1a for 1). Any
  /// structural defect — short file, bad magic, unknown version or dtype,
  /// out-of-bounds section, checksum mismatch — is InvalidArgument; an
  /// open, read or allocation failure (including a file that shrinks while
  /// it is read) is IOError.
  [[nodiscard]] static Result<std::shared_ptr<const LoadedArtifact>> Load(
      const std::string& path);

  ~LoadedArtifact();

  LoadedArtifact(const LoadedArtifact&) = delete;
  LoadedArtifact& operator=(const LoadedArtifact&) = delete;

  Dtype dtype() const { return dtype_; }
  uint32_t version() const { return version_; }
  size_t file_size() const { return size_; }
  std::string_view meta() const { return meta_; }
  size_t num_sections() const { return sections_.size(); }

  /// Section `i`; CHECK-free, caller keeps i < num_sections().
  const Section& section(size_t i) const { return sections_[i]; }

  /// Typed payload pointer of section `i` after an element-type check
  /// against dtype(); InvalidArgument on a T/dtype mismatch or an
  /// unexpected shape.
  template <typename T>
  [[nodiscard]] Result<const T*> Tensor(size_t i, size_t rows,
                                        size_t cols) const;

 private:
  LoadedArtifact() = default;

  void* buffer_ = nullptr;  ///< The file's bytes, 64-byte aligned; owned.
  size_t size_ = 0;
  Dtype dtype_ = Dtype::kFloat64;
  uint32_t version_ = 0;
  std::string_view meta_;          ///< Points into the buffer.
  std::vector<Section> sections_;  ///< Fixed up once during Load().
};

}  // namespace nn
}  // namespace targad

#endif  // TARGAD_NN_ARTIFACT_H_
