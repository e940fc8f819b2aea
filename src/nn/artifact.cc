#include "nn/artifact.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>

namespace targad {
namespace nn {

namespace {

// On-disk structures. Fixed-width fields, no implicit padding; asserted so
// a compiler that disagrees about layout fails the build instead of
// producing unreadable files.
struct ArtifactHeader {
  char magic[8];
  uint32_t version;
  uint32_t dtype;
  uint64_t num_sections;
  uint64_t meta_offset;
  uint64_t meta_size;
  uint64_t table_offset;
  uint64_t file_size;
  uint64_t reserved;
};
static_assert(sizeof(ArtifactHeader) == 64, "header must be 64 bytes");

struct SectionDesc {
  uint64_t offset;
  uint64_t rows;
  uint64_t cols;
};
static_assert(sizeof(SectionDesc) == 24, "section descriptor must be 24 bytes");

struct ArtifactFooter {
  uint64_t trailer_magic;
  uint64_t checksum;  ///< Of bytes [0, file_size - 8); see kFormatVersion.
};
static_assert(sizeof(ArtifactFooter) == 16, "footer must be 16 bytes");

constexpr char kMagic[8] = {'T', 'A', 'R', 'G', 'A', 'D', '1', '\0'};
// ArtifactWriter writes version 2 (XXH64 footer); version 1 files, whose
// footer is FNV-1a, still load.
constexpr uint32_t kFormatVersion = 2;
constexpr uint32_t kFnvFormatVersion = 1;
constexpr uint64_t kTrailerMagic = 0x31445A4747524154ull;  // "TARGGZD1"
constexpr size_t kPayloadAlign = 64;

constexpr uint32_t kDtypeTagFloat32 = 1;
constexpr uint32_t kDtypeTagFloat64 = 2;

uint32_t DtypeTag(Dtype dtype) {
  return dtype == Dtype::kFloat32 ? kDtypeTagFloat32 : kDtypeTagFloat64;
}

size_t ElemSize(Dtype dtype) {
  return dtype == Dtype::kFloat32 ? sizeof(float) : sizeof(double);
}

size_t AlignUp(size_t n, size_t align) {
  return (n + align - 1) / align * align;
}

// XXH64 primes and steps, as in the xxHash specification.
constexpr uint64_t kPrime64_1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kPrime64_2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kPrime64_3 = 0x165667B19E3779F9ull;
constexpr uint64_t kPrime64_4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kPrime64_5 = 0x27D4EB2F165667C5ull;

uint64_t Rotl64(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

// Native loads: the format is little-endian only.
uint64_t Read64(const unsigned char* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t Read32(const unsigned char* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t XxhRound(uint64_t acc, uint64_t input) {
  return Rotl64(acc + input * kPrime64_2, 31) * kPrime64_1;
}

uint64_t XxhMerge(uint64_t acc, uint64_t lane) {
  return (acc ^ XxhRound(0, lane)) * kPrime64_1 + kPrime64_4;
}

}  // namespace

uint64_t Fnv1a64(const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t Xxh64(const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + size;
  uint64_t h = kPrime64_5;  // Inputs shorter than one stripe start here.
  if (size >= 32) {
    // Four independent lanes over 32-byte stripes.
    uint64_t v1 = kPrime64_1 + kPrime64_2;
    uint64_t v2 = kPrime64_2;
    uint64_t v3 = 0;
    uint64_t v4 = 0 - kPrime64_1;
    for (; end - p >= 32; p += 32) {
      v1 = XxhRound(v1, Read64(p));
      v2 = XxhRound(v2, Read64(p + 8));
      v3 = XxhRound(v3, Read64(p + 16));
      v4 = XxhRound(v4, Read64(p + 24));
    }
    h = Rotl64(v1, 1) + Rotl64(v2, 7) + Rotl64(v3, 12) + Rotl64(v4, 18);
    h = XxhMerge(h, v1);
    h = XxhMerge(h, v2);
    h = XxhMerge(h, v3);
    h = XxhMerge(h, v4);
  }
  h += size;
  // The tail: 8-byte words, at most one 4-byte word, then single bytes.
  for (; end - p >= 8; p += 8) {
    h = Rotl64(h ^ XxhRound(0, Read64(p)), 27) * kPrime64_1 + kPrime64_4;
  }
  if (end - p >= 4) {
    h = Rotl64(h ^ (uint64_t{Read32(p)} * kPrime64_1), 23) * kPrime64_2 +
        kPrime64_3;
    p += 4;
  }
  for (; p < end; ++p) {
    h = Rotl64(h ^ (uint64_t{*p} * kPrime64_5), 11) * kPrime64_1;
  }
  // Avalanche.
  h ^= h >> 33;
  h *= kPrime64_2;
  h ^= h >> 29;
  h *= kPrime64_3;
  h ^= h >> 32;
  return h;
}

void ArtifactWriter::AddTensor(size_t rows, size_t cols, const void* data) {
  sections_.push_back(PendingSection{rows, cols, data});
}

std::string ArtifactWriter::Serialize() const {
  const size_t elem = ElemSize(dtype_);

  // Lay the file out front to back; payload offsets are 64-byte aligned so
  // tensor pointers into the 64-byte-aligned load buffer are cache-line
  // aligned.
  const size_t meta_offset = sizeof(ArtifactHeader);
  const size_t table_offset = AlignUp(meta_offset + meta_.size(), 8);
  std::vector<SectionDesc> table(sections_.size());
  size_t cursor = table_offset + sections_.size() * sizeof(SectionDesc);
  for (size_t i = 0; i < sections_.size(); ++i) {
    cursor = AlignUp(cursor, kPayloadAlign);
    table[i].offset = cursor;
    table[i].rows = sections_[i].rows;
    table[i].cols = sections_[i].cols;
    cursor += sections_[i].rows * sections_[i].cols * elem;
  }
  const size_t file_size = cursor + sizeof(ArtifactFooter);

  ArtifactHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kFormatVersion;
  header.dtype = DtypeTag(dtype_);
  header.num_sections = sections_.size();
  header.meta_offset = meta_offset;
  header.meta_size = meta_.size();
  header.table_offset = table_offset;
  header.file_size = file_size;

  std::string buf(file_size, '\0');
  std::memcpy(buf.data(), &header, sizeof(header));
  std::memcpy(buf.data() + meta_offset, meta_.data(), meta_.size());
  if (!table.empty()) {
    std::memcpy(buf.data() + table_offset, table.data(),
                table.size() * sizeof(SectionDesc));
  }
  for (size_t i = 0; i < sections_.size(); ++i) {
    std::memcpy(buf.data() + table[i].offset, sections_[i].data,
                sections_[i].rows * sections_[i].cols * elem);
  }

  ArtifactFooter footer{};
  footer.trailer_magic = kTrailerMagic;
  std::memcpy(buf.data() + cursor, &footer.trailer_magic,
              sizeof(footer.trailer_magic));
  footer.checksum = Xxh64(buf.data(), file_size - sizeof(footer.checksum));
  std::memcpy(buf.data() + cursor + sizeof(footer.trailer_magic),
              &footer.checksum, sizeof(footer.checksum));
  return buf;
}

Status ArtifactWriter::WriteFile(const std::string& path) const {
  // A server may load `path` at any moment (a cold promotion, a refresh
  // poll), so the file is never rewritten in place: a reader could see
  // half-written bytes, which the checksum would reject — but as a failed
  // load. The bytes go to a sibling temp file that is synced and then
  // renamed over `path`, so every reader sees the old file or the new one.
  static std::atomic<uint64_t> temp_counter{0};
  const std::string temp = path + ".tmp." + std::to_string(::getpid()) + "." +
                           std::to_string(temp_counter.fetch_add(1));
  const int fd =
      ::open(temp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (fd < 0) return Status::IOError("artifact: cannot open for write: ", temp);
  const std::string buf = Serialize();
  size_t written = 0;
  while (written < buf.size()) {
    const ssize_t n = ::write(fd, buf.data() + written, buf.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    written += static_cast<size_t>(n);
  }
  const bool synced = written == buf.size() && ::fsync(fd) == 0;
  const bool closed = ::close(fd) == 0;
  if (!synced || !closed || ::rename(temp.c_str(), path.c_str()) != 0) {
    ::unlink(temp.c_str());
    return Status::IOError("artifact: write failed: ", path);
  }
  return Status::OK();
}

Result<std::shared_ptr<const LoadedArtifact>> LoadedArtifact::Load(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("artifact: cannot open ", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IOError("artifact: cannot stat ", path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size < sizeof(ArtifactHeader) + sizeof(ArtifactFooter)) {
    ::close(fd);
    return Status::InvalidArgument("artifact: ", path, ": file too short (",
                                   size, " bytes)");
  }
  // The checksum below reads every byte anyway, so one read into a private
  // buffer costs no more than a mapping would — and later writes to the
  // file cannot reach the bytes a scorer serves.
  auto artifact = std::shared_ptr<LoadedArtifact>(new LoadedArtifact());
  artifact->buffer_ =
      std::aligned_alloc(kPayloadAlign, AlignUp(size, kPayloadAlign));
  if (artifact->buffer_ == nullptr) {
    ::close(fd);
    return Status::IOError("artifact: cannot allocate ", size, " bytes for ",
                           path);
  }
  artifact->size_ = size;
  auto* bytes = static_cast<unsigned char*>(artifact->buffer_);
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd, bytes + done, size - done,
                              static_cast<off_t>(done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  if (done != size) {
    return Status::IOError("artifact: short read of ", path, " (", done,
                           " of ", size, " bytes)");
  }

  ArtifactHeader header{};
  std::memcpy(&header, bytes, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("artifact: ", path, ": bad magic");
  }
  if (header.version != kFormatVersion &&
      header.version != kFnvFormatVersion) {
    return Status::InvalidArgument("artifact: ", path,
                                   ": unsupported format version ",
                                   header.version);
  }
  if (header.dtype != kDtypeTagFloat32 && header.dtype != kDtypeTagFloat64) {
    return Status::InvalidArgument("artifact: ", path, ": unknown dtype tag ",
                                   header.dtype);
  }
  if (header.file_size != size) {
    return Status::InvalidArgument("artifact: ", path, ": header claims ",
                                   header.file_size, " bytes, file has ",
                                   size);
  }

  ArtifactFooter footer{};
  std::memcpy(&footer, bytes + size - sizeof(footer), sizeof(footer));
  if (footer.trailer_magic != kTrailerMagic) {
    return Status::InvalidArgument("artifact: ", path, ": bad trailer magic");
  }
  const size_t covered = size - sizeof(footer.checksum);
  const uint64_t computed = header.version == kFnvFormatVersion
                                ? Fnv1a64(bytes, covered)
                                : Xxh64(bytes, covered);
  if (computed != footer.checksum) {
    return Status::InvalidArgument("artifact: ", path,
                                   ": checksum mismatch (file corrupt?)");
  }

  artifact->version_ = header.version;
  artifact->dtype_ = header.dtype == kDtypeTagFloat32 ? Dtype::kFloat32
                                                      : Dtype::kFloat64;
  const size_t payload_floor = size - sizeof(footer);
  if (header.meta_offset > payload_floor ||
      header.meta_size > payload_floor - header.meta_offset) {
    return Status::InvalidArgument("artifact: ", path,
                                   ": meta blob out of bounds");
  }
  artifact->meta_ = std::string_view(
      reinterpret_cast<const char*>(bytes + header.meta_offset),
      header.meta_size);

  const size_t table_bytes = header.num_sections * sizeof(SectionDesc);
  if (header.num_sections > payload_floor / sizeof(SectionDesc) ||
      header.table_offset > payload_floor ||
      table_bytes > payload_floor - header.table_offset) {
    return Status::InvalidArgument("artifact: ", path,
                                   ": section table out of bounds");
  }

  const size_t elem = ElemSize(artifact->dtype_);
  artifact->sections_.reserve(header.num_sections);
  for (uint64_t i = 0; i < header.num_sections; ++i) {
    SectionDesc desc{};
    std::memcpy(&desc, bytes + header.table_offset + i * sizeof(SectionDesc),
                sizeof(desc));
    if (desc.offset % kPayloadAlign != 0) {
      return Status::InvalidArgument("artifact: ", path, ": section ", i,
                                     " payload misaligned");
    }
    // Overflow-safe bounds check: rows*cols*elem must fit before the footer.
    if (desc.rows != 0 && desc.cols > payload_floor / desc.rows) {
      return Status::InvalidArgument("artifact: ", path, ": section ", i,
                                     " shape overflows");
    }
    const size_t payload = desc.rows * desc.cols * elem;
    if (desc.offset > payload_floor || payload > payload_floor - desc.offset) {
      return Status::InvalidArgument("artifact: ", path, ": section ", i,
                                     " truncated (", payload, " bytes at ",
                                     desc.offset, ", file ends at ",
                                     payload_floor, ")");
    }
    artifact->sections_.push_back(
        Section{static_cast<size_t>(desc.rows), static_cast<size_t>(desc.cols),
                bytes + desc.offset});
  }
  return std::shared_ptr<const LoadedArtifact>(std::move(artifact));
}

LoadedArtifact::~LoadedArtifact() { std::free(buffer_); }

template <typename T>
Result<const T*> LoadedArtifact::Tensor(size_t i, size_t rows,
                                        size_t cols) const {
  const bool want_f32 = std::is_same_v<T, float>;
  if (want_f32 != (dtype_ == Dtype::kFloat32)) {
    return Status::InvalidArgument("artifact: section ", i,
                                   " element type does not match dtype ",
                                   DtypeName(dtype_));
  }
  if (i >= sections_.size()) {
    return Status::InvalidArgument("artifact: no section ", i, " (file has ",
                                   sections_.size(), ")");
  }
  const Section& s = sections_[i];
  if (s.rows != rows || s.cols != cols) {
    return Status::InvalidArgument("artifact: section ", i, " is ", s.rows,
                                   "x", s.cols, ", expected ", rows, "x",
                                   cols);
  }
  return static_cast<const T*>(s.data);
}

template Result<const float*> LoadedArtifact::Tensor<float>(size_t, size_t,
                                                            size_t) const;
template Result<const double*> LoadedArtifact::Tensor<double>(size_t, size_t,
                                                              size_t) const;

}  // namespace nn
}  // namespace targad
