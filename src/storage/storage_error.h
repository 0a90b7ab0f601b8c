// Typed errors for the persistence layer and for stream-state failures
// in readers/writers repo-wide. Deriving from std::runtime_error keeps
// the existing catch sites (CSV fuzzers, batch error lines, REST 4xx
// mapping) working unchanged.

#ifndef CAUSUMX_STORAGE_STORAGE_ERROR_H_
#define CAUSUMX_STORAGE_STORAGE_ERROR_H_

#include <stdexcept>
#include <string>

namespace causumx {

/// What went wrong while reading or writing durable state.
enum class StorageErrorKind {
  /// The underlying stream or file failed (badbit, short read/write,
  /// failed flush/fsync/rename) — distinct from a clean EOF.
  kIo,
  /// The bytes were read back fine but do not decode: bad magic, CRC
  /// mismatch, truncated section, impossible length.
  kCorrupt,
  /// The file decodes but was produced for different content — format
  /// version skew or a snapshot key that does not match the live table.
  kStale,
};

/// Error thrown by the storage layer and by the CSV/batch readers when a
/// stream fails mid-read (as opposed to reaching EOF). `kind()` lets
/// callers distinguish I/O failures from corruption from staleness; the
/// service uses that to decide "retry" vs "discard snapshot, rebuild
/// cold".
class StorageError : public std::runtime_error {
 public:
  /// An error of class `kind`; `message` becomes what().
  StorageError(StorageErrorKind kind, const std::string& message)
      : std::runtime_error(message), kind_(kind) {}

  /// The failure class (I/O vs corruption vs staleness).
  StorageErrorKind kind() const { return kind_; }

 private:
  StorageErrorKind kind_;
};

}  // namespace causumx

#endif  // CAUSUMX_STORAGE_STORAGE_ERROR_H_
