// Durable file primitives for the storage layer.
//
// WriteFileDurable implements the crash-safety protocol every snapshot
// relies on: write to `<path>.tmp`, fsync the file, atomically rename
// over `<path>`, then fsync the containing directory. A crash at any
// point leaves either the old durable file or the new one — never a
// torn mix — and a stray `.tmp` from a killed writer is ignored by
// readers and overwritten by the next write.
//
// ReadFileBytes is the checked inverse: it distinguishes end-of-file
// from a mid-read stream failure and throws StorageError(kIo) on the
// latter, so a failing disk can never masquerade as a short-but-valid
// file.

#ifndef CAUSUMX_STORAGE_FILE_IO_H_
#define CAUSUMX_STORAGE_FILE_IO_H_

#include <string>
#include <vector>

namespace causumx {

/// Atomically and durably replaces `path` with `bytes` (write-to-temp +
/// fsync + rename + directory fsync). Throws StorageError(kIo) on any
/// failure; on failure the previous `path` contents are untouched.
void WriteFileDurable(const std::string& path, const std::string& bytes);

/// Reads the whole file into a byte string. Throws StorageError(kIo) if
/// the file cannot be opened or the stream fails mid-read (bad(), short
/// read) — a clean EOF is the only way to return.
std::string ReadFileBytes(const std::string& path);

/// True if `path` exists and is a regular file.
bool FileExists(const std::string& path);

/// Escapes a table name into a filesystem-safe file stem: bytes outside
/// [A-Za-z0-9._-] become %XX. Injective, so distinct table names never
/// collide on disk.
std::string EncodeFileStem(const std::string& name);

/// Inverse of EncodeFileStem. A malformed escape (truncated or non-hex
/// %XX) throws StorageError(kCorrupt) — stems only come from our own
/// writer, so damage means the directory was tampered with.
std::string DecodeFileStem(const std::string& stem);

/// Creates directory `dir` and any missing parents, like `mkdir -p`; an
/// existing directory is fine. Throws StorageError(kIo) when `dir` cannot
/// be created or exists as something other than a directory.
void CreateDirectories(const std::string& dir);

/// Names (not paths) of the regular files directly inside `dir`,
/// sorted. A missing or unreadable directory yields an empty list —
/// restore-time scanning treats both as "nothing saved yet".
std::vector<std::string> ListDirFiles(const std::string& dir);

}  // namespace causumx

#endif  // CAUSUMX_STORAGE_FILE_IO_H_
