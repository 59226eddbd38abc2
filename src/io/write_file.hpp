// Checked file output shared by every file writer in the project: CSR
// graphs, sketch-store snapshots and the JSON logs.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

namespace eimm {

/// Opens `path` for binary writing, writes it through `body`, then
/// closes the file and checks the stream. Buffered bytes reach the file
/// only at flush/close, so a check before it would pass a short write (a
/// full disk) and report a truncated file as written. Throws CheckError
/// naming `what` when the open or any write fails.
void write_file(const std::string& path, const char* what,
                const std::function<void(std::ostream&)>& body);

}  // namespace eimm
