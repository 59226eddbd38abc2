#include "io/write_file.hpp"

#include <fstream>

#include "support/macros.hpp"

namespace eimm {

void write_file(const std::string& path, const char* what,
                const std::function<void(std::ostream&)>& body) {
  std::ofstream os(path, std::ios::binary);
  if (!os.good()) {
    throw CheckError(std::string("cannot open ") + what + " for writing: " +
                     path);
  }
  body(os);
  os.close();
  if (os.fail()) throw CheckError(std::string(what) + " write failed: " + path);
}

}  // namespace eimm
