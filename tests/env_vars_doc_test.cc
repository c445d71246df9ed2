// Keeps README.md's "Environment variables" table in sync with the code:
// every getenv("MATRYOSHKA_...") under src/ must have a row, and every
// MATRYOSHKA_* row must name a variable src/ still reads.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Variable names passed to getenv in src/ (headers and sources).
std::set<std::string> NamesReadBySource() {
  const std::regex getenv_call(R"(getenv\(\s*"(MATRYOSHKA_[A-Z0-9_]+)\")");
  std::set<std::string> names;
  for (const auto& entry : fs::recursive_directory_iterator(
           fs::path(MATRYOSHKA_SOURCE_DIR) / "src")) {
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    const std::string text = ReadFile(entry.path());
    for (std::sregex_iterator it(text.begin(), text.end(), getenv_call), end;
         it != end; ++it) {
      names.insert((*it)[1].str());
    }
  }
  return names;
}

/// MATRYOSHKA_* names in the first column of README's environment table.
std::set<std::string> NamesDocumentedInReadme() {
  const std::string readme =
      ReadFile(fs::path(MATRYOSHKA_SOURCE_DIR) / "README.md");
  const std::string heading = "## Environment variables\n";
  const std::size_t begin = readme.find(heading);
  if (begin == std::string::npos) return {};
  const std::size_t end = readme.find("\n## ", begin + heading.size());
  std::istringstream section(readme.substr(begin, end - begin));
  const std::regex row(R"(^\| `(MATRYOSHKA_[A-Z0-9_]+)[=`])");
  std::set<std::string> names;
  std::smatch m;
  for (std::string line; std::getline(section, line);) {
    if (std::regex_search(line, m, row)) names.insert(m[1].str());
  }
  return names;
}

TEST(EnvVarsDocTest, ReadmeTableExists) {
  EXPECT_FALSE(NamesDocumentedInReadme().empty())
      << "README.md has no MATRYOSHKA_* rows under \"## Environment "
         "variables\"";
}

TEST(EnvVarsDocTest, EveryVariableSourceReadsIsDocumented) {
  const std::set<std::string> documented = NamesDocumentedInReadme();
  for (const std::string& name : NamesReadBySource()) {
    EXPECT_TRUE(documented.count(name) != 0)
        << name << " is read in src/ but missing from README.md's "
        << "\"Environment variables\" table";
  }
}

TEST(EnvVarsDocTest, EveryDocumentedVariableIsRead) {
  const std::set<std::string> read = NamesReadBySource();
  for (const std::string& name : NamesDocumentedInReadme()) {
    EXPECT_TRUE(read.count(name) != 0)
        << name << " is listed in README.md's \"Environment variables\" "
        << "table but src/ no longer reads it";
  }
}

}  // namespace
