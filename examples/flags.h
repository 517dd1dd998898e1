// Minimal shared command-line flag parser for the example binaries.
// Accepts `--name=value`, `--name value`, and bare `--name` (boolean
// true); `--help` / `-h` set help(). Typed getters record which flags a
// binary consumed so Unknown() can report typos the way the examples
// always have (unknown flag -> print help, exit non-zero).

#ifndef BOUNCER_EXAMPLES_FLAGS_H_
#define BOUNCER_EXAMPLES_FLAGS_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace bouncer::examples {

class CliFlags {
 public:
  CliFlags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
        help_ = true;
        continue;
      }
      if (std::strncmp(arg, "--", 2) != 0) {
        unknown_.push_back(arg);  // Positional args are not used anywhere.
        continue;
      }
      Entry entry;
      const char* eq = std::strchr(arg + 2, '=');
      if (eq != nullptr) {
        entry.name.assign(arg + 2, eq - (arg + 2));
        entry.value = eq + 1;
        entry.has_value = true;
      } else {
        entry.name = arg + 2;
        // `--name value`: the next token is the value unless it looks
        // like another flag.
        if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
          entry.value = argv[++i];
          entry.has_value = true;
        }
      }
      entries_.push_back(std::move(entry));
    }
  }

  bool help() const { return help_; }

  bool Has(const char* name) const {
    for (const Entry& e : entries_) {
      if (e.name == name) return true;
    }
    return false;
  }

  std::string GetString(const char* name, const std::string& fallback) {
    const Entry* e = Consume(name);
    return e != nullptr && e->has_value ? e->value : fallback;
  }

  double GetDouble(const char* name, double fallback) {
    const Entry* e = Consume(name);
    return e != nullptr && e->has_value ? std::atof(e->value.c_str())
                                        : fallback;
  }

  int64_t GetInt(const char* name, int64_t fallback) {
    const Entry* e = Consume(name);
    return e != nullptr && e->has_value
               ? std::strtoll(e->value.c_str(), nullptr, 10)
               : fallback;
  }

  uint64_t GetUint(const char* name, uint64_t fallback) {
    const Entry* e = Consume(name);
    return e != nullptr && e->has_value
               ? std::strtoull(e->value.c_str(), nullptr, 10)
               : fallback;
  }

  /// Bare `--name` means true; otherwise parses 1/0/true/false.
  bool GetBool(const char* name, bool fallback) {
    const Entry* e = Consume(name);
    if (e == nullptr) return fallback;
    if (!e->has_value) return true;
    return e->value == "1" || e->value == "true";
  }

  /// Flags that were passed but never consumed by a getter (plus any
  /// positional arguments). Call after all getters.
  std::vector<std::string> Unknown() const {
    std::vector<std::string> out = unknown_;
    for (const Entry& e : entries_) {
      if (!e.consumed) out.push_back("--" + e.name);
    }
    return out;
  }

 private:
  struct Entry {
    std::string name;
    std::string value;
    bool has_value = false;
    bool consumed = false;
  };

  Entry* Consume(const char* name) {
    for (Entry& e : entries_) {
      if (e.name == name) {
        e.consumed = true;
        return &e;
      }
    }
    return nullptr;
  }

  std::vector<Entry> entries_;
  std::vector<std::string> unknown_;
  bool help_ = false;
};

}  // namespace bouncer::examples

#endif  // BOUNCER_EXAMPLES_FLAGS_H_
