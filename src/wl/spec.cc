#include "wl/spec.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

namespace rdbsc::wl {
namespace {

/// One whitespace-delimited token with its 1-based source position.
struct Token {
  std::string text;
  int line = 0;
  int col = 0;
  bool quoted = false;
};

/// Everything `}`-terminated blocks and top-level dispatch share: the
/// spec under construction, the template table, and the include stack
/// (canonical paths of every file currently being parsed, outermost
/// first -- membership means a cycle).
struct ParseState {
  WorkloadSpec spec;
  std::map<std::string, PhaseSpec> templates;
  const FileLoader* loader = nullptr;
  std::vector<std::string> include_stack;
  bool saw_workload_name = false;
};

std::string Pos(const std::string& source, const Token& token) {
  return source + ":" + std::to_string(token.line) + ":" +
         std::to_string(token.col) + ": ";
}

util::Status Err(const std::string& source, const Token& token,
                 const std::string& message) {
  return util::Status::InvalidArgument(Pos(source, token) + message);
}

/// Splits one line into tokens. Strips `#` comments (outside quotes);
/// a `"..."` group is one token with quotes removed (no escapes).
util::Status TokenizeLine(const std::string& source, std::string_view line,
                          int line_no, std::vector<Token>& out) {
  size_t i = 0;
  while (i < line.size()) {
    char c = line[i];
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    if (c == '#') break;
    Token token;
    token.line = line_no;
    token.col = static_cast<int>(i) + 1;
    if (c == '"') {
      size_t end = line.find('"', i + 1);
      if (end == std::string_view::npos) {
        return Err(source, token, "unterminated string literal");
      }
      token.text = std::string(line.substr(i + 1, end - i - 1));
      token.quoted = true;
      i = end + 1;
    } else {
      size_t end = i;
      while (end < line.size() && line[end] != ' ' && line[end] != '\t' &&
             line[end] != '\r' && line[end] != '#') {
        ++end;
      }
      token.text = std::string(line.substr(i, end - i));
      i = end;
    }
    out.push_back(std::move(token));
  }
  return util::Status::OK();
}

bool IsIdentifier(std::string_view text) {
  if (text.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(text[0])) && text[0] != '_') {
    return false;
  }
  for (char c : text) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '-' && c != '.') {
      return false;
    }
  }
  return true;
}

util::Status ParseInt(const std::string& source, const Token& token,
                      int64_t& out) {
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(token.text.c_str(), &end, 10);
  if (errno != 0 || end == token.text.c_str() || *end != '\0') {
    return Err(source, token, "expected an integer, got '" + token.text + "'");
  }
  out = value;
  return util::Status::OK();
}

util::Status ParseNonNegInt(const std::string& source, const Token& token,
                            int64_t& out) {
  util::Status status = ParseInt(source, token, out);
  if (!status.ok()) return status;
  if (out < 0) {
    return Err(source, token, "expected a non-negative integer, got '" +
                                  token.text + "'");
  }
  return util::Status::OK();
}

util::Status ParseDouble(const std::string& source, const Token& token,
                         double& out) {
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(token.text.c_str(), &end);
  if (errno != 0 || end == token.text.c_str() || *end != '\0') {
    return Err(source, token, "expected a number, got '" + token.text + "'");
  }
  out = value;
  return util::Status::OK();
}

util::Status ExpectArgs(const std::string& source,
                        const std::vector<Token>& tokens, size_t count) {
  if (tokens.size() == count + 1) return util::Status::OK();
  if (tokens.size() < count + 1) {
    return Err(source, tokens[0],
               "'" + tokens[0].text + "' expects " + std::to_string(count) +
                   (count == 1 ? " argument" : " arguments"));
  }
  return Err(source, tokens[count + 1],
             "unexpected token '" + tokens[count + 1].text + "' after '" +
                 tokens[0].text + "'");
}

util::Status ParseRange(const std::string& source,
                        const std::vector<Token>& tokens, int64_t& lo,
                        int64_t& hi) {
  util::Status status = ExpectArgs(source, tokens, 2);
  if (!status.ok()) return status;
  status = ParseNonNegInt(source, tokens[1], lo);
  if (!status.ok()) return status;
  status = ParseNonNegInt(source, tokens[2], hi);
  if (!status.ok()) return status;
  if (lo > hi) {
    return Err(source, tokens[1],
               "empty range: " + std::to_string(lo) + " > " +
                   std::to_string(hi));
  }
  return util::Status::OK();
}

util::Status ParseCacheKeyword(const std::string& source, const Token& token,
                               bool allow_default, engine::CacheMode& out) {
  if (token.text == "off") {
    out = engine::CacheMode::kOff;
  } else if (token.text == "ro") {
    out = engine::CacheMode::kReadOnly;
  } else if (token.text == "wo") {
    out = engine::CacheMode::kWriteOnly;
  } else if (token.text == "rw") {
    out = engine::CacheMode::kReadWrite;
  } else if (allow_default && token.text == "default") {
    out = engine::CacheMode::kDefault;
  } else {
    return Err(source, token,
               "unknown cache mode '" + token.text + "' (expected off|ro|wo|rw" +
                   (allow_default ? "|default)" : ")"));
  }
  return util::Status::OK();
}

util::Status ParseOpKind(const std::string& source, const Token& token,
                         OpKind& out) {
  if (token.text == "submit") {
    out = OpKind::kSubmit;
  } else if (token.text == "urgent") {
    out = OpKind::kUrgent;
  } else if (token.text == "cached") {
    out = OpKind::kCached;
  } else if (token.text == "uncached") {
    out = OpKind::kUncached;
  } else if (token.text == "cancel") {
    out = OpKind::kCancel;
  } else {
    return Err(source, token,
               "unknown op kind '" + token.text +
                   "' (expected submit|urgent|cached|uncached|cancel)");
  }
  return util::Status::OK();
}

/// One statement inside a `template`/`phase` block.
util::Status ApplyPhaseStatement(const std::string& source,
                                 const std::vector<Token>& tokens,
                                 PhaseSpec& phase) {
  const std::string& key = tokens[0].text;
  util::Status status;
  if (key == "mode") {
    status = ExpectArgs(source, tokens, 1);
    if (!status.ok()) return status;
    if (tokens[1].text == "closed") {
      phase.mode = PhaseMode::kClosed;
    } else if (tokens[1].text == "open") {
      phase.mode = PhaseMode::kOpen;
    } else {
      return Err(source, tokens[1],
                 "unknown mode '" + tokens[1].text +
                     "' (expected closed|open)");
    }
    return util::Status::OK();
  }
  if (key == "submitters") {
    status = ExpectArgs(source, tokens, 1);
    if (!status.ok()) return status;
    return ParseNonNegInt(source, tokens[1], phase.submitters);
  }
  if (key == "iterations") {
    status = ExpectArgs(source, tokens, 1);
    if (!status.ok()) return status;
    return ParseNonNegInt(source, tokens[1], phase.iterations);
  }
  if (key == "duration") {
    status = ExpectArgs(source, tokens, 1);
    if (!status.ok()) return status;
    status = ParseDouble(source, tokens[1], phase.duration_seconds);
    if (!status.ok()) return status;
    if (phase.duration_seconds < 0.0) {
      return Err(source, tokens[1], "duration must be >= 0");
    }
    return util::Status::OK();
  }
  if (key == "rate") {
    status = ExpectArgs(source, tokens, 1);
    if (!status.ok()) return status;
    status = ParseDouble(source, tokens[1], phase.rate_per_second);
    if (!status.ok()) return status;
    if (phase.rate_per_second < 0.0) {
      return Err(source, tokens[1], "rate must be >= 0");
    }
    return util::Status::OK();
  }
  if (key == "arrival") {
    status = ExpectArgs(source, tokens, 1);
    if (!status.ok()) return status;
    if (tokens[1].text == "fixed") {
      phase.arrival = ArrivalProcess::kFixed;
    } else if (tokens[1].text == "poisson") {
      phase.arrival = ArrivalProcess::kPoisson;
    } else if (tokens[1].text == "burst") {
      phase.arrival = ArrivalProcess::kBurst;
    } else {
      return Err(source, tokens[1],
                 "unknown arrival process '" + tokens[1].text +
                     "' (expected fixed|poisson|burst)");
    }
    return util::Status::OK();
  }
  if (key == "tasks") {
    return ParseRange(source, tokens, phase.tasks_min, phase.tasks_max);
  }
  if (key == "workers") {
    return ParseRange(source, tokens, phase.workers_min, phase.workers_max);
  }
  if (key == "priority") {
    return ParseRange(source, tokens, phase.priority_min, phase.priority_max);
  }
  if (key == "seed_pool") {
    status = ExpectArgs(source, tokens, 1);
    if (!status.ok()) return status;
    status = ParseNonNegInt(source, tokens[1], phase.seed_pool);
    if (!status.ok()) return status;
    if (phase.seed_pool < 1) {
      return Err(source, tokens[1], "seed_pool must be >= 1");
    }
    return util::Status::OK();
  }
  if (key == "dist") {
    status = ExpectArgs(source, tokens, 1);
    if (!status.ok()) return status;
    if (tokens[1].text == "uniform") {
      phase.skewed = false;
    } else if (tokens[1].text == "skewed") {
      phase.skewed = true;
    } else {
      return Err(source, tokens[1],
                 "unknown distribution '" + tokens[1].text +
                     "' (expected uniform|skewed)");
    }
    return util::Status::OK();
  }
  if (key == "cache") {
    status = ExpectArgs(source, tokens, 1);
    if (!status.ok()) return status;
    return ParseCacheKeyword(source, tokens[1], /*allow_default=*/true,
                             phase.cache);
  }
  if (key == "restart") {
    status = ExpectArgs(source, tokens, 1);
    if (!status.ok()) return status;
    if (tokens[1].text == "on") {
      phase.restart = true;
    } else if (tokens[1].text == "off") {
      phase.restart = false;
    } else {
      return Err(source, tokens[1],
                 "expected on|off, got '" + tokens[1].text + "'");
    }
    return util::Status::OK();
  }
  if (key == "mix") {
    if (tokens.size() < 3 || (tokens.size() - 1) % 2 != 0) {
      return Err(source, tokens[0],
                 "'mix' expects op/weight pairs: mix OP W [OP W ...]");
    }
    std::vector<MixEntry> mix;
    int64_t total = 0;
    for (size_t i = 1; i + 1 < tokens.size(); i += 2) {
      MixEntry entry;
      status = ParseOpKind(source, tokens[i], entry.op);
      if (!status.ok()) return status;
      status = ParseNonNegInt(source, tokens[i + 1], entry.weight);
      if (!status.ok()) return status;
      for (const MixEntry& seen : mix) {
        if (seen.op == entry.op) {
          return Err(source, tokens[i],
                     "duplicate op kind '" + tokens[i].text + "' in mix");
        }
      }
      total += entry.weight;
      mix.push_back(entry);
    }
    if (total <= 0) {
      return Err(source, tokens[0], "mix weights must sum to > 0");
    }
    phase.mix = std::move(mix);
    return util::Status::OK();
  }
  return Err(source, tokens[0], "unknown phase key '" + key + "'");
}

/// Directory part of `path` including the trailing '/', or "" when there
/// is none -- what relative include paths join onto.
std::string DirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? "" : path.substr(0, slash + 1);
}

std::string StemOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  size_t dot = base.find_last_of('.');
  return dot == std::string::npos || dot == 0 ? base : base.substr(0, dot);
}

util::Status ParseInto(std::string_view text, const std::string& source,
                       ParseState& state);

/// `include "path"`: resolve against the including file's directory,
/// detect cycles, load, and parse into the same state.
util::Status HandleInclude(const std::string& source,
                           const std::vector<Token>& tokens,
                           ParseState& state) {
  util::Status status = ExpectArgs(source, tokens, 1);
  if (!status.ok()) return status;
  if (!tokens[1].quoted) {
    return Err(source, tokens[1], "include path must be a \"quoted\" string");
  }
  if (state.loader == nullptr || !*state.loader) {
    return Err(source, tokens[0], "includes are not available here");
  }
  std::string target = tokens[1].text;
  if (target.empty()) {
    return Err(source, tokens[1], "empty include path");
  }
  if (target[0] != '/') target = DirOf(source) + target;
  for (const std::string& open : state.include_stack) {
    if (open == target) {
      std::string chain;
      for (const std::string& entry : state.include_stack) {
        chain += entry + " -> ";
      }
      return Err(source, tokens[0],
                 "include cycle: " + chain + target);
    }
  }
  util::StatusOr<std::string> contents = (*state.loader)(target);
  if (!contents.ok()) {
    return Err(source, tokens[1],
               "cannot include '" + target +
                   "': " + contents.status().message());
  }
  return ParseInto(contents.value(), target, state);
}

/// Parses one document's statements into `state`. Pushes `source` onto
/// the include stack for the duration.
util::Status ParseInto(std::string_view text, const std::string& source,
                       ParseState& state) {
  state.include_stack.push_back(source);
  std::istringstream lines{std::string(text)};
  std::string line;
  int line_no = 0;

  // Block context: non-null while inside `template NAME {` / `phase NAME {`.
  PhaseSpec block;
  bool in_block = false;
  bool block_is_template = false;

  util::Status status;
  while (std::getline(lines, line)) {
    ++line_no;
    std::vector<Token> tokens;
    status = TokenizeLine(source, line, line_no, tokens);
    if (!status.ok()) break;
    if (tokens.empty()) continue;

    if (in_block) {
      if (tokens[0].text == "}") {
        status = ExpectArgs(source, tokens, 0);
        if (!status.ok()) break;
        if (block_is_template) {
          state.templates[block.name] = block;
        } else {
          state.spec.phases.push_back(block);
          // A later phase may extend an earlier one by name.
          state.templates[block.name] = block;
        }
        in_block = false;
        continue;
      }
      status = ApplyPhaseStatement(source, tokens, block);
      if (!status.ok()) break;
      continue;
    }

    const std::string& key = tokens[0].text;
    if (key == "template" || key == "phase") {
      // NAME [extends BASE] {
      bool has_extends = tokens.size() >= 3 && tokens[2].text == "extends";
      size_t expect = has_extends ? 4 : 2;
      if (tokens.size() != expect + 1 || tokens.back().text != "{") {
        status = Err(source, tokens[0],
                     "expected '" + key + " NAME [extends BASE] {'");
        break;
      }
      if (!IsIdentifier(tokens[1].text) || tokens[1].quoted) {
        status = Err(source, tokens[1],
                     "invalid " + key + " name '" + tokens[1].text + "'");
        break;
      }
      block = PhaseSpec{};
      if (has_extends) {
        auto it = state.templates.find(tokens[3].text);
        if (it == state.templates.end()) {
          status = Err(source, tokens[3],
                       "unknown template '" + tokens[3].text + "'");
          break;
        }
        block = it->second;
      }
      block.name = tokens[1].text;
      if (key == "phase") {
        bool duplicate = false;
        for (const PhaseSpec& existing : state.spec.phases) {
          if (existing.name == block.name) {
            status = Err(source, tokens[1],
                         "duplicate phase name '" + block.name + "'");
            duplicate = true;
            break;
          }
        }
        if (duplicate) break;
      }
      in_block = true;
      block_is_template = key == "template";
      continue;
    }
    if (key == "}") {
      status = Err(source, tokens[0], "unmatched '}'");
      break;
    }
    if (key == "include") {
      status = HandleInclude(source, tokens, state);
      if (!status.ok()) break;
      continue;
    }
    if (key == "workload") {
      status = ExpectArgs(source, tokens, 1);
      if (!status.ok()) break;
      if (!IsIdentifier(tokens[1].text)) {
        status = Err(source, tokens[1],
                     "invalid workload name '" + tokens[1].text + "'");
        break;
      }
      state.spec.name = tokens[1].text;
      state.saw_workload_name = true;
      continue;
    }
    if (key == "seed") {
      status = ExpectArgs(source, tokens, 1);
      if (!status.ok()) break;
      int64_t seed = 0;
      status = ParseNonNegInt(source, tokens[1], seed);
      if (!status.ok()) break;
      state.spec.seed = static_cast<uint64_t>(seed);
      continue;
    }
    if (key == "solver") {
      status = ExpectArgs(source, tokens, 1);
      if (!status.ok()) break;
      if (!IsIdentifier(tokens[1].text)) {
        status = Err(source, tokens[1],
                     "invalid solver name '" + tokens[1].text + "'");
        break;
      }
      state.spec.solver = tokens[1].text;
      continue;
    }
    if (key == "policy") {
      status = ExpectArgs(source, tokens, 1);
      if (!status.ok()) break;
      if (tokens[1].text == "block") {
        state.spec.policy = engine::OverloadPolicy::kBlock;
      } else if (tokens[1].text == "reject") {
        state.spec.policy = engine::OverloadPolicy::kReject;
      } else if (tokens[1].text == "shed") {
        state.spec.policy = engine::OverloadPolicy::kShedOldest;
      } else {
        status = Err(source, tokens[1],
                     "unknown admission policy '" + tokens[1].text +
                         "' (expected block|reject|shed)");
        break;
      }
      continue;
    }
    if (key == "queue_depth") {
      status = ExpectArgs(source, tokens, 1);
      if (!status.ok()) break;
      status = ParseNonNegInt(source, tokens[1], state.spec.queue_depth);
      if (!status.ok()) break;
      if (state.spec.queue_depth < 1) {
        status = Err(source, tokens[1], "queue_depth must be >= 1");
        break;
      }
      continue;
    }
    if (key == "cache") {
      status = ExpectArgs(source, tokens, 1);
      if (!status.ok()) break;
      status = ParseCacheKeyword(source, tokens[1], /*allow_default=*/false,
                                 state.spec.cache_mode);
      if (!status.ok()) break;
      continue;
    }
    if (key == "cache_entries") {
      status = ExpectArgs(source, tokens, 1);
      if (!status.ok()) break;
      status =
          ParseNonNegInt(source, tokens[1], state.spec.cache_result_entries);
      if (!status.ok()) break;
      continue;
    }
    status = Err(source, tokens[0], "unknown statement '" + key + "'");
    break;
  }

  if (status.ok() && in_block) {
    Token eof;
    eof.line = line_no;
    eof.col = 1;
    status = Err(source, eof,
                 "unterminated block for '" + block.name + "' (missing '}')");
  }
  state.include_stack.pop_back();
  return status;
}

std::string FormatDouble(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

std::string_view OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kSubmit: return "submit";
    case OpKind::kUrgent: return "urgent";
    case OpKind::kCached: return "cached";
    case OpKind::kUncached: return "uncached";
    case OpKind::kCancel: return "cancel";
  }
  return "submit";
}

std::string_view PhaseModeName(PhaseMode mode) {
  return mode == PhaseMode::kClosed ? "closed" : "open";
}

std::string_view ArrivalName(ArrivalProcess arrival) {
  switch (arrival) {
    case ArrivalProcess::kFixed: return "fixed";
    case ArrivalProcess::kPoisson: return "poisson";
    case ArrivalProcess::kBurst: return "burst";
  }
  return "fixed";
}

std::string_view CacheModeKeyword(engine::CacheMode mode) {
  switch (mode) {
    case engine::CacheMode::kDefault: return "default";
    case engine::CacheMode::kOff: return "off";
    case engine::CacheMode::kReadOnly: return "ro";
    case engine::CacheMode::kWriteOnly: return "wo";
    case engine::CacheMode::kReadWrite: return "rw";
  }
  return "off";
}

std::string_view PolicyKeyword(engine::OverloadPolicy policy) {
  switch (policy) {
    case engine::OverloadPolicy::kBlock: return "block";
    case engine::OverloadPolicy::kReject: return "reject";
    case engine::OverloadPolicy::kShedOldest: return "shed";
  }
  return "block";
}

util::StatusOr<WorkloadSpec> ParseWorkloadText(std::string_view text,
                                               const std::string& source_name,
                                               const FileLoader& loader) {
  ParseState state;
  state.loader = &loader;
  util::Status status = ParseInto(text, source_name, state);
  if (!status.ok()) return status;
  if (!state.saw_workload_name) state.spec.name = StemOf(source_name);
  if (state.spec.name.empty()) state.spec.name = "workload";
  return std::move(state.spec);
}

util::StatusOr<WorkloadSpec> ParseWorkloadFile(const std::string& path) {
  FileLoader loader = [](const std::string& target)
      -> util::StatusOr<std::string> {
    std::ifstream in(target, std::ios::binary);
    if (!in) {
      return util::Status::NotFound("cannot open '" + target + "'");
    }
    std::ostringstream contents;
    contents << in.rdbuf();
    return contents.str();
  };
  util::StatusOr<std::string> text = loader(path);
  if (!text.ok()) return text.status();
  return ParseWorkloadText(text.value(), path, loader);
}

std::string DumpSpec(const WorkloadSpec& spec) {
  std::string out;
  out += "workload " + spec.name + "\n";
  out += "seed " + std::to_string(spec.seed) + "\n";
  out += "solver " + spec.solver + "\n";
  out += "policy " + std::string(PolicyKeyword(spec.policy)) + "\n";
  out += "queue_depth " + std::to_string(spec.queue_depth) + "\n";
  out += "cache " + std::string(CacheModeKeyword(spec.cache_mode)) + "\n";
  out += "cache_entries " + std::to_string(spec.cache_result_entries) + "\n";
  for (const PhaseSpec& phase : spec.phases) {
    out += "\nphase " + phase.name + " {\n";
    out += "  mode " + std::string(PhaseModeName(phase.mode)) + "\n";
    out += "  submitters " + std::to_string(phase.submitters) + "\n";
    out += "  iterations " + std::to_string(phase.iterations) + "\n";
    out += "  duration " + FormatDouble(phase.duration_seconds) + "\n";
    out += "  rate " + FormatDouble(phase.rate_per_second) + "\n";
    out += "  arrival " + std::string(ArrivalName(phase.arrival)) + "\n";
    out += "  tasks " + std::to_string(phase.tasks_min) + " " +
           std::to_string(phase.tasks_max) + "\n";
    out += "  workers " + std::to_string(phase.workers_min) + " " +
           std::to_string(phase.workers_max) + "\n";
    out += "  priority " + std::to_string(phase.priority_min) + " " +
           std::to_string(phase.priority_max) + "\n";
    out += "  seed_pool " + std::to_string(phase.seed_pool) + "\n";
    out += std::string("  dist ") + (phase.skewed ? "skewed" : "uniform") +
           "\n";
    out += "  cache " + std::string(CacheModeKeyword(phase.cache)) + "\n";
    out += std::string("  restart ") + (phase.restart ? "on" : "off") + "\n";
    out += "  mix";
    for (const MixEntry& entry : phase.mix) {
      out += ' ';
      out += OpKindName(entry.op);
      out += ' ';
      out += std::to_string(entry.weight);
    }
    out += "\n}\n";
  }
  return out;
}

}  // namespace rdbsc::wl
