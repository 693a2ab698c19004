#include "trace/trace_io.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string_view>
#include <vector>

#include "fs/protocol.h"

namespace semperos {

namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    if (token[0] == '#') {
      break;
    }
    tokens.push_back(token);
  }
  return tokens;
}

bool ParseFlags(const std::string& spec, uint32_t* flags) {
  *flags = 0;
  for (char c : spec) {
    switch (c) {
      case 'r':
        *flags |= kOpenRead;
        break;
      case 'w':
        *flags |= kOpenWrite;
        break;
      case 'c':
        *flags |= kOpenCreate;
        break;
      default:
        return false;
    }
  }
  return *flags != 0;
}

std::string FlagSpec(uint32_t flags) {
  std::string spec;
  if (flags & kOpenRead) {
    spec += 'r';
  }
  if (flags & kOpenWrite) {
    spec += 'w';
  }
  if (flags & kOpenCreate) {
    spec += 'c';
  }
  return spec;
}

bool ParseU64(const std::string& token, uint64_t* value) {
  if (token.empty()) {
    return false;
  }
  uint64_t v = 0;
  for (char c : token) {
    if (c < '0' || c > '9') {
      return false;
    }
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) {
      return false;  // past 2^64 - 1
    }
    v = v * 10 + digit;
  }
  *value = v;
  return true;
}

}  // namespace

Status ParseTrace(const std::string& text, Trace* trace, size_t* error_line) {
  trace->ops.clear();
  trace->paths.clear();
  std::istringstream is(text);
  std::string line;
  size_t line_no = 0;
  auto fail = [&](size_t n) {
    if (error_line != nullptr) {
      *error_line = n;
    }
    return Status(ErrCode::kInvalidArgs);
  };
  // By path index: whether the file is open at this line, its cursor, and
  // the highest cursor it reached.
  struct FileState {
    bool open = false;
    uint64_t cursor = 0;
    uint64_t high = 0;
  };
  std::vector<FileState> files;
  uint64_t compute_total = 0;
  uint64_t high_total = 0;  // the files' highest cursors, summed
  while (std::getline(is, line)) {
    ++line_no;
    std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) {
      continue;
    }
    const std::string& op = tokens[0];
    uint64_t value = 0;
    if (op == "open") {
      uint32_t flags = 0;
      if (tokens.size() != 3 || !ParseFlags(tokens[2], &flags)) {
        return fail(line_no);
      }
      trace->Open(tokens[1], flags);
    } else if (op == "read" || op == "write" || op == "seek") {
      if (tokens.size() != 3 || !ParseU64(tokens[2], &value)) {
        return fail(line_no);
      }
      if (op == "read") {
        trace->Read(tokens[1], value);
      } else if (op == "write") {
        trace->Write(tokens[1], value);
      } else {
        trace->Seek(tokens[1], value);
      }
    } else if (op == "close" || op == "stat" || op == "mkdir" || op == "unlink" ||
               op == "readdir") {
      if (tokens.size() != 2) {
        return fail(line_no);
      }
      if (op == "close") {
        trace->Close(tokens[1]);
      } else if (op == "stat") {
        trace->Stat(tokens[1]);
      } else if (op == "mkdir") {
        trace->Mkdir(tokens[1]);
      } else if (op == "unlink") {
        trace->Unlink(tokens[1]);
      } else {
        trace->ReadDir(tokens[1]);
      }
    } else if (op == "compute") {
      if (tokens.size() != 2 || !ParseU64(tokens[1], &value) ||
          value > kTraceTotalLimit - compute_total) {
        return fail(line_no);
      }
      compute_total += value;
      trace->Compute(value);
      continue;
    } else {
      return fail(line_no);
    }
    // The trace client opens a file once and reads, writes, seeks and
    // closes only open files (trace/replayer.h).
    TraceOpKind kind = trace->ops.back().kind;
    files.resize(std::max<size_t>(files.size(), trace->ops.back().path + 1));
    FileState& file = files[trace->ops.back().path];
    bool moves = kind == TraceOpKind::kRead || kind == TraceOpKind::kWrite ||
                 kind == TraceOpKind::kSeek;
    if (kind == TraceOpKind::kOpen ? file.open
                                   : (moves || kind == TraceOpKind::kClose) && !file.open) {
      return fail(line_no);
    }
    if (kind == TraceOpKind::kOpen || kind == TraceOpKind::kClose) {
      file.open = kind == TraceOpKind::kOpen;
      file.cursor = 0;
    }
    if (moves) {
      uint64_t base = kind == TraceOpKind::kSeek ? 0 : file.cursor;
      if (value > kTraceTotalLimit - base) {
        return fail(line_no);
      }
      file.cursor = base + value;
      if (file.cursor > file.high) {
        if (file.cursor - file.high > kTraceTotalLimit - high_total) {
          return fail(line_no);
        }
        high_total += file.cursor - file.high;
        file.high = file.cursor;
      }
    }
  }
  return Status::Ok();
}

std::string FormatTraceOp(const Trace& trace, const TraceOp& op) {
  std::string path(op.kind == TraceOpKind::kCompute ? "" : trace.Path(op));
  switch (op.kind) {
    case TraceOpKind::kOpen:
      return "open " + path + " " + FlagSpec(op.flags);
    case TraceOpKind::kRead:
      return "read " + path + " " + std::to_string(op.bytes());
    case TraceOpKind::kWrite:
      return "write " + path + " " + std::to_string(op.bytes());
    case TraceOpKind::kSeek:
      return "seek " + path + " " + std::to_string(op.offset());
    case TraceOpKind::kClose:
      return "close " + path;
    case TraceOpKind::kStat:
      return "stat " + path;
    case TraceOpKind::kMkdir:
      return "mkdir " + path;
    case TraceOpKind::kUnlink:
      return "unlink " + path;
    case TraceOpKind::kReadDir:
      return "readdir " + path;
    case TraceOpKind::kCompute:
      return "compute " + std::to_string(op.compute());
  }
  return "";
}

std::string FormatTrace(const Trace& trace) {
  std::string text;
  if (!trace.app.empty()) {
    text += "# trace: " + trace.app + "\n";
  }
  for (const TraceOp& op : trace.ops) {
    text += FormatTraceOp(trace, op) + "\n";
  }
  return text;
}

FsImage InferImage(const Trace& trace) {
  FsImage image;
  // Make sure every referenced directory chain exists.
  auto ensure_parents = [&image](std::string_view path) {
    for (size_t pos = 1; pos < path.size(); ++pos) {
      if (path[pos] == '/') {
        std::string_view dir = path.substr(0, pos);
        if (image.Lookup(dir) == nullptr) {
          image.AddDir(dir);
        }
      }
    }
  };

  // First pass: total bytes read from each file and whether the trace
  // creates it itself. The keys view the trace's path table.
  std::map<std::string_view, uint64_t> read_extent;  // highest offset touched
  std::map<std::string_view, uint64_t> cursor;
  std::map<std::string_view, bool> created;
  for (const TraceOp& op : trace.ops) {
    if (op.kind == TraceOpKind::kCompute) {
      continue;
    }
    std::string_view path = trace.Path(op);
    switch (op.kind) {
      case TraceOpKind::kOpen:
        cursor[path] = 0;
        if ((op.flags & kOpenCreate) != 0) {
          created.emplace(path, true);
        } else {
          created.emplace(path, false);
        }
        break;
      case TraceOpKind::kSeek:
        cursor[path] = op.offset();
        break;
      case TraceOpKind::kRead: {
        uint64_t end = cursor[path] + op.bytes();
        cursor[path] = end;
        uint64_t& extent = read_extent[path];
        extent = std::max(extent, end);
        created.emplace(path, false);
        break;
      }
      case TraceOpKind::kWrite:
        cursor[path] += op.bytes();
        break;
      case TraceOpKind::kStat:
        created.emplace(path, false);
        break;
      case TraceOpKind::kMkdir:
      case TraceOpKind::kUnlink:
      case TraceOpKind::kClose:
      case TraceOpKind::kReadDir:
      case TraceOpKind::kCompute:
        break;
    }
  }

  for (const auto& [path, was_created] : created) {
    ensure_parents(path);
    if (was_created) {
      continue;  // the trace creates it itself
    }
    uint64_t size = 4096;
    auto it = read_extent.find(path);
    if (it != read_extent.end() && it->second > size) {
      size = it->second;
    }
    image.AddFile(path, size);
  }
  for (const TraceOp& op : trace.ops) {
    if (op.kind == TraceOpKind::kMkdir || op.kind == TraceOpKind::kReadDir) {
      ensure_parents(std::string(trace.Path(op)) + "/x");
    }
  }
  return image;
}

}  // namespace semperos
