#include "workloads/workloads.h"

#include "base/log.h"
#include "fs/protocol.h"

namespace semperos {

namespace {

constexpr uint64_t KiB = 1024;
constexpr uint64_t MiB = 1024 * 1024;

// Input file sizes for tar/untar: "an archive of 4 MiB containing five files
// of sizes between 128 and 2048 KiB" (paper §5.3.1).
constexpr uint64_t kTarInputs[5] = {128 * KiB, 256 * KiB, 512 * KiB, 1024 * KiB, 2048 * KiB};

// Total compute budget per app (cycles), calibrated so single-instance
// runtimes land on the values implied by paper Table 4 (see
// PaperSoloRuntimeUs and EXPERIMENTS.md).
constexpr Cycles kTarCompute = 5'045'900;
constexpr Cycles kUntarCompute = 5'115'800;
constexpr Cycles kFindCompute = 4'394'400;
constexpr Cycles kSqliteCompute = 7'701'600;
constexpr Cycles kLevelDbCompute = 4'811'200;
constexpr Cycles kPostmarkCompute = 3'218'650;

std::string Prefix(uint32_t instance) { return "/i" + std::to_string(instance); }

// Splits `total` compute cycles into `parts` kCompute ops appended around
// the trace by the callers below.
Cycles Slice(Cycles total, uint32_t parts) { return total / parts; }

Trace MakeTar(uint32_t instance) {
  Trace trace;
  std::string p = Prefix(instance);
  std::string archive = p + "/out/archive.tar";
  Cycles slice = Slice(kTarCompute, 12);

  // GNU tar walks the input tree first (getdents + lstat per entry) ...
  trace.ReadDir(p + "/in");
  for (int i = 0; i < 5; ++i) {
    trace.Stat(p + "/in/f" + std::to_string(i));
  }
  trace.Open(archive, kOpenWrite | kOpenCreate);
  trace.Compute(slice);
  // ... and lstats each member again while archiving it (header build +
  // change detection on close).
  for (int i = 0; i < 5; ++i) {
    std::string in = p + "/in/f" + std::to_string(i);
    trace.Stat(in);
    trace.Open(in, kOpenRead);
    trace.Read(in, kTarInputs[i]);
    trace.Compute(slice);
    trace.Write(archive, kTarInputs[i]);
    trace.Stat(in);
    trace.Close(in);
    trace.Compute(slice);
  }
  trace.Close(archive);
  trace.Compute(slice);
  return trace;
}

void PopulateTar(FsImage* image, const std::string& p) {
  image->AddDir(p + "/in");
  image->AddDir(p + "/out");
  for (int f = 0; f < 5; ++f) {
    image->AddFile(p + "/in/f" + std::to_string(f), kTarInputs[f]);
  }
}

Trace MakeUntar(uint32_t instance) {
  Trace trace;
  std::string p = Prefix(instance);
  std::string archive = p + "/in/archive.tar";
  std::string index = p + "/out/.index";
  Cycles slice = Slice(kUntarCompute, 7);

  trace.Open(archive, kOpenRead);
  // Unpack: read the archive member by member. The extracted files'
  // write() calls land in the page cache within the traced window (they do
  // not reach m3fs as extent requests), so they appear as compute here —
  // this matches untar's low capability-operation count in Table 4.
  for (int i = 0; i < 5; ++i) {
    trace.Mkdir(p + "/out/d" + std::to_string(i));
    trace.Read(archive, kTarInputs[i]);
    // Restoring ownership/permissions/mtime per extracted member (chmod +
    // utimensat in the Linux trace) replays as metadata operations.
    trace.Stat(p + "/out/d" + std::to_string(i));
    trace.Stat(p + "/out/d" + std::to_string(i));
    trace.Compute(slice);
  }
  trace.Open(index, kOpenWrite | kOpenCreate);
  trace.Write(index, 4 * KiB);
  trace.Close(index);
  trace.Compute(slice);
  trace.Close(archive);
  trace.Compute(slice);
  return trace;
}

void PopulateUntar(FsImage* image, const std::string& p) {
  image->AddDir(p + "/in");
  image->AddDir(p + "/out");
  image->AddFile(p + "/in/archive.tar", 4 * MiB);
}

Trace MakeFind(uint32_t instance) {
  Trace trace;
  std::string p = Prefix(instance);
  std::string index = p + "/scan/.index";
  Cycles slice = Slice(kFindCompute, 4);

  trace.Open(index, kOpenRead);
  trace.Read(index, 4 * KiB);
  trace.Compute(slice);
  trace.ReadDir(p + "/scan");
  // "scans a directory tree with 80 entries for a non-existent file":
  // find stats every entry (paper: "mainly stresses the filesystem service
  // by doing many stat calls").
  for (int i = 0; i < 80; ++i) {
    trace.Stat(p + "/scan/e" + std::to_string(i));
  }
  trace.Compute(slice);
  trace.Stat(p + "/scan/does-not-exist");
  trace.Close(index);
  trace.Compute(2 * slice);
  return trace;
}

void PopulateFind(FsImage* image, const std::string& p) {
  image->AddDir(p + "/scan");
  image->AddFile(p + "/scan/.index", 4 * KiB);
  for (int e = 0; e < 80; ++e) {
    image->AddFile(p + "/scan/e" + std::to_string(e), 1 * KiB);
  }
}

Trace MakeSqlite(uint32_t instance) {
  Trace trace;
  std::string p = Prefix(instance);
  std::string db = p + "/db/main.db";
  Cycles slice = Slice(kSqliteCompute, 14);

  // Header probe: SQLite opens the database read-only first.
  trace.Open(db, kOpenRead);
  trace.Read(db, 4 * KiB);
  trace.Close(db);
  trace.Compute(slice);
  // Main handle, stays open for the whole run (still open at trace end).
  trace.Open(db, kOpenRead | kOpenWrite);
  trace.Read(db, 64 * KiB);
  trace.Compute(slice);
  // 10 journaled transactions: CREATE TABLE, 8 INSERTs, COMMIT bookkeeping.
  // Each creates a rollback journal and deletes it while open (the classic
  // SQLite unlink-while-open pattern), which revokes its capability.
  for (int t = 0; t < 10; ++t) {
    std::string journal = p + "/db/main.db-journal" + std::to_string(t);
    trace.Open(journal, kOpenWrite | kOpenCreate);
    trace.Write(journal, 8 * KiB);
    // SQLite fsyncs the journal, the database and the containing directory
    // around every commit; the syncs replay as metadata operations.
    trace.Stat(journal);
    trace.Write(db, 4 * KiB);
    trace.Stat(db);
    trace.Unlink(journal);
    trace.Stat(p + "/db");
    trace.Close(journal);
    trace.Compute(slice);
  }
  // SELECTs.
  trace.Seek(db, 0);
  trace.Read(db, 64 * KiB);
  trace.Compute(2 * slice);
  return trace;
}

void PopulateSqlite(FsImage* image, const std::string& p) {
  image->AddDir(p + "/db");
  image->AddFile(p + "/db/main.db", 64 * KiB);
}

Trace MakeLevelDb(uint32_t instance) {
  Trace trace;
  std::string p = Prefix(instance);
  std::string dir = p + "/ldb";
  Cycles slice = Slice(kLevelDbCompute, 14);

  trace.Open(dir + "/LOCK", kOpenWrite | kOpenCreate);
  trace.Close(dir + "/LOCK");
  trace.Open(dir + "/CURRENT", kOpenRead);
  trace.Read(dir + "/CURRENT", 1 * KiB);
  trace.Close(dir + "/CURRENT");
  trace.Open(dir + "/MANIFEST-000001", kOpenRead);
  trace.Read(dir + "/MANIFEST-000001", 4 * KiB);
  trace.Close(dir + "/MANIFEST-000001");
  trace.Compute(slice);
  // Write-ahead log, stays open (still open at trace end).
  trace.Open(dir + "/000003.log", kOpenWrite | kOpenCreate);
  for (int i = 0; i < 8; ++i) {
    trace.Write(dir + "/000003.log", 2 * KiB);
    trace.Compute(slice);
  }
  // Memtable flush to an SSTable plus manifest/current rotation.
  trace.Open(dir + "/000005.sst", kOpenWrite | kOpenCreate);
  trace.Write(dir + "/000005.sst", 32 * KiB);
  trace.Close(dir + "/000005.sst");
  trace.Open(dir + "/MANIFEST-000002", kOpenWrite | kOpenCreate);
  trace.Write(dir + "/MANIFEST-000002", 4 * KiB);
  trace.Close(dir + "/MANIFEST-000002");
  trace.Open(dir + "/CURRENT", kOpenWrite);
  trace.Write(dir + "/CURRENT", 1 * KiB);
  trace.Close(dir + "/CURRENT");
  trace.Compute(slice);
  // Point lookups hit the table and manifest ("accesses its data files with
  // a higher frequency", §5.3.1).
  for (int i = 0; i < 3; ++i) {
    trace.Open(dir + "/000005.sst", kOpenRead);
    trace.Read(dir + "/000005.sst", 32 * KiB);
    trace.Close(dir + "/000005.sst");
    trace.Compute(slice);
  }
  trace.Open(dir + "/MANIFEST-000002", kOpenRead);
  trace.Read(dir + "/MANIFEST-000002", 4 * KiB);
  trace.Close(dir + "/MANIFEST-000002");
  trace.Compute(slice);
  return trace;
}

void PopulateLevelDb(FsImage* image, const std::string& p) {
  image->AddDir(p + "/ldb");
  image->AddFile(p + "/ldb/CURRENT", 1 * KiB);
  image->AddFile(p + "/ldb/MANIFEST-000001", 4 * KiB);
}

Trace MakePostmark(uint32_t instance) {
  Trace trace;
  std::string p = Prefix(instance);
  std::string dir = p + "/mail";
  Cycles slice = Slice(kPostmarkCompute, 20);

  // Mailbox index, open for the whole run (still open at trace end).
  trace.Open(dir + "/.index", kOpenRead | kOpenWrite);
  trace.Read(dir + "/.index", 8 * KiB);
  // Six new messages arrive.
  for (int i = 0; i < 6; ++i) {
    std::string mail = dir + "/new" + std::to_string(i);
    trace.Open(mail, kOpenWrite | kOpenCreate);
    trace.Write(mail, 4 * KiB);
    trace.Close(mail);
    trace.Compute(slice);
  }
  // Nine reads across old and new mail.
  for (int i = 0; i < 9; ++i) {
    std::string mail = i < 6 ? dir + "/m" + std::to_string(i) : dir + "/new" + std::to_string(i - 6);
    trace.Open(mail, kOpenRead);
    trace.Read(mail, 8 * KiB);
    trace.Close(mail);
    trace.Compute(slice);
  }
  // Three appends to existing mailboxes.
  for (int i = 0; i < 3; ++i) {
    std::string mail = dir + "/m" + std::to_string(i);
    trace.Open(mail, kOpenWrite);
    trace.Write(mail, 2 * KiB);
    trace.Close(mail);
    trace.Compute(slice);
  }
  // Five deletions of closed mail files (meta-only, no capability traffic).
  for (int i = 0; i < 5; ++i) {
    std::string victim = i < 3 ? dir + "/m" + std::to_string(i) : dir + "/new" + std::to_string(i - 3);
    trace.Unlink(victim);
  }
  trace.Write(dir + "/.index", 4 * KiB);
  trace.Compute(2 * slice);
  return trace;
}

void PopulatePostmark(FsImage* image, const std::string& p) {
  image->AddDir(p + "/mail");
  image->AddFile(p + "/mail/.index", 8 * KiB);
  for (int m = 0; m < 6; ++m) {
    image->AddFile(p + "/mail/m" + std::to_string(m), 8 * KiB);
  }
}

}  // namespace

void PopulateNginxImage(FsImage* image) {
  image->AddDir("/www");
  image->AddFile("/www/index.html", 8 * KiB);
  image->AddFile("/www/style.css", 4 * KiB);
  image->AddFile("/www/logo.png", 16 * KiB);
}

Trace MakeNginxRequestTrace() {
  // One HTTP request: stat the document, open, read, close, plus the
  // request-parsing/response-building compute recorded from the Linux trace.
  Trace trace;
  trace.app = "nginx";
  trace.expected_cap_ops = 2;  // extent obtain + close revoke
  trace.Stat("/www/index.html");
  trace.Open("/www/index.html", kOpenRead);
  trace.Read("/www/index.html", 8 * KiB);
  trace.Close("/www/index.html");
  trace.Compute(120'000);
  return trace;
}

Trace MakePostmarkRequestTrace(uint32_t instance) {
  // One mail transaction per request: deliver (create + write + close), read
  // an existing message, expunge the delivery. The same trace replays for
  // every request, so the delivery file must be unlinked before the next
  // request re-creates it — which also exercises the create/revoke path the
  // read-only nginx shape never touches. Compute is the mail-server parse/
  // route work, calibrated well below the nginx handler so the two shapes
  // saturate at different rates.
  Trace trace;
  trace.app = "postmark";
  trace.expected_cap_ops = 4;  // 2 extent obtains + 2 close revokes
  std::string dir = "/mbox/s" + std::to_string(instance);
  trace.Open(dir + "/tmp", kOpenWrite | kOpenCreate);
  trace.Write(dir + "/tmp", 4 * KiB);
  trace.Close(dir + "/tmp");
  trace.Open(dir + "/cur", kOpenRead);
  trace.Read(dir + "/cur", 8 * KiB);
  trace.Close(dir + "/cur");
  trace.Unlink(dir + "/tmp");
  trace.Compute(60'000);
  return trace;
}

void PopulatePostmarkRequestImage(FsImage* image, uint32_t servers) {
  image->AddDir("/mbox");
  for (uint32_t i = 0; i < servers; ++i) {
    std::string dir = "/mbox/s" + std::to_string(i);
    image->AddDir(dir);
    image->AddFile(dir + "/cur", 8 * KiB);
  }
}

// ---- The catalogue ----

namespace {

// Table 4 columns: cap ops and cap ops/s of one instance, then of 512.
constexpr AppWorkload kApps[] = {
    {"tar", 21, 7295, 10752, 191703, MakeTar, PopulateTar},
    {"untar", 11, 4012, 5632, 100772, MakeUntar, PopulateUntar},
    {"find", 3, 1310, 1536, 27096, MakeFind, PopulateFind},
    {"sqlite", 24, 5987, 12288, 207072, MakeSqlite, PopulateSqlite},
    {"leveldb", 22, 8749, 11264, 201204, MakeLevelDb, PopulateLevelDb},
    {"postmark", 38, 21166, 19456, 348285, MakePostmark, PopulatePostmark},
};

constexpr RequestShape kRequestShapes[] = {
    {"nginx", [](uint32_t) { return MakeNginxRequestTrace(); },
     [](FsImage* image, uint32_t) { PopulateNginxImage(image); }, 0},
    // Every request creates (and unlinks) one mail file, and image space is
    // never reclaimed: a full write extent per request, in case one service
    // ends up owning every session.
    {"postmark", MakePostmarkRequestTrace, PopulatePostmarkRequestImage, kFsExtentBytes},
};

template <typename Row, size_t N>
const Row& Find(const Row (&rows)[N], const std::string& name, const char* what) {
  for (const Row& row : rows) {
    if (name == row.name) {
      return row;
    }
  }
  CHECK(false) << "unknown " << what << " " << name;
  return rows[0];
}

const AppWorkload& FindApp(const std::string& name) { return Find(kApps, name, "app"); }

}  // namespace

std::span<const AppWorkload> AppWorkloads() { return kApps; }

std::span<const RequestShape> RequestShapes() { return kRequestShapes; }

const RequestShape& FindRequestShape(const std::string& name) {
  return Find(kRequestShapes, name, "traffic request shape");
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const AppWorkload& row : kApps) {
      names.push_back(row.name);
    }
    return names;
  }();
  return kNames;
}

uint32_t ExpectedCapOps(const std::string& app) { return FindApp(app).cap_ops; }

double PaperSoloRuntimeUs(const std::string& app) {
  const AppWorkload& row = FindApp(app);
  return static_cast<double>(row.cap_ops) / row.cap_ops_per_sec * 1e6;
}

Trace MakeTrace(const std::string& app, uint32_t instance) {
  const AppWorkload& row = FindApp(app);
  Trace trace = row.build(instance);
  trace.app = row.name;
  trace.expected_cap_ops = row.cap_ops;
  return trace;
}

void PopulateImage(FsImage* image, const std::string& app, uint32_t instances) {
  const AppWorkload& row = FindApp(app);
  for (uint32_t i = 0; i < instances; ++i) {
    std::string p = Prefix(i);
    image->AddDir(p);
    row.populate(image, p);
  }
}

}  // namespace semperos
