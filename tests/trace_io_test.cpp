// Trace text format: parse, format, round-trip, image inference, and
// end-to-end replay of a parsed trace.
#include <gtest/gtest.h>

#include "fs/service.h"
#include "system/platform.h"
#include "trace/replayer.h"
#include "trace/trace_io.h"
#include "workloads/workloads.h"

namespace semperos {
namespace {

TEST(TraceIo, ParsesEveryOpKind) {
  const char* text = R"(
# a comment
open /a/in r
read /a/in 65536
seek /a/in 0
open /a/out wc
write /a/out 4096
close /a/out
stat /a/in
mkdir /a/dir
unlink /a/tmp
readdir /a
compute 12345
close /a/in
)";
  Trace trace;
  ASSERT_TRUE(ParseTrace(text, &trace).ok());
  ASSERT_EQ(trace.ops.size(), 12u);
  EXPECT_EQ(trace.ops[0].kind, TraceOpKind::kOpen);
  EXPECT_EQ(trace.ops[0].flags, kOpenRead);
  EXPECT_EQ(trace.ops[3].flags, kOpenWrite | kOpenCreate);
  EXPECT_EQ(trace.ops[1].bytes(), 65536u);
  EXPECT_EQ(trace.ops[10].compute(), 12345u);
}

TEST(TraceIo, RejectsMalformedLines) {
  Trace trace;
  size_t line = 0;
  EXPECT_FALSE(ParseTrace("open /x", &trace, &line).ok());
  EXPECT_EQ(line, 1u);
  EXPECT_FALSE(ParseTrace("\nread /x abc\n", &trace, &line).ok());
  EXPECT_EQ(line, 2u);
  EXPECT_FALSE(ParseTrace("frobnicate /x\n", &trace, &line).ok());
  EXPECT_FALSE(ParseTrace("open /x z\n", &trace, &line).ok());
  EXPECT_FALSE(ParseTrace("compute -5\n", &trace, &line).ok());
}

TEST(TraceIo, InlineCommentsAndBlanksIgnored) {
  Trace trace;
  ASSERT_TRUE(ParseTrace("\n\nstat /f # trailing comment\n\n", &trace).ok());
  ASSERT_EQ(trace.ops.size(), 1u);
}

TEST(TraceIo, FormatParsesBackIdentically) {
  Trace original = MakeTrace("postmark", 0);
  std::string text = FormatTrace(original);
  Trace parsed;
  ASSERT_TRUE(ParseTrace(text, &parsed).ok());
  ASSERT_EQ(parsed.ops.size(), original.ops.size());
  for (size_t i = 0; i < original.ops.size(); ++i) {
    EXPECT_EQ(parsed.ops[i].kind, original.ops[i].kind) << "op " << i;
    EXPECT_EQ(parsed.Path(parsed.ops[i]), original.Path(original.ops[i])) << "op " << i;
    EXPECT_EQ(parsed.ops[i].bytes(), original.ops[i].bytes()) << "op " << i;
    EXPECT_EQ(parsed.ops[i].flags, original.ops[i].flags) << "op " << i;
    EXPECT_EQ(parsed.ops[i].compute(), original.ops[i].compute()) << "op " << i;
  }
}

// A parsed trace may name any number of distinct paths: well past the
// path table's scan bound, each is stored once and named consistently.
TEST(TraceIo, ManyDistinctPathsAreStoredOnce) {
  constexpr int kPaths = 20000;
  std::string text;
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < kPaths; ++i) {
      text += "stat /d/f" + std::to_string(pass == 0 ? i : kPaths - 1 - i) + "\n";
    }
  }
  Trace trace;
  ASSERT_TRUE(ParseTrace(text, &trace).ok());
  ASSERT_EQ(trace.ops.size(), 2u * kPaths);
  EXPECT_EQ(trace.paths.size(), static_cast<size_t>(kPaths));
  for (int i = 0; i < kPaths; ++i) {
    const TraceOp& first = trace.ops[i];
    const TraceOp& again = trace.ops[2 * kPaths - 1 - i];
    EXPECT_EQ(first.path, static_cast<uint32_t>(i));
    EXPECT_EQ(again.path, first.path);
    EXPECT_EQ(trace.Path(first), "/d/f" + std::to_string(i));
  }
  Trace parsed;
  ASSERT_TRUE(ParseTrace(FormatTrace(trace), &parsed).ok());
  EXPECT_EQ(FormatTrace(parsed), FormatTrace(trace));
  EXPECT_EQ(parsed.paths.size(), trace.paths.size());
}

TEST(TraceIo, InferImageCreatesReadFilesAndParents) {
  Trace trace;
  ASSERT_TRUE(ParseTrace("open /d/sub/in r\nread /d/sub/in 3000000\nclose /d/sub/in\n"
                         "open /d/out wc\nwrite /d/out 100\nclose /d/out\n",
                         &trace)
                  .ok());
  FsImage image = InferImage(trace);
  const Inode* in = image.Lookup("/d/sub/in");
  ASSERT_NE(in, nullptr);
  EXPECT_GE(in->size, 3000000u);           // covers the trace's reads
  EXPECT_NE(image.Lookup("/d"), nullptr);  // parents exist
  EXPECT_NE(image.Lookup("/d/sub"), nullptr);
  EXPECT_EQ(image.Lookup("/d/out"), nullptr);  // created by the trace itself
}

TEST(TraceIo, ParsedTraceReplaysEndToEnd) {
  const char* text = R"(
open /data/in r
read /data/in 2500000
close /data/in
open /data/new wc
write /data/new 8192
close /data/new
stat /data/in
compute 50000
)";
  Trace trace;
  ASSERT_TRUE(ParseTrace(text, &trace).ok());
  trace.app = "custom";
  FsImage image = InferImage(trace);

  PlatformConfig pc;
  pc.kernels = 2;
  pc.services = 1;
  pc.users = 1;
  Platform platform(pc);
  NodeId svc = platform.service_nodes()[0];
  CapSel mem = platform.kernel_of(svc)->AdminGrantMem(svc, platform.mem_nodes()[0], 0, 1ull << 32,
                                                      kPermRW);
  auto service = std::make_unique<FsService>(
      "m3fs", image, platform.kernel_node(platform.kernel_of(svc)->id()), pc.timing, mem);
  FsService* fs = service.get();
  platform.pe(svc)->AttachProgram(std::move(service));
  NodeId user = platform.user_nodes()[0];
  auto replayer = std::make_unique<TraceReplayer>(
      trace, platform.kernel_node(platform.membership().KernelOf(user)), pc.timing);
  TraceReplayer* app = replayer.get();
  platform.pe(user)->AttachProgram(std::move(replayer));
  platform.Boot();
  platform.RunToCompletion();

  ASSERT_TRUE(app->result().done);
  // /data/in: 2.5 MB = 3 extents (open + 2 next, 3 revokes); /data/new: 1+1;
  // session: 1 => 1 + 6 + 2 = 9.
  EXPECT_EQ(app->result().cap_ops, 9u);
  EXPECT_EQ(fs->stats().opens, 2u);
  EXPECT_NE(fs->image().Lookup("/data/new"), nullptr);
}

}  // namespace
}  // namespace semperos
