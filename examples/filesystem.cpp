// m3fs walkthrough: the capability lifecycle of file access (paper §2.2).
//
// An application opens a file on m3fs, receives a memory capability for the
// file's first extent, accesses the data through its DTU without any OS on
// the path, crosses an extent boundary (another capability), and closes the
// file — whereupon the service revokes everything it handed out.
//
// Build & run:   cmake --build build && ./build/examples/filesystem
#include <cstdio>

#include "fs/service.h"
#include "system/platform.h"
#include "trace/replayer.h"
#include "workloads/workloads.h"

using namespace semperos;

int main() {
  std::printf("m3fs: file access by capability\n");
  std::printf("===============================\n\n");

  PlatformConfig pc;
  pc.kernels = 2;
  pc.services = 1;
  pc.users = 1;
  Platform platform(pc);

  // Filesystem image: one 2.5 MiB file => 3 extents at the 1 MiB extent
  // size. Each service owns its image region on a memory tile.
  FsImage image;
  image.AddDir("/data");
  image.AddFile("/data/blob", 2560 * 1024);
  NodeId svc_node = platform.service_nodes()[0];
  Kernel* svc_kernel = platform.kernel_of(svc_node);
  CapSel mem_root = svc_kernel->AdminGrantMem(svc_node, platform.mem_nodes()[0], 0,
                                              image.bytes_used() + (16 << 20), kPermRW);
  auto service = std::make_unique<FsService>("m3fs", image, platform.kernel_node(svc_kernel->id()),
                                             pc.timing, mem_root);
  FsService* fs = service.get();
  platform.pe(svc_node)->AttachProgram(std::move(service));

  // The client replays a hand-written trace: open, read across all three
  // extents, stat, close.
  Trace trace;
  trace.app = "demo";
  trace.Open("/data/blob", kOpenRead);
  trace.Read("/data/blob", 2560 * 1024);
  trace.Stat("/data/blob");
  trace.Close("/data/blob");

  NodeId user_node = platform.user_nodes()[0];
  auto replayer = std::make_unique<TraceReplayer>(
      trace, platform.kernel_node(platform.membership().KernelOf(user_node)), pc.timing);
  TraceReplayer* app = replayer.get();
  platform.pe(user_node)->AttachProgram(std::move(replayer));

  platform.Boot();
  platform.RunToCompletion();

  const TraceReplayer::Result& result = app->result();
  const FsServiceStats& stats = fs->stats();
  std::printf("trace finished in %.1f us\n\n", CyclesToMicros(result.runtime()));
  std::printf("capability operations (client view):  %u\n", result.cap_ops);
  std::printf("  1 session obtain + 1 open obtain + 2 next-extent obtains + 3 close revokes\n\n");
  std::printf("service view:\n");
  std::printf("  sessions opened:       %llu\n", (unsigned long long)stats.sessions);
  std::printf("  files opened:          %llu\n", (unsigned long long)stats.opens);
  std::printf("  extent caps handed:    %llu  (2.5 MiB file / 1 MiB extents = 3)\n",
              (unsigned long long)stats.extents_handed);
  std::printf("  meta ops served:       %llu\n", (unsigned long long)stats.metas);
  std::printf("  caps revoked on close: %llu\n\n", (unsigned long long)stats.caps_revoked);

  KernelStats ks = platform.TotalKernelStats();
  std::printf("kernel view: %llu syscalls, %llu derives, %llu obtains, %llu revokes, "
              "%llu activations\n",
              (unsigned long long)ks.syscalls, (unsigned long long)ks.derives,
              (unsigned long long)ks.obtains, (unsigned long long)ks.revokes,
              (unsigned long long)ks.activates);
  std::printf("messages lost anywhere: %llu\n", (unsigned long long)platform.TotalDrops());
  return 0;
}
