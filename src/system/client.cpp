#include "system/client.h"

namespace semperos {

DriverRig MakeDriverRig(uint32_t kernels, uint32_t users, KernelMode mode) {
  PlatformConfig pc;
  pc.kernels = kernels;
  pc.users = users;
  pc.mode = mode;
  pc.timing = TimingModel::For(mode);
  return MakeDriverRig(pc);
}

DriverRig MakeDriverRig(PlatformConfig pc) {
  DriverRig rig;
  rig.platform = std::make_unique<Platform>(pc);
  for (NodeId node : rig.platform->user_nodes()) {
    NodeId kernel_node = rig.platform->kernel_node(rig.platform->membership().KernelOf(node));
    auto client = std::make_unique<DriverClient>(kernel_node, pc.timing);
    rig.clients.push_back(client.get());
    rig.platform->pe(node)->AttachProgram(std::move(client));
  }
  rig.platform->Boot();
  return rig;
}

ObtainRevokeTimes MeasureObtainRevoke(uint32_t kernels, KernelMode mode) {
  DriverRig rig = MakeDriverRig(kernels, 2, mode);
  CapSel owner_sel = rig.Grant(0);
  ObtainRevokeTimes times;
  times.exchange = rig.TimedOp([&](std::function<void()> done) {
    rig.client(1).env().Obtain(rig.vpe(0), owner_sel, [done](const SyscallReply& r) {
      CHECK(r.err == ErrCode::kOk) << "probe obtain failed: " << ErrName(r.err);
      done();
    });
  });
  times.revoke = rig.TimedOp([&](std::function<void()> done) {
    rig.client(0).env().Revoke(owner_sel, [done](const SyscallReply& r) {
      CHECK(r.err == ErrCode::kOk) << "probe revoke failed: " << ErrName(r.err);
      done();
    });
  });
  return times;
}

Cycles RevokeChain(uint32_t kernels, KernelMode mode, uint32_t length) {
  DriverRig rig = MakeDriverRig(kernels, kernels == 1 ? 3 : 2, mode);
  std::vector<size_t> hops = kernels == 1 ? std::vector<size_t>{1, 2} : std::vector<size_t>{0, 1};
  CapSel root = rig.BuildChain(length, hops);
  return rig.TimedOp([&](std::function<void()> done) {
    rig.client(0).env().Revoke(root, [done](const SyscallReply& r) {
      CHECK(r.err == ErrCode::kOk) << "chain revoke failed: " << ErrName(r.err);
      done();
    });
  });
}

size_t DriverRig::client_in_kernel(KernelId k, size_t j) const {
  size_t seen = 0;
  for (size_t i = 0; i < clients.size(); ++i) {
    if (platform->membership().KernelOf(vpe(i)) == k) {
      if (seen == j) {
        return i;
      }
      ++seen;
    }
  }
  CHECK(false) << "kernel " << k << " has no client #" << j;
  return 0;
}

Cycles DriverRig::Migrate(NodeId pe, KernelId dst_kernel) {
  Cycles start = platform->sim().Now();
  Cycles end = start;
  bool done = false;
  platform->MigratePe(pe, dst_kernel, [&](ErrCode err) {
    CHECK(err == ErrCode::kOk) << "migration failed: " << ErrName(err);
    end = platform->sim().Now();
    done = true;
  });
  platform->RunToCompletion();
  CHECK(done) << "migration did not complete";
  return end - start;
}

CapSel DriverRig::BuildChain(uint32_t length, const std::vector<size_t>& hops) {
  CHECK_GE(length, 1u);
  CHECK_GE(hops.size(), 1u);
  CapSel root = Grant(0);
  if (length == 1) {
    return root;
  }
  // First link: client 0 -> hops[0]; then bounce along `hops`.
  Kernel* owner = kernel_of_client(0);
  Capability* cur = owner->CapOf(vpe(0), root);
  size_t from = 0;
  size_t hop_idx = 0;
  for (uint32_t link = 1; link < length; ++link) {
    size_t to = hops[hop_idx % hops.size()];
    hop_idx++;
    if (to == from) {
      to = hops[hop_idx % hops.size()];
      hop_idx++;
    }
    CapSel cur_sel = cur->sel();
    bool ok = false;
    client(from).env().Delegate(cur_sel, vpe(to), [&ok](const SyscallReply& r) {
      CHECK(r.err == ErrCode::kOk) << "chain delegate failed";
      ok = true;
    });
    platform->RunToCompletion();
    CHECK(ok);
    Capability* prev = kernel_of_client(from)->FindCap(cur->key());
    CHECK(prev != nullptr);
    CHECK(!prev->children().empty());
    cur = kernel_of_client(to)->FindCap(prev->children().back());
    CHECK(cur != nullptr);
    from = to;
  }
  return root;
}

CapSel DriverRig::BuildTree(uint32_t children) {
  CHECK_GE(clients.size(), 2u);
  CapSel root = Grant(0);
  for (uint32_t c = 0; c < children; ++c) {
    size_t receiver = 1 + (c % (clients.size() - 1));
    bool ok = false;
    client(0).env().Delegate(root, vpe(receiver), [&ok](const SyscallReply& r) {
      CHECK(r.err == ErrCode::kOk) << "tree delegate failed";
      ok = true;
    });
    platform->RunToCompletion();
    CHECK(ok);
    // The child activates its copy: revocation must invalidate the DTU
    // endpoint (the shared-memory scenario of Figure 5).
    Kernel* rk = kernel_of_client(receiver);
    const VpeState* state = rk->FindVpe(vpe(receiver));
    CapSel child_sel = state->table.LastSel();
    bool activated = false;
    client(receiver).env().Activate(child_sel, user_ep::kMem0,
                                    [&activated](const SyscallReply& r) {
                                      CHECK(r.err == ErrCode::kOk);
                                      activated = true;
                                    });
    platform->RunToCompletion();
    CHECK(activated);
  }
  return root;
}

}  // namespace semperos
