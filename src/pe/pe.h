// Processing elements (PEs) and the programs that run on them.
//
// Paper §2.2 / Figure 1: the platform is a set of tiles, each pairing a
// compute unit (CU) with a DTU. A PE is either a kernel PE, a user PE
// (running one VPE), a service PE (user PE hosting an OS service), a memory
// tile, or a load-generator tile ("network interface" PEs of §5.3.3).
//
// The compute unit is modelled by an Executor: a serial resource on which
// message handlers and compute phases run back-to-back. Programs are
// event-driven: they receive DTU messages and post work (with a cycle cost)
// to their PE's executor.
#ifndef SEMPEROS_PE_PE_H_
#define SEMPEROS_PE_PE_H_

#include <memory>
#include <string>
#include <utility>

#include "base/types.h"
#include "dtu/dtu.h"
#include "sim/executor.h"
#include "sim/simulation.h"

namespace semperos {

namespace obs {
class Tracer;
}  // namespace obs

enum class PeType : uint8_t {
  kUser,     // runs one application VPE
  kKernel,   // runs a SemperOS kernel
  kService,  // runs an OS service (m3fs instance)
  kMemory,   // DRAM tile, no compute unit
  kLoadGen,  // network-interface tile issuing requests (paper §5.3.3)
};

const char* PeTypeName(PeType type);

class ProcessingElement;

// Base class for everything that executes on a PE.
class Program {
 public:
  virtual ~Program() = default;

  // Invoked during boot while this PE's DTU is still privileged; programs
  // configure their endpoint layout here (models the kernel installing the
  // standard endpoints at VPE creation).
  virtual void Setup() {}

  // Invoked once at boot, after the platform wired all DTUs.
  virtual void Start() = 0;

  ProcessingElement* pe() const { return pe_; }
  void BindPe(ProcessingElement* pe) { pe_ = pe; }

 protected:
  ProcessingElement* pe_ = nullptr;
};

class ProcessingElement {
 public:
  ProcessingElement(Simulation* sim, DtuFabric* fabric, NodeId node, PeType type)
      : sim_(sim), node_(node), type_(type), dtu_(sim, fabric, node), exec_(sim) {}

  ProcessingElement(const ProcessingElement&) = delete;
  ProcessingElement& operator=(const ProcessingElement&) = delete;

  NodeId node() const { return node_; }
  PeType type() const { return type_; }
  Simulation* sim() const { return sim_; }
  Dtu& dtu() { return dtu_; }
  const Dtu& dtu() const { return dtu_; }
  Executor& exec() { return exec_; }
  const Executor& exec() const { return exec_; }

  void AttachProgram(std::unique_ptr<Program> prog) {
    program_ = std::move(prog);
    program_->BindPe(this);
  }
  Program* program() const { return program_.get(); }

  // Starts the attached program (no-op for memory tiles).
  void Boot() {
    if (program_) {
      program_->Start();
    }
  }

  // Occupies the core for `cost` cycles, then runs `then`, which is built
  // once, in its event slot.
  template <typename F>
  void Compute(Cycles cost, F&& then) {
    exec_.Post(cost, std::forward<F>(then));
  }

  // Observability (src/obs): the platform attaches one shared Tracer to
  // every PE; programs (kernel, user env, services, load generators) reach
  // it through here. Null = tracing disabled.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

 private:
  Simulation* sim_;
  NodeId node_;
  PeType type_;
  Dtu dtu_;
  Executor exec_;
  std::unique_ptr<Program> program_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace semperos

#endif  // SEMPEROS_PE_PE_H_
