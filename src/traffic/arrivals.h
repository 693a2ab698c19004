// Seeded arrival-process generation for the open-loop traffic harness.
//
// An open-loop generator injects requests on the simulated clock according
// to a precomputed schedule, independent of when earlier requests complete
// — client-side queueing delay is part of the measured latency, which is
// what makes tail percentiles honest under overload (closed-loop drivers
// self-throttle and hide the queue). BuildArrivalSchedule() is a pure
// function of (spec, seed, generator index), so the same seed always yields
// the same schedule, and the determinism tests can compare schedules
// directly without booting a platform.
//
// Portability note: schedules feed event *order*, so a one-ulp difference
// would cascade into different modeled results across compilers. All
// sampling therefore avoids libm and FMA-contractible expressions:
// exponential gaps come from von Neumann's comparison method (uniforms and
// comparisons only — no log), and rate modulation (bursty/diurnal thinning)
// is integer arithmetic on integer cycle counts.
#ifndef SEMPEROS_TRAFFIC_ARRIVALS_H_
#define SEMPEROS_TRAFFIC_ARRIVALS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/types.h"

namespace semperos {

enum class ArrivalProcess : uint8_t {
  kPoisson,  // homogeneous Poisson at rate_rps
  kBursty,   // on/off modulated Poisson: bursts at 4x the base rate
  kDiurnal,  // triangle-wave rate ramp between 0.2x and 1.8x the base rate
};

const char* ArrivalProcessName(ArrivalProcess process);
bool ParseArrivalProcess(const std::string& text, ArrivalProcess* out);

struct ArrivalSpec {
  ArrivalProcess process = ArrivalProcess::kPoisson;
  // Aggregate offered load across all generators, requests per second of
  // simulated time (the clock runs at kClockHz = 2 GHz). For the bursty
  // process this is the rate outside bursts: the floor, not the mean.
  double rate_rps = 100'000.0;
};

// The schedule for one generator: `count` strictly increasing arrival times
// (cycles, relative to the generator's start). Arrivals are thinned from a
// per-generator Poisson stream at rate_rps / generators, so superposing all
// generators yields the aggregate process. Each generator derives an
// independent stream from (seed, generator), making the result independent
// of platform shape by construction.
std::vector<Cycles> BuildArrivalSchedule(const ArrivalSpec& spec, uint64_t seed,
                                         uint32_t generator, uint32_t generators,
                                         uint64_t count);

// Exp(1) sample via von Neumann's comparison method: consumes only uniform
// draws and comparisons (no log/exp), so the value is a bit-exact function
// of the Rng stream on every compiler and libm. Exposed for tests.
double SampleExp(Rng* rng);

}  // namespace semperos

#endif  // SEMPEROS_TRAFFIC_ARRIVALS_H_
