#include "traffic/arrivals.h"

#include "base/log.h"

namespace semperos {

const char* ArrivalProcessName(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kPoisson:
      return "poisson";
    case ArrivalProcess::kBursty:
      return "bursty";
    case ArrivalProcess::kDiurnal:
      return "diurnal";
  }
  return "?";
}

bool ParseArrivalProcess(const std::string& text, ArrivalProcess* out) {
  if (text == "poisson") {
    *out = ArrivalProcess::kPoisson;
  } else if (text == "bursty") {
    *out = ArrivalProcess::kBursty;
  } else if (text == "diurnal") {
    *out = ArrivalProcess::kDiurnal;
  } else {
    return false;
  }
  return true;
}

double SampleExp(Rng* rng) {
  // Von Neumann (1951): draw uniforms u1 >= u2 >= ... >= u_n < u_{n+1}. If
  // the descending run length n is odd, accept u1 + l; otherwise bump the
  // integer part l and retry. ~e draws per trial, no transcendentals.
  double l = 0.0;
  for (;;) {
    double u1 = rng->NextDouble();
    double prev = u1;
    uint64_t n = 1;
    for (;;) {
      double next = rng->NextDouble();
      if (!(next < prev)) {
        break;
      }
      prev = next;
      ++n;
    }
    if (n % 2 == 1) {
      return l + u1;
    }
    l += 1.0;
  }
}

namespace {

// Bursty: alternating burst/idle phases with exponential durations. The
// arrival rate is kBurstFactor x rate_rps inside a burst and rate_rps
// outside.
constexpr uint32_t kBurstFactor = 4;      // integer so thinning stays exact
constexpr Cycles kBurstMean = 2'000'000;  // mean burst length, cycles (1 ms)
constexpr Cycles kIdleMean = 6'000'000;   // mean idle gap, cycles (3 ms)
static_assert(kBurstFactor >= 1);

// Diurnal: deterministic triangle wave, rate(t) between
// (1 - kAmplitudePct/100) and (1 + kAmplitudePct/100) times rate_rps.
constexpr Cycles kDiurnalPeriod = 8'000'000;  // full wave period, cycles (4 ms)
constexpr uint32_t kAmplitudePct = 80;
static_assert(kAmplitudePct <= 100);
static_assert(kDiurnalPeriod >= 2);

// Exponential duration with integer mean, in cycles, >= 1. The single
// multiply + truncate is one IEEE operation each — nothing for the compiler
// to contract — so results match bit-for-bit across gcc and clang.
Cycles SampleExpCycles(Rng* rng, Cycles mean) {
  double x = SampleExp(rng);
  Cycles d = static_cast<Cycles>(x * static_cast<double>(mean));
  return d == 0 ? 1 : d;
}

// Burst gate for the bursty process: replays the burst/idle timeline and
// reports whether `t` falls inside a burst.
class BurstGate {
 public:
  explicit BurstGate(uint64_t seed) : rng_(seed) {
    phase_end_ = SampleExpCycles(&rng_, kIdleMean);  // start idle
  }

  bool BurstingAt(Cycles t) {
    while (t >= phase_end_) {
      bursting_ = !bursting_;
      phase_end_ += SampleExpCycles(&rng_, bursting_ ? kBurstMean : kIdleMean);
    }
    return bursting_;
  }

 private:
  Rng rng_;
  bool bursting_ = false;
  Cycles phase_end_ = 0;
};

uint64_t MixSeed(uint64_t seed, uint32_t generator, uint32_t stream) {
  // Golden-ratio stride keeps per-generator streams decorrelated; Rng's
  // SplitMix64 init scrambles further.
  return seed + 0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(generator) * 4 + stream + 1);
}

}  // namespace

std::vector<Cycles> BuildArrivalSchedule(const ArrivalSpec& spec, uint64_t seed,
                                         uint32_t generator, uint32_t generators,
                                         uint64_t count) {
  CHECK(generators > 0) << "BuildArrivalSchedule: zero generators";
  CHECK(generator < generators) << "BuildArrivalSchedule: generator out of range";
  CHECK(spec.rate_rps > 0.0) << "BuildArrivalSchedule: rate must be positive";

  std::vector<Cycles> schedule;
  schedule.reserve(count);
  if (count == 0) {
    return schedule;
  }

  // Candidate stream: homogeneous Poisson at this generator's share of the
  // peak rate; thinning (acceptance sampling) shapes it into the requested
  // process. The acceptance test is integer-only so no float comparison can
  // flip across compilers.
  double per_gen_rps = spec.rate_rps / static_cast<double>(generators);
  uint32_t peak_num = 1, peak_den = 1;  // peak rate = base * peak_num / peak_den
  switch (spec.process) {
    case ArrivalProcess::kPoisson:
      break;
    case ArrivalProcess::kBursty:
      peak_num = kBurstFactor;
      break;
    case ArrivalProcess::kDiurnal:
      peak_num = 100 + kAmplitudePct;
      peak_den = 100;
      break;
  }
  double peak_rps = per_gen_rps * static_cast<double>(peak_num) / static_cast<double>(peak_den);
  // Mean candidate gap in cycles; the division is a single exact-rounded op.
  double mean_gap = static_cast<double>(kClockHz) / peak_rps;
  CHECK(mean_gap >= 1.0) << "BuildArrivalSchedule: rate exceeds one request/cycle/generator";

  Rng gaps(MixSeed(seed, generator, 0));
  Rng thin(MixSeed(seed, generator, 1));
  BurstGate burst(MixSeed(seed, generator, 2));

  Cycles t = 0;
  while (schedule.size() < count) {
    double x = SampleExp(&gaps);
    Cycles gap = static_cast<Cycles>(x * mean_gap);
    t += gap == 0 ? 1 : gap;

    bool accept = true;
    switch (spec.process) {
      case ArrivalProcess::kPoisson:
        break;
      case ArrivalProcess::kBursty:
        // Inside a burst the candidate rate is the true rate; outside,
        // accept 1-in-kBurstFactor to fall back to the base rate.
        if (!burst.BurstingAt(t)) {
          accept = thin.NextBelow(kBurstFactor) == 0;
        }
        break;
      case ArrivalProcess::kDiurnal: {
        // Triangle wave on integer phase: distance d from the trough, in
        // [0, half]; rate(t) proportional to 100*half + amp*(2d - half).
        Cycles half = kDiurnalPeriod / 2;
        Cycles phase = t % kDiurnalPeriod;
        Cycles d = phase < half ? phase : kDiurnalPeriod - phase;
        // accept iff u < rate(t)/peak, as integers scaled by 100*half:
        // rate(t)   ~ (100 - amp)*half + 2*amp*d
        // peak rate ~ (100 + amp)*half
        uint64_t amp = kAmplitudePct;
        uint64_t num = (100 - amp) * half + 2 * amp * d;
        uint64_t den = (100 + amp) * half;
        accept = thin.NextBelow(den) < num;
        break;
      }
    }
    if (accept) {
      schedule.push_back(t);
    }
  }
  return schedule;
}

}  // namespace semperos
