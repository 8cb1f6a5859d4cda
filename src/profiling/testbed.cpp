#include "profiling/testbed.hpp"

#include <algorithm>
#include <stdexcept>

namespace bml {

SimulatedMachine::SimulatedMachine(MachineSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), rng_(seed) {}

double SimulatedMachine::noisy(double value, double sigma) {
  if (sigma <= 0.0) return value;
  return std::max(0.0, value * (1.0 + rng_.normal(0.0, sigma)));
}

void SimulatedMachine::set_clients(int clients) {
  if (clients < 0)
    throw std::invalid_argument("SimulatedMachine: clients must be >= 0");
  clients_ = clients;
}

double SimulatedMachine::observe_throughput() {
  if (state_ != MachineState::kOn || clients_ == 0) return 0.0;
  // Closed-loop saturation: throughput rises with concurrency and levels
  // off at the machine's true maximum rate.
  const double c = static_cast<double>(clients_);
  const double rate =
      spec_.truth.max_perf() * c / (c + spec_.saturation_clients);
  return noisy(rate, spec_.throughput_noise);
}

Watts SimulatedMachine::observe_power() {
  switch (state_) {
    case MachineState::kOff:
      return 0.0;  // the paper's Off state draws nothing measurable
    case MachineState::kBooting:
      return noisy(spec_.truth.on_cost().average_power(), spec_.power_noise);
    case MachineState::kShuttingDown:
      return noisy(spec_.truth.off_cost().average_power(), spec_.power_noise);
    case MachineState::kOn: {
      const double c = static_cast<double>(clients_);
      const double rate =
          clients_ == 0
              ? 0.0
              : spec_.truth.max_perf() * c / (c + spec_.saturation_clients);
      return noisy(spec_.truth.power_at(rate), spec_.power_noise);
    }
    case MachineState::kFailed:
      return 0.0;  // a failed machine draws nothing
  }
  return 0.0;
}

void SimulatedMachine::power_on() {
  if (state_ != MachineState::kOff)
    throw std::logic_error("SimulatedMachine: power_on requires Off");
  state_ = MachineState::kBooting;
  transition_left_ = spec_.truth.on_cost().duration;
  if (transition_left_ <= 0.0) state_ = MachineState::kOn;
}

void SimulatedMachine::power_off() {
  if (state_ != MachineState::kOn)
    throw std::logic_error("SimulatedMachine: power_off requires On");
  state_ = MachineState::kShuttingDown;
  transition_left_ = spec_.truth.off_cost().duration;
  if (transition_left_ <= 0.0) state_ = MachineState::kOff;
}

void SimulatedMachine::tick() {
  if (state_ == MachineState::kBooting ||
      state_ == MachineState::kShuttingDown) {
    transition_left_ -= 1.0;
    if (transition_left_ <= 1e-9) {
      state_ = state_ == MachineState::kBooting ? MachineState::kOn
                                                : MachineState::kOff;
      transition_left_ = 0.0;
    }
  }
}

Watts Wattmeter::average_power(SimulatedMachine& machine, Seconds duration) {
  if (duration <= 0.0)
    throw std::invalid_argument("Wattmeter: duration must be > 0");
  double sum = 0.0;
  const auto n = static_cast<std::size_t>(duration);
  for (std::size_t i = 0; i < n; ++i) {
    sum += machine.observe_power();
    machine.tick();
  }
  return sum / static_cast<double>(n);
}

Joules Wattmeter::energy(SimulatedMachine& machine, Seconds duration) {
  return average_power(machine, duration) * duration;
}

}  // namespace bml
