// Same tokens outside the event engine: engine-hygiene must stay silent here.
#ifndef FIXTURE_SIM_TIMER_WHEEL_H
#define FIXTURE_SIM_TIMER_WHEEL_H

#include <functional>
#include <memory>

namespace fixture {

struct Timer {
  std::function<void()> fn;  // fine: not an engine hot file
  std::shared_ptr<Timer> next = std::make_shared<Timer>();
};

}  // namespace fixture

#endif  // FIXTURE_SIM_TIMER_WHEEL_H
