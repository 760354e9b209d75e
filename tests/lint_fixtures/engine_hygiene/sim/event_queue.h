// Seeded engine-hygiene violations: a std::function callback, a shared_ptr
// state block, and a make_shared per scheduled event. This comment's
// std::function and shared_ptr mentions and the "std::function" string
// must NOT be flagged.
#ifndef FIXTURE_SIM_EVENT_QUEUE_H
#define FIXTURE_SIM_EVENT_QUEUE_H

#include <functional>
#include <memory>
#include <vector>

namespace fixture {

struct State {
  bool cancelled = false;
};

struct Entry {
  std::function<void()> fn;      // violation 1: type-erased, may allocate
  std::shared_ptr<State> state;  // violation 2: shared state block
};

struct Queue {
  std::vector<Entry> entries;
  const char* name = "std::function";  // fine: a string literal

  void schedule(void (*fn)()) {
    entries.push_back(Entry{fn, std::make_shared<State>()});  // violation 3
  }
};

}  // namespace fixture

#endif  // FIXTURE_SIM_EVENT_QUEUE_H
