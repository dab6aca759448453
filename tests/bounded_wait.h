// A follow-up step that a regression could hang (a lock or seqlock left
// held by a transaction that was not rolled back) runs on a helper thread
// under a deadline.  On a timeout the helper is detached and the state it
// uses is leaked with it, so the test fails instead of hanging the suite.
#pragma once

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <utility>

namespace otb::test {

/// Run `fn(*state)` on a helper thread; true iff it returned within `limit`.
template <typename State, typename Fn>
bool finishes_within(std::chrono::seconds limit, std::shared_ptr<State> state,
                     Fn fn) {
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> ready = done->get_future();
  std::thread helper([state, done, fn = std::move(fn)]() mutable {
    fn(*state);
    done->set_value();
  });
  if (ready.wait_for(limit) != std::future_status::ready) {
    helper.detach();
    return false;
  }
  helper.join();
  return true;
}

/// Long enough for sanitizer builds on a loaded host; a healthy follow-up
/// takes microseconds.
inline constexpr std::chrono::seconds kFollowUpLimit{10};

}  // namespace otb::test
