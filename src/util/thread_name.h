#ifndef BOUNCER_UTIL_THREAD_NAME_H_
#define BOUNCER_UTIL_THREAD_NAME_H_

#include <pthread.h>

#include <string>
#include <thread>

namespace bouncer {

/// Names `thread` as /proc/<pid>/task/<tid>/comm, top -H and debuggers
/// show it. Called by the creator right after the thread starts, so the
/// name is set before the component's Start() returns. Linux keeps at
/// most 15 characters; the rest is cut.
inline void SetThreadName(std::thread& thread, const std::string& name) {
  ::pthread_setname_np(thread.native_handle(), name.substr(0, 15).c_str());
}

}  // namespace bouncer

#endif  // BOUNCER_UTIL_THREAD_NAME_H_
