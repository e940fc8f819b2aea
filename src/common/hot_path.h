// TARGAD_HOT_PATH: the serving hot-path purity annotation.
//
// A function marked TARGAD_HOT_PATH is on the per-row serving path — it
// runs once per scored row (or more) under open-loop load, so its latency
// is the product's latency. The annotation is a CONTRACT enforced
// statically by targad-lint's purity pass (tools/lint/purity.cc, driven
// transitively over the cross-TU call graph by tools/lint/graph.cc):
//
//   - no heap growth: no `new`, make_unique/make_shared, malloc family,
//     push_back/emplace_back/resize/reserve. Writing into buffers sized
//     up front is fine, and append() into a long-lived reused buffer is
//     explicitly legal — its capacity amortizes to zero growth.
//   - no string building: no std::string construction, to_string, or
//     stringstreams. Formatting belongs on the edges (FormatOkScore /
//     FormatErr run before/after, not inside).
//   - no lock acquisition: no MutexLock (or std::lock_guard friends).
//     Hot code either runs lock-free over atomics or is factored into a
//     *Locked() function whose caller holds the mutex (TARGAD_REQUIRES
//     keeps that honest at compile time).
//   - no logging: TARGAD_LOG is I/O. TARGAD_CHECK/TARGAD_DCHECK stay
//     legal — they are a branch plus abort, not I/O, until they fail.
//   - no blocking calls: no sleeps, poll/select/epoll, accept/connect,
//     or stdio reads.
//
// The lint applies the bans to the hot function AND to everything it can
// reach through resolvable calls, across translation units, with no
// exemption: a one-time initializer (a function-local static's) is scanned
// like any other body, so it must be pure as well.
//
// The macro expands to the `hot` function attribute where available, so
// the annotation also steers code layout; its real value is the lint
// contract above.

#ifndef TARGAD_COMMON_HOT_PATH_H_
#define TARGAD_COMMON_HOT_PATH_H_

#if defined(__GNUC__) || defined(__clang__)
#define TARGAD_HOT_PATH __attribute__((hot))
#else
#define TARGAD_HOT_PATH
#endif

// TARGAD_POLL_THREAD: marks the event-loop root that runs on the network
// poll thread (net/server.cc). targad-lint's poll-thread reachability pass
// walks the call graph from each root and rejects anything that can stall
// the loop: blocking syscalls (sleeps, connect, blocking reads — the
// root's own poll() is the event wait and is exempt), lock acquisitions
// outside the kNetSession/kNetReady ranks, and buffers that grow inside
// the unbounded loop without a per-iteration reset.
#define TARGAD_POLL_THREAD

#endif  // TARGAD_COMMON_HOT_PATH_H_
