#include "loadgen.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <thread>

#include "common/rng.h"
#include "net/client.h"
#include "net/protocol.h"
#include "report.h"

namespace targad {
namespace harness {

namespace {

constexpr uint64_t kRowSpanEvery = 256;

struct ConnectionResult {
  LoadResult result;
  Clock::time_point first_send{};
  Clock::time_point last_reply{};
  bool sent_any = false;
  bool replied_any = false;
};

uint64_t Ns(Clock::duration d) {
  const int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  return ns < 0 ? 0 : static_cast<uint64_t>(ns);
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

ConnectionResult RunConnection(const LoadPlan& plan, size_t index,
                               Clock::time_point start) {
  ConnectionResult out;
  LoadResult& r = out.result;
  net::LineClient client;
  const Status status = client.Connect(plan.host, plan.port);
  if (!status.ok()) {
    std::fprintf(stderr, "loadgen: %s\n", status.ToString().c_str());
    r.errors = 1;
    return out;
  }
  const int fd = client.fd();
  // Nonblocking: a stalled server must never block the generator; queued
  // arrivals keep aging against their scheduled times instead.
  (void)::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);

  const std::vector<std::string>& lines = *plan.lines;
  const std::vector<std::string>& expected = *plan.expected;
  Rng rng(plan.seed * 1000003ULL + index + 1);
  size_t cursor = static_cast<size_t>(rng.UniformInt(lines.size()));
  const bool open = plan.mode == LoadPlan::Mode::kOpen;
  const double rate = plan.rate / static_cast<double>(plan.connections);
  auto next_gap = [&] { return Seconds(rng.Exponential(rate)); };

  struct Awaiting {
    Clock::time_point origin;
    size_t line;
  };
  std::deque<Awaiting> awaiting;
  std::string outbuf;
  size_t out_off = 0;
  net::FrameDecoder decoder(1 << 20);
  std::string reply;
  bool dead = false;

  auto emit = [&](Clock::time_point origin, Clock::time_point now) {
    outbuf += lines[cursor];
    awaiting.push_back({origin, cursor});
    cursor = (cursor + 1) % lines.size();
    ++r.sent;
    if (!out.sent_any) {
      out.first_send = now;
      out.sent_any = true;
    }
  };
  auto on_reply = [&](const std::string& text, Clock::time_point now) {
    if (awaiting.empty()) {
      ++r.errors;  // Unsolicited reply.
      return;
    }
    const Awaiting a = awaiting.front();
    awaiting.pop_front();
    out.last_reply = now;
    out.replied_any = true;
    if (text == expected[a.line]) {
      if (r.ok++ % plan.latency_every == 0) {
        r.latency_ns.push_back(Ns(now - a.origin));
      }
      const auto slice = static_cast<size_t>(
          std::chrono::duration<double>(now - start).count() /
          LoadResult::kSliceS);
      if (slice < r.ok_per_slice.size()) ++r.ok_per_slice[slice];
      if (plan.tracer != nullptr && plan.tracer->enabled() &&
          r.ok % kRowSpanEvery == 0) {
        plan.tracer->Record("row", plan.tracer->NewId(), plan.parent_span,
                            a.origin, now);
      }
    } else if (text.rfind("OK ", 0) == 0) {
      ++r.wrong;
    } else if (text.rfind("ERR overloaded", 0) == 0) {
      ++r.shed;
    } else {
      ++r.errors;
    }
  };

  const auto end = start + Seconds(plan.duration_s);
  const auto deadline = end + std::chrono::seconds(5);
  auto next_arrival = start + next_gap();
  // Sample buffers are sized once up front (with a margin of many standard
  // deviations of the Poisson count), so growing them cannot make the
  // process's peak memory vary from run to run.
  const size_t expected_samples =
      open ? static_cast<size_t>(rate * plan.duration_s * 1.02) + 1024
           : size_t{1} << 17;
  r.latency_ns.reserve(expected_samples / plan.latency_every);
  if (open) r.lag_ns.reserve(expected_samples);
  r.ok_per_slice.assign(
      static_cast<size_t>(plan.duration_s / LoadResult::kSliceS), 0);
  if (!open) {
    std::this_thread::sleep_until(start);
    const auto now = Clock::now();
    for (size_t i = 0; i < plan.depth; ++i) emit(now, now);
  }

  char buf[64 * 1024];
  while (!dead) {
    auto now = Clock::now();
    const bool sending = now < end;
    if (!sending && awaiting.empty()) break;
    if (now > deadline) break;  // What is still awaited counts as lost.

    if (open) {
      while (next_arrival <= now && next_arrival < end) {
        emit(next_arrival, now);
        r.lag_ns.push_back(Ns(now - next_arrival));
        next_arrival += next_gap();
      }
    }
    if (out_off < outbuf.size()) {
      const ssize_t n = ::send(fd, outbuf.data() + out_off,
                               outbuf.size() - out_off, MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<size_t>(n);
        if (out_off == outbuf.size()) {
          outbuf.clear();
          out_off = 0;
        }
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        dead = true;
        break;
      }
    }

    // Sleep until the next arrival is due (open loop) or a reply arrives.
    Clock::duration wait = std::chrono::milliseconds(50);
    if (open && next_arrival < end) {
      wait = std::max(Clock::duration::zero(), next_arrival - Clock::now());
    }
    const int64_t wait_ns = static_cast<int64_t>(Ns(wait));
    const timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                           static_cast<long>(wait_ns % 1000000000)};
    pollfd p{fd, POLLIN, 0};
    if (out_off < outbuf.size()) p.events |= POLLOUT;
    if (::ppoll(&p, 1, &timeout, nullptr) <= 0) continue;
    if (p.revents & POLLERR) {
      dead = true;
      break;
    }
    if (!(p.revents & (POLLIN | POLLHUP))) continue;

    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n > 0) {
        decoder.Append(buf, static_cast<size_t>(n));
        if (static_cast<size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n == 0) dead = true;  // Server closed the connection.
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) dead = true;
      break;
    }
    now = Clock::now();
    for (;;) {
      const net::FrameDecoder::Outcome outcome = decoder.ReadLine(&reply);
      if (outcome == net::FrameDecoder::Outcome::kOversized) dead = true;
      if (outcome != net::FrameDecoder::Outcome::kLine) break;
      on_reply(reply, now);
      if (!open && now < end) emit(now, now);
    }
  }
  r.lost += awaiting.size();
  return out;
}

}  // namespace

LoadResult RunLoad(const LoadPlan& plan) {
  std::vector<ConnectionResult> results(plan.connections);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  {
    std::vector<std::thread> threads;
    threads.reserve(plan.connections);
    for (size_t c = 0; c < plan.connections; ++c) {
      threads.emplace_back(
          [&, c] { results[c] = RunConnection(plan, c, start); });
    }
    for (std::thread& t : threads) t.join();
  }

  LoadResult total;
  size_t latencies = 0, lags = 0;
  for (const ConnectionResult& c : results) {
    latencies += c.result.latency_ns.size();
    lags += c.result.lag_ns.size();
  }
  total.latency_ns.reserve(latencies);
  total.lag_ns.reserve(lags);
  Clock::time_point first{}, last{};
  bool any = false;
  for (const ConnectionResult& c : results) {
    const LoadResult& r = c.result;
    total.sent += r.sent;
    total.ok += r.ok;
    total.shed += r.shed;
    total.errors += r.errors;
    total.lost += r.lost;
    total.wrong += r.wrong;
    total.latency_ns.insert(total.latency_ns.end(), r.latency_ns.begin(),
                            r.latency_ns.end());
    total.lag_ns.insert(total.lag_ns.end(), r.lag_ns.begin(), r.lag_ns.end());
    total.ok_per_slice.resize(
        std::max(total.ok_per_slice.size(), r.ok_per_slice.size()));
    for (size_t s = 0; s < r.ok_per_slice.size(); ++s) {
      total.ok_per_slice[s] += r.ok_per_slice[s];
    }
    if (c.sent_any && c.replied_any) {
      first = any ? std::min(first, c.first_send) : c.first_send;
      last = any ? std::max(last, c.last_reply) : c.last_reply;
      any = true;
    }
  }
  if (any) total.window_s = std::chrono::duration<double>(last - first).count();
  return total;
}

double LoadResult::FastSliceThroughput() const {
  if (ok_per_slice.size() < 2) return throughput();
  std::vector<double> rates;
  for (size_t s = 1; s < ok_per_slice.size(); ++s) {
    rates.push_back(static_cast<double>(ok_per_slice[s]) / kSliceS);
  }
  return Quantile(rates, 0.9);
}

}  // namespace harness
}  // namespace targad
