// Outside-in instrumentation for the perqd tick benchmark.
//
// Nothing here reaches into the program: the span tracer records spans
// that the benchmark opens around calls into each layer's public functions
// (DaemonPlant::step, PerqController::pump/decide/service, run_replay,
// acct::Store), and the counting transport is a net::Transport decorator
// that forwards every virtual -- send_frame, receive_into, flush and fd
// included -- so epoll readiness and the serialize-once broadcast stay on
// while frames, bytes and time in the wire calls are counted.
//
// Spans live in memory and are written out once, at exit. A span's self
// time is its duration minus the time its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/transport.hpp"

namespace perqbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Layer boundaries the benchmark times. kAllocate is derived: the policy's
/// own decision_seconds() sample for a decide, placed at the decide's start.
enum class Layer : std::uint8_t {
  kTick,      ///< DaemonPlant::step (sim + engine + agents + callback)
  kService,   ///< the plant's service callback
  kPump,      ///< PerqController::pump (primary)
  kDecide,    ///< PerqController::decide (primary)
  kAllocate,  ///< PerqPolicy::allocate inside decide
  kStandby,   ///< standby PerqController::service
  kReplay,    ///< replay::run_replay
  kReopen,    ///< acct::Store reopen (recovery)
};

const char* layer_name(Layer l);

class Tracer {
 public:
  bool enabled() const { return on_; }
  /// Pointer the counting transport polls to decide whether to count.
  const bool* enabled_flag() const { return &on_; }
  void set_enabled(bool on) { on_ = on; }

  /// Opens a span (nested under the innermost open one); returns its index
  /// for end(), or SIZE_MAX when tracing is off.
  std::size_t begin(Layer l, std::uint64_t tick);
  void end(std::size_t idx);
  /// Records a closed child span of the innermost open span.
  void add_child(Layer l, std::uint64_t tick, std::int64_t t0_ns,
                 std::int64_t t1_ns);

  /// Durations and self times (ms) of every span of a layer, in order.
  std::vector<double> durations_ms(Layer l) const;
  std::vector<double> self_ms(Layer l) const;
  /// Total self time of a layer across all its spans, in ms.
  double total_self_ms(Layer l) const;

  std::size_t size() const { return spans_.size(); }
  /// Writes every span as one TSV row: id parent layer tick t0_ns t1_ns.
  void write_tsv(const std::string& path) const;

 private:
  struct Span {
    std::size_t parent;  ///< index + 1 of the parent span, 0 for a root
    Layer layer;
    std::uint64_t tick;
    std::int64_t t0;
    std::int64_t t1;
  };
  std::vector<std::int64_t> child_ns() const;

  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< stack of open span indices
};

/// RAII helper: one span around a scope.
class Scope {
 public:
  Scope(Tracer& t, Layer l, std::uint64_t tick)
      : t_(t), idx_(t.begin(l, tick)) {}
  ~Scope() { t_.end(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::size_t idx_;
};

/// Wire counters of one side of the deployment, summed over connections.
struct NetCounts {
  std::uint64_t msgs_in = 0;
  std::uint64_t msgs_out = 0;
  std::uint64_t bytes_out = 0;
  std::int64_t recv_ns = 0;
  std::int64_t send_ns = 0;
};

/// Counting/timing decorator over any net::Transport. Connections accepted
/// by a wrapped listener are the controller side; connections it dials are
/// the client side (agents, the primary's standby link). Each connection
/// owns its counters -- the plant drives its agents from pool workers --
/// and the transport sums them on demand from the driving thread.
class CountingTransport final : public perq::net::Transport {
 public:
  CountingTransport(perq::net::Transport& inner, const bool* counting)
      : inner_(inner), counting_(counting) {}

  std::unique_ptr<perq::net::Listener> listen(const std::string& address) override;
  std::unique_ptr<perq::net::Connection> connect(const std::string& address) override;

  /// Wraps an already-open listener (its port must be read before).
  std::unique_ptr<perq::net::Listener> wrap(std::unique_ptr<perq::net::Listener> l);

  NetCounts server() const { return sum(true); }
  NetCounts client() const { return sum(false); }

  struct Slot {
    NetCounts counts;
    bool server = false;
  };

 private:
  NetCounts sum(bool server) const;
  friend class CountingListener;
  std::shared_ptr<Slot> new_slot(bool server);

  perq::net::Transport& inner_;
  const bool* counting_;
  std::vector<std::shared_ptr<Slot>> slots_;
};

}  // namespace perqbench
