#include "tracing.hpp"

#include <cstdio>
#include <limits>
#include <stdexcept>

#include "proto/message.hpp"

namespace perqbench {

namespace net = perq::net;

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kTick: return "tick";
    case Layer::kService: return "service";
    case Layer::kPump: return "pump";
    case Layer::kDecide: return "decide";
    case Layer::kAllocate: return "allocate";
    case Layer::kStandby: return "standby";
    case Layer::kReplay: return "replay";
    case Layer::kReopen: return "reopen";
  }
  return "?";
}

constexpr std::size_t kNoSpan = std::numeric_limits<std::size_t>::max();

std::size_t Tracer::begin(Layer l, std::uint64_t tick) {
  if (!on_) return kNoSpan;
  const std::size_t parent = open_.empty() ? 0 : open_.back() + 1;
  spans_.push_back({parent, l, tick, now_ns(), 0});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t idx) {
  if (idx == kNoSpan) return;
  spans_[idx].t1 = now_ns();
  if (open_.empty() || open_.back() != idx) {
    throw std::logic_error("perqbench: spans closed out of order");
  }
  open_.pop_back();
}

void Tracer::add_child(Layer l, std::uint64_t tick, std::int64_t t0_ns,
                       std::int64_t t1_ns) {
  if (!on_) return;
  const std::size_t parent = open_.empty() ? 0 : open_.back() + 1;
  spans_.push_back({parent, l, tick, t0_ns, t1_ns});
}

std::vector<std::int64_t> Tracer::child_ns() const {
  std::vector<std::int64_t> child(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child[s.parent - 1] += s.t1 - s.t0;
  }
  return child;
}

std::vector<double> Tracer::durations_ms(Layer l) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.layer == l) out.push_back(static_cast<double>(s.t1 - s.t0) * 1e-6);
  }
  return out;
}

std::vector<double> Tracer::self_ms(Layer l) const {
  const std::vector<std::int64_t> child = child_ns();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.layer == l) {
      out.push_back(static_cast<double>(s.t1 - s.t0 - child[i]) * 1e-6);
    }
  }
  return out;
}

double Tracer::total_self_ms(Layer l) const {
  double sum = 0.0;
  for (const double v : self_ms(l)) sum += v;
  return sum;
}

void Tracer::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("perqbench: cannot write " + path);
  std::fprintf(f, "id\tparent\tlayer\ttick\tt0_ns\tt1_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%zu\t%s\t%llu\t%lld\t%lld\n", i + 1, s.parent,
                 layer_name(s.layer), static_cast<unsigned long long>(s.tick),
                 static_cast<long long>(s.t0), static_cast<long long>(s.t1));
  }
  std::fclose(f);
}

namespace {

/// Forwards every Connection virtual to the wrapped connection; counts and
/// times the wire calls while the tracer's flag is up.
class CountingConnection final : public net::Connection {
 public:
  CountingConnection(std::unique_ptr<net::Connection> inner,
                     std::shared_ptr<CountingTransport::Slot> slot,
                     const bool* counting)
      : inner_(std::move(inner)), slot_(std::move(slot)), counting_(counting) {}

  bool send(const perq::proto::Message& m) override {
    if (!*counting_) return inner_->send(m);
    perq::proto::encode_into(m, scratch_);
    const std::int64_t t0 = now_ns();
    const bool ok = inner_->send(m);
    NetCounts& c = slot_->counts;
    c.send_ns += now_ns() - t0;
    ++c.msgs_out;
    c.bytes_out += scratch_.size();
    return ok;
  }

  bool send_frame(const net::SharedFrame& f) override {
    if (!*counting_) return inner_->send_frame(f);
    const std::int64_t t0 = now_ns();
    const bool ok = inner_->send_frame(f);
    NetCounts& c = slot_->counts;
    c.send_ns += now_ns() - t0;
    ++c.msgs_out;
    if (f) c.bytes_out += f->size();
    return ok;
  }

  std::vector<perq::proto::Message> receive() override {
    if (!*counting_) return inner_->receive();
    const std::int64_t t0 = now_ns();
    std::vector<perq::proto::Message> out = inner_->receive();
    NetCounts& c = slot_->counts;
    c.recv_ns += now_ns() - t0;
    c.msgs_in += out.size();
    return out;
  }

  void receive_into(std::vector<perq::proto::Message>& out) override {
    if (!*counting_) {
      inner_->receive_into(out);
      return;
    }
    const std::size_t before = out.size();
    const std::int64_t t0 = now_ns();
    inner_->receive_into(out);
    NetCounts& c = slot_->counts;
    c.recv_ns += now_ns() - t0;
    c.msgs_in += out.size() - before;
  }

  void flush() override {
    if (!*counting_) {
      inner_->flush();
      return;
    }
    const std::int64_t t0 = now_ns();
    inner_->flush();
    slot_->counts.send_ns += now_ns() - t0;
  }

  bool open() const override { return inner_->open(); }
  bool corrupt() const override { return inner_->corrupt(); }
  void close() override { inner_->close(); }
  int fd() const override { return inner_->fd(); }

 private:
  std::unique_ptr<net::Connection> inner_;
  std::shared_ptr<CountingTransport::Slot> slot_;
  const bool* counting_;
  std::vector<std::uint8_t> scratch_;
};

}  // namespace

class CountingListener final : public net::Listener {
 public:
  CountingListener(std::unique_ptr<net::Listener> inner, CountingTransport& t)
      : inner_(std::move(inner)), t_(t) {}

  std::vector<std::unique_ptr<net::Connection>> accept_new() override {
    std::vector<std::unique_ptr<net::Connection>> out = inner_->accept_new();
    for (auto& c : out) {
      c = std::make_unique<CountingConnection>(std::move(c), t_.new_slot(true),
                                               t_.counting_);
    }
    return out;
  }
  void close() override { inner_->close(); }
  int fd() const override { return inner_->fd(); }

 private:
  std::unique_ptr<net::Listener> inner_;
  CountingTransport& t_;
};

std::shared_ptr<CountingTransport::Slot> CountingTransport::new_slot(bool server) {
  slots_.push_back(std::make_shared<Slot>());
  slots_.back()->server = server;
  return slots_.back();
}

std::unique_ptr<net::Listener> CountingTransport::listen(const std::string& address) {
  return wrap(inner_.listen(address));
}

std::unique_ptr<net::Listener> CountingTransport::wrap(
    std::unique_ptr<net::Listener> l) {
  if (l == nullptr) return nullptr;
  return std::make_unique<CountingListener>(std::move(l), *this);
}

std::unique_ptr<net::Connection> CountingTransport::connect(const std::string& address) {
  std::unique_ptr<net::Connection> c = inner_.connect(address);
  if (c == nullptr) return nullptr;
  return std::make_unique<CountingConnection>(std::move(c), new_slot(false),
                                              counting_);
}

NetCounts CountingTransport::sum(bool server) const {
  NetCounts total;
  for (const auto& s : slots_) {
    if (s->server != server) continue;
    total.msgs_in += s->counts.msgs_in;
    total.msgs_out += s->counts.msgs_out;
    total.bytes_out += s->counts.bytes_out;
    total.recv_ns += s->counts.recv_ns;
    total.send_ns += s->counts.send_ns;
  }
  return total;
}

}  // namespace perqbench
