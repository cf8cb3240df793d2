// serve_rand2048: reads beside publishes. Two reader threads run a closed
// loop over DQRY snapshots of random_connected(2048, 4n) whose tables come
// from seq::apsp, with a seeded mix of 90% p2p_batch of 64 pairs, 8%
// k_nearest(8) and 2% eccentricity; one op is acquire + query + release. A
// third thread publishes every 500 ms, alternating between two seeded graph
// states, and each publish pays the full encode and from_blob verify. Loads
// the query layer only; engine, service and durable stay idle.
#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "publish.h"
#include "core/query.h"
#include "graph/generators.h"
#include "seq/apsp.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using dapsp::DistanceMatrix;
using dapsp::Graph;
using dapsp::NodeId;
using dapsp::core::QueryAnswer;
using dapsp::core::RowStatus;
using dapsp::core::SnapshotStore;

constexpr NodeId kN = 2048;
constexpr unsigned kReaders = 2;
constexpr std::int64_t kPublishPeriodNs = 500'000'000;
constexpr std::size_t kPairs = 64;
constexpr std::uint32_t kK = 8;
// Every kSampleEvery-th op of a reader is checked against the oracle (and
// traced in the traced run).
constexpr std::uint64_t kSampleEvery = 64;
constexpr int kSetups = 3;

// One graph state: its tables, derived from the sequential oracle.
struct State {
  Graph g;
  DistanceMatrix dist;
  std::vector<std::vector<NodeId>> hop;  // hop[v][s]: v's neighbour toward s
};

State make_state(std::uint64_t seed) {
  State st;
  st.g = dapsp::gen::random_connected(kN, 4 * std::size_t{kN}, seed);
  st.dist = dapsp::seq::apsp(st.g);
  st.hop.assign(kN, std::vector<NodeId>(kN, dapsp::core::kNoNextHop));
  for (NodeId v = 0; v < kN; ++v) {
    for (NodeId s = 0; s < kN; ++s) {
      if (s == v) continue;
      for (const NodeId w : st.g.neighbors(v)) {
        if (st.dist.at(w, s) + 1 == st.dist.at(v, s)) {
          st.hop[v][s] = w;
          break;
        }
      }
    }
  }
  return st;
}

// Publishes one state. The snapshot's epoch field names the state, so
// readers find its oracle.
PublishTiming publish(SnapshotStore& store, const State& st, std::uint64_t state_id,
                      std::uint64_t sequence) {
  static const std::vector<std::uint8_t> active(kN, 1);
  static const std::vector<RowStatus> status(kN, RowStatus::kExact);
  return timed_publish(store, [&] {
    return dapsp::core::encode_query_snapshot_tables(st.dist, &st.hop, active, status,
                                                     state_id, sequence, false);
  });
}

enum Kind : int { kP2p = 0, kKnn = 1, kEcc = 2 };

// Empty when a sampled answer matches the oracle of its snapshot's state.
std::string check_p2p(const State& st, std::span<const std::pair<NodeId, NodeId>> pairs,
                      const std::vector<QueryAnswer>& out) {
  if (out.size() != pairs.size()) return "p2p_batch answered a prefix only";
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [u, v] = pairs[i];
    const QueryAnswer& a = out[i];
    if (!a.active || a.status != RowStatus::kExact || a.dist != st.dist.at(u, v) ||
        a.next_hop != (u == v ? dapsp::core::kNoNextHop : st.hop[u][v])) {
      return "kExact p2p(" + std::to_string(u) + ", " + std::to_string(v) +
             ") is wrong";
    }
  }
  return {};
}

std::string check_knn(const State& st, NodeId u, const dapsp::core::KNearestAnswer& a) {
  std::vector<std::pair<std::uint32_t, NodeId>> all;
  for (NodeId v = 0; v < kN; ++v) {
    if (v != u && st.dist.at(v, u) != dapsp::kInfDist) all.emplace_back(st.dist.at(v, u), v);
  }
  std::sort(all.begin(), all.end());
  all.resize(std::min<std::size_t>(kK, all.size()));
  bool ok = a.active && a.status == RowStatus::kExact && !a.truncated &&
            a.nearest.size() == all.size();
  for (std::size_t i = 0; ok && i < all.size(); ++i) {
    ok = a.nearest[i].dist == all[i].first && a.nearest[i].node == all[i].second;
  }
  return ok ? std::string{} : "kExact k_nearest(" + std::to_string(u) + ") is wrong";
}

std::string check_ecc(const State& st, NodeId u, const dapsp::core::EccentricityAnswer& a) {
  std::uint32_t ecc = 0;
  NodeId far = dapsp::core::kNoNextHop;
  for (NodeId v = 0; v < kN; ++v) {
    const std::uint32_t d = st.dist.at(v, u);
    if (d != dapsp::kInfDist && d > ecc) {
      ecc = d;
      far = v;
    }
  }
  const bool ok = a.active && a.status == RowStatus::kExact && !a.truncated &&
                  a.ecc == ecc && a.farthest == far;
  return ok ? std::string{} : "kExact eccentricity(" + std::to_string(u) + ") is wrong";
}

// Op latencies are kept as fixed-size uniform samples, so peak memory does
// not grow with throughput.
struct ReaderOut {
  Reservoir all_us;
  Reservoir us[3];  // by kind
  std::vector<float> acquire_ns;  // means of kSampleEvery consecutive acquires
  double acquire_block_ns = 0.0;
  double busy_s = 0.0;
  std::uint64_t answers = 0, exact = 0;
  LoopCounts loop;
  std::vector<std::string> errors;
};

struct PhaseOut {
  std::vector<ReaderOut> readers{kReaders};
  std::vector<PublishTiming> publishes;
  std::string publisher_error;
  std::uint64_t next_sequence = 0;
  double ops_per_s() const {
    double r = 0.0;
    for (const ReaderOut& o : readers) {
      if (o.busy_s > 0.0) r += static_cast<double>(o.loop.completed) / o.busy_s;
    }
    return r;
  }
};

void reader_loop(SnapshotStore& store, const State* states, std::uint64_t seed,
                 const std::atomic<bool>& stop, bool traced, Tracer& tracer,
                 ReaderOut& out) try {
  dapsp::core::SnapshotReader reader(store);
  dapsp::Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> pairs(kPairs);
  std::vector<QueryAnswer> answers;
  dapsp::core::KNearestAnswer knn;
  dapsp::core::EccentricityAnswer ecc;
  std::uint64_t op = 0;
  std::int64_t busy_ns = 0;
  out.loop = closed_loop(
      [&] { return stop.load(std::memory_order_relaxed); },
      [&] {
        ++op;
        const std::uint64_t r = rng.below(100);
        const Kind kind = r < 90 ? kP2p : r < 98 ? kKnn : kEcc;
        NodeId u = 0;
        if (kind == kP2p) {
          for (auto& p : pairs) {
            p = {static_cast<NodeId>(rng.below(kN)), static_cast<NodeId>(rng.below(kN))};
          }
        } else {
          u = static_cast<NodeId>(rng.below(kN));
        }
        const std::int64_t t0 = now_ns();
        dapsp::core::SnapshotRef ref = reader.acquire();
        const std::int64_t ta = traced ? now_ns() : t0;
        switch (kind) {
          case kP2p: ref->p2p_batch(pairs, answers); break;
          case kKnn: knn = ref->k_nearest(u, kK); break;
          case kEcc: ecc = ref->eccentricity(u); break;
        }
        const std::int64_t tq = traced ? now_ns() : t0;
        const std::uint64_t state_id = ref->epoch();
        ref.release();
        const std::int64_t t1 = now_ns();

        busy_ns += t1 - t0;
        const float us = static_cast<float>(t1 - t0) / 1e3f;
        out.all_us.add(us);
        out.us[kind].add(us);
        if (traced) {
          // An acquire takes tens of whole nanoseconds, so a median of single
          // acquires would read the same integer on every run.
          out.acquire_block_ns += static_cast<double>(ta - t0);
          if (op % kSampleEvery == 0) {
            out.acquire_ns.push_back(static_cast<float>(out.acquire_block_ns / kSampleEvery));
            out.acquire_block_ns = 0.0;
          }
        }
        if (kind == kP2p) {
          out.answers += answers.size();
          for (const QueryAnswer& a : answers) out.exact += a.status == RowStatus::kExact;
        } else {
          ++out.answers;
          out.exact += (kind == kKnn ? knn.status : ecc.status) == RowStatus::kExact;
        }
        if (op % kSampleEvery != 0) return true;
        if (traced) {
          const std::int32_t root = tracer.begin_at("op", Layer::kBench, op, t0);
          tracer.record("acquire", Layer::kQuery, op, t0, ta);
          tracer.record(kind == kP2p ? "p2p_batch" : kind == kKnn ? "k_nearest" : "eccentricity",
                        Layer::kQuery, op, ta, tq);
          tracer.end_at(root, t1);
        }
        const State& st = states[state_id % 2];
        std::string why = kind == kP2p   ? check_p2p(st, pairs, answers)
                          : kind == kKnn ? check_knn(st, u, knn)
                                         : check_ecc(st, u, ecc);
        if (why.empty()) return true;
        out.errors.push_back(std::move(why));
        return false;
      });
  out.busy_s = static_cast<double>(busy_ns) / 1e9;
} catch (const std::exception& e) {
  out.errors.push_back(std::string("reader: ") + e.what());
}

// Publishes on a fixed 500 ms schedule until `deadline`, alternating states.
void publisher_loop(SnapshotStore& store, const State* states, std::int64_t first_due,
                    std::int64_t deadline, bool traced, Tracer& tracer, PhaseOut& out) try {
  for (std::int64_t due = first_due; due < deadline; due += kPublishPeriodNs) {
    const std::int64_t now = now_ns();
    if (now < due) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    const std::uint64_t seq = out.next_sequence++;
    PublishTiming p = publish(store, states[seq % 2], seq % 2, seq);
    p.due = due;
    if (traced) trace_publish(tracer, "publish", seq, p);
    out.publishes.push_back(p);
  }
} catch (const std::exception& e) {
  out.publisher_error = std::string("publisher: ") + e.what();
}

}  // namespace

Report run_serve(const Options& opt) {
  Report rep;
  rep.threads = kReaders + 1;
  for (unsigned i = 0; i < kReaders + 1; ++i) rep.tracers.emplace_back(opt.trace);

  // Oracle work, excluded from every timed interval: both states' tables.
  const State states[2] = {make_state(derive_seed(opt.seed, 1)),
                           make_state(derive_seed(opt.seed, 2))};

  // Set-up: publish the first snapshot (timed kSetups times).
  SnapshotStore store;
  std::vector<double> setup_s;
  std::uint64_t sequence = 0;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = now_ns();
    publish(store, states[0], 0, sequence++);
    setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
  }
  sequence |= 1;  // the publisher alternates by sequence parity: state 1 next

  auto run_phase = [&](double seconds, bool traced) {
    PhaseOut out;
    out.next_sequence = sequence;
    std::atomic<bool> stop{false};
    const std::int64_t begin = now_ns();
    const std::int64_t deadline = begin + static_cast<std::int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (unsigned r = 0; r < kReaders; ++r) {
      threads.emplace_back(reader_loop, std::ref(store), states,
                           derive_seed(opt.seed, 10 + r), std::cref(stop), traced,
                           std::ref(rep.tracers[r]), std::ref(out.readers[r]));
    }
    threads.emplace_back(publisher_loop, std::ref(store), states, begin + kPublishPeriodNs,
                         deadline, traced, std::ref(rep.tracers[kReaders]), std::ref(out));
    std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(deadline)));
    stop.store(true);
    for (std::thread& t : threads) t.join();
    sequence = out.next_sequence;
    if (!out.publisher_error.empty()) rep.errors.push_back(out.publisher_error);
    for (ReaderOut& r : out.readers) {
      rep.attempted += r.loop.attempted;
      rep.failed += r.loop.failed;
      if (!r.loop.balanced()) rep.errors.push_back("closed loop: attempted != completed + failed");
      for (std::string& e : r.errors) rep.errors.push_back(std::move(e));
    }
    return out;
  };

  const PhaseOut plain = run_phase(opt.trace ? opt.seconds / 2.0 : opt.seconds, false);
  std::vector<double> op_ms, pub_ms;
  std::uint64_t ops = 0;
  for (const ReaderOut& r : plain.readers) {
    for (const float x : r.all_us.samples()) op_ms.push_back(x / 1e3);
    ops += r.all_us.seen();
  }
  for (const PublishTiming& p : plain.publishes) {
    pub_ms.push_back(ms_between(p.due, p.live));
  }
  rep.add_e2e("setup_s", median(setup_s), "s", setup_s.size(),
              "first snapshot encode + verify + publish");
  rep.add_e2e("ops_per_s", plain.ops_per_s(), "1/s", ops,
              "closed loop, 2 readers: ops / time inside ops, summed");
  rep.add_e2e("op_ms_p50", median(op_ms), "ms", op_ms.size(),
              "uniform sample of the run's ops");
  rep.add_tail(op_ms);
  rep.add_e2e("publish_ms_p50", median(pub_ms), "ms", pub_ms.size(), "due -> live");
  if (!opt.trace) return rep;

  const PhaseOut traced = run_phase(opt.seconds / 2.0, true);
  std::vector<double> by_kind[3], acquire_ns, encode, verify, swap_us, pub, lag;
  std::uint64_t answers = 0, exact = 0;
  for (const ReaderOut& r : traced.readers) {
    for (int k = 0; k < 3; ++k) {
      by_kind[k].insert(by_kind[k].end(), r.us[k].samples().begin(), r.us[k].samples().end());
    }
    acquire_ns.insert(acquire_ns.end(), r.acquire_ns.begin(), r.acquire_ns.end());
    answers += r.answers;
    exact += r.exact;
  }
  std::size_t snapshot_bytes = 0;
  for (const PublishTiming& p : traced.publishes) {
    encode.push_back(ms_between(p.start, p.encoded));
    verify.push_back(ms_between(p.encoded, p.verified));
    swap_us.push_back(ms_between(p.verified, p.live) * 1e3);
    pub.push_back(ms_between(p.due, p.live));
    lag.push_back(ms_between(p.due, p.start));
    snapshot_bytes = std::max(snapshot_bytes, p.bytes);
  }
  rep.add_layer("query.encode_ms_p50", median(encode), "ms", encode.size());
  rep.add_layer("query.verify_ms_p50", median(verify), "ms", verify.size());
  rep.add_layer("query.swap_us_p50", median(swap_us), "us", swap_us.size());
  rep.add_layer("query.snapshot_mib", static_cast<double>(snapshot_bytes) / 1048576.0,
                "MiB", pub.size());
  rep.add_layer("query.publish_ms_p50", median(pub), "ms", pub.size(), "due -> live");
  rep.add_layer("query.p2p_us_p50", median(by_kind[kP2p]), "us", by_kind[kP2p].size(),
                "one op = 64 pairs");
  rep.add_layer("query.knn_us_p50", median(by_kind[kKnn]), "us", by_kind[kKnn].size());
  rep.add_layer("query.ecc_us_p50", median(by_kind[kEcc]), "us", by_kind[kEcc].size());
  rep.add_layer("query.acquire_ns_p50", median(acquire_ns), "ns", acquire_ns.size(),
                "median of 64-op means");
  rep.add_layer("query.exact_ratio",
                answers ? static_cast<double>(exact) / static_cast<double>(answers) : 0.0,
                "ratio", answers);
  rep.add_layer("query.publish_lag_ms_max", lag.empty() ? 0.0 : *std::max_element(lag.begin(), lag.end()),
                "ms", lag.size(), "how late the publisher started");
  rep.add_layer("bench.trace_overhead", traced.ops_per_s() / plain.ops_per_s(), "ratio",
                by_kind[kP2p].size());
  return rep;
}

}  // namespace perfbench
