// One snapshot publish as ServingPublisher makes it (encode, from_blob
// verify, SnapshotStore::publish), with every step timed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/query.h"
#include "trace.h"

namespace perfbench {

struct PublishTiming {
  std::int64_t due = 0;  // when a scheduled publish was due (0 = not scheduled)
  std::int64_t start = 0, encoded = 0, verified = 0, live = 0;
  std::size_t bytes = 0;
};

// `encode` returns the DQRY blob to publish.
template <class Encode>
PublishTiming timed_publish(dapsp::core::SnapshotStore& store, Encode&& encode) {
  PublishTiming p;
  p.start = now_ns();
  std::vector<std::uint8_t> blob = encode();
  p.bytes = blob.size();
  p.encoded = now_ns();
  auto snap = std::make_unique<const dapsp::core::QuerySnapshot>(
      dapsp::core::QuerySnapshot::from_blob(std::move(blob)));
  p.verified = now_ns();
  store.publish(std::move(snap));
  p.live = now_ns();
  return p;
}

// Spans of one publish: `name` over encode, verify and swap.
inline void trace_publish(Tracer& t, const char* name, std::uint64_t op,
                          const PublishTiming& p) {
  const std::int32_t root = t.begin_at(name, Layer::kQuery, op, p.start);
  t.record("encode", Layer::kQuery, op, p.start, p.encoded);
  t.record("verify", Layer::kQuery, op, p.encoded, p.verified);
  t.record("swap", Layer::kQuery, op, p.verified, p.live);
  t.end_at(root, p.live);
}

}  // namespace perfbench
