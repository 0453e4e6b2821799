#include "src/net/formation.h"

#include <utility>

#include "src/serial/frame.h"

namespace fargo::net {

void WriteBatchItem(serial::Writer& w, const Message& m) {
  w.WriteU8(static_cast<std::uint8_t>(m.kind));
  w.WriteVarint(m.correlation);
  w.WriteVarint(m.session.origin.value);
  w.WriteVarint(m.session.peer.value);
  w.WriteVarint(m.session.epoch);
  w.WriteVarint(m.session.slot);
  w.WriteVarint(m.session.seq);
  w.WriteBytes(m.payload);
}

Message ReadBatchItem(serial::Reader& r) {
  Message m;
  m.kind = static_cast<MessageKind>(r.ReadU8());
  m.correlation = r.ReadVarint();
  m.session.origin.value = static_cast<std::uint32_t>(r.ReadVarint());
  m.session.peer.value = static_cast<std::uint32_t>(r.ReadVarint());
  m.session.epoch = r.ReadVarint();
  m.session.slot = static_cast<std::uint32_t>(r.ReadVarint());
  m.session.seq = r.ReadVarint();
  m.payload = r.ReadBytes();
  return m;
}

void Formation::Enqueue(Message msg, Lane lane) {
  if (!enabled_ || msg.to == self_) {
    // Loopback is free and chaos-immune; batching it buys nothing and
    // would add a decode step to the fast path.
    net_.Send(std::move(msg));
    return;
  }
  const LaneKey key{msg.to, lane};
  Queue& q = queues_[key];
  q.bytes += msg.payload.size();
  q.items.push_back(std::move(msg));
  switch (lane) {
    case Lane::kImmediate:
    case Lane::kPriority:
      // Delay-0 flush: everything enqueued for this peer in the current
      // scheduler tick departs as one frame, at the same virtual time a
      // raw Send would have used.
      if (q.timer == 0) Arm(key, q, 0);
      break;
    case Lane::kBulk:
      if (q.bytes >= policy_.flush_bytes) {
        Flush(key, q);
      } else if (q.timer == 0) {
        Arm(key, q, policy_.flush_after);
      }
      break;
  }
}

void Formation::Arm(const LaneKey& key, Queue& q, SimTime delay) {
  // Lanes are never erased while the formation lives, so the task may hold
  // its queue by address.
  // fargolint: allow(capture-this) the owning Core outlives its formation; Discard cancels pending flushes on crash/teardown
  q.timer = sched_.ScheduleAfter(delay, [this, key, &q] { Flush(key, q); });
}

void Formation::Flush(const LaneKey& key, Queue& q) {
  if (q.timer != 0) {
    sched_.Cancel(q.timer);
    q.timer = 0;
  }
  if (q.items.empty()) return;

  // The lane stays resident: its item vector keeps its storage for the
  // next batch. Network::Send and the flush hook never re-enter formation.
  ++flushes_;
  std::size_t sent_bytes = 0;
  const std::size_t count = q.items.size();
  if (count == 1) {
    // Single occupant: send the raw message unchanged, so low-load wire
    // traffic is byte-identical to an unbatched build.
    ++single_sends_;
    sent_bytes = q.items.front().payload.size();
    net_.Send(std::move(q.items.front()));
  } else {
    serial::FrameWriter frame;
    serial::Writer item;
    for (const Message& m : q.items) {
      WriteBatchItem(item, m);
      frame.Add(item.buffer());
      item = serial::Writer{};
    }
    Message batch;
    batch.from = self_;
    batch.to = key.dest;
    batch.kind = MessageKind::kBatch;
    batch.payload = frame.Finish();
    ++frames_;
    batched_items_ += count;
    sent_bytes = batch.payload.size();
    net_.Send(std::move(batch));
  }
  q.items.clear();
  q.bytes = 0;
  if (hook_) hook_(key.dest, key.lane, count, sent_bytes);
}

void Formation::FlushAll() {
  for (auto& [key, q] : queues_) Flush(key, q);
}

void Formation::Discard() {
  for (auto& [key, q] : queues_) {
    if (q.timer != 0) sched_.Cancel(q.timer);
    q.timer = 0;
    q.items.clear();
    q.bytes = 0;
  }
}

std::size_t Formation::queued() const {
  std::size_t n = 0;
  for (const auto& [key, q] : queues_) n += q.items.size();
  return n;
}

}  // namespace fargo::net
