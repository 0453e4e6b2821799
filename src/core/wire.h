// Wire-format helpers shared by the invocation, movement, naming and event
// protocols (the Peer Interface payloads of Fig 1).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/common/value.h"
#include "src/serial/bytes.h"
#include "src/serial/value_codec.h"

namespace fargo::core::wire {

// ==== causal tracing =========================================================

/// Causal trace context carried by protocol payloads. A trace is minted at
/// a root invocation and flows through forwarding hops, retries (same
/// trace, new span, retry tag), movement streams and heartbeat traffic, so
/// every message of one causal chain shares a trace id.
struct TraceContext {
  std::uint64_t trace_id = 0;     ///< 0 = no trace (tracing off / old peer)
  std::uint64_t span_id = 0;      ///< span that emitted this message
  std::uint64_t parent_span = 0;  ///< 0 = root span of the trace
  std::uint32_t retry = 0;        ///< retry ordinal of the emitting attempt

  bool valid() const { return trace_id != 0; }
  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

/// Marker byte opening a trace tail. Trace fields are appended at the END
/// of a payload, behind everything a pre-tracing decoder reads, so old
/// encoders interoperate both ways: a payload without the tail decodes to
/// an invalid (all-zero) context, and a decoder that does not know about
/// the tail simply never reads it.
inline constexpr std::uint8_t kTraceTailMarker = 0x54;  // 'T'

inline void WriteTraceTail(serial::Writer& w, const TraceContext& t) {
  if (!t.valid()) return;  // byte-identical to the pre-tracing format
  w.WriteU8(kTraceTailMarker);
  w.WriteVarint(t.trace_id);
  w.WriteVarint(t.span_id);
  w.WriteVarint(t.parent_span);
  w.WriteVarint(t.retry);
}

/// Reads a trace tail if one follows; returns an invalid context for
/// old-format payloads (reader already at the end).
inline TraceContext ReadTraceTail(serial::Reader& r) {
  if (r.AtEnd()) return TraceContext{};
  if (r.ReadU8() != kTraceTailMarker)
    throw serial::SerialError("corrupt trace tail marker");
  TraceContext t;
  t.trace_id = r.ReadVarint();
  t.span_id = r.ReadVarint();
  t.parent_span = r.ReadVarint();
  t.retry = static_cast<std::uint32_t>(r.ReadVarint());
  return t;
}

inline void WriteCoreId(serial::Writer& w, CoreId id) {
  w.WriteVarint(id.value);
}
inline CoreId ReadCoreId(serial::Reader& r) {
  return CoreId{static_cast<std::uint32_t>(r.ReadVarint())};
}

inline void WriteComletId(serial::Writer& w, ComletId id) {
  WriteCoreId(w, id.origin);
  w.WriteVarint(id.seq);
}
inline ComletId ReadComletId(serial::Reader& r) {
  ComletId id;
  id.origin = ReadCoreId(r);
  id.seq = r.ReadVarint();
  return id;
}

inline void WriteHandle(serial::Writer& w, const ComletHandle& h) {
  WriteComletId(w, h.id);
  WriteCoreId(w, h.last_known);
  w.WriteString(h.anchor_type);
}
inline ComletHandle ReadHandle(serial::Reader& r) {
  ComletHandle h;
  h.id = ReadComletId(r);
  h.last_known = ReadCoreId(r);
  h.anchor_type = r.ReadString();
  return h;
}

inline void WriteCoreList(serial::Writer& w, const std::vector<CoreId>& ids) {
  w.WriteVarint(ids.size());
  for (CoreId id : ids) WriteCoreId(w, id);
}
inline std::vector<CoreId> ReadCoreList(serial::Reader& r) {
  std::uint64_t n = r.ReadVarint();
  // Every encoded id occupies at least one byte, so a declared count past
  // the remaining payload is corrupt; reject it before reserve() turns an
  // attacker-controlled length into a giant allocation.
  if (n > r.remaining()) throw serial::SerialError("corrupt core-list length");
  std::vector<CoreId> ids;
  ids.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) ids.push_back(ReadCoreId(r));
  return ids;
}

inline void WriteComletList(serial::Writer& w,
                            const std::vector<ComletId>& ids) {
  w.WriteVarint(ids.size());
  for (ComletId id : ids) WriteComletId(w, id);
}
inline std::vector<ComletId> ReadComletList(serial::Reader& r) {
  std::uint64_t n = r.ReadVarint();
  if (n > r.remaining()) throw serial::SerialError("corrupt comlet-list length");
  std::vector<ComletId> ids;
  ids.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) ids.push_back(ReadComletId(r));
  return ids;
}

/// An invocation request as it travels the wire (kInvokeRequest payload).
/// Forwarding hops rewrite `handle.last_known` to their own next hop,
/// append themselves to `path`, and re-parent `trace`.
struct InvokeRequest {
  ComletHandle handle;
  std::string method;
  std::vector<Value> args;
  CoreId origin;
  std::vector<CoreId> path;  ///< Cores that forwarded this request so far
  bool oneway = false;       ///< fire-and-forget: the executor never replies
  /// Directory epoch of the location knowledge `handle.last_known` was
  /// routed by (0 = unstamped/legacy). A forwarding Core only chains along
  /// its own tracker hint when that hint is strictly newer; otherwise it
  /// asks the home shard and re-stamps (bounded-hop routing).
  std::uint64_t hint_epoch = 0;
  TraceContext trace;

  friend bool operator==(const InvokeRequest&, const InvokeRequest&) = default;
};

// fargolint: allow(wire-asymmetry) anchor_type only feeds the Reserve size hint; the field itself travels via WriteHandle/ReadHandle
inline std::vector<std::uint8_t> EncodeInvokeRequest(const InvokeRequest& rq) {
  serial::Writer w;
  // Size hint: fixed fields plus a small per-arg/per-hop allowance. Large
  // value arguments fall back to the Writer's doubling growth.
  w.Reserve(48 + rq.handle.anchor_type.size() + rq.method.size() +
            16 * rq.args.size() + 8 * rq.path.size());
  WriteHandle(w, rq.handle);
  w.WriteString(rq.method);
  serial::WriteValues(w, rq.args);
  WriteCoreId(w, rq.origin);
  WriteCoreList(w, rq.path);
  w.WriteBool(rq.oneway);
  w.WriteVarint(rq.hint_epoch);
  WriteTraceTail(w, rq.trace);
  return w.Take();
}

inline InvokeRequest DecodeInvokeRequest(
    const std::vector<std::uint8_t>& payload) {
  serial::Reader r(payload);
  InvokeRequest rq;
  rq.handle = ReadHandle(r);
  rq.method = r.ReadString();
  rq.args = serial::ReadValues(r);
  rq.origin = ReadCoreId(r);
  rq.path = ReadCoreList(r);
  rq.oneway = r.ReadBool();
  rq.hint_epoch = r.ReadVarint();
  rq.trace = ReadTraceTail(r);
  return rq;
}

/// An invocation's answer to its origin (kInvokeReply payload). `ok`
/// selects the shape: a result (value, answering host, hops, hint epoch)
/// or an error (transport flag, message). Every kInvokeReply is one of
/// these, except the empty reply a one-way invocation caches for its slot.
struct InvokeReply {
  bool ok = true;
  Value value;
  CoreId location;  ///< the Core that executed the request
  std::uint64_t hops = 0;  ///< hops the request traversed to get there
  /// How fresh "the target lives at `location`" is (0 = unstamped: the
  /// target left during the call, so the hint must not outrank a publish).
  std::uint64_t hint_epoch = 0;
  /// Error only: true = the request never executed (retry-safe), false =
  /// the method ran and threw.
  bool transport = false;
  std::string error;
  TraceContext trace;

  static InvokeReply Error(bool transport, std::string error,
                           const TraceContext& trace) {
    return {false, Value(), CoreId{}, 0, 0, transport, std::move(error), trace};
  }

  friend bool operator==(const InvokeReply&, const InvokeReply&) = default;
};

inline std::vector<std::uint8_t> EncodeInvokeReply(const InvokeReply& rp) {
  serial::Writer w;
  w.WriteBool(rp.ok);
  if (rp.ok) {
    serial::WriteValue(w, rp.value);
    WriteCoreId(w, rp.location);
    w.WriteVarint(rp.hops);
    w.WriteVarint(rp.hint_epoch);
  } else {
    w.WriteBool(rp.transport);
    w.WriteString(rp.error);
  }
  WriteTraceTail(w, rp.trace);
  return w.Take();
}

inline InvokeReply DecodeInvokeReply(const std::vector<std::uint8_t>& payload) {
  serial::Reader r(payload);
  InvokeReply rp;
  rp.ok = r.ReadBool();
  if (rp.ok) {
    rp.value = serial::ReadValue(r);
    rp.location = ReadCoreId(r);
    rp.hops = r.ReadVarint();
    rp.hint_epoch = r.ReadVarint();
  } else {
    rp.transport = r.ReadBool();
    rp.error = r.ReadString();
  }
  rp.trace = ReadTraceTail(r);
  return rp;
}

// ==== directory plane ========================================================

/// One-way location publish to a home shard (kDirectoryPublish payload).
/// `epoch == 0` is a host *assertion* ("I verifiably host this; re-stamp
/// me"): the shard keeps or bumps its stored epoch and echoes the
/// authoritative stamp back to the publisher as a kTrackerUpdate.
struct DirectoryPublish {
  ComletId comlet;
  CoreId location;
  std::uint64_t epoch = 0;
  SimTime as_of = 0;
  TraceContext trace;

  friend bool operator==(const DirectoryPublish&,
                         const DirectoryPublish&) = default;
};

inline std::vector<std::uint8_t> EncodeDirectoryPublish(
    const DirectoryPublish& p) {
  serial::Writer w;
  WriteComletId(w, p.comlet);
  WriteCoreId(w, p.location);
  w.WriteVarint(p.epoch);
  w.WriteVarint(static_cast<std::uint64_t>(p.as_of));
  WriteTraceTail(w, p.trace);
  return w.Take();
}
inline DirectoryPublish DecodeDirectoryPublish(
    const std::vector<std::uint8_t>& payload) {
  serial::Reader r(payload);
  DirectoryPublish p;
  p.comlet = ReadComletId(r);
  p.location = ReadCoreId(r);
  p.epoch = r.ReadVarint();
  p.as_of = static_cast<SimTime>(r.ReadVarint());
  p.trace = ReadTraceTail(r);
  return p;
}

/// Shard lookup request (kDirectoryLookup payload; answered with
/// kDirectoryReply = ok preamble + DirectoryHint).
struct DirectoryLookup {
  ComletId comlet;
  TraceContext trace;

  friend bool operator==(const DirectoryLookup&,
                         const DirectoryLookup&) = default;
};

inline std::vector<std::uint8_t> EncodeDirectoryLookup(
    const DirectoryLookup& q) {
  serial::Writer w;
  WriteComletId(w, q.comlet);
  WriteTraceTail(w, q.trace);
  return w.Take();
}
inline DirectoryLookup DecodeDirectoryLookup(
    const std::vector<std::uint8_t>& payload) {
  serial::Reader r(payload);
  DirectoryLookup q;
  q.comlet = ReadComletId(r);
  q.trace = ReadTraceTail(r);
  return q;
}

/// An epoch-stamped location hint: the shard's current knowledge, or
/// found = false when the shard has never heard of the complet.
struct DirectoryHint {
  bool found = false;
  CoreId location;
  std::uint64_t epoch = 0;

  friend bool operator==(const DirectoryHint&, const DirectoryHint&) = default;
};

inline void WriteDirectoryHint(serial::Writer& w, const DirectoryHint& h) {
  w.WriteBool(h.found);
  WriteCoreId(w, h.location);
  w.WriteVarint(h.epoch);
}
inline DirectoryHint ReadDirectoryHint(serial::Reader& r) {
  DirectoryHint h;
  h.found = r.ReadBool();
  h.location = ReadCoreId(r);
  h.epoch = r.ReadVarint();
  return h;
}

/// Standard reply preamble: ok flag, then an error message when not ok.
inline void WriteOk(serial::Writer& w) { w.WriteBool(true); }
inline void WriteError(serial::Writer& w, const std::string& message) {
  w.WriteBool(false);
  w.WriteString(message);
}
/// Reads the preamble; throws FargoError when the reply carries an error.
inline void CheckOk(serial::Reader& r) {
  if (!r.ReadBool()) throw FargoError(r.ReadString());
}

}  // namespace fargo::core::wire
