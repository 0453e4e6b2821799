// Robustness property tests: randomly corrupted or truncated wire data
// must raise SerialError (or decode to something) — never crash, hang, or
// over-read.
#include <gtest/gtest.h>

#include <random>

#include "src/core/wire.h"
#include "src/serial/value_codec.h"
#include "tests/support/comlets.h"

namespace fargo::testing {
namespace {

Value SampleValue() {
  Value::Map m;
  m["list"] = Value(Value::List{Value(1), Value("two"), Value(3.5)});
  m["handle"] =
      Value(ComletHandle{ComletId{CoreId{3}, 9}, CoreId{1}, "test.Message"});
  m["bytes"] = Value(std::vector<std::uint8_t>(100, 0x5a));
  m["blob"] = Value(ObjectBlob{"test.TreeNode", {1, 2, 3, 4}});
  return Value(std::move(m));
}

std::vector<std::uint8_t> SampleGraphBytes() {
  RegisterTestComlets();
  auto root = std::make_shared<TreeNode>();
  root->value = 42;
  root->left = std::make_shared<TreeNode>();
  root->right = root->left;  // aliasing
  root->left->value = 7;
  serial::Writer w;
  serial::GraphWriter gw(w);
  gw.WriteObject(root.get());
  return w.Take();
}

class CorruptionTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CorruptionTest, MutatedValueBytesNeverCrash) {
  std::mt19937 rng(GetParam());
  const std::vector<std::uint8_t> clean = serial::EncodeValue(SampleValue());
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> bytes = clean;
    // Flip 1-4 random bytes.
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f)
      bytes[rng() % bytes.size()] = static_cast<std::uint8_t>(rng());
    try {
      Value v = serial::DecodeValue(bytes);
      (void)v.ToDebugString();  // whatever decoded must be traversable
    } catch (const serial::SerialError&) {
      // rejected: fine
    } catch (const TypeError&) {
      // decoded into a shape the accessors reject: fine
    }
  }
}

TEST_P(CorruptionTest, TruncatedValueBytesNeverCrash) {
  std::mt19937 rng(GetParam());
  const std::vector<std::uint8_t> clean = serial::EncodeValue(SampleValue());
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> bytes = clean;
    bytes.resize(rng() % bytes.size());
    try {
      (void)serial::DecodeValue(bytes);
    } catch (const serial::SerialError&) {
    }
  }
}

TEST_P(CorruptionTest, MutatedGraphBytesNeverCrash) {
  std::mt19937 rng(GetParam());
  const std::vector<std::uint8_t> clean = SampleGraphBytes();
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> bytes = clean;
    bytes[rng() % bytes.size()] = static_cast<std::uint8_t>(rng());
    serial::Reader r(bytes);
    serial::GraphReader gr(r);
    try {
      (void)gr.ReadObject();
    } catch (const serial::SerialError&) {
    } catch (const std::bad_alloc&) {
      // absurd length prefixes may be caught by the allocator before the
      // bounds check; acceptable rejection
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionTest,
                         ::testing::Values(11u, 22u, 33u, 44u));

// ---- extended invocation wire format (optional trace tail) ------------------

core::wire::InvokeRequest SampleRequest(bool traced) {
  core::wire::InvokeRequest rq;
  rq.handle = ComletHandle{ComletId{CoreId{3}, 9}, CoreId{1}, "test.Counter"};
  rq.method = "apply";
  rq.args = {Value(std::int64_t{17}), Value("payload")};
  rq.origin = CoreId{4};
  rq.path = {CoreId{1}, CoreId{2}};
  if (traced)
    rq.trace = core::wire::TraceContext{0x400000000001, 0x400000000002,
                                        0x400000000001, 2};
  return rq;
}

TEST(InvokeWireTest, RoundTripsWithAndWithoutTraceTail) {
  for (bool traced : {false, true}) {
    const core::wire::InvokeRequest rq = SampleRequest(traced);
    const core::wire::InvokeRequest back =
        core::wire::DecodeInvokeRequest(core::wire::EncodeInvokeRequest(rq));
    EXPECT_EQ(back, rq) << "traced=" << traced;
    EXPECT_EQ(back.trace.valid(), traced);
  }
}

TEST(InvokeWireTest, UntracedEncodingIsByteIdenticalToOldFormat) {
  // An invalid context writes no tail at all, so pre-tracing peers see the
  // exact bytes they always did — and a payload that stops where the old
  // format stopped decodes to an invalid (all-zero) context.
  core::wire::InvokeRequest rq = SampleRequest(true);
  const std::vector<std::uint8_t> traced = core::wire::EncodeInvokeRequest(rq);
  rq.trace = core::wire::TraceContext{};
  const std::vector<std::uint8_t> old = core::wire::EncodeInvokeRequest(rq);
  EXPECT_LT(old.size(), traced.size());
  // The tail is a strict suffix: everything an old decoder reads is
  // untouched by the extension.
  EXPECT_TRUE(std::equal(old.begin(), old.end(), traced.begin()));

  const core::wire::InvokeRequest back = core::wire::DecodeInvokeRequest(old);
  EXPECT_FALSE(back.trace.valid());
  EXPECT_EQ(back, rq);
}

TEST(InvokeWireTest, TraceTailRoundTripsRandomContexts) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 500; ++i) {
    core::wire::TraceContext t;
    t.trace_id = rng();
    t.span_id = rng();
    t.parent_span = rng() % 3 == 0 ? 0 : rng();
    t.retry = static_cast<std::uint32_t>(rng() % 8);
    serial::Writer w;
    core::wire::WriteTraceTail(w, t);
    const std::vector<std::uint8_t> bytes = w.Take();
    serial::Reader r(bytes);
    const core::wire::TraceContext back = core::wire::ReadTraceTail(r);
    if (t.valid()) {
      EXPECT_EQ(back, t);
      EXPECT_TRUE(r.AtEnd());
    } else {
      EXPECT_TRUE(bytes.empty());
      EXPECT_FALSE(back.valid());
    }
  }
}

TEST_P(CorruptionTest, MutatedInvokeRequestBytesNeverCrash) {
  std::mt19937 rng(GetParam());
  const std::vector<std::uint8_t> clean =
      core::wire::EncodeInvokeRequest(SampleRequest(true));
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> bytes = clean;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f)
      bytes[rng() % bytes.size()] = static_cast<std::uint8_t>(rng());
    try {
      (void)core::wire::DecodeInvokeRequest(bytes);
    } catch (const serial::SerialError&) {
    } catch (const TypeError&) {
    } catch (const std::bad_alloc&) {
    }
  }
}

TEST_P(CorruptionTest, TruncatedInvokeRequestBytesNeverCrash) {
  std::mt19937 rng(GetParam());
  const std::vector<std::uint8_t> clean =
      core::wire::EncodeInvokeRequest(SampleRequest(true));
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> bytes = clean;
    bytes.resize(rng() % bytes.size());
    try {
      (void)core::wire::DecodeInvokeRequest(bytes);
    } catch (const serial::SerialError&) {
    } catch (const TypeError&) {
    } catch (const std::bad_alloc&) {
    }
  }
}

// ---- invocation replies: one codec, three shapes ----------------------------

core::wire::TraceContext SampleTrace() {
  return core::wire::TraceContext{0x400000000001, 0x400000000003,
                                  0x400000000002, 1};
}

/// The three shapes a kInvokeReply takes: a result, an application error
/// (the method ran and threw) and a transport error (never executed).
std::vector<core::wire::InvokeReply> SampleReplies(bool traced) {
  const core::wire::TraceContext trace =
      traced ? SampleTrace() : core::wire::TraceContext{};
  core::wire::InvokeReply ok;
  ok.value = SampleValue();
  ok.location = CoreId{3};
  ok.hops = 2;
  ok.hint_epoch = 300;
  ok.trace = trace;
  return {ok,
          core::wire::InvokeReply::Error(false, "counter overflow", trace),
          core::wire::InvokeReply::Error(true, "parked request expired",
                                         trace)};
}

/// The reply encoding as the invocation unit wrote it by hand before the
/// codec existed: the codec must stay byte-identical to it.
std::vector<std::uint8_t> HandEncoded(const core::wire::InvokeReply& rp) {
  serial::Writer w;
  if (rp.ok) {
    core::wire::WriteOk(w);
    serial::WriteValue(w, rp.value);
    core::wire::WriteCoreId(w, rp.location);
    w.WriteVarint(rp.hops);
    w.WriteVarint(rp.hint_epoch);
  } else {
    w.WriteBool(false);  // not ok
    w.WriteBool(rp.transport);
    w.WriteString(rp.error);
  }
  core::wire::WriteTraceTail(w, rp.trace);
  return w.Take();
}

TEST(InvokeReplyWireTest, EveryShapeRoundTrips) {
  for (bool traced : {false, true}) {
    for (const core::wire::InvokeReply& rp : SampleReplies(traced)) {
      const core::wire::InvokeReply back =
          core::wire::DecodeInvokeReply(core::wire::EncodeInvokeReply(rp));
      EXPECT_EQ(back, rp) << "traced=" << traced << " ok=" << rp.ok
                          << " transport=" << rp.transport;
      EXPECT_EQ(back.trace.valid(), traced);
    }
  }
}

TEST(InvokeReplyWireTest, BytesEqualTheHandEncoding) {
  for (bool traced : {false, true})
    for (const core::wire::InvokeReply& rp : SampleReplies(traced))
      EXPECT_EQ(core::wire::EncodeInvokeReply(rp), HandEncoded(rp))
          << "traced=" << traced << " ok=" << rp.ok
          << " transport=" << rp.transport;
  // Pinned literally for the smallest shapes, so a change to a shared
  // primitive cannot move both sides of the comparison above at once.
  core::wire::InvokeReply unit;
  unit.location = CoreId{2};
  unit.hops = 1;
  unit.hint_epoch = 5;
  EXPECT_EQ(core::wire::EncodeInvokeReply(unit),
            (std::vector<std::uint8_t>{1, 0, 2, 1, 5}));
  EXPECT_EQ(core::wire::EncodeInvokeReply(
                core::wire::InvokeReply::Error(true, "no", {})),
            (std::vector<std::uint8_t>{0, 1, 2, 'n', 'o'}));
}

TEST_P(CorruptionTest, MutatedInvokeReplyBytesNeverCrash) {
  std::mt19937 rng(GetParam());
  for (bool traced : {false, true}) {
    for (const core::wire::InvokeReply& rp : SampleReplies(traced)) {
      const std::vector<std::uint8_t> clean = core::wire::EncodeInvokeReply(rp);
      for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint8_t> bytes = clean;
        if (trial % 2 == 0) {
          const int flips = 1 + static_cast<int>(rng() % 4);
          for (int f = 0; f < flips; ++f)
            bytes[rng() % bytes.size()] = static_cast<std::uint8_t>(rng());
        } else {
          bytes.resize(rng() % bytes.size());
        }
        try {
          (void)core::wire::DecodeInvokeReply(bytes);
        } catch (const serial::SerialError&) {
        } catch (const TypeError&) {
        } catch (const std::bad_alloc&) {
        }
      }
    }
  }
}

TEST(RoundTripPropertyTest, RandomValuesRoundTrip) {
  std::mt19937_64 rng(99);
  // Random recursive value generator.
  std::function<Value(int)> gen = [&](int depth) -> Value {
    switch (rng() % (depth > 3 ? 6 : 8)) {
      case 0:
        return Value();
      case 1:
        return Value(static_cast<bool>(rng() & 1));
      case 2:
        return Value(static_cast<std::int64_t>(rng()));
      case 3:
        return Value(static_cast<double>(rng()) / 7.0);
      case 4:
        return Value(std::string(rng() % 40, 'q'));
      case 5:
        return Value(std::vector<std::uint8_t>(rng() % 64, 0x3c));
      case 6: {
        Value::List l;
        for (std::uint64_t i = 0; i < rng() % 5; ++i)
          l.push_back(gen(depth + 1));
        return Value(std::move(l));
      }
      default: {
        Value::Map m;
        for (std::uint64_t i = 0; i < rng() % 4; ++i)
          m["k" + std::to_string(i)] = gen(depth + 1);
        return Value(std::move(m));
      }
    }
  };
  for (int i = 0; i < 500; ++i) {
    Value v = gen(0);
    EXPECT_EQ(serial::DecodeValue(serial::EncodeValue(v)), v);
  }
}

}  // namespace
}  // namespace fargo::testing
