#include "perfbench/comlets.h"

#include "src/core/core.h"
#include "src/core/relocator.h"
#include "src/serial/graph.h"

namespace perfbench {

using fargo::Value;

Account::Account() {
  methods().Register("write", [this](const std::vector<Value>& args) {
    balance_ += args.at(0).AsInt();
    ++writes_;
    return Value(balance_);
  });
  methods().Register("read", [this](const std::vector<Value>&) {
    ++reads_;
    return Value(balance_);
  });
  methods().Register("state", [this](const std::vector<Value>&) {
    return Value(Value::List{Value(balance_), Value(reads_), Value(writes_)});
  });
}

void Account::Serialize(fargo::serial::GraphWriter& w) const {
  w.WriteInt(balance_);
  w.WriteInt(reads_);
  w.WriteInt(writes_);
}

void Account::Deserialize(fargo::serial::GraphReader& r) {
  balance_ = r.ReadInt();
  reads_ = r.ReadInt();
  writes_ = r.ReadInt();
}

Partner::Partner() : state_(kStateBytes, 0x5a) {
  methods().Register("size", [this](const std::vector<Value>&) {
    return Value(static_cast<std::int64_t>(state_.size()));
  });
}

void Partner::Serialize(fargo::serial::GraphWriter& w) const {
  w.WriteBytes(state_);
}

void Partner::Deserialize(fargo::serial::GraphReader& r) {
  state_ = r.ReadBytes();
}

Mobile::Mobile() {
  methods().Register("bind", [this](const std::vector<Value>& args) {
    partner_ = core()->RefTo<Partner>(args.at(0));
    fargo::core::Core::GetMetaRef(partner_).SetRelocator(
        fargo::core::MakeRelocator("pull"));
    return Value();
  });
  methods().Register("touch", [this](const std::vector<Value>&) {
    return Value(++touches_);
  });
  methods().Register("state", [this](const std::vector<Value>&) {
    return Value(touches_);
  });
}

void Mobile::Serialize(fargo::serial::GraphWriter& w) const {
  partner_.SerializeTo(w);
  w.WriteInt(touches_);
}

void Mobile::Deserialize(fargo::serial::GraphReader& r) {
  partner_.DeserializeFrom(r);
  touches_ = r.ReadInt();
}

void RegisterComlets() {
  fargo::serial::RegisterType<Account>();
  fargo::serial::RegisterType<Partner>();
  fargo::serial::RegisterType<Mobile>();
}

}  // namespace perfbench
