// Complet types owned by the benchmark. Every handler returns without
// blocking or pumping the scheduler, so they run unchanged under both
// engines, and every state is fixed-size, so per-op cost does not grow
// with the number of ops a run issues.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/core/anchor.h"
#include "src/core/ref.h"

namespace perfbench {

/// Fixed-size account. `write(amount, pad)` adds `amount`; `read(pad)`
/// returns the balance. Both count their own executions, which is what
/// the output checks compare against the ops issued. `state` (uncounted)
/// returns [balance, reads, writes].
class Account : public fargo::core::Anchor {
 public:
  static constexpr std::string_view kTypeName = "perfbench.Account";
  Account();
  std::string_view TypeName() const override { return kTypeName; }
  void Serialize(fargo::serial::GraphWriter& w) const override;
  void Deserialize(fargo::serial::GraphReader& r) override;

 private:
  std::int64_t balance_ = 0;
  std::int64_t reads_ = 0;
  std::int64_t writes_ = 0;
};

/// The 16 KiB state a Mobile drags along through its `pull` reference.
class Partner : public fargo::core::Anchor {
 public:
  static constexpr std::string_view kTypeName = "perfbench.Partner";
  static constexpr std::size_t kStateBytes = 16 * 1024;
  Partner();
  std::string_view TypeName() const override { return kTypeName; }
  void Serialize(fargo::serial::GraphWriter& w) const override;
  void Deserialize(fargo::serial::GraphReader& r) override;

 private:
  std::vector<std::uint8_t> state_;
};

/// A mobile complet holding a `pull` reference to its Partner, so every
/// move relocates both. `bind(handle)` sets the reference, `touch(pad)`
/// counts a call, `state` (uncounted) returns the touch count.
class Mobile : public fargo::core::Anchor {
 public:
  static constexpr std::string_view kTypeName = "perfbench.Mobile";
  Mobile();
  std::string_view TypeName() const override { return kTypeName; }
  void Serialize(fargo::serial::GraphWriter& w) const override;
  void Deserialize(fargo::serial::GraphReader& r) override;

 private:
  fargo::core::ComletRef<Partner> partner_;
  std::int64_t touches_ = 0;
};

/// Registers the three types with the serializer (idempotent).
void RegisterComlets();

}  // namespace perfbench
