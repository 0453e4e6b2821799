// Mobile agent: the paper's §2 reference-type showcase.
//
// An itinerant agent visits every site of a deployment carrying:
//   - a pull      reference to its notebook (private mutable state complet),
//   - a duplicate reference to a read-only configuration complet,
//   - a stamp     reference to "the local printer" — re-bound per site.
//
// Build & run:  ./build/examples/mobile_agent
#include <cstdio>
#include <string>

#include "src/fargo.h"

namespace {

using namespace fargo;

/// Private mutable state dragged along with the agent (pull).
class Notebook : public core::Anchor {
 public:
  static constexpr std::string_view kTypeName = "example.Notebook";
  Notebook() {
    methods().Register("append", [this](const std::vector<Value>& args) {
      entries_ += args.at(0).AsString() + "\n";
      return Value();
    });
    methods().Register("dump",
                       [this](const std::vector<Value>&) { return Value(entries_); });
  }
  std::string_view TypeName() const override { return kTypeName; }
  void Serialize(serial::GraphWriter& w) const override {
    w.WriteString(entries_);
  }
  void Deserialize(serial::GraphReader& r) override {
    entries_ = r.ReadString();
  }

 private:
  std::string entries_;
};

/// Read-only configuration, safe to replicate at each site (duplicate).
class Config : public core::Anchor {
 public:
  static constexpr std::string_view kTypeName = "example.Config";
  Config() {
    methods().Register("get", [this](const std::vector<Value>&) {
      return Value(greeting_);
    });
  }
  explicit Config(std::string greeting) : Config() {
    greeting_ = std::move(greeting);
  }
  std::string_view TypeName() const override { return kTypeName; }
  void Serialize(serial::GraphWriter& w) const override {
    w.WriteString(greeting_);
  }
  void Deserialize(serial::GraphReader& r) override {
    greeting_ = r.ReadString();
  }

 private:
  std::string greeting_ = "hello";
};

/// A location-bound device: one per site (stamp target).
class Printer : public core::Anchor {
 public:
  static constexpr std::string_view kTypeName = "example.Printer";
  Printer() {
    methods().Register("print", [this](const std::vector<Value>& args) {
      std::printf("  [printer @ %s] %s\n", core()->name().c_str(),
                  args.at(0).AsString().c_str());
      return Value();
    });
  }
  std::string_view TypeName() const override { return kTypeName; }
  void Serialize(serial::GraphWriter& w) const override { (void)w; }
  void Deserialize(serial::GraphReader& r) override { (void)r; }
};

/// The itinerant agent.
class Agent : public core::Anchor {
 public:
  static constexpr std::string_view kTypeName = "example.Agent";
  Agent() {
    methods().Register("setup", [this](const std::vector<Value>& args) {
      notebook_ = core()->RefTo<Notebook>(args.at(0));
      config_ = core()->RefTo<Config>(args.at(1));
      printer_ = core()->RefTo<Printer>(args.at(2));
      core::Core::GetMetaRef(notebook_).SetRelocator(core::MakeRelocator("pull"));
      core::Core::GetMetaRef(config_).SetRelocator(
          core::MakeRelocator("duplicate"));
      core::Core::GetMetaRef(printer_).SetRelocator(core::MakeRelocator("stamp"));
      return Value();
    });
    // Continuation invoked on arrival at each site (§3.3): do the site's
    // work using the three references. An async method: each call is
    // awaited in turn, never blocked on.
    methods().Register("visit", [this](const std::vector<Value>&) {
      const std::string site = core()->name();
      sim::Scheduler* sched = &core()->scheduler();
      return config_.CallAsync("get").Then(
          [notebook = notebook_, printer = printer_, site,
           sched](Value& greeting) {
            return notebook.CallAsync("append", {Value("visited " + site)})
                .Then([printer, site, sched,
                       greeting = greeting.AsString()](Value&) {
                  if (printer)
                    return printer.CallAsync(
                        "print",
                        {Value(greeting + " from the agent at " + site)});
                  std::printf("  [agent @ %s] no local printer here\n",
                              site.c_str());
                  return sim::MakeReadyFuture(*sched, Value());
                });
          });
    });
    methods().Register("report", [this](const std::vector<Value>&) {
      return notebook_.CallAsync("dump");
    });
  }
  std::string_view TypeName() const override { return kTypeName; }
  void Serialize(serial::GraphWriter& w) const override {
    notebook_.SerializeTo(w);
    config_.SerializeTo(w);
    printer_.SerializeTo(w);
  }
  void Deserialize(serial::GraphReader& r) override {
    notebook_.DeserializeFrom(r);
    config_.DeserializeFrom(r);
    printer_.DeserializeFrom(r);
  }

 private:
  core::ComletRef<Notebook> notebook_;
  core::ComletRef<Config> config_;
  core::ComletRef<Printer> printer_;
};

const bool kReg = serial::RegisterType<Notebook>() &&
                  serial::RegisterType<Config>() &&
                  serial::RegisterType<Printer>() &&
                  serial::RegisterType<Agent>();

}  // namespace

int main() {
  (void)kReg;
  core::Runtime rt;
  core::Core& home = rt.CreateCore("home");
  core::Core& lab = rt.CreateCore("lab");
  core::Core& office = rt.CreateCore("office");
  core::Core& cafe = rt.CreateCore("cafe");  // no printer here
  rt.network().SetDefaultLink({fargo::Millis(15), 1.25e6, true});

  std::printf("== FarGo mobile agent (pull / duplicate / stamp) ==\n");

  // Site devices: a printer everywhere except the cafe.
  auto home_printer = home.New<Printer>();
  lab.New<Printer>();
  office.New<Printer>();

  auto notebook = home.New<Notebook>();
  auto config = home.New<Config>("shalom");
  auto agent = home.New<Agent>();
  agent.Call("setup", {Value(notebook.handle()), Value(config.handle()),
                       Value(home_printer.handle())});
  agent.Call("visit");

  // The itinerary: each move carries notebook (pull) + a config copy
  // (duplicate) and re-binds the printer (stamp); "visit" is the arrival
  // continuation.
  for (core::Core* site : {&lab, &office, &cafe, &home}) {
    std::printf("-- moving agent to %s --\n", site->name().c_str());
    home.MoveId(agent.target(), site->id(), "visit", {});
    rt.RunUntilIdle();
  }

  std::printf("\nagent notebook:\n%s",
              agent.Call("report").AsString().c_str());
  std::printf("config copies in the deployment: ");
  int copies = 0;
  for (core::Core* c : rt.Cores())
    for (ComletId id : c->ComletsHere())
      if (c->repository().Get(id)->TypeName() == Config::kTypeName) ++copies;
  std::printf("%d (one per visited site, via duplicate)\n", copies);
  std::printf("total simulated time: %.1f ms, messages: %llu\n",
              fargo::ToMillis(rt.Now()),
              static_cast<unsigned long long>(rt.network().total_messages()));
  return 0;
}
