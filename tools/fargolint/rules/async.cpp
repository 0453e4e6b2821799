// Async family: scheduled-continuation hygiene. Continuations outlive the
// stack that created them, so default reference captures and bare `this`
// are lifetime bugs in waiting. Handlers never block: pumping the event
// loop from a continuation, a complet method or an event listener throws
// at run time (a pump inside the running pump).
#include "tools/fargolint/rules.h"

namespace fargolint {
namespace {

bool InSink(const FileCtx& f, std::size_t i) {
  for (const Span& s : f.sink_spans)
    if (s.Contains(i)) return true;
  return false;
}

/// The `(` that calls the name at `name`, past a template argument list
/// (`Invoke<R>(`); 0 when the name is not called there.
std::size_t CallParen(const std::vector<Token>& t, std::size_t name) {
  std::size_t j = name + 1;
  if (j < t.size() && IsPunct(t[j], "<")) {
    for (int depth = 0; j < t.size(); ++j) {
      if (IsPunct(t[j], "<")) {
        ++depth;
      } else if (IsPunct(t[j], ">")) {
        if (--depth == 0) break;
      } else if (IsPunct(t[j], "(")) {
        j = MatchingClose(t, j);
      } else if (IsPunct(t[j], ";") || IsPunct(t[j], "{") ||
                 IsPunct(t[j], "}")) {
        return 0;
      }
    }
    ++j;
  }
  return j < t.size() && IsPunct(t[j], "(") ? j : 0;
}

/// Flags blocking calls in tokens [begin, end). `skip_sinks` leaves calls
/// inside sink arguments to the continuation check, which reports them.
void CheckBlockingCallsIn(const FileCtx& f, std::size_t begin, std::size_t end,
                          const char* where, std::vector<Finding>& out,
                          bool skip_sinks = false) {
  const std::vector<Token>& t = f.lx.toks;
  for (std::size_t i = begin; i < end && i + 1 < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent || BlockingNames().count(t[i].text) == 0)
      continue;
    if (CallParen(t, i) == 0 || (skip_sinks && InSink(f, i))) continue;
    out.push_back({"no-pump", f.src->path, t[i].line,
                   "blocking call '" + t[i].text + "' " + where +
                       "; use the *Async form or restructure as a "
                       "continuation (DESIGN.md §5)",
                   ExcerptAt(f.lx, t[i].line)});
  }
}

/// Method handlers (`Register`) and event listeners (`Listen*`) run as
/// scheduled work too, so their lambdas must not block either. Only the
/// blocking rule applies: the anchor or listener owns their lifetimes.
void CheckHandlers(const FileCtx& f, std::vector<Finding>& out) {
  static const std::set<std::string> kHandlerSinks = {
      "Register", "Listen", "ListenAt", "ListenThresholdAt"};
  const std::vector<Token>& t = f.lx.toks;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent || kHandlerSinks.count(t[i].text) == 0 ||
        !IsPunct(t[i + 1], "("))
      continue;
    const char* where = t[i].text == "Register" ? "inside a method handler"
                                                : "inside an event listener";
    const std::size_t close = MatchingClose(t, i + 1);
    for (std::size_t j = i + 2; j < close && j < t.size(); ++j) {
      if (!IsPunct(t[j], "[") || !IsLambdaIntro(t, j)) continue;
      Lambda lam = ParseLambda(t, j);
      if (lam.body_open == 0) continue;
      CheckBlockingCallsIn(f, lam.body_open, lam.body_close, where, out,
                           /*skip_sinks=*/true);
      j = lam.body_close;
    }
  }
}

void CheckContinuations(const FileCtx& f, std::vector<Finding>& out) {
  const std::vector<Token>& t = f.lx.toks;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!IsPunct(t[i], "[") || !IsLambdaIntro(t, i) || !InSink(f, i)) continue;
    Lambda lam = ParseLambda(t, i);
    if (lam.body_open == 0) continue;  // not actually a lambda

    // -- capture list inspection ------------------------------------------
    bool has_keepalive = false;
    for (std::size_t j = i + 1; j < lam.capture_end; ++j) {
      if (t[j].kind != Tok::kIdent) continue;
      const std::string& s = t[j].text;
      if (s == "shared_from_this") has_keepalive = true;
      // An init-capture whose name says "I am the lifetime guard":
      // `alive = alive_`, `keepalive = anchor`, `self = shared_from_this()`.
      if (j + 1 < t.size() && IsPunct(t[j + 1], "=") &&
          (s == "self" || s.find("alive") != std::string::npos ||
           s.find("keep") != std::string::npos || s.find("guard") != std::string::npos))
        has_keepalive = true;
    }
    for (std::size_t j = i + 1; j < lam.capture_end; ++j) {
      if (IsPunct(t[j], "&") &&
          (IsPunct(t[j + 1], "]") || IsPunct(t[j + 1], ","))) {
        out.push_back(
            {"capture-ref", f.src->path, t[j].line,
             "[&] default reference capture in a scheduled continuation: "
             "everything captured must outlive the event queue. Capture "
             "explicitly by value (move handles/ids in) instead",
             ExcerptAt(f.lx, t[j].line)});
      }
      if (t[j].kind == Tok::kIdent && t[j].text == "this" &&
          !(j > 0 && IsPunct(t[j - 1], "*")) && !has_keepalive) {
        out.push_back(
            {"capture-this", f.src->path, t[j].line,
             "bare `this` captured into a scheduled continuation without an "
             "owner-keepalive: pair it with `self = shared_from_this()`, an "
             "`alive`-flag capture, or annotate allow(capture-this) with the "
             "lifetime argument",
             ExcerptAt(f.lx, t[j].line)});
      }
    }

    // -- body: no blocking calls inside a continuation ---------------------
    CheckBlockingCallsIn(f, lam.body_open, lam.body_close,
                         "inside a scheduled continuation", out);
  }

  // -- declared no-pump region -------------------------------------------
  if (f.ann.no_pump_region_start != 0) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].line > f.ann.no_pump_region_start) {
        CheckBlockingCallsIn(f, i, t.size(), "inside a no-pump region", out);
        break;
      }
    }
  }
}

}  // namespace

const std::set<std::string>& SinkNames() {
  static const std::set<std::string> kSinks = {
      "Then",       "OrElse",    "OnSettle", "ScheduleAt",
      "ScheduleAfter", "ExpireAfter",
      // The affinity-routed cross-locality handoffs (FARGO_PARALLEL): a
      // closure handed to Post runs on another locality's worker thread,
      // so every continuation rule applies with extra force.
      "Post", "PostAfter"};
  return kSinks;
}

const std::set<std::string>& BlockingNames() {
  static const std::set<std::string> kBlocking = {
      "Invoke",   "Call",       "Move",         "MoveId", "Await",
      "Pump",     "PumpUntil",  "RunUntil",     "RunUntilOr",
      "RunUntilIdle", "RunFor", "RunOne"};
  return kBlocking;
}

std::vector<RuleInfo> AsyncRules() {
  return {
      {"no-pump",
       "blocking call (Invoke/Call/Move/MoveId/Await/Pump/RunUntil/...) "
       "inside a scheduled continuation, a method handler, an event "
       "listener or a declared no-pump region"},
      {"capture-ref",
       "default reference capture [&] in a lambda handed to the scheduler or "
       "future layer"},
      {"capture-this",
       "bare `this` captured into a scheduled continuation without an "
       "owner-keepalive (shared_from_this / alive-flag / keepalive capture)"},
  };
}

void CheckAsync(const Index& idx, std::vector<Finding>& out) {
  for (const FileCtx& f : idx.files) {
    CheckContinuations(f, out);
    CheckHandlers(f, out);
  }
}

}  // namespace fargolint
