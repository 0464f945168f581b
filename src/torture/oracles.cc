#include "torture/oracles.h"

#include <cstdio>
#include <utility>

namespace prr::torture {

ProgressWatchdog::ProgressWatchdog(tcp::Sender& sender,
                                   tcp::InvariantChecker& checker,
                                   Config config,
                                   std::function<bool()> path_up)
    : sender_(sender),
      checker_(checker),
      config_(config),
      path_up_(std::move(path_up)) {
  sender_.add_listener(this);
}

void ProgressWatchdog::on_rto(uint64_t snd_una, int /*backoff_count*/) {
  const uint64_t retx = sender_.retransmits();
  const bool up = path_up_ ? path_up_() : true;
  // Progress means either snd.una moved or the previous RTO's repair
  // actually retransmitted something (which an honest path may then
  // lose). An RTO firing with neither is the repair machinery spinning.
  if (!up || snd_una != last_una_ || retx != last_retx_) {
    stuck_ = 0;
  } else {
    ++stuck_;
  }
  last_una_ = snd_una;
  last_retx_ = retx;
  if (stuck_ >= config_.stuck_backoffs && !fired_) {
    fired_ = true;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "snd_una=%llu stuck across %d RTO firings with no "
                  "retransmission and path up",
                  static_cast<unsigned long long>(snd_una), stuck_);
    checker_.record_external(tcp::InvariantKind::kNoForwardProgress, buf);
  }
}

void check_deadlock(const sim::Simulator& sim, const tcp::Sender& sender,
                    tcp::InvariantChecker& checker) {
  if (!sim.idle()) return;  // stopped on the time limit, not a drain
  if (sender.all_acked() || sender.aborted()) return;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "event queue drained with snd_una=%llu < write_end=%llu, "
                "not aborted, no timer pending",
                static_cast<unsigned long long>(sender.snd_una()),
                static_cast<unsigned long long>(sender.write_end()));
  checker.record_external(tcp::InvariantKind::kNoTermination, buf);
}

void check_conservation(const tcp::Sender& sender,
                        tcp::InvariantChecker& checker) {
  const uint64_t una = sender.snd_una();
  const uint64_t nxt = sender.snd_nxt();
  const uint64_t end = sender.write_end();
  char buf[200];
  if (!(una <= nxt && nxt <= end)) {
    std::snprintf(buf, sizeof(buf),
                  "sequence ordering broken: snd_una=%llu snd_nxt=%llu "
                  "write_end=%llu",
                  static_cast<unsigned long long>(una),
                  static_cast<unsigned long long>(nxt),
                  static_cast<unsigned long long>(end));
    checker.record_external(tcp::InvariantKind::kConservation, buf);
    return;  // derived checks below would cascade
  }
  // A finished or aborted flow must leave nothing behind: the scoreboard
  // window is [snd_una, snd_nxt), so completion empties it and pipe goes
  // to zero. (A flow cut off by the time limit legitimately has flight.)
  if (sender.all_acked() || sender.aborted()) {
    const auto& sb = sender.scoreboard();
    if (sender.all_acked() && sb.has_records()) {
      std::snprintf(buf, sizeof(buf),
                    "flow completed but scoreboard retains records "
                    "(snd_una=%llu)",
                    static_cast<unsigned long long>(una));
      checker.record_external(tcp::InvariantKind::kConservation, buf);
    }
    if (sender.all_acked() && sb.pipe() != 0) {
      std::snprintf(buf, sizeof(buf),
                    "flow completed with nonzero pipe=%llu",
                    static_cast<unsigned long long>(sb.pipe()));
      checker.record_external(tcp::InvariantKind::kConservation, buf);
    }
  }
  // Transmission accounting: every byte past snd_una was put on the wire
  // at least once, so cumulative wire bytes cover [0, snd_nxt).
  const auto& m = sender.metrics();
  const uint64_t wire = m.bytes_sent;
  if (wire < nxt) {
    std::snprintf(buf, sizeof(buf),
                  "wire bytes %llu < snd_nxt %llu: acked data never sent",
                  static_cast<unsigned long long>(wire),
                  static_cast<unsigned long long>(nxt));
    checker.record_external(tcp::InvariantKind::kConservation, buf);
  }
}

}  // namespace prr::torture
