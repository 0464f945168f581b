// Randomized differential test for the scoreboard's incremental
// accounting: drive a scoreboard through random transmit / SACK /
// cumulative-ACK / retransmit / loss-marking / timeout sequences and
// check every O(1) tally — pipe(), total_sacked_bytes(),
// sacked_segment_count(), lost_segment_count(), any_sacked() — against a
// brute-force recomputation over records() after each operation.
#include "tcp/scoreboard.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/rng.h"

namespace prr::tcp {
namespace {

constexpr uint32_t kMss = 1000;

struct Brute {
  uint64_t pipe = 0;
  uint64_t sacked_bytes = 0;
  int sacked_segs = 0;
  int lost_segs = 0;
  bool any_sacked = false;
};

Brute brute_force(const Scoreboard& sb) {
  Brute b;
  for (const SegRecord& r : sb.records()) {
    if (r.sacked) {
      b.sacked_bytes += r.len();
      ++b.sacked_segs;
      b.any_sacked = true;
      continue;
    }
    if (!r.lost) b.pipe += r.len();
    if (r.lost) ++b.lost_segs;
    if (r.retransmitted) b.pipe += r.len();
  }
  return b;
}

void check_counters(const Scoreboard& sb, const char* after, int step) {
  const Brute b = brute_force(sb);
  ASSERT_EQ(sb.pipe(), b.pipe) << after << " step " << step;
  ASSERT_EQ(sb.total_sacked_bytes(), b.sacked_bytes) << after << " step "
                                                     << step;
  ASSERT_EQ(sb.sacked_segment_count(), b.sacked_segs) << after << " step "
                                                      << step;
  ASSERT_EQ(sb.lost_segment_count(), b.lost_segs) << after << " step "
                                                  << step;
  ASSERT_EQ(sb.any_sacked(), b.any_sacked) << after << " step " << step;
}

net::Segment make_ack(uint64_t cum,
                      std::vector<net::SackBlock> sacks = {}) {
  net::Segment a;
  a.is_ack = true;
  a.ack = cum;
  a.sacks.assign(sacks.begin(), sacks.end());
  return a;
}

// One randomized episode: grow a window, then shower it with random
// operations, cross-checking the tallies after every single one.
void run_episode(uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  sim::Rng rng(seed);
  Scoreboard sb(kMss);
  sb.reset(0);
  uint64_t snd_nxt = 0;
  sim::Time now = sim::Time::zero();

  for (int step = 0; step < 400; ++step) {
    now += sim::Time::milliseconds(1);
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    switch (op) {
      case 0:
      case 1:
      case 2: {  // transmit a burst of new segments
        const int burst = static_cast<int>(rng.uniform_int(1, 8));
        for (int i = 0; i < burst; ++i) {
          sb.on_transmit(snd_nxt, snd_nxt + kMss, now);
          snd_nxt += kMss;
        }
        check_counters(sb, "transmit", step);
        break;
      }
      case 3:
      case 4: {  // SACK a random run of whole segments (maybe with cum)
        if (sb.records().empty()) break;
        const auto& recs = sb.records();
        const std::size_t i = static_cast<std::size_t>(
            rng.uniform_int(0, recs.size() - 1));
        const std::size_t j = std::min(
            recs.size() - 1,
            i + static_cast<std::size_t>(rng.uniform_int(0, 3)));
        sb.on_ack(make_ack(sb.snd_una(), {{recs[i].start, recs[j].end}}),
                  now);
        check_counters(sb, "sack", step);
        break;
      }
      case 5: {  // cumulative ACK to a random record boundary
        if (sb.records().empty()) break;
        const auto& recs = sb.records();
        const std::size_t i = static_cast<std::size_t>(
            rng.uniform_int(0, recs.size() - 1));
        sb.on_ack(make_ack(recs[i].end), now);
        check_counters(sb, "cumulative ack", step);
        break;
      }
      case 6: {  // mark losses, then retransmit some candidates
        sb.update_loss_marks(static_cast<int>(rng.uniform_int(1, 4)),
                             rng.uniform_int(0, 1) == 0);
        check_counters(sb, "update_loss_marks", step);
        const int n = static_cast<int>(rng.uniform_int(1, 4));
        for (int i = 0; i < n; ++i) {
          const SegRecord* cand = sb.next_retransmit_candidate();
          if (cand == nullptr) break;
          sb.on_retransmit(cand->start, now, snd_nxt,
                           rng.uniform_int(0, 1) == 0);
          check_counters(sb, "retransmit", step);
        }
        break;
      }
      case 7: {  // RTO: everything unSACKed is lost
        sb.on_timeout_mark_all_lost();
        check_counters(sb, "timeout", step);
        break;
      }
      case 8: {  // early-retransmit entry / F-RTO undo
        if (rng.uniform_int(0, 1) == 0) {
          sb.mark_first_hole_lost();
          check_counters(sb, "mark_first_hole_lost", step);
        } else {
          sb.clear_unretransmitted_loss_marks();
          check_counters(sb, "clear_unretransmitted_loss_marks", step);
        }
        break;
      }
      case 9: {  // occasionally reset (new recovery episode)
        if (rng.uniform_int(0, 9) == 0) {
          sb.reset(snd_nxt);
          check_counters(sb, "reset", step);
        }
        break;
      }
    }
  }
}

TEST(ScoreboardDifferential, RandomizedCountersMatchBruteForce) {
  for (uint64_t seed = 1; seed <= 25; ++seed) run_episode(seed);
}

TEST(ScoreboardDifferential, LostRetransmitDetectionKeepsCountersExact) {
  // Deliberately walk the lost-retransmission path: retransmit a hole,
  // then SACK data sent after the retransmission so the retransmit is
  // declared lost again (retransmitted -> false, lost stays true).
  Scoreboard sb(kMss);
  sb.reset(0);
  uint64_t snd_nxt = 0;
  for (int i = 0; i < 10; ++i) {
    sb.on_transmit(snd_nxt, snd_nxt + kMss, sim::Time::zero());
    snd_nxt += kMss;
  }
  // SACK 3..10 -> segments 0..2 become FACK-lost.
  sb.on_ack(make_ack(0, {{3 * kMss, 10 * kMss}}), sim::Time::zero());
  sb.update_loss_marks(3, /*use_fack=*/true);
  check_counters(sb, "setup", 0);

  const SegRecord* cand = sb.next_retransmit_candidate();
  ASSERT_NE(cand, nullptr);
  sb.on_retransmit(cand->start, sim::Time::zero(), snd_nxt, true);
  check_counters(sb, "retransmit", 1);

  // New data beyond the retransmit marker, then SACK it: the retransmit
  // is deemed lost, and pipe must drop by exactly one segment again.
  const uint64_t pipe_before = sb.pipe();
  sb.on_transmit(snd_nxt, snd_nxt + kMss, sim::Time::zero());
  auto out = sb.on_ack(make_ack(0, {{snd_nxt, snd_nxt + kMss}}),
                       sim::Time::zero());
  snd_nxt += kMss;
  EXPECT_EQ(out.lost_retransmits_detected, 1);
  check_counters(sb, "lost-retransmit detection", 2);
  // The probe segment was transmitted and immediately SACKed (net zero),
  // and the retransmission's pipe contribution is gone: down one segment.
  EXPECT_EQ(sb.pipe(), pipe_before - kMss);
}

}  // namespace
}  // namespace prr::tcp
