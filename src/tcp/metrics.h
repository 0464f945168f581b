// SNMP-like counter set mirroring the Linux MIBs the paper reports
// (Tables 2, 3, 8, 10 and the early-retransmit statistics of §6). Each
// tcp::Sender owns one Metrics, the connection's ledger and the only
// place its counters are written; an experiment arm's Metrics is the sum
// of its connections' ledgers, folded once per connection.
#pragma once

#include <cstdint>
#include <string>

namespace prr::tcp {

struct Metrics {
  // --- transmission ---
  uint64_t data_segments_sent = 0;
  uint64_t bytes_sent = 0;

  // --- retransmission breakdown (Table 2) ---
  uint64_t retransmits_total = 0;
  uint64_t fast_retransmits = 0;        // sent while in fast recovery
  uint64_t timeout_retransmits = 0;     // first retransmit of each RTO
  uint64_t slow_start_retransmits = 0;  // further retransmits in Loss state
  uint64_t failed_retransmits = 0;      // sent but never advanced snd.una
                                        // on aborted connections

  // --- timeouts by the state they hit (Table 2) ---
  uint64_t timeouts_total = 0;
  uint64_t timeouts_in_open = 0;
  uint64_t timeouts_in_disorder = 0;
  uint64_t timeouts_in_recovery = 0;
  uint64_t timeouts_exp_backoff = 0;  // RTO while already in Loss

  // --- fast recovery (Table 3) ---
  uint64_t fast_recovery_events = 0;
  uint64_t dsacks_received = 0;
  uint64_t recoveries_with_dsack = 0;
  uint64_t lost_retransmits_detected = 0;
  uint64_t lost_fast_retransmits = 0;
  uint64_t undo_events = 0;   // congestion state reverted (Eifel/DSACK)
  uint64_t spurious_retransmits = 0;  // retransmits reported as DSACK dups
  uint64_t spurious_rto_undone = 0;   // F-RTO: timeout proved spurious

  // --- ECN (extension; RFC 6937's non-loss reduction path) ---
  uint64_t ecn_cwr_events = 0;

  // --- tail loss probe (extension; §8 future work) ---
  uint64_t tlp_probes_sent = 0;

  // --- early retransmit (§6) ---
  uint64_t er_triggered = 0;         // recoveries entered via ER
  uint64_t er_delayed_cancelled = 0; // pending delayed-ER cancelled by ACK
  uint64_t er_spurious = 0;          // ER recoveries later undone

  // --- adversarial-endpoint defenses (torture engine) ---
  uint64_t sack_reneg_events = 0;   // SACK marks forgotten at RTO
  uint64_t bad_acks_ignored = 0;    // ack > snd_nxt dropped (RFC 5961)
  uint64_t window_probes_sent = 0;  // zero-window probes (RFC 793)

  // --- connections (a sender's own ledger always reads 1) ---
  uint64_t connections = 0;
  uint64_t connections_aborted = 0;

  Metrics& operator+=(const Metrics& o);
  // Deterministic shard merge for the parallel experiment harness: all
  // fields are sums, so merging per-worker accumulators in any order
  // reproduces the serial counters exactly.
  void merge(const Metrics& o) { *this += o; }
  std::string summary() const;
};

}  // namespace prr::tcp
