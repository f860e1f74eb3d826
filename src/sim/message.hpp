#pragma once

#include <cstdint>

namespace qoslb {

using AgentId = std::uint32_t;

inline constexpr AgentId kNoAgent = ~AgentId{0};

/// Message kinds of the QoS load-balancing protocols in the asynchronous
/// (message-passing) realization. The payload field `a` is protocol-defined;
/// the engine never interprets it (MPI-style opaque payload).
enum class MsgType : std::uint8_t {
  kProbe,          // user -> resource: what is your load?
  kLoadReply,      // resource -> user: payload a = load
  kMigrateRequest, // user -> resource: may I join? payload a = user's threshold
  kGrant,          // resource -> user: admission granted
  kReject,         // resource -> user: admission denied
  kLeave,          // user -> resource: I am departing
  kLeaveAck,       // resource -> user: departure recorded (loss-tolerant mode)
  kTimer,          // self-scheduled wakeup (local clock; never faulted)
  kRecover,        // injector -> agent: your crash window just ended
};

/// Number of MsgType values, for per-type fault tables.
inline constexpr std::size_t kNumMsgTypes = 9;

struct Message {
  MsgType type = MsgType::kTimer;
  AgentId src = kNoAgent;
  AgentId dst = kNoAgent;
  /// Request sequence number for duplicate/stale suppression under message
  /// faults; 0 means unsolicited (resource-initiated notifies, legacy mode).
  /// Replies echo the request's seq.
  std::uint32_t seq = 0;
  std::int64_t a = 0;
};

}  // namespace qoslb
