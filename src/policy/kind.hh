/**
 * @file
 * Coherence-policy backend selection (docs/ARCHITECTURE.md
 * "Protocol policies") — the protocol-layer twin of the transport
 * seam's TransportKind: a small closed enum and its config axis.
 */

#ifndef CENJU_POLICY_KIND_HH
#define CENJU_POLICY_KIND_HH

#include <cstdint>

#include "sim/parse.hh"

namespace cenju
{

/** Coherence-protocol flavour (selectable backends, src/policy/). */
enum class ProtocolKind : std::uint8_t
{
    Queuing,       ///< Cenju-4: park conflicting requests in memory
    Nack,          ///< DASH-style: negative-acknowledge and retry
    PhasePriority, ///< park in phase order: requests carry a phase
                   ///< epoch and the home serves same-block
                   ///< conflicts lowest-epoch-first (arxiv
                   ///< 1305.3038-style arbitration)
};

/**
 * The coherence-policy axis. Default queuing, overridable with
 * CENJU_PROTOCOL (how the CI protocol matrix reruns the unit tier
 * per backend).
 */
inline constexpr ConfigAxis protocolAxis(
    enumTable<ProtocolKind>({
        {ProtocolKind::Queuing, "queuing"},
        {ProtocolKind::Nack, "nack"},
        {ProtocolKind::PhasePriority, "phase-priority"},
    }),
    ProtocolKind::Queuing, "protocol", "CENJU_PROTOCOL",
    "coherence backend");

} // namespace cenju

#endif // CENJU_POLICY_KIND_HH
