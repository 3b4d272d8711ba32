/**
 * @file
 * Reliability-layer selection (docs/ARCHITECTURE.md "Reliability
 * layer") — the delivery-guarantee twin of the transport seam's
 * TransportKind: a small closed enum and its config axis. `e2e`
 * wraps whatever Transport backend was selected in the link-level
 * reliability decorator (src/reliable/reliable_transport.hh), which
 * makes delivery exactly-once and in order even when the fault plan
 * drops, duplicates or corrupts packets on the inner fabric.
 */

#ifndef CENJU_RELIABLE_KIND_HH
#define CENJU_RELIABLE_KIND_HH

#include <cstdint>

#include "sim/parse.hh"

namespace cenju
{

/** Delivery-guarantee flavour of the transport stack. */
enum class ReliabilityKind : std::uint8_t
{
    Off, ///< bare backend: the fabric is trusted (Cenju-4 hardware
         ///< assumption); loss faults are rejected at plan time
    E2e, ///< end-to-end decorator: sequencing, checksums, acks and
         ///< retransmit survive a lossy inner fabric
};

/**
 * The reliability axis. Default off (the decorator serializes
 * fabric gather/combining in software, so it is strictly opt-in),
 * overridable with CENJU_RELIABILITY.
 */
inline constexpr ConfigAxis reliabilityAxis(
    enumTable<ReliabilityKind>({
        {ReliabilityKind::Off, "off"},
        {ReliabilityKind::E2e, "e2e"},
    }),
    ReliabilityKind::Off, "reliability", "CENJU_RELIABILITY",
    "delivery guarantee");

} // namespace cenju

#endif // CENJU_RELIABLE_KIND_HH
