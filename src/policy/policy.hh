/**
 * @file
 * The protocol-policy seam (docs/ARCHITECTURE.md "Protocol
 * policies"): what varies between coherence flavours, separated
 * from the mechanism that executes it.
 *
 * The home and master modules (src/protocol/) implement the full
 * appendix state machine — that part is shared by every flavour.
 * What differs is the *conflict discipline*: what the home does
 * with a request that hits a pending block, how parked work is
 * resumed after a reply, and how a master reacts to a nack. Those
 * three decisions are the CoherencePolicy interface; the engines
 * expose the operations a decision can take through the HomeCtx /
 * MasterCtx mechanism interfaces.
 *
 * Layering is deliberate: this module speaks only in addresses,
 * ticks, node ids and queue positions — no coherence message types,
 * no directory state — so src/policy/ sits *below* src/protocol/ in
 * the layering DAG (cenju-lint L001) and a backend author never
 * touches the engines. The hot per-packet dispatch path never
 * enters this interface; policies are consulted only on conflicts,
 * reservation-triggered queue scans and nacks, which is what keeps
 * the seam's virtual dispatch off the critical loop (docs/PERF.md).
 */

#ifndef CENJU_POLICY_POLICY_HH
#define CENJU_POLICY_POLICY_HH

#include <cstdint>
#include <memory>

#include "policy/kind.hh"
#include "sim/types.hh"

namespace cenju
{

/**
 * Home-side mechanism a policy steers. Implemented by HomeModule.
 *
 * On a conflict (a request arriving for a pending block) the engine
 * stages the offending request internally and calls the policy; the
 * policy then either parks it at a queue position of its choosing
 * or bounces it. The parked queue is kept in *service order*: the
 * engine always serves position 0 first, and the reservation bit
 * discipline (section 3.3) requires the bit to sit on the head's
 * block only.
 */
class HomeCtx
{
  public:
    /** Requests currently parked in the memory queue. */
    virtual std::size_t parkedCount() = 0;

    /** Phase epoch carried by parked request @p i (0 = oldest). */
    virtual std::uint32_t parkedEpochAt(std::size_t i) = 0;

    /** Block address of parked request @p i. */
    virtual Addr parkedAddrAt(std::size_t i) = 0;

    /**
     * Park the staged conflicting request at queue position @p pos
     * (0 = new head, parkedCount() = tail), charging the memory-
     * queue access time. Returns the advanced busy time.
     */
    virtual Tick parkConflictAt(std::size_t pos, Tick t) = 0;

    /** Bounce the staged conflicting request with a nack message. */
    virtual Tick sendNack(Tick t) = 0;

    /** Set or clear the reservation bit of @p addr's entry. */
    virtual void setBlockReservation(Addr addr, bool on) = 0;

    /** True while the parked request at the head has a block whose
     * directory operation is still in flight. @pre parkedCount() */
    virtual bool headBlockPending() = 0;

    /** Block address of the parked head. @pre parkedCount() */
    virtual Addr headAddr() = 0;

    /**
     * Pop and serve the parked head through the directory state
     * machine, charging queue and directory access times. Returns
     * the advanced busy time. @pre parkedCount()
     */
    virtual Tick serveHead(Tick t) = 0;

    /**
     * True when the injected SkipReservation bug (docs/CHECKING.md)
     * is active: the policy must then *not* set the reservation bit
     * when parking, so the checker can prove it detects starvation.
     */
    virtual bool reservationBugActive() = 0;

  protected:
    ~HomeCtx() = default;
};

/** Master-side mechanism a policy steers (MasterModule). */
class MasterCtx
{
  public:
    /**
     * Re-issue the request in MSHR @p slot after the configured
     * nack-retry delay, counting the retry.
     */
    virtual void scheduleNackRetry(unsigned slot) = 0;

  protected:
    ~MasterCtx() = default;
};

/**
 * One coherence flavour. A DsmNode owns one instance; its home and
 * master engines call in at the three variation points. The
 * per-master phase epoch lives here too (non-virtual — reading it
 * tags every outgoing request) and is advanced at phase boundaries
 * (Env::barrier); only the phase-priority backend gives it meaning.
 */
class CoherencePolicy
{
  public:
    virtual ~CoherencePolicy() = default;

    virtual ProtocolKind kind() const = 0;
    const char *name() const { return protocolAxis.name(kind()); }

    /**
     * A request for pending block @p addr, carrying phase epoch
     * @p epoch, conflicts with an in-flight directory operation.
     * The conflicting request is staged in @p h; park it (at a
     * position of the policy's choosing, maintaining the
     * reservation-on-head discipline) or nack it. Returns the
     * advanced busy time.
     */
    virtual Tick onHomeConflict(HomeCtx &h, Addr addr,
                                std::uint32_t epoch, Tick t) = 0;

    /**
     * A reply for a block whose entry carried the reservation bit
     * completed (the bit is already cleared): resume parked work.
     * Returns the advanced busy time.
     */
    virtual Tick onReplyCompleted(HomeCtx &h, Tick t) = 0;

    /** A nack arrived for the master's MSHR @p slot. */
    virtual void onNack(MasterCtx &m, unsigned slot) = 0;

    // --- per-master phase epoch (non-virtual: hot send path) ------

    /** Epoch stamped on this node's outgoing requests. */
    std::uint32_t epoch() const { return _epoch; }

    /** Enter the next phase (called at barrier completion). */
    void advanceEpoch() { ++_epoch; }

  private:
    std::uint32_t _epoch = 0;
};

/** Build the selected policy backend. */
std::unique_ptr<CoherencePolicy> makePolicy(ProtocolKind kind);

} // namespace cenju

#endif // CENJU_POLICY_POLICY_HH
